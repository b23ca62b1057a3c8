"""Table-driven tests for the ``engine="auto"`` selection policy.

:func:`repro.sim.emitter.choose_engine` is a pure function of
``(fault count, activity, stride, numpy availability)``; this module pins the
documented decision table row by row, the structural activity proxy, the
design-level :func:`~repro.sim.emitter.resolve_engine` envelope (wide-memory
NumPy downgrade), and the end-to-end exactness of ``engine="auto"``.
"""

import pytest

from repro.api import compile_design, make_engine, simulate_good
from repro.errors import SimulationError
from repro.sim.emitter import (
    AUTO_LOW_ACTIVITY,
    AUTO_PACKED_MIN_FAULTS,
    AUTO_VECTOR_MIN_FAULTS,
    AUTO_WIDE_STRIDE,
    choose_engine,
    estimate_activity,
    resolve_engine,
    vector_capable,
)

#: A design outside the vector layout's envelope: memory words wider than the
#: 64-bit NumPy lane planes support.
WIDE_MEMORY_SRC = """
module widemem(
  input clk,
  input rst,
  input we,
  input [1:0] addr,
  input [127:0] wdata,
  output reg [127:0] rdata
);
  reg [127:0] mem [0:3];
  always @(posedge clk) begin
    if (rst) rdata <= 0;
    else begin
      if (we) mem[addr] <= wdata;
      rdata <= mem[addr];
    end
  end
endmodule
"""


# -------------------------------------------------------------- decision table
@pytest.mark.parametrize(
    "fault_count, activity, stride, numpy, expected",
    [
        # single-machine runs: interpretation only pays off on idle designs
        (0, 0.01, None, False, "event"),
        (1, AUTO_LOW_ACTIVITY / 2, None, True, "event"),
        (1, 0.5, None, False, "codegen"),
        (1, AUTO_LOW_ACTIVITY, None, False, "codegen"),  # boundary: >= is busy
        # a handful of faults: serial codegen re-runs beat near-empty words
        (2, 0.01, None, True, "codegen"),
        (AUTO_PACKED_MIN_FAULTS - 1, 0.9, 512, True, "codegen"),
        # the packed word is the workhorse of the mid range
        (AUTO_PACKED_MIN_FAULTS, 0.5, 33, False, "packed"),
        (AUTO_VECTOR_MIN_FAULTS - 1, 0.5, 33, True, "packed"),
        # big campaigns go to NumPy lane columns — if NumPy exists
        (AUTO_VECTOR_MIN_FAULTS, 0.5, 33, True, "packed-numpy"),
        (AUTO_VECTOR_MIN_FAULTS, 0.5, 33, False, "packed"),
        # wide strides tip the balance to the vector layout earlier
        (64, 0.5, AUTO_WIDE_STRIDE + 1, True, "packed-numpy"),
        (64, 0.5, AUTO_WIDE_STRIDE, True, "packed"),
        (63, 0.5, 512, True, "packed"),
        (64, 0.5, 512, False, "packed"),
        # unknown stride is treated as narrow
        (64, 0.5, None, True, "packed"),
    ],
)
def test_choose_engine_table(fault_count, activity, stride, numpy, expected):
    assert choose_engine(fault_count, activity, stride, numpy) == expected


def test_choose_engine_rejects_negative_fault_count():
    with pytest.raises(SimulationError, match="fault_count"):
        choose_engine(-1)


# ------------------------------------------------------------- activity proxy
def test_estimate_activity_bounds_and_monotonicity(counter_design, mux_design):
    for design in (counter_design, mux_design):
        activity = estimate_activity(design)
        assert 0.0 < activity <= 1.0


def test_estimate_activity_is_memoized(counter_design):
    first = estimate_activity(counter_design)
    assert counter_design.content_memo["activity_estimate"] == first
    # poison the memo: a second call must serve it, not recompute
    counter_design.content_memo["activity_estimate"] = 0.123
    assert estimate_activity(counter_design) == 0.123


def test_large_designs_estimate_idle():
    """A CPU-sized node count lands under the low-activity threshold."""

    class _FakeDesign:
        rtl_nodes = [None] * 500
        behavioral_nodes = [None] * 20
        content_memo = {}

    assert estimate_activity(_FakeDesign()) < AUTO_LOW_ACTIVITY


# ------------------------------------------------------------ design envelope
def test_resolve_engine_small_campaign(counter_design):
    assert resolve_engine(counter_design, fault_count=2, numpy_available=True) == (
        "codegen"
    )
    assert resolve_engine(counter_design, fault_count=16, numpy_available=False) == (
        "packed"
    )


def test_resolve_engine_probes_numpy_only_where_it_can_pick_it(counter_design, monkeypatch):
    import repro.sim.emitter as emitter

    def no_probe():
        raise AssertionError("NumPy probed for a count that cannot pick packed-numpy")

    monkeypatch.setattr(emitter, "numpy_is_available", no_probe)
    assert resolve_engine(counter_design, fault_count=1) in ("event", "codegen")
    assert resolve_engine(counter_design, fault_count=AUTO_PACKED_MIN_FAULTS - 1) == (
        "codegen"
    )
    with pytest.raises(AssertionError, match="NumPy probed"):
        resolve_engine(counter_design, fault_count=AUTO_PACKED_MIN_FAULTS)


def test_resolve_engine_numpy_downgrade_outside_vector_envelope(counter_design):
    wide = compile_design(WIDE_MEMORY_SRC, top="widemem")
    assert not vector_capable(wide)
    assert vector_capable(counter_design)
    # the raw table would say packed-numpy; the envelope forces packed
    assert (
        resolve_engine(wide, fault_count=AUTO_VECTOR_MIN_FAULTS, numpy_available=True)
        == "packed"
    )
    assert (
        resolve_engine(
            counter_design, fault_count=AUTO_VECTOR_MIN_FAULTS, numpy_available=True
        )
        == "packed-numpy"
    )


# --------------------------------------------------------------- end to end
def test_auto_engine_is_registered_and_exact(counter_design, counter_stimulus):
    """``make_engine(design, "auto")`` resolves and matches the event trace."""
    engine = make_engine(counter_design, "auto")
    assert engine is not None
    reference = simulate_good(counter_design, counter_stimulus, engine="event")
    assert simulate_good(counter_design, counter_stimulus, engine="auto") == reference
