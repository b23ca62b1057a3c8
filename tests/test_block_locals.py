"""Block locals: the reads of an ``always`` block that no path can see stale.

:attr:`~repro.ir.behavioral.BehavioralNode.locals` comes from a forward
definite-assignment pass; the implicit check (Algorithm 1) leaves locals out
of its supports.  The unit tests pin the pass on one construct each.  The
soundness test runs a design with one local and one temporary that is *not*
a local (it is assigned on one branch only) against the serial event-driven
reference: treating every blocking-assigned read as a local lets a fault's
stale temporary go unseen and costs detections there.
"""

from fixture_designs import TEMPS_SRC
from repro.api import compile_design
from repro.baselines.base import SerialFaultSimulator
from repro.cfg.vdg import build_vdg
from repro.core.framework import EraserMode, EraserSimulator
from repro.fault.faultlist import generate_stuck_at_faults
from repro.sim.eraser_codegen import EraserCodegenSimulator
from repro.sim.stimulus import RandomStimulus


def block_locals(body: str, decls: str = "") -> set:
    """Names of the locals of one clocked block with ``body``."""
    source = f"""
    module m(
      input clk,
      input en,
      input [1:0] s,
      input [7:0] a,
      input [7:0] b,
      output reg [7:0] y
    );
      reg [7:0] t;
      {decls}
      always @(posedge clk) begin
        {body}
      end
    endmodule
    """
    node = compile_design(source, top="m").behavioral_nodes[0]
    return {signal.name for signal in node.locals}


# -------------------------------------------------------------- the pass
def test_a_whole_path_assignment_makes_a_local():
    assert block_locals("t = a + 1; y <= t;") == {"t"}
    assert block_locals("if (en) t = a; else t = b; y <= t;") == {"t"}


def test_a_one_branch_assignment_is_not_a_local():
    assert block_locals("if (en) t = a; y <= t;") == set()


def test_a_part_select_write_reads_the_old_value():
    assert block_locals("t[3:0] = a[3:0]; y <= t;") == set()
    # after a whole-signal write the part-select reads the new value
    assert block_locals("t = b; t[3:0] = a[3:0]; y <= t;") == {"t"}


def test_a_read_before_the_assignment_is_not_a_local():
    assert block_locals("y <= t; t = a;") == set()
    assert block_locals("t = t + a; y <= t;") == set()


def test_a_case_without_default_merges_the_fall_through():
    arms = "2'd0: t = a; 2'd1: t = b; 2'd2: t = a; 2'd3: t = b;"
    assert block_locals(f"case (s) {arms} endcase y <= t;") == set()
    assert block_locals(f"case (s) {arms} default: t = 0; endcase y <= t;") == {"t"}


def test_a_memory_word_is_never_a_local():
    decls = "reg [7:0] mem [0:3];"
    assert block_locals("mem[0] = a; y <= mem[0];", decls) == set()


def test_a_nonblocking_target_is_never_a_local():
    assert block_locals("t = a; y <= t; t <= b;") == set()


def test_vdg_support_drops_locals_but_keeps_their_inputs():
    design = compile_design(TEMPS_SRC, top="temps")
    node = design.behavioral_nodes[0]
    assert {signal.name for signal in node.locals} == {"u"}
    assert design.signal("u") in node.reads  # the explicit check still reads it
    vdg = build_vdg(node)
    support = set()
    for vnode in vdg.nodes:
        support |= {signal.name for signal in vnode.support}
    assert "u" not in support
    assert {"m", "t", "en"} <= support


# ---------------------------------------------------------- soundness
def test_temporaries_keep_every_engine_exact():
    """Every mode and the generated kernel match the event-driven reference."""
    design = compile_design(TEMPS_SRC, top="temps")
    stimulus = RandomStimulus(
        {"en": 1, "sel": 1, "x": 8, "y": 8}, cycles=40, clock="clk", seed=3
    )
    faults = generate_stuck_at_faults(design)
    reference = SerialFaultSimulator(design, engine="event").run(stimulus, faults)
    expected = reference.coverage.detections
    assert len(expected) == 102
    results = {
        mode: EraserSimulator(design, mode=mode).run(stimulus, faults)
        for mode in EraserMode
    }
    for mode, result in results.items():
        assert result.coverage.detections == expected, mode
    assert results[EraserMode.FULL].stats.bn_implicit_eliminations > 0
    generated = EraserCodegenSimulator(design, use_cache=False).run(stimulus, faults)
    assert generated.coverage.detections == expected
