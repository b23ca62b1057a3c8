"""Unknown ``engine=`` / runner / campaign-field names raise a clear ``ValueError``.

Every selector seam in the package routes bad names through
:class:`repro.errors.UnknownOptionError`, which subclasses BOTH
:class:`SimulationError` (so existing library-wide ``except`` clauses keep
working) and :class:`ValueError` (a bad argument is a bad value), and whose
message always lists the valid names — no more raw ``KeyError`` escaping from
a registry lookup.
"""

import pytest

from repro.api import make_engine
from repro.core.framework import EraserSimulator
from repro.errors import SimulationError, UnknownOptionError
from repro.fault.faultlist import generate_stuck_at_faults
from repro.harness.experiments import prepare_workload
from repro.sim.parallel import make_campaign_runner


def test_error_type_bridges_both_hierarchies():
    err = UnknownOptionError.for_option("engine", "warp", ["event", "codegen"])
    assert isinstance(err, ValueError)
    assert isinstance(err, SimulationError)
    assert "warp" in str(err) and "codegen" in str(err) and "event" in str(err)


def test_make_engine_lists_valid_names(counter_design):
    with pytest.raises(ValueError, match="eraser-codegen"):
        make_engine(counter_design, "turbo")
    # the policy-resolved name is registered (and therefore listed) too
    with pytest.raises(ValueError, match="auto"):
        make_engine(counter_design, "turbo")
    # the legacy expectation keeps holding too
    with pytest.raises(SimulationError, match="unknown engine"):
        make_engine(counter_design, "turbo")


def test_prepare_workload_rejects_unknown_engine():
    with pytest.raises(ValueError, match="auto"):
        prepare_workload("alu", engine="turbo")
    with pytest.raises(SimulationError, match="unknown engine"):
        prepare_workload("alu", engine="turbo")


def test_eraser_simulator_rejects_unknown_engine(counter_design):
    with pytest.raises(ValueError, match="codegen"):
        EraserSimulator(counter_design, engine="warp")
    with pytest.raises(SimulationError, match="unknown eraser engine"):
        EraserSimulator(counter_design, engine="warp")


def test_campaign_runner_rejects_unknown_kind(counter_design):
    with pytest.raises(ValueError, match="packed.*serial"):
        make_campaign_runner(counter_design, ("quantum", {}))


# ---------------------------------------------------- campaign knob validation
# Bad campaign knobs must fail up front with the argument's NAME in the
# message, not deep inside the pool loop with an unrelated traceback.  The
# knobs are validated when the CampaignConfig is built — before any pool or
# cache lookup — so a tiny workload is enough and nothing multiprocess
# actually runs.
def _campaign(counter_design, counter_stimulus, **kwargs):
    from repro.fault.faultlist import sample_faults
    from repro.sim.parallel import run_multiprocess

    faults = sample_faults(generate_stuck_at_faults(counter_design), 4, seed=1)

    return run_multiprocess(counter_design, counter_stimulus, faults, **kwargs)


@pytest.mark.parametrize(
    "knob, value",
    [
        ("workers", 0),
        ("workers", -2),
        ("width", 0),
        # no longer knobs (module constants now): rejected by name as
        # unknown campaign fields
        ("oversubscribe", 0),
        ("drop_stride", -1),
        ("progress_interval", 0),
        ("progress_interval", -0.5),
        # removed with the on-disk checkpoints (the result cache is the one
        # verdict store) and the caller-owned plane: rejected by name too
        ("checkpoint", "campaign.ckpt"),
        ("checkpoint_interval", 0),
        ("plane", None),
        # removed with the shared-memory verdict plane (the result cache is
        # the one way in for known verdicts)
        ("cross_drop", False),
        ("resume_from", None),
        ("retries", -1),
        ("chunk_timeout", 0),
        ("chunk_timeout", -3.0),
        ("chaos", "explode"),
    ],
)
def test_campaign_knobs_validated_up_front(
    counter_design, counter_stimulus, knob, value, tmp_path, monkeypatch
):
    with pytest.raises(SimulationError, match=knob):
        _campaign(counter_design, counter_stimulus, **{knob: value})
    # a fully warm cache replay simulates nothing, yet validates just the same
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "codegen-cache"))
    root = str(tmp_path / "results")
    warm = _campaign(counter_design, counter_stimulus, workers=1, cache=root)
    assert warm.stats.cache_writes == 4
    with pytest.raises(SimulationError, match=knob):
        _campaign(counter_design, counter_stimulus, cache=root, **{knob: value})


def test_retry_policy_validates_its_shape():
    from repro.sim.resilience import RetryPolicy

    with pytest.raises(SimulationError, match="max_attempts"):
        RetryPolicy(max_attempts=0)
    with pytest.raises(SimulationError, match="jitter"):
        RetryPolicy(jitter=1.5)
    with pytest.raises(SimulationError, match="backoff_factor"):
        RetryPolicy(backoff_factor=0.5)


def test_chaos_plan_rejects_bad_rules():
    from repro.errors import ChaosError
    from repro.sim.chaos import ChaosPlan

    with pytest.raises(ChaosError, match="unknown chaos kind"):
        ChaosPlan.parse("explode")
    with pytest.raises(ChaosError, match="bad chaos rule field"):
        ChaosPlan.parse("crash:when=later")
    with pytest.raises(ChaosError, match="bad chaos rule value"):
        ChaosPlan.parse("crash:chunk=soon")
    with pytest.raises(ChaosError, match="ChaosPlan or a plan string"):
        ChaosPlan.coerce(42)


def test_campaign_config_rejects_unknown_field(counter_design, counter_stimulus):
    from repro.sim.parallel import CampaignConfig

    with pytest.raises(ValueError, match="retries"):
        CampaignConfig().with_fields(retry_count=3)
    with pytest.raises(UnknownOptionError, match="shared_verdicts"):
        _campaign(counter_design, counter_stimulus, shared_verdicts=False)


def test_campaign_rejects_unknown_cache_mode(counter_design, counter_stimulus):
    with pytest.raises(ValueError, match="read.*readwrite"):
        _campaign(
            counter_design,
            counter_stimulus,
            workers=1,
            cache=True,
            cache_mode="write",
        )
    with pytest.raises(SimulationError, match="unknown cache_mode"):
        _campaign(
            counter_design,
            counter_stimulus,
            workers=1,
            cache=True,
            cache_mode="write",
        )
