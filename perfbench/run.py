"""Fault-campaign benchmark: three single-process workloads and a layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pico_delta --seed 2025 --seconds 30 --trace 0

The workloads, and why each was chosen, are in ``workloads.py``.  A run
starts worker processes (``worker.py``) one after another, never two at
once: ``SETUP_RUNS`` that only set up, half of them before and half after
one that sets up and runs the campaign.  Each gets its own empty codegen
and result-cache directories under ``perfbench/.run/`` (removed when the
run ends), a fixed ``PYTHONHASHSEED`` and single-threaded NumPy; no process
pool is used.

``--trace 0`` reports the end-to-end metrics, in host wall time:

``campaign_s``
    seconds from "fault list ready, kernels loaded" to the coverage report
    of the fastest of the campaign repetitions that fit in ``--seconds`` (at
    least three).  The host is a share of a machine whose other tenants
    slow a core by up to half for tens of seconds at a time, so the median
    repetition of a run follows what the neighbours did during it; the
    fastest is the campaign's cost on a core left alone, which the runs
    agree on.  The median and the count are printed above the report;
``setup_s``
    median seconds a user pays once per design before the first fault is
    simulated -- importing ``repro``, parse and elaborate, stimulus, fault
    list, and generating and compiling every kernel the campaign uses
    against an empty codegen cache -- over ``SETUP_RUNS + 1`` processes
    spread over the run;
``peak_rss_mb``
    peak resident memory of the campaign process, in MiB.

Each worker runs on one CPU at a time: at its start, and before every
campaign repetition, it moves to the CPU that runs a short fixed loop
fastest (``host.pin_to_quietest_cpu``).  It also times a longer fixed loop
(``host.calibrate``) after set-up, and before every campaign repetition and
after the last.  The loop times are printed above the report as a
diagnostic of how fast the host ran meanwhile; they do not enter any metric.

``--trace 1`` runs one traced worker instead and reports the per-layer
metrics of ``spans.layer_metrics``; its spans are written to
``perfbench/.run/spans-<workload>-<seed>.jsonl``.

Every campaign repetition is checked (see ``workloads.py``); one that raises,
generates a kernel set-up did not, or whose verdicts do not check out counts
as a failed operation.  The last line of standard output is the JSON report;
the lines before it are diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, ".run")

#: Set-up-only worker processes per measured run; the campaign worker's own
#: set-up is one more sample of ``setup_s``.
SETUP_RUNS = 9

#: Wall-clock budget of one run; each worker gets what is left of it.
RUN_BUDGET_S = 170.0


def worker_env(workdir: str) -> dict:
    """A worker's environment: its own empty caches, fixed hashing, one thread."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_CODEGEN_CACHE=os.path.join(workdir, "codegen-cache"),
        REPRO_RESULT_CACHE=os.path.join(workdir, "result-cache"),
    )
    return env


def run_worker(role: str, args, workdir: str, deadline: float, *extra: str) -> dict:
    """Run one worker to completion; return the JSON report it printed last."""
    os.makedirs(workdir)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"the run's time budget was spent before the {role} worker")
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", workdir,
        *extra,
    ]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=worker_env(workdir),
        stdout=subprocess.PIPE,
        text=True,
        timeout=remaining,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def outcome(report: dict, metrics: dict) -> dict:
    """The final JSON object: correctness, operation counts and ``metrics``."""
    if report["digest"]:
        count, digest = report["digest"]
        print(f"verdicts: {count} detected, digest {digest}")
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def describe(name: str, samples: List[float]) -> None:
    """Print the raw samples behind one reported number."""
    print(
        f"{name}: median {statistics.median(samples):.4f} s, fastest {min(samples):.4f} s, "
        f"of {len(samples)} "
        f"({', '.join(f'{value:.4f}' for value in samples)})"
    )


def measured_run(args, workdir: str, deadline: float) -> dict:
    """The campaign worker between two halves of the ``SETUP_RUNS`` set-up workers."""

    def setup(index: int) -> dict:
        """One set-up-only worker's report."""
        return run_worker("setup", args, os.path.join(workdir, f"setup{index}"), deadline)

    setups = [setup(index) for index in range(SETUP_RUNS // 2)]
    report = run_worker(
        "campaign", args, os.path.join(workdir, "campaign"), deadline,
        "--seconds", str(args.seconds),
    )
    setups += [setup(index) for index in range(SETUP_RUNS // 2, SETUP_RUNS)]
    setup_s = [setup["setup_s"] for setup in setups] + [report["setup_s"]]
    describe("campaign_s", report["campaign_s"])
    describe("calibration_s beside the campaigns", report["calibration_s"])
    describe("setup_s", setup_s)
    describe(
        "calibration_s after set-up",
        [seconds for setup in setups for seconds in setup["calibration_s"]],
    )
    return outcome(
        report,
        {
            "campaign_s": (min(report["campaign_s"]), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
        },
    )


def traced_run(args, workdir: str, deadline: float) -> dict:
    """One traced worker; reports the per-layer metrics."""
    spans = os.path.join(RUN_DIR, f"spans-{args.workload}-{args.seed}.jsonl")
    report = run_worker(
        "trace", args, os.path.join(workdir, "trace"), deadline, "--spans", spans
    )
    layers = {name: tuple(value) for name, value in report["layers"].items()}
    busiest = sorted(
        (value, name) for name, (value, unit) in layers.items()
        if unit == "s" and not name.startswith("trace.")
    )[::-1][:6]
    print("largest self times: " + ", ".join(f"{name} {value:.3f} s" for value, name in busiest))
    print(f"spans: {os.path.relpath(spans, ROOT)}")
    return outcome(report, layers)


def main() -> int:
    """Parse the command line, run one workload and print its report."""
    parser = argparse.ArgumentParser(description="Fault-campaign benchmark (see the module docs).")
    parser.add_argument("--workload", required=True, help="pico_delta, c2v_vector or hv_eraser")
    parser.add_argument("--seed", type=int, default=2025, help="workload input seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="campaign measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUN_DIR)
    try:
        result = (traced_run if args.trace else measured_run)(args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
