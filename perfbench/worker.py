"""One measured process of the benchmark: set-up alone, or set-up and campaigns.

``run.py`` starts it in a prepared environment (``PYTHONPATH`` at the
checkout's ``src``, a fixed ``PYTHONHASHSEED``, fresh and empty codegen and
result-cache directories) and reads the JSON object it prints last::

    worker.py setup    --workload W --seed N --workdir DIR
    worker.py campaign --workload W --seed N --workdir DIR --seconds S
    worker.py trace    --workload W --seed N --workdir DIR --spans FILE

The process first moves to the quietest CPU (see ``host.py``), and again
before every campaign repetition.  Set-up time runs from just after that
first move, before ``repro`` is imported, until every kernel the campaign
uses is compiled.
"""

import time

import host

host.pin_to_quietest_cpu()
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import adapter  # noqa: E402  (imports repro: part of the measured set-up)
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

#: Campaign repetitions a measured run makes at least and at most.
MIN_REPS = 3
MAX_REPS = 400

#: Untraced repetitions before the traced one in the trace role.
UNTRACED_REPS = 3


def main() -> int:
    """Run one role and print its JSON report as the last line."""
    parser = argparse.ArgumentParser(description="One measured benchmark process.")
    parser.add_argument("role", choices=("setup", "campaign", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", help="where the trace role writes its spans")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.role == "trace" else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - _START
    if tracer is not None:
        tracer.uninstall()
    if args.role == "setup":
        calibration = [host.calibrate() for _ in range(3)]
        print(json.dumps({"setup_s": setup_s, "calibration_s": calibration}))
        return 0

    # set-up compiled every kernel the campaign uses: a repetition that adds
    # one to the codegen cache did work set-up should have done, and fails
    set_up_kernels = adapter.generated_kernels()
    calibration = []
    workload.prepare(args.workdir)
    times, verdicts = [], []

    def repeat():
        """One timed repetition; returns its result, ``None`` if it failed."""
        host.pin_to_quietest_cpu()
        calibration.append(host.calibrate())
        state = workload.fresh_state(os.path.join(args.workdir, f"rep{len(times)}"))
        begin = time.perf_counter()
        try:
            result = workload.campaign(state)
        except Exception:  # a failed operation: counted, and the run goes on
            traceback.print_exc()
            result = None
        times.append(time.perf_counter() - begin)
        if adapter.generated_kernels() != set_up_kernels:
            print(f"repetition {len(times) - 1} generated a kernel", flush=True)
            result = None
        verdicts.append(None if result is None else adapter.detections(result))
        return result

    if tracer is None:
        loop_start = time.perf_counter()
        while len(times) < MIN_REPS or (
            len(times) < MAX_REPS and time.perf_counter() - loop_start < args.seconds
        ):
            repeat()
    else:
        # the first repetition warms up; the fastest of the others is the
        # untraced time the traced repetition is compared with
        for _ in range(UNTRACED_REPS):
            repeat()
        tracer.install()
        traced = repeat()
        tracer.uninstall()
        if traced is None:
            raise RuntimeError("the traced campaign failed; no per-layer metrics")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(host.calibrate())

    oracle = workload.oracle()
    found = [verdict for verdict in verdicts if verdict is not None]
    reference = workload.expected() or (digest(found[0]) if found else None)
    failed = sum(
        1
        for verdict in verdicts
        if verdict is None
        or digest(verdict) != reference
        or any(verdict.get(name) != cycle for name, cycle in oracle.items())
    )
    report = {
        "attempted": len(verdicts),
        "failed": failed,
        "digest": list(digest(found[-1])) if found else None,
        "calibration_s": calibration,
    }
    if tracer is None:
        report.update(setup_s=setup_s, campaign_s=times, peak_rss_mb=peak_rss_mb)
    else:
        tracer.write(args.spans)
        layers = layer_metrics(
            tracer, adapter.stats(traced), len(verdicts[-1]), times[-1], min(times[1:-1])
        )
        report["layers"] = {name: list(value) for name, value in layers.items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
