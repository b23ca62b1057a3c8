#!/usr/bin/env python
"""Compare the four fault simulators on a benchmark design (mini Fig. 6).

Runs IFsim (serial, event-driven), VFsim (serial, generated code), the Z01X
surrogate (concurrent, explicit redundancy only) and Eraser (concurrent,
explicit + implicit redundancy) on the same workload, then prints execution
times, speedups over IFsim and the fault-coverage parity check.
"""

import argparse

from repro import (
    EraserSimulator,
    IFsimSimulator,
    VFsimSimulator,
    Z01XSurrogateSimulator,
    load_benchmark,
)
from repro.fault.faultlist import generate_stuck_at_faults, sample_faults
from repro.utils.tables import TextTable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="apb",
                        help="benchmark name (alu, fpu, sha256_hv, apb, sodor, ...)")
    parser.add_argument("--cycles", type=int, default=80)
    parser.add_argument("--faults", type=int, default=40)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    design, stimulus = load_benchmark(args.benchmark, cycles=args.cycles)
    faults = sample_faults(generate_stuck_at_faults(design), args.faults, seed=args.seed)
    print(f"{args.benchmark}: {design.num_cells} cells, {len(faults)} faults, "
          f"{stimulus.num_cycles()} cycles\n")

    simulators = [
        IFsimSimulator(design),
        VFsimSimulator(design),
        Z01XSurrogateSimulator(design),
        EraserSimulator(design),
    ]
    results = [sim.run(stimulus, faults) for sim in simulators]
    baseline = results[0]

    table = TextTable(["Simulator", "Time (s)", "Speedup vs IFsim", "Coverage (%)", "Verdicts match"])
    for result in results:
        table.add_row(
            [
                result.simulator,
                result.wall_time,
                baseline.wall_time / result.wall_time if result.wall_time else float("inf"),
                result.fault_coverage,
                "yes" if result.coverage.same_verdicts(baseline.coverage) else "NO",
            ]
        )
    print(table.render())

    eraser, z01x = results[3], results[2]
    print(f"\nEraser speedup over the Z01X surrogate: "
          f"{z01x.wall_time / eraser.wall_time:.1f}x "
          f"(paper reports 3.9x on average on its full-scale workloads)")


if __name__ == "__main__":
    main()
