"""Command-line entry point: ``python -m repro.harness <artifact>``.

Artifacts: ``table1``, ``table2``, ``table3``, ``fig1b``, ``fig6``, ``fig7``
or ``all``.  The ``--profile full`` switch uses the larger workloads recorded
in EXPERIMENTS.md; the default quick profile finishes in a few minutes.

``--workers N`` runs fig6's serial baselines as fault campaigns; the other
campaign flags fill in the same :class:`~repro.sim.parallel.CampaignConfig`
(tabled in the "Knobs and observability" section of ``docs/resilience.md``).
The parser rejects campaign flags that would reach no campaign.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.api import ENGINE_SPECS, engine_help
from repro.errors import SimulationError
from repro.harness import environment, fig1b, fig6, fig7, table2, table3
from repro.harness.experiments import FULL_PROFILE, QUICK_PROFILE
from repro.sim.parallel import CampaignConfig, progress_printer

_ARTIFACTS = {
    "table1": lambda args, profile: environment.run(),
    "table2": lambda args, profile: table2.run(args.benchmarks, profile),
    "table3": lambda args, profile: table3.run(args.benchmarks, profile),
    "fig1b": lambda args, profile: fig1b.run(args.benchmarks, profile),
    "fig6": lambda args, profile: fig6.run(
        args.benchmarks,
        profile,
        engine=args.engine,
        campaign=args.campaign,
        eraser_engine=args.eraser_engine,
    ),
    "fig7": lambda args, profile: fig7.run(
        args.benchmarks, profile, eraser_engine=args.eraser_engine
    ),
}

#: The artifacts that run a fault campaign, and so take the campaign flags.
CAMPAIGN_ARTIFACTS = ("fig6",)

#: The campaign flags by argparse destination, which is the CampaignConfig
#: field name except for ``progress`` (it fills ``on_progress``).
_CAMPAIGN_FLAGS = {
    "workers": "--workers",
    "progress": "--progress",
    "retries": "--retries",
    "chunk_timeout": "--chunk-timeout",
    "chaos": "--chaos",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eraser-harness",
        description="Regenerate the tables and figures of the ERASER evaluation.",
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_ARTIFACTS) + ["all"],
        help="which paper artifact to regenerate",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=None,
        help="restrict to a subset of benchmark names (default: the artifact's own set)",
    )
    parser.add_argument(
        "--profile",
        choices=["quick", "full"],
        default="quick",
        help="workload profile (quick: minutes; full: the EXPERIMENTS.md runs)",
    )
    parser.add_argument(
        "--engine",
        # choices AND help are derived from the registry, so new engines (and
        # their one-line stories) appear here without touching this file again
        choices=sorted(ENGINE_SPECS),
        default=None,
        help="override the kernel under the serial baselines (fig6 only; "
        "default: each baseline's defining kernel). " + engine_help(),
    )
    parser.add_argument(
        "--eraser-engine",
        choices=["interp", "codegen"],
        default="interp",
        help="concurrent kernel for the Eraser rows (fig6/fig7; codegen = "
        "the generated divergence-propagation kernel, default: interpreted)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run fig6's serial baselines as fault campaigns over N worker "
        "processes (1 = inline); the flags below need it",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        default=None,  # None = not given, like every other campaign flag
        help="stream live progress (detected counts, coverage %%, ETA) to "
        "stderr while fault campaigns run",
    )
    resilience = parser.add_argument_group(
        "campaign resilience (with --workers; docs/resilience.md)"
    )
    resilience.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="failed-chunk retry budget before quarantine (default: 2)",
    )
    resilience.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hard per-chunk watchdog deadline (default: adaptive, from "
        "observed chunk wall-times)",
    )
    resilience.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="chaos-injection plan for resilience testing, e.g. "
        "'crash:chunk=1,until_attempt=1;slow:seconds=0.5'",
    )
    return parser


def _campaign_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Optional[CampaignConfig]:
    """The one CampaignConfig the flags describe, or None without ``--workers``.

    Campaign flags that would reach no campaign are usage errors: all of
    them (``--workers`` included) when the chosen artifacts run none, and the
    rest when ``--workers`` is missing.
    """
    knobs = {dest: getattr(args, dest) for dest in _CAMPAIGN_FLAGS}
    knobs = {dest: value for dest, value in knobs.items() if value is not None}
    if not knobs:
        return None
    given = ", ".join(_CAMPAIGN_FLAGS[dest] for dest in knobs)
    if args.artifact != "all" and args.artifact not in CAMPAIGN_ARTIFACTS:
        parser.error(
            f"{given}: {args.artifact} runs no fault campaign "
            f"(only {', '.join(CAMPAIGN_ARTIFACTS)} does)"
        )
    if args.workers is None:
        parser.error(f"{given} need --workers (no campaign runs without it)")
    if knobs.pop("progress", False):
        knobs["on_progress"] = progress_printer()
    try:
        return CampaignConfig(**knobs)
    except SimulationError as error:
        parser.error(str(error))


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    """Parse the command line; ``args.campaign`` holds the campaign config."""
    parser = build_parser()
    args = parser.parse_args(argv)
    args.campaign = _campaign_config(parser, args)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    profile = FULL_PROFILE if args.profile == "full" else QUICK_PROFILE
    artifacts = sorted(_ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for name in artifacts:
        print(f"\n=== {name} ===")
        _ARTIFACTS[name](args, profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
