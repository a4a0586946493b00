"""One set-up sample: a fresh process that gets a workload ready to solve.

Usage: python3 perfbench/probe.py --workload NAME --seed N [--tiny]

Imports the solver, builds the workload's problem and configuration, runs the
discarded warm-up solve and prints ``ready <time.monotonic()>``.  The caller
takes the set-up time as that instant minus the instant it started this
process; CLOCK_MONOTONIC is shared by all processes of the machine.
"""

from __future__ import annotations

import argparse
import sys
import time

import bootstrap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    bootstrap.prepare()
    from workloads import ready

    ready(args.workload, args.seed, args.tiny)
    print(f"ready {time.monotonic()!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
