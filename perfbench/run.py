"""fbsde solver benchmark: time to a checked solution, memory and accuracy.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs untraced and traced solves in turn and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every solve passed the correctness gate.  ``--workload all`` runs
each workload in a process of its own and prints each one's report.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bootstrap


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="solve at n_steps = k + m - 1 with loose targets (self-test only)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(argv: list[str], names) -> int:
    """Run every workload in its own process; exit 0 only if all pass."""
    status = 0
    for name in names:
        rest = [a if a != "all" else name for a in argv]
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, *rest], check=False)
        status = status or proc.returncode
    return status


def report(name: str, seed: int, result: dict, env: dict) -> None:
    """Human-readable lines: every metric by name and unit, then the environment."""
    detail = result["detail"]
    print(f"workload {name} seed {seed}: {result['attempted']} solves attempted, "
          f"{result['failed']} failed")
    samples = detail.get("solve_s_samples") or detail.get("traced_s_samples") or []
    for key, m in result["metrics"].items():
        note = f"  (median of {len(samples)} solves)" if key == "solve_s" else ""
        print(f"  {key:26s} {m['value']:.6g} {m['unit']}{note}")
    answer = detail.get("answer")
    if answer:
        print(f"  y0 {answer['y0']}  y_err {answer['y_err']:.3e}")
        print(f"  z0 {answer['z0']}  z_err {answer['z_err']:.3e}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import runner
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(argv, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    fn = runner.measure_traced if args.trace else runner.measure
    result = fn(args.workload, args.seed, args.seconds, tiny=args.tiny)
    env = runner.environment(args.seed)
    bootstrap.OUT.mkdir(exist_ok=True)
    record = bootstrap.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"workload": args.workload, "env": env, **result}, indent=1))
    report(args.workload, args.seed, result, env)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
