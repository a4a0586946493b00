"""Self-test of the benchmark at tiny sizes (n_steps = k + m − 1).

Usage: python3 perfbench/selftest.py

Checks that every workload's untraced and traced runs print each metric
named in BENCHMARK.json with its unit and pass the correctness gate, that the
gate trips on a wrong reference, a non-finite value and a one-bit change,
and that the runner refuses to run in a directory without the solver source.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import bootstrap

HERE = bootstrap.ROOT / "perfbench"


def run_json(args: list[str], cwd=bootstrap.ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def check_runs(spec: dict, failures: list[str]) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_json([
                str(HERE / "run.py"), "--workload", name, "--seed", "1",
                "--seconds", "0.5", "--trace", str(trace), "--tiny",
            ])
            label = f"{name} trace {trace}"
            if code != 0 or out is None:
                failures.append(f"{label}: exit {code}, result {out}")
                continue
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(out)}")
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
                failures.append(f"{label}: not correct: {out}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics {got} != {want}")
            print(f"ok   {label}: {len(got)} metrics, {out['attempted']} solves")


def check_gate(failures: list[str]) -> None:
    import numpy as np

    from fbsde import solve
    from workloads import WORKLOADS, gate, make_problem, reference

    workload = WORKLOADS["coupled"].tiny()
    problem = make_problem(workload, 0)
    y0, z0, _ = solve(problem, workload.solver_config())
    y_ref, z_ref = reference(problem)
    first = (y0.tobytes(), z0.tobytes())
    flipped = y0.copy()
    flipped.view(np.int64)[0] ^= 1
    y_wrong = y_ref + 10 * workload.y_target
    z_wrong = z_ref - 10 * workload.z_target
    cases = {
        "right reference": ((y0, z0, y_ref, z_ref), False),
        "wrong y reference": ((y0, z0, y_wrong, z_ref), True),
        "wrong z reference": ((y0, z0, y_ref, z_wrong), True),
        "non-finite y0": ((y0 * np.nan, z0, y_ref, z_ref), True),
        "one-bit change": ((flipped, z0, y_ref, z_ref), True),
    }
    for label, (values, should_trip) in cases.items():
        reasons = gate(workload, *values, first)
        if bool(reasons) != should_trip:
            failures.append(f"gate, {label}: reasons {reasons}")
        else:
            print(f"ok   gate, {label}: {'trips' if should_trip else 'passes'}")


def check_without_source(failures: list[str]) -> None:
    """A directory holding only BENCHMARK.json and perfbench/ must not yield a result."""
    bare = bootstrap.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, bare / "perfbench", ignore=skip)
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
    try:
        code, out = run_json([
            "perfbench/run.py", "--workload", "scalar-k9", "--seed", "0",
            "--seconds", "1", "--trace", "0",
        ], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out is not None:
        failures.append(f"without source: exit {code}, result {out}")
    else:
        print(f"ok   without source: exit {code}, no result")


def main() -> int:
    bootstrap.prepare()
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_gate(failures)
    check_runs(spec, failures)
    bootstrap.OUT.mkdir(exist_ok=True)
    check_without_source(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
