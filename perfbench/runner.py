"""Closed-loop measurement of one workload.

One client in one process: each solve is issued only after the previous one
returns, with no worker threads.  An untraced run gives the end-to-end
metrics; a traced run gives the per-layer metrics and the tracing overhead.
Import only after :func:`bootstrap.prepare`.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

import bootstrap
from fbsde import solve
from spans import COUNT_METRICS, Tracer, installed, layer_metrics
from workloads import Workload, digits, errors, gate, ready, reference

HERE = Path(__file__).resolve().parent

#: Set-up samples per run, each a fresh process.
SETUP_PROBES = 3

#: Timed solves per untraced run, however long they take.
MIN_SOLVES = 3

#: Seconds one set-up probe may take before the run is abandoned.
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "y_digits": "digits",
    "z_digits": "digits",
}

PER_LAYER_UNITS = {
    "lattice.interp_calls": "count",
    "lattice.interp_queries": "count",
    "lattice.interp_s": "s",
    "lattice.interp_qps": "1/s",
    "lattice.gather_mb": "MB",
    "lattice.nodes": "count",
    "hermite.kahan_calls": "count",
    "hermite.kahan_terms": "count",
    "hermite.kahan_s": "s",
    "stepper.init_s": "s",
    "stepper.cone_s": "s",
    "stepper.step_self_s": "s",
    "stepper.update_s": "s",
    "stepper.levels": "count",
    "stepper.passes": "count",
    "stepper.picard_iters": "count",
    "stepper.node_updates": "count",
    "stepper.outer_max": "count",
    "problems.coef_calls": "count",
    "problems.coef_s": "s",
    "fdweights.weights_calls": "count",
    "fdweights.weights_s": "s",
    "trace.overhead": "ratio",
}


def setup_samples(name: str, seed: int, tiny: bool) -> list[float]:
    """Seconds from starting a fresh process to its being ready to solve."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in 10^6 bytes (ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Checked:
    """Runs solves through the correctness gate and keeps their outcomes."""

    def __init__(self, workload: Workload, problem) -> None:
        self.workload = workload
        self.y_ref, self.z_ref = reference(problem)
        self.first: tuple[bytes, bytes] | None = None
        self.attempted = 0
        self.failed: set[int] = set()
        self.failures: list[str] = []
        self.y0 = self.z0 = None

    def run(self, fn: Callable[[], tuple]) -> tuple[float, dict | None]:
        """Time one solve and check it; returns (wall seconds, diagnostics)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            y0, z0, diag = fn()
        except Exception as exc:  # a raising solve is a failed solve, not a crash
            wall = time.perf_counter() - start
            self.fail(f"{type(exc).__name__}: {exc}")
            return wall, None
        wall = time.perf_counter() - start
        for reason in gate(self.workload, y0, z0, self.y_ref, self.z_ref, self.first):
            self.fail(reason)
        if self.first is None:
            self.first = (y0.tobytes(), z0.tobytes())
            self.y0, self.z0 = y0, z0
        return wall, diag

    def fail(self, reason: str) -> None:
        self.failed.add(self.attempted)
        self.failures.append(f"solve {self.attempted}: {reason}")

    def answer(self) -> dict:
        y_err, z_err = errors(self.y0, self.z0, self.y_ref, self.z_ref)
        return {
            "y0": self.y0.tolist(),
            "z0": self.z0.tolist(),
            "y_err": y_err,
            "z_err": z_err,
            "y_digits": digits(y_err, self.y_ref),
            "z_digits": digits(z_err, self.z_ref),
        }


def _more(started: float, seconds: float, last: float, done: int, minimum: int) -> bool:
    """Issue another round if below the minimum or if it fits in the window."""
    return done < minimum or time.perf_counter() - started + last <= seconds


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Untraced run: end-to-end metrics."""
    setup = setup_samples(name, seed, tiny)
    workload, problem, cfg = ready(name, seed, tiny)
    checked = Checked(workload, problem)
    walls: list[float] = []
    started = time.perf_counter()
    while _more(started, seconds, walls[-1] if walls else 0.0, len(walls), MIN_SOLVES):
        wall, _ = checked.run(lambda: solve(problem, cfg))
        walls.append(wall)
    metrics = {
        "solve_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"solve_s_samples": walls, "setup_s_samples": setup}
    if checked.first is not None:
        answer = checked.answer()
        metrics["y_digits"] = answer["y_digits"]
        metrics["z_digits"] = answer["z_digits"]
        detail["answer"] = answer
    return _result(checked, metrics, END_TO_END_UNITS, detail)


def measure_traced(name: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """Traced run: per-layer metrics, interleaving untraced and traced solves.

    Every solve, traced or not, must be bit-identical to the first, so the
    run fails if tracing moves y0/z0 by a single bit.
    """
    workload, problem, cfg = ready(name, seed, tiny)
    checked = Checked(workload, problem)
    tracer = Tracer()
    traced_problem = tracer.problem(problem)
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    started = time.perf_counter()
    while _more(started, seconds, plain[-1] + traced[-1] if traced else 0.0, len(traced), 1):
        plain.append(checked.run(lambda: solve(problem, cfg))[0])
        solve_id = len(traced)
        with installed(tracer):
            wall, diag = checked.run(
                lambda: tracer.solve(solve_id, solve, traced_problem, cfg)
            )
        traced.append(wall)
        if diag is not None:
            layers.append(layer_metrics(tracer.spans, solve_id, diag))
    bootstrap.OUT.mkdir(exist_ok=True)
    spans_path = bootstrap.OUT / f"{name}-seed{seed}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    metrics: dict = {}
    if layers:
        for key in COUNT_METRICS:
            if any(layer[key] != layers[0][key] for layer in layers):
                checked.failures.append(f"count {key} differs between traced solves")
        metrics = {
            k: v if k in COUNT_METRICS else statistics.median(layer[k] for layer in layers)
            for k, v in layers[0].items()
        }
        metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    detail = {
        "untraced_s_samples": plain,
        "traced_s_samples": traced,
        "spans_file": str(spans_path.relative_to(bootstrap.ROOT)),
    }
    if checked.first is not None:
        detail["answer"] = checked.answer()
    return _result(checked, metrics, PER_LAYER_UNITS, detail)


def _result(checked: Checked, metrics: dict, units: dict, detail: dict) -> dict:
    correct = not checked.failures and set(metrics) == set(units)
    return {
        "correct": correct,
        "attempted": checked.attempted,
        "failed": len(checked.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "failures": checked.failures,
        "detail": detail,
    }
