"""Convergence experiments over (k, n_steps) grids and report emission.

An experiment sweeps the scheme order k and the time-step count over one
benchmark problem, records the absolute errors of (Y, Z) at (t = 0, x0)
against the closed-form solution, and fits empirical convergence rates.
Reports serialize to JSON (lossless round-trip), CSV (long format, one row
per (k, n_steps, metric), fixed column order), or Markdown (one table per k
with an error column per n_steps and a fitted-rate column).
"""

from __future__ import annotations

import json
import math
import operator
import time
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .problems import FbsdeProblem, get_problem
from .stability import stability_report
from .stepper import SolverConfig, solve

__all__ = [
    "ExperimentSpec",
    "CellResult",
    "Report",
    "fit_convergence_rate",
    "run_cell",
    "run_experiment",
    "report_to_json",
    "report_from_json",
    "report_to_csv",
    "report_to_markdown",
    "emit_report",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """A (k, n_steps) sweep over one named problem.

    ``m_comb``, ``r``, ``gh_points``, ``init_mode`` and ``init_substeps`` go
    to every cell's :class:`~fbsde.stepper.SolverConfig` unchanged and
    default to its values; ``None`` leaves ``r`` and ``gh_points`` for the
    solver to derive.  Each k, ``m_comb``, ``r``, ``gh_points``,
    ``init_mode`` and ``init_substeps`` are checked up front by the same
    checks as in :class:`~fbsde.stepper.SolverConfig`, so a bad value stops
    the sweep before any cell runs.
    """

    problem: str
    ks: tuple = (3,)
    n_steps: tuple = (16, 20, 24, 28, 32)
    m_comb: int = SolverConfig.m_comb
    r: int | None = None
    gh_points: int | None = None
    init_mode: str = SolverConfig.init_mode
    init_substeps: int = SolverConfig.init_substeps

    def __post_init__(self) -> None:
        if not isinstance(self.problem, str):
            raise TypeError(f"problem must be a registry key, got {self.problem!r}")
        # operator.index(True) is 1, so booleans are rejected by name first.
        for name, value in (("ks", self.ks), ("n_steps", self.n_steps), ("m_comb", self.m_comb)):
            values = value if isinstance(value, (list, tuple)) else (value,)
            if any(isinstance(v, bool) for v in values):
                raise TypeError(f"{name}: booleans are not integers, got {value!r}")
        try:
            ks, ns = (tuple(map(operator.index, v)) for v in (self.ks, self.n_steps))
            m_comb = operator.index(self.m_comb)
        except TypeError:
            raise TypeError(
                "ks and n_steps must be sequences of integers and m_comb an "
                f"integer, got ks={self.ks!r}, n_steps={self.n_steps!r}, "
                f"m_comb={self.m_comb!r}"
            ) from None
        for name, values in (("ks", ks), ("n_steps", ns)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {repeated}; list each value once")
        SolverConfig.check_integers(
            m_comb=m_comb, r=self.r, gh_points=self.gh_points,
            init_substeps=self.init_substeps,
        )
        for k in ks:
            SolverConfig.check_integers(k=k)
        SolverConfig.check_init_mode(self.init_mode)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "n_steps", ns)
        object.__setattr__(self, "m_comb", m_comb)
        floor = max(ks) + m_comb - 1
        bad = [(k, n) for k in ks for n in ns if n < k + m_comb - 1]
        if bad:
            raise ValueError(
                f"every n_steps must be at least k + m_comb - 1; offending "
                f"(k, n_steps) pairs: {bad} (smallest admissible for the "
                f"largest k is {floor})"
            )

    def cells(self) -> list[tuple[int, int]]:
        """All (k, n_steps) pairs in deterministic ascending (k, n) order."""
        return sorted((k, n) for k in self.ks for n in self.n_steps)


@dataclass
class CellResult:
    """Outcome of one (k, n_steps) solve."""

    k: int
    n_steps: int
    status: str  # "ok" | "failed" | "skipped"
    y0: list | None = None
    z0: list | None = None
    y_errors: list | None = None
    z_errors: list | None = None
    wall_time_s: float | None = None
    diagnostics: dict | None = None
    message: str | None = None


@dataclass
class Report:
    """Experiment results: the spec echoed, one cell per (k, n_steps), rates.

    ``rates`` maps str(k) to {"y": [...], "z": [...]} least-squares rates per
    error component.  A rate is ``None`` whenever fewer than two cells are
    usable or any error is non-positive/non-finite — reports never contain
    NaN or infinities.
    """

    problem: str
    ks: list
    n_steps: list
    config: dict
    cells: list
    rates: dict
    y_reference: list | None = None
    z_reference: list | None = None


def fit_convergence_rate(n_steps, errors) -> float:
    """Least-squares slope of ln(error) against ln(1/n_steps).

    Example: errors 1e-3 at 16 steps and 1.25e-4 at 32 steps give exactly
    3.0; equal errors give 0.0.  With fewer than two distinct n_steps, or
    any non-positive error, the fit is undefined and NaN is returned (report
    assembly converts undefined rates to ``None`` instead).
    """
    n = np.asarray(list(n_steps), dtype=float)
    e = np.asarray(list(errors), dtype=float)
    if np.unique(n).size < 2 or np.any(~np.isfinite(e)) or np.any(e <= 0.0):
        return float("nan")
    slope = np.polyfit(np.log(1.0 / n), np.log(e), 1)[0]
    return float(slope)


def _reference(problem: FbsdeProblem) -> tuple[np.ndarray | None, np.ndarray | None]:
    if not problem.has_analytic:
        return None, None
    y_ref = np.asarray(problem.analytic_y(0.0, problem.x0), float)
    z_ref = np.asarray(problem.analytic_z(0.0, problem.x0), float)
    return y_ref, z_ref


def run_cell(
    problem: FbsdeProblem,
    k: int,
    n_steps: int,
    overrides: dict,
) -> CellResult:
    """Solve one (k, n_steps) cell, converting solver failures into status;
    a non-finite value is one, as ``solve`` raises NonFiniteValue for it."""
    try:
        cfg = SolverConfig(k=k, n_steps=n_steps, **overrides)
        t0 = time.perf_counter()
        result = solve(problem, cfg)
        wall_time = time.perf_counter() - t0
    except Exception as exc:  # recorded, not raised: one bad cell ≠ dead sweep
        return CellResult(
            k=k, n_steps=n_steps, status="failed",
            message=f"{type(exc).__name__}: {exc}",
        )
    y_ref, z_ref = _reference(problem)
    y_err = np.abs(result.y0 - y_ref).tolist() if y_ref is not None else None
    z_err = (
        np.abs(result.z0 - z_ref).ravel().tolist() if z_ref is not None else None
    )
    return CellResult(
        k=k,
        n_steps=n_steps,
        status="ok",
        y0=result.y0.tolist(),
        z0=result.z0.ravel().tolist(),
        y_errors=y_err,
        z_errors=z_err,
        wall_time_s=wall_time,
        diagnostics=result.diagnostics,
    )


def _defined(rate: float) -> float | None:
    return None if not math.isfinite(rate) else rate


def _fit_rates(ks, cells) -> dict:
    """Per-k least-squares rates per error component.

    Undefined fits (fewer than two usable cells, zero/non-finite errors)
    become ``None`` so serialized reports stay NaN-free.
    """
    rates: dict = {}
    for k in ks:
        ok = [c for c in cells if c.k == k and c.status == "ok" and c.y_errors]
        if len(ok) < 2:
            continue
        ok.sort(key=lambda c: c.n_steps)
        ns = [c.n_steps for c in ok]
        ny = len(ok[0].y_errors)
        nz = len(ok[0].z_errors)
        rates[str(k)] = {
            "y": [
                _defined(fit_convergence_rate(ns, [c.y_errors[i] for c in ok]))
                for i in range(ny)
            ],
            "z": [
                _defined(fit_convergence_rate(ns, [c.z_errors[i] for c in ok]))
                for i in range(nz)
            ],
        }
    return rates


def run_experiment(
    spec: ExperimentSpec,
    budget_seconds: float | None = None,
) -> Report:
    """Run every (k, n_steps) cell and assemble a :class:`Report`.

    A cell that would start after ``budget_seconds`` of elapsed wall time is
    marked "skipped" instead of run (the gate is checked as each cell starts,
    so an expensive tail of a sweep is shed without killing work in flight).
    The report lists cells in sorted (k, n_steps) order, so output is
    deterministic up to wall times.  Schemes whose stability check fails are
    still run, with a warning.
    """
    problem = get_problem(spec.problem)
    for k in sorted(set(spec.ks)):
        if not stability_report(k, spec.m_comb).is_stable:
            warnings.warn(
                f"scheme k={k}, m_comb={spec.m_comb} fails the root condition; "
                "errors may grow with n_steps",
                stacklevel=2,
            )
    start = time.monotonic()
    overrides = {
        "m_comb": spec.m_comb,
        "r": spec.r,
        "gh_points": spec.gh_points,
        "init_mode": spec.init_mode,
        "init_substeps": spec.init_substeps,
    }

    results: list[CellResult] = []
    for k, n in spec.cells():
        if budget_seconds is not None and time.monotonic() - start >= budget_seconds:
            results.append(CellResult(
                k=k, n_steps=n, status="skipped", message="budget exhausted"
            ))
        else:
            results.append(run_cell(problem, k, n, overrides))

    rates = _fit_rates(spec.ks, results)
    y_ref, z_ref = _reference(problem)
    config = asdict(spec)
    config["ks"] = list(spec.ks)  # tuples would come back as lists from JSON
    config["n_steps"] = list(spec.n_steps)
    return Report(
        problem=spec.problem,
        ks=list(spec.ks),
        n_steps=list(spec.n_steps),
        config=config,
        cells=results,
        rates=rates,
        y_reference=y_ref.tolist() if y_ref is not None else None,
        z_reference=z_ref.ravel().tolist() if z_ref is not None else None,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_json(report: Report) -> str:
    """Lossless JSON encoding (see :func:`report_from_json`)."""
    return json.dumps(asdict(report), indent=2)


def report_from_json(text: str) -> Report:
    """Inverse of :func:`report_to_json`; returns an equal :class:`Report`."""
    payload = json.loads(text)
    cells = [CellResult(**c) for c in payload.pop("cells")]
    return Report(cells=cells, **payload)


_CSV_HEADER = "problem,k,n_steps,metric,value,status,message"


def report_to_csv(report: Report) -> str:
    """Long-format CSV: one row per (k, n_steps, metric), stable order.

    Metrics per ok cell: y_error_i, z_error_i, y0_i, z0_i, wall_time_s.
    Failed/skipped cells contribute a single ``status`` row carrying the
    message.  Fitted rates follow as rows with an empty n_steps field and
    metrics rate_y_i / rate_z_i.  Values use full float precision.
    """
    lines = [_CSV_HEADER]

    def emit(k, n, metric, value, status, message=""):
        val = "" if value is None else repr(float(value))
        msg = (message or "").replace(",", ";").replace("\n", " ")
        lines.append(f"{report.problem},{k},{n},{metric},{val},{status},{msg}")

    for c in report.cells:
        if c.status != "ok":
            emit(c.k, c.n_steps, "status", None, c.status, c.message)
            continue
        for i, v in enumerate(c.y_errors or []):
            emit(c.k, c.n_steps, f"y_error_{i}", v, c.status)
        for i, v in enumerate(c.z_errors or []):
            emit(c.k, c.n_steps, f"z_error_{i}", v, c.status)
        for i, v in enumerate(c.y0 or []):
            emit(c.k, c.n_steps, f"y0_{i}", v, c.status)
        for i, v in enumerate(c.z0 or []):
            emit(c.k, c.n_steps, f"z0_{i}", v, c.status)
        emit(c.k, c.n_steps, "wall_time_s", c.wall_time_s, c.status)
    for k in sorted(report.rates, key=int):
        for i, v in enumerate(report.rates[k]["y"]):
            emit(k, "", f"rate_y_{i}", v, "ok")
        for i, v in enumerate(report.rates[k]["z"]):
            emit(k, "", f"rate_z_{i}", v, "ok")
    return "\n".join(lines) + "\n"


def _fmt_err(v) -> str:
    return f"{v:.3e}" if v is not None else "—"


def report_to_markdown(report: Report) -> str:
    """One table per k: a column for each n_steps plus a fitted-rate column."""
    out = [f"# Convergence report — {report.problem}", ""]
    out.append("```json")
    out.append(json.dumps(report.config, indent=2))
    out.append("```")
    out.append("")
    for k in sorted(set(report.ks)):
        cells = {c.n_steps: c for c in report.cells if c.k == k}
        ns = sorted(cells)
        out.append(f"## k = {k}")
        out.append("")
        header = [""] + [f"n_steps={n}" for n in ns] + ["rate"]
        out.append("| " + " | ".join(header) + " |")
        out.append("|" + "---|" * len(header))
        rates = report.rates.get(str(k), {})
        ny = max((len(c.y_errors) for c in cells.values() if c.y_errors), default=0)
        nz = max((len(c.z_errors) for c in cells.values() if c.z_errors), default=0)
        for i in range(ny):
            row = [f"|Y⁰−Y(0,x0)|_{i}"]
            for n in ns:
                c = cells[n]
                row.append(_fmt_err(c.y_errors[i] if c.y_errors else None))
            rate = rates.get("y", [None] * ny)[i] if rates else None
            row.append(f"{rate:.2f}" if rate is not None else "—")
            out.append("| " + " | ".join(row) + " |")
        for i in range(nz):
            row = [f"|Z⁰−Z(0,x0)|_{i}"]
            for n in ns:
                c = cells[n]
                row.append(_fmt_err(c.z_errors[i] if c.z_errors else None))
            rate = rates.get("z", [None] * nz)[i] if rates else None
            row.append(f"{rate:.2f}" if rate is not None else "—")
            out.append("| " + " | ".join(row) + " |")
        row = ["time (s)"]
        for n in ns:
            c = cells[n]
            row.append(f"{c.wall_time_s:.2f}" if c.wall_time_s is not None else c.status)
        row.append("")
        out.append("| " + " | ".join(row) + " |")
        out.append("")
    return "\n".join(out)


def emit_report(report: Report, fmt: str) -> str:
    """Render a report as ``json``, ``csv``, or ``md`` text."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return report_to_csv(report)
    if fmt == "md":
        return report_to_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}; expected json, csv, or md")
