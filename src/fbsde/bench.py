"""Convergence experiments over (k, n_steps) grids and report emission.

An experiment sweeps the scheme order k and the time-step count over one
benchmark problem.  Its spec builds every cell's SolverConfig when it is made,
and SolverConfig is the only code that checks a solver setting.  Each cell
solves with its config and records the absolute errors of (Y, Z) at
(t = 0, x0) against the closed-form solution; per k, an empirical
convergence rate is fitted to each error component.
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

#: The :class:`ExperimentSpec` fields passed to every cell's SolverConfig.
_SOLVER_FIELDS = ("m_comb", "r", "gh_points", "init_mode", "init_substeps")


@dataclass(frozen=True)
class ExperimentSpec:
    """A (k, n_steps) sweep over one named problem.

    ``m_comb``, ``r``, ``gh_points``, ``init_mode`` and ``init_substeps`` go
    to every cell's :class:`~fbsde.stepper.SolverConfig` unchanged and
    default to its values; ``None`` leaves ``r`` and ``gh_points`` for the
    solver to derive.  The spec builds every cell's config when it is made,
    so a bad setting raises SolverConfig's own error before any cell runs;
    the spec itself checks only ``problem``, ``ks`` and ``n_steps``.
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
        for name, value in (("ks", self.ks), ("n_steps", self.n_steps)):
            values = value if isinstance(value, (list, tuple)) else (value,)
            if any(isinstance(v, bool) for v in values):
                raise TypeError(f"{name}: booleans are not integers, got {value!r}")
        try:
            ks, ns = (tuple(map(operator.index, v)) for v in (self.ks, self.n_steps))
        except TypeError:
            raise TypeError(
                "ks and n_steps must be sequences of integers, "
                f"got ks={self.ks!r}, n_steps={self.n_steps!r}"
            ) from None
        for name, values in (("ks", ks), ("n_steps", ns)):
            if not values:
                raise ValueError(f"{name} must be non-empty")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} repeats {repeated}; list each value once")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "n_steps", ns)
        first = self.configs()[0]
        for name in _SOLVER_FIELDS:
            object.__setattr__(self, name, getattr(first, name))

    def cells(self) -> list[tuple[int, int]]:
        """All (k, n_steps) pairs in deterministic ascending (k, n) order."""
        return sorted((k, n) for k in self.ks for n in self.n_steps)

    def configs(self) -> list[SolverConfig]:
        """Every cell's :class:`~fbsde.stepper.SolverConfig`, in :meth:`cells` order."""
        settings = {name: getattr(self, name) for name in _SOLVER_FIELDS}
        return [SolverConfig(k=k, n_steps=n, **settings) for k, n in self.cells()]


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
    any n_steps or error not finite and positive, the fit is undefined and
    NaN is returned (report assembly converts undefined rates to ``None``).
    """
    n = np.asarray(list(n_steps), dtype=float)
    e = np.asarray(list(errors), dtype=float)
    if np.unique(n).size < 2 or not all(np.all(np.isfinite(v) & (v > 0.0)) for v in (n, e)):
        return float("nan")
    slope = np.polyfit(np.log(1.0 / n), np.log(e), 1)[0]
    return float(slope)


def _reference(problem: FbsdeProblem) -> tuple[np.ndarray | None, np.ndarray | None]:
    if not problem.has_analytic:
        return None, None
    y_ref = np.asarray(problem.analytic_y(0.0, problem.x0), float)
    z_ref = np.asarray(problem.analytic_z(0.0, problem.x0), float)
    return y_ref, z_ref


def run_cell(problem: FbsdeProblem, cfg: SolverConfig) -> CellResult:
    """Solve one (k, n_steps) cell, converting solver failures into status;
    a non-finite value is one, as ``solve`` raises NonFiniteValue for it."""
    try:
        t0 = time.perf_counter()
        result = solve(problem, cfg)
        wall_time = time.perf_counter() - t0
    except Exception as exc:  # recorded, not raised: one bad cell ≠ dead sweep
        return CellResult(
            k=cfg.k, n_steps=cfg.n_steps, status="failed",
            message=f"{type(exc).__name__}: {exc}",
        )
    y_ref, z_ref = _reference(problem)
    y_err = np.abs(result.y0 - y_ref).tolist() if y_ref is not None else None
    z_err = (
        np.abs(result.z0 - z_ref).ravel().tolist() if z_ref is not None else None
    )
    return CellResult(
        k=cfg.k,
        n_steps=cfg.n_steps,
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
        ok = sorted(
            (c for c in cells if c.k == k and c.status == "ok" and c.y_errors),
            key=lambda c: c.n_steps,
        )
        if len(ok) < 2:
            continue
        ns = [c.n_steps for c in ok]
        rates[str(k)] = {
            q: [
                _defined(fit_convergence_rate(ns, errors))
                for errors in zip(*(getattr(c, f"{q}_errors") for c in ok))
            ]
            for q in ("y", "z")
        }
    return rates


def run_experiment(
    spec: ExperimentSpec,
    budget_seconds: float | None = None,
) -> Report:
    """Run every (k, n_steps) cell and assemble a :class:`Report`.

    A cell that would start after ``budget_seconds`` of elapsed wall time is
    marked "skipped" instead of run (the gate is checked as each cell starts,
    so an expensive tail of a sweep is shed without killing work in flight);
    a negative or non-finite budget raises ValueError.  The report lists
    cells in sorted (k, n_steps) order, so output is deterministic up to
    wall times.  Schemes whose stability check fails are still run, with a
    warning.
    """
    if budget_seconds is not None and not (math.isfinite(budget_seconds) and budget_seconds >= 0):
        raise ValueError(f"budget_seconds must be finite and >= 0, got {budget_seconds}")
    problem = get_problem(spec.problem)
    for k in sorted(spec.ks):
        if not stability_report(k, spec.m_comb).is_stable:
            warnings.warn(
                f"scheme k={k}, m_comb={spec.m_comb} fails the root condition; "
                "errors may grow with n_steps",
                stacklevel=2,
            )
    start = time.monotonic()
    results: list[CellResult] = []
    for cfg in spec.configs():
        if budget_seconds is not None and time.monotonic() - start >= budget_seconds:
            results.append(CellResult(
                k=cfg.k, n_steps=cfg.n_steps, status="skipped", message="budget exhausted"
            ))
        else:
            results.append(run_cell(problem, cfg))

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
        for metric, values in (
            ("y_error", c.y_errors), ("z_error", c.z_errors), ("y0", c.y0), ("z0", c.z0)
        ):
            for i, v in enumerate(values or []):
                emit(c.k, c.n_steps, f"{metric}_{i}", v, c.status)
        emit(c.k, c.n_steps, "wall_time_s", c.wall_time_s, c.status)
    for k in sorted(report.rates, key=int):
        for q in ("y", "z"):
            for i, v in enumerate(report.rates[k][q]):
                emit(k, "", f"rate_{q}_{i}", v, "ok")
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
        for q in ("y", "z"):
            errors = [getattr(cells[n], f"{q}_errors") for n in ns]
            for i in range(max((len(e) for e in errors if e), default=0)):
                rate = rates[q][i] if rates else None
                row = [
                    f"|{q.upper()}⁰−{q.upper()}(0,x0)|_{i}",
                    *(_fmt_err(e[i] if e else None) for e in errors),
                    f"{rate:.2f}" if rate is not None else "—",
                ]
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
