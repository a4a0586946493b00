"""Experiment sweeps, rate fitting, and report serialization."""
from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict

import numpy as np
import pytest

from fbsde.bench import (
    CellResult,
    ExperimentSpec,
    emit_report,
    fit_convergence_rate,
    report_from_json,
    report_to_csv,
    report_to_json,
    report_to_markdown,
    run_cell,
    run_experiment,
)
from fbsde.problems import get_problem
from fbsde.stepper import SolverConfig

CSV_HEADER = "problem,k,n_steps,metric,value,status,message"


@pytest.fixture(scope="module")
def small_report():
    spec = ExperimentSpec(problem="example1", ks=(3,), n_steps=(8, 12, 16))
    return run_experiment(spec)


def test_fit_convergence_rate_known_values():
    assert fit_convergence_rate([16, 32], [1e-3, 1.25e-4]) == pytest.approx(3.0, abs=1e-12)
    assert fit_convergence_rate([16, 32], [1e-3, 1e-3]) == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(fit_convergence_rate([16], [1e-3]))
    assert math.isnan(fit_convergence_rate([16, 16], [1e-3, 1e-4]))  # one grid point
    assert math.isnan(fit_convergence_rate([16, 32], [1e-3, 0.0]))
    assert math.isnan(fit_convergence_rate([16, 32], [1e-3, float("nan")]))
    assert math.isnan(fit_convergence_rate([16, 32], [1e-3, -1e-4]))


@pytest.mark.parametrize("bad", [0, -16, float("nan")])
def test_fit_convergence_rate_is_nan_for_a_step_count_without_a_log(capfd, bad):
    """ln(1/n_steps) is undefined at a zero, negative or NaN step count: the
    fit is NaN, and LAPACK is never called to complain on stderr."""
    assert math.isnan(fit_convergence_rate([bad, 16, 32], [1e-2, 1e-3, 1.25e-4]))
    assert capfd.readouterr().err == ""


def test_fit_convergence_rate_least_squares_over_three_points():
    ns = [16, 24, 32]
    errs = [100.0 * n ** (-2.5) for n in ns]
    assert fit_convergence_rate(ns, errs) == pytest.approx(2.5, rel=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(problem="example1", ks=())
    with pytest.raises(ValueError):
        ExperimentSpec(problem="example1", n_steps=())
    with pytest.raises(ValueError) as err:
        ExperimentSpec(problem="example1", ks=(3, 5), n_steps=(6, 16))
    assert "(5, 6)" in str(err.value)  # the offending pair is named
    with pytest.raises(ValueError, match=r"ks repeats \[3\]"):
        ExperimentSpec(problem="example1", ks=(3, 5, 3))
    with pytest.raises(ValueError, match=r"n_steps repeats \[8\]"):
        ExperimentSpec(problem="example1", n_steps=(8, 8))
    with pytest.raises(TypeError, match="ks and n_steps"):
        ExperimentSpec(problem="example1", ks=3)
    with pytest.raises(TypeError, match="m_comb"):
        ExperimentSpec(problem="example1", m_comb="4")
    with pytest.raises(TypeError, match="m_comb must be an integer, got True"):
        ExperimentSpec(problem="example1", m_comb=True)
    with pytest.raises(TypeError, match="n_steps: booleans are not integers"):
        ExperimentSpec(problem="example1", n_steps=(8, False))
    with pytest.raises(TypeError, match="r must be an integer"):
        ExperimentSpec(problem="example1", r=3.5)
    with pytest.raises(ValueError, match="gh_points must be in"):
        ExperimentSpec(problem="example1", gh_points=0)
    with pytest.raises(ValueError, match="init_substeps must be in"):
        ExperimentSpec(problem="example1", init_substeps=0)
    with pytest.raises(TypeError, match="init_substeps must be an integer"):
        ExperimentSpec(problem="example1", init_substeps=2.0)
    with pytest.raises(ValueError, match="init_mode must be 'exact' or 'ramp', got 'Ramp'"):
        ExperimentSpec(problem="example1", init_mode="Ramp")
    # m_comb and every k are in SolverConfig's ranges, so no cell is left to
    # fail on them.
    with pytest.raises(ValueError, match=r"m_comb must be in 1\.\.inf, got 0"):
        ExperimentSpec(problem="example1", m_comb=0)
    with pytest.raises(ValueError, match=r"k must be in 3\.\.9, got 2"):
        ExperimentSpec(problem="example1", ks=(2,))
    with pytest.raises(ValueError, match=r"k must be in 3\.\.9, got 10"):
        ExperimentSpec(problem="example1", ks=(3, 10), n_steps=(20,))
    assert ExperimentSpec(problem="example1", ks=(3, 9), m_comb=1).ks == (3, 9)


def test_numpy_integer_settings_round_trip_through_json():
    """Every setting is normalized by SolverConfig, so numpy integers reach
    neither the report's config nor a cell's diagnostics."""
    spec = ExperimentSpec(
        problem="example1", ks=(np.int64(3),), n_steps=(np.int64(8),),
        m_comb=np.int64(4), r=np.int64(10), gh_points=np.int32(10),
        init_substeps=np.int64(1),
    )
    rep = run_experiment(spec)
    assert rep.cells[0].status == "ok"
    assert report_from_json(report_to_json(rep)) == rep
    assert all(type(v) is int for v in asdict(spec).values() if not isinstance(v, (str, tuple)))
    assert spec.configs() == [SolverConfig(k=3, n_steps=8, r=10, gh_points=10)]


def test_spec_cells_sorted_and_overrides():
    spec = ExperimentSpec(problem="example1", ks=(5, 3), n_steps=(32, 16))
    assert spec.cells() == [(3, 16), (3, 32), (5, 16), (5, 32)]


def test_experiment_produces_ok_cells_and_rates(small_report):
    rep = small_report
    assert rep.problem == "example1"
    assert [(c.k, c.n_steps) for c in rep.cells] == [(3, 8), (3, 12), (3, 16)]
    assert all(c.status == "ok" for c in rep.cells)
    for c in rep.cells:
        assert len(c.y_errors) == 1 and c.y_errors[0] > 0
        assert len(c.z_errors) == 1 and c.z_errors[0] > 0
        assert c.wall_time_s > 0
        assert c.diagnostics["levels_marched"] == c.n_steps - 6 + 1
    # Errors shrink as the grid refines, and the rates reflect that.
    y_errs = [c.y_errors[0] for c in rep.cells]
    assert y_errs[0] > y_errs[-1]
    assert rep.rates["3"]["y"][0] > 1.5
    assert rep.y_reference is not None and rep.z_reference is not None
    assert rep.config["ks"] == [3] and rep.config["n_steps"] == [8, 12, 16]


def test_sweep_adds_no_solver_defaults(small_report):
    for c in small_report.cells:
        assert c.diagnostics["config"] == asdict(SolverConfig(k=c.k, n_steps=c.n_steps))


def test_json_round_trip_is_lossless(small_report):
    text = report_to_json(small_report)
    clone = report_from_json(text)
    assert clone == small_report


def test_csv_layout(small_report):
    lines = report_to_csv(small_report).splitlines()
    assert lines[0] == CSV_HEADER
    body = [ln.split(",") for ln in lines[1:]]
    metrics = {row[3] for row in body}
    assert {"y_error_0", "z_error_0", "y0_0", "z0_0", "wall_time_s"} <= metrics
    rate_rows = [row for row in body if row[3].startswith("rate_")]
    assert rate_rows and all(row[2] == "" for row in rate_rows)
    err_row = next(row for row in body if row[3] == "y_error_0")
    assert float(err_row[4]) > 0
    assert err_row[0] == "example1" and err_row[5] == "ok"


def test_markdown_layout(small_report):
    text = report_to_markdown(small_report)
    assert text.startswith("# Convergence report — example1")
    assert "## k = 3" in text
    for n in (8, 12, 16):
        assert f"n_steps={n}" in text
    assert "| time (s)" in text
    assert "rate" in text


def test_emit_report_dispatch(small_report):
    assert emit_report(small_report, "json").startswith("{")
    assert emit_report(small_report, "csv").startswith(CSV_HEADER)
    assert emit_report(small_report, "md").startswith("#")
    with pytest.raises(ValueError):
        emit_report(small_report, "xml")


def test_budget_gate_skips_cells():
    spec = ExperimentSpec(problem="example1", ks=(3,), n_steps=(8, 12))
    rep = run_experiment(spec, budget_seconds=0.0)
    assert [c.status for c in rep.cells] == ["skipped", "skipped"]
    assert all(c.message == "budget exhausted" for c in rep.cells)
    assert rep.rates == {}
    report_from_json(report_to_json(rep))  # still serializable


@pytest.mark.parametrize("budget", [-1.0, float("nan"), float("inf")])
def test_budget_must_be_finite_and_non_negative(budget):
    spec = ExperimentSpec(problem="example1", ks=(3,), n_steps=(8,))
    with pytest.raises(ValueError, match="budget_seconds"):
        run_experiment(spec, budget_seconds=budget)


def test_unstable_scheme_warns_and_cell_fails():
    """A scheme failing the root condition still runs, with a warning, and a
    cell that cannot be solved is reported, not raised.  (k, m_comb) =
    (7, 1) is unstable; r = 10**9 asks every window for more than
    ``MAX_NODES`` nodes, so the cell fails with TooManyNodes, a ValueError."""
    spec = ExperimentSpec(problem="example1", ks=(7,), m_comb=1, n_steps=(16,), r=10**9)
    with pytest.warns(UserWarning, match="root condition"):
        rep = run_experiment(spec)
    cell = rep.cells[0]
    assert cell.status == "failed"
    assert cell.message.startswith("TooManyNodes")
    assert rep.rates == {}
    # Failed cells appear in CSV as a single status row with the message.
    lines = report_to_csv(rep).splitlines()
    status_row = next(ln for ln in lines[1:] if ",status," in ln)
    assert "failed" in status_row


def test_run_cell_error_bookkeeping():
    problem = get_problem("example1")
    cell = run_cell(problem, SolverConfig(k=3, n_steps=8))
    assert cell.status == "ok"
    y_ref = float(problem.analytic_y(0.0, problem.x0)[0])
    assert cell.y_errors[0] == pytest.approx(abs(cell.y0[0] - y_ref), abs=0)
    assert isinstance(cell.wall_time_s, float)


def test_run_cell_converts_failures_to_status():
    problem = get_problem("example1")
    cell = run_cell(problem, SolverConfig(k=3, n_steps=8, r=10**9))
    assert cell.status == "failed"
    assert cell.message.startswith("TooManyNodes") and cell.y0 is None


def test_run_cell_records_a_nan_driver_as_failed():
    """The solve raises NonFiniteValue at the first NaN, and the cell keeps
    it as its failure instead of any y0 or z0."""
    problem = dataclasses.replace(
        get_problem("example1"), f=lambda t, x, y, z: np.full_like(y, np.nan)
    )
    cell = run_cell(problem, SolverConfig(k=3, n_steps=8))
    assert cell.status == "failed"
    assert cell.message.startswith("NonFiniteValue: ")
    assert cell.y0 is None and cell.z0 is None


def test_cellresult_defaults():
    c = CellResult(k=3, n_steps=8, status="skipped")
    assert c.y0 is None and c.message is None
