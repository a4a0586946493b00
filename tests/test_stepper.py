"""Time-stepper unit tests: elementary updates, expectations, and solves."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fbsde.hermite import gauss_hermite_tensor
from fbsde.lattice import ValueLevel, build_lattice
from fbsde.problems import FbsdeProblem, get_problem
from fbsde.stepper import (
    MissingAnalytic,
    OuterDivergence,
    PicardDivergence,
    SolveResult,
    SolverConfig,
    conditional_expectations,
    euler_points,
    solve,
    y_update,
    z_update,
)
from _oracles import mc_euler_expectation


def _constant_coefficient_problem(a0=0.7, b0=0.5, analytic=False, const=2.5):
    """Scalar problem with frozen coefficients and a trivial driver."""

    def a(t, x, y=None, z=None):
        return np.full_like(x, a0)

    def b(t, x, y=None, z=None):
        return np.full(x.shape + (1,), b0)

    def f(t, x, y, z):
        return np.zeros_like(y)

    if analytic:
        def g(x):
            return np.full(x.shape[:-1] + (1,), const)

        kwargs = dict(
            g=g,
            analytic_y=lambda t, x: np.full(x.shape[:-1] + (1,), const),
            analytic_z=lambda t, x: np.zeros(x.shape[:-1] + (1, 1)),
        )
    else:
        kwargs = dict(g=lambda x: x.copy())
    return FbsdeProblem(
        name="frozen", n=1, m=1, d=1, T=1.0, x0=np.array([0.0]),
        a=a, b=b, f=f, coupled=False, **kwargs,
    )


def _window(lattice, times, yfun):
    """Hand-built ascending window of sealed levels with Z ≡ 0."""
    X = lattice.nodes()
    return [
        ValueLevel(
            lattice=lattice, t=t, y=yfun(t, X),
            z=np.zeros(lattice.shape + (1, 1)),
        )
        for t in times
    ]


# ---------------------------------------------------------------------------
# Configuration and result plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=2, n_steps=16),
        dict(k=10, n_steps=32),
        dict(k=3, n_steps=5),  # below k + m_comb - 1 = 6
        dict(k=3, n_steps=16, m_comb=0),
        dict(k=3, n_steps=16, init_mode="bogus"),
        dict(k=3, n_steps=16, init_substeps=0),
        dict(k=3, n_steps=16, picard_max=0),
        dict(k=3, n_steps=16, outer_max=0),
        dict(k=3, n_steps=16, picard_tol=0.0),
        dict(k=3, n_steps=16, epsilon0=-1e-12),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_config_accepts_minimum_steps():
    SolverConfig(k=3, n_steps=6)
    SolverConfig(k=9, n_steps=12)


def test_solve_result_unpacks():
    res = SolveResult(y0=np.array([1.0]), z0=np.array([[2.0]]), diagnostics={})
    y0, z0, diag = res
    assert y0[0] == 1.0 and z0[0, 0] == 2.0 and diag == {}


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def test_euler_points_places_predictor_nodes():
    problem = _constant_coefficient_problem(a0=0.7, b0=0.5)
    rule = gauss_hermite_tensor(4, 1)
    x = np.array([[0.2], [-0.4]])
    j, dt = 2, 0.05
    nodes, w, dw = euler_points(x, 0.3, j, dt, problem, None, None, rule)
    assert nodes.shape == (2, 4, 1)
    assert dw.shape == (2, 4, 1)
    q, w_ref = rule.points()
    assert np.array_equal(w, w_ref)
    scale = math.sqrt(2.0 * j * dt)
    for i in range(2):
        assert dw[i] == pytest.approx(scale * q, abs=0)
        expected = x[i, 0] + 0.7 * j * dt + 0.5 * scale * q[:, 0]
        assert nodes[i, :, 0] == pytest.approx(expected, rel=1e-15)


def test_euler_points_rejects_nonpositive_span():
    problem = _constant_coefficient_problem()
    rule = gauss_hermite_tensor(2, 1)
    with pytest.raises(ValueError):
        euler_points(np.array([[0.0]]), 0.0, 0, 0.1, problem, None, None, rule)


def test_conditional_expectations_constant_field():
    problem = _constant_coefficient_problem()
    lattice = build_lattice(0.0, 0.1, 2.0, r=3)
    window = _window(lattice, [0.02, 0.04], lambda t, X: np.full(lattice.shape + (1,), 4.2))
    rule = gauss_hermite_tensor(8, 1)
    for j in (1, 2):
        ey, eyw = conditional_expectations(window, [0.0], 0.0, j, problem, rule, r=3)
        assert ey.shape == (1,)
        assert eyw.shape == (1, 1)
        assert ey[0] == pytest.approx(4.2, abs=1e-13)
        assert abs(eyw[0, 0]) < 1e-13


def test_conditional_expectations_identity_field():
    """With b = 1 and Y(x) = x the moment E[Y·ΔW] equals the span jΔt."""
    problem = _constant_coefficient_problem(a0=0.0, b0=1.0)
    lattice = build_lattice(0.0, 0.05, 2.0, r=3)
    window = _window(lattice, [0.02, 0.04], lambda t, X: X.copy())
    rule = gauss_hermite_tensor(8, 1)
    for j in (1, 2):
        ey, eyw = conditional_expectations(window, [0.3], 0.0, j, problem, rule, r=3)
        assert ey[0] == pytest.approx(0.3, abs=1e-12)
        assert eyw[0, 0] == pytest.approx(j * 0.02, rel=1e-12)


def test_conditional_expectations_validates_span():
    problem = _constant_coefficient_problem()
    lattice = build_lattice(0.0, 0.1, 1.0, r=2)
    window = _window(lattice, [0.02, 0.04], lambda t, X: X.copy())
    rule = gauss_hermite_tensor(4, 1)
    for j in (0, 3):
        with pytest.raises(ValueError):
            conditional_expectations(window, [0.0], 0.0, j, problem, rule, r=2)


def test_conditional_expectations_match_monte_carlo():
    """Quadrature moments agree with a seeded Monte Carlo Euler predictor."""
    problem = get_problem("example1")
    t_n, dt, j = 0.5, 0.02, 2
    t_target = t_n + j * dt
    lattice = build_lattice(1.0, 0.05, 1.5, r=7)
    X = lattice.nodes()
    window = [
        ValueLevel(
            lattice=lattice,
            t=t_n + s * dt,
            y=problem.analytic_y(t_n + s * dt, X),
            z=problem.analytic_z(t_n + s * dt, X),
        )
        for s in (1, 2)
    ]
    rule = gauss_hermite_tensor(12, 1)
    ey, eyw = conditional_expectations(window, [1.0], t_n, j, problem, rule, r=7)

    mean_y, se_y = mc_euler_expectation(
        problem, [1.0], t_n, j, dt,
        lambda nodes, dw: problem.analytic_y(t_target, nodes)[:, 0],
    )
    mean_yw, se_yw = mc_euler_expectation(
        problem, [1.0], t_n, j, dt,
        lambda nodes, dw: problem.analytic_y(t_target, nodes)[:, 0] * dw[:, 0],
    )
    assert abs(ey[0] - mean_y) < 6.0 * se_y + 1e-7
    assert abs(eyw[0, 0] - mean_yw) < 6.0 * se_yw + 1e-7


def test_z_update_weights_and_scales_moments():
    eyw = [np.full((1, 1, 1), 0.4), np.full((1, 1, 1), -0.1)]
    coeffs = np.array([99.0, 2.0, 3.0])
    out = z_update(eyw, coeffs, dt=0.1)
    assert out[0, 0, 0] == pytest.approx((2.0 * 0.4 + 3.0 * (-0.1)) / 0.1, rel=1e-15)
    # The unknown-level coefficient c_0 must play no role here.
    coeffs2 = coeffs.copy()
    coeffs2[0] = 0.0
    assert np.array_equal(out, z_update(eyw, coeffs2, dt=0.1))


def test_y_update_is_direct_for_y_independent_drivers():
    rhs = np.array([[0.8]])
    x = np.array([[0.0]])
    z = np.zeros((1, 1, 1))

    def f(t, xx, y, zz):
        return np.full_like(y, 1.3)

    y, iters = y_update(rhs, c0=-2.0, dt=0.1, t_n=0.0, x=x, z_val=z, f=f,
                        y_seed=np.zeros((1, 1)), tol=1e-14, max_iter=50)
    assert y[0, 0] == pytest.approx((0.8 + 0.1 * 1.3) / 2.0, rel=1e-15)
    assert iters <= 2


def test_y_update_contracts_to_fixed_point():
    rhs = np.array([[0.8]])
    x = np.array([[0.0]])
    z = np.zeros((1, 1, 1))

    def f(t, xx, y, zz):
        return 0.5 * np.sin(y)

    y, iters = y_update(rhs, c0=-2.0, dt=0.3, t_n=0.0, x=x, z_val=z, f=f,
                        y_seed=np.zeros((1, 1)), tol=1e-14, max_iter=100)
    residual = -2.0 * y + rhs + 0.3 * f(0.0, x, y, z)
    assert abs(residual[0, 0]) < 1e-13
    assert iters < 20


def test_y_update_reports_divergence():
    rhs = np.array([[1.0]])
    x = np.array([[0.25]])
    z = np.zeros((1, 1, 1))

    def f(t, xx, y, zz):
        return 50.0 * y

    with pytest.raises(PicardDivergence) as err:
        y_update(rhs, c0=1.0, dt=1.0, t_n=0.0, x=x, z_val=z, f=f,
                 y_seed=np.ones((1, 1)), tol=1e-14, max_iter=30)
    assert "did not converge" in str(err.value)
    assert "0.25" in str(err.value)


# ---------------------------------------------------------------------------
# End-to-end solves
# ---------------------------------------------------------------------------


def test_constant_terminal_data_is_preserved():
    """f ≡ 0 and g ≡ c must propagate Y ≡ c, Z ≡ 0 to machine precision."""
    problem = _constant_coefficient_problem(a0=0.1, b0=0.3, analytic=True, const=2.5)
    y0, z0, _ = solve(problem, SolverConfig(k=3, n_steps=8))
    assert abs(y0[0] - 2.5) < 1e-12
    assert abs(z0[0, 0]) < 1e-12


def test_exact_init_requires_closed_form():
    problem = _constant_coefficient_problem()  # no analytic fields
    with pytest.raises(MissingAnalytic):
        solve(problem, SolverConfig(k=3, n_steps=8))


def test_coupled_mode_reproduces_decoupled_solution():
    problem = get_problem("example1")
    as_coupled = dataclasses.replace(problem, coupled=True)
    for cfg in (
        SolverConfig(k=3, n_steps=12),
        SolverConfig(k=5, n_steps=16, init_mode="ramp", init_substeps=2),
    ):
        res_dec = solve(problem, cfg)
        res_cpl = solve(as_coupled, cfg)
        assert np.array_equal(res_dec.y0, res_cpl.y0), cfg
        assert np.array_equal(res_dec.z0, res_cpl.z0), cfg
        assert res_cpl.diagnostics["outer_iterations_max"] >= 1
        assert res_dec.diagnostics["outer_iterations"] == []


def test_terminal_z_divergence_is_reported():
    """An expansive terminal map z ↦ ∇g·b = 1 + 2z raises instead of returning."""
    problem = FbsdeProblem(
        name="expansive", n=1, m=1, d=1, T=1.0, x0=np.array([0.0]),
        a=lambda t, x, y, z: np.zeros_like(x),
        b=lambda t, x, y, z: 1.0 + 2.0 * z,
        f=lambda t, x, y, z: np.zeros_like(y),
        g=lambda x: x.copy(),
        coupled=True,
    )
    cfg = SolverConfig(k=3, n_steps=6, init_mode="ramp")
    with pytest.raises(OuterDivergence) as err:
        solve(problem, cfg)
    message = str(err.value)
    assert "terminal Z" in message
    assert "node x =" in message
    assert "last change" in message


def test_solver_is_deterministic():
    problem = get_problem("example1")
    cfg = SolverConfig(k=3, n_steps=12)
    first = solve(problem, cfg)
    second = solve(problem, cfg)
    assert np.array_equal(first.y0, second.y0)
    assert np.array_equal(first.z0, second.z0)


def test_ramp_initialization_accuracy():
    """Self-starting ramp: one substep is crude, four reach near-exact-init error."""
    problem = get_problem("example1")
    y_true = float(problem.analytic_y(0.0, problem.x0)[0])
    err = {}
    for substeps in (1, 4):
        cfg = SolverConfig(k=3, n_steps=16, init_mode="ramp", init_substeps=substeps)
        y0, _, _ = solve(problem, cfg)
        err[substeps] = abs(float(y0[0]) - y_true)
    assert err[1] < 1e-3
    assert err[4] < 2.5e-5
    assert err[4] < err[1]


def test_example1_short_run_accuracy():
    problem = get_problem("example1")
    y0, z0, diag = solve(problem, SolverConfig(k=3, n_steps=16))
    y_true = float(problem.analytic_y(0.0, problem.x0)[0])
    z_true = float(problem.analytic_z(0.0, problem.x0)[0, 0])
    assert abs(y0[0] - y_true) < 1e-5
    assert abs(z0[0, 0] - z_true) < 1e-4


def test_diagnostics_inventory():
    problem = get_problem("example1")
    cfg = SolverConfig(k=3, n_steps=8)
    diag = solve(problem, cfg).diagnostics
    for key in (
        "problem", "config", "dt", "h", "r", "gh_points", "lattice_shape",
        "num_nodes", "radius", "coefficient_bounds", "cone_hop_nodes",
        "active_halfwidth_final", "active_halfwidth_first", "levels_marched",
        "picard_iterations", "picard_iterations_max", "outer_iterations",
        "outer_iterations_max", "wall_time_s",
    ):
        assert key in diag, key
    assert diag["problem"] == "example1"
    assert diag["r"] == 10
    assert diag["gh_points"] == 10
    assert diag["dt"] == pytest.approx(1.0 / 8.0)
    assert diag["h"] == pytest.approx(diag["dt"] ** (4.0 / 11.0))
    assert len(diag["picard_iterations"]) == diag["levels_marched"]
    assert diag["picard_iterations_max"] == max(diag["picard_iterations"])
    assert all(n % 2 == 1 for n in diag["lattice_shape"])  # centered lattice
    assert diag["wall_time_s"] > 0
    assert diag["config"]["k"] == 3
