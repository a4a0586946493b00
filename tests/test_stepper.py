"""Time-stepper unit tests: elementary updates, expectations, and solves."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import fbsde.lattice
import fbsde.stepper as stepper
from fbsde.hermite import MAX_POINTS, gauss_hermite_tensor
from fbsde.lattice import OutOfDomain, TooManyNodes, ValueLevel, build_lattice
from fbsde.problems import FbsdeProblem, get_problem
from fbsde.stepper import (
    MissingAnalytic,
    NonFiniteValue,
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


def _level(lattice, t, y, z):
    """A level holding Y and Z in its one (Y, Z) array."""
    return ValueLevel(lattice=lattice, t=t, yz=np.concatenate([y[..., None], z], axis=-1))


def _window(lattice, times, yfun):
    """Hand-built ascending window of sealed levels with Z ≡ 0."""
    X = lattice.nodes()
    return [_level(lattice, t, yfun(t, X), np.zeros(lattice.shape + (1, 1))) for t in times]


def _iterate(x, m=1):
    """A zero (Y, Z) iterate at the points x, shape (P, m, 1+d) with d = 1;
    decoupled problems' coefficients do not read it."""
    return np.zeros((len(x), m, 2))


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
        dict(k=3, n_steps=16, r=0),
        dict(k=3, n_steps=16, gh_points=0),
        dict(k=3, n_steps=16, gh_points=MAX_POINTS + 1),
        dict(k=5, n_steps=8, m_comb=5),  # below k + m_comb - 1 = 9
        dict(k=3, n_steps=-16),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r="12"), dict(r=3.5), dict(gh_points=8.0), dict(k=3.0),
        dict(n_steps=16.0), dict(m_comb=4.0), dict(init_substeps=2.0),
        dict(m_comb=True), dict(init_substeps=True),
    ],
    ids=[
        "r-string", "r-float", "gh_points-float", "k-float",
        "n_steps-float", "m_comb-float", "init_substeps-float",
        "m_comb-bool", "init_substeps-bool",
    ],
)
def test_config_rejects_non_integer_r_and_gh_points(kwargs):
    """Every integer field is type-checked when the config is built."""
    (name, _), = kwargs.items()
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        SolverConfig(**{"k": 3, "n_steps": 16, **kwargs})


def test_config_names_the_cell_below_the_step_floor():
    with pytest.raises(ValueError, match=r"= 8 at \(k, n_steps\) = \(5, 6\)"):
        SolverConfig(k=5, n_steps=6)


def test_config_stores_numpy_integers_as_python_ints():
    cfg = SolverConfig(
        k=np.int64(3), n_steps=np.int64(8), m_comb=np.int32(4), r=np.int64(10),
        gh_points=np.int16(8), init_substeps=np.uint8(2),
    )
    fields = dataclasses.asdict(cfg)
    assert fields == dict(
        k=3, n_steps=8, m_comb=4, r=10, gh_points=8, init_mode="exact", init_substeps=2
    )
    assert all(type(fields[name]) is int for name in fields if name != "init_mode")
    plain = dataclasses.asdict(SolverConfig(k=np.int64(3), n_steps=np.int64(8)))
    assert type(plain["k"]) is int and type(plain["n_steps"]) is int


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SolverConfig)])
def test_config_is_frozen(name):
    """A built config cannot change, so no solve reads an unchecked value."""
    cfg = SolverConfig(k=3, n_steps=8)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


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
    a_val = problem.a(0.3, x)
    b_val = problem.b(0.3, x)
    q, _ = rule.points()
    nodes, dw = euler_points(x, a_val, b_val, q, j, dt)
    assert nodes.shape == (4, 2, 1)  # (Q, P, n): quadrature index outermost
    assert dw.shape == (4, 1)
    scale = math.sqrt(2.0 * j * dt)
    assert dw == pytest.approx(scale * q, abs=0)
    for i in range(2):
        expected = x[i, 0] + 0.7 * j * dt + 0.5 * scale * q[:, 0]
        assert nodes[:, i, 0] == pytest.approx(expected, rel=1e-15)


def test_euler_points_rejects_nonpositive_span():
    x = np.array([[0.0]])
    q, _ = gauss_hermite_tensor(2, 1).points()
    with pytest.raises(ValueError):
        euler_points(x, np.zeros((1, 1)), np.ones((1, 1, 1)), q, 0, 0.1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_euler_points_of_many_spans_match_one_span_at_a_time_bitwise(d):
    """An array of spans gives, span by span, the bytes of each span alone."""
    rng = np.random.default_rng(d)
    x = rng.uniform(-1, 1, size=(7, 2))
    a_val, b_val = rng.normal(size=(7, 2)), rng.normal(size=(7, 2, d))
    q, _ = gauss_hermite_tensor(3, d).points()
    spans = np.array([2, 3, 4, 5])
    nodes, dw = euler_points(x, a_val, b_val, q, spans, 0.01)
    assert nodes.shape == (4, len(q), 7, 2) and dw.shape == (4, len(q), d)
    for i, j in enumerate(spans):
        one_nodes, one_dw = euler_points(x, a_val, b_val, q, int(j), 0.01)
        assert nodes[i].tobytes() == one_nodes.tobytes()
        assert dw[i].tobytes() == one_dw.tobytes()
    with pytest.raises(ValueError):
        euler_points(x, a_val, b_val, q, np.array([1, 0]), 0.01)


def _expectations(window, x, t_n, j, problem, rule, r):
    """Moments of span j at one point, from the batched all-span evaluation."""
    dt = window[0].t - t_n
    moments = conditional_expectations(
        window[:j], np.array([[x]]), t_n, dt, problem, _iterate([x]), rule, r
    )
    assert moments.shape == (j, 1, 1, 2)
    return moments[-1, 0, :, 0], moments[-1, 0, :, 1:]


def test_conditional_expectations_constant_field():
    problem = _constant_coefficient_problem()
    lattice = build_lattice(0.0, 0.1, 2.0, r=3)
    window = _window(lattice, [0.02, 0.04], lambda t, X: np.full(lattice.shape + (1,), 4.2))
    rule = gauss_hermite_tensor(8, 1)
    for j in (1, 2):
        ey, eyw = _expectations(window, 0.0, 0.0, j, problem, rule, r=3)
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
        ey, eyw = _expectations(window, 0.3, 0.0, j, problem, rule, r=3)
        assert ey[0] == pytest.approx(0.3, abs=1e-12)
        assert eyw[0, 0] == pytest.approx(j * 0.02, rel=1e-12)


def test_conditional_expectations_match_monte_carlo():
    """Quadrature moments agree with a seeded Monte Carlo Euler predictor."""
    problem = get_problem("example1")
    t_n, dt, j = 0.5, 0.02, 2
    t_target = t_n + j * dt
    lattice = build_lattice(1.0, 0.05, 1.5, r=7)
    X = lattice.nodes()
    window = [
        _level(
            lattice, t_n + s * dt,
            problem.analytic_y(t_n + s * dt, X), problem.analytic_z(t_n + s * dt, X),
        )
        for s in (1, 2)
    ]
    rule = gauss_hermite_tensor(12, 1)
    ey, eyw = _expectations(window, 1.0, t_n, j, problem, rule, r=7)

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


class _FirstCall(Exception):
    pass


def _first_expectations_call(monkeypatch, name, cfg):
    """Arguments of the first conditional_expectations call of a solve."""

    def recording(*args):
        raise _FirstCall(args)

    with monkeypatch.context() as patch:
        patch.setattr(stepper, "conditional_expectations", recording)
        with pytest.raises(_FirstCall) as call:
            solve(get_problem(name), cfg)
    return call.value.args[0]


def _terms_bytes(args):
    """Bytes of one span's quadrature terms, Q·P·m·(1+d)·8."""
    yz, rule = args[5], args[6]
    return rule.npoints * yz.size * 8


def _span_bytes(args):
    """Bytes of the block budget one span takes, Q·P·(m·(2+d) + n)·8: its
    terms, the Y values read and its Euler points."""
    x, yz, rule = args[1], args[5], args[6]
    P, m, width = yz.shape
    return rule.npoints * P * (m * (1 + width) + x.shape[1]) * 8


@pytest.mark.parametrize(
    "name, cfg",
    [("example1", SolverConfig(k=5, n_steps=10)), ("example3", SolverConfig(k=3, n_steps=7))],
    ids=["example1", "example3"],
)
def test_batched_span_sums_match_single_spans_bytewise(monkeypatch, name, cfg):
    """Summing spans in groups gives the bytes of summing each span alone."""
    args = _first_expectations_call(monkeypatch, name, cfg)
    window = args[0]
    sums = []
    kahan = stepper.kahan_sum

    def counting_kahan(*a, **kw):
        sums.append(1)
        return kahan(*a, **kw)

    monkeypatch.setattr(stepper, "kahan_sum", counting_kahan)
    results, calls = {}, {}
    for label, budget in [
        ("default", fbsde.lattice._BLOCK_BYTES),
        ("one group", len(window) * _span_bytes(args)),
        ("single spans", _span_bytes(args) - 1),
    ]:
        monkeypatch.setattr(fbsde.lattice, "_BLOCK_BYTES", budget)
        del sums[:]
        results[label] = conditional_expectations(*args)
        calls[label] = len(sums)
    assert calls["one group"] == 1
    assert calls["single spans"] == len(window) > 1
    for label in ("default", "one group"):
        assert results[label].shape == results["single spans"].shape
        assert results[label].tobytes() == results["single spans"].tobytes()


@pytest.mark.parametrize(
    "name, cfg",
    [("example1", SolverConfig(k=5, n_steps=10)), ("example3", SolverConfig(k=3, n_steps=7))],
    ids=["example1", "example3"],
)
def test_grouped_span_reads_match_one_read_per_span_bytewise(monkeypatch, name, cfg):
    """The spans of a quadrature group are read in one interpolate_values
    call, each on its own level, and give the moments' bytes of reading
    every span alone."""
    args = _first_expectations_call(monkeypatch, name, cfg)
    interpolate = stepper.interpolate_values
    calls = []

    def counting(lattice, values, queries, r, *, more=()):
        calls.append(1 + len(more))
        return interpolate(lattice, values, queries, r, more=more)

    def one_level_at_a_time(lattice, values, queries, r, *, more=()):
        levels = [(lattice, values), *more]
        rows = np.reshape(queries, (len(levels), -1, lattice.dim))
        return np.concatenate(
            [interpolate(lat, vals, q, r) for (lat, vals), q in zip(levels, rows)]
        )

    monkeypatch.setattr(stepper, "interpolate_values", counting)
    got = conditional_expectations(*args)
    monkeypatch.setattr(stepper, "interpolate_values", one_level_at_a_time)
    want = conditional_expectations(*args)
    assert sum(calls) == len(args[0]) and max(calls) > 1
    assert got.tobytes() == want.tobytes()


def test_expectations_memory_is_bounded_by_the_block_budget(monkeypatch):
    """One call holds one group of spans, not every span's at once.

    The first example3 window at n_steps=12 reads 6 levels from 625 nodes:
    8 × 625 × 2 × 2 × 8 B = 0.16 MB of quadrature terms per span, and
    8 × 625 × (2 × 3 + 2) × 8 B = 0.32 MB of the block budget with the
    Y values read and the Euler points.  With the
    budget at one span, all six spans' terms at once would take six times
    the terms.
    """
    args = _first_expectations_call(monkeypatch, "example3", SolverConfig(k=3, n_steps=12))
    window, x, rule = args[0], args[1], args[6]
    span = _terms_bytes(args)
    monkeypatch.setattr(fbsde.lattice, "_BLOCK_BYTES", _span_bytes(args))
    tracemalloc.start()
    try:
        out = conditional_expectations(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (6, x.shape[0], 2, 2)
    # One group's terms, one interpolation block (coordinates, gather and
    # indices), a span's quadrature points and the few arrays of their size
    # that the predictor makes, and the outputs.
    points = rule.npoints * x.nbytes
    outputs = len(window) * span // rule.npoints
    assert peak < 2.5 * span + 8 * points + outputs


def _many_component_expectations_args(m=4, spans=6, P=200):
    """conditional_expectations arguments whose block-sized buffers dwarf
    the per-call arrays: m = 4 components and 24 quadrature nodes."""
    lat = build_lattice(0.0, 0.05, 3.0, r=10)
    X = lat.nodes()
    window = [
        _level(lat, 0.1 * s, np.cos(X * np.arange(1, m + 1) + s), np.zeros(lat.shape + (m, 1)))
        for s in range(1, spans + 1)
    ]
    problem = _constant_coefficient_problem(a0=0.3, b0=0.5)
    x = np.linspace(-1.0, 1.0, P)[:, None]
    return (window, x, 0.0, 0.01, problem, _iterate(x, m), gauss_hermite_tensor(24, 1), 10)


def test_repeated_expectations_allocate_nothing_block_sized():
    """After a warm-up, a call of the same size reuses the quadrature-term
    buffer and the interpolation blocks.

    Each span's terms take 24 × 200 × 4 × 2 × 8 B = 307,200 B, and the
    block budget, 2 MiB, holds six spans' terms (1.84 MB).  One
    interpolation block gathers 1.65 MB, below the 1.68 MB bound.  A span
    takes 24 × 200 × (4 × 3 + 1) × 8 B = 499,200 B of that budget with its
    values read and points, so a group holds four spans.  The arrays a call
    makes afresh (a group's points and values read, the sums and the
    moments) stay below both.
    """
    args = _many_component_expectations_args()
    first = conditional_expectations(*args)
    tracemalloc.start()
    try:
        second = conditional_expectations(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.shape == second.shape == (6, 200, 4, 2)
    assert first.tobytes() == second.tobytes()
    span = 24 * 200 * 4 * 2 * 8
    group = (fbsde.lattice._BLOCK_BYTES // span) * span
    rows = fbsde.lattice._BLOCK_BYTES // (11 * 5 * 8)
    assert peak < min(group, 11 * rows * 4 * 8)


def test_each_quadrature_group_is_read_in_one_kernel_call(monkeypatch):
    """conditional_expectations reads all the levels of a quadrature group
    in one interpolate_values call and leaves cutting its queries into
    blocks to the kernel.  A span takes 499,200 B of the 2 MiB budget, so
    six spans make a group of four and one of two, though one kernel block
    holds only 4,681 of the first group's 19,200 queries."""
    args = _many_component_expectations_args()
    window, interpolate = args[0], stepper.interpolate_values
    calls = []

    def recording(lattice, values, queries, r, *, more=()):
        read = [values, *(vals for _, vals in more)]
        calls.append([next(s for s, level in enumerate(window) if np.shares_memory(v, level.yz))
                      for v in read])
        return interpolate(lattice, values, queries, r, more=more)

    monkeypatch.setattr(stepper, "interpolate_values", recording)
    conditional_expectations(*args)
    assert calls == [[0, 1, 2, 3], [4, 5]]


def test_expectations_results_do_not_alias_the_workspace():
    """Moments stay as they were after later calls on other inputs."""
    args = _many_component_expectations_args()
    got = conditional_expectations(*args)
    kept = got.copy()
    for P in (200, 90):
        window, x, *rest = _many_component_expectations_args(P=P)
        conditional_expectations(window[::-1], 0.5 * x, *rest)
    assert got.tobytes() == kept.tobytes()


def test_expectations_results_survive_a_later_kernel_call():
    """The moments are no view of the workspace buffer their terms are
    formed in: a kernel call on other inputs, which rewrites that buffer,
    leaves them as they were."""
    args = _many_component_expectations_args()
    got = conditional_expectations(*args)
    kept = got.copy()
    lat = args[0][0].lattice
    values = np.sin(lat.nodes() * np.arange(1, 6))
    fbsde.lattice.interpolate_values(lat, values, np.linspace(-2.9, 2.9, 20_000)[:, None], 10)
    assert got.tobytes() == kept.tobytes()


@pytest.mark.parametrize(
    "name, cfg",
    [
        ("example1", SolverConfig(k=9, n_steps=32, r=18, gh_points=24)),
        ("example3", SolverConfig(k=3, n_steps=12)),
    ],
    ids=["scalar-k9", "example3"],
)
def test_a_solve_keeps_one_block_budget_of_buffers(monkeypatch, name, cfg):
    """A quadrature group's terms are formed in the kernel's workspace, not
    beside it, so after a solve this thread's buffers total no more than the
    block budget plus the kernel's coordinate and index buffers (the 1-D
    budget leaves the index out).  With a buffer of their own the terms left
    3.15 MB after the scalar-k9 solve, against a bound of 2.20 MB."""
    monkeypatch.setattr(fbsde.lattice._workspace, "buffers", {})
    solve(get_problem(name), cfg)
    buffers = fbsde.lattice._workspace.buffers
    total = sum(buffer.nbytes for buffer in buffers.values())
    assert total <= fbsde.lattice._BLOCK_BYTES + buffers["u"].nbytes + buffers["node"].nbytes


def test_z_update_weights_and_scales_moments():
    """Slot 0 is rhs = Σ c_j·E[Y], the rest Z = Σ c_j·E[YΔWᵀ]/Δt."""
    moments = np.array([[[[1.5, 0.4, 0.2]]], [[[-0.5, -0.1, 0.3]]]])  # (2, 1, 1, 1+2)
    coeffs = np.array([99.0, 2.0, 3.0])
    out = z_update(moments, coeffs, dt=0.1)
    assert out.shape == (1, 1, 3)
    assert out[0, 0, 0] == pytest.approx(2.0 * 1.5 + 3.0 * (-0.5), rel=1e-15)
    assert out[0, 0, 1] == pytest.approx((2.0 * 0.4 + 3.0 * (-0.1)) / 0.1, rel=1e-15)
    assert out[0, 0, 2] == pytest.approx((2.0 * 0.2 + 3.0 * 0.3) / 0.1, rel=1e-15)
    # The unknown-level coefficient c_0 must play no role here.
    coeffs2 = coeffs.copy()
    coeffs2[0] = 0.0
    assert out.tobytes() == z_update(moments, coeffs2, dt=0.1).tobytes()


@pytest.mark.parametrize(
    "name, n_steps", [("example1", 8), ("example2", 8)], ids=["decoupled", "coupled"]
)
def test_a_pass_sums_its_moments_once_beyond_the_quadrature(monkeypatch, name, n_steps):
    """Each pass makes one kahan_sum per quadrature group and one more, which
    weights the moments into the Y relation's rhs and Z together."""
    events = []
    kahan, expectations, update = (
        stepper.kahan_sum, stepper.conditional_expectations, stepper.y_update
    )

    def counting_kahan(terms):
        events.append("k")
        return kahan(terms)

    def recording_expectations(*args):
        group = max(1, fbsde.lattice._BLOCK_BYTES // _span_bytes(args))
        events.append(-(-len(args[0]) // group))  # quadrature groups
        return expectations(*args)

    def recording_update(*args):
        events.append("y")
        return update(*args)

    monkeypatch.setattr(stepper, "kahan_sum", counting_kahan)
    monkeypatch.setattr(stepper, "conditional_expectations", recording_expectations)
    monkeypatch.setattr(stepper, "y_update", recording_update)
    _, _, diag = solve(get_problem(name), SolverConfig(k=3, n_steps=n_steps))
    passes = [i for i, e in enumerate(events) if isinstance(e, int)]
    assert len(passes) == events.count("y") >= diag["levels_marched"]
    for start in passes:
        groups = events[start]
        assert events[start + 1 : start + groups + 3] == ["k"] * (groups + 1) + ["y"]


def test_y_update_is_direct_for_y_independent_drivers():
    rhs = np.array([[0.8]])
    x = np.array([[0.0]])
    z = np.zeros((1, 1, 1))

    def f(t, xx, y, zz):
        return np.full_like(y, 1.3)

    y, iters = y_update(rhs, c0=-2.0, dt=0.1, t_n=0.0, x=x, z_val=z, f=f,
                        y_seed=np.zeros((1, 1)))
    assert y[0, 0] == pytest.approx((0.8 + 0.1 * 1.3) / 2.0, rel=1e-15)
    assert iters <= 2


def test_y_update_contracts_to_fixed_point():
    rhs = np.array([[0.8]])
    x = np.array([[0.0]])
    z = np.zeros((1, 1, 1))

    def f(t, xx, y, zz):
        return 0.5 * np.sin(y)

    y, iters = y_update(rhs, c0=-2.0, dt=0.3, t_n=0.0, x=x, z_val=z, f=f,
                        y_seed=np.zeros((1, 1)))
    residual = -2.0 * y + rhs + 0.3 * f(0.0, x, y, z)
    assert abs(residual[0, 0]) < 1e-13
    assert iters < 20


def test_y_update_returns_a_solving_seed_unchanged():
    """Re-solving from a solution returns it bit for bit after one check, so
    a coupled pass seeded from a converged iterate does not move it."""
    rhs = np.array([[0.8], [-0.3]])
    x = np.zeros((2, 1))
    z = np.zeros((2, 1, 1))

    def f(t, xx, y, zz):
        return 0.5 * np.sin(y)

    y, iters = y_update(rhs, c0=-2.0, dt=0.3, t_n=0.0, x=x, z_val=z, f=f,
                        y_seed=np.zeros((2, 1)))
    assert iters > 1
    again, iters = y_update(rhs, c0=-2.0, dt=0.3, t_n=0.0, x=x, z_val=z, f=f, y_seed=y)
    assert iters == 1
    assert np.array_equal(again, y)


def test_y_update_reports_divergence():
    rhs = np.array([[1.0]])
    x = np.array([[0.25]])
    z = np.zeros((1, 1, 1))

    def f(t, xx, y, zz):
        return 50.0 * y

    with pytest.raises(PicardDivergence) as err:
        y_update(rhs, c0=1.0, dt=1.0, t_n=0.0, x=x, z_val=z, f=f,
                 y_seed=np.ones((1, 1)))
    assert "did not converge" in str(err.value)
    assert "0.25" in str(err.value)


def test_y_update_raises_at_the_first_non_finite_iterate():
    calls = []

    def f(t, xx, y, zz):
        calls.append(1)
        return np.where(xx > 0.0, np.nan, 0.0)

    x = np.array([[-0.5], [0.25], [0.75]])
    with pytest.raises(NonFiniteValue) as err:
        y_update(np.ones((3, 1)), c0=1.0, dt=0.1, t_n=0.3, x=x, z_val=np.zeros((3, 1, 1)),
                 f=f, y_seed=np.zeros((3, 1)))
    assert len(calls) == 1
    message = str(err.value)
    assert "Picard iterate 1" in message
    assert "t = 0.3" in message and "node x = [0.25]" in message


def test_solve_reports_a_driver_that_turns_nan():
    """f is NaN below t = 0.2: the first level there, t = 0.125, raises in
    its first Picard iterate instead of running to the iteration cap."""
    base = _constant_coefficient_problem(analytic=True)

    def f(t, x, y, z):
        return np.full_like(y, np.nan if t < 0.2 else 0.0)

    with pytest.raises(NonFiniteValue) as err:
        solve(dataclasses.replace(base, f=f), SolverConfig(k=3, n_steps=8))
    message = str(err.value)
    assert "Picard iterate 1" in message
    assert "t = 0.125" in message and "node x =" in message


@pytest.mark.parametrize("component", ["Y", "Z"])
def test_solve_reports_a_closed_form_that_is_infinite_at_one_node(component):
    """The closed form is inf at x = 0 from t = 0.875 down: the initialized
    level there raises as it seals, naming t, the node and the component."""
    base = _constant_coefficient_problem(analytic=True)
    closed = {"Y": base.analytic_y, "Z": base.analytic_z}[component]

    def infinite_at_origin(t, x):
        values = np.array(closed(t, x), dtype=float)
        if t < 0.9:
            values[x[..., 0] == 0.0] = np.inf
        return values

    field = {"Y": "analytic_y", "Z": "analytic_z"}[component]
    problem = dataclasses.replace(base, **{field: infinite_at_origin})
    with pytest.raises(NonFiniteValue) as err:
        solve(problem, SolverConfig(k=3, n_steps=8))
    assert f"non-finite {component} at t = 0.875, node x = [0.]" in str(err.value)


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


def test_terminal_z_fixed_point_is_relative_to_large_z():
    """Z ≈ 5e3 at T: an absolute 1e-13 stop cycles at 1–2 ulps of Z and
    never converges; the stop relative to max(1, |Z|) does."""
    problem = FbsdeProblem(
        name="steep", n=1, m=1, d=1, T=1.0, x0=np.array([0.3]),
        a=lambda t, x, y, z: np.zeros_like(x),
        b=lambda t, x, y, z: 0.5 + 3e-5 * z,
        f=lambda t, x, y, z: np.zeros_like(y),
        g=lambda x: 1e4 * np.sin(x),
        coupled=True,
    )
    y0, z0, _ = solve(problem, SolverConfig(k=3, n_steps=8, init_mode="ramp"))
    assert np.all(np.isfinite(y0)) and np.all(np.isfinite(z0))
    # Diffusion damps the sine, so Y(0, x0) lies between 0 and g(x0).
    assert 0.0 < y0[0] < 1e4 * math.sin(0.3)


def test_outer_divergence_names_worst_node(monkeypatch):
    """The coupled outer loop reports where it stopped converging."""
    monkeypatch.setattr(stepper, "_OUTER_MAX", 2)
    with pytest.raises(OuterDivergence) as err:
        solve(get_problem("example2"), SolverConfig(k=3, n_steps=6))
    message = str(err.value)
    assert "coupled outer loop" in message
    assert "in 2 iterations" in message
    assert "node x =" in message
    assert "last change" in message


def test_anderson_step_is_plain_where_the_residual_did_not_change():
    """The secant step mixes in the previous image; γ = 0 where f − f_prev = 0."""
    g = np.array([[2.0, 1.0], [3.0, -1.0]])
    f = np.array([[0.5, 0.25], [1.0, 2.0]])
    g_prev = np.array([[1.0, 0.0], [5.0, 7.0]])
    f_prev = np.array([[1.0, 0.25], [1.0, 2.0]])  # row 1: no change in f
    x_next = stepper._anderson_step(g, f, g_prev, f_prev)
    # Row 0: df = (−0.5, 0), γ = ⟨df, f⟩/‖df‖² = −0.25/0.25 = −1.
    assert np.array_equal(x_next[0], g[0] + (g[0] - g_prev[0]))
    assert np.array_equal(x_next[1], g[1])


def test_anderson_step_solves_a_linear_scalar_fixed_point_in_one_step():
    """For a linear scalar map the secant step lands on the fixed point."""
    G = lambda x: 0.5 * x + 1.0  # fixed point 2
    x0 = np.array([[0.0]])
    g0 = G(x0)
    x1 = g0
    g1 = G(x1)
    x2 = stepper._anderson_step(g1, g1 - x1, g0, g0 - x0)
    assert np.allclose(x2, 2.0, rtol=0.0, atol=1e-15)


def test_depth_two_anderson_step_solves_a_linear_fixed_point_in_two_unknowns():
    """Two independent residual differences span the plane, so for an affine
    map x = A·x + c the depth-2 step lands on its fixed point at once."""
    A = np.array([[0.5, 0.3], [-0.2, 0.4]])  # not symmetric
    c = np.array([1.0, -2.0])
    G = lambda x: x @ A.T + c
    fixed = np.linalg.solve(np.eye(2) - A, c)
    x = [np.array([[0.0, 0.0]]), np.array([[1.0, 0.5]]), np.array([[-0.5, 2.0]])]
    g = [G(xi) for xi in x]
    f = [gi - xi for gi, xi in zip(g, x)]
    x3 = stepper._anderson_step(g[2], f[2], g[1], f[1], g[0], f[0])
    assert np.allclose(x3, fixed[None, :], rtol=0.0, atol=1e-14)
    assert not np.allclose(stepper._anderson_step(g[2], f[2], g[1], f[1]), fixed, atol=1e-3)


def test_depth_two_anderson_step_takes_the_depth_one_step_where_singular():
    """Collinear residual differences make the 2×2 system singular: the row
    takes the depth-1 step, and a row whose residual did not change the
    plain step g, both finite."""
    g = np.array([[2.0, 1.0], [3.0, -1.0]])
    f = np.array([[0.5, 0.25], [1.0, 2.0]])
    g_prev = np.array([[1.0, 0.0], [5.0, 7.0]])
    f_prev = np.array([[1.0, 0.5], [1.0, 2.0]])  # row 1: no change in f
    g_older = np.array([[4.0, -3.0], [0.0, 1.0]])
    f_older = np.array([[2.0, 1.0], [3.0, 1.0]])  # row 0: Δf_{k−1} = 2·Δf_k
    x_next = stepper._anderson_step(g, f, g_prev, f_prev, g_older, f_older)
    assert np.all(np.isfinite(x_next))
    assert np.array_equal(x_next, stepper._anderson_step(g, f, g_prev, f_prev))
    assert np.array_equal(x_next[1], g[1])


class _FirstPass(Exception):
    pass


def _first_iterate(step, window, target, extrapolate):
    """The (Y, Z) iterate of ``step``'s first pass on ``target``, stopped
    before its expectations run."""
    problem = get_problem("example2")

    def recording(window, x, t_n, dt, problem, yz, rule, r):
        raise _FirstPass(yz.copy())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stepper, "conditional_expectations", recording)
        with pytest.raises(_FirstPass) as first:
            step(window, 0.5, 0.1, problem, np.ones(len(window) + 1),
                 gauss_hermite_tensor(4, 1), 3, target, extrapolate)
    return first.value.args[0].reshape(target.shape + (1, 2))


def _on(level, target):
    """``level``'s (Y, Z) on the nodes of ``target``."""
    start = target.lo - level.lattice.lo
    assert np.all(start >= 0) and np.all(target.hi <= level.lattice.hi)
    return level.yz[tuple(slice(s, s + n) for s, n in zip(start, target.shape))]


def test_full_width_coupled_step_starts_from_the_quadratic_extrapolation():
    """A full-width step's first iterate is 3·L₁ − 3·L₂ + L₃ on its target,
    bit for bit; without the flag, or with a target that L₂ or L₃ does not
    cover on either side, it is level n+1's values."""
    target = fbsde.lattice.Lattice(origin=[0.0], h=0.1, lo=[-3], hi=[2])
    rng = np.random.default_rng(0)

    def level(t, lo, hi):
        lattice = fbsde.lattice.Lattice(origin=[0.0], h=0.1, lo=[lo], hi=[hi])
        return ValueLevel(lattice=lattice, t=t, yz=rng.normal(size=lattice.shape + (1, 2)))

    near = level(0.6, -5, 5)
    covered = [near, level(0.7, -6, 4), level(0.8, -3, 2), level(0.9, -8, 8)]
    L1, L2, L3 = (_on(lv, target) for lv in covered[:3])
    step = stepper.step_coupled
    assert np.array_equal(_first_iterate(step, covered, target, True), 3.0 * L1 - 3.0 * L2 + L3)
    assert np.array_equal(_first_iterate(step, covered, target, False), L1)
    for uncovered in (
        [near, level(0.7, -2, 4), covered[2]],  # L₂ starts above the target
        [near, covered[1], level(0.8, -3, 1)],  # L₃ ends below it
    ):
        assert np.array_equal(_first_iterate(step, uncovered, target, True), L1)


def test_march_extrapolates_only_on_full_width_coupled_steps(monkeypatch):
    """In a ramp solve the k+m−1-level steps start from the extrapolation
    and the ramp's shorter ones from level n+1."""
    firsts = []
    step = stepper.step_coupled

    def recording_step(window, *args):
        target, extrapolate = args[6:8]
        firsts.append((window, target, extrapolate, _first_iterate(step, window, target, extrapolate)))
        return step(window, *args)

    monkeypatch.setattr(stepper, "step_coupled", recording_step)
    cfg = SolverConfig(k=3, n_steps=6, init_mode="ramp", init_substeps=2)
    solve(get_problem("example2"), cfg)
    full = cfg.k + cfg.m_comb - 1
    assert {len(w) == full for w, *_ in firsts} == {True, False}
    for window, target, extrapolate, first in firsts:
        assert extrapolate == (len(window) == full)
        L = [_on(level, target) for level in window[: 3 if extrapolate else 1]]
        expected = 3.0 * L[0] - 3.0 * L[1] + L[2] if extrapolate else L[0]
        assert np.array_equal(first, expected)


def test_coupled_ramp_with_short_steps_near_the_terminal_level_solves():
    """example2 ramp, k = 3, n_steps = 8, S = 2: extrapolating from the
    ramp's low-order levels near T read past a window here."""
    problem = get_problem("example2")
    cfg = SolverConfig(k=3, n_steps=8, init_mode="ramp", init_substeps=2)
    y0, z0, _ = solve(problem, cfg)
    assert abs(y0[0] - problem.analytic_y(0.0, problem.x0)[0]) < 1e-3
    assert abs(z0[0, 0] - problem.analytic_z(0.0, problem.x0)[0, 0]) < 1e-3


def test_coupled_outer_loop_takes_few_passes_per_level():
    """Quadratic first iterate and depth-2 Anderson steps: example2 at k=5,
    n_steps=32 averages at most 4.25 passes per level, none above 5.

    The plain outer fixed point contracts by only about ½ per pass there
    (dZ/dz = ½·cos²(t+x) through b), about 30 passes per level.
    """
    _, _, diag = solve(get_problem("example2"), SolverConfig(k=5, n_steps=32))
    passes = diag["outer_iterations"]
    assert len(passes) == diag["levels_marched"]
    assert sum(passes) / len(passes) <= 4.25
    assert max(passes) <= 5


def test_coupled_solve_matches_the_plain_outer_loop():
    """The accelerated outer loop converges to the plain loop's answer.

    The reference values are example2 at k=5, n_steps=32 from the
    unaccelerated loop with the absolute 1e-12 tolerance.
    """
    y0, z0, _ = solve(get_problem("example2"), SolverConfig(k=5, n_steps=32))
    assert abs(y0[0] - 0.9974949903014719) <= 1e-12
    assert abs(z0[0, 0] - 0.005003746440242434) <= 1e-12


def test_outer_tolerance_is_relative_to_the_iterate():
    """A coupled problem scaled by 1e5 converges to the scaled answer.

    With (Y, Z) of order 1e5, rounding alone leaves changes of about 1e-10
    per pass, so an absolute 1e-12 test could never be met.
    """
    base = get_problem("example2")
    c = 1e5
    scaled = dataclasses.replace(
        base,
        name="example2-scaled",
        a=lambda t, x, y, z: base.a(t, x, y / c, z / c),
        b=lambda t, x, y, z: base.b(t, x, y / c, z / c),
        f=lambda t, x, y, z: c * base.f(t, x, y / c, z / c),
        g=lambda x: c * base.g(x),
        analytic_y=lambda t, x: c * base.analytic_y(t, x),
        analytic_z=lambda t, x: c * base.analytic_z(t, x),
    )
    cfg = SolverConfig(k=3, n_steps=8)
    y0, _, _ = solve(base, cfg)
    ys, _, _ = solve(scaled, cfg)
    assert stepper._OUTER_TOL == 1e-12
    assert abs(ys[0] / c - y0[0]) <= 1e-9


def test_undersized_query_cone_is_reported(monkeypatch):
    """A read past a level's window names the step, the span, the level read
    and the overhang in nodes.

    From x = 0.75 at t = 0.1 with a = 7, b = 0.1 and Δt = 0.02, span 2
    drifts to 1.03 ± 0.1·√(4Δt)·q_max, past the window's hull at 1.0, while
    span 1 stays inside it.  Both spans are read in one interpolate_values
    call, so the failing level is the second of its call.
    """
    calls = []
    interpolate = stepper.interpolate_values

    def counting(*args, **kwargs):
        calls.append(1 + len(kwargs.get("more", ())))
        return interpolate(*args, **kwargs)

    monkeypatch.setattr(stepper, "interpolate_values", counting)
    problem = _constant_coefficient_problem(a0=7.0, b0=0.1)
    lattice = build_lattice(0.0, 0.1, 1.0, r=3)
    window = _window(lattice, [0.12, 0.14], lambda t, X: np.sin(X))
    rule = gauss_hermite_tensor(4, 1)
    q_max = float(np.max(np.abs(rule.points()[0])))
    overhang = (0.75 + 7.0 * 0.04 + 0.1 * math.sqrt(0.08) * q_max - 1.0) / 0.1
    with pytest.raises(OutOfDomain) as err:
        conditional_expectations(
            window, np.array([[0.75]]), 0.1, 0.02, problem, _iterate([0.75]), rule, 3
        )
    message = str(err.value)
    assert "query cone too small at t = 0.1," in message
    assert "span j=2" in message
    assert "reading level t = 0.14" in message
    assert f"{overhang:.3g} node(s) beyond the lattice hull on axis 0" in message
    assert "(level 1 of the call)" in message and calls == [2]


def test_oversized_window_fails_before_coefficients_run_on_it(monkeypatch):
    """A window past ``MAX_NODES`` raises TooManyNodes as the cone settles it,
    before a or b is evaluated on its nodes."""
    problem = get_problem("example1")
    rows = []

    def counting_a(t, x, y, z):
        rows.append(len(x))
        return problem.a(t, x, y, z)

    monkeypatch.setattr(fbsde.lattice, "MAX_NODES", 12)
    with pytest.raises(TooManyNodes, match="> 12"):
        solve(dataclasses.replace(problem, a=counting_a), SolverConfig(k=3, n_steps=8))
    assert rows and max(rows) <= 12


def test_marched_levels_live_on_their_windows(monkeypatch):
    """Each window holds exactly the quadrature points read from it.

    Every point lands inside its window, and each side of a window lies
    within ``_CONE_MARGIN`` + 1 node of the farthest point read there,
    unless the origin, the window of a level it seeds, or the r+1 node floor
    sets that side.  The t = 0 level is x0 alone, and every level holds
    finite values on its window's nodes.
    """
    reads, seeds, sealed = {}, [], []
    interpolate, step = stepper.interpolate_values, stepper.step_coupled

    def recording_interpolate(lattice, values, queries, r, *, more=()):
        levels = [lattice, *(lat for lat, _ in more)]
        for lat, rows in zip(levels, np.reshape(queries, (len(levels), -1, lattice.dim))):
            u = (rows - lat.origin) / lat.h
            lows, highs = reads.setdefault(id(lat), (lat, [], []))[1:]
            lows.append(np.min(u, axis=0))
            highs.append(np.max(u, axis=0))
        return interpolate(lattice, values, queries, r, more=more)

    def recording_step(window, *args):
        out = step(window, *args)
        seeds.append((window[0].lattice, out[0].lattice))
        sealed.append(out[0])
        return out

    monkeypatch.setattr(stepper, "interpolate_values", recording_interpolate)
    monkeypatch.setattr(stepper, "step_coupled", recording_step)
    margin = stepper._CONE_MARGIN + 1.0
    for name, cfg in (
        ("example1", SolverConfig(k=3, n_steps=8)),
        ("example1", SolverConfig(k=3, n_steps=8, init_mode="ramp", init_substeps=2)),
        ("example3", SolverConfig(k=3, n_steps=7)),
    ):
        for record in (reads, seeds, sealed):
            record.clear()
        diag = solve(get_problem(name), cfg).diagnostics
        r, dim = diag["r"], len(diag["lattice_shape"])
        assert sealed[-1].lattice.shape == (1,) * dim
        assert np.array_equal(sealed[-1].lattice.lo, np.zeros(dim))
        for level in sealed:
            assert np.all(np.isfinite(level.yz)) and not level.yz.flags.writeable
        initialized = 1 if cfg.init_mode == "ramp" else cfg.k + cfg.m_comb - 1
        assert len(reads) == initialized + len(sealed) - 1  # all but t = 0
        for lattice, lows, highs in reads.values():
            low, high = np.min(lows, axis=0), np.max(highs, axis=0)
            assert np.all(lattice.lo <= low + 1e-9) and np.all(high <= lattice.hi + 1e-9)
            kept = [target for near, target in seeds if near is lattice]
            floor = lattice.hi - lattice.lo + 1 == r + 1
            set_lo = (lattice.lo == 0) | floor
            set_hi = (lattice.hi == 0) | floor
            for target in kept:
                set_lo |= target.lo == lattice.lo
                set_hi |= target.hi == lattice.hi
            assert np.all(set_lo | (low - lattice.lo <= margin)), (name, low, lattice.lo)
            assert np.all(set_hi | (lattice.hi - high <= margin)), (name, high, lattice.hi)


@pytest.mark.parametrize(
    "name, n_steps", [("example1", 8), ("example2", 6)], ids=["decoupled", "coupled"]
)
def test_predictor_coefficients_are_evaluated_once_per_pass(monkeypatch, name, n_steps):
    """A pass freezes a at (t_n, x, Y, Z) once and reuses it for every span."""
    problem = get_problem(name)
    calls = []

    def counting_a(*args):
        calls.append(1)
        return problem.a(*args)

    per_step = []
    step = stepper.step_coupled

    def recording_step(*args, **kwargs):
        before = len(calls)
        out = step(*args, **kwargs)
        per_step.append((len(calls) - before, out[2]))
        return out

    monkeypatch.setattr(stepper, "step_coupled", recording_step)
    counted = dataclasses.replace(problem, a=counting_a)
    _, _, diag = solve(counted, SolverConfig(k=3, n_steps=n_steps))
    assert len(per_step) == diag["levels_marched"]
    for a_calls, outer in per_step:
        assert a_calls == (outer if problem.coupled else 1)
    if problem.coupled:
        assert [outer for _, outer in per_step] == diag["outer_iterations"]


def test_solver_is_deterministic():
    problem = get_problem("example1")
    cfg = SolverConfig(k=3, n_steps=12)
    first = solve(problem, cfg)
    second = solve(problem, cfg)
    assert np.array_equal(first.y0, second.y0)
    assert np.array_equal(first.z0, second.z0)


def test_interpolation_block_size_never_changes_a_solve(monkeypatch):
    """A 2-D solve is bit-identical with far smaller interpolation blocks.

    495 queries per block instead of 3,692 cut each level's 968 queries of
    the first step into two blocks, the second one ragged, and the smaller
    budget splits that step's six spans into two quadrature groups.
    """
    problem = get_problem("example3")
    cfg = SolverConfig(k=3, n_steps=7)
    y0, z0, _ = solve(problem, cfg)
    monkeypatch.setattr(fbsde.lattice, "_BLOCK_BYTES", 97 * 11**2 * (2 + 1) * 8)
    y1, z1, _ = solve(problem, cfg)
    assert np.array_equal(y0, y1) and np.array_equal(z0, z1)


def test_two_dimensional_spans_reach_the_kernel_in_runs_of_one_window_row(monkeypatch):
    """example3's a_i and b_i read only x_i, so the Euler points of one
    window row and quadrature point share their axis-0 coordinate.  Each
    span's points reach the kernel ordered (quadrature point, window node),
    the window's last axis innermost, so every run of queries with equal
    leading coordinates is exactly one window row long: the runs whose
    leading-axes work `interpolate_values` shares."""
    expectations, interpolate = stepper.conditional_expectations, stepper.interpolate_values
    rows, runs = [], []

    def recording_expectations(window, x, *args):
        rows.append(int(np.count_nonzero(x[:, 0] == x[0, 0])))
        return expectations(window, x, *args)

    def recording_interpolate(lattice, values, queries, r, *, more=()):
        for level in queries.reshape((-1,) + queries.shape[-2:]):
            heads = np.flatnonzero(np.any(level[1:, :-1] != level[:-1, :-1], axis=1)) + 1
            runs.append((rows[-1], set(np.diff(heads, prepend=0, append=len(level)).tolist())))
        return interpolate(lattice, values, queries, r, more=more)

    monkeypatch.setattr(stepper, "conditional_expectations", recording_expectations)
    monkeypatch.setattr(stepper, "interpolate_values", recording_interpolate)
    solve(get_problem("example3"), SolverConfig(k=3, n_steps=7))
    assert runs and max(rows) > 1
    assert all(lengths == {row} for row, lengths in runs)


def test_coupled_ramp_converges_at_default_tolerance():
    """The ramp's outer loops converge at the default tolerance.

    Nodes far from x0 bring the loop's rounding floor near an absolute
    1e-12; the test is relative to the iterate, and hops of the quadrature
    reach keep this solve's windows narrow.
    """
    problem = get_problem("example2")
    cfg = SolverConfig(k=5, n_steps=8, init_mode="ramp", init_substeps=8)
    y0, z0, _ = solve(problem, cfg)
    assert stepper._OUTER_TOL == 1e-12
    assert abs(y0[0] - problem.analytic_y(0.0, problem.x0)[0]) < 1e-4
    assert abs(z0[0, 0] - problem.analytic_z(0.0, problem.x0)[0, 0]) < 1e-4


def test_coupled_problem_without_closed_form_solves_by_ramp():
    """The cone takes (Y, Z) from the terminal data when there is no closed
    form, and widens those reaches; at (g, Z = 0) or unwidened, this solve
    reads past a window.  It lands where the closed-form problem's ramp does
    (|Y error| 3.1e-4)."""
    problem = get_problem("example2")
    bare = dataclasses.replace(problem, analytic_y=None, analytic_z=None)
    cfg = SolverConfig(k=3, n_steps=12, init_mode="ramp", init_substeps=2)
    y0, _, _ = solve(bare, cfg)
    assert abs(y0[0] - problem.analytic_y(0.0, problem.x0)[0]) < 1e-3


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
        "num_nodes", "levels_marched", "picard_iterations",
        "picard_iterations_max", "outer_iterations", "outer_iterations_max",
        "ramp_picard_iterations", "ramp_outer_iterations", "wall_time_s",
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
    assert diag["ramp_picard_iterations"] == diag["ramp_outer_iterations"] == []


def test_ramp_levels_are_reported(monkeypatch):
    """A ramp solve reports every fine level, apart from the main march.

    k = 3, m_comb = 4 and S = 2 march (k + m_comb − 2)·S = 10 ramp levels
    before the one main-march level of n_steps = 6.
    """
    ramp_steps = []
    step = stepper.step_coupled

    def recording_step(*args, **kwargs):
        out = step(*args, **kwargs)
        ramp_steps.append(out[1:])
        return out

    monkeypatch.setattr(stepper, "step_coupled", recording_step)
    cfg = SolverConfig(k=3, n_steps=6, init_mode="ramp", init_substeps=2)
    diag = solve(get_problem("example2"), cfg).diagnostics
    main = ramp_steps.pop()
    assert len(ramp_steps) == 10
    assert diag["ramp_picard_iterations"] == [p for p, _ in ramp_steps]
    assert diag["ramp_outer_iterations"] == [o for _, o in ramp_steps]
    assert all(o >= 1 for _, o in ramp_steps)
    assert diag["picard_iterations"] == [main[0]]
    assert diag["outer_iterations"] == [main[1]]
