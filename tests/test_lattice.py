"""Lattice construction and barycentric interpolation."""
from __future__ import annotations

import numpy as np
import pytest

from fbsde.lattice import (
    NODE_SNAP_TOL,
    Lattice,
    OutOfDomain,
    TooFewNodes,
    TooManyNodes,
    ValueLevel,
    _axis_stencil,
    build_lattice,
    interpolate,
    interpolate_values,
)


def test_build_1d_spans_requested_radius():
    lat = build_lattice(1.0, 0.5, 2.0)
    assert lat.shape == (9,)
    assert lat.axis_coords(0) == pytest.approx(np.linspace(-1.0, 3.0, 9), abs=0)
    assert lat.num_nodes == 9
    lo, hi = lat.bounds
    assert lo[0] == -1.0 and hi[0] == 3.0


def test_build_2d_anisotropic_radius():
    lat = build_lattice([0.0, 0.0], 0.5, [1.0, 1.5])
    assert lat.shape == (5, 7)
    assert lat.dim == 2
    assert lat.nodes().shape == (5, 7, 2)


def test_build_rounds_outward_but_not_on_exact_multiples():
    assert build_lattice(0.0, 0.5, 1.01).shape == (7,)  # ±3 cells cover ±1.01
    assert build_lattice(0.0, 0.5, 1.0).shape == (5,)  # exact multiple: no extra cell


def test_build_node_budget_enforced():
    with pytest.raises(TooManyNodes):
        build_lattice(0.0, 1.0, 10.0, max_nodes=5)
    with pytest.raises(TooFewNodes):
        build_lattice(0.0, 1.0, 0.5, r=3)
    build_lattice(0.0, 1.0, 0.5, r=2)  # 3 nodes host a quadratic


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(origin=np.array([0.0]), h=0.0, lo=np.array([-1]), hi=np.array([1]))
    with pytest.raises(ValueError):
        Lattice(origin=np.array([0.0]), h=1.0, lo=np.array([2]), hi=np.array([1]))
    with pytest.raises(ValueError):  # origin must be a node: lo <= 0 <= hi
        Lattice(origin=np.array([0.0]), h=1.0, lo=np.array([1]), hi=np.array([3]))
    with pytest.raises(ValueError):
        build_lattice(0.0, 1.0, -1.0)


@pytest.mark.parametrize("r", [3, 5])
def test_interpolation_reproduces_polynomials(r):
    rng = np.random.default_rng(r)
    lat = build_lattice(0.3, 0.2, 2.0, r=r)
    coeffs = rng.uniform(-1, 1, size=r + 1)
    x = lat.axis_coords(0)
    values = np.polyval(coeffs, x)[:, None]
    queries = rng.uniform(-1.5, 2.0, size=(200, 1))
    got = interpolate_values(lat, values, queries, r)[:, 0]
    want = np.polyval(coeffs, queries[:, 0])
    assert got == pytest.approx(want, abs=1e-10)


def test_interpolation_reproduces_2d_tensor_polynomial():
    rng = np.random.default_rng(7)
    r = 3
    lat = build_lattice([0.0, 1.0], 0.25, 1.5, r=r)
    nodes = lat.nodes()
    px, py = nodes[..., 0], nodes[..., 1]
    values = (px**3 - 2 * px * py**2 + py**3 + 0.5)[..., None]
    q = np.stack(
        [rng.uniform(-1.0, 1.0, 160), rng.uniform(0.0, 2.0, 160)], axis=-1
    )
    got = interpolate_values(lat, values, q, r)[:, 0]
    want = q[:, 0] ** 3 - 2 * q[:, 0] * q[:, 1] ** 2 + q[:, 1] ** 3 + 0.5
    assert got == pytest.approx(want, abs=1e-10)


def test_node_queries_return_stored_values_bitwise():
    rng = np.random.default_rng(11)
    lat = build_lattice(0.3, 0.1, 1.0)
    values = rng.uniform(-5, 5, size=lat.shape + (2,))
    # Query the stored coordinates themselves (floats like 0.3 + 7·0.1).
    queries = lat.axis_coords(0)[:, None]
    got = interpolate_values(lat, values, queries, r=3)
    assert np.array_equal(got, values)


def test_gather_matches_per_axis_weighting_bitwise():
    # Reference: index each axis separately, weight a fresh copy, sum axis by axis.
    rng = np.random.default_rng(5)
    lat = build_lattice(np.array([0.1, -0.2]), 0.05, np.array([0.6, 0.4]))
    values = rng.uniform(-3, 3, size=lat.shape + (2, 1))
    queries = rng.uniform(-0.3, 0.3, size=(37, 2)) + lat.origin
    r = 4
    idx, weights = [], []
    for ax in range(2):
        starts, w = _axis_stencil(
            (queries[:, ax] - lat.origin[ax]) / lat.h, r, int(lat.lo[ax]), int(lat.hi[ax])
        )
        shape = [len(queries), 1, 1]
        shape[1 + ax] = r + 1
        idx.append((starts[:, None] - int(lat.lo[ax]) + np.arange(r + 1)).reshape(shape))
        weights.append(w)
    want = values[tuple(idx)]
    for w in weights:
        want = np.sum(want * w.reshape(w.shape + (1,) * (want.ndim - 2)), axis=1)
    got = interpolate_values(lat, values, queries, r, chunk=8)
    assert np.array_equal(got, want)
    ints = np.round(values * 100).astype(int)
    got_int = interpolate_values(lat, ints, queries, r, chunk=8)
    want_int = interpolate_values(lat, ints.astype(float), queries, r).astype(int)
    assert np.array_equal(got_int, want_int)


def test_stencil_tie_goes_to_lower_start():
    starts, w = _axis_stencil(np.array([2.0]), r=3, lo=-10, hi=10)
    assert starts[0] == 0  # centered run {0,1,2,3} around 2 after the tie rule
    assert w[0] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=0)  # node hit: one-hot


def test_stencil_shifts_inward_at_boundary():
    starts, _ = _axis_stencil(np.array([-9.9, 9.9]), r=5, lo=-10, hi=10)
    assert starts[0] == -10  # clipped at the low edge
    assert starts[1] == 5  # hi - r


def test_out_of_domain_raises_beyond_half_cell():
    lat = build_lattice(0.0, 0.5, 1.0)
    values = np.zeros(lat.shape + (1,))
    interpolate_values(lat, values, np.array([[1.24]]), r=2)  # within hull + h/2
    with pytest.raises(OutOfDomain) as err:
        interpolate_values(lat, values, np.array([[1.26]]), r=2)
    assert "axis 0" in str(err.value)
    assert "hull" in str(err.value)


def test_interpolate_values_validation():
    lat = build_lattice(0.0, 0.5, 1.0)
    values = np.zeros(lat.shape + (1,))
    with pytest.raises(ValueError):
        interpolate_values(lat, values, np.array([[0.0]]), r=-1)
    with pytest.raises(TooFewNodes):
        interpolate_values(lat, values, np.array([[0.0]]), r=7)
    with pytest.raises(ValueError):
        interpolate_values(lat, values, np.zeros((3, 2)), r=2)


def test_nearest_node_rule_at_degree_zero():
    lat = build_lattice(0.0, 0.25, 1.0)
    values = np.arange(lat.num_nodes, dtype=float)[:, None]
    got = interpolate_values(lat, values, np.array([[0.26], [0.24], [-0.13]]), r=0)
    # Nearest nodes: 0.25 (flat index 5), 0.25, and −0.25 (flat index 3).
    assert got[:, 0].tolist() == [5.0, 5.0, 3.0]


def test_value_level_shape_validation():
    lat = build_lattice(0.0, 0.5, 1.0)
    y = np.zeros(lat.shape + (2,))
    z = np.zeros(lat.shape + (2, 3))
    level = ValueLevel(lattice=lat, t=0.5, y=y, z=z)
    assert level.m == 2 and level.d == 3
    with pytest.raises(ValueError):
        ValueLevel(lattice=lat, t=0.0, y=np.zeros((7, 2)), z=z)
    with pytest.raises(ValueError):
        ValueLevel(lattice=lat, t=0.0, y=y, z=np.zeros(lat.shape + (2,)))


def test_interpolate_single_point_shapes():
    lat = build_lattice([0.0, 0.0], 0.5, 1.5)
    rng = np.random.default_rng(3)
    level = ValueLevel(
        lattice=lat,
        t=0.0,
        y=rng.normal(size=lat.shape + (2,)),
        z=rng.normal(size=lat.shape + (2, 2)),
    )
    y, z = interpolate(level, [0.1, -0.2], r=3)
    assert y.shape == (2,)
    assert z.shape == (2, 2)


def test_interpolation_error_shrinks_at_expected_order():
    r = 3
    errs = []
    for h in (0.2, 0.1):
        lat = build_lattice(0.0, h, 2.0, r=r)
        values = np.sin(lat.axis_coords(0))[:, None]
        q = np.linspace(-1.7, 1.7, 301)[:, None]
        got = interpolate_values(lat, values, q, r)[:, 0]
        errs.append(np.max(np.abs(got - np.sin(q[:, 0]))))
    order = np.log2(errs[0] / errs[1])
    assert order == pytest.approx(r + 1, abs=0.7)


def test_snap_tolerance_is_tight():
    # A query offset well beyond the snap window must NOT snap.
    lat = build_lattice(0.0, 1.0, 3.0)
    values = (lat.axis_coords(0) ** 2)[:, None]
    off = 1e-6
    got = interpolate_values(lat, values, np.array([[1.0 + off]]), r=2)[0, 0]
    assert got != values[4, 0]
    assert got == pytest.approx((1.0 + off) ** 2, rel=1e-9)
    assert NODE_SNAP_TOL < off
