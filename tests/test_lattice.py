"""Lattice construction and barycentric interpolation."""
from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import fbsde.lattice as lattice
from fbsde.lattice import (
    MAX_NODES,
    NODE_SNAP_TOL,
    Lattice,
    OutOfDomain,
    TooFewNodes,
    TooManyNodes,
    ValueLevel,
    _stencil_starts,
    _stencil_weights,
    build_lattice,
    interpolate_values,
)


def _axis_stencil(u, r, lo, hi):
    """Stencil starts (q,) and weights (r+1, q) of queries u along one axis."""
    starts = _stencil_starts(u, r, lo, hi)
    return starts, _stencil_weights(u - starts, r)


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
    with pytest.raises(TooManyNodes, match=f"> {MAX_NODES}"):
        build_lattice(0.0, 1e-9, 1.0)  # 2e9 + 1 nodes: only the shape is computed
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


@pytest.mark.parametrize(
    "fields, match",
    [
        (dict(origin=[0.0, 1.0], lo=[-2], hi=[3, 1]), "origin, lo and hi differ in length"),
        (dict(origin=[0.0], lo=[-2, -1], hi=[3]), "origin, lo and hi differ in length"),
        (dict(origin=[0.0, 1.0], lo=[-2, -1], hi=[[3, 1]]), "origin, lo and hi differ in length"),
        (dict(origin=[np.nan], lo=[-2], hi=[3]), "origin must be finite"),
        (dict(origin=[0.0, np.inf], lo=[-2, -2], hi=[3, 3]), "origin must be finite"),
        (dict(origin=[0.0], lo=[-2.7], hi=[3]), "lo must hold integers"),
        (dict(origin=[0.0], lo=[-2], hi=3.9), "hi must hold integers"),
        (dict(origin=[0.0], lo=[np.nan], hi=[3]), "lo must hold integers"),
        (dict(origin=[0.0], lo=[-2], hi=[np.inf]), "hi must hold integers"),
        (dict(origin=[0.0], lo=[True], hi=[3]), "lo must hold integers"),
    ],
    ids=[
        "origin-2-lo-1", "origin-1-lo-2", "hi-2d", "nan-origin", "inf-origin",
        "fractional-lo", "fractional-hi", "nan-lo", "inf-hi", "bool-lo",
    ],
)
def test_lattice_rejects_mismatched_nonfinite_and_fractional_fields(fields, match):
    """Each bad field raises ValueError naming it, where it used to build a
    lattice of the wrong dim or truncated bounds."""
    with pytest.raises(ValueError, match=match):
        Lattice(h=0.5, **fields)


def test_lattice_accepts_whole_number_float_bounds():
    lat = Lattice(origin=[0.0], h=0.5, lo=[-2.0], hi=3.0)
    assert lat.lo.dtype.kind == lat.hi.dtype.kind == "i"
    assert lat.shape == (6,)


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
def test_spacing_and_radius_must_be_finite(h):
    with pytest.raises(ValueError, match=f"spacing h must be finite and positive, got {h}"):
        Lattice(origin=np.array([0.0]), h=h, lo=np.array([-1]), hi=np.array([1]))
    with pytest.raises(ValueError, match=f"spacing h must be finite and positive, got {h}"):
        build_lattice(0.0, h, 1.0)
    with pytest.raises(ValueError, match=f"radius must be finite and non-negative, got {h}"):
        build_lattice(0.0, 0.1, h)


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


def test_integer_values_interpolate_in_float64():
    """Integer data is read in the kernel's float64, not truncated back."""
    lat = build_lattice(0.0, 1.0, 5.0)
    got = interpolate_values(lat, np.arange(11), [[0.5]], 3)
    assert got.dtype == np.float64
    assert np.array_equal(got, interpolate_values(lat, np.arange(11.0), [[0.5]], 3))
    assert got.tolist() == [5.5]


@pytest.mark.parametrize(
    "center, radius, m", [(0.2, 1.0, 1), ([0.1, -0.2], [0.6, 0.4], 2)], ids=["1d-m1", "2d-m2"]
)
def test_strided_values_interpolate_like_a_contiguous_copy(center, radius, m):
    """Y handed over as the slot-0 view of a level's (Y, Z) array, which is
    not contiguous, gives the bytes of interpolating a contiguous copy."""
    rng = np.random.default_rng(3)
    lat = build_lattice(center, 0.05, radius, r=6)
    yz = rng.uniform(-2, 2, size=lat.shape + (m, 3))
    view = yz[..., 0]
    assert not view.flags.c_contiguous
    queries = lat.origin + rng.uniform(-0.3, 0.3, size=(50, lat.dim))
    got = interpolate_values(lat, view, queries, r=6)
    want = interpolate_values(lat, np.ascontiguousarray(view), queries, r=6)
    assert got.shape == (50, m)
    assert got.tobytes() == want.tobytes()


def _budget_for(rows, r, dim, width):
    """A ``_BLOCK_BYTES`` at which a block holds ``rows`` queries."""
    return rows * (lattice._BLOCK_BYTES // lattice._block_rows(r, dim, width))


def _per_axis_reference(lat, values, queries, r):
    """Index each axis separately, weight a fresh copy of the full (r+1)^dim
    gather and sum it axis by axis, all in the stencil-major layout (stencil
    axes first, then the queries, then each node's values)."""
    dim, rest = lat.dim, values.shape[lat.dim:]
    idx, weights = [], []
    for ax in range(dim):
        starts, w = _axis_stencil(
            (queries[:, ax] - lat.origin[ax]) / lat.h, r, int(lat.lo[ax]), int(lat.hi[ax])
        )
        assert w.shape == (r + 1, len(queries))
        shape = [1] * dim + [len(queries)]
        shape[ax] = r + 1
        idx.append((starts - int(lat.lo[ax]) + np.arange(r + 1)[:, None]).reshape(shape))
        weights.append(w)
    want = values[tuple(idx)]
    for ax, w in enumerate(weights):
        w = w.reshape((r + 1,) + (1,) * (dim - 1 - ax) + (len(queries),) + (1,) * len(rest))
        want = np.sum(want * w, axis=0)
    return want


@pytest.mark.parametrize(
    "dim, r",
    [pytest.param(dim, r, id=f"{dim}d-r{r}") for dim, r in
     [(1, 18), (2, 4), (2, 10), (2, 18), (3, 4), (3, 8)]],
)
def test_gather_matches_per_axis_weighting_bitwise(monkeypatch, dim, r):
    # Reference: `_per_axis_reference`.  The degrees the solver uses
    # have more than 8 stencil entries, where a pairwise sum would differ
    # from the in-order one.  A budget of 8 queries splits the 37 queries
    # over 5 blocks.
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", _budget_for(8, r, dim, 2))
    assert lattice._block_rows(r, dim, 2) == 8
    rng = np.random.default_rng(5)
    h = 0.05
    radius = np.array([0.6, 0.4, 0.3])[:dim] + r * h / 2
    lat = build_lattice(np.array([0.1, -0.2, 0.3])[:dim], h, radius, r=r)
    values = rng.uniform(-3, 3, size=lat.shape + (2, 1))
    queries = rng.uniform(-1, 1, size=(37, dim)) * radius + lat.origin
    want = _per_axis_reference(lat, values, queries, r)
    got = interpolate_values(lat, values, queries, r)
    assert got.tobytes() == want.tobytes()
    ints = np.round(values * 100).astype(int)
    got_int = interpolate_values(lat, ints, queries, r)
    want_int = interpolate_values(lat, ints.astype(float), queries, r)
    assert np.array_equal(got_int, want_int)


def _tensor_lattice(dim, r):
    """A lattice of h = 0.05 with axes of different lengths, wide enough
    for a degree-r stencil on each."""
    h = 0.05
    radius = np.array([0.6, 0.4, 0.3])[:dim] + r * h / 2
    return build_lattice(np.array([0.1, -0.2, 0.3])[:dim], h, radius, r=r)


def _tensor_queries(lat, counts, rng, hull=False, hits=False):
    """Every combination of per-axis coordinates, the last axis innermost,
    so the queries come in runs of ``counts[-1]`` that share their leading
    coordinates, as the Euler points of a window do when each coefficient
    reads its own axis.  Each axis's coordinates are spread evenly over the
    hull with jitter; ``hull`` puts the hull's ends and points near them on
    every axis (one-sided stencils), ``hits`` puts nodes and points nudged
    by less than the snap tolerance on axis 0."""
    low, high = lat.bounds
    axes = []
    for ax, count in enumerate(counts):
        x = np.linspace(low[ax], high[ax], count)
        x[1:-1] += rng.uniform(-0.3, 0.3, count - 2) * lat.h
        if hull:
            x[[1, -2]] = low[ax] + 0.4 * lat.h, high[ax] - 0.4 * lat.h
        else:
            x[[0, -1]] += np.array([0.5, -0.5]) * lat.h
        if hits and ax == 0:
            nodes = lat.axis_coords(0)
            x = rng.choice(nodes, count, replace=False)
            x[::2] += 0.1 * NODE_SNAP_TOL * lat.h * rng.uniform(-1, 1, x[::2].size)
            x = np.clip(x, low[0], high[0])
        axes.append(x)
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lat.dim)


def _block_runs(lat, queries, r):
    """`lattice._runs` of ``queries`` read on ``lat`` in one block."""
    u = ((queries - lat.origin) / lat.h).T[None]
    last = _stencil_starts(u[:, -1], r, int(lat.lo[-1]), int(lat.hi[-1]))
    return lattice._runs(u[:, :-1], last, r)


def _mixed_runs(queries, run_length, rng):
    """Stretches of random length, 1 to 2·run_length − 1, cut from
    successive runs of ``run_length`` queries and laid end to end."""
    keep = []
    for start in range(0, len(queries), run_length):
        length = int(rng.integers(1, 2 * run_length))
        keep.extend(range(start, start + min(length, run_length)))
    return queries[keep]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize(
    "dim, r, counts",
    [
        pytest.param(2, 4, (6, 23), id="2d-r4"),
        pytest.param(2, 10, (5, 31), id="2d-r10"),
        pytest.param(3, 4, (4, 3, 17), id="3d-r4"),
        pytest.param(3, 8, (3, 2, 19), id="3d-r8"),
    ],
)
@pytest.mark.parametrize(
    "case", ["interior", "hull", "axis-0-hits", "split-blocks", "mixed-lengths"]
)
def test_runs_of_shared_leading_coordinates_match_per_axis_weighting_bitwise(
    monkeypatch, dim, r, counts, width, case
):
    """Tensor-grid queries, read in runs that share every coordinate but
    the last, give the bytes of weighting each query's full gather axis by
    axis: inside the hull, with one-sided stencils on every axis, with node
    hits on axis 0, with runs split over blocks of 7 queries, and with runs
    of mixed lengths, down to one query."""
    rng = np.random.default_rng(dim * 100 + r)
    lat = _tensor_lattice(dim, r)
    values = rng.uniform(-3, 3, size=lat.shape + (width,))
    queries = _tensor_queries(
        lat, counts, rng, hull=case == "hull", hits=case == "axis-0-hits"
    )
    if case == "mixed-lengths":
        queries = _mixed_runs(queries, counts[-1], rng)
    else:
        first, _, _ = _block_runs(lat, queries, r)
        assert first.tolist() == list(range(0, len(queries), counts[-1]))
    if case == "split-blocks":
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", _budget_for(7, r, dim, width))
        assert lattice._block_rows(r, dim, width) == 7
    got = interpolate_values(lat, values, queries, r)
    assert got.tobytes() == _per_axis_reference(lat, values, queries, r).tobytes()


@pytest.mark.parametrize(
    "dim, r, counts", [(2, 10, (9, 31)), (3, 4, (5, 4, 17))], ids=["2d-r10", "3d-r4"]
)
@pytest.mark.parametrize("shuffle", ["queries", "within-runs"])
def test_shuffled_queries_match_per_axis_weighting_and_keep_runs_narrow(
    dim, r, counts, shuffle
):
    """Queries whose equal leading coordinates are not adjacent, or whose
    runs jump back and forth along the last axis, give the bytes of the
    per-axis reference too.  A run never spans more than r+1 columns per
    query, so it is weighted over no more slots than it has queries, and
    shuffling never costs more leading-axes work than one query at a time."""
    rng = np.random.default_rng(17)
    lat = _tensor_lattice(dim, r)
    values = rng.uniform(-3, 3, size=lat.shape + (2,))
    queries = _tensor_queries(lat, counts, rng)
    if shuffle == "queries":
        queries = queries[rng.permutation(len(queries))]
    else:
        runs = queries.reshape(-1, counts[-1], dim)
        queries = np.concatenate([run[rng.permutation(counts[-1])] for run in runs])
    first, cmin, cmax = _block_runs(lat, queries, r)
    lengths = np.diff(first, append=len(queries))
    assert np.all(cmax - cmin <= (lengths - 1) * (r + 1))
    if shuffle == "within-runs":
        assert len(first) > math.prod(counts[:-1])  # the jumps split runs
    got = interpolate_values(lat, values, queries, r)
    assert got.tobytes() == _per_axis_reference(lat, values, queries, r).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("budget", [None, 150], ids=["one-block", "levels-share-blocks"])
def test_runs_of_a_grouped_call_stay_within_their_level_bitwise(monkeypatch, dim, budget):
    """Each level of a grouped call reads tensor-grid points on its own hull,
    the runs of the level before it turned by one run, so the last run of a
    level and the first of the next share their leading coordinates but not
    their stencils: runs end where a level does, and every level gets the
    bytes of the per-axis reference on its own lattice, in one block or
    with two levels to a block."""
    r = 4
    levels, _ = _grouped_inputs(dim, [8, 11, 9])
    counts = (3, 2, 13) if dim == 3 else (5, 13)
    queries = _tensor_queries(levels[0][0], counts, np.random.default_rng(23))
    queries = np.stack([np.roll(queries, ell * counts[-1], axis=0) for ell in range(3)])
    if budget is not None:
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", _budget_for(budget, r, dim, 3))
    (lat, values), *more = levels
    got = interpolate_values(lat, values, queries, r, more=more)
    want = np.concatenate([
        _per_axis_reference(level, vals, rows, r) for (level, vals), rows in zip(levels, queries)
    ])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("r", [8, 10, 18])
def test_one_query_calls_match_the_batched_call_bitwise(dim, r, width):
    """A call of one query, whose block has one query, gives the bytes of
    that query in a call of many: its stencil sums add in index order too,
    where numpy would sum a lone query's stencil pairwise."""
    rng = np.random.default_rng(r)
    h = 0.05
    lat = build_lattice(np.full(dim, 0.1), h, 0.5 + r * h / 2, r=r)
    values = rng.uniform(-1e3, 1e3, size=lat.shape + (width,))
    queries = lat.origin + rng.uniform(-0.5, 0.5, size=(60, dim))
    batched = interpolate_values(lat, values, queries, r)
    alone = np.concatenate([interpolate_values(lat, values, x[None], r) for x in queries])
    assert alone.tobytes() == batched.tobytes()


def test_degree_18_reproduces_polynomials_and_returns_nodes_bitwise():
    """r = 18, the order-9 case: polynomials of degree <= 18 are reproduced
    everywhere, one-sided hull stencils included, and node hits return the
    stored values bit-exactly."""
    r = 18
    rng = np.random.default_rng(18)
    lat = build_lattice(0.0, 0.1, 2.4, r=r)  # 49 nodes, -2.4 .. 2.4
    coeffs = rng.uniform(-1, 1, size=r + 1)
    x = lat.axis_coords(0)
    values = np.polyval(coeffs, x / 2.4)[:, None]
    queries = np.concatenate([
        rng.uniform(-2.4, 2.4, size=300),
        [-2.4, -2.39, -2.31, 2.31, 2.39, 2.4],  # one-sided stencils at the hull
    ])[:, None]
    got = interpolate_values(lat, values, queries, r)[:, 0]
    want = np.polyval(coeffs, queries[:, 0] / 2.4)
    assert got == pytest.approx(want, abs=1e-9)
    # Every node, hull nodes included, and nodes nudged by less than the
    # snap tolerance return the stored values exactly.
    nudged = x + 0.1 * NODE_SNAP_TOL * rng.uniform(-0.5, 0.5, size=x.size)
    nudged = np.clip(nudged, x[0], x[-1])
    for pts in (x, nudged):
        assert np.array_equal(interpolate_values(lat, values, pts[:, None], r), values)


def _spread_queries(kind, count, rng):
    """``count`` 2-D queries inside ±0.9: uniform at random, or a tensor
    grid of runs of 40 that share their axis-0 coordinate."""
    if kind == "random":
        return rng.uniform(-0.9, 0.9, size=(count, 2))
    x0, x1 = rng.uniform(-0.9, 0.9, count // 40), np.linspace(-0.9, 0.9, 40)
    return np.stack(np.meshgrid(x0, x1, indexing="ij"), axis=-1).reshape(-1, 2)


def test_interpolation_memory_is_bounded_by_the_block_budget():
    """A 2-D r = 10 gather over 20,000 queries stays near one block in
    memory, whether every query is a run of one or they come in runs of 40.

    Unblocked, the gather alone would take 20,000 × 121 × 3 × 8 B ≈ 58 MB.
    """
    rng = np.random.default_rng(3)
    lat = build_lattice([0.0, 0.0], 0.05, 1.0, r=10)
    values = rng.uniform(-1, 1, size=lat.shape + (2,))
    for kind in ("random", "tensor"):
        queries = _spread_queries(kind, 20_000, rng)
        tracemalloc.start()
        try:
            out = interpolate_values(lat, values, queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (20_000, 2)
        # One block's buffers, the shifted table (0.3 MB), and the per-query
        # coordinates, overhangs and output (a few times queries.nbytes).
        assert peak < 1.5 * lattice._BLOCK_BYTES + 8 * queries.nbytes, kind


def test_repeated_interpolation_allocates_nothing_block_sized():
    """After a warm-up, a call of the same size reuses the block buffers,
    whether every query is a run of one or they come in runs of 40.

    The 2,000 queries of a 2-D r = 10 gather fit one block at the default
    budget, whose buffers (partial sums, one axis-0 offset's runs, weights,
    run index and repeated weights) take 69 × 2,000 × 8 B ≈ 1.1 MB.  In runs
    of 40, the leading axes are weighted over 200 slots instead of 2,000
    queries, and the runs' columns and each query's gathered partial sums
    reuse the buffers of the runs and the partial sums.  The bound, 699 kB (121 × 722 × 8 B, a block's node index
    when the kernel gathered whole stencils), stays below that and above
    what a call allocates afresh: the shifted table, 1,681 nodes × 2 values
    × 11 offsets × 8 B ≈ 0.3 MB, and the per-call and per-run arrays
    (coordinates, overhangs, output, run bounds), a few times
    queries.nbytes = 32 kB.
    """
    rng = np.random.default_rng(3)
    lat = build_lattice([0.0, 0.0], 0.05, 1.0, r=10)
    values = rng.uniform(-1, 1, size=lat.shape + (2,))
    rows = lattice._BLOCK_BYTES // (11**2 * 3 * 8)
    for kind in ("random", "tensor"):
        queries = _spread_queries(kind, 2_000, rng)
        first = interpolate_values(lat, values, queries, 10)
        tracemalloc.start()
        try:
            second = interpolate_values(lat, values, queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, second)
        assert peak < 11**2 * rows * 8, kind


def test_repeated_interpolation_makes_no_copy_of_its_queries(monkeypatch):
    """Each block converts its own queries into index coordinates, so a
    repeated call allocates no (levels, dim, Q) copy of them.

    Blocks of 500 of the 50,000 2-D queries keep the block buffers small.
    What a call allocates afresh is then its result, 400 kB, the shifted
    table, 5 × 1,681 nodes × 8 B ≈ 67 kB, and arrays of one block's size,
    which stays below half the queries' 800 kB.
    """
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", _budget_for(500, 4, 2, 1))
    rng = np.random.default_rng(2)
    lat = build_lattice([0.0, 0.0], 0.05, 1.0, r=4)
    values = rng.uniform(-1, 1, size=lat.shape)
    queries = rng.uniform(-0.9, 0.9, size=(50_000, 2))
    first = interpolate_values(lat, values, queries, 4)
    tracemalloc.start()
    try:
        second = interpolate_values(lat, values, queries, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(first, second)
    assert peak < second.nbytes + queries.nbytes // 2


def test_results_do_not_alias_the_workspace():
    """A result stays as it was after later calls on other inputs and sizes."""
    rng = np.random.default_rng(8)
    lat = build_lattice([0.0, 0.0], 0.05, 1.0, r=6)
    values = rng.uniform(-1, 1, size=lat.shape + (2,))
    queries = rng.uniform(-0.9, 0.9, size=(500, 2))
    got = interpolate_values(lat, values, queries, 6)
    kept = got.copy()
    for n in (500, 300, 900):
        other = interpolate_values(lat, -values, rng.uniform(-0.9, 0.9, size=(n, 2)), 6)
        assert not np.shares_memory(got, other)
    assert np.array_equal(got, kept)


def test_threads_interpolating_at_once_match_serial_results():
    """Each thread has its own workspace: four threads (more than the cores
    of a small machine) interpolating different inputs at once, with the
    interpreter switching threads as often as it can, get the serial bits."""
    rng = np.random.default_rng(11)
    lat = build_lattice([0.0, 0.0], 0.05, 1.0, r=10)
    inputs = [
        (rng.uniform(-1, 1, size=lat.shape + (2,)), rng.uniform(-0.9, 0.9, size=(3_000, 2)))
        for _ in range(4)
    ]
    serial = [interpolate_values(lat, values, queries, 10) for values, queries in inputs]
    results: list[list[np.ndarray]] = [[] for _ in inputs]

    def work(i: int) -> None:
        for _ in range(5):
            results[i].append(interpolate_values(lat, *inputs[i], 10))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial, results):
        assert len(got) == 5
        assert all(np.array_equal(g, want) for g in got)


def test_values_must_match_the_lattice_shape():
    lat = build_lattice([0.0, 0.0], 0.5, [2.0, 1.0])  # shape (9, 5)
    queries = np.array([[0.0, 0.0]])
    with pytest.raises(ValueError, match="do not match lattice shape"):
        interpolate_values(lat, np.zeros((5, 9, 1)), queries, r=2)
    with pytest.raises(ValueError, match="do not match lattice shape"):
        interpolate_values(lat, np.zeros(45), queries, r=2)
    assert interpolate_values(lat, np.ones((9, 5)), queries, r=2).shape == (1,)


def test_stencil_weights_go_into_out_when_given():
    u = np.linspace(-5.6, 5.7, 23)
    local = u - _stencil_starts(u, 4, -6, 6)
    w = _stencil_weights(local, 4)
    buffer = np.empty((5, 23))
    assert _stencil_weights(local, 4, out=buffer) is buffer
    assert np.array_equal(buffer, w)
    strided = np.empty((5, 23, 2))[..., 0]  # how the kernel spreads them
    assert np.array_equal(_stencil_weights(local, 4, out=strided), w)
    assert not np.shares_memory(w, _stencil_weights(local, 4))


def test_shape_is_computed_once():
    lat = Lattice(origin=[0.0, 1.0], h=0.5, lo=[-2, -1], hi=[3, 0])
    assert lat.shape == (6, 2) and all(type(n) is int for n in lat.shape)
    assert lat.shape is lat.shape
    assert lat.num_nodes == 12


def test_stencil_tie_goes_to_lower_start():
    starts, w = _axis_stencil(np.array([2.0]), r=3, lo=-10, hi=10)
    assert starts[0] == 0  # centered run {0,1,2,3} around 2 after the tie rule
    assert w.shape == (4, 1)  # stencil-major: (r+1, queries)
    assert w[:, 0] == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=0)  # node hit: one-hot


def test_stencil_shifts_inward_at_boundary():
    starts, _ = _axis_stencil(np.array([-9.9, 9.9]), r=5, lo=-10, hi=10)
    assert starts[0] == -10  # clipped at the low edge
    assert starts[1] == 5  # hi - r


def test_out_of_domain_is_strict_at_the_hull():
    lat = build_lattice([0.0, 0.0], 0.5, 1.0)  # nodes −1.0 .. 1.0 per axis
    values = np.arange(lat.num_nodes, dtype=float).reshape(lat.shape + (1,))
    corners = np.array([[-1.0, -1.0], [1.0, 1.0 + 1e-3 * NODE_SNAP_TOL]])
    got = interpolate_values(lat, values, corners, r=2)
    assert got[:, 0].tolist() == [0.0, lat.num_nodes - 1.0]  # on the hull
    with pytest.raises(OutOfDomain) as err:
        interpolate_values(lat, values, np.array([[0.0, 0.0], [0.3, -1.1]]), r=2)
    message = str(err.value)
    assert "0.2 node(s) beyond the lattice hull on axis 1" in message
    with pytest.raises(OutOfDomain, match="nan node"):
        interpolate_values(lat, values, np.array([[0.0, np.nan]]), r=2)


def test_interpolate_values_validation():
    lat = build_lattice(0.0, 0.5, 1.0)
    values = np.zeros(lat.shape + (1,))
    with pytest.raises(ValueError):
        interpolate_values(lat, values, np.array([[0.0]]), r=-1)
    for bad in (True, 2.5):
        with pytest.raises(TypeError, match="r must be an integer"):
            interpolate_values(lat, values, np.array([[0.0]]), r=bad)
    assert interpolate_values(lat, values, np.array([[0.3]]), r=np.int64(2)).shape == (1, 1)
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
    level = ValueLevel(lattice=lat, t=0.5, yz=np.zeros(lat.shape + (2, 4)))
    assert level.yz.shape == lat.shape + (2, 4)
    with pytest.raises(ValueError):
        ValueLevel(lattice=lat, t=0.0, yz=np.zeros((7, 2, 4)))
    with pytest.raises(ValueError):
        ValueLevel(lattice=lat, t=0.0, yz=np.zeros(lat.shape + (2,)))


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


def _grouped_inputs(dim, sizes, width=3, seed=0):
    """Levels on windows of one origin and h but different extents, each
    with (width,) values per node, and each level's own queries."""
    rng = np.random.default_rng(seed)
    origin, h = np.full(dim, 0.1), 0.05
    levels, queries = [], []
    for i, n in enumerate(sizes):
        lo = -np.arange(n, n + dim)
        lat = Lattice(origin=origin, h=h, lo=lo, hi=lo + 2 * n + i)
        low, high = lat.bounds
        levels.append((lat, rng.uniform(-2, 2, size=lat.shape + (width,))))
        queries.append(rng.uniform(low, high, size=(97, dim)))
    return levels, np.stack(queries)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize(
    "r, budget",
    [
        pytest.param(r, budget, id=name + ("" if r == 4 else f"-r{r}"))
        for r in (4, 10, 18)
        for budget, name in [
            (None, "one-block"), (200, "two-levels-a-block"), (30, "row-slices"),
            (32, "one-query-last-slice"),
        ]
    ],
)
def test_grouped_call_matches_one_call_per_level_bitwise(monkeypatch, dim, r, budget):
    """One call over several levels gives the bytes of one call per level at
    the default budget, whether one block holds every level, a budget of
    200 queries puts two levels of 97 in a block and the third in another, a
    budget of 30 splits each level over four blocks, the last one ragged, or
    a budget of 32 leaves one query in each level's last block."""
    levels, queries = _grouped_inputs(dim, [max(n, r // 2) for n in (8, 11, 9)])
    want = np.concatenate([
        interpolate_values(lat, values, rows, r) for (lat, values), rows in zip(levels, queries)
    ])
    if budget is not None:
        monkeypatch.setattr(lattice, "_BLOCK_BYTES", _budget_for(budget, r, dim, 3))
        assert lattice._block_rows(r, dim, 3) == budget
    (lat, values), *more = levels
    got = interpolate_values(lat, values, queries, r, more=more)
    assert got.shape == (3 * 97, 3)
    assert got.tobytes() == want.tobytes()
    # A group of one level, queries as (1, Q, dim), is the one-level call.
    alone = interpolate_values(lat, values, queries[:1], r)
    assert alone.tobytes() == want[:97].tobytes()


def test_grouped_call_checks_its_levels_agree():
    levels, queries = _grouped_inputs(1, [8, 11])
    (lat, values), (other, other_values) = levels
    moved = Lattice(origin=lat.origin + 0.01, h=lat.h, lo=other.lo, hi=other.hi)
    coarse = Lattice(origin=lat.origin, h=2 * lat.h, lo=other.lo, hi=other.hi)
    for bad in (moved, coarse):
        with pytest.raises(ValueError, match="share origin, h and dim"):
            interpolate_values(lat, values, queries, 4, more=[(bad, other_values)])
    with pytest.raises(ValueError, match="trailing shape"):
        interpolate_values(lat, values, queries, 4, more=[(other, other_values[..., :2])])
    # An equal origin held in another array is the same grid.
    twin = Lattice(origin=lat.origin.copy(), h=lat.h, lo=other.lo, hi=other.hi)
    got = interpolate_values(lat, values, queries, 4, more=[(twin, other_values)])
    want = interpolate_values(lat, values, queries, 4, more=[(other, other_values)])
    assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=r"queries must be \(2, Q, 1\)"):
        interpolate_values(lat, values, queries[0], 4, more=[(other, other_values)])


def test_grouped_call_names_the_level_off_its_hull():
    """Each level has its own hull: a query of level 1 half a node past
    level 1's hull raises OutOfDomain with ``level`` 1, and the one-level
    call on that level reports level 0."""
    levels, queries = _grouped_inputs(1, [8, 11])
    (lat, values), (other, other_values) = levels
    queries[1, 5, 0] = other.bounds[1][0] + 0.5 * lat.h
    with pytest.raises(OutOfDomain) as err:
        interpolate_values(lat, values, queries, 4, more=[(other, other_values)])
    assert err.value.level == 1
    assert "0.5 node(s) beyond the lattice hull on axis 0" in str(err.value)
    assert "(level 1 of the call)" in str(err.value)
    with pytest.raises(OutOfDomain) as err:
        interpolate_values(other, other_values, queries[1], 4)
    assert err.value.level == 0


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("over", [0.5, np.nan], ids=["overhang", "nan"])
def test_each_block_checks_its_own_hull(monkeypatch, dim, over):
    """With blocks of 30 queries, each level's 97 queries span four blocks,
    and each block checks its queries before it reads.  A query of level 1
    past that level's hull in its second block, or a NaN one, raises
    OutOfDomain naming level 1, the last axis and the overhang; a worse
    query in a later block of the level is not reached."""
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", _budget_for(30, 4, dim, 3))
    levels, queries = _grouped_inputs(dim, [8, 11])
    (lat, values), (other, other_values) = levels
    high = other.bounds[1][-1]
    queries[1, 40, -1] = high + over * lat.h
    queries[1, 70, -1] = high + 2.0 * lat.h
    with pytest.raises(OutOfDomain) as err:
        interpolate_values(lat, values, queries, 4, more=[(other, other_values)])
    assert err.value.level == 1
    message = str(err.value)
    assert f"query {queries[1, 40]} lies {over:.3g} node(s) beyond" in message
    assert f"on axis {dim - 1}" in message and "(level 1 of the call)" in message
