"""Uniform spatial lattices and local tensor-product Lagrange interpolation.

A lattice stores nodes x_i = origin + i·h for integer multi-indices i between
``lo`` and ``hi`` (inclusive, per axis).  Values living on the lattice are
interpolated with degree-r Lagrange polynomials on the r+1 nodes nearest the
query along each axis.  Queries must lie inside the hull [lo, hi]; one beyond
it raises :class:`OutOfDomain`, so values are never extrapolated.  Near the
hull the stencil becomes one-sided: it is clipped to the r+1 nodes nearest
the query inside [lo, hi], so it reads stored values only.  The
evaluation uses the second barycentric formula with the exact uniform-grid
weights (-1)^i·C(r, i) (Berrut & Trefethen, SIAM Review 46, 2004), which
reproduces polynomials of degree ≤ r up to rounding and returns stored
values bit-exactly when the query hits a node.

The kernel is stencil-major: stencil weights are laid out with the stencil
index outermost and the queries innermost, (r+1, queries) per axis, and
gathered values as (r+1, ..., queries, values per node).  Every array
operation then runs over many queries contiguously rather than over one
short stencil row at a time, and each sum over a stencil's r+1 entries adds
them in index order, one contiguous slab of queries per entry (a block of
one query too).  The values are read from a shifted table that holds each
node's r+1 last-axis neighbours, so one index per query gathers a stencil's
whole last-axis run, every value of each node at once.  In 1-D that run is
the stencil; from 2-D on the kernel loops over the axis-0 offsets, weights
each offset's runs and adds them up before the other axes reduce, so no
(r+1)^dim-entry block or index per query is ever built, and every product
and sum is that of weighting a full tensor gather axis by axis.

One call may read several levels of the same grid (shared origin, h and
dim), each at its own queries: their values are laid end to end and each
level's node index is offset by its first node, while each keeps its own
hull check and one-sided stencils.  A one-level call is the group of one.
Many small reads then cost one call's fixed overhead instead of one each,
and every result is the one a call per level would give, to the bit.

The kernel's block-sized arrays (run index, stencil weights, gathered runs,
partial sums and repeated weights) live in a per-thread workspace that is kept between
calls, so a solve does not allocate, and have the kernel zero-fill, the same
pages again for every block.  The shifted table, r+1 times the levels'
values, is built per call.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

MAX_NODES = 100_000_000

#: Bytes of the buffers that one block of queries in `interpolate_values`
#: holds; memory stays flat however many queries come.
#: `fbsde.stepper.conditional_expectations` groups its spans' quadrature
#: terms by the same budget.  Both take their buffers from `_scratch`, which
#: keeps one block's worth per thread at the largest budget used so far.
_BLOCK_BYTES = 2 * 2**20

#: Queries within this fraction of h of a node snap to the stored value, and
#: within this fraction of h outside the hull still count as inside it.
NODE_SNAP_TOL = 1e-9


class TooManyNodes(ValueError):
    """Raised when a requested lattice would exceed the node-count cap."""


class TooFewNodes(ValueError):
    """Raised when a lattice cannot host a single degree-r stencil."""


class OutOfDomain(ValueError):
    """Raised when a query lies outside the lattice hull.

    ``level`` is the index, within its `interpolate_values` call, of the
    level whose hull the query missed (0 for a one-level call).
    """

    level = 0


def _check_spacing(h: float) -> None:
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"spacing h must be finite and positive, got {h}")


@dataclass(frozen=True)
class Lattice:
    """Uniform lattice: node(i) = origin + i·h, lo ≤ i ≤ hi (per axis).

    More than ``MAX_NODES`` nodes raise TooManyNodes; only the shape is built.
    """

    origin: np.ndarray
    h: float
    lo: np.ndarray
    hi: np.ndarray
    #: Nodes per axis, hi − lo + 1, computed once from ``lo`` and ``hi``.
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.atleast_1d(np.asarray(self.origin, float)))
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, int)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, int)))
        object.__setattr__(self, "shape", tuple(int(n) for n in (self.hi - self.lo + 1)))
        _check_spacing(self.h)
        if np.any(self.hi < self.lo):
            raise ValueError("hi must be >= lo on every axis")
        if np.any(self.lo > 0) or np.any(self.hi < 0):
            raise ValueError("origin must be a lattice node (lo <= 0 <= hi)")
        if self.num_nodes > MAX_NODES:
            raise TooManyNodes(
                f"lattice would hold {self.num_nodes} nodes (> {MAX_NODES}); "
                f"shape {self.shape}"
            )

    @property
    def dim(self) -> int:
        return self.origin.size

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Physical hull corners (low, high)."""
        return self.origin + self.lo * self.h, self.origin + self.hi * self.h

    def axis_coords(self, axis: int) -> np.ndarray:
        return self.origin[axis] + np.arange(self.lo[axis], self.hi[axis] + 1) * self.h

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape `self.shape + (dim,)` in row-major order."""
        grids = np.meshgrid(*[self.axis_coords(ax) for ax in range(self.dim)], indexing="ij")
        return np.stack(grids, axis=-1)


def build_lattice(center, h: float, radius, r: int | None = None) -> Lattice:
    """Lattice centered on `center` covering at least ±radius per axis.

    Bounds are rounded outward, so the hull always contains center ± radius and
    `center` itself is the index-0 node.  `radius` may be a scalar or per-axis
    sequence.  The build fails early: TooManyNodes above ``MAX_NODES`` nodes,
    and with `r` given, TooFewNodes if a degree-r stencil would not fit.
    """
    origin = np.atleast_1d(np.asarray(center, float))
    _check_spacing(h)
    rad = np.full(origin.shape, radius, dtype=float)
    if not np.all(np.isfinite(rad) & (rad >= 0)):
        raise ValueError(f"radius must be finite and non-negative, got {radius}")
    half = np.array([int(math.ceil(v / h - 1e-12)) for v in rad])
    lat = Lattice(origin=origin, h=float(h), lo=-half, hi=half)
    if r is not None and any(n < r + 1 for n in lat.shape):
        raise TooFewNodes(
            f"lattice shape {lat.shape} cannot host a degree-{r} stencil "
            f"({r + 1} nodes per axis required)"
        )
    return lat


@dataclass(frozen=True)
class ValueLevel:
    """Backward-solution snapshot at one time level.

    ``yz`` has shape `lattice.shape + (m, 1+d)`: Y in slot 0 of the last
    axis and Z in slots 1..d.
    """

    lattice: Lattice
    t: float
    yz: np.ndarray

    def __post_init__(self) -> None:
        shape = self.lattice.shape
        if self.yz.shape[:-2] != shape or self.yz.ndim != len(shape) + 2:
            raise ValueError(
                f"yz shape {self.yz.shape} does not match lattice {shape} + (m, 1+d)"
            )


class _Workspace(threading.local):
    """Buffers by role, one dict per thread."""

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}


_workspace = _Workspace()


def _scratch(role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous (shape, dtype) view of this thread's buffer for ``role``.

    Each buffer is kept between calls and only grows, so a hot loop that asks
    for the same sizes again allocates nothing.  Callers ask for at most one
    block's worth per role, so the workspace holds at most one block's
    buffers at the largest ``_BLOCK_BYTES`` in use.  The view's contents are
    undefined, and the next request for ``role`` on this thread overwrites
    them, so no result that outlives a call may be a view of it.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffer = _workspace.buffers.get(role)
    if buffer is None or buffer.size < nbytes:
        buffer = _workspace.buffers[role] = np.empty(nbytes, np.uint8)
    return buffer[:nbytes].view(dtype).reshape(shape)


@functools.cache
def _stencil_constants(r: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only barycentric weights (-1)^i·C(r, i) and float offsets 0..r,
    each an (r+1, 1) column for the stencil-major layout."""
    weights = np.array([[(-1) ** i * math.comb(r, i)] for i in range(r + 1)], dtype=float)
    offsets = np.arange(r + 1.0)[:, None]
    for a in (weights, offsets):
        a.flags.writeable = False
    return weights, offsets


@functools.cache
def _stencil_grid(r: int, dim: int) -> np.ndarray:
    """Read-only (dim, (r+1)^dim) integer offsets of every entry of a
    degree-r tensor stencil, in row-major stencil order."""
    grid = np.indices((r + 1,) * dim).reshape(dim, (r + 1) ** dim)
    grid.flags.writeable = False
    return grid


def _stencil_starts(u: np.ndarray, r: int, lo, hi) -> np.ndarray:
    """First index of each query's degree-r stencil along one axis.

    ``u`` is the query in absolute index coordinates.  The stencil is the run
    of r+1 indices nearest u (exact midway ties go to the lower start),
    clipped into [lo, hi], so near the hull it is one-sided.  ``lo`` and
    ``hi`` are integers or arrays that broadcast against ``u``, such as a
    (levels, 1) column of each level's bounds.
    """
    starts = np.ceil(u - r / 2.0 - 0.5).astype(int)
    np.maximum(starts, lo, out=starts)
    np.minimum(starts, hi - r, out=starts)
    return starts


def _stencil_weights(
    local: np.ndarray, r: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Normalized barycentric weights (r+1, q) at ``local`` = u − start.

    The weights are stencil-major, stencil index outermost, so every
    operation on them runs over the queries contiguously and the normalizing
    sum adds the r+1 entries in index order.  A query within
    ``NODE_SNAP_TOL`` of its nearest stencil node is a hit and gets one-hot
    weights.  They are written into ``out``, an (r+1, q) float array, when
    it is given, and into a fresh array otherwise.
    """
    bary, offsets = _stencil_constants(r)
    w = np.subtract(local, offsets, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(bary, w, out=w)
    nearest = np.rint(local)
    hit = np.abs(local - nearest) < NODE_SNAP_TOL
    if np.any(hit):
        w[:, hit] = offsets == nearest[hit]
    w /= _stencil_sum(w, 0)
    return w


def _stencil_sum(
    a: np.ndarray, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """``np.sum(a, axis, out=out)`` over a stencil axis of a stencil-major
    array, adding its entries in index order whatever the number of queries.

    numpy adds a reduced axis that is not its innermost loop one slab at a
    time, in index order, from 0.0.  When only axes of length 1 follow the
    stencil axis (one query, one value per node), the stencil axis becomes
    that loop and numpy sums it pairwise, which rounds differently from nine
    entries up; the slabs are then added one by one, so a one-query block
    gives the bits of the same query in a batch.
    """
    if math.prod(a.shape[axis + 1 :]) != 1:
        return np.sum(a, axis=axis, out=out)
    if out is None:
        out = np.empty(a.shape[:axis] + a.shape[axis + 1 :], a.dtype)
    out[...] = 0.0
    for row in np.moveaxis(a, axis, 0):
        out += row
    return out


def _widen(w: np.ndarray, width: int, role: str) -> np.ndarray:
    """Weights ``w`` of shape (..., q) repeated over a node's ``width``
    values, (..., q, width), so that they multiply a block of values in one
    contiguous loop.  The repeats go into this thread's buffer for ``role``;
    one value per node needs no copy, and gets a (..., q, 1) view of ``w``."""
    if width == 1:
        return w[..., None]
    wide = _scratch(role, w.shape + (width,), w.dtype)
    for v in range(width):
        wide[..., v] = w
    return wide


def _block_rows(r: int, dim: int, width: int) -> int:
    """Queries per block of `interpolate_values` (one at least), such that
    the block's buffers fill at most ``_BLOCK_BYTES``.

    In 1-D a query takes (r+1)·(width + 1) words: its gathered values and
    weights (its one index word is left out, so 1-D blocks keep the size
    they had when the index took r+1 words and shared the weights' buffer).
    From 2-D on it takes its partial sum and one axis-0 offset's gathered
    runs, width·(r+1)^(dim−1) words each, the partial sums of axes
    1..dim−2, its dim·(r+1) weights, (r+1)^(dim−2) run indices and, with
    more than one value per node, one row of repeated weights: 69 words in
    2-D at r = 10 and width 2, where a full gather took 363.
    """
    if dim == 1:
        words = (r + 1) * (width + 1)
    else:
        words = (
            2 * width * (r + 1) ** (dim - 1)
            + sum(width * (r + 1) ** k for k in range(1, dim - 1))
            + dim * (r + 1)
            + (r + 1) ** (dim - 2)
            + (width if width > 1 else 0)
        )
    return max(1, _BLOCK_BYTES // (words * 8))


def interpolate_values(
    lattice: Lattice,
    values: np.ndarray,
    queries: np.ndarray,
    r: int,
    *,
    more: Sequence[tuple[Lattice, np.ndarray]] = (),
) -> np.ndarray:
    """Tensor-product degree-r interpolation of gridded values at many points.

    One call reads one level, ``values`` on ``lattice``, or a group of
    levels: ``more`` holds further (lattice, values) pairs, and row ℓ of
    ``queries`` is read on level ℓ of the call.  The levels must share
    origin, h, dim and the values' trailing shape; each keeps its own hull
    check and its own one-sided stencils.  Queries run in blocks whose
    buffers take at most ``_BLOCK_BYTES`` (one query at least, see
    `_block_rows`): a block holds whole levels when one level's queries
    fit, and otherwise a slice of one level's rows.  Each result depends on
    its own query and level only, and every stencil sum adds in index order
    however many queries a block has, so grouping never changes a bit.  The
    values are staged once per call in a shifted table, (r+1, nodes of all
    levels, values per node), r+1 times their size, whose row o holds each
    node's o-th neighbour along the last axis.  A block's run index,
    weights, gathered runs and partial sums are written into this thread's
    `_scratch` buffers, reused from call to call, so a repeated call of the
    same size allocates nothing block-sized; the result is always a fresh
    array.

    Parameters
    ----------
    values : array of shape `lattice.shape + rest`; any other leading shape
        raises ValueError
    queries : (Q, dim) physical coordinates inside the lattice hull, or
        (levels, Q, dim) with one row per level of the call; a query more
        than ``NODE_SNAP_TOL`` nodes beyond its level's hull, or a NaN one,
        raises OutOfDomain naming the axis, the overhang in nodes and the
        hull, with ``level`` the index of that level in the call.  Near the
        hull the stencil is one-sided over stored nodes.
    more : further (lattice, values) levels, as ``lattice`` and ``values``

    Returns
    -------
    (levels·Q,) + rest array of interpolated values, level-major, in the
    dtype the kernel computes in: ``np.result_type`` of the levels' dtypes
    and float64.
    """
    if r < 0:
        raise ValueError(f"interpolation degree must be >= 0, got {r}")
    levels = [(lattice, values), *more]
    g, dim = len(levels), lattice.dim
    rest = values.shape[dim:]
    for lat, vals in levels:
        if lat.h != lattice.h or lat.origin is not lattice.origin and (
            lat.dim != dim or (lat.origin != lattice.origin).any()
        ):
            raise ValueError("the levels of one call must share origin, h and dim")
        if min(lat.shape) < r + 1:
            raise TooFewNodes(
                f"lattice shape {lat.shape} cannot host a degree-{r} stencil"
            )
        if vals.shape[:dim] != lat.shape:
            raise ValueError(
                f"values of shape {vals.shape} do not match lattice shape {lat.shape}"
            )
        if vals.shape[dim:] != rest:
            raise ValueError(
                f"the levels of one call must share the values' trailing shape, "
                f"got {vals.shape[dim:]} and {rest}"
            )
    queries = np.atleast_2d(np.asarray(queries, float))
    if queries.shape[-1] != dim or not (
        queries.ndim == 3 and queries.shape[0] == g or queries.ndim == 2 and g == 1
    ):
        raise ValueError(f"queries must be ({g}, Q, {dim}), got {queries.shape}")

    # Queries in index coordinates, axis-major, (levels, dim, Q): each
    # axis's coordinates of a level are one contiguous row.
    queries = queries.reshape(g, -1, dim)
    q = queries.shape[1]
    u_all = np.subtract(
        queries.transpose(0, 2, 1), lattice.origin[:, None], out=np.empty((g, dim, q))
    )
    u_all /= lattice.h
    bounds = np.array([lat.lo.tolist() + lat.hi.tolist() for lat, _ in levels])
    lo, hi = bounds[:, :dim], bounds[:, dim:]  # (levels, dim) each
    if q:
        # Rounding is monotone, so lo − min u is the largest lo − u: the
        # per-axis extremes decide the hull test exactly as every query's
        # overhang would.  NaN queries fail here too.
        inside = np.maximum(lo - u_all.min(axis=2), u_all.max(axis=2) - hi) <= NODE_SNAP_TOL
        if not inside.all():
            bad = int(np.argmin(inside.all(axis=1)))
            u = u_all[bad].T
            overhang = np.maximum(lo[bad] - u, u - hi[bad])
            q_bad, ax_bad = np.unravel_index(np.argmax(overhang), overhang.shape)
            low, high = levels[bad][0].bounds
            err = OutOfDomain(
                f"query {queries[bad, q_bad]} lies "
                f"{overhang[q_bad, ax_bad]:.3g} node(s) beyond the lattice hull "
                f"on axis {ax_bad} (hull {low} .. {high})"
                + (f" (level {bad} of the call)" if more else "")
            )
            err.level = bad
            raise err

    # Gather from a shifted table of all levels' values laid end to end:
    # shifted[o, s] holds the values of node s + o of the flat row-major
    # sequence, for o = 0..r, so row o holds every node's o-th last-axis
    # neighbour and a stencil's whole last-axis run is one index s.  A
    # node's values stay adjacent, so each index copies all of them at once.
    # The zero padding past the last node is never read: stencils stay
    # inside their own level.  The index of a run is Σ_ax start_ax·stride_ax
    # plus the offsets of axes 1..dim−2 and the level's corner, its first
    # node less Σ_ax lo_ax·stride_ax; the offsets' part and the corner form
    # a fixed table, shape (r+1,)*(dim−2) + (levels, 1), and each level's
    # lo, hi and strides broadcast as (levels, 1) columns, so a block of
    # several levels writes its index in one pass.  The hull test has passed
    # and the starts are clamped into [lo, hi − r] of their own level, so
    # every index is in range and the take may skip its own check
    # (mode="clip"), which also lets it write into the buffer without a copy.
    #
    # In 1-D one take gathers the block, (r+1, q, values).  From 2-D on, the
    # loop over the axis-0 offsets gathers that offset's runs, weights them
    # and adds them to a partial sum from 0.0, as np.sum does: the products
    # and the order of every sum are those of weighting a full (r+1)^dim
    # gather and summing it axis by axis, and so is every bit of the result.
    # The partial sum is laid out (r+1 of the last axis) + (r+1 of axes
    # 1..dim−2) + (q, values); axes 1..dim−2 then reduce in order and the
    # last axis last, straight into the block's rows of the result.  Weights
    # are repeated over a node's values (`_widen`), so every multiply and
    # sum runs over contiguous slabs of queries.
    width = math.prod(rest)
    dtype = np.result_type(*(vals.dtype for _, vals in levels), np.float64)
    total = sum(lat.num_nodes for lat, _ in levels)
    shifted = np.empty((r + 1, total, width), dtype=dtype)
    strides, corners, first = [], [], 0
    for (lat, vals), low in zip(levels, lo.tolist()):
        stride = [math.prod(lat.shape[ax + 1 :]) for ax in range(dim)]
        strides.append(stride)
        corners.append(first - sum(map(operator.mul, low, stride)))
        size = lat.num_nodes
        shifted[0, first : first + size] = vals.reshape(size, width)
        first += size
    for o in range(1, r + 1):
        shifted[o, : total - o] = shifted[0, o:]
        shifted[o, total - o :] = 0
    strides = np.array(strides)
    lead = (r + 1,) * max(dim - 2, 0)
    table = ((strides[:, 1:-1] @ _stencil_grid(r, len(lead))).T + corners).reshape(lead + (g, 1))
    out = np.empty((g * q, width), dtype=dtype)
    rows = _block_rows(r, dim, width)
    if q <= rows:
        step = rows // max(q, 1)
        blocks = [(ell, min(ell + step, g), 0, q) for ell in range(0, g, step)]
    else:
        blocks = [(ell, ell + 1, b, min(b + rows, q)) for ell in range(g) for b in range(0, q, rows)]
    for l0, l1, b0, b1 in blocks:
        u = u_all[l0:l1, :, b0:b1]
        n = (l1 - l0) * (b1 - b0)
        starts = [
            _stencil_starts(u[:, ax], r, lo[l0:l1, ax, None], hi[l0:l1, ax, None])
            for ax in range(dim)
        ]
        base = starts[-1]
        for ax in range(dim - 1):
            base = base + starts[ax] * strides[l0:l1, ax, None]
        node = np.add(table[..., l0:l1, :], base, out=_scratch("node", lead + base.shape, np.intp))
        index = node.reshape(lead + (n,))
        weights = _scratch("weights", (dim, r + 1, n), float)
        for ax in range(dim):
            _stencil_weights((u[:, ax] - starts[ax]).reshape(n), r, out=weights[ax])
        block = _scratch("block", (r + 1,) + index.shape + (width,), dtype)
        if dim == 1:
            np.take(shifted, index, axis=1, out=block, mode="clip")
        else:
            run = _scratch("run", block.shape, dtype)
            block.fill(0.0)
            for w in weights[0]:
                np.take(shifted, index, axis=1, out=run, mode="clip")
                run *= _widen(w, width, "row")
                block += run
                node += strides[l0:l1, 0, None]
        # Axes 1..dim−2 lie at position 1 of the block, the last axis at 0.
        # The spent runs' buffer takes their repeated weights; 1-D blocks,
        # which have no such buffer, broadcast them instead.
        for ax in range(1 if dim > 1 else 0, dim):
            pos = 0 if ax == dim - 1 else 1
            w = _widen(weights[ax], width, "run") if dim > 1 else weights[ax][..., None]
            block *= w.reshape(w.shape[:1] + (1,) * (block.ndim - pos - 3) + w.shape[1:])
            sums = (
                out[l0 * q + b0 : l0 * q + b0 + n] if ax == dim - 1
                else _scratch(f"sums{ax}", block.shape[:pos] + block.shape[pos + 1 :], dtype)
            )
            block = _stencil_sum(block, pos, sums)
    return out.reshape(out.shape[:1] + rest)
