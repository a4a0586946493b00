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
node's r+1 last-axis neighbours, so one index gathers a stencil's r+1 nodes
along the last axis, every value of each node at once.  In 1-D those are
the stencil; from 2-D on the kernel loops over the axis-0 offsets, weights
each offset's gathered nodes and adds them up before the other axes reduce,
so no (r+1)^dim-entry block or index per query is ever built, and every
product and sum is that of weighting a full tensor gather axis by axis.

From 2-D on, the work on the leading axes, all but the last, is shared.
Consecutive queries of one level with equal leading coordinates form a run,
which is weighted on its leading axes once rather than once per query, over
the last-axis nodes its stencils read (sum factorization; Orszag, J. Comput.
Phys. 37, 1980); each query then reads its r+1 partial sums and weights the
last axis.  Equal coordinates give equal stencil starts and weights, and no
sum changes order, so every result is the one a query alone would give, to
the bit.  A query that differs from its neighbours on a leading axis is a
run of one, read as it was before runs were shared.  The Euler points of a
window come in runs of one window row wherever the forward coefficients
read only their own axis, as example3's do.

One call may read several levels of the same grid (shared origin, h and
dim), each at its own queries: their values are laid end to end and each
level's node index is offset by its first node, while each keeps its own
hull check and one-sided stencils.  A one-level call is the group of one.
Many small reads then cost one call's fixed overhead instead of one each,
and every result is the one a call per level would give, to the bit.

The kernel's block-sized arrays (index coordinates, node index, stencil
weights, gathered values, partial sums, run columns and repeated weights)
live in a per-thread workspace that is kept between calls, so a solve does
not allocate, and have the kernel zero-fill, the same pages again for every
block; a quadrature pass forms its terms in one of them once the kernel has
returned.  The shifted table, r+1 times the levels' values, is built per call.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hermite import _integer

MAX_NODES = 100_000_000

#: Bytes of the buffers that one block of queries in `interpolate_values`
#: holds; memory stays flat however many queries come.
#: `fbsde.stepper.conditional_expectations` reads its spans in groups that
#: fit the same budget, their terms, values read and points counted.  Both
#: take their buffers from `_scratch`, and a buffer is shared only by phases
#: that are never live together: a group's terms are formed in the kernel's
#: ``_TERMS_ROLE`` buffer once its read has returned.  A thread so keeps about
#: one budget of buffers, at the largest budget used so far.
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

    A non-finite origin, non-integer bounds or fields of different lengths
    raise ValueError naming the field.  More than ``MAX_NODES`` nodes raise
    TooManyNodes; only the shape is built.
    """

    origin: np.ndarray
    h: float
    lo: np.ndarray
    hi: np.ndarray
    #: Nodes per axis, hi − lo + 1, computed once from ``lo`` and ``hi``.
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.atleast_1d(np.asarray(self.origin, float)))
        for name in ("lo", "hi"):
            bound = np.atleast_1d(np.asarray(getattr(self, name)))
            whole = bound.dtype.kind in "iuf" and np.isfinite(bound).all()
            if not whole or (np.round(bound) != bound).any():
                raise ValueError(f"{name} must hold integers, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bound.astype(int))
        if not self.origin.shape == self.lo.shape == self.hi.shape == (self.dim,):
            raise ValueError(f"origin, lo and hi differ in length: {self.origin} {self.lo} {self.hi}")
        if not np.isfinite(self.origin).all():
            raise ValueError(f"origin must be finite, got {self.origin}")
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
        if self.dim == 1:
            return self.axis_coords(0)[:, None]
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


#: The role whose buffer `fbsde.stepper.conditional_expectations` forms a
#: quadrature group's terms in: the kernel's gathered values, one of its
#: largest buffers, which no one reads once `interpolate_values` has
#: returned.
_TERMS_ROLE = "block"


def _scratch(role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """A C-contiguous (shape, dtype) view of this thread's buffer for ``role``.

    The roles are named in this module.  A block of `interpolate_values`
    takes ``u`` (its queries in index coordinates), ``weights`` (last-axis
    stencil weights), ``node`` (node index) and ``block`` (gathered values
    and partial sums), and from 2-D on ``lead``, ``run``, ``row`` and
    ``sums1``, ``sums2``, … in `_run_partials`; a quadrature pass takes ``_TERMS_ROLE``
    for its terms once the kernel has returned.  A buffer is shared only by
    phases that are never live together.  Each buffer is kept between calls
    and only grows, so a hot loop that asks for the same sizes again
    allocates nothing.  Callers ask for at most one block's worth per role,
    so the workspace holds about one block's buffers at the largest
    ``_BLOCK_BYTES`` in use.  The view's contents are undefined, and the
    next request for ``role`` on this thread overwrites them, so no result
    that outlives a call may be a view of it.
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

    A query takes its dim index coordinates and, in 1-D, (r+1)·(width + 1)
    words: its gathered values and weights (its one index word is left out,
    as it was when it shared the weights' buffer).  From 2-D on it takes its
    partial sum and one axis-0 offset's gathered values, width·(r+1)^(dim−1)
    words each, the partial sums of axes 1..dim−2, its dim·(r+1) weights,
    (r+1)^(dim−2) node indices and, with more than one value per node, one
    row of repeated weights: 69 words and 2 coordinates in 2-D at r = 10 and
    width 2, where a full gather took 363 words.  That counts every query as
    a run of one (`_runs`).  A run of several is weighted over no more slots
    than it has queries, and what it adds fits in space that its slots leave
    free: its columns, at most r+1 per slot, go into the buffer of the
    gathered values, their source rows into that of the leading axes'
    weights, and each query's r+1 gathered partial sums into that of the
    partial sums.
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
    return max(1, _BLOCK_BYTES // ((dim + words) * 8))


def _runs(
    lead: np.ndarray, last: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The runs of a block's queries, whose leading-axes work is shared.

    ``lead`` holds the queries' coordinates on every axis but the last,
    (levels, dim−1, q), and ``last`` their last-axis stencil starts,
    (levels, q).  A run is a stretch of one level's consecutive queries
    with equal leading coordinates whose starts move by at most r+1 from
    one query to the next, so its columns, the last-axis nodes its stencils
    read, number at most r+1 per query.  Returns each run's first query, a
    flat index into the block, and its smallest and largest start, or None
    when every query is a run of one.
    """
    head = np.empty(last.shape, bool)
    head[:, 0] = True
    np.not_equal(lead[:, 0, 1:], lead[:, 0, :-1], out=head[:, 1:])
    for ax in range(1, lead.shape[1]):
        head[:, 1:] |= lead[:, ax, 1:] != lead[:, ax, :-1]
    if head.all():
        return None
    head[:, 1:] |= np.abs(np.diff(last, axis=1)) > r + 1
    first = np.flatnonzero(head)
    last = last.reshape(-1)
    return first, np.minimum.reduceat(last, first), np.maximum.reduceat(last, first)


def _run_partials(shifted, table, strides, lo, hi, u, last, l0, r, width) -> np.ndarray:
    """A block's sums over every axis but the last, (r+1, q, width): row o
    of query i is its stencil's weighted sum over the leading axes at its
    o-th last-axis node.  ``u`` holds the block's queries in index
    coordinates, (levels from l0, dim, q), and ``last`` their last-axis
    stencil starts, (levels, q).

    Each run of `_runs` is weighted on the leading axes once, over slots:
    stencils of r+1 consecutive columns (last-axis nodes) that cover the
    run's columns, each r+1 after the one before, the last clamped to end
    at the run's last column, so that every slot is a stencil some query of
    the run could have.  The loop over the axis-0 offsets gathers each
    slot's nodes at that offset, weights them and adds them to a partial sum
    from 0.0, as np.sum does; axes 1..dim−2 then reduce in order.  These are
    the products, summed in the same order, of weighting a query's full
    (r+1)^dim gather axis by axis.  A run of one query is one slot, its own
    stencil, so a block of such runs has its sums in place.  Otherwise each
    run's columns are laid out one after another and every query reads its
    r+1 from there.
    """
    levels, nb = last.shape
    n, dim, lead = levels * nb, u.shape[1], table.shape[:-1]
    runs = _runs(u[:, :-1], last, r)
    if runs is None:
        count, col, head = n, last.reshape(n), None
    else:
        # 1 + ⌈(cmax − cmin)/(r+1)⌉ slots cover a run's cmax − cmin + r + 1
        # columns; ``col`` is each slot's first column, ``head`` its run's
        # first query.
        first, cmin, cmax = runs
        slots = (cmax - cmin + r) // (r + 1) + 1
        count = int(slots.sum())
        col = np.arange(count) - np.repeat(np.cumsum(slots) - slots, slots)
        col *= r + 1
        col += np.repeat(cmin, slots)
        np.minimum(col, np.repeat(cmax, slots), out=col)
        head = np.repeat(first, slots)
    # A one-level block takes its level's bounds and strides as (1,) rows.
    if levels == 1:
        lev = slice(l0, l0 + 1)
    else:
        lev = l0 + (np.arange(n) if head is None else head) // nb
    coords = u.transpose(1, 0, 2).reshape(dim, n)[:-1]
    if head is not None:
        coords = coords[:, head]
    starts = [_stencil_starts(coords[ax], r, lo[lev, ax], hi[lev, ax]) for ax in range(dim - 1)]
    base = col
    for ax, s in enumerate(starts):
        base = base + s * strides[lev, ax]
    node = np.add(table[..., lev], base, out=_scratch("node", lead + (count,), np.intp))
    weights = _scratch("lead", (dim - 1, r + 1, count), float)
    for ax, s in enumerate(starts):
        _stencil_weights(coords[ax] - s, r, out=weights[ax])
    block = _scratch("block", (r + 1,) + lead + (count, width), shifted.dtype)
    gathered = _scratch("run", block.shape, shifted.dtype)
    block.fill(0.0)
    step = strides[lev, 0]
    for w in weights[0]:
        np.take(shifted, node, axis=1, out=gathered, mode="clip")
        gathered *= _widen(w, width, "row")
        block += gathered
        node += step
    # Axes 1..dim−2 lie at position 1 of the block; the spent gathered
    # values' buffer takes their repeated weights.
    for ax in range(1, dim - 1):
        w = _widen(weights[ax], width, "run")
        block *= w.reshape(w.shape[:1] + (1,) * (block.ndim - 4) + w.shape[1:])
        sums = _scratch(f"sums{ax}", block.shape[:1] + block.shape[2:], shifted.dtype)
        block = _stencil_sum(block, 1, sums)
    if runs is None:
        return block
    # Column c of a run is row c + shift of ``columns``, gathered from a
    # row of ``block`` that holds it; a clamped slot holds some columns of
    # its run twice, with the same bits.
    span = cmax - cmin + r + 1
    shift = np.cumsum(span) - span - cmin
    source = _scratch("lead", (int(span.sum()),), np.intp)
    at, row = col + np.repeat(shift, slots), np.arange(count)
    for _ in range(r + 1):
        source[at] = row
        at += 1
        row += count
    columns = _scratch("run", source.shape + (width,), shifted.dtype)
    np.take(block.reshape(-1, width), source, axis=0, out=columns, mode="clip")
    at = last.reshape(n) + np.repeat(shift, np.diff(first, append=n))
    block = _scratch("block", (r + 1, n, width), shifted.dtype)
    for row in block:
        np.take(columns, at, axis=0, out=row, mode="clip")
        at += 1
    return block


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
    however many queries a block has, so grouping never changes a bit.
    From 2-D on, each run of a block's consecutive queries on one level
    that share every coordinate but the last is weighted on those leading
    axes once, not once per query (`_runs`, `_run_partials`), with the same
    bits: queries ordered with the last axis varying fastest, as
    `fbsde.stepper.conditional_expectations` orders a window's Euler points,
    cost less, and no order changes a result.  The values are staged once
    per call in a shifted table, (r+1, nodes of all levels, values per
    node), r+1 times their size, whose row o holds each node's o-th
    neighbour along the last axis.  Each block converts its own queries
    into index coordinates and checks them against their levels' hulls
    before it reads; those coordinates, its node index, weights, gathered
    values, partial sums and run columns go into this thread's `_scratch`
    buffers, reused from call to call, so a repeated call of the same size
    allocates nothing block-sized; the result is always a fresh array.

    Parameters
    ----------
    values : array of shape `lattice.shape + rest`; any other leading shape
        raises ValueError
    queries : (Q, dim) physical coordinates inside the lattice hull, or
        (levels, Q, dim) with one row per level of the call; a query more
        than ``NODE_SNAP_TOL`` nodes beyond its level's hull, or a NaN one,
        raises OutOfDomain naming the axis, the overhang in nodes and the
        hull of the worst query in its level's first failing block, with
        ``level`` the index of that level in the call.  Near the hull the
        stencil is one-sided over stored nodes.
    r : integer degree ≥ 0; a bool or other non-integer raises TypeError
    more : further (lattice, values) levels, as ``lattice`` and ``values``

    Returns
    -------
    (levels·Q,) + rest array of interpolated values, level-major, in the
    dtype the kernel computes in: ``np.result_type`` of the levels' dtypes
    and float64.
    """
    r = _integer("r", r)
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
            raise TooFewNodes(f"lattice shape {lat.shape} cannot host a degree-{r} stencil")
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

    queries = queries.reshape(g, -1, dim)
    q = queries.shape[1]
    bounds = np.array([lat.lo.tolist() + lat.hi.tolist() for lat, _ in levels])
    lo, hi = bounds[:, :dim], bounds[:, dim:]  # (levels, dim) each

    # Gather from a shifted table of all levels' values laid end to end:
    # shifted[o, s] holds the values of node s + o of the flat row-major
    # sequence, for o = 0..r, so row o holds every node's o-th last-axis
    # neighbour and a stencil's r+1 last-axis nodes are one index s.  A
    # node's values stay adjacent, so each index copies all of them at once.
    # The zero padding past the last node is never read: stencils stay
    # inside their own level.  The index is Σ_ax start_ax·stride_ax plus the
    # offsets of axes 1..dim−2 and the level's corner, its first node less
    # Σ_ax lo_ax·stride_ax; the offsets' part and the corner form a fixed
    # table, shape (r+1,)*(dim−2) + (levels,).  A block reads only once its
    # hull test has passed, and the starts are clamped into [lo, hi − r] of
    # their own level, so every index is in range and the take may skip its
    # own check (mode="clip"), which also lets it write into the buffer
    # without a copy.
    #
    # In 1-D one take gathers the block, (r+1, q, values), each level's lo,
    # hi and corner broadcasting as a (levels, 1) column.  From 2-D on,
    # `_run_partials` sums each query's stencil over the leading axes, once
    # per run, into the same (r+1, q, values) layout.  The last axis then
    # reduces straight into the block's rows of the result, its weights
    # repeated over a node's values (`_widen`), so that every multiply and
    # sum runs over contiguous slabs of queries.
    width = math.prod(rest)
    dtype = np.result_type(*(vals.dtype for _, vals in levels), np.float64)
    total = sum(lat.num_nodes for lat, _ in levels)
    padded = np.empty((total + r, width), dtype=dtype)
    strides, corners, first = [], [], 0
    for (lat, vals), low in zip(levels, lo.tolist()):
        stride = [math.prod(lat.shape[ax + 1 :]) for ax in range(dim)]
        strides.append(stride)
        corners.append(first - sum(map(operator.mul, low, stride)))
        size = lat.num_nodes
        padded[first : first + size] = vals.reshape(size, width)
        first += size
    padded[total:] = 0
    # Row o is ``padded`` from node o on: one strided copy fills every row.
    shifted = np.lib.stride_tricks.as_strided(
        padded, (r + 1, total, width), padded.strides[:1] + padded.strides, writeable=False
    ).copy()
    strides = np.array(strides)
    lead = (r + 1,) * max(dim - 2, 0)
    table = ((strides[:, 1:-1] @ _stencil_grid(r, len(lead))).T + corners).reshape(lead + (g,))
    out = np.empty((g * q, width), dtype=dtype)
    rows = _block_rows(r, dim, width)
    step = max(1, rows // max(q, 1))  # whole levels when one level fits
    blocks = [(ell, min(ell + step, g), b, min(b + rows, q))
              for ell in range(0, g, step) for b in range(0, q, rows)]
    for l0, l1, b0, b1 in blocks:
        # The block's queries in index coordinates, axis-major, (levels, dim,
        # queries): each axis's coordinates of a level are one contiguous row.
        n = (l1 - l0) * (b1 - b0)
        u = _scratch("u", (l1 - l0, dim, b1 - b0), float)
        np.subtract(queries[l0:l1, b0:b1].transpose(0, 2, 1), lattice.origin[:, None], out=u)
        u /= lattice.h
        # Rounding is monotone, so lo − min u is the largest lo − u: the
        # per-axis extremes decide the hull test exactly as every query's
        # overhang would.  NaN queries fail here too.
        inside = np.maximum(lo[l0:l1] - u.min(axis=2), u.max(axis=2) - hi[l0:l1]) <= NODE_SNAP_TOL
        if not inside.all():
            ell = l0 + int(np.argmin(inside.all(axis=1)))
            v = u[ell - l0].T
            overhang = np.maximum(lo[ell] - v, v - hi[ell])
            q_bad, ax_bad = np.unravel_index(np.argmax(overhang), overhang.shape)
            low, high = levels[ell][0].bounds
            err = OutOfDomain(
                f"query {queries[ell, b0 + q_bad]} lies "
                f"{overhang[q_bad, ax_bad]:.3g} node(s) beyond the lattice hull "
                f"on axis {ax_bad} (hull {low} .. {high})"
                + (f" (level {ell} of the call)" if more else "")
            )
            err.level = ell
            raise err
        last = _stencil_starts(u[:, -1], r, lo[l0:l1, -1, None], hi[l0:l1, -1, None])
        weights = _stencil_weights(
            (u[:, -1] - last).reshape(n), r, out=_scratch("weights", (r + 1, n), float)
        )
        if dim == 1:
            node = np.add(table[l0:l1, None], last, out=_scratch("node", last.shape, np.intp))
            block = _scratch("block", (r + 1, n, width), dtype)
            np.take(shifted, node.reshape(n), axis=1, out=block, mode="clip")
            block *= weights[..., None]
        else:
            block = _run_partials(shifted, table, strides, lo, hi, u, last, l0, r, width)
            block *= _widen(weights, width, "run")
        _stencil_sum(block, 0, out[l0 * q + b0 : l0 * q + b0 + n])
    return out.reshape(out.shape[:1] + rest)
