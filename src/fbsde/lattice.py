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

The kernel is stencil-major: stencil weights, gather indices and gathered
values are laid out with the stencil index outermost and the queries
innermost, (r+1,)*dim + (queries,) + value shape.  Every array operation then
runs over many queries contiguously rather than over one short stencil row
at a time, and each sum over a stencil's r+1 entries adds them in index
order, one contiguous slab of queries per entry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

MAX_NODES = 100_000_000

#: Bytes of stencil values and node indices that one block of queries in
#: `interpolate_values` gathers; memory stays flat however many queries come.
#: `fbsde.stepper.conditional_expectations` groups its spans' quadrature
#: terms by the same budget.
_BLOCK_BYTES = 2 * 2**20

#: Queries within this fraction of h of a node snap to the stored value, and
#: within this fraction of h outside the hull still count as inside it.
NODE_SNAP_TOL = 1e-9


class TooManyNodes(ValueError):
    """Raised when a requested lattice would exceed the node-count cap."""


class TooFewNodes(ValueError):
    """Raised when a lattice cannot host a single degree-r stencil."""


class OutOfDomain(ValueError):
    """Raised when a query lies outside the lattice hull."""


@dataclass(frozen=True)
class Lattice:
    """Uniform lattice: node(i) = origin + i·h, lo ≤ i ≤ hi (per axis).

    More than ``MAX_NODES`` nodes raise TooManyNodes; only the shape is built.
    """

    origin: np.ndarray
    h: float
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.atleast_1d(np.asarray(self.origin, float)))
        object.__setattr__(self, "lo", np.atleast_1d(np.asarray(self.lo, int)))
        object.__setattr__(self, "hi", np.atleast_1d(np.asarray(self.hi, int)))
        if self.h <= 0:
            raise ValueError(f"spacing h must be positive, got {self.h}")
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
    def shape(self) -> tuple[int, ...]:
        return tuple(int(n) for n in (self.hi - self.lo + 1))

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

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
    if h <= 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    rad = np.full(origin.shape, radius, dtype=float)
    if np.any(rad < 0):
        raise ValueError("radius must be non-negative")
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

    ``y`` has shape `lattice.shape + (m,)`; ``z`` has `lattice.shape + (m, d)`.
    """

    lattice: Lattice
    t: float
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self) -> None:
        shape = self.lattice.shape
        if self.y.shape[:-1] != shape or self.y.ndim != len(shape) + 1:
            raise ValueError(f"y shape {self.y.shape} does not match lattice {shape} + (m,)")
        if self.z.shape[:-2] != shape or self.z.ndim != len(shape) + 2:
            raise ValueError(f"z shape {self.z.shape} does not match lattice {shape} + (m, d)")

    @property
    def m(self) -> int:
        return self.y.shape[-1]

    @property
    def d(self) -> int:
        return self.z.shape[-1]


@functools.cache
def _stencil_constants(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only barycentric weights (-1)^i·C(r, i), float offsets 0..r and
    integer offsets 0..r, each an (r+1, 1) column for the stencil-major layout."""
    weights = np.array([[(-1) ** i * math.comb(r, i)] for i in range(r + 1)], dtype=float)
    offsets = np.arange(r + 1)[:, None]
    float_offsets = offsets.astype(float)
    for a in (weights, float_offsets, offsets):
        a.flags.writeable = False
    return weights, float_offsets, offsets


def _axis_stencil(u: np.ndarray, r: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Stencil starts (q,) and normalized barycentric weights (r+1, q) along one axis.

    ``u`` is the query in absolute index coordinates.  The stencil is the run
    of r+1 indices nearest u (exact midway ties go to the lower start),
    clipped into [lo, hi], so near the hull it is one-sided.  The weights are
    stencil-major, stencil index outermost, so every operation on them runs
    over the queries contiguously and the normalizing sum adds the r+1
    entries in index order.  A query within ``NODE_SNAP_TOL`` of its nearest
    stencil node is a hit and gets one-hot weights.
    """
    bary, offsets, _ = _stencil_constants(r)
    starts = np.ceil(u - r / 2.0 - 0.5).astype(int)
    np.maximum(starts, lo, out=starts)
    np.minimum(starts, hi - r, out=starts)
    local = u - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        w = bary / (local - offsets)
    nearest = np.rint(local)
    hit = np.abs(local - nearest) < NODE_SNAP_TOL
    if np.any(hit):
        w[:, hit] = offsets == nearest[hit]
    w /= np.sum(w, axis=0)
    return starts, w


def interpolate_values(
    lattice: Lattice,
    values: np.ndarray,
    queries: np.ndarray,
    r: int,
) -> np.ndarray:
    """Tensor-product degree-r interpolation of gridded values at many points.

    Queries run in blocks whose gather takes at most ``_BLOCK_BYTES`` (one
    query at least); each result depends on its own query only.

    Parameters
    ----------
    values : array of shape `lattice.shape + rest`
    queries : (Q, dim) physical coordinates inside the lattice hull; a query
        more than ``NODE_SNAP_TOL`` nodes beyond it, or a NaN one, raises
        OutOfDomain naming the axis and the overhang in nodes.  Near the
        hull the stencil is one-sided over stored nodes.

    Returns
    -------
    (Q,) + rest array of interpolated values.
    """
    if r < 0:
        raise ValueError(f"interpolation degree must be >= 0, got {r}")
    if any(n < r + 1 for n in lattice.shape):
        raise TooFewNodes(
            f"lattice shape {lattice.shape} cannot host a degree-{r} stencil"
        )
    queries = np.atleast_2d(np.asarray(queries, float))
    if queries.shape[1] != lattice.dim:
        raise ValueError(f"queries must be (Q, {lattice.dim}), got {queries.shape}")

    u_all = (queries - lattice.origin) / lattice.h
    overhang = np.maximum(lattice.lo - u_all, u_all - lattice.hi)
    if not np.all(overhang <= NODE_SNAP_TOL):  # NaN queries fail here too
        q_bad, ax_bad = np.unravel_index(np.argmax(overhang), overhang.shape)
        raise OutOfDomain(
            f"query {queries[q_bad]} lies {overhang[q_bad, ax_bad]:.3g} node(s) "
            f"beyond the lattice hull on axis {ax_bad} "
            f"(hull {lattice.bounds[0]} .. {lattice.bounds[1]})"
        )

    rest = values.shape[lattice.dim :]
    out = np.empty((u_all.shape[0],) + rest, dtype=values.dtype)
    dim = lattice.dim
    # Gather through one row-major node index into the flattened grid: a
    # single-index take is several times faster than a per-axis fancy index,
    # and the gathered block is then weighted in place.  The arithmetic, and
    # so every bit of the result, is the same as weighting a fresh copy.
    # Index, block and weights are stencil-major, shape (r+1,)*dim + (q,) +
    # rest, so each axis's weighted sum adds contiguous slabs in index order.
    flat = values.reshape((-1,) + rest)
    dtype = np.result_type(values.dtype, np.float64)
    offsets = _stencil_constants(r)[2]
    per_query = (r + 1) ** dim * (math.prod(rest) + 1) * 8
    rows = max(1, _BLOCK_BYTES // per_query)
    tail = (1,) * len(rest)
    for begin in range(0, u_all.shape[0], rows):
        u = u_all[begin : begin + rows]
        q = u.shape[0]
        node = np.zeros((1,) * dim + (q,), dtype=np.intp)
        weights = []
        for ax in range(dim):
            starts, w = _axis_stencil(u[:, ax], r, int(lattice.lo[ax]), int(lattice.hi[ax]))
            shape = [1] * dim + [q]
            shape[ax] = r + 1
            node = node * lattice.shape[ax] + (
                starts - int(lattice.lo[ax]) + offsets
            ).reshape(shape)
            weights.append(w.reshape((r + 1,) + (1,) * (dim - 1 - ax) + (q,) + tail))
        block = np.take(flat, node, axis=0).astype(dtype, copy=False)
        for w in weights:
            block *= w
            block = np.sum(block, axis=0)
        out[begin : begin + rows] = block
    return out
