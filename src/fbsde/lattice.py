"""Uniform spatial lattices and local tensor-product Lagrange interpolation.

A lattice stores nodes x_i = origin + i·h for integer multi-indices i between
``lo`` and ``hi`` (inclusive, per axis).  Values living on the lattice are
interpolated with degree-r Lagrange polynomials on the r+1 nodes nearest the
query along each axis; near the boundary the stencil shifts inward, so it
always interpolates (a centered-but-outside stencil is never used).  The
evaluation uses the second barycentric formula with the exact uniform-grid
weights (-1)^i·C(r, i), which reproduces polynomials of degree ≤ r up to
rounding and returns stored values bit-exactly when the query hits a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_NODES = 100_000_000

#: Queries within this fraction of h of a node snap to the stored value.
NODE_SNAP_TOL = 1e-9


class TooManyNodes(ValueError):
    """Raised when a requested lattice would exceed the node-count cap."""


class TooFewNodes(ValueError):
    """Raised when a lattice cannot host a single degree-r stencil."""


class OutOfDomain(ValueError):
    """Raised when a query lies beyond the lattice hull by more than h/2."""


@dataclass(frozen=True)
class Lattice:
    """Uniform lattice: node(i) = origin + i·h, lo ≤ i ≤ hi (per axis)."""

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


def build_lattice(
    center,
    h: float,
    radius,
    r: int | None = None,
    max_nodes: int = MAX_NODES,
) -> Lattice:
    """Lattice centered on `center` covering at least ±radius per axis.

    Bounds are rounded outward, so the hull always contains center ± radius and
    `center` itself is the index-0 node.  `radius` may be a scalar or per-axis
    sequence.  With `r` given, the build fails early (TooFewNodes) if a degree-r
    stencil would not fit.
    """
    origin = np.atleast_1d(np.asarray(center, float))
    if h <= 0:
        raise ValueError(f"spacing h must be positive, got {h}")
    rad = np.broadcast_to(np.asarray(radius, float), origin.shape)
    if np.any(rad < 0):
        raise ValueError("radius must be non-negative")
    half = np.array([int(math.ceil(v / h - 1e-12)) for v in rad])
    lat = Lattice(origin=origin, h=float(h), lo=-half, hi=half)
    if lat.num_nodes > max_nodes:
        raise TooManyNodes(
            f"lattice would hold {lat.num_nodes} nodes (> {max_nodes}); "
            f"shape {lat.shape}"
        )
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


def _binomial_weights(r: int) -> np.ndarray:
    return np.array([(-1) ** i * math.comb(r, i) for i in range(r + 1)], dtype=float)


def _axis_stencil(u: np.ndarray, r: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Stencil starts and normalized barycentric weights along one axis.

    ``u`` is the query in absolute index coordinates.  The stencil is the run
    of r+1 indices nearest u, clipped into [lo, hi]; exact midway ties go to
    the lower start.  Node-coincident queries return one-hot weights.
    """
    starts = np.ceil(u - r / 2.0 - 0.5).astype(int)
    np.clip(starts, lo, hi - r, out=starts)
    local = u - starts
    dist = local[:, None] - np.arange(r + 1)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = _binomial_weights(r) / dist
    hits = np.abs(dist) < NODE_SNAP_TOL
    hit_rows = hits.any(axis=1)
    if np.any(hit_rows):
        w[hit_rows] = hits[hit_rows].astype(float)
    w /= np.sum(w, axis=1, keepdims=True)
    return starts, w


def interpolate_values(
    lattice: Lattice,
    values: np.ndarray,
    queries: np.ndarray,
    r: int,
    chunk: int = 32768,
) -> np.ndarray:
    """Tensor-product degree-r interpolation of gridded values at many points.

    Parameters
    ----------
    values : array of shape `lattice.shape + rest`
    queries : (Q, dim) physical coordinates; a query beyond the lattice hull
        by more than h/2 raises OutOfDomain

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
    beyond = (u_all < lattice.lo - 0.5 - NODE_SNAP_TOL) | (
        u_all > lattice.hi + 0.5 + NODE_SNAP_TOL
    )
    if np.any(beyond):
        q_bad, ax_bad = np.argwhere(beyond)[0]
        raise OutOfDomain(
            f"query {queries[q_bad]} lies beyond the lattice hull by more "
            f"than h/2 on axis {ax_bad} (hull {lattice.bounds[0]} .. {lattice.bounds[1]})"
        )

    rest = values.shape[lattice.dim :]
    out = np.empty((u_all.shape[0],) + rest, dtype=values.dtype)
    dim = lattice.dim
    # Gather through one row-major node index into the flattened grid: a
    # single-index take is several times faster than a per-axis fancy index,
    # and the gathered block is then weighted in place.  The arithmetic, and
    # so every bit of the result, is the same as weighting a fresh copy.
    flat = values.reshape((-1,) + rest)
    dtype = np.result_type(values.dtype, np.float64)
    for begin in range(0, u_all.shape[0], chunk):
        u = u_all[begin : begin + chunk]
        q = u.shape[0]
        node = np.zeros((q,) + (1,) * dim, dtype=np.intp)
        weights = []
        for ax in range(dim):
            starts, w = _axis_stencil(u[:, ax], r, int(lattice.lo[ax]), int(lattice.hi[ax]))
            shape = [q] + [1] * dim
            shape[1 + ax] = r + 1
            node = node * lattice.shape[ax] + (
                starts[:, None] - int(lattice.lo[ax]) + np.arange(r + 1)
            ).reshape(shape)
            weights.append(w)
        block = np.take(flat, node, axis=0).astype(dtype, copy=False)
        for ax in range(dim):
            wshape = (q, r + 1) + (1,) * (block.ndim - 2)
            block *= weights[ax].reshape(wshape)
            block = np.sum(block, axis=1)
        out[begin : begin + chunk] = block
    return out


def interpolate(level: ValueLevel, query, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate one level's (y, z) fields at a single query point.

    Returns (y, z) with shapes (m,) and (m, d).  Raises OutOfDomain if the
    query lies beyond the lattice hull by more than h/2.
    """
    point = np.atleast_1d(np.asarray(query, float)).reshape(1, -1)
    y = interpolate_values(level.lattice, level.y, point, r)[0]
    z = interpolate_values(level.lattice, level.z, point, r)[0]
    return y, z
