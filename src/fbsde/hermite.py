"""Gauss–Hermite quadrature (weight e^{-x²}) and Gaussian expectations.

Nodes and weights come from the Golub–Welsch symmetric-tridiagonal eigenproblem
(off-diagonals √(i/2)), followed by one Newton polish step on the orthonormal
Hermite recurrence and a Christoffel-function weight recompute.  The orthonormal
recurrence keeps every intermediate O(1), so rules up to L = 64 stay well inside
float64 range.

For a standard normal X in n dimensions,

    E[g(X)] = π^{-n/2} Σ_q ω_q g(√2 · a_q)

with (a_q, ω_q) running over the tensor-product rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_POINTS = 64


@dataclass(frozen=True)
class QuadratureRule1D:
    """One-dimensional Gauss–Hermite rule: ∫ e^{-x²} p(x) dx ≈ Σ ω_i p(a_i)."""

    npoints: int
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class TensorRule:
    """Tensor product of identical 1-D rules over n axes."""

    dim: int
    base: QuadratureRule1D

    @property
    def npoints(self) -> int:
        return self.base.npoints**self.dim

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (Q, dim) node array and (Q,) weight array, lexicographic order."""
        grids = np.meshgrid(*([self.base.nodes] * self.dim), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        wgrids = np.meshgrid(*([self.base.weights] * self.dim), indexing="ij")
        w = np.ones(self.npoints)
        for wg in wgrids:
            w = w * wg.reshape(-1)
        return pts, w


def _hermite_orthonormal(x: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of the orthonormal Hermite polynomials h̃_L and h̃_{L-1} at x.

    Orthonormal w.r.t. e^{-x²}: h̃_0 = π^{-1/4},
    h̃_{n+1} = x·√(2/(n+1))·h̃_n − √(n/(n+1))·h̃_{n-1}.
    """
    h_prev = np.zeros_like(x)
    h = np.full_like(x, math.pi**-0.25)
    for n in range(L):
        h_next = x * math.sqrt(2.0 / (n + 1)) * h - math.sqrt(n / (n + 1)) * h_prev
        h_prev, h = h, h_next
    return h, h_prev  # (h̃_L, h̃_{L-1})


def _christoffel_weights(x: np.ndarray, L: int) -> np.ndarray:
    """Gauss weights via the Christoffel function: ω_i = 1 / Σ_{n<L} h̃_n(x_i)²."""
    h_prev = np.zeros_like(x)
    h = np.full_like(x, math.pi**-0.25)
    acc = h * h
    for n in range(L - 1):
        h_next = x * math.sqrt(2.0 / (n + 1)) * h - math.sqrt(n / (n + 1)) * h_prev
        h_prev, h = h, h_next
        acc += h * h
    return 1.0 / acc


def gauss_hermite(npoints: int) -> QuadratureRule1D:
    """Gauss–Hermite rule with `npoints` nodes (1 ≤ npoints ≤ 64).

    Nodes are strictly increasing and exactly antisymmetric (the rule is
    symmetrized after the eigen-solve); weights are positive and sum to √π.
    The rule integrates polynomials of degree ≤ 2·npoints − 1 exactly against
    e^{-x²}.
    """
    L = int(npoints)
    if not 1 <= L <= MAX_POINTS:
        raise ValueError(f"npoints must be in 1..{MAX_POINTS}, got {npoints}")
    if L == 1:
        return QuadratureRule1D(1, np.array([0.0]), np.array([math.sqrt(math.pi)]))

    # Golub–Welsch: Jacobi matrix of the (monic) Hermite recurrence.
    off = np.sqrt(np.arange(1, L) / 2.0)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    x = np.linalg.eigvalsh(jacobi)

    # One Newton step on h̃_L (derivative h̃'_L = √(2L)·h̃_{L-1}).
    hL, hLm1 = _hermite_orthonormal(x, L)
    x = x - hL / (math.sqrt(2.0 * L) * hLm1)

    # Enforce exact ± symmetry, then recompute weights at the polished nodes.
    x = 0.5 * (x - x[::-1])
    w = _christoffel_weights(x, L)
    w = 0.5 * (w + w[::-1])
    return QuadratureRule1D(L, x, w)


def gauss_hermite_tensor(npoints: int, dim: int) -> TensorRule:
    """Tensor-product Gauss–Hermite rule: `npoints` per axis over `dim` axes."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return TensorRule(dim=dim, base=gauss_hermite(npoints))


def kahan_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """Compensated summation along an axis, in index order.

    Uses the Kahan–Babuška–Neumaier variant, which stays accurate under
    heavy cancellation (terms of mixed sign and similar magnitude), not
    just when adding small terms to a large running total.
    """
    terms = np.asarray(terms, dtype=float)
    moved = np.moveaxis(terms, axis, 0)
    total = np.zeros(moved.shape[1:])
    comp = np.zeros_like(total)
    for t in moved:
        s = total + t
        big = np.abs(total) >= np.abs(t)
        comp = comp + np.where(big, (total - s) + t, (t - s) + total)
        total = s
    return total + comp


def gaussian_expectation(rule: QuadratureRule1D | TensorRule, g: Callable) -> np.ndarray:
    """E[g(X)] for X ~ N(0, I_n) via the Gauss–Hermite substitution x = √2·a.

    ``g`` must accept an (Q, n) array of sample points ((Q,) for a 1-D rule)
    and return per-point values with any trailing shape.  Accumulation is
    compensated summation in lexicographic node order.
    """
    if isinstance(rule, QuadratureRule1D):
        pts = math.sqrt(2.0) * rule.nodes
        w = rule.weights
        dim = 1
    else:
        pts, w = rule.points()
        pts = math.sqrt(2.0) * pts
        dim = rule.dim
    vals = np.asarray(g(pts), dtype=float)
    terms = vals * w.reshape((-1,) + (1,) * (vals.ndim - 1))
    return kahan_sum(terms, axis=0) * math.pi ** (-dim / 2.0)
