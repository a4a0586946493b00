"""Exact finite-difference weights for combined multi-step time discretizations.

A k-step scheme that averages the classical one-point derivative stencil over m
consecutive grid shifts needs weights w_0 … w_k (the tabulated values are the
weights pre-multiplied by the step size) satisfying the moment conditions

    Σ_{i=0}^{k} w_i Σ_{s=0}^{m-1} (i+s)^j  =  δ_{j,1}       for j = 0 … k,

with the convention 0^0 = 1.  Everything here is exact rational arithmetic
(`fractions.Fraction`): the weights are consumed both by the time stepper
(converted to float once) and by the stability analysis, where exact
cancellation (Σ of the window sums is exactly zero) matters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


class SingularSystem(ValueError):
    """Raised when the moment system has no unique solution."""


def moment_matrix(k: int, m: int) -> list[list[Fraction]]:
    """Build the (k+1)×(k+1) moment matrix of the combined scheme.

    Entry (j, i) is Σ_{s=0}^{m-1} (i+s)^j with 0^0 = 1, so row j states the
    j-th moment condition and column i belongs to weight w_i.

    Parameters
    ----------
    k : number of steps (column index range 0..k), k ≥ 1
    m : number of combined shifts, m ≥ 1
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rows: list[list[Fraction]] = []
    for j in range(k + 1):
        row = []
        for i in range(k + 1):
            acc = 0
            for s in range(m):
                base = i + s
                acc += 1 if j == 0 else base**j
            row.append(Fraction(acc))
        rows.append(row)
    return rows


@dataclass(frozen=True)
class WeightSet:
    """Exact weights (step-size–scaled) of a (k, m) combined multi-step scheme.

    ``weights[i]`` is the rational value usually written α_{k,i}·Δt; dividing by
    the actual step size recovers the derivative-approximation coefficients.
    """

    k: int
    m: int
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != self.k + 1:
            raise ValueError(
                f"expected {self.k + 1} weights for k={self.k}, got {len(self.weights)}"
            )

    def window_sums(self) -> tuple[Fraction, ...]:
        """Sliding-window sums c_ℓ = Σ_{i=max(0,ℓ-m+1)}^{min(ℓ,k)} w_i, ℓ = 0..k+m-1.

        These are the coefficients that multiply the future time levels in the
        combined scheme (and, in descending-power order, the coefficients of its
        characteristic polynomial).  Their total is exactly zero.
        """
        k, m = self.k, self.m
        return tuple(
            sum(self.weights[i] for i in range(max(0, ell - m + 1), min(ell, k) + 1))
            for ell in range(k + m)
        )


@functools.cache
def solve_weights(k: int, m: int) -> WeightSet:
    """Solve the moment system for the (k, m) combined-scheme weights.

    Exact Gaussian elimination with partial pivoting (largest |rational| in the
    pivot column).  The right-hand side is the first-moment unit vector
    (0, 1, 0, …, 0).  The result depends on (k, m) only and is immutable, so
    it is solved once per process and every later call returns that object.

    Raises
    ------
    SingularSystem
        If elimination hits an all-zero pivot column (cannot happen for the
        supported k ≥ 1, m ≥ 1, but the guard keeps the solver honest).
    """
    matrix = moment_matrix(k, m)
    n = k + 1
    rhs = [Fraction(1) if j == 1 else Fraction(0) for j in range(n)]
    # Forward elimination on the augmented system.
    aug = [row[:] + [rhs[j]] for j, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot_row][col] == 0:
            raise SingularSystem(f"moment system singular at column {col} (k={k}, m={m})")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        for r in range(col + 1, n):
            factor = aug[r][col] / pivot
            if factor == 0:
                continue
            aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    # Back substitution.
    solution = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        acc = aug[row][n] - sum(aug[row][c] * solution[c] for c in range(row + 1, n))
        solution[row] = acc / aug[row][row]
    return WeightSet(k=k, m=m, weights=tuple(solution))


def weights_as_float(ws: WeightSet) -> list[float]:
    """Correctly rounded float64 view of the exact weights."""
    return [float(w) for w in ws.weights]
