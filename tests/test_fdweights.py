"""Exactness tests for the combined multi-step weight solver."""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fbsde.fdweights import (
    SingularSystem,
    WeightSet,
    moment_matrix,
    solve_weights,
    weights_as_float,
)
from _oracles import fornberg_weights

# Reference weight tables (reduced fractions, space-separated, in w_0 … w_k
# order).  Frozen as strings so equality is bit-exact, not approximate.
TABLE_M2 = {
    1: "-1/2 1/2",
    2: "-1 3/2 -1/2",
    3: "-17/12 11/4 -7/4 5/12",
    4: "-7/4 49/12 -15/4 7/4 -1/3",
    5: "-121/60 65/12 -77/12 53/12 -5/3 4/15",
    6: "-67/30 403/60 -29/3 35/4 -59/12 47/30 -13/60",
    7: "-2027/840 319/40 -1613/120 361/24 -269/24 641/120 -59/40 151/840",
}
TABLE_M4 = {
    1: "-1/4 1/4",
    2: "-3/4 5/4 -1/2",
    3: "-4/3 3 -9/4 7/12",
    4: "-11/6 5 -21/4 31/12 -1/2",
    5: "-87/40 161/24 -26/3 6 -53/24 41/120",
    6: "-19/8 949/120 -35/3 10 -125/24 37/24 -1/5",
    7: "-419/168 1049/120 -85/6 85/6 -75/8 97/24 -31/30 5/42",
    8: "-145/56 2661/280 -101/6 39/2 -385/24 75/8 -37/10 37/42 -2/21",
    9: "-6781/2520 2917/280 -4303/210 841/30 -3461/120 887/40 -367/30 953/210 -106/105 32/315",
}


def _as_string(ws: WeightSet) -> str:
    return " ".join(str(w) for w in ws.weights)


@pytest.mark.parametrize("k", sorted(TABLE_M2))
def test_weights_m2_match_reference_exactly(k):
    assert _as_string(solve_weights(k, 2)) == TABLE_M2[k]


@pytest.mark.parametrize("k", sorted(TABLE_M4))
def test_weights_m4_match_reference_exactly(k):
    assert _as_string(solve_weights(k, 4)) == TABLE_M4[k]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 9])
def test_moment_conditions_hold_exactly(k, m):
    """Σ_i w_i Σ_s (i+s)^j = δ_{j,1}, recomputed from scratch over rationals."""
    w = solve_weights(k, m).weights
    for j in range(k + 1):
        acc = Fraction(0)
        for i in range(k + 1):
            for s in range(m):
                power = Fraction(1) if j == 0 else Fraction(i + s) ** j
                acc += w[i] * power
        assert acc == (1 if j == 1 else 0)


@pytest.mark.parametrize("k", range(1, 9))
def test_m1_reduces_to_classical_derivative_weights(k):
    """With a single shift the weights are the one-sided d/dθ stencil at 0."""
    w = solve_weights(k, 1).weights
    fb = fornberg_weights(0, list(range(k + 1)), order=1)
    assert w == tuple(fb[i][1] for i in range(k + 1))


@pytest.mark.parametrize("k,m", [(2, 2), (3, 4), (5, 4), (9, 4), (4, 3)])
def test_polynomial_exactness(k, m):
    """Σ_i w_i Σ_s p(i+s) = p′(0) exactly for every polynomial of degree ≤ k."""
    rng = np.random.default_rng(k * 100 + m)
    w = solve_weights(k, m).weights
    for _ in range(5):
        coeffs = [Fraction(int(c)) for c in rng.integers(-9, 10, size=k + 1)]

        def p(theta: int) -> Fraction:
            return sum(c * Fraction(theta) ** e for e, c in enumerate(coeffs))

        lhs = sum(w[i] * sum(p(i + s) for s in range(m)) for i in range(k + 1))
        dp0 = coeffs[1] if k >= 1 else Fraction(0)
        assert lhs == dp0


@pytest.mark.parametrize("k,m", [(1, 2), (3, 2), (7, 2), (4, 4), (9, 4), (5, 5)])
def test_window_sums_structure(k, m):
    ws = solve_weights(k, m)
    sums = ws.window_sums()
    assert len(sums) == k + m
    assert sum(sums) == 0  # exact rational cancellation
    for ell, value in enumerate(sums):
        expect = sum(
            ws.weights[i] for i in range(max(0, ell - m + 1), min(ell, k) + 1)
        )
        assert value == expect


def test_moment_matrix_zero_power_convention():
    # 0^0 = 1: the j = 0 row counts the m window samples for every column.
    mat = moment_matrix(3, 4)
    assert mat[0] == [Fraction(4)] * 4
    # Entry (j=2, i=1) with m=2: 1^2 + 2^2 = 5.
    assert moment_matrix(2, 2)[2][1] == 5


@pytest.mark.parametrize("k,m", [(0, 2), (-1, 2), (2, 0), (2, -3)])
def test_invalid_sizes_rejected(k, m):
    with pytest.raises(ValueError):
        moment_matrix(k, m)
    with pytest.raises(ValueError):
        solve_weights(k, m)


def test_weightset_length_validated():
    with pytest.raises(ValueError):
        WeightSet(k=2, m=2, weights=(Fraction(1), Fraction(-1)))


def test_singular_system_detected(monkeypatch):
    import fbsde.fdweights as fd

    def degenerate(k, m):
        n = k + 1
        return [[Fraction(1)] * n for _ in range(n)]

    monkeypatch.setattr(fd, "moment_matrix", degenerate)
    fd.solve_weights.cache_clear()  # (2, 2) may be solved already
    with pytest.raises(SingularSystem):
        fd.solve_weights(2, 2)


def test_weights_are_solved_once_per_k_m():
    """A repeated (k, m) returns the first call's object, with the weights of
    a fresh elimination."""
    first = solve_weights(9, 4)
    assert solve_weights(9, 4) is first
    assert solve_weights.__wrapped__(9, 4) == first
    assert solve_weights(9, 2) is not first


def test_float_view_is_correctly_rounded():
    floats = weights_as_float(solve_weights(3, 2))
    assert floats == [-17 / 12, 11 / 4, -7 / 4, 5 / 12]
    assert all(isinstance(v, float) for v in floats)
