"""Gauss–Hermite rule, tensor products, compensated summation, expectations."""
from __future__ import annotations

import math

import numpy as np
import pytest

from fbsde.hermite import (
    MAX_POINTS,
    gauss_hermite,
    gauss_hermite_tensor,
    gaussian_expectation,
    kahan_sum,
)

SQRT_PI = math.sqrt(math.pi)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_one_point_rule_closed_form():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [SQRT_PI]


def test_two_point_rule_closed_form():
    rule = gauss_hermite(2)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-15)
    assert rule.weights == pytest.approx([SQRT_PI / 2] * 2, rel=1e-15)


def test_three_point_rule_closed_form():
    rule = gauss_hermite(3)
    s = math.sqrt(1.5)
    assert rule.nodes == pytest.approx([-s, 0.0, s], abs=1e-15)
    assert rule.weights == pytest.approx(
        [SQRT_PI / 6, 2 * SQRT_PI / 3, SQRT_PI / 6], rel=1e-14
    )


@pytest.mark.parametrize("L", range(1, 21))
def test_matches_numpy_hermgauss(L):
    rule = gauss_hermite(L)
    x_ref, w_ref = np.polynomial.hermite.hermgauss(L)
    assert rule.nodes == pytest.approx(x_ref, abs=1e-13)
    assert rule.weights == pytest.approx(w_ref, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("L", range(1, 21))
def test_normal_even_moments(L):
    """E[X^{2q}] = (2q−1)!! exactly up to the rule's degree 2L−1."""
    rule = gauss_hermite(L)
    for q in range(L):  # 2q ≤ 2L − 2 < 2L − 1
        got = float(gaussian_expectation(rule, lambda x: x ** (2 * q)))
        want = float(double_factorial(2 * q - 1))
        assert got == pytest.approx(want, rel=1e-10), (L, q)


@pytest.mark.parametrize("L", [2, 5, 10, 20])
def test_odd_moments_vanish(L):
    rule = gauss_hermite(L)
    for p in (1, 3, 5):
        scale = double_factorial(p + 1)  # magnitude of the neighboring even moment
        got = float(gaussian_expectation(rule, lambda x: x**p))
        assert abs(got) < 1e-12 * scale


@pytest.mark.parametrize("L", [1, 2, 7, 20, 64])
def test_weights_sum_to_sqrt_pi(L):
    rule = gauss_hermite(L)
    assert float(np.sum(rule.weights)) == pytest.approx(SQRT_PI, abs=1e-12)
    assert np.all(rule.weights > 0)


@pytest.mark.parametrize("L", [2, 3, 10, 24, 64])
def test_rule_is_exactly_symmetric(L):
    rule = gauss_hermite(L)
    assert np.all(rule.nodes + rule.nodes[::-1] == 0.0)  # bitwise antisymmetry
    assert np.all(rule.weights == rule.weights[::-1])
    assert np.all(np.diff(rule.nodes) > 0)


@pytest.mark.parametrize("L", [1, 0, 65, -3])
def test_point_count_validation(L):
    if 1 <= L <= MAX_POINTS:
        gauss_hermite(L)
    else:
        with pytest.raises(ValueError):
            gauss_hermite(L)


@pytest.mark.parametrize(
    "npoints, dim, name",
    [
        (2.5, 1, "npoints"), (True, 1, "npoints"), (3.0, 1, "npoints"),
        ("3", 1, "npoints"), (3, 1.5, "dim"), (3, True, "dim"),
    ],
)
def test_quadrature_sizes_must_be_integers(npoints, dim, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        gauss_hermite_tensor(npoints, dim)


def test_tensor_rule_structure():
    rule = gauss_hermite_tensor(3, 2)
    assert rule.dim == 2
    assert rule.npoints == 9
    pts, w = rule.points()
    assert pts.shape == (9, 2)
    assert w.shape == (9,)
    # Lexicographic order: first axis varies slowest.
    base = rule.base.nodes
    assert pts[:3, 0] == pytest.approx([base[0]] * 3, abs=0)
    assert pts[:3, 1] == pytest.approx(base, abs=0)


def test_tensor_rule_points_are_built_once_and_read_only():
    rule = gauss_hermite_tensor(4, 2)
    pts, w = rule.points()
    again = rule.points()
    assert again[0] is pts and again[1] is w
    assert not pts.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0


def test_tensor_dim_validated():
    with pytest.raises(ValueError):
        gauss_hermite_tensor(3, 0)


def test_tensor_expectation_of_products():
    rule = gauss_hermite_tensor(5, 2)
    # Independent coordinates: E[x²y²] = 1, E[x⁴y²] = 3, E[xy] = 0.
    assert float(
        gaussian_expectation(rule, lambda p: p[:, 0] ** 2 * p[:, 1] ** 2)
    ) == pytest.approx(1.0, rel=1e-12)
    assert float(
        gaussian_expectation(rule, lambda p: p[:, 0] ** 4 * p[:, 1] ** 2)
    ) == pytest.approx(3.0, rel=1e-12)
    assert abs(float(gaussian_expectation(rule, lambda p: p[:, 0] * p[:, 1]))) < 1e-14


def test_expectation_keeps_trailing_shape():
    rule = gauss_hermite_tensor(4, 2)

    def g(p):
        return np.stack([p[:, 0] ** 2, p[:, 1] ** 2, p[:, 0] * 0 + 7.0], axis=-1)

    out = gaussian_expectation(rule, g)
    assert out.shape == (3,)
    assert out == pytest.approx([1.0, 1.0, 7.0], rel=1e-12)


def test_kahan_sum_survives_catastrophic_cancellation():
    assert kahan_sum(np.array([1e16, 1.0, -1e16])) == 1.0
    assert float(np.sum(np.array([1e16, 1.0, -1e16]))) == 0.0  # plain sum loses it


def test_kahan_sum_matches_fsum():
    rng = np.random.default_rng(42)
    data = rng.normal(scale=[1e-8, 1.0, 1e8], size=(500, 3)).reshape(-1)
    rng.shuffle(data)
    assert kahan_sum(data) == pytest.approx(math.fsum(data), rel=1e-15, abs=1e-12)


def test_kahan_sum_axis_semantics():
    """The sum runs along axis 0 and keeps the trailing shape."""
    arr = np.arange(12.0).reshape(3, 4)
    assert kahan_sum(arr) == pytest.approx(arr.sum(axis=0), abs=0)
    assert kahan_sum(arr).shape == (4,)


def _neumaier_sum(terms):
    """Compensated sum by the Kahan–Babuška–Neumaier branch, the loop that
    `kahan_sum` replaced, kept here as its oracle."""
    terms = np.asarray(terms, dtype=float)
    total = np.zeros(terms.shape[1:])
    comp = np.zeros_like(total)
    for t in terms:
        s = total + t
        big = np.abs(total) >= np.abs(t)
        comp = comp + np.where(big, (total - s) + t, (t - s) + total)
        total = s
    return total + comp


def test_kahan_sum_matches_the_neumaier_branch_bitwise():
    """TwoSum recovers the same exact rounding error as the branch, so the
    sums agree to the bit: random magnitudes 1e±20, cancelling pairs, exact
    integer sums, and signed zeros, over 1-D and trailing shapes."""
    rng = np.random.default_rng(16)
    for case in range(600):
        shape = (int(rng.integers(1, 30)),) + tuple(rng.integers(1, 4, size=case % 3))
        kind = case % 4
        if kind == 0:
            terms = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
        elif kind == 1:
            half = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
            terms = np.concatenate([half, -half * (1 + 1e-15 * rng.normal(size=shape))])
            terms = terms[rng.permutation(len(terms))]
        elif kind == 2:
            terms = rng.integers(-1000, 1000, size=shape).astype(float)
        else:
            terms = rng.choice([0.0, -0.0, 1.0, -1.0, 1e-300], size=shape)
        got, want = kahan_sum(terms), _neumaier_sum(terms)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), case
