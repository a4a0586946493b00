"""Benchmark FBSDE problems and closed-form solution checks.

A problem couples the forward dynamics dX = a dt + b dW with the backward
equation −dY = f dt − Z dW and terminal condition Y_T = g(X_T).  All
coefficient callables are vectorized over leading batch dimensions:

    a(t, x, y, z) -> (..., n)        x: (..., n)
    b(t, x, y, z) -> (..., n, d)     y: (..., m)
    f(t, x, y, z) -> (..., m)        z: (..., m, d)
    g(x)          -> (..., m)

Decoupled problems ignore the (y, z) arguments of a and b.  The built-in
examples carry closed-form solutions; where a source display is ambiguous
(operator grouping, orientation of the backward differential, labeling of the
gradient-coupling terms), the transcription used here is the one under which
the closed-form pair satisfies the associated semilinear PDE — checked by the
finite-difference residual in `feynman_kac_residual` and enforced in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class FbsdeProblem:
    """A forward-backward SDE with optional closed-form solution."""

    name: str
    n: int
    m: int
    d: int
    T: float
    x0: np.ndarray
    a: Callable
    b: Callable
    f: Callable
    g: Callable
    coupled: bool
    analytic_y: Callable | None = None
    analytic_z: Callable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, float)))
        if self.x0.shape != (self.n,):
            raise ValueError(f"x0 must have shape ({self.n},), got {self.x0.shape}")
        if min(self.n, self.m, self.d) < 1:
            raise ValueError("dimensions n, m, d must all be >= 1")
        if self.T <= 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")

    @property
    def has_analytic(self) -> bool:
        return self.analytic_y is not None and self.analytic_z is not None


def _sigmoid(u: np.ndarray) -> np.ndarray:
    """Numerically stable e^u/(1+e^u), exact limits 0/1 at the tails."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def example1() -> FbsdeProblem:
    """Decoupled scalar problem with logistic-sigmoid solution.

    Y(t, x) = e^{t+x}/(1+e^{t+x}),  Z(t, x) = e^{2(t+x)}/(1+e^{t+x})^3,
    on [0, 1] with x0 = 1.
    """

    def a(t, x, y=None, z=None):
        u = t + x[..., 0]
        s = _sigmoid(u)
        # 1/(1+2e^u) = (1-s)/(1+s), overflow-free for large u
        return ((1.0 - s) / (1.0 + s))[..., None]

    def b(t, x, y=None, z=None):
        return _sigmoid(t + x[..., 0])[..., None, None]

    def f(t, x, y, z):
        u = t + x[..., 0]
        s = _sigmoid(u)
        y0 = y[..., 0]
        z0 = z[..., 0, 0]
        val = -2.0 * y0 * (1.0 - s) / (1.0 + s) - 0.5 * (
            y0 * z0 * (1.0 - s) - y0**2 * z0
        )
        return val[..., None]

    T = 1.0

    def g(x):
        return _sigmoid(T + x[..., 0])[..., None]

    def analytic_y(t, x):
        return _sigmoid(t + x[..., 0])[..., None]

    def analytic_z(t, x):
        s = _sigmoid(t + x[..., 0])
        # e^{2u}/(1+e^u)^3 = s^2 (1-s)
        return (s * s * (1.0 - s))[..., None, None]

    return FbsdeProblem(
        name="example1", n=1, m=1, d=1, T=T, x0=np.array([1.0]),
        a=a, b=b, f=f, g=g, coupled=False,
        analytic_y=analytic_y, analytic_z=analytic_z,
    )


def example2() -> FbsdeProblem:
    """Fully coupled scalar problem with Y = sin(t+x), Z = cos²(t+x).

    Both forward coefficients read (Y, Z); the diffusion is the product
    b = ½·cos(t+x)·(y·sin(t+x) + z + 1), which equals cos(t+x) along the
    solution manifold.  Horizon [0, 1], x0 = 1.5.
    """

    def a(t, x, y, z):
        u = t + x[..., 0]
        y0 = y[..., 0]
        z0 = z[..., 0, 0]
        return (-0.5 * np.sin(u) * np.cos(u) * (y0**2 + z0))[..., None]

    def b(t, x, y, z):
        u = t + x[..., 0]
        y0 = y[..., 0]
        z0 = z[..., 0, 0]
        return (0.5 * np.cos(u) * (y0 * np.sin(u) + z0 + 1.0))[..., None, None]

    def f(t, x, y, z):
        u = t + x[..., 0]
        return (y[..., 0] * z[..., 0, 0] - np.cos(u))[..., None]

    T = 1.0

    def g(x):
        return np.sin(T + x[..., 0])[..., None]

    def analytic_y(t, x):
        return np.sin(t + x[..., 0])[..., None]

    def analytic_z(t, x):
        return (np.cos(t + x[..., 0]) ** 2)[..., None, None]

    return FbsdeProblem(
        name="example2", n=1, m=1, d=1, T=T, x0=np.array([1.5]),
        a=a, b=b, f=f, g=g, coupled=True,
        analytic_y=analytic_y, analytic_z=analytic_z,
    )


def example3() -> FbsdeProblem:
    """Decoupled two-dimensional system (n = m = 2, scalar Brownian motion).

    Y¹ = sin(t+x¹)·sin(t+x²), Y² = cos(t+x¹)·cos(t+x²) on [0, 1], x0 = (0, 0).
    The driver's gradient-coupling terms and the closed-form Z are transcribed
    in the orientation that satisfies the associated PDE (see module docstring).
    """

    def a(t, x, y=None, z=None):
        return 0.5 * np.sin(t + x) ** 2

    def b(t, x, y=None, z=None):
        return (0.5 * np.cos(t + x) ** 2)[..., None]

    def f(t, x, y, z):
        s1, c1 = np.sin(t + x[..., 0]), np.cos(t + x[..., 0])
        s2, c2 = np.sin(t + x[..., 1]), np.cos(t + x[..., 1])
        y1, y2 = y[..., 0], y[..., 1]
        z1, z2 = z[..., 0, 0], z[..., 1, 0]
        quartic = 0.25 * (c1**4 + c2**4)
        f1 = -1.5 * c1 * s2 - 1.5 * s1 * c2 + z1 + 0.5 * y1 * quartic - 0.25 * y2**3
        f2 = 1.5 * s1 * c2 + 1.5 * c1 * s2 + z2 + 0.5 * y2 * quartic - 0.25 * y1 * y2**2
        return np.stack([f1, f2], axis=-1)

    T = 1.0

    def g(x):
        return np.stack(
            [
                np.sin(T + x[..., 0]) * np.sin(T + x[..., 1]),
                np.cos(T + x[..., 0]) * np.cos(T + x[..., 1]),
            ],
            axis=-1,
        )

    def analytic_y(t, x):
        return np.stack(
            [
                np.sin(t + x[..., 0]) * np.sin(t + x[..., 1]),
                np.cos(t + x[..., 0]) * np.cos(t + x[..., 1]),
            ],
            axis=-1,
        )

    def analytic_z(t, x):
        s1, c1 = np.sin(t + x[..., 0]), np.cos(t + x[..., 0])
        s2, c2 = np.sin(t + x[..., 1]), np.cos(t + x[..., 1])
        z1 = 0.5 * c1**3 * s2 + 0.5 * s1 * c2**3
        z2 = -0.5 * s1 * c2 * c1**2 - 0.5 * c1 * s2 * c2**2
        return np.stack([z1, z2], axis=-1)[..., None]

    return FbsdeProblem(
        name="example3", n=2, m=2, d=1, T=T, x0=np.array([0.0, 0.0]),
        a=a, b=b, f=f, g=g, coupled=False,
        analytic_y=analytic_y, analytic_z=analytic_z,
    )


PROBLEMS: dict[str, Callable[[], FbsdeProblem]] = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
}


def get_problem(name: str) -> FbsdeProblem:
    """Look up a built-in problem by registry key."""
    try:
        return PROBLEMS[name]()
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
        ) from None


# ---------------------------------------------------------------------------
# Closed-form solution checks (independent finite-difference oracles)
# ---------------------------------------------------------------------------

FD_STEP_FIRST = 1e-5
FD_STEP_SECOND = 4e-3


def _grad_x(func, t, x, out_dim):
    """Central-difference spatial Jacobian, shape (out_dim, n)."""
    n = x.size
    jac = np.empty((out_dim, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = FD_STEP_FIRST
        jac[:, i] = (func(t, x + e) - func(t, x - e)) / (2.0 * FD_STEP_FIRST)
    return jac


def _hessian_x(func, t, x, out_dim):
    """Spatial Hessian via Richardson-extrapolated central differences.

    A plain second difference at step δ carries ~4·eps/δ² rounding noise, so a
    step small enough for the truncation error would drown the residual
    tolerance; one Richardson level at a moderate step gives ~1e-10 accuracy.
    """
    n = x.size

    def second(i, j, delta):
        ei = np.zeros(n)
        ej = np.zeros(n)
        ei[i] = delta
        ej[j] = delta
        if i == j:
            return (func(t, x + ei) - 2.0 * func(t, x) + func(t, x - ei)) / delta**2
        return (
            func(t, x + ei + ej)
            - func(t, x + ei - ej)
            - func(t, x - ei + ej)
            + func(t, x - ei - ej)
        ) / (4.0 * delta**2)

    hess = np.empty((out_dim, n, n))
    for i in range(n):
        for j in range(i, n):
            coarse = second(i, j, FD_STEP_SECOND)
            fine = second(i, j, FD_STEP_SECOND / 2.0)
            val = (4.0 * fine - coarse) / 3.0
            hess[:, i, j] = val
            hess[:, j, i] = val
    return hess


def feynman_kac_residual(problem: FbsdeProblem, t: float, x) -> np.ndarray:
    """PDE residual ∂_t u + a·∇u + ½ tr(bbᵀ ∇²u) + f(t, x, u, Z) at one point.

    u and Z are the problem's closed-form solution; derivatives come from
    finite differences, so this is an independent check of the transcription.
    Returns the (m,) residual vector (≈ 0 when everything is consistent).
    """
    if not problem.has_analytic:
        raise ValueError(f"problem {problem.name!r} has no closed-form solution")
    x = np.atleast_1d(np.asarray(x, float))
    m = problem.m

    def u(tt, xx):
        return problem.analytic_y(tt, xx)

    y = u(t, x)
    z = problem.analytic_z(t, x)
    a_val = problem.a(t, x, y, z)
    b_val = problem.b(t, x, y, z)

    dudt = (u(t + FD_STEP_FIRST, x) - u(t - FD_STEP_FIRST, x)) / (2.0 * FD_STEP_FIRST)
    grad = _grad_x(u, t, x, m)
    hess = _hessian_x(u, t, x, m)
    bbt = b_val @ b_val.T
    diffusion = 0.5 * np.einsum("ij,lij->l", bbt, hess)
    return dudt + grad @ a_val + diffusion + problem.f(t, x, y, z)


def z_consistency_gap(problem: FbsdeProblem, t: float, x) -> np.ndarray:
    """|Z − (∇u)·b| at one point: the closed-form Z against its defining relation."""
    if not problem.has_analytic:
        raise ValueError(f"problem {problem.name!r} has no closed-form solution")
    x = np.atleast_1d(np.asarray(x, float))
    y = problem.analytic_y(t, x)
    z = problem.analytic_z(t, x)
    grad = _grad_x(problem.analytic_y, t, x, problem.m)
    return np.abs(z - grad @ problem.b(t, x, y, z))


def terminal_gap(problem: FbsdeProblem, x) -> np.ndarray:
    """|g(x) − u(T, x)| at one point."""
    if problem.analytic_y is None:
        raise ValueError(f"problem {problem.name!r} has no closed-form solution")
    x = np.atleast_1d(np.asarray(x, float))
    return np.abs(problem.g(x) - problem.analytic_y(problem.T, x))
