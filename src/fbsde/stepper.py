"""Backward multi-step time marching for FBSDEs on a spatial lattice.

The solver discretizes [0, T] into `n_steps` uniform levels and marches the
backward pair (Y, Z) from the terminal level toward t = 0.  Each new level is
computed from a window of k+m−1 already-sealed future levels:

* conditional expectations E[Y^{n+j}] and E[Y^{n+j} ΔWᵀ] are evaluated with
  Gauss–Hermite quadrature along one-shot Euler predictors of the forward
  process; the coefficients a, b are frozen at (t_n, x, Y, Z) and evaluated
  once per pass for all k+m−1 spans,
* the martingale component Z^n comes from an explicit weighted combination of
  the E[Y ΔWᵀ] terms,
* Y^n solves the implicit multi-step relation by Picard iteration.

One step function computes a level.  With a, b ignoring (Y, Z) a single
frozen-coefficient pass is the level; a coupled problem repeats the pass in an
outer fixed-point loop that refreshes the frozen forward coefficients.  Each
node's (Y, Z) is its own fixed point there, since the frozen a, b at a node
read only that node's iterate, so the loop takes a depth-1 Anderson step per
node and stops once every component's change is small relative to its value.
One march loop calls the step, both for the self-starting ramp and for the
main march.
All reductions run in a fixed order with compensated summation, so repeated
runs are bit-identical.

Spatially the scheme lives on an unbounded uniform lattice; a run only ever
touches a finite cone of it.  Each marched level is stored on its own window
lattice, the nodes within a half-width of x0 that shrinks as the march
approaches t = 0: the window at level n exceeds the window at level n−1 by
enough nodes that every quadrature point launched from a node of level n−1
lands inside the window of the level it reads.  Interpolation there uses
stencils over that window's own nodes, one-sided near its edge, so values are
never extrapolated, clamped, or read from uncomputed nodes.  The cone is
sized from sampled coefficient bounds, so each read checks it: a quadrature
point outside the level's window raises :class:`~fbsde.lattice.OutOfDomain`
naming t_n, the span, the level, the axis and the overhang in nodes.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fdweights import solve_weights
from .hermite import MAX_POINTS, TensorRule, gauss_hermite_tensor, kahan_sum
from . import lattice as _lattice
from .lattice import (
    Lattice,
    OutOfDomain,
    ValueLevel,
    build_lattice,
    interpolate_values,
)
from .problems import FbsdeProblem

__all__ = [
    "SolverConfig",
    "SolveResult",
    "MissingAnalytic",
    "PicardDivergence",
    "OuterDivergence",
    "euler_points",
    "conditional_expectations",
    "z_update",
    "y_update",
    "step_decoupled",
    "step_coupled",
    "initialize_levels",
    "solve",
]


class MissingAnalytic(ValueError):
    """Exact initialization was requested for a problem without closed forms."""


class PicardDivergence(RuntimeError):
    """The implicit Y-update failed to converge within the iteration cap."""


class OuterDivergence(RuntimeError):
    """A coupled fixed point (a level's outer loop or the terminal Z) did not converge."""


#: Tolerances and iteration caps of the Picard iteration that solves each
#: pass's implicit Y-update and of the coupled outer loop (both absolute plus
#: relative in the same factor, |Δ| ≤ tol·(1 + |new value|); the outer cap
#: also bounds the ramp's terminal-Z fixed point).
_PICARD_TOL = 1e-14
_PICARD_MAX = 100
_OUTER_TOL = 1e-12
_OUTER_MAX = 200

#: Lowest and highest admissible value of each integer field of
#: :class:`SolverConfig`; ``r`` and ``gh_points`` may also be None.
_INTEGER_RANGES = {
    "k": (3, 9), "n_steps": (1, math.inf), "m_comb": (1, math.inf),
    "init_substeps": (1, math.inf), "r": (1, math.inf), "gh_points": (1, MAX_POINTS),
}


@dataclass
class SolverConfig:
    """Knobs for one solve.

    Derived defaults (resolved against the problem at solve time):

    * ``r``          — interpolation degree, max(10, k + 1)
    * ``gh_points``  — quadrature nodes per Brownian axis: 10 when the state
                       is scalar, 8 otherwise

    The lattice spacing is always derived, h = Δt^((k+1)/(r+1)), balancing
    the spatial error h^(r+1) against the time error Δt^(k+1).  The implicit
    Y-update and the coupled outer loop run to fixed tolerances and
    iteration caps (``_PICARD_TOL``/``_PICARD_MAX``,
    ``_OUTER_TOL``/``_OUTER_MAX``).  Integer fields are checked when the
    config is built (:meth:`check_integers`).
    """

    k: int
    n_steps: int
    m_comb: int = 4
    r: int | None = None
    gh_points: int | None = None
    init_mode: str = "exact"
    init_substeps: int = 1

    def __post_init__(self) -> None:
        self.check_integers(**{name: getattr(self, name) for name in _INTEGER_RANGES})
        if self.n_steps < self.k + self.m_comb - 1:
            raise ValueError(
                f"n_steps must be at least k + m_comb - 1 = "
                f"{self.k + self.m_comb - 1}, got {self.n_steps}"
            )
        if self.init_mode not in ("exact", "ramp"):
            raise ValueError(
                f"init_mode must be 'exact' or 'ramp', got {self.init_mode!r}"
            )

    @staticmethod
    def check_integers(**fields) -> None:
        """Raise unless each named integer field is an integer in its range.

        ``fields`` maps names of :data:`_INTEGER_RANGES` to values; ``r`` and
        ``gh_points`` may be None.  A non-integer raises TypeError and an
        integer out of range ValueError, both naming the field.  Booleans are
        not integers here, though ``operator.index(True)`` is 1.
        """
        for name, value in fields.items():
            if value is None and name in ("r", "gh_points"):
                continue
            try:
                if isinstance(value, bool):
                    raise TypeError
                value = operator.index(value)
            except TypeError:
                raise TypeError(f"{name} must be an integer, got {value!r}") from None
            low, high = _INTEGER_RANGES[name]
            if not low <= value <= high:
                raise ValueError(f"{name} must be in {low}..{high}, got {value}")


@dataclass
class SolveResult:
    """Solution values at (t = 0, x0) plus run diagnostics."""

    y0: np.ndarray
    z0: np.ndarray
    diagnostics: dict

    def __iter__(self):
        return iter((self.y0, self.z0, self.diagnostics))


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def euler_points(
    x: np.ndarray,
    a_val: np.ndarray,
    b_val: np.ndarray,
    q: np.ndarray,
    j: int,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points of the one-shot Euler predictor over a span of j steps.

    With coefficients frozen at a_val = a(t_n, x, y, z) and
    b_val = b(t_n, x, y, z), the predictor at t_n + jΔt is x + a·jΔt + b·ΔW
    where ΔW ~ N(0, jΔt·I_d).  Substituting ΔW = √(2jΔt)·q at the
    Gauss–Hermite abscissae q gives the integration nodes; an expectation of
    any function of the predictor is then π^{−d/2}·Σ_q ω_q·(value at node q).

    Parameters
    ----------
    x : (P, n) base points; a_val : (P, n); b_val : (P, n, d);
    q : (Q, d) Gauss–Hermite abscissae.

    Returns
    -------
    nodes : (Q, P, n) integration points in state space, quadrature index
        outermost, so the values read at them come out in the layout the
        quadrature sums take
    dw : (Q, d) the Brownian increments √(2jΔt)·q, shared by every base point
    """
    if j < 1:
        raise ValueError(f"span j must be >= 1, got {j}")
    dw = math.sqrt(2.0 * j * dt) * q
    drifted = x + a_val * (j * dt)
    nodes = drifted + np.einsum("pnd,qd->qpn", b_val, dw)
    return nodes, dw


def conditional_expectations(
    window: Sequence[ValueLevel],
    x: np.ndarray,
    t_n: float,
    dt: float,
    problem: FbsdeProblem,
    y: np.ndarray | None,
    z: np.ndarray | None,
    rule: TensorRule,
    r: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(E[Y^{n+j}], E[Y^{n+j} ΔWᵀ]) for j = 1..len(window), batched over x.

    ``window[j-1]`` holds sealed level n+j, interpolated on its own lattice.
    The forward coefficients are frozen at (t_n, x, y, z) and evaluated once
    for all spans; decoupled problems accept y = z = None.  The interpolated
    level values at the quadrature nodes are computed once per (x, j, q) and
    reused by both moments.  Quadrature sums are compensated and run in fixed
    q order.  The terms are laid out quadrature index outermost, (Q, spans,
    P, m, 1+d) with both moments side by side, and the spans are summed in
    groups whose terms fit in ``lattice._BLOCK_BYTES`` (one span at least):
    one :func:`~fbsde.hermite.kahan_sum` per group over contiguous slabs.
    Each sum is elementwise, so the grouping never changes a bit.  A
    quadrature point outside the lattice of the level it reads raises
    :class:`~fbsde.lattice.OutOfDomain` naming t_n, the span, the level's t,
    the axis and the overhang in nodes.

    Parameters
    ----------
    x : (P, n) base points; y : (P, m) or None; z : (P, m, d) or None.

    Returns
    -------
    One (E[Y^{n+j}], E[Y^{n+j} ΔWᵀ]) pair per span, shapes (P, m), (P, m, d).
    """
    P = x.shape[0]
    m = window[0].m
    norm = math.pi ** (-rule.dim / 2.0)
    a_val = np.asarray(problem.a(t_n, x, y, z), float)
    b_val = np.asarray(problem.b(t_n, x, y, z), float)
    q, w = rule.points()
    Q, d = q.shape
    span_bytes = Q * P * m * (1 + d) * 8
    group = max(1, _lattice._BLOCK_BYTES // span_bytes)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for first in range(0, len(window), group):
        spans = window[first : first + group]
        terms = None
        for s, level in enumerate(spans):
            j = first + s + 1
            nodes, dw = euler_points(x, a_val, b_val, q, j, dt)
            flat = nodes.reshape(-1, level.lattice.dim)
            try:
                vals = interpolate_values(level.lattice, level.y, flat, r)
            except OutOfDomain as err:
                raise OutOfDomain(
                    f"query cone too small at t = {t_n:.6g}, span j={j}, reading "
                    f"level t = {level.t:.6g}: {err}"
                ) from err
            if terms is None:  # after the first read, so its block is freed
                terms = np.empty((Q, len(spans), P, m, 1 + d))
            weighted = np.multiply(
                vals.reshape(Q, P, m), w[:, None, None], out=terms[:, s, :, :, 0]
            )
            np.multiply(
                weighted[..., None], dw[:, None, None, :], out=terms[:, s, :, :, 1:]
            )
        sums = kahan_sum(terms)
        out.extend(
            (norm * sums[s, ..., 0], norm * sums[s, ..., 1:]) for s in range(len(spans))
        )
    return out


def z_update(
    eyw_terms: Sequence[np.ndarray], coeffs: np.ndarray, dt: float
) -> np.ndarray:
    """Explicit martingale update Z^n = (1/Δt)·Σ_{j≥1} c_j·E[Y^{n+j} ΔWᵀ].

    ``eyw_terms[j-1]`` is E[Y^{n+j} ΔWᵀ] (shape (P, m, d)); ``coeffs`` holds
    the scaled window-sum weights c_0..c_{k+m−1}, of which entry 0 multiplies
    the unknown level and is not used here.  No iteration is involved.
    """
    terms = np.stack(
        [coeffs[j] * eyw_terms[j - 1] for j in range(1, len(eyw_terms) + 1)]
    )
    return kahan_sum(terms) / dt


def y_update(
    rhs: np.ndarray,
    c0: float,
    dt: float,
    t_n: float,
    x: np.ndarray,
    z_val: np.ndarray,
    f: Callable,
    y_seed: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Solve the implicit relation c0·Y + rhs + Δt·f(t_n, x, Y, Z) = 0 by Picard.

    ``rhs`` is the already-weighted sum Σ_{j≥1} c_j·E[Y^{n+j}], shape (P, m).
    Iterates Y ← −(rhs + Δt·f)/c0 from ``y_seed`` and returns the first
    iterate whose update falls below ``_PICARD_TOL`` (absolute, plus relative
    in the same factor) at every point, so a seed that already solves the
    relation comes back unchanged; raises :class:`PicardDivergence` after
    ``_PICARD_MAX`` iterations.  When f is constant in Y the first
    evaluation already lands on the fixed point and the second merely
    confirms it.

    Returns (Y, iterations taken).
    """
    y = np.array(y_seed, dtype=float, copy=True)
    delta = np.zeros_like(y)
    for it in range(1, _PICARD_MAX + 1):
        f_val = np.asarray(f(t_n, x, y, z_val), float)
        y_new = -(rhs + dt * f_val) / c0
        delta = np.abs(y_new - y)
        if np.all(delta <= _PICARD_TOL * (1.0 + np.abs(y_new))):
            return y, it
        y = y_new
    worst = int(np.argmax(np.max(delta, axis=-1)))
    raise PicardDivergence(
        f"implicit update did not converge in {_PICARD_MAX} iterations at "
        f"t = {t_n:.6g}, node x = {x[worst]} "
        f"(last update {float(np.max(delta)):.3e}, tol {_PICARD_TOL:.1e})"
    )


# ---------------------------------------------------------------------------
# Level steps
# ---------------------------------------------------------------------------


def _anderson_step(
    g: np.ndarray, f: np.ndarray, g_prev: np.ndarray, f_prev: np.ndarray
) -> np.ndarray:
    """Depth-1 Anderson iterate of a fixed point x = G(x), one per row.

    ``g`` = G(x_k) and ``f`` = g − x_k are the current pass's image and
    residual, ``g_prev``, ``f_prev`` the previous pass's; every row is its own
    problem, shape (P, unknowns).  The next iterate is g − γ·(g − g_prev) with
    γ = ⟨f − f_prev, f⟩ / ‖f − f_prev‖² per row, the secant step that
    minimizes the linearized residual (Walker & Ni, SIAM J. Numer. Anal. 49,
    2011); a row whose residual did not change takes the plain step g.
    """
    df = f - f_prev
    num = np.sum(df * f, axis=1)
    den = np.sum(df * df, axis=1)
    gamma = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    return g - gamma[:, None] * (g - g_prev)


def step_coupled(
    window: Sequence[ValueLevel],
    t_n: float,
    dt: float,
    problem: FbsdeProblem,
    coeffs: np.ndarray,
    rule: TensorRule,
    r: int,
    target: Lattice,
) -> tuple[ValueLevel, int, int]:
    """Compute level n on the nodes of ``target``, its computed window.

    ``window`` holds sealed levels n+1, n+2, … in ascending order and
    ``coeffs`` the matching scaled window-sum weights.  ``target`` shares the
    levels' origin and spacing and lies inside level n+1's lattice.
    Quadrature points launched from its nodes must land on the lattice of the
    level they read; the march sizes the windows so this holds, and the read
    raises :class:`~fbsde.lattice.OutOfDomain` if not.

    A pass freezes a, b at the current (Y, Z) iterate x_k, starting from the
    level n+1 values, and applies the explicit Z-update and then the implicit
    Y-update (seeded from x_k's Y), giving g_k = G(x_k).  When
    a, b ignore (Y, Z) the first pass is the level.  A coupled problem
    repeats the pass until every component of every node changes by at most
    ``_OUTER_TOL``·(1 + |g_k|) between x_k and g_k, and returns that g_k.
    The next iterate is the plain g_1 after the first pass and the per-node
    depth-1 Anderson step of :func:`_anderson_step` after later ones; on
    ``example2`` this cuts about 31 passes per level to 6.  After
    ``_OUTER_MAX`` passes it raises :class:`OuterDivergence`, naming the
    node with the largest relative change in the last pass.

    Returns (level on ``target``, Picard iterations of the last pass, outer
    iterations); the outer count is 0 for a decoupled problem, which runs no
    outer loop.
    """
    near = window[0]
    offset = target.lo - near.lattice.lo
    seed = tuple(slice(int(o), int(o) + n) for o, n in zip(offset, target.shape))
    X = target.nodes().reshape(-1, target.dim)
    P = X.shape[0]
    y_cur = near.y[seed].reshape(-1, near.m)
    z_cur = near.z[seed].reshape(-1, near.m, near.d)
    g_prev = f_prev = None
    for outer in range(1, _OUTER_MAX + 1):
        pairs = conditional_expectations(
            window, X, t_n, dt, problem, y_cur, z_cur, rule, r
        )
        z_new = z_update([p[1] for p in pairs], coeffs, dt)
        rhs = kahan_sum(
            np.stack([coeffs[j] * pairs[j - 1][0] for j in range(1, len(pairs) + 1)])
        )
        y_new, iters = y_update(rhs, coeffs[0], dt, t_n, X, z_new, problem.f, y_cur)
        if not problem.coupled:
            break
        # Each node's (Y, Z) image g and residual f; the test is y_update's,
        # every component's change relative to its new value.
        g = np.concatenate([y_new, z_new.reshape(P, -1)], axis=1)
        f = g - np.concatenate([y_cur, z_cur.reshape(P, -1)], axis=1)
        change = np.max(np.abs(f) / (1.0 + np.abs(g)), axis=1)
        if np.all(change <= _OUTER_TOL):
            break
        x_next = g if g_prev is None else _anderson_step(g, f, g_prev, f_prev)
        g_prev, f_prev = g, f
        y_cur = x_next[:, : near.m]
        z_cur = x_next[:, near.m :].reshape(P, near.m, near.d)
    else:
        worst = int(np.argmax(change))
        raise OuterDivergence(
            f"coupled outer loop did not converge in {_OUTER_MAX} iterations "
            f"at t = {t_n:.6g}, node x = {X[worst]} "
            f"(last change {float(change[worst]):.3e} relative, tol {_OUTER_TOL:.1e})"
        )
    level = ValueLevel(
        lattice=target,
        t=t_n,
        y=y_new.reshape(target.shape + (near.m,)),
        z=z_new.reshape(target.shape + (near.m, near.d)),
    )
    return level, iters, outer if problem.coupled else 0


#: The one level step under its decoupled name, which ``perfbench`` traces.
step_decoupled = step_coupled


# ---------------------------------------------------------------------------
# Query-cone geometry
# ---------------------------------------------------------------------------


def _coefficient_bounds(
    problem: FbsdeProblem, radius: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis sup bounds of |a_i| and ‖b_i·‖₁ over a (t, x) box.

    The box is sampled at 9 times and 13 points per axis; (Y, Z) arguments
    come from the closed-form solution when available, otherwise from the
    terminal data with a 1.5× safety inflation.
    """
    axes = [
        np.linspace(problem.x0[i] - radius[i], problem.x0[i] + radius[i], 13)
        for i in range(problem.n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    a_max = np.zeros(problem.n)
    b_max = np.zeros(problem.n)
    inflate = 1.0 if problem.has_analytic else 1.5
    for t in np.linspace(0.0, problem.T, 9):
        if problem.has_analytic:
            y = np.asarray(problem.analytic_y(t, pts), float)
            z = np.asarray(problem.analytic_z(t, pts), float)
        else:
            y = np.asarray(problem.g(pts), float)
            z = np.zeros(pts.shape[:-1] + (problem.m, problem.d))
        a_val = np.asarray(problem.a(t, pts, y, z), float)
        b_val = np.asarray(problem.b(t, pts, y, z), float)
        a_max = np.maximum(a_max, np.max(np.abs(a_val), axis=0))
        b_max = np.maximum(b_max, np.max(np.sum(np.abs(b_val), axis=-1), axis=0))
    return inflate * a_max, inflate * b_max


def _hop_indices(
    a_max: np.ndarray,
    b_max: np.ndarray,
    q_max: float,
    dt: float,
    h: float,
) -> np.ndarray:
    """Per-axis node count by which the active window must grow per level.

    A quadrature point launched from x over one span travels at most
    |a|·Δt + ‖b‖₁·√(2Δt)·|q|_max along each axis.  The hop is that reach in
    whole nodes plus one, so a window growing by this many nodes per level
    holds every quadrature point strictly inside the lattice it reads, for
    all spans (j-step reaches are subadditive in j).  The stencils around
    those points are the lattice's business: near a window edge they are
    one-sided over its computed nodes.
    """
    reach = a_max * dt + b_max * math.sqrt(2.0 * dt) * q_max
    return np.ceil(reach / h - 1e-12).astype(int) + 1


# ---------------------------------------------------------------------------
# March
# ---------------------------------------------------------------------------


def _march(
    problem: FbsdeProblem,
    cfg: SolverConfig,
    rule: TensorRule,
    r: int,
    window: list[ValueLevel],
    levels: Iterable[tuple[float, np.ndarray]],
    dt: float,
) -> Iterator[tuple[ValueLevel, int, int]]:
    """Compute one level per entry of ``levels`` and yield each as it seals.

    ``window`` holds the newest sealed levels, newest first, and ``levels``
    the (t_n, per-axis half-width) of the levels to compute in marching
    order, ``dt`` apart.  Each level is computed on its own window lattice,
    that many nodes either side of the origin node.  The window is rotated
    in place, so a level is freed once it leaves it.  With ℓ sealed levels in
    hand the step uses the weight row of order k′ = min(k, ℓ) and
    m′ = min(m_comb, ℓ+1−k′), so a full window of k+m−1 levels gives
    (k, m_comb) and a short one grows the order as history accrues.

    Yields (level, Picard iterations, outer iterations) per level.
    """
    origin, h = window[0].lattice.origin, window[0].lattice.h
    width = cfg.k + cfg.m_comb - 1
    rows: dict[tuple[int, int], np.ndarray] = {}
    for t_n, halfwidth in levels:
        k_eff = min(cfg.k, len(window))
        m_eff = min(cfg.m_comb, len(window) + 1 - k_eff)
        if (k_eff, m_eff) not in rows:
            rows[k_eff, m_eff] = np.array(
                [float(c) for c in solve_weights(k_eff, m_eff).window_sums()],
                dtype=float,
            )
        coeffs = rows[k_eff, m_eff]
        level, piters, oiters = step_coupled(
            window[: len(coeffs) - 1], t_n, dt, problem, coeffs, rule, r,
            Lattice(origin=origin, h=h, lo=-halfwidth, hi=halfwidth),
        )
        window.insert(0, level)
        del window[width:]
        yield level, piters, oiters


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _terminal_z(problem: FbsdeProblem, X: np.ndarray, y_term: np.ndarray) -> np.ndarray:
    """Terminal Z(T, x) = ∇g(x)·b(T, x, g(x), Z) via FD gradient + fixed point.

    Raises :class:`OuterDivergence` after ``_OUTER_MAX`` passes.
    """
    P, n = X.shape
    step = 1e-6
    grad = np.empty((P, problem.m, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        grad[:, :, i] = (problem.g(X + e) - problem.g(X - e)) / (2.0 * step)
    z = np.zeros((P, problem.m, problem.d))
    for _ in range(_OUTER_MAX):
        b_val = np.asarray(problem.b(problem.T, X, y_term, z), float)
        z_new = np.einsum("pmn,pnd->pmd", grad, b_val)
        change = np.abs(z_new - z)
        if np.max(change) < 1e-13:
            return z_new
        z = z_new
    worst = int(np.argmax(np.max(change.reshape(P, -1), axis=-1)))
    raise OuterDivergence(
        f"terminal Z fixed point did not converge in {_OUTER_MAX} "
        f"iterations at t = {problem.T:.6g}, node x = {X[worst]} "
        f"(last change {float(np.max(change)):.3e}, tol 1.0e-13)"
    )


def initialize_levels(
    problem: FbsdeProblem,
    lattice: Lattice,
    cfg: SolverConfig,
    rule: TensorRule,
    r: int,
    fine_hop: np.ndarray,
) -> tuple[list[ValueLevel], list[tuple[int, int]]]:
    """Fill the top k+m−1 levels (indices n_steps−k−m+2 .. n_steps).

    Returns them nearest level first, the window the main march starts from,
    and the (Picard, outer) iteration counts of each ramp level in marching
    order (none in exact mode).  ``exact`` mode samples the problem's
    closed-form (Y, Z) on the full lattice (raising :class:`MissingAnalytic`
    when there is none).

    ``ramp`` mode is self-starting: the terminal level takes Y = g and the
    gradient relation for Z, and the remaining startup levels come from the
    same march loop as the main solve, on a Δt/S subgrid with
    S = ``init_substeps``.  The march starts from the terminal level alone,
    so the scheme order grows as history becomes available, and every S-th
    fine level is kept.  The terminal level lives on the lattice hull; each
    fine level lives on a window ``fine_hop`` nodes per side narrower than
    the one before, so the ramp reads only computed data, like the main march.
    """
    width = cfg.k + cfg.m_comb - 1
    dt = problem.T / cfg.n_steps
    shape = lattice.shape
    levels: list[ValueLevel] = []

    if cfg.init_mode == "exact":
        if not problem.has_analytic:
            raise MissingAnalytic(
                f"problem {problem.name!r} has no closed-form solution; "
                "use init_mode='ramp'"
            )
        X = lattice.nodes().reshape(-1, lattice.dim)
        for i in range(cfg.n_steps - width + 1, cfg.n_steps + 1):
            t = i * dt
            y = np.asarray(problem.analytic_y(t, X), float)
            z = np.asarray(problem.analytic_z(t, X), float)
            levels.append(ValueLevel(
                lattice=lattice,
                t=t,
                y=y.reshape(shape + (problem.m,)),
                z=z.reshape(shape + (problem.m, problem.d)),
            ))
        return levels, []

    # Self-starting ramp.
    S = cfg.init_substeps
    dt_fine = dt / S
    X = lattice.nodes().reshape(-1, lattice.dim)
    y_term = np.asarray(problem.g(X), float)
    z_term = _terminal_z(problem, X, y_term)
    terminal = ValueLevel(
        lattice=lattice,
        t=problem.T,
        y=y_term.reshape(shape + (problem.m,)),
        z=z_term.reshape(shape + (problem.m, problem.d)),
    )
    levels.append(terminal)
    hull = np.minimum(-lattice.lo, lattice.hi)
    fine = (
        (problem.T - i * dt_fine, hull - i * fine_hop)
        for i in range(1, (width - 1) * S + 1)
    )
    march = _march(problem, cfg, rule, r, [terminal], fine, dt_fine)
    counts: list[tuple[int, int]] = []
    for i, (level, piters, oiters) in enumerate(march, 1):
        counts.append((piters, oiters))
        if i % S == 0:
            levels.insert(0, level)
    return levels, counts


# ---------------------------------------------------------------------------
# Full solve
# ---------------------------------------------------------------------------


def solve(problem: FbsdeProblem, cfg: SolverConfig) -> SolveResult:
    """March the backward scheme from the terminal window down to t = 0.

    The lattice is sized from the query cone: level n > 0 is computed on a
    window lattice of half-width r // 2 + n hops, each hop covering the
    per-level quadrature reach, so no quadrature point leaves computed data;
    one that would raises :class:`~fbsde.lattice.OutOfDomain`.  Every level
    that is read therefore holds a degree-r stencil, centred on each point
    read from x0.  The t = 0 level is only read at x0 and is computed there
    alone.  :func:`initialize_levels` fills the top k+m−1 levels and the
    march loop it shares with the ramp computes the rest with the full
    (k, m_comb) window.  Returns a :class:`SolveResult` with the (m,)-vector
    ``y0`` and the (m, d)-matrix ``z0`` at x0, plus diagnostics: the
    resolved discretization, cone geometry, per-level Picard/outer iteration
    counts of the main march and (``ramp_*``) of the ramp, and wall time.
    """
    start = time.perf_counter()
    k, m_comb = cfg.k, cfg.m_comb
    width = k + m_comb - 1
    dt = problem.T / cfg.n_steps
    r = cfg.r if cfg.r is not None else max(10, k + 1)
    h = dt ** ((k + 1) / (r + 1))
    npts = cfg.gh_points if cfg.gh_points is not None else (10 if problem.n == 1 else 8)
    rule = gauss_hermite_tensor(npts, problem.d)
    q_max = float(np.max(np.abs(rule.points()[0])))

    # Size the cone; coefficient bounds and extent depend on each other, so
    # iterate the sampling until the radius stops growing.
    radius = np.ones(problem.n)
    a_max = b_max = np.zeros(problem.n)
    hop = fine_hop = np.zeros(problem.n, int)
    for _ in range(4):
        a_max, b_max = _coefficient_bounds(problem, radius)
        hop = _hop_indices(a_max, b_max, q_max, dt, h)
        fine_hop = _hop_indices(a_max, b_max, q_max, dt / cfg.init_substeps, h)
        half = r // 2 + cfg.n_steps * hop
        if cfg.init_mode == "ramp":
            half = half + (width - 1) * cfg.init_substeps * fine_hop
        new_radius = half * h
        if np.all(new_radius <= radius):
            break
        radius = new_radius
    lattice = build_lattice(problem.x0, h, radius, r=r)

    first = cfg.n_steps - width
    # Level n > 0 is read by later levels, so its window reaches r // 2 + n
    # hops either side of x0 and holds a degree-r stencil; level 0 is read
    # only at x0.
    halfwidths = [r // 2 + n * hop for n in range(first, 0, -1)]
    halfwidths.append(np.zeros_like(hop))
    window, ramp = initialize_levels(problem, lattice, cfg, rule, r, fine_hop)
    march = _march(
        problem, cfg, rule, r, window,
        zip((n * dt for n in range(first, -1, -1)), halfwidths), dt,
    )
    picard_per_level: list[int] = []
    outer_per_level: list[int] = []
    for level, piters, oiters in march:
        picard_per_level.append(piters)
        if oiters:
            outer_per_level.append(oiters)

    y0 = level.y.reshape(problem.m)
    z0 = level.z.reshape(problem.m, problem.d)
    diagnostics = {
        "problem": problem.name,
        "config": asdict(cfg),
        "dt": dt,
        "h": h,
        "r": r,
        "gh_points": npts,
        "lattice_shape": list(lattice.shape),
        "num_nodes": lattice.num_nodes,
        "radius": radius.tolist(),
        "coefficient_bounds": {"a_max": a_max.tolist(), "b_max": b_max.tolist()},
        "cone_hop_nodes": hop.tolist(),
        "active_halfwidth_first": halfwidths[0].tolist(),
        "levels_marched": first + 1,
        "picard_iterations": picard_per_level,
        "picard_iterations_max": max(picard_per_level, default=0),
        "outer_iterations": outer_per_level,
        "outer_iterations_max": max(outer_per_level, default=0),
        "ramp_picard_iterations": [piters for piters, _ in ramp],
        "ramp_outer_iterations": [oiters for _, oiters in ramp if oiters],
        "wall_time_s": time.perf_counter() - start,
    }
    return SolveResult(y0=y0, z0=z0, diagnostics=diagnostics)
