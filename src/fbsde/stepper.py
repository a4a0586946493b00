"""Backward multi-step time marching for FBSDEs on a spatial lattice.

The solver discretizes [0, T] into `n_steps` uniform levels and marches the
backward pair (Y, Z) from the terminal level toward t = 0.  A level stores
the pair as one array, Y in slot 0 and Z in slots 1..d of its last axis, and
keeps that layout from initialization or its step's seed through the moments
and iterates to the sealed level.  Each new level is computed from a window
of k+m−1 already-sealed future levels:

* conditional expectations E[Y^{n+j}] and E[Y^{n+j} ΔWᵀ] are evaluated with
  Gauss–Hermite quadrature along one-shot Euler predictors of the forward
  process; the coefficients a, b are frozen at (t_n, x, Y, Z) and evaluated
  once per pass for all k+m−1 spans; both moments come in one array,
* one weighted sum of it gives the martingale component Z^n explicitly and
  the known part of the implicit Y relation,
* Y^n solves the implicit multi-step relation by Picard iteration.

One step function computes a level.  With a, b ignoring (Y, Z) a single
frozen-coefficient pass is the level; a coupled problem repeats the pass in an
outer fixed-point loop that refreshes the frozen forward coefficients.  Each
node's (Y, Z) is its own fixed point there, since the frozen a, b at a node
read only that node's iterate, so the loop takes a depth-2 Anderson step per
node and stops once every component's change is small relative to its value.
A step that reads the full k+m−1 levels starts that loop from the quadratic
extrapolation of its three nearest levels.
One march loop in :func:`solve` calls the step for every level that reads
others, in schedule order: the self-starting ramp's and the main march's.
All reductions run in a fixed order with compensated summation, so repeated
runs are bit-identical.

Spatially the scheme lives on an unbounded uniform lattice; a run only ever
touches a finite cone of it.  One schedule lists every level of a solve, and
each level is stored on its own window lattice.  Before the march, one pass
over the schedule walks from t = 0 toward T: the t = 0 level is x0 alone, and
every other window is the index hull of the quadrature points that the levels
reading it launch into it.  The forward step is an Euler step, so those
points are x + a·jΔt ± ‖b‖₁·√(2jΔt)·q_max with a, b evaluated once at the
reading level's own (t, nodes), the values its step freezes; for a decoupled
problem the cone is exact.  Interpolation uses stencils over a window's own
nodes, one-sided near its edge, so values are never extrapolated, clamped, or
read from uncomputed nodes.  A coupled problem's cone is an estimate, so each
read checks it: a quadrature point outside the level's window raises
:class:`~fbsde.lattice.OutOfDomain` naming t_n, the span, the level, the axis
and the overhang in nodes.  Every level is checked finite as it seals, and
every Picard iterate as it is formed: NaN or ±inf raises
:class:`NonFiniteValue` naming t_n and the node.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .fdweights import solve_weights
from .hermite import MAX_POINTS, TensorRule, _integer, gauss_hermite_tensor, kahan_sum
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
    "NonFiniteValue",
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


class NonFiniteValue(FloatingPointError):
    """A level, or an iterate of its implicit Y-update, holds NaN or ±inf."""


def _require_finite(name: str, values: np.ndarray, t: float, x: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` naming t and the first node of ``x``
    (P, n) whose row of ``values`` (P rows, node order) is not all finite."""
    if np.isfinite(values).all():
        return
    rows = values.reshape(len(x), -1)
    i = int(np.argmin(np.isfinite(rows).all(axis=1)))
    raise NonFiniteValue(f"non-finite {name} at t = {t:.6g}, node x = {x[i]}: {rows[i]}")


def _sealed(level: ValueLevel) -> ValueLevel:
    """``level`` itself, read-only, once every Y and Z on it is finite;
    otherwise :class:`NonFiniteValue` names its t and the first node that is
    not.  Read-only because the next step's first iterate may be a view of
    it, and every later level reads it."""
    if not np.isfinite(level.yz).all():
        x = level.lattice.nodes().reshape(-1, level.lattice.dim)
        _require_finite("Y", level.yz[..., 0], level.t, x)
        _require_finite("Z", level.yz[..., 1:], level.t, x)
    level.yz.flags.writeable = False
    return level


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


@dataclass(frozen=True)
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
    ``_OUTER_TOL``/``_OUTER_MAX``).  Building a config checks every field,
    and nothing else checks them: an integer field must be an integer in its
    :data:`_INTEGER_RANGES` range, n_steps at least k + m_comb − 1 and
    ``init_mode`` 'exact' or 'ramp'.  A non-integer (a bool too) raises
    TypeError and any other bad value ValueError, naming the field.  Integer
    fields are stored as ``operator.index`` of their values, so ``asdict``
    of a config holds plain ints.  A config is frozen, so the checked values
    are the ones a solve reads: ``dataclasses.replace`` makes a changed copy.
    """

    k: int
    n_steps: int
    m_comb: int = 4
    r: int | None = None
    gh_points: int | None = None
    init_mode: str = "exact"
    init_substeps: int = 1

    def __post_init__(self) -> None:
        for name, (low, high) in _INTEGER_RANGES.items():
            value = getattr(self, name)
            if value is None and name in ("r", "gh_points"):
                continue
            value = _integer(name, value)
            if not low <= value <= high:
                raise ValueError(f"{name} must be in {low}..{high}, got {value}")
            object.__setattr__(self, name, value)
        if self.n_steps < self.k + self.m_comb - 1:
            raise ValueError(
                f"n_steps must be at least k + m_comb - 1 = {self.k + self.m_comb - 1} "
                f"at (k, n_steps) = ({self.k}, {self.n_steps})"
            )
        if self.init_mode not in ("exact", "ramp"):
            raise ValueError(f"init_mode must be 'exact' or 'ramp', got {self.init_mode!r}")


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
    j: int | np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points of the one-shot Euler predictor over spans of j steps.

    With coefficients frozen at a_val = a(t_n, x, y, z) and
    b_val = b(t_n, x, y, z), the predictor at t_n + jΔt is x + a·jΔt + b·ΔW
    where ΔW ~ N(0, jΔt·I_d).  Substituting ΔW = √(2jΔt)·q at the
    Gauss–Hermite abscissae q gives the integration nodes; an expectation of
    any function of the predictor is then π^{−d/2}·Σ_q ω_q·(value at node q).

    Parameters
    ----------
    x : (P, n) base points; a_val : (P, n); b_val : (P, n, d);
    q : (Q, d) Gauss–Hermite abscissae; j : one span, or an array of spans,
        each computed as it would be alone.

    Returns
    -------
    nodes : j.shape + (Q, P, n) integration points in state space, quadrature
        index outermost within a span, so the values read at them come out
        in the layout the quadrature sums take
    dw : j.shape + (Q, d) the Brownian increments √(2jΔt)·q, shared by every
        base point
    """
    j = np.asarray(j)
    if np.any(j < 1):
        raise ValueError(f"span j must be >= 1, got {j}")
    dw = np.sqrt(2.0 * j * dt)[..., None, None] * q
    drifted = x + a_val * (j * dt)[..., None, None]
    nodes = drifted[..., None, :, :] + np.einsum("pnd,...qd->...qpn", b_val, dw)
    return nodes, dw


def conditional_expectations(
    window: Sequence[ValueLevel],
    x: np.ndarray,
    t_n: float,
    dt: float,
    problem: FbsdeProblem,
    yz: np.ndarray,
    rule: TensorRule,
    r: int,
) -> np.ndarray:
    """(E[Y^{n+j}], E[Y^{n+j} ΔWᵀ]) for j = 1..len(window), batched over x.

    ``window[j-1]`` holds sealed level n+j, whose Y (slot 0 of its (Y, Z)
    array) is interpolated on its own lattice.  The forward coefficients
    are frozen at (t_n, x) and the iterate ``yz`` and evaluated once for all
    spans.  The spans go in groups that fit ``lattice._BLOCK_BYTES`` (one
    span at least), a span taking Q·P·(m·(2+d) + 2n)·8 B: its terms, the Y
    values read, its Euler points and the kernel's index coordinates of
    them.  A group gets its points from one :func:`euler_points` call, is
    read in one :func:`~fbsde.lattice.interpolate_values` call, each span on
    its own level, and the kernel alone cuts the queries into blocks.  The
    values read at the quadrature nodes serve both moments, whose terms are
    laid out quadrature index outermost, (Q, spans, P, m, 1+d), and summed
    by one compensated :func:`~fbsde.hermite.kahan_sum` per group in fixed q
    order.  A span's points reach the kernel ordered (quadrature point,
    window node), the window's last axis innermost, so where a and b read
    only their own axis they come in runs of one window row, which the
    kernel weights on the leading axes once per run.  The terms buffer is
    this thread's ``lattice._scratch`` buffer, reused from call to call; the
    returned moments are a fresh array.  Each sum and each read is
    elementwise, so the grouping never changes a bit.  A quadrature point
    outside the lattice of the level it reads raises
    :class:`~fbsde.lattice.OutOfDomain` naming t_n, the span, the level's t,
    the axis and the overhang in nodes.

    Parameters
    ----------
    x : (P, n) base points; yz : (P, m, 1+d) iterate, Y in slot 0 and Z in
    slots 1..d.

    Returns
    -------
    (spans, P, m, 1+d) moments: ``[j-1, ..., 0]`` is E[Y^{n+j}] and
    ``[j-1, ..., 1:]`` is E[Y^{n+j} ΔWᵀ].
    """
    P, m = yz.shape[:2]
    n = x.shape[1]
    norm = math.pi ** (-rule.dim / 2.0)
    a_val = np.asarray(problem.a(t_n, x, yz[..., 0], yz[..., 1:]), float)
    b_val = np.asarray(problem.b(t_n, x, yz[..., 0], yz[..., 1:]), float)
    q, w = rule.points()
    Q, d = q.shape
    group = max(1, _lattice._BLOCK_BYTES // (Q * P * (m * (2 + d) + 2 * n) * 8))
    moments = np.empty((len(window), P, m, 1 + d))
    for first in range(0, len(window), group):
        levels = window[first : first + group]
        G = len(levels)
        j = np.arange(first + 1, first + 1 + G)
        nodes, dw = euler_points(x, a_val, b_val, q, j, dt)
        try:
            vals = interpolate_values(
                levels[0].lattice, levels[0].yz[..., 0], nodes.reshape(G, Q * P, n), r,
                more=[(level.lattice, level.yz[..., 0]) for level in levels[1:]],
            )
        except OutOfDomain as err:
            raise OutOfDomain(
                f"query cone too small at t = {t_n:.6g}, span j={j[err.level]}, "
                f"reading level t = {levels[err.level].t:.6g}: {err}"
            ) from err
        # Values come level-major; the terms take them quadrature-major.
        terms = _lattice._scratch("terms", (Q, G, P, m, 1 + d), float)
        vals = vals.reshape(G, Q, P, m).swapaxes(0, 1)
        weighted = np.multiply(vals, w[:, None, None, None], out=terms[..., 0])
        np.multiply(weighted[..., None], dw.swapaxes(0, 1)[:, :, None, None, :], out=terms[..., 1:])
        np.multiply(norm, kahan_sum(terms), out=moments[first : first + G])
    return moments


def z_update(moments: np.ndarray, coeffs: np.ndarray, dt: float) -> np.ndarray:
    """(rhs, Z^n) in one (P, m, 1+d) array from one compensated sum over j ≥ 1.

    ``[..., 0]`` is rhs = Σ c_j·E[Y^{n+j}] and ``[..., 1:]`` the explicit
    Z^n = (1/Δt)·Σ c_j·E[Y^{n+j} ΔWᵀ], with ``moments`` as returned by
    :func:`conditional_expectations` and ``coeffs`` the scaled window sums
    c_0..c_{k+m−1}; c_0 multiplies the unknown level and is not used here.
    """
    sums = kahan_sum(coeffs[1:, None, None, None] * moments)
    sums[..., 1:] /= dt
    return sums


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
    relation comes back unchanged; raises :class:`NonFiniteValue` at the
    first iterate holding NaN or ±inf, and :class:`PicardDivergence` after
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
        _require_finite(f"Y (Picard iterate {it})", y_new, t_n, x)
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


def _cut(outer: Lattice, inner: Lattice) -> tuple[slice, ...] | None:
    """The slices of ``outer``'s node array that hold ``inner``'s nodes, both
    with one origin and spacing, or None where ``inner`` reaches past
    ``outer`` on some axis."""
    if np.any(inner.lo < outer.lo) or np.any(inner.hi > outer.hi):
        return None
    return tuple(
        slice(int(lo), int(hi) + 1) for lo, hi in zip(inner.lo - outer.lo, inner.hi - outer.lo)
    )


def _anderson_step(
    g: np.ndarray,
    f: np.ndarray,
    g_prev: np.ndarray,
    f_prev: np.ndarray,
    g_older: np.ndarray | None = None,
    f_older: np.ndarray | None = None,
) -> np.ndarray:
    """Anderson iterate of a fixed point x = G(x), one per row: depth 2, or
    depth 1 without the ``*_older`` pair.

    ``g`` = G(x_k) and ``f`` = g − x_k are the current pass's image and
    residual, ``g_prev``, ``f_prev`` the previous pass's and ``g_older``,
    ``f_older`` the one before; every row is its own problem, shape
    (P, unknowns).  With the differences Δf_k = f − f_prev,
    Δf_{k−1} = f_prev − f_older and likewise Δg, the next iterate is
    g − [Δg_k, Δg_{k−1}]·γ, where γ minimizes ‖f − [Δf_k, Δf_{k−1}]·γ‖ per row
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011).  The 2×2 normal equations
    are solved in closed form, elementwise over rows.  A row whose system is
    singular, det ≤ 1e-26·‖Δf_k‖²·‖Δf_{k−1}‖², takes the depth-1 step
    g − γ₁·Δg_k with γ₁ = ⟨Δf_k, f⟩ / ‖Δf_k‖², and a row whose residual did
    not change the plain step g.
    """
    df = f - f_prev
    dg = g - g_prev
    a11 = np.sum(df * df, axis=1)
    b1 = np.sum(df * f, axis=1)
    gamma = np.divide(b1, a11, out=np.zeros_like(b1), where=a11 > 0.0)
    if g_older is None:
        return g - gamma[:, None] * dg
    df_prev = f_prev - f_older
    a22 = np.sum(df_prev * df_prev, axis=1)
    a12 = np.sum(df * df_prev, axis=1)
    b2 = np.sum(df_prev * f, axis=1)
    det = a11 * a22 - a12 * a12
    solvable = det > 1e-26 * a11 * a22
    gamma = np.divide(a22 * b1 - a12 * b2, det, out=gamma, where=solvable)
    gamma_prev = np.divide(a11 * b2 - a12 * b1, det, out=np.zeros_like(b2), where=solvable)
    return g - gamma[:, None] * dg - gamma_prev[:, None] * (g_prev - g_older)


def step_coupled(
    window: Sequence[ValueLevel],
    t_n: float,
    dt: float,
    problem: FbsdeProblem,
    coeffs: np.ndarray,
    rule: TensorRule,
    r: int,
    target: Lattice,
    extrapolate: bool = False,
) -> tuple[ValueLevel, int, int]:
    """Compute level n on the nodes of ``target``, its computed window.

    ``window`` holds sealed levels n+1, n+2, … in ascending order and
    ``coeffs`` the matching scaled window-sum weights.  ``target`` shares the
    levels' origin and spacing and lies inside level n+1's lattice.
    Quadrature points launched from its nodes must land on the lattice of the
    level they read; the march sizes the windows so this holds, and the read
    raises :class:`~fbsde.lattice.OutOfDomain` if not.

    A pass freezes a, b at the current (Y, Z) iterate x_k and applies the
    explicit Z-update and then the implicit Y-update, giving g_k = G(x_k).
    When a, b ignore (Y, Z) the first pass, from the level n+1 values, is
    the level.  A coupled problem repeats the pass until every component of
    every node changes by at most ``_OUTER_TOL``·(1 + |g_k|) between x_k and
    g_k, and returns that g_k.  With ``extrapolate`` (the march sets it on a
    step that reads the full k+m−1 levels) the first iterate is the
    quadratic extrapolation x_1 = 3·L₁ − 3·L₂ + L₃ of levels n+1, n+2 and
    n+3 on the target's nodes, or the level n+1 values where the target is
    not inside all three windows; otherwise it is the level n+1 values.  The
    first pass seeds the Y-update from level n+1's Y and later passes from
    x_k's Y, so a coupled-flagged decoupled problem returns the decoupled
    level bit for bit.  The next iterate is the plain g_1 after the first
    pass and the per-node Anderson step of :func:`_anderson_step` after
    later ones, of depth 1 after the second pass and depth 2 from the third
    on; on ``example2`` this takes 4 passes per level where the plain loop
    takes about 29.  After ``_OUTER_MAX`` passes it raises
    :class:`OuterDivergence`, naming the node with the largest relative
    change in the last pass.  Iterates keep the levels' and the moments'
    (P, m, 1+d) layout: the first is a slice of level n+1's array or the
    extrapolation of three, the Y-update overwrites the rhs slot of
    :func:`z_update`'s array with Y, and the level seals as a reshape of
    the last one.

    Returns (level on ``target``, Picard iterations of the last pass, outer
    iterations); the outer count is 0 for a decoupled problem, which runs no
    outer loop.
    """
    X = target.nodes().reshape(-1, target.dim)
    P = X.shape[0]
    layout = window[0].yz.shape[-2:]  # (m, 1+d)
    cur = window[0].yz[_cut(window[0].lattice, target)].reshape(P, *layout)
    y_seed = cur[..., 0]
    if extrapolate and problem.coupled:
        cuts = [_cut(level.lattice, target) for level in window[1:3]]
        if None not in cuts:
            l2, l3 = (level.yz[cut].reshape(P, *layout) for level, cut in zip(window[1:], cuts))
            cur = 3.0 * cur - 3.0 * l2 + l3
    past: list[np.ndarray] = []  # g, f of the previous pass, then of the one before
    for outer in range(1, _OUTER_MAX + 1):
        moments = conditional_expectations(window, X, t_n, dt, problem, cur, rule, r)
        new = z_update(moments, coeffs, dt)
        new[..., 0], iters = y_update(
            new[..., 0], coeffs[0], dt, t_n, X, new[..., 1:], problem.f, y_seed
        )
        if not problem.coupled:
            break
        # Each node's (Y, Z) image g and residual f; the test is y_update's,
        # every component's change relative to its new value.
        g = new.reshape(P, -1)
        f = g - cur.reshape(P, -1)
        change = np.max(np.abs(f) / (1.0 + np.abs(g)), axis=1)
        if np.all(change <= _OUTER_TOL):
            break
        x_next = _anderson_step(g, f, *past) if past else g
        past = [g, f, *past[:2]]
        cur = x_next.reshape(P, *layout)
        y_seed = cur[..., 0]
    else:
        worst = int(np.argmax(change))
        raise OuterDivergence(
            f"coupled outer loop did not converge in {_OUTER_MAX} iterations "
            f"at t = {t_n:.6g}, node x = {X[worst]} "
            f"(last change {float(change[worst]):.3e} relative, tol {_OUTER_TOL:.1e})"
        )
    level = ValueLevel(lattice=target, t=t_n, yz=new.reshape(target.shape + layout))
    return level, iters, outer if problem.coupled else 0


#: The one level step under its decoupled name, which ``perfbench`` traces.
step_decoupled = step_coupled


# ---------------------------------------------------------------------------
# Schedule and query cone
# ---------------------------------------------------------------------------

#: A level of a solve: (t, Δt, schedule indices of the levels it reads,
#: nearest first); one that reads none is initialized, not marched.
Entry = tuple[float, float, tuple[int, ...]]

#: Nodes of slack per window side beyond the farthest expected quadrature
#: point: rounding, and on coupled problems the outer loop's iterates.
_CONE_MARGIN = 0.25


def _schedule(problem: FbsdeProblem, cfg: SolverConfig) -> list[Entry]:
    """Every level of a solve in marching order, from T down to t = 0.

    ``exact`` mode initializes the top k+m−1 levels of the Δt grid.  ``ramp``
    mode initializes the terminal level alone; its (k+m−2)·S fine levels
    Δt/S apart each read up to k+m−1 levels above them, and every S-th lies
    on the grid.  Each main-march level reads the k+m−1 grid levels above it.
    """
    width = cfg.k + cfg.m_comb - 1
    dt = problem.T / cfg.n_steps
    if cfg.init_mode == "exact":
        entries = [(i * dt, dt, ()) for i in range(cfg.n_steps, cfg.n_steps - width, -1)]
        grid = list(range(width))
    else:
        S = cfg.init_substeps
        dt_fine = dt / S
        entries = [(problem.T, dt_fine, ())]
        entries.extend(
            (problem.T - i * dt_fine, dt_fine, tuple(range(i - 1, max(i - width, 0) - 1, -1)))
            for i in range(1, (width - 1) * S + 1)
        )
        grid = list(range(0, (width - 1) * S + 1, S))
    for n in range(cfg.n_steps - width, -1, -1):
        entries.append((n * dt, dt, tuple(grid[: -width - 1 : -1])))
        grid.append(len(entries) - 1)
    return entries


def _cone(
    problem: FbsdeProblem, schedule: Sequence[Entry], r: int, h: float, q_max: float
) -> list[Lattice]:
    """The window lattice of every schedule entry, sized from the march's reads.

    Walks the schedule from t = 0, which is x0 alone, toward T.  Every other
    window is the index hull of the quadrature points launched into it,
    widened by ``_CONE_MARGIN`` node per side and rounded outward, then to
    hold the origin, the window of every level it seeds (a step starts from
    its nearest level's values), and evenly to r+1 nodes per axis.  Building
    it raises :class:`~fbsde.lattice.TooManyNodes` before anything is
    evaluated on it.  Then a, b are evaluated at the entry's (t, nodes) and
    each span j's reach x + a·jΔt ± ‖b‖₁·√(2jΔt)·q_max joins the needs of the
    level it reads: exactly what a decoupled step freezes.  A coupled problem
    takes (Y, Z) from its closed form, or else from the terminal data: g and
    the gradient relation for Z.
    """
    origin = np.asarray(problem.x0, float)
    # Terminal data is a rough (Y, Z) away from T, so a coupled problem
    # without a closed form widens each reach by half of |a| and ‖b‖₁.
    slack = 0.5 if problem.coupled and not problem.has_analytic else 0.0
    size = (len(schedule), problem.n)
    need_lo, need_hi = np.full(size, np.inf), np.full(size, -np.inf)
    keep_lo, keep_hi = np.zeros(size), np.zeros(size)  # origin and seeded windows
    windows: list[Lattice] = [None] * len(schedule)
    for e in range(len(schedule) - 1, -1, -1):
        t, dt, reads = schedule[e]
        lo = np.minimum(np.floor(need_lo[e] - _CONE_MARGIN), keep_lo[e]).astype(int)
        hi = np.maximum(np.ceil(need_hi[e] + _CONE_MARGIN), keep_hi[e]).astype(int)
        if e < len(schedule) - 1:
            short = np.maximum(r + 1 - (hi - lo + 1), 0)
            lo -= short // 2
            hi += short - short // 2
        windows[e] = Lattice(origin=origin, h=h, lo=lo, hi=hi)
        if not reads:
            continue
        keep_lo[reads[0]] = np.minimum(keep_lo[reads[0]], lo)
        keep_hi[reads[0]] = np.maximum(keep_hi[reads[0]], hi)
        X = windows[e].nodes().reshape(-1, problem.n)
        y = z = None
        if problem.coupled:
            yz = _unmarched_yz(problem, t, X, problem.has_analytic)
            y, z = yz[..., 0], yz[..., 1:]
        a_val = np.asarray(problem.a(t, X, y, z), float)
        b_sum = np.sum(np.abs(np.asarray(problem.b(t, X, y, z), float)), axis=-1)
        j_dt = np.arange(1, len(reads) + 1)[:, None, None] * dt  # a row per span j
        centre = (X + a_val * j_dt - origin) / h
        spread = b_sum * (np.sqrt(2.0 * j_dt) * q_max / h)
        spread += slack * (spread + np.abs(a_val) * (j_dt / h))
        read = list(reads)
        need_lo[read] = np.minimum(need_lo[read], np.min(centre - spread, axis=1))
        need_hi[read] = np.maximum(need_hi[read], np.max(centre + spread, axis=1))
    return windows


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _unmarched_yz(
    problem: FbsdeProblem, t: float, X: np.ndarray, closed_form: bool
) -> np.ndarray:
    """(Y, Z) at (t, X) of a level no march computes, as one (P, m, 1+d)
    array with Y in slot 0: the closed form, or else the terminal data
    Y = g(x) and Z = ∇g(x)·b(T, x, g(x), Z) by an FD gradient and a fixed
    point that stops once every component's change is below
    1e-13·max(1, |Z|) (:class:`OuterDivergence` after ``_OUTER_MAX``
    passes)."""
    P, n = X.shape
    yz = np.zeros((P, problem.m, 1 + problem.d))
    if closed_form:
        yz[..., 0], yz[..., 1:] = problem.analytic_y(t, X), problem.analytic_z(t, X)
        return yz
    yz[..., 0] = problem.g(X)
    step = 1e-6
    grad = np.empty((P, problem.m, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        grad[:, :, i] = (problem.g(X + e) - problem.g(X - e)) / (2.0 * step)
    for _ in range(_OUTER_MAX):
        b_val = np.asarray(problem.b(problem.T, X, yz[..., 0], yz[..., 1:]), float)
        z_new = np.einsum("pmn,pnd->pmd", grad, b_val)
        change = np.abs(z_new - yz[..., 1:]) / np.maximum(1.0, np.abs(z_new))
        yz[..., 1:] = z_new
        if np.max(change) < 1e-13:
            return yz
    worst = int(np.argmax(np.max(change.reshape(P, -1), axis=-1)))
    raise OuterDivergence(
        f"terminal Z fixed point did not converge in {_OUTER_MAX} "
        f"iterations at t = {problem.T:.6g}, node x = {X[worst]} "
        f"(last change {float(np.max(change)):.3e} relative to max(1, |Z|), tol 1.0e-13)"
    )


def initialize_levels(
    problem: FbsdeProblem,
    cfg: SolverConfig,
    schedule: Sequence[Entry],
    windows: Sequence[Lattice],
) -> dict[int, ValueLevel]:
    """The sealed levels of the schedule entries that read no level, by
    schedule index, each on its own window.

    ``exact`` mode samples the closed-form (Y, Z) on the top k+m−1 levels of
    the Δt grid, which :func:`solve` checks exists.  ``ramp`` mode is
    self-starting: the terminal level alone takes Y = g and the gradient
    relation for Z, and :func:`solve` marches the ramp's fine levels from
    it.  An initialized level holding NaN or ±inf raises
    :class:`NonFiniteValue`, as a marched one does.
    """
    levels: dict[int, ValueLevel] = {}
    for e in (e for e, (_, _, reads) in enumerate(schedule) if not reads):
        t, window = schedule[e][0], windows[e]
        X = window.nodes().reshape(-1, window.dim)
        yz = _unmarched_yz(problem, t, X, cfg.init_mode == "exact")
        levels[e] = _sealed(
            ValueLevel(lattice=window, t=t, yz=yz.reshape(window.shape + yz.shape[1:]))
        )
    return levels


# ---------------------------------------------------------------------------
# Full solve
# ---------------------------------------------------------------------------


def solve(problem: FbsdeProblem, cfg: SolverConfig) -> SolveResult:
    """March the backward scheme from the terminal levels down to t = 0.

    :func:`_cone` sizes each level of :func:`_schedule` a window that holds
    every quadrature point read from it and at least a degree-r stencil;
    the t = 0 level is x0 alone.  :func:`build_lattice` builds the
    x0-centred hull of all windows, which the diagnostics report.
    :func:`initialize_levels` fills the levels that read no other, and one
    march loop steps every other level in schedule order, the ramp's fine
    levels and the main march's alike.  Each steps on its window from the
    levels it reads and joins them once sealed; a level is dropped once its
    last reader has sealed.  Reading ℓ levels uses the weight row
    k′ = min(k, ℓ), m′ = ℓ+1−k′: (k, m_comb) on a full read, and a growing
    order on the ramp's short ones.  Only a full read lets a coupled step
    start from extrapolated values.

    Exact init of a problem without a closed form raises
    :class:`MissingAnalytic` before any of that, and a level or Picard
    iterate holding NaN or ±inf raises :class:`NonFiniteValue` naming its t
    and node, so a solve never returns a non-finite value.  Returns a
    :class:`SolveResult` with the (m,)-vector ``y0`` and the (m, d)-matrix
    ``z0`` at x0, plus diagnostics: the resolved discretization, the hull,
    per-level Picard/outer iteration counts of the main march and
    (``ramp_*``) of the ramp, and wall time.
    """
    start = time.perf_counter()
    if cfg.init_mode == "exact" and not problem.has_analytic:
        raise MissingAnalytic(
            f"problem {problem.name!r} has no closed-form solution; "
            "use init_mode='ramp'"
        )
    k = cfg.k
    dt = problem.T / cfg.n_steps
    r = cfg.r if cfg.r is not None else max(10, k + 1)
    h = dt ** ((k + 1) / (r + 1))
    npts = cfg.gh_points if cfg.gh_points is not None else (10 if problem.n == 1 else 8)
    rule = gauss_hermite_tensor(npts, problem.d)
    q_max = float(np.max(np.abs(rule.points()[0])))

    schedule = _schedule(problem, cfg)
    windows = _cone(problem, schedule, r, h, q_max)
    half = np.max([np.maximum(-w.lo, w.hi) for w in windows], axis=0)
    lattice = build_lattice(problem.x0, h, half * h, r=r)

    levels = initialize_levels(problem, cfg, schedule, windows)
    last_reader = {i: e for e, (_, _, reads) in enumerate(schedule) for i in reads}
    rows: dict[tuple[int, int], np.ndarray] = {}
    picard: list[int] = []
    outer: list[int] = []  # stays empty when decoupled: its steps report 0
    for e in range(len(levels), len(schedule)):
        t_n, dt_n, reads = schedule[e]
        k_eff = min(k, len(reads))
        m_eff = len(reads) + 1 - k_eff
        if (k_eff, m_eff) not in rows:
            rows[k_eff, m_eff] = np.array(
                [float(c) for c in solve_weights(k_eff, m_eff).window_sums()],
                dtype=float,
            )
        level, piters, oiters = step_coupled(
            [levels[i] for i in reads], t_n, dt_n, problem, rows[k_eff, m_eff], rule, r,
            windows[e], len(reads) == k + cfg.m_comb - 1,
        )
        for i in reads:
            if last_reader[i] == e:
                del levels[i]
        levels[e] = _sealed(level)
        picard.append(piters)
        if oiters:
            outer.append(oiters)

    marched = cfg.n_steps - k - cfg.m_comb + 2
    yz0 = level.yz.reshape(problem.m, 1 + problem.d)
    y0, z0 = yz0[:, 0].copy(), yz0[:, 1:].copy()
    diagnostics = {
        "problem": problem.name,
        "config": asdict(cfg),
        "dt": dt,
        "h": h,
        "r": r,
        "gh_points": npts,
        "lattice_shape": list(lattice.shape),
        "num_nodes": lattice.num_nodes,
        "levels_marched": marched,
        "picard_iterations": picard[-marched:],
        "picard_iterations_max": max(picard[-marched:]),
        "outer_iterations": outer[-marched:],
        "outer_iterations_max": max(outer[-marched:], default=0),
        "ramp_picard_iterations": picard[:-marched],
        "ramp_outer_iterations": outer[:-marched],
        "wall_time_s": time.perf_counter() - start,
    }
    return SolveResult(y0=y0, z0=z0, diagnostics=diagnostics)
