"""Backward multi-step time marching for FBSDEs on a spatial lattice.

The solver discretizes [0, T] into `n_steps` uniform levels and marches the
backward pair (Y, Z) from the terminal level toward t = 0.  Each new level is
computed from a window of k+m−1 already-sealed future levels:

* conditional expectations E[Y^{n+j}] and E[Y^{n+j} ΔWᵀ] are evaluated with
  Gauss–Hermite quadrature along one-shot Euler predictors of the forward
  process (coefficients frozen at t_n),
* the martingale component Z^n comes from an explicit weighted combination of
  the E[Y ΔWᵀ] terms,
* Y^n solves the implicit multi-step relation by Picard iteration.

One step function computes a level.  With a, b ignoring (Y, Z) a single
frozen-coefficient pass is the level; a coupled problem repeats the pass in an
outer fixed-point loop that refreshes the frozen forward coefficients.  One
march loop calls it, both for the self-starting ramp and for the main march.
All reductions run in a fixed order with compensated summation, so repeated
runs are bit-identical.

Spatially the scheme lives on an unbounded uniform lattice; a run only ever
touches a finite cone of it.  Level n is computed on nodes within an active
window around x0 that shrinks as the march approaches t = 0: the window at
level n exceeds the window at level n−1 by enough nodes that every quadrature
point launched from an active node — and the full interpolation stencil
around it — lands inside the active window of the level it reads.  Values
are therefore never extrapolated, clamped, or read from uninitialized nodes;
entries outside a level's window are NaN and unreachable by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .fdweights import solve_weights
from .hermite import TensorRule, gauss_hermite_tensor, kahan_sum
from .lattice import (
    Lattice,
    OutOfDomain,
    TooFewNodes,
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


@dataclass
class SolverConfig:
    """Knobs for one solve.

    Derived defaults (resolved against the problem at solve time):

    * ``r``          — interpolation degree, max(10, k + 1)
    * ``h``          — lattice spacing, Δt^((k+1)/(r+1)), balancing the
                       spatial error h^(r+1) against the time error Δt^(k+1)
    * ``gh_points``  — quadrature nodes per Brownian axis: 10 when the state
                       is scalar, 8 otherwise
    """

    k: int
    n_steps: int
    m_comb: int = 4
    r: int | None = None
    h: float | None = None
    gh_points: int | None = None
    picard_tol: float = 1e-14
    picard_max: int = 100
    epsilon0: float = 1e-12
    outer_max: int = 200
    init_mode: str = "exact"
    init_substeps: int = 1
    max_nodes: int = 100_000_000

    def __post_init__(self) -> None:
        if not 3 <= self.k <= 9:
            raise ValueError(f"k must be in 3..9, got {self.k}")
        if self.m_comb < 1:
            raise ValueError(f"m_comb must be >= 1, got {self.m_comb}")
        if self.n_steps < self.k + self.m_comb - 1:
            raise ValueError(
                f"n_steps must be at least k + m_comb - 1 = "
                f"{self.k + self.m_comb - 1}, got {self.n_steps}"
            )
        if self.init_mode not in ("exact", "ramp"):
            raise ValueError(
                f"init_mode must be 'exact' or 'ramp', got {self.init_mode!r}"
            )
        if self.init_substeps < 1:
            raise ValueError(f"init_substeps must be >= 1, got {self.init_substeps}")
        for name in ("picard_max", "outer_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("picard_tol", "epsilon0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


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
    t_n: float,
    j: int,
    dt: float,
    problem: FbsdeProblem,
    y: np.ndarray | None,
    z: np.ndarray | None,
    rule: TensorRule,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadrature points of the one-shot Euler predictor over a span of j steps.

    With coefficients frozen at (t_n, x, y, z), the predictor at t_n + jΔt is
    x + a·jΔt + b·ΔW where ΔW ~ N(0, jΔt·I_d).  Substituting ΔW = √(2jΔt)·q
    at the Gauss–Hermite abscissae q gives the integration nodes; an
    expectation of any function of the predictor is then
    π^{−d/2}·Σ_q ω_q·(value at node q).  Decoupled problems ignore (y, z).

    Parameters
    ----------
    x : (..., n) base points; y : (..., m); z : (..., m, d).

    Returns
    -------
    nodes : (..., Q, n) integration points in state space
    weights : (Q,) Gauss–Hermite weights (multiply results by π^{−d/2})
    dw : (..., Q, d) the Brownian increments √(2jΔt)·q at each node
    """
    if j < 1:
        raise ValueError(f"span j must be >= 1, got {j}")
    a_val = np.asarray(problem.a(t_n, x, y, z), float)
    b_val = np.asarray(problem.b(t_n, x, y, z), float)
    q, w = rule.points()
    dw = math.sqrt(2.0 * j * dt) * q
    drifted = x + a_val * (j * dt)
    nodes = drifted[..., None, :] + np.einsum("...nd,qd->...qn", b_val, dw)
    dw_full = np.broadcast_to(dw, x.shape[:-1] + dw.shape)
    return nodes, w, dw_full


def _level_expectations(
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

    ``window[j-1]`` holds sealed level n+j.  The interpolated level values at
    the quadrature nodes are computed once per (x, j, q) and reused by both
    moments.  Quadrature sums are compensated and run in fixed (j, q) order.
    Returns pairs with shapes (P, m) and (P, m, d).
    """
    lattice = window[0].lattice
    P = x.shape[0]
    m = window[0].m
    norm = math.pi ** (-rule.dim / 2.0)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    for j in range(1, len(window) + 1):
        level = window[j - 1]
        nodes, w, dw = euler_points(x, t_n, j, dt, problem, y, z, rule)
        flat = nodes.reshape(-1, lattice.dim)
        try:
            vals = interpolate_values(lattice, level.y, flat, r)
        except OutOfDomain as exc:
            raise OutOfDomain(f"quadrature point for span j={j}: {exc}") from None
        weighted = vals.reshape(P, -1, m) * w[None, :, None]
        ey = norm * kahan_sum(np.moveaxis(weighted, 1, 0))
        prod = weighted[..., None] * dw[:, :, None, :]
        eyw = norm * kahan_sum(np.moveaxis(prod, 1, 0))
        out.append((ey, eyw))
    return out


def conditional_expectations(
    window: Sequence[ValueLevel],
    x: np.ndarray,
    t_n: float,
    j: int,
    problem: FbsdeProblem,
    rule: TensorRule,
    r: int,
    y: np.ndarray | None = None,
    z: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional expectations (E[Y^{n+j}], E[Y^{n+j} ΔWᵀ]) at one point.

    ``window`` is the ascending list of sealed levels n+1, n+2, …; the step
    size is recovered from window[0].t − t_n.  When (y, z) are omitted they
    are read from level n+1 at x, which is the coefficient freeze used to
    start a coupled step.  Out-of-hull quadrature points raise
    :class:`~fbsde.lattice.OutOfDomain` with the span attached.

    Returns (Ey, EyW) with shapes (m,) and (m, d).
    """
    if not 1 <= j <= len(window):
        raise ValueError(f"span j must be in 1..{len(window)}, got {j}")
    x = np.atleast_2d(np.asarray(x, float))
    dt = window[0].t - t_n
    lattice = window[0].lattice
    near = window[0]
    if y is None:
        y = interpolate_values(lattice, near.y, x, r)
    else:
        y = np.atleast_2d(np.asarray(y, float))
    if z is None:
        z = interpolate_values(lattice, near.z, x, r)
    else:
        z = np.asarray(z, float).reshape(x.shape[0], near.m, near.d)
    pairs = _level_expectations(window[:j], x, t_n, dt, problem, y, z, rule, r)
    ey, eyw = pairs[j - 1]
    return ey[0], eyw[0]


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
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, int]:
    """Solve the implicit relation c0·Y + rhs + Δt·f(t_n, x, Y, Z) = 0 by Picard.

    ``rhs`` is the already-weighted sum Σ_{j≥1} c_j·E[Y^{n+j}], shape (P, m).
    Iterates Y ← −(rhs + Δt·f)/c0 from ``y_seed`` until the update falls below
    ``tol`` (absolute, plus relative in the same factor) at every point.  When
    f is constant in Y the first evaluation already lands on the fixed point
    and the second merely confirms it.

    Returns (Y, iterations taken).
    """
    y = np.array(y_seed, dtype=float, copy=True)
    delta = np.zeros_like(y)
    for it in range(1, max_iter + 1):
        f_val = np.asarray(f(t_n, x, y, z_val), float)
        y_new = -(rhs + dt * f_val) / c0
        delta = np.abs(y_new - y)
        y = y_new
        if np.all(delta <= tol * (1.0 + np.abs(y_new))):
            return y, it
    worst = int(np.argmax(np.max(delta, axis=-1)))
    raise PicardDivergence(
        f"implicit update did not converge in {max_iter} iterations at "
        f"t = {t_n:.6g}, node x = {x[worst]} "
        f"(last update {float(np.max(delta)):.3e}, tol {tol:.1e})"
    )


# ---------------------------------------------------------------------------
# Level steps
# ---------------------------------------------------------------------------


def _window_nodes(lattice: Lattice, active: tuple[slice, ...]) -> np.ndarray:
    coords = [lattice.axis_coords(ax)[active[ax]] for ax in range(lattice.dim)]
    grids = np.meshgrid(*coords, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _advance(
    window: Sequence[ValueLevel],
    t_n: float,
    dt: float,
    problem: FbsdeProblem,
    coeffs: np.ndarray,
    rule: TensorRule,
    r: int,
    picard_tol: float,
    picard_max: int,
    X: np.ndarray,
    y_freeze: np.ndarray,
    z_freeze: np.ndarray,
    y_seed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One frozen-coefficient pass over the given nodes: Z first, implicit Y."""
    pairs = _level_expectations(
        window, X, t_n, dt, problem, y_freeze, z_freeze, rule, r
    )
    z_new = z_update([p[1] for p in pairs], coeffs, dt)
    rhs = kahan_sum(
        np.stack([coeffs[j] * pairs[j - 1][0] for j in range(1, len(pairs) + 1)])
    )
    y_new, iters = y_update(
        rhs, coeffs[0], dt, t_n, X, z_new, problem.f, y_seed, picard_tol, picard_max
    )
    return y_new, z_new, iters


def _sealed(
    window: Sequence[ValueLevel],
    t_n: float,
    active: tuple[slice, ...],
    y_flat: np.ndarray,
    z_flat: np.ndarray,
) -> ValueLevel:
    """Wrap computed window values into a level; nodes outside stay NaN."""
    lattice = window[0].lattice
    m, d = window[0].m, window[0].d
    wshape = tuple(s.stop - s.start for s in active)
    y = np.full(lattice.shape + (m,), np.nan)
    z = np.full(lattice.shape + (m, d), np.nan)
    y[active] = y_flat.reshape(wshape + (m,))
    z[active] = z_flat.reshape(wshape + (m, d))
    return ValueLevel(lattice=lattice, t=t_n, y=y, z=z)


def step_coupled(
    window: Sequence[ValueLevel],
    t_n: float,
    dt: float,
    problem: FbsdeProblem,
    coeffs: np.ndarray,
    rule: TensorRule,
    r: int,
    active: tuple[slice, ...],
    cfg: SolverConfig,
) -> tuple[ValueLevel, int, int]:
    """Compute level n on the ``active`` index window of the lattice.

    ``window`` holds sealed levels n+1, n+2, … in ascending order and
    ``coeffs`` the matching scaled window-sum weights.  Quadrature points
    launched from active nodes must land, stencil included, on data computed
    in the window levels; the march sizes the windows so this holds.

    A pass freezes a, b at the current (Y, Z) iterate, starting from the
    level n+1 values, and applies the explicit Z-update and then the implicit
    Y-update.  When a, b ignore (Y, Z) the first pass is the level.  A coupled
    problem repeats the pass until max(‖ΔY‖∞, ‖ΔZ‖∞) < ``cfg.epsilon0`` and
    raises :class:`OuterDivergence` after ``cfg.outer_max`` passes.

    Returns (level, Picard iterations of the last pass, outer iterations);
    the outer count is 0 for a decoupled problem, which runs no outer loop.
    """
    near = window[0]
    X = _window_nodes(near.lattice, active)
    y_seed = near.y[active].reshape(-1, near.m)
    y_cur, z_cur = y_seed, near.z[active].reshape(-1, near.m, near.d)
    delta = math.inf
    for outer in range(1, cfg.outer_max + 1):
        y_new, z_new, iters = _advance(
            window, t_n, dt, problem, coeffs, rule, r, cfg.picard_tol,
            cfg.picard_max, X, y_cur, z_cur, y_seed,
        )
        if not problem.coupled:
            return _sealed(window, t_n, active, y_new, z_new), iters, 0
        delta = max(
            float(np.max(np.abs(y_new - y_cur))),
            float(np.max(np.abs(z_new - z_cur))),
        )
        y_cur, z_cur = y_new, z_new
        if delta < cfg.epsilon0:
            return _sealed(window, t_n, active, y_cur, z_cur), iters, outer
    raise OuterDivergence(
        f"coupled outer loop did not converge in {cfg.outer_max} iterations at "
        f"t = {t_n:.6g} (last change {delta:.3e}, tol {cfg.epsilon0:.1e})"
    )


#: The one level step under its decoupled name, which ``perfbench`` traces.
step_decoupled = step_coupled


# ---------------------------------------------------------------------------
# Query-cone geometry
# ---------------------------------------------------------------------------


def _coefficient_bounds(
    problem: FbsdeProblem, radius: np.ndarray, samples: int = 13, times: int = 9
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis sup bounds of |a_i| and ‖b_i·‖₁ over a sampled (t, x) box.

    (Y, Z) arguments come from the closed-form solution when available,
    otherwise from the terminal data with a 1.5× safety inflation.
    """
    axes = [
        np.linspace(problem.x0[i] - radius[i], problem.x0[i] + radius[i], samples)
        for i in range(problem.n)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    a_max = np.zeros(problem.n)
    b_max = np.zeros(problem.n)
    inflate = 1.0 if problem.has_analytic else 1.5
    for t in np.linspace(0.0, problem.T, times):
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
    r: int,
) -> np.ndarray:
    """Per-axis node count by which the active window must grow per level.

    A quadrature point launched from x over one span travels at most
    |a|·Δt + ‖b‖₁·√(2Δt)·|q|_max along each axis, and the degree-r stencil
    around it extends another r/2 + 1 nodes.  A window growing by this many
    nodes per level keeps every read inside computed data for all spans
    (j-step reaches are subadditive in j).
    """
    reach = a_max * dt + b_max * math.sqrt(2.0 * dt) * q_max
    return np.ceil(reach / h - 1e-12).astype(int) + (r // 2 + 2)


#: Active half-width, in nodes, of the final (t = 0) level.
_W_FINAL = 2


def _active_window(lattice: Lattice, halfwidth: np.ndarray) -> tuple[slice, ...]:
    """Index window of nodes within ``halfwidth`` nodes of the origin node."""
    center = -lattice.lo
    size = np.array(lattice.shape)
    lo = np.maximum(0, center - halfwidth)
    hi = np.minimum(size - 1, center + halfwidth)
    return tuple(slice(int(a), int(b) + 1) for a, b in zip(lo, hi))


# ---------------------------------------------------------------------------
# March
# ---------------------------------------------------------------------------


def _march(
    problem: FbsdeProblem,
    cfg: SolverConfig,
    rule: TensorRule,
    r: int,
    window: list[ValueLevel],
    times: Iterable[float],
    dt: float,
    halfwidth: np.ndarray,
    hop: np.ndarray,
) -> Iterator[tuple[ValueLevel, int, int]]:
    """Compute one level per entry of ``times`` and yield each as it seals.

    ``window`` holds the newest sealed levels, newest first, and ``times``
    the t_n of the levels to compute in marching order, ``dt`` apart.  The
    window is rotated in place, so a level is freed once it leaves it.  With ℓ
    sealed levels in hand the step uses the weight row of order
    k′ = min(k, ℓ) and m′ = min(m_comb, ℓ+1−k′), so a full window of k+m−1
    levels gives (k, m_comb) and a short one grows the order as history
    accrues.  The active window starts ``halfwidth`` nodes wide and shrinks by
    ``hop`` nodes per level.

    Yields (level, Picard iterations, outer iterations) per level.
    """
    lattice = window[0].lattice
    width = cfg.k + cfg.m_comb - 1
    rows: dict[tuple[int, int], np.ndarray] = {}
    for t_n in times:
        k_eff = min(cfg.k, len(window))
        m_eff = min(cfg.m_comb, len(window) + 1 - k_eff)
        if (k_eff, m_eff) not in rows:
            rows[k_eff, m_eff] = np.array(
                [float(c) for c in solve_weights(k_eff, m_eff).window_sums()],
                dtype=float,
            )
        coeffs = rows[k_eff, m_eff]
        halfwidth = halfwidth - hop
        if np.any(halfwidth < _W_FINAL):
            raise TooFewNodes(
                "lattice too small for the query cone: "
                f"halfwidth {halfwidth.tolist()} at t = {t_n:.6g}"
            )
        level, piters, oiters = step_coupled(
            window[: len(coeffs) - 1], t_n, dt, problem, coeffs, rule, r,
            _active_window(lattice, halfwidth), cfg,
        )
        window.insert(0, level)
        del window[width:]
        yield level, piters, oiters


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

#: Iteration cap of the terminal-Z fixed point.
_TERMINAL_Z_MAX = 50


def _terminal_z(problem: FbsdeProblem, X: np.ndarray, y_term: np.ndarray) -> np.ndarray:
    """Terminal Z(T, x) = ∇g(x)·b(T, x, g(x), Z) via FD gradient + fixed point."""
    P, n = X.shape
    step = 1e-6
    grad = np.empty((P, problem.m, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        grad[:, :, i] = (problem.g(X + e) - problem.g(X - e)) / (2.0 * step)
    z = np.zeros((P, problem.m, problem.d))
    for _ in range(_TERMINAL_Z_MAX):
        b_val = np.asarray(problem.b(problem.T, X, y_term, z), float)
        z_new = np.einsum("pmn,pnd->pmd", grad, b_val)
        change = np.abs(z_new - z)
        if np.max(change) < 1e-13:
            return z_new
        z = z_new
    worst = int(np.argmax(np.max(change.reshape(P, -1), axis=-1)))
    raise OuterDivergence(
        f"terminal Z fixed point did not converge in {_TERMINAL_Z_MAX} "
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
) -> dict[int, ValueLevel]:
    """Fill the top k+m−1 levels (indices n_steps−k−m+2 .. n_steps).

    ``exact`` mode samples the problem's closed-form (Y, Z) on the full
    lattice (raising :class:`MissingAnalytic` when there is none).

    ``ramp`` mode is self-starting: the terminal level takes Y = g and the
    gradient relation for Z, and the remaining startup levels come from the
    same march loop as the main solve, on a Δt/S subgrid with
    S = ``init_substeps``.  The march starts from the terminal level alone,
    so the scheme order grows as history becomes available, and every S-th
    fine level is kept.  The active window starts at the lattice hull and
    shrinks by ``fine_hop`` nodes per fine substep, so the ramp reads only
    computed data, like the main march.
    """
    width = cfg.k + cfg.m_comb - 1
    dt = problem.T / cfg.n_steps
    shape = lattice.shape
    levels: dict[int, ValueLevel] = {}

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
            levels[i] = ValueLevel(
                lattice=lattice,
                t=t,
                y=y.reshape(shape + (problem.m,)),
                z=z.reshape(shape + (problem.m, problem.d)),
            )
        return levels

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
    levels[cfg.n_steps] = terminal
    times = (problem.T - i * dt_fine for i in range(1, (width - 1) * S + 1))
    march = _march(
        problem, cfg, rule, r, [terminal], times, dt_fine,
        np.minimum(-lattice.lo, lattice.hi), fine_hop,
    )
    for i, (level, _, _) in enumerate(march, 1):
        if i % S == 0:
            levels[cfg.n_steps - i // S] = level
    return levels


# ---------------------------------------------------------------------------
# Full solve
# ---------------------------------------------------------------------------


def solve(problem: FbsdeProblem, cfg: SolverConfig) -> SolveResult:
    """March the backward scheme from the terminal window down to t = 0.

    The lattice is sized from the query cone: level n is computed on a window
    that exceeds the final (t = 0) window by n hops, each hop covering the
    per-level quadrature reach plus the interpolation stencil, so no read ever
    leaves computed data.  :func:`initialize_levels` fills the top k+m−1
    levels and the march loop it shares with the ramp computes the rest with
    the full (k, m_comb) window.  Returns a :class:`SolveResult` with the
    (m,)-vector ``y0`` and the (m, d)-matrix ``z0`` read directly at the
    lattice node x0 (x0 is a node by construction), plus diagnostics: the
    resolved discretization, cone geometry, per-level Picard/outer iteration
    counts, and wall time.
    """
    start = time.perf_counter()
    k, m_comb = cfg.k, cfg.m_comb
    width = k + m_comb - 1
    dt = problem.T / cfg.n_steps
    r = cfg.r if cfg.r is not None else max(10, k + 1)
    h = cfg.h if cfg.h is not None else dt ** ((k + 1) / (r + 1))
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
        hop = _hop_indices(a_max, b_max, q_max, dt, h, r)
        fine_hop = _hop_indices(
            a_max, b_max, q_max, dt / cfg.init_substeps, h, r
        )
        half = _W_FINAL + cfg.n_steps * hop
        if cfg.init_mode == "ramp":
            half = half + (width - 1) * cfg.init_substeps * fine_hop
        new_radius = half * h
        if np.all(new_radius <= radius):
            break
        radius = new_radius
    lattice = build_lattice(problem.x0, h, radius, r=r, max_nodes=cfg.max_nodes)

    top = initialize_levels(problem, lattice, cfg, rule, r, fine_hop)
    first = cfg.n_steps - width
    march = _march(
        problem, cfg, rule, r,
        [top.pop(i) for i in range(first + 1, cfg.n_steps + 1)],
        (n * dt for n in range(first, -1, -1)), dt,
        _W_FINAL + (first + 1) * hop, hop,
    )
    picard_per_level: list[int] = []
    outer_per_level: list[int] = []
    for level, piters, oiters in march:
        picard_per_level.append(piters)
        if oiters:
            outer_per_level.append(oiters)

    origin_index = tuple(-lo for lo in lattice.lo)
    y0 = np.array(level.y[origin_index], copy=True)
    z0 = np.array(level.z[origin_index], copy=True)
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
        "active_halfwidth_final": _W_FINAL,
        "active_halfwidth_first": (_W_FINAL + first * hop).tolist(),
        "levels_marched": first + 1,
        "picard_iterations": picard_per_level,
        "picard_iterations_max": max(picard_per_level, default=0),
        "outer_iterations": outer_per_level,
        "outer_iterations_max": max(outer_per_level, default=0),
        "wall_time_s": time.perf_counter() - start,
    }
    return SolveResult(y0=y0, z0=z0, diagnostics=diagnostics)
