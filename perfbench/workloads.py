"""Benchmark workloads, their seeded inputs and the correctness gate.

Each workload is one ``fbsde.solve`` call with fixed solver settings; the seed
only moves the initial point x0, never the work per solve (lattice size and
cone hop do not depend on it).  README.md in this directory says why each
workload was chosen.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from fbsde import FbsdeProblem, SolverConfig, get_problem, solve

#: Seeds other than 0 shift x0 by a uniform offset within ±X0_SHIFT per axis.
X0_SHIFT = 0.25

#: Target for the self-test's tiny solves: one marched level is far from
#: converged (the 2-D errors reach 6e-2), so they only have to be close.
TINY_TARGET = 0.5


@dataclass(frozen=True)
class Workload:
    """One solve configuration plus the accuracy it must reach at t = 0.

    ``y_target`` and ``z_target`` bound the largest component error of y0
    and z0 against the problem's closed form.  The factor 5 in the targets
    below is the one the acceptance suite allows around published errors.
    """

    name: str
    problem: str
    config: dict
    y_target: float
    z_target: float

    def solver_config(self) -> SolverConfig:
        return SolverConfig(**self.config)

    def tiny(self) -> "Workload":
        """The same workload at the smallest legal size, n_steps = k + m − 1."""
        cfg = self.solver_config()
        small = {**self.config, "n_steps": cfg.k + cfg.m_comb - 1}
        return dataclasses.replace(
            self, config=small, y_target=TINY_TARGET, z_target=TINY_TARGET
        )


# Targets are five times the largest error over seeds 0-12 (the coupled
# and 2-D errors move by up to 50x and 4x as x0 shifts), except where an
# acceptance criterion gives the bound.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "scalar-k9", "example1",
            dict(k=9, n_steps=32, r=18, gh_points=24),
            y_target=1e-12,  # criterion 7
            z_target=5 * 1.02e-12,
        ),
        Workload(
            "coupled", "example2",
            dict(k=5, n_steps=32),
            y_target=5 * 1.26e-8, z_target=5 * 2.63e-8,
        ),
        Workload(
            "system-2d", "example3",
            dict(k=3, n_steps=12),
            y_target=5 * 1.21e-2, z_target=5 * 1.17e-2,
        ),
        Workload(
            "scalar-ramp", "example1",
            dict(k=5, n_steps=32, init_mode="ramp", init_substeps=8),
            y_target=5 * 5.34e-7, z_target=5 * 3.03e-7,
        ),
    )
}


def make_problem(workload: Workload, seed: int) -> FbsdeProblem:
    """The workload's problem; seed 0 keeps the registry x0, others shift it."""
    problem = get_problem(workload.problem)
    # Drawn for seed 0 too, so every seed loads numpy.random and peak
    # memory does not depend on the seed.
    offset = np.random.default_rng(seed).uniform(-X0_SHIFT, X0_SHIFT, problem.n)
    if seed == 0:
        return problem
    return dataclasses.replace(problem, x0=problem.x0 + offset)


def ready(
    name: str, seed: int, tiny: bool
) -> tuple[Workload, FbsdeProblem, SolverConfig]:
    """Build the workload's inputs and run the discarded warm-up solve.

    The solver keeps no state between solves, so the warm-up only pays the
    process's first-call costs; it runs the smallest legal solve of the same
    problem and settings, which takes every code path the timed solves take.
    """
    workload = WORKLOADS[name]
    if tiny:
        workload = workload.tiny()
    problem = make_problem(workload, seed)
    solve(problem, workload.tiny().solver_config())
    return workload, problem, workload.solver_config()


def reference(problem: FbsdeProblem) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (Y, Z) at (0, x0)."""
    y = np.asarray(problem.analytic_y(0.0, problem.x0), float)
    z = np.asarray(problem.analytic_z(0.0, problem.x0), float)
    return y, z


def errors(y0, z0, y_ref, z_ref) -> tuple[float, float]:
    """Largest component error of y0 and of z0."""
    return float(np.max(np.abs(y0 - y_ref))), float(np.max(np.abs(z0 - z_ref)))


def digits(err: float, ref: np.ndarray) -> float:
    """Correct decimal digits, −log10(err), with err floored at one rounding.

    The floor (half an ulp of the largest reference component) keeps a
    solve that hits the closed form exactly at a finite value.
    """
    floor = 0.5 * math.ulp(max(1.0, float(np.max(np.abs(ref)))))
    return -math.log10(max(err, floor))


def gate(
    workload: Workload,
    y0: np.ndarray,
    z0: np.ndarray,
    y_ref: np.ndarray,
    z_ref: np.ndarray,
    first: tuple[bytes, bytes] | None,
) -> list[str]:
    """Reasons the solve fails the workload's checks; empty when it passes.

    A solve passes when y0 and z0 are finite, both errors are within the
    workload's targets, and, when ``first`` holds the bytes of the run's
    first solve, y0 and z0 are bit-identical to it.
    """
    if not (np.all(np.isfinite(y0)) and np.all(np.isfinite(z0))):
        return [f"non-finite result y0={y0.tolist()} z0={z0.tolist()}"]
    reasons = []
    y_err, z_err = errors(y0, z0, y_ref, z_ref)
    if not y_err <= workload.y_target:
        reasons.append(f"y error {y_err:.3e} above target {workload.y_target:.3e}")
    if not z_err <= workload.z_target:
        reasons.append(f"z error {z_err:.3e} above target {workload.z_target:.3e}")
    if first is not None and (y0.tobytes(), z0.tobytes()) != first:
        reasons.append("y0/z0 not bit-identical to the first solve of the run")
    return reasons
