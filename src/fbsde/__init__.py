"""High-order combined multi-step solver and benchmarks for FBSDEs.

The package is organized bottom-up:

* :mod:`fbsde.fdweights` — exact rational multi-step weights
* :mod:`fbsde.stability` — characteristic polynomials and root-condition checks
* :mod:`fbsde.hermite` — Gauss–Hermite quadrature and compensated summation
* :mod:`fbsde.lattice` — uniform lattices, tensor interpolation, value levels
* :mod:`fbsde.problems` — benchmark FBSDEs with closed-form solutions
* :mod:`fbsde.stepper` — the backward multi-step solver
* :mod:`fbsde.bench` — convergence sweeps, rate fitting, report emission
* :mod:`fbsde.cli` — the ``fbsde-bench`` command-line tool

The names of :mod:`fbsde.bench` and :mod:`fbsde.stability` load on first use.
"""

import importlib

from .fdweights import SingularSystem, WeightSet, solve_weights, weights_as_float
from .hermite import gauss_hermite, gauss_hermite_tensor, gaussian_expectation
from .lattice import (
    Lattice,
    OutOfDomain,
    ValueLevel,
    build_lattice,
    interpolate_values,
)
from .problems import (
    FbsdeProblem,
    PROBLEMS,
    example1,
    example2,
    example3,
    feynman_kac_residual,
    get_problem,
    terminal_gap,
    z_consistency_gap,
)
from .stepper import (
    MissingAnalytic,
    NonFiniteValue,
    OuterDivergence,
    PicardDivergence,
    SolveResult,
    SolverConfig,
    solve,
)

__version__ = "0.1.0"

#: Names of :mod:`fbsde.bench` and :mod:`fbsde.stability`, which load on
#: first use (PEP 562), so that a process that only solves never imports
#: them.
_LAZY = {
    "ExperimentSpec": "bench",
    "Report": "bench",
    "emit_report": "bench",
    "fit_convergence_rate": "bench",
    "run_experiment": "bench",
    "StabilityReport": "stability",
    "characteristic_polynomial": "stability",
    "stability_report": "stability",
}


def __getattr__(name: str):
    if name in _LAZY:
        value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    elif name in ("bench", "stability"):
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "ExperimentSpec",
    "FbsdeProblem",
    "Lattice",
    "MissingAnalytic",
    "NonFiniteValue",
    "OutOfDomain",
    "OuterDivergence",
    "PROBLEMS",
    "PicardDivergence",
    "Report",
    "SingularSystem",
    "SolveResult",
    "SolverConfig",
    "StabilityReport",
    "ValueLevel",
    "WeightSet",
    "__version__",
    "build_lattice",
    "characteristic_polynomial",
    "emit_report",
    "example1",
    "example2",
    "example3",
    "feynman_kac_residual",
    "fit_convergence_rate",
    "gauss_hermite",
    "gauss_hermite_tensor",
    "gaussian_expectation",
    "get_problem",
    "interpolate_values",
    "run_experiment",
    "solve",
    "solve_weights",
    "stability_report",
    "terminal_gap",
    "weights_as_float",
    "z_consistency_gap",
]
