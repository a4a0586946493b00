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
"""

from .bench import (
    ExperimentSpec,
    Report,
    emit_report,
    fit_convergence_rate,
    run_experiment,
)
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
from .stability import StabilityReport, characteristic_polynomial, stability_report
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
