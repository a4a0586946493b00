"""Process set-up shared by the runner and the set-up probe.

Import this before numpy: it pins the BLAS thread pools to one thread and puts
the checkout's ``src`` directory first on ``sys.path``, so the benchmark times
the solver as it stands in this checkout and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no ``src/fbsde`` package to benchmark."""


def prepare() -> None:
    """Pin BLAS threads and make ``import fbsde`` load this checkout's source."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "fbsde" / "__init__.py").is_file():
        raise MissingSource(f"no fbsde package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fbsde

    if Path(fbsde.__file__).resolve().parent != SRC / "fbsde":
        raise MissingSource(f"fbsde was imported from {fbsde.__file__}, not {SRC}")
