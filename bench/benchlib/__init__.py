"""Shared set-up for the dnncost benchmark scripts.

The scripts run from a checkout of the repository and measure the package
under its ``src/`` directory, never an installed copy, with BLAS pinned to
one thread so that numpy work does not compete with the single client.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class SetupError(RuntimeError):
    """The checkout does not hold the sources the benchmark measures."""


def child_env() -> dict[str, str]:
    """Environment for child interpreters: checkout sources, one BLAS thread."""
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def use_checkout():
    """Import dnncost from the checkout's ``src/`` and return the package."""
    if not (SRC / "dnncost" / "__init__.py").is_file():
        raise SetupError(f"no dnncost sources under {SRC}")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import dnncost
    if Path(dnncost.__file__).resolve().parent != SRC / "dnncost":
        raise SetupError(f"dnncost imported from {dnncost.__file__}, not {SRC}")
    OUT.mkdir(parents=True, exist_ok=True)
    return dnncost
