"""nmfkit: majorization-minimization solvers, fixed-point acceleration and
benchmark tooling for nonnegative matrix factorization."""

from .diagnostics import kkt_residual
from .errors import (
    ContractViolationError,
    CsvFormatError,
    DegenerateColumnError,
    NmfError,
    NumericalFailureError,
)
from .linalg import read_matrix_csv, write_matrix_csv
from .solvers import (
    Algorithm,
    FactorPair,
    IterationTrace,
    SolverConfig,
    fast_hals_iterate,
    inom_iterate,
    mu_iterate,
    parinom_iterate,
    solve,
)
from .squarem import squarem_step

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "ContractViolationError",
    "CsvFormatError",
    "DegenerateColumnError",
    "FactorPair",
    "IterationTrace",
    "NmfError",
    "NumericalFailureError",
    "SolverConfig",
    "fast_hals_iterate",
    "inom_iterate",
    "kkt_residual",
    "mu_iterate",
    "parinom_iterate",
    "read_matrix_csv",
    "solve",
    "squarem_step",
    "write_matrix_csv",
]
