"""Core solver: numeric factor storage, factorization drivers, triangular
solves, iterative refinement, and the public :class:`SparseSolver` API.
"""

from repro.core.factor import NumericFactor
from repro.core.factorization import factorize_sequential
from repro.core.triangular import solve_factored
from repro.core.refinement import (
    iterative_refinement,
    RefinementResult,
    ConvergenceWarning,
)
from repro.core.krylov import gmres, conjugate_gradient, bicgstab, KrylovResult
from repro.core.condest import condest, norm1, inverse_norm1_estimate
from repro.core.options import SolverOptions
from repro.core.solver import SparseSolver, FactorizationInfo

__all__ = [
    "NumericFactor",
    "factorize_sequential",
    "solve_factored",
    "iterative_refinement",
    "RefinementResult",
    "ConvergenceWarning",
    "gmres",
    "conjugate_gradient",
    "bicgstab",
    "KrylovResult",
    "condest",
    "norm1",
    "inverse_norm1_estimate",
    "SolverOptions",
    "SparseSolver",
    "FactorizationInfo",
]
