"""Solver-level options bundle."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbolic.analyze import SymbolicOptions

__all__ = ["SolverOptions"]

_FACTOTYPES = ("llt", "ldlt", "lu")
_RUNTIMES = ("sequential", "threaded")


@dataclass(frozen=True)
class SolverOptions:
    """Options of :class:`repro.core.solver.SparseSolver`.

    Attributes
    ----------
    factotype:
        ``"llt"``, ``"ldlt"`` or ``"lu"``.
    symbolic:
        Analyze-phase options (ordering, amalgamation, splitting).
    runtime:
        Which engine executes the factorization and the solve:
        ``"sequential"`` (the reference driver) or ``"threaded"`` (the
        unit DAG on the C executor, ``n_workers`` workers).  The
        scheduler policies of the paper (native / StarPU / PaRSEC) are
        simulated only (``python -m repro simulate --policy``).
    n_workers:
        Worker threads for the threaded runtime.
    refine_tol / refine_max_iter:
        Stopping criteria of the refinement :meth:`SparseSolver.solve`
        runs (``method="none"`` skips it).
    pivot_threshold:
        When > 0, pivots smaller in magnitude are perturbed to
        ±threshold instead of failing (static-pivoting recovery; the
        perturbation count is reported on the factorization info).
    """

    factotype: str = "llt"
    symbolic: SymbolicOptions = field(default_factory=SymbolicOptions)
    runtime: str = "sequential"
    n_workers: int = 4
    refine_tol: float = 1e-12
    refine_max_iter: int = 10
    pivot_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.factotype not in _FACTOTYPES:
            raise ValueError(f"factotype must be one of {_FACTOTYPES}")
        if self.runtime not in _RUNTIMES:
            raise ValueError(f"runtime must be one of {_RUNTIMES}")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.pivot_threshold < 0:
            raise ValueError("pivot_threshold must be >= 0")
