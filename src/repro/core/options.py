"""Solver-level options bundle."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.symbolic.analyze import SymbolicOptions

__all__ = ["SolverOptions"]

_FACTOTYPES = ("llt", "ldlt", "lu")
_RUNTIMES = ("sequential", "threaded")
_KERNELS = ("native", "numpy")


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
    kernels:
        Numeric kernel backend: ``"native"`` (the default: one C call
        per unit, built on first use with the host's C compiler —
        :mod:`repro.kernels.native`) or ``"numpy"`` (the reference and
        the fallback).  ``"native"`` degrades to numpy with a
        ``RuntimeWarning`` when it cannot be built.  The *effective*
        backend is reported as ``FactorizationInfo.kernels`` and stamped
        into ``trace.meta["kernels"]``.
    refine:
        Run iterative refinement inside :meth:`SparseSolver.solve`.
    refine_tol / refine_max_iter:
        Refinement stopping criteria.
    pivot_threshold:
        When > 0, pivots smaller in magnitude are perturbed to
        ±threshold instead of failing (static-pivoting recovery; the
        perturbation count is reported on the factorization info).
    """

    factotype: str = "llt"
    symbolic: SymbolicOptions = field(default_factory=SymbolicOptions)
    runtime: str = "sequential"
    n_workers: int = 4
    kernels: str = "native"
    refine: bool = True
    refine_tol: float = 1e-12
    refine_max_iter: int = 10
    pivot_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.factotype not in _FACTOTYPES:
            raise ValueError(f"factotype must be one of {_FACTOTYPES}")
        if self.runtime not in _RUNTIMES:
            raise ValueError(f"runtime must be one of {_RUNTIMES}")
        if self.kernels not in _KERNELS:
            raise ValueError(f"kernels must be one of {_KERNELS}")
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if self.pivot_threshold < 0:
            raise ValueError("pivot_threshold must be >= 0")
