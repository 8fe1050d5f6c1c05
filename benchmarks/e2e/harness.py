"""What both passes share: the workload table, set-up, the checked-call
counter and the sample summary.

Import this module only after ``run.py`` has pinned the BLAS thread
count — it imports NumPy.
"""

from __future__ import annotations

import gc
import itertools
import os
import platform
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import reference
from repro import SolverOptions, SparseSolver
from repro.kernels import complex_multiplier
from repro.kernels.compiled import HAVE_NUMBA
from repro.sparse import SparseMatrixCSC, grid_laplacian_3d, load_matrix

__all__ = ["ROOT", "Workload", "WORKLOADS", "SMOKE_SCALE", "Inputs", "Ops",
           "set_up", "host_info", "summarise", "solver_options",
           "scaled_copy", "make_rhs", "gemm_calibration", "bind_workers_to_cpus"]

ROOT = Path(__file__).resolve().parents[2]

#: ``--smoke`` runs every workload at this collection scale.
SMOKE_SCALE = 0.3

#: Side of the seeded square GEMM that calibrates the host.
CALIB_N = 384


@dataclass(frozen=True)
class Workload:
    """One frozen input + solver configuration.

    ``flops_ref`` is ``flops_total`` of the seed commit's analysis at
    ``scale`` (the paper's convention: a fixed per-matrix flop count over
    wall time), so ``factorize_gflops`` rises when a change spends less
    time *or* fewer flops.
    """

    name: str
    matrix: str          # Table-I collection entry
    scale: float
    factotype: str
    runtime: str
    n_workers: int
    nrhs: int
    flops_ref: float


WORKLOADS = {
    w.name: w
    for w in [
        Workload("shell2d_lu", "afshell10", 0.5, "lu", "threaded", 2, 1,
                 19568189.0),
        Workload("vol3d_ldlt", "Serena", 0.5, "ldlt", "threaded", 2, 1,
                 66328134.666667536),
        Workload("helm3d_zldlt", "pmlDF", 1.3, "ldlt", "threaded", 2, 1,
                 9833513533.333326),
        Workload("elast3d_llt_seq_rhs16", "audi", 1.0, "llt", "sequential",
                 1, 16, 1114362692.0),
    ]
}


def solver_options(wl: Workload) -> SolverOptions:
    """Library defaults apart from factotype, runtime and n_workers."""
    return SolverOptions(
        factotype=wl.factotype, runtime=wl.runtime, n_workers=wl.n_workers
    )


# ----------------------------------------------------------------------
class Ops:
    """Counts attempted and failed API calls.

    A call that raises, or a solve whose backward error exceeds
    :data:`reference.BACKWARD_TOL`, is a failed operation and the sample
    it belonged to yields no timing.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.backward_error_max = 0.0

    def timed(self, fn, *args, **kwargs):
        """``(result, seconds)``; ``seconds`` is ``None`` if ``fn`` raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # boundary: the benchmark must report it
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None, None
        return out, time.perf_counter() - start

    def check_solution(self, a_scipy, x, b) -> bool:
        """Judge the solve just timed; a wrong answer fails that call."""
        err = reference.backward_error(a_scipy, x, b)
        self.backward_error_max = max(self.backward_error_max, err)
        if err <= reference.BACKWARD_TOL:
            return True
        self.failed += 1
        self.errors.append(f"solve: backward error {err:.3e}")
        return False


# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a pass needs, generated from the seed alone."""

    matrix: SparseMatrixCSC
    a_scipy: object
    b: np.ndarray
    x_ref: np.ndarray
    gemm_calib_gflops: float
    rng: np.random.Generator


def make_rhs(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """Seeded standard-normal right-hand side(s) of ``dtype``."""
    b = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        b = b + 1j * rng.standard_normal(shape)
    return b.astype(dtype)


def gemm_calibration(dtype, seed: int) -> float:
    """Best-of-10 GFlop/s of a seeded ``CALIB_N``³ GEMM in ``dtype``,
    counted with the solver's flop convention (complex = 4× real)."""
    rng = np.random.default_rng(seed)
    a = make_rhs(rng, (CALIB_N, CALIB_N), dtype)
    b = make_rhs(rng, (CALIB_N, CALIB_N), dtype)
    a @ b   # warm-up
    best = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * CALIB_N ** 3 * complex_multiplier(dtype) / best / 1e9


def bind_workers_to_cpus() -> None:
    """Bind every thread started from now on to one CPU, round-robin.

    PaStiX, StarPU and PaRSEC bind each worker to a core; the threaded
    runtime here leaves placement to the kernel, and on the sizing host
    the kernel keeps two fresh threads on one CPU for about a second of
    demand before it spreads them.  GIL-bound workloads run up to 2× faster
    stacked than spread, so unbound runs were bimodal.  The hook runs
    once in each new thread (``threading.setprofile``), binds it and
    removes itself, so no task pays for it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    started = itertools.count()

    def bind(frame, event, arg) -> None:
        sys.setprofile(None)
        os.sched_setaffinity(0, {cpus[next(started) % len(cpus)]})

    threading.setprofile(bind)


def scaled_copy(matrix: SparseMatrixCSC, factor: float) -> SparseMatrixCSC:
    """``matrix · factor`` on the same pattern (a scalar perturbation
    keeps symmetry and definiteness, so every factotype stays valid)."""
    return SparseMatrixCSC(
        matrix.n_rows, matrix.n_cols, matrix.colptr, matrix.rowind,
        matrix.values * factor,
    )


def set_up(wl: Workload, seed: int, scale: float) -> Inputs:
    """Generate the inputs, warm the code paths, calibrate, get x_ref.

    The warm-up pipeline runs the workload's factotype / dtype / runtime
    on a tiny grid so lazy imports and first-call costs are paid here and
    not inside a sample.
    """
    matrix = load_matrix(wl.matrix, scale, seed)
    rng = np.random.default_rng(seed)
    dtype = matrix.values.dtype
    n = matrix.n_rows
    b = make_rhs(rng, (n,) if wl.nrhs == 1 else (n, wl.nrhs), dtype)

    warm = grid_laplacian_3d(6, dtype=dtype, jitter=0.05, seed=seed)
    solver = SparseSolver(warm, solver_options(wl))
    solver.analyze()
    solver.factorize()
    solver.solve(make_rhs(rng, (warm.n_rows,) + b.shape[1:], dtype))

    calib = gemm_calibration(dtype, seed)
    x_ref = reference.reference_solution(
        matrix.n_rows, matrix.colptr, matrix.rowind, matrix.values, b
    )
    a_scipy = reference.to_scipy(
        matrix.n_rows, matrix.colptr, matrix.rowind, matrix.values
    )
    gc.collect()
    return Inputs(matrix, a_scipy, b, x_ref, calib, rng)


# ----------------------------------------------------------------------
def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without starting ``git``
    (the benchmark starts no process it does not need)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info() -> dict:
    """Provenance every report carries."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")
        },
        "have_numba": bool(HAVE_NUMBA),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }


def summarise(samples: list[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples.

    The first sample is kept, so a cold-start cost shows in ``max``.
    """
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": list(samples),
    }
