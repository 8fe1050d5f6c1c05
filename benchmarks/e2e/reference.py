"""Independent correctness oracle: SciPy only, no ``repro`` code.

Both checks work on the raw CSC arrays (``colptr``, ``rowind``,
``values``) so that a bug in ``repro.sparse`` cannot hide itself:

* :func:`backward_error` — scaled residual of one solve, with a
  ``scipy.sparse`` matvec;
* :func:`reference_solution` — ``scipy.sparse.linalg.splu`` in a
  short-lived child process.  SuperLU's factor is larger than ours, so
  running it in-process would set the workload's ``ru_maxrss`` high-water
  mark and ``peak_rss_mb`` would measure SciPy.  The child is this file
  run as a script, fed over its stdin and read from its stdout:
  ``multiprocessing`` would leave its resource-tracker process behind
  for a moment after the benchmark has exited.
"""

from __future__ import annotations

import io
import subprocess
import sys

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["BACKWARD_TOL", "FORWARD_TOL", "to_scipy", "backward_error",
           "reference_solution", "forward_error"]

#: A solve passes when its scaled backward error is at most this.
BACKWARD_TOL = 1e-10
#: The first solution of a run must agree with SuperLU's to this.
FORWARD_TOL = 1e-8


def to_scipy(n: int, colptr, rowind, values) -> sp.csc_matrix:
    return sp.csc_matrix((values, rowind, colptr), shape=(n, n))


def backward_error(a: sp.csc_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """``‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)``; ``inf`` for a non-finite x."""
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return float("inf")
    r = b - a @ x
    scale = spla.norm(a, np.inf) * np.abs(x).max() + np.abs(b).max()
    return float(np.abs(r).max() / scale) if scale else float("inf")


def forward_error(x: np.ndarray, x_ref: np.ndarray) -> float:
    """``‖x − x_ref‖∞ / ‖x_ref‖∞``."""
    if x.shape != x_ref.shape or not np.all(np.isfinite(x)):
        return float("inf")
    return float(np.abs(x - x_ref).max() / np.abs(x_ref).max())


def _splu_worker() -> None:
    """Child side: arrays in on stdin (``.npz``), solution out on stdout."""
    with np.load(io.BytesIO(sys.stdin.buffer.read())) as z:
        n, colptr, rowind, values, b = (
            int(z["n"]), z["colptr"], z["rowind"], z["values"], z["b"]
        )
    # The workloads are symmetric in pattern and diagonally dominant, so
    # SuperLU's symmetric mode (no pivoting off the diagonal, MMD on
    # A+Aᵀ) is safe and three times faster than the COLAMD default.
    lu = spla.splu(
        to_scipy(n, colptr, rowind, values),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    np.save(sys.stdout.buffer, lu.solve(b))


def reference_solution(n: int, colptr, rowind, values, b) -> np.ndarray:
    """Solve ``A x = b`` with SuperLU in a child process.

    ``subprocess.run`` waits for the child on every path out, and kills
    it first if the wait itself is interrupted.
    """
    payload = io.BytesIO()
    np.savez(payload, n=n, colptr=colptr, rowind=rowind, values=values, b=b)
    child = subprocess.run(
        [sys.executable, __file__], input=payload.getvalue(),
        stdout=subprocess.PIPE,
    )
    if child.returncode != 0:
        raise RuntimeError(
            f"reference solve failed (child exit code {child.returncode})"
        )
    return np.load(io.BytesIO(child.stdout))


if __name__ == "__main__":
    _splu_worker()
