"""Compiled-kernel smoke gate (``make compiled-smoke``).

Factorizes a small SPD grid problem three ways — the numpy reference,
``kernels="compiled"`` sequentially, and ``kernels="compiled"`` on the
threaded runtime with a 2D row split — and checks the factors:

* with numba installed, the compiled factors must match the reference
  to a pinned roundoff bound (the jit kernels reorder no reductions in
  the sequential path, but the threaded run legitimately does);
* without numba, ``kernels="compiled"`` must degrade gracefully to the
  numpy path and the sequential factor must be *byte-identical* to the
  reference (the degradation contract the tier-1 tests also pin).

Exit status 0 on success; any mismatch or stamping error is fatal.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.factorization import factorize_sequential
from repro.kernels.compiled import HAVE_NUMBA
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.generators import grid_laplacian_2d
from repro.symbolic import SymbolicOptions, analyze

RTOL, ATOL = 1e-9, 1e-12


def _compare(ref, got, label: str, *, exact: bool) -> None:
    for k in range(ref.n_cblk):
        if exact:
            if not np.array_equal(ref.L[k], got.L[k]):
                sys.exit(f"{label}: panel {k} is not byte-identical to "
                         "the numpy reference")
        elif not np.allclose(ref.L[k], got.L[k], rtol=RTOL, atol=ATOL):
            err = float(np.max(np.abs(ref.L[k] - got.L[k])))
            sys.exit(f"{label}: panel {k} deviates from the reference "
                     f"by {err:.3e} (bound rtol={RTOL}, atol={ATOL})")
    if ref.D is not None:
        for k in range(ref.n_cblk):
            same = (np.array_equal(ref.D[k], got.D[k]) if exact else
                    np.allclose(ref.D[k], got.D[k], rtol=RTOL, atol=ATOL))
            if not same:
                sys.exit(f"{label}: D block {k} deviates")


def main() -> None:
    backend = "compiled" if HAVE_NUMBA else "numpy"
    print(f"compiled-smoke: numba {'present' if HAVE_NUMBA else 'absent'}"
          f" -- kernels='compiled' resolves to '{backend}'")

    matrix = grid_laplacian_2d(24, jitter=0.05, seed=0)
    res = analyze(matrix, SymbolicOptions(split_max_width=16))
    permuted = matrix.permute(res.perm.perm)

    ref = factorize_sequential(res.symbol, permuted, "llt", kernels="numpy")
    seq = factorize_sequential(res.symbol, permuted, "llt",
                               kernels="compiled")
    if seq.kernels != backend:
        sys.exit(f"sequential factor stamped kernels={seq.kernels!r}, "
                 f"expected {backend!r}")
    # Sequential order is identical, so the jit path itself must agree
    # to roundoff; the numpy fallback must agree bitwise.
    _compare(ref, seq, "sequential compiled", exact=not HAVE_NUMBA)
    print("compiled-smoke: sequential factor "
          + ("bit-identical" if not HAVE_NUMBA else "within bound"))

    trace = ExecutionTrace()
    thr = factorize_threaded(
        res.symbol, permuted, "llt", n_workers=4, trace=trace,
        kernels="compiled", split_rows=8, granularity="2d",
    )
    if trace.meta.get("kernels") != backend:
        sys.exit(f"trace stamped kernels={trace.meta.get('kernels')!r}, "
                 f"expected {backend!r}")
    if trace.meta.get("kernels_requested") != "compiled":
        sys.exit("trace lost the requested-kernels stamp")
    if int(trace.meta.get("split_rows", -1)) != 8:
        sys.exit("trace lost the split_rows stamp")
    _compare(ref, thr, "threaded compiled + 2D split", exact=False)
    print("compiled-smoke: threaded 2D-split factor within bound "
          f"({len(trace.events)} tasks traced)")


if __name__ == "__main__":
    main()
