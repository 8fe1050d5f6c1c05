"""One switch to the oracle: :func:`repro.cbuild.python_bodies`.

Inside it neither C library is reached — not the analysis helper, not
the numeric kernels — and every answer is the one the Python and NumPy
bodies give when called directly: the analysis, both drivers'
factorizations, the sequential and the threaded solve with one and
three columns, refinement and the mat-vec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import SolverOptions, SparseSolver, cbuild
from repro.core.factor import NumericFactor
from repro.core.factorization import facing_cblks
from repro.core.triangular import solve_factored
from repro.graph import native as graph_native
from repro.kernels import native as kernels_native
from repro.kernels.indexcache import get_couple_cache
from repro.kernels.panel import panel_factorize, panel_update
from repro.runtime.threaded import solve_threaded
from repro.runtime.tracing import ExecutionTrace


def _numpy_factor(symbol, permuted, factotype) -> NumericFactor:
    """The NumPy kernels called directly, right-looking."""
    factor = NumericFactor.assemble(symbol, permuted, factotype)
    factor.index_cache = get_couple_cache(symbol)
    for k in range(symbol.n_cblk):
        panel_factorize(factor, k)
        for t in facing_cblks(symbol, k):
            panel_update(factor, k, int(t))
    return factor


@pytest.mark.parametrize("runtime", ["sequential", "threaded"])
@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
def test_the_switch_reaches_no_c_and_gives_the_numpy_answers(
        grid2d_small, helmholtz_small, no_unit_floor, monkeypatch, runtime,
        factotype):
    def refuse():
        raise AssertionError("a C library was reached inside python_bodies()")

    monkeypatch.setattr(graph_native, "_library", refuse)
    monkeypatch.setattr(kernels_native, "_library", refuse)
    matrix = helmholtz_small if factotype == "ldlt" else grid2d_small
    rng = np.random.default_rng(3)
    n = matrix.n_rows
    b = rng.standard_normal(n)
    block = rng.standard_normal((n, 3))
    with cbuild.python_bodies():
        solver = SparseSolver(matrix, SolverOptions(
            factotype=factotype, runtime=runtime, n_workers=2))
        info = solver.factorize()
        x = solver.solve(b, method="none")
        xs = solver.solve(block, method="none")
        refined = solver.solve(b)
        product = matrix.matvec(xs)
        res = solver.analysis
        trace = ExecutionTrace()
        if runtime == "threaded":   # the solver's own solves are traceless
            solve_threaded(solver.factor, res.perm.apply_to_vector(b),
                           n_workers=2, trace=trace)
        permuted = matrix.permute(res.perm.perm)
        ref = _numpy_factor(res.symbol, permuted, factotype)

    assert info.kernels == solver.factor.kernels == "numpy"
    if runtime == "threaded":
        assert trace.meta["kernels"] == "numpy" and trace.events
    for side in ("L_arena", "U_arena", "D_arena"):
        got, want = getattr(solver.factor, side), getattr(ref, side)
        assert (got is None) == (want is None), side
        assert got is None or np.array_equal(got, want), side
    perm = res.perm
    for rhs, got in ((b, x), (block, xs)):
        want = perm.undo_on_vector(
            solve_factored(ref, perm.apply_to_vector(rhs)))
        assert np.array_equal(got, want)
    assert np.array_equal(product, matrix._matvec_numpy(xs))
    assert (np.linalg.norm(matrix._matvec_numpy(refined) - b)
            <= 1e-10 * np.linalg.norm(b))
