"""Differential fuzzing of the solver against SciPy's SuperLU.

Hypothesis draws small matrices — random patterns, grids, arrowheads,
0 x 0 / 1 x 1, with or without zero diagonal entries — and runs each
through every factotype x {sequential, threaded} x nrhs in {1, 3}, with
two ``update_values`` refactorizations.  The threaded solve must equal
``solve_factored`` bit for bit on every worker count in {1, 2, 3}, pop
order and nrhs in {1, 3, 16}, for the native factor and for the same
panels on the NumPy bodies.  With every panel split into a diagonal
task and row blocks, each factotype is factorized sequentially and on
1-3 workers under both pop orders, on both kernel backends: the threaded
factors equal the sequential one bit for bit, the native factor the
NumPy one to 1e-12, every 1-, 3- and 16-column solve meets SuperLU's
backward error, and a hand-back on a split panel perturbs the same
pivots on both drivers.  Every solution must meet the
scaled backward error of ``benchmarks/e2e/reference.py`` (imported, not
copied) wherever SuperLU meets it; an input the solver rejects must raise
a typed exception (or warning), quickly.  Every refactorization must
assemble through the symbol's memoised map exactly what a fresh map
assembles, and the C amalgamation must equal its Python body on random
supernode trees.  The plans of a fresh factorization built in C — the
permuted pattern, the couple plan with its bounds check and the assembly
map of every factotype — must equal their NumPy bodies array for array,
on random patterns, forests, 0 x 0 / 1 x 1, asymmetric LU patterns and
the four benchmark inputs.

``make fuzz-smoke`` runs this file alone.
"""

from __future__ import annotations

import contextlib
import importlib.util
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SparseSolver, cbuild
from repro.core.factor import AssemblyMap, NumericFactor, assembly_map
from repro.core.factorization import factorize_sequential
from repro.core.options import SolverOptions
from repro.core.refinement import ConvergenceWarning
from repro.core.triangular import solve_factored
from repro.dag.builder import factor_plan, row_blocks
from repro.graph import native
from repro.kernels import native as native_kernels
from repro.kernels.indexcache import CoupleMapCache, get_couple_cache
from repro.sparse import load_matrix
from repro.runtime.threaded import factorize_threaded, solve_threaded
from repro.sparse.csc import SparseMatrixCSC, coo_to_csc
from repro.sparse.generators import grid_laplacian_2d
from repro.symbolic import SymbolicOptions, analyze
from repro.symbolic.structures import plan_store
from tests.conftest import backend, split_every_panel
from tests.test_analysis_golden import E2E_INPUTS
from tests.test_analysis_passes import assert_same_analysis

_spec = importlib.util.spec_from_file_location(
    "e2e_reference",
    Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"
    / "reference.py",
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

#: What a rejected input may raise: a pivot the diagonal cannot take
#: (LAPACK's not-positive-definite, the static-pivot zero), an argument
#: error, or — escalated here — the warning of an answer whose
#: refinement stopped short of its tolerance (a tiny pivot).
REJECTIONS = (np.linalg.LinAlgError, ZeroDivisionError, ValueError,
              ConvergenceWarning)
#: Seconds within which a rejection must arrive.
REJECT_WITHIN_S = 5.0
#: Solutions may be this many times SuperLU's backward error when that
#: is above the benchmark's tolerance (an ill-conditioned draw).
SUPERLU_SLACK = 100.0

FACTOTYPES = ("llt", "ldlt", "lu")
RUNTIMES = ("sequential", "threaded")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@st.composite
def patterns(draw) -> tuple[int, np.ndarray, np.ndarray]:
    """``(n, rows, cols)`` of the strictly lower entries of a symmetric
    pattern."""
    kind = draw(st.sampled_from(["tiny", "random", "grid", "arrowhead"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if kind == "tiny":
        n = draw(st.sampled_from([0, 1]))
        i = j = np.empty(0, dtype=np.int64)
    elif kind == "random":
        n = draw(st.integers(2, 50))
        m = int(n * draw(st.floats(0.0, 4.0)))
        i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    elif kind == "grid":
        nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 7))
        n = nx * ny
        ids = np.arange(n).reshape(ny, nx)
        i = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
        j = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    else:
        n = draw(st.integers(2, 40))
        hub = draw(st.sampled_from([0, n - 1]))
        i, j = np.arange(n), np.full(n, hub)
    lo, hi = np.maximum(i, j), np.minimum(i, j)
    keep = lo != hi
    key = np.unique(lo[keep] * max(n, 1) + hi[keep])
    return n, key // max(n, 1), key % max(n, 1)


def matrix_values(n: int, rows: np.ndarray, cols: np.ndarray,
                  factotype: str, zero_diag: np.ndarray, stored: bool,
                  rng: np.random.Generator) -> SparseMatrixCSC:
    """Values on the pattern: strictly diagonally dominant (positive for
    LLᵀ, random signs otherwise, unsymmetric for LU), so no pivot needs
    pivoting — except the diagonal entries ``zero_diag`` zeroes (kept in
    the pattern as explicit zeros when ``stored``, else left out)."""
    lower = rng.uniform(-1.0, 1.0, rows.size)
    upper = (rng.uniform(-1.0, 1.0, rows.size) if factotype == "lu"
             else lower)
    weight = np.zeros(n)
    np.add.at(weight, rows, np.abs(lower))
    np.add.at(weight, cols, np.abs(upper))
    np.add.at(weight, cols, np.abs(lower))
    np.add.at(weight, rows, np.abs(upper))
    diag = weight + rng.uniform(0.5, 1.5, n)
    if factotype != "llt":
        diag *= rng.choice([-1.0, 1.0], n)
    diag[zero_diag] = 0.0
    every = np.arange(n)
    if not stored:
        every = np.setdiff1d(every, zero_diag)
        diag = diag[every]
    return coo_to_csc(
        n, n,
        np.concatenate([rows, cols, every]),
        np.concatenate([cols, rows, every]),
        np.concatenate([lower, upper, diag]),
    )


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def superlu_backward_error(matrix: SparseMatrixCSC, b: np.ndarray) -> float:
    """SuperLU's scaled backward error on ``A x = b`` (``inf`` when it
    finds ``A`` singular)."""
    import scipy.sparse.linalg as spla

    a = reference.to_scipy(matrix.n_rows, matrix.colptr, matrix.rowind,
                           matrix.values)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x = spla.splu(a).solve(b)
    except RuntimeError:   # "Factor is exactly singular"
        return float("inf")
    return reference.backward_error(a, x, b)


def assert_memoised_map_is_fresh(solver: SparseSolver) -> None:
    """The arenas the memoised map assembles equal a fresh map's."""
    symbol, ft = solver.analysis.symbol, solver.options.factotype
    permuted = solver._permuted_matrix()
    memo = assembly_map(symbol, permuted, ft)
    assert any(part is memo for part in plan_store(symbol).values())
    fresh = solver.matrix.permute(solver.analysis.perm.perm)
    arenas = []
    for amap, values in ((memo, permuted.values),
                         (AssemblyMap(symbol, fresh.colptr, fresh.rowind,
                                      ft == "lu"), fresh.values)):
        factor = NumericFactor.allocate(symbol, ft, values.dtype)
        amap.apply(factor, values)
        arenas.append(factor)
    for side in ("L_arena", "U_arena", "D_arena"):
        a, b = (getattr(f, side) for f in arenas)
        assert (a is None) == (b is None)
        assert a is None or np.array_equal(a, b)


def solve_or_reject(solver: SparseSolver, b: np.ndarray):
    """``solver.solve(b)``, or ``None`` when it rejected the matrix with
    a typed exception within the time bound."""
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            warnings.simplefilter("error", ConvergenceWarning)
            return solver.solve(b)
    except REJECTIONS:
        assert time.perf_counter() - start < REJECT_WITHIN_S
        return None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(pattern=patterns(), data=st.data())
def test_solutions_match_superlu(pattern, data):
    n, rows, cols = pattern
    seed = data.draw(st.integers(0, 2 ** 16), label="seed")
    zeros = data.draw(st.sampled_from([0, 0, 1, 2]), label="zero pivots")
    stored = data.draw(st.booleans(), label="stored zeros")
    rng = np.random.default_rng(seed)
    zero_diag = rng.permutation(n)[:min(zeros, n)]
    for ft in FACTOTYPES:
        values = [matrix_values(n, rows, cols, ft, zero_diag, stored, rng)
                  for _ in range(3)]
        for runtime in RUNTIMES:
            solver = SparseSolver(values[0], SolverOptions(
                factotype=ft, runtime=runtime, n_workers=2))
            for matrix in values:
                if matrix is not values[0]:
                    solver.update_values(matrix)
                for nrhs in (1, 3):
                    b = rng.standard_normal((n,) if nrhs == 1 else (n, nrhs))
                    x = solve_or_reject(solver, b)
                    if x is None:
                        continue
                    assert x.shape == b.shape
                    if n == 0:
                        continue
                    err = reference.backward_error(
                        reference.to_scipy(n, matrix.colptr, matrix.rowind,
                                           matrix.values), x, b)
                    tol = max(reference.BACKWARD_TOL,
                              SUPERLU_SLACK * superlu_backward_error(matrix,
                                                                     b))
                    assert err <= tol, (ft, runtime, nrhs, err, tol)
                if solver.factor is not None:
                    assert_memoised_map_is_fresh(solver)


# ----------------------------------------------------------------------
# threaded solve == sequential solve, bit for bit
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(pattern=patterns(), data=st.data())
def test_threaded_solve_is_the_sequential_solve(no_unit_floor, pattern,
                                                data):
    """Every worker count, pop order and block width, on both kernel
    backends: the solve DAG orders every shared write, so no schedule
    can change a bit.  (Without the flop floors: the drawn systems are
    far below ``MIN_SOLVE_FLOPS``, whose DAG is a two-task chain.)"""
    n, rows, cols = pattern
    ft = data.draw(st.sampled_from(FACTOTYPES), label="factotype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16),
                                          label="seed"))
    matrix = matrix_values(n, rows, cols, ft, np.empty(0, dtype=np.int64),
                           True, rng)
    solver = SparseSolver(matrix, SolverOptions(factotype=ft))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        solver.factorize()
    factor = solver.factor
    for kernels in ("native", "numpy"):
        for nrhs in (1, 3, 16):
            b = rng.standard_normal((n,) if nrhs == 1 else (n, nrhs))
            with backend(kernels):
                ref = solve_factored(factor, b)
                for n_workers in (1, 2, 3):
                    got = solve_threaded(factor, b, n_workers=n_workers)
                    assert np.array_equal(got, ref), (
                        kernels, nrhs, n_workers)


# ----------------------------------------------------------------------
# split panels: diagonal task + row blocks
# ----------------------------------------------------------------------
def _panels(factor) -> list[np.ndarray]:
    return [p for side in (factor.L, factor.U, factor.D) if side is not None
            for p in side]


def _assert_identical(a, b, what) -> None:
    assert all(np.array_equal(x, y) for x, y in zip(_panels(a), _panels(b))), what


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large,
                                 HealthCheck.function_scoped_fixture])
@given(pattern=patterns(), data=st.data())
def test_split_panels_match_superlu(monkeypatch, pattern, data):
    """Every factotype, driver, pop order and backend on split panels,
    with the zero diagonal entries :func:`test_solutions_match_superlu`
    draws (their blocks come back to Python inside the executor): the
    threaded factor, or error, is the sequential one bit for bit (per
    backend), the native factor the NumPy one to 1e-12, and every solve
    SuperLU-accurate."""
    split_every_panel(monkeypatch)
    n, rows, cols = pattern
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16),
                                          label="seed"))
    zeros = data.draw(st.sampled_from([0, 0, 1, 2]), label="zero pivots")
    stored = data.draw(st.booleans(), label="stored zeros")
    zero_diag = rng.permutation(n)[:min(zeros, n)]
    res = analyze(matrix_values(n, rows, cols, "lu", zero_diag, stored, rng))
    for ft in FACTOTYPES:
        matrix = matrix_values(n, rows, cols, ft, zero_diag, stored, rng)
        _check_split(res, matrix, ft, rng)


def _outcome(fn):
    """``("ok", fn())``, or the type and text of the rejection it raised."""
    try:
        return "ok", fn()
    except REJECTIONS as exc:
        return type(exc), str(exc)


def _assert_close(ref, got) -> None:
    """Every panel of ``got`` equals ``ref``'s to 1e-12."""
    for x, y in zip(_panels(got), _panels(ref)):
        assert np.allclose(x, y, rtol=1e-12, atol=1e-12 * max(
            1.0, float(np.abs(y).max(initial=0.0))))


def _check_split(res, matrix, ft, rng) -> None:
    n, perm = matrix.n_rows, res.perm
    permuted = matrix.permute(perm.perm)
    a = reference.to_scipy(n, matrix.colptr, matrix.rowind, matrix.values)
    rhs = [rng.standard_normal((n,) if k == 1 else (n, k)) for k in (1, 3, 16)]
    tols = [max(reference.BACKWARD_TOL,
                SUPERLU_SLACK * superlu_backward_error(matrix, b))
            for b in rhs] if n else []
    seq = {}
    for kernels in ("native", "numpy"):
        with backend(kernels):
            status, ref = _outcome(lambda: factorize_sequential(
                res.symbol, permuted, ft))
            runs = [(status, ref, solve_factored, 1)] + [
                (*_outcome(lambda: factorize_threaded(
                    res.symbol, permuted, ft, n_workers=w)),
                 solve_threaded, w)
                for w in (1, 2, 3)]
        if status != "ok":
            assert all(run[:2] == (status, ref) for run in runs), kernels
            continue
        seq[kernels] = ref
        for got, factor, solve, w in runs:
            assert got == "ok", (kernels, w, factor)
            _assert_identical(ref, factor, (kernels, w))
            for b, tol in zip(rhs, tols):
                options = {} if solve is solve_factored else {"n_workers": w}
                x = perm.undo_on_vector(
                    solve(factor, perm.apply_to_vector(b), **options))
                err = reference.backward_error(a, x, b)
                assert err <= tol, (ft, kernels, w, b.shape, err, tol)
    if len(seq) == 2:
        _assert_close(seq["numpy"], seq["native"])


@pytest.mark.skipif(native_kernels.availability() is not None,
                    reason="native kernels unavailable")
@pytest.mark.parametrize("ft", ["ldlt", "lu"])
def test_split_panel_handback_is_the_same_on_both_drivers(monkeypatch, ft):
    """A tiny pivot in a split panel's diagonal block: C hands the block
    back, Python perturbs it (diagonal only) and the row blocks solve
    in C — the same factor and perturbation count on both drivers."""
    split_every_panel(monkeypatch)
    matrix = grid_laplacian_2d(12, jitter=0.05, seed=4)
    res = analyze(matrix)
    permuted = matrix.permute(res.perm.perm)
    blocks = row_blocks(res.symbol, ft)
    clean = factorize_sequential(res.symbol, permuted, ft)
    split = np.flatnonzero(np.diff(blocks.ptr))
    k = int(split[-1])
    diag = np.abs(np.diagonal(clean.L[k][:res.symbol.cblk_width(k)])
                  if ft == "lu" else clean.D[k])
    threshold = float(diag.min()) * 1.01     # bites in panel k at least
    handed = []
    inner = native_kernels.panel_factorize

    def spy(factor, k, **options):
        handed.append((k, options.get("diagonal_only", False)))
        inner(factor, k, **options)

    monkeypatch.setattr(native_kernels, "panel_factorize", spy)
    seq = factorize_sequential(res.symbol, permuted, ft,
                               pivot_threshold=threshold)
    assert (k, True) in handed
    assert seq.pivot_monitor.n_perturbed > 0
    for w in (1, 3):
        handed.clear()
        thr = factorize_threaded(res.symbol, permuted, ft, n_workers=w,
                                 pivot_threshold=threshold)
        assert (k, True) in handed
        assert thr.pivot_monitor.n_perturbed == seq.pivot_monitor.n_perturbed
        _assert_identical(seq, thr, w)


# ----------------------------------------------------------------------
# Narrow panels: the C elimination == the NumPy kernels' column loops
# ----------------------------------------------------------------------
_NO_KERNELS = native_kernels.availability() is not None


def _narrow() -> int:
    return native_kernels.kernel_bounds()["narrow"]


def _two_panels(width: int, ft: str, cplx: bool, pivots: bool,
                rng: np.random.Generator):
    """A dense ``2 width`` matrix analysed into two panels of ``width``
    columns (the first with ``width`` rows below it, so its TRSM and one
    update run too), with random values, diagonally dominant — except,
    with ``pivots``, a leading 2 x 2 whose large off-diagonal pair makes
    ``?sytrf`` / ``?getrf`` pivot while every pivot of the column loop
    stays far from zero."""
    n = 2 * width
    a = rng.uniform(-1.0, 1.0, (n, n))
    if cplx:
        a = a + 1j * rng.uniform(-1.0, 1.0, (n, n))
    if ft != "lu":
        a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    dominance = np.abs(a).sum(axis=1) + rng.uniform(0.5, 1.5, n)
    signs = 1.0 if ft == "llt" else rng.choice([-1.0, 1.0], n)
    np.fill_diagonal(a, dominance * signs)
    if pivots:
        big = 3.0 * max(abs(a[0, 0]), abs(a[1, 1]))
        a[0, 1] = a[1, 0] = big
    res = analyze(SparseMatrixCSC.from_dense(a),
                  SymbolicOptions(ordering="natural", split_max_width=width))
    assert np.diff(res.symbol.cblk_ptr).tolist() == [width, width]
    return res.symbol, SparseMatrixCSC.from_dense(a).permute(res.perm.perm)


def _pivots(factor) -> np.ndarray:
    """The pivots the column loops check: D, or U's diagonal."""
    if factor.factotype == "ldlt":
        return np.concatenate(list(factor.D))
    return np.concatenate([np.diagonal(p[:p.shape[1]]) for p in factor.L])


@contextlib.contextmanager
def _counting_handbacks():
    """The panels C hands back to ``panel_factorize``, in order."""
    seen: list[int] = []
    inner = native_kernels.panel_factorize

    def spy(factor, k, **options):
        seen.append(k)
        inner(factor, k, **options)

    native_kernels.panel_factorize = spy
    try:
        yield seen
    finally:
        native_kernels.panel_factorize = inner


@pytest.mark.skipif(_NO_KERNELS, reason="native kernels unavailable")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_narrow_panels_match_the_column_loops(data):
    """Widths 1 to the narrow bound + 1, every factotype, real and
    complex, thresholds that bite: the native factor is the NumPy one to
    1e-12 with the same perturbation count.  A narrow block LAPACK would
    pivot commits in C (no hand-back); a narrow block hands back only
    where a pivot is under the threshold."""
    width = data.draw(st.integers(1, _narrow() + 1), label="width")
    ft = data.draw(st.sampled_from(FACTOTYPES), label="factotype")
    cplx = ft != "llt" and data.draw(st.booleans(), label="complex")
    pivots = width > 1 and ft != "llt" and data.draw(st.booleans(),
                                                     label="lapack pivots")
    bites = ft != "llt" and data.draw(st.booleans(), label="threshold")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16),
                                          label="seed"))
    symbol, permuted = _two_panels(width, ft, cplx, pivots, rng)
    threshold = 0.0
    with cbuild.python_bodies():
        if bites:   # between the two smallest pivot sizes: perturbs some
            size = np.sort(np.abs(_pivots(factorize_sequential(
                symbol, permuted, ft))))
            threshold = (float(size[0] + size[min(1, size.size - 1)]) / 2
                         + 1e-300)
        ref = factorize_sequential(symbol, permuted, ft,
                                   pivot_threshold=threshold)
    with _counting_handbacks() as handed:
        got = factorize_sequential(symbol, permuted, ft,
                                   pivot_threshold=threshold)
    assert got.kernels == "native"
    _assert_close(ref, got)
    if bites:
        assert (got.pivot_monitor.n_perturbed
                == ref.pivot_monitor.n_perturbed > 0)
    if width <= _narrow():
        assert bool(handed) == bites, handed


@pytest.mark.skipif(_NO_KERNELS, reason="native kernels unavailable")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_narrow_pivot_failures_end_as_before(data):
    """A zero, tiny or NaN first pivot of a narrow block: C hands the
    block back and the run ends where the NumPy kernels end — the same
    typed error and text, or (a tiny pivot under the threshold) the same
    perturbed factor to 1e-12."""
    width = data.draw(st.integers(1, _narrow()), label="width")
    ft = data.draw(st.sampled_from(FACTOTYPES), label="factotype")
    cplx = ft != "llt" and data.draw(st.booleans(), label="complex")
    kind = data.draw(st.sampled_from(["zero", "tiny", "nan"]), label="pivot")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16),
                                          label="seed"))
    symbol, permuted = _two_panels(width, ft, cplx, False, rng)
    values = permuted.values.copy()
    first = permuted.colptr[0]          # row 0 leads column 0
    assert permuted.rowind[first] == 0
    values[first] = {"zero": 0.0, "tiny": 1e-300, "nan": np.nan}[kind]
    poisoned = SparseMatrixCSC(permuted.n_rows, permuted.n_cols,
                               permuted.colptr, permuted.rowind, values)
    # Perturbed to a size like its neighbours': no growth to amplify
    # the two backends' roundoff.
    threshold = 0.25 if kind == "tiny" else 0.0
    def run():
        return factorize_sequential(symbol, poisoned, ft,
                                    pivot_threshold=threshold)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with cbuild.python_bodies():
            expected = _outcome(run)
        with _counting_handbacks() as handed:
            got = _outcome(run)
    if ft != "llt" or kind != "tiny":   # LL^T takes a tiny positive pivot
        assert handed[:1] == [0]
    assert got[0] == expected[0]
    if got[0] != "ok":
        assert got[1] == expected[1]
    elif kind == "nan":
        for x, y in zip(_panels(got[1]), _panels(expected[1])):
            assert np.array_equal(np.isnan(x), np.isnan(y))
    else:
        _assert_close(expected[1], got[1])


# ----------------------------------------------------------------------
# C amalgamation (inside pass 3) == Python amalgamation
# ----------------------------------------------------------------------
@pytest.mark.skipif(native.availability() is not None,
                    reason="native analysis unavailable")
@settings(max_examples=150, deadline=None)
@given(drawn=patterns(),
       ratio=st.sampled_from([0.0, 0.05, 0.12, 0.5, 3.0, 1e6]))
def test_native_amalgamate_equals_python(drawn, ratio):
    """The merge loop pass 3 runs in C against the Python heap, from the
    fundamental supernodes of drawn patterns: the same panels, row sets
    and every other array of the analysis."""
    n, rows, cols = drawn
    diag = np.arange(n)
    pattern = coo_to_csc(n, n, np.concatenate([rows, cols, diag]),
                         np.concatenate([cols, rows, diag]))
    opts = SymbolicOptions(amalgamation_ratio=ratio, split_max_width=None)
    got = analyze(pattern, opts)
    with cbuild.python_bodies():
        want = analyze(pattern, opts)
    assert_same_analysis(got, want)


# ----------------------------------------------------------------------
# C plans of a fresh factorization == their NumPy bodies
# ----------------------------------------------------------------------
@st.composite
def plan_matrices(draw) -> SparseMatrixCSC:
    """A matrix for the plan builders: a :func:`patterns` draw or a
    random forest (its tree edges), with a full diagonal; for LU, one
    random side of some off-diagonal pairs dropped (an asymmetric
    pattern, so that the U side of the assembly has entries of its own)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        n, rows, cols = draw(patterns())
    else:
        n = draw(st.integers(1, 60))
        parent = np.array([rng.integers(i + 1, n + 1) for i in range(n)])
        child = np.flatnonzero(parent < n)   # parent n: a root
        rows, cols = parent[child], child
    ft = draw(st.sampled_from(FACTOTYPES))
    matrix = matrix_values(n, rows, cols, ft, np.empty(0, dtype=np.int64),
                           True, rng)
    if ft == "lu" and matrix.nnz:
        r, c, v = matrix.to_coo()
        keep = (r == c) | (rng.random(r.size) < 0.7)
        matrix = coo_to_csc(n, n, r[keep], c[keep], v[keep])
    return matrix, ft


def assert_plans_match_numpy(matrix: SparseMatrixCSC, ft: str) -> None:
    """The permuted pattern, the couple plan and its scratch sizes, and
    the assembly map of ``matrix`` for ``ft``: C against NumPy."""
    res = analyze(matrix)
    symbol, perm = res.symbol, res.perm.perm
    got_plan = get_couple_cache(symbol)
    assert factor_plan(symbol)["couple plan"] is got_plan
    with cbuild.python_bodies():
        want = matrix.permute(perm)
        want_plan = CoupleMapCache(symbol)
    got = matrix.permute(perm)
    for name in ("colptr", "rowind", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    for name in CoupleMapCache._ARRAYS:
        a, b = getattr(got_plan, name), getattr(want_plan, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    got_plan.validate()
    assert (got_plan.max_mn, got_plan.max_nw, got_plan.max_w) == \
        want_plan._check_numpy()
    got_map = AssemblyMap(symbol, got.colptr, got.rowind, ft == "lu")
    with cbuild.python_bodies():
        want_map = AssemblyMap(symbol, got.colptr, got.rowind, ft == "lu")
    for name in ("L_src", "L_dst", "U_src", "U_dst"):
        a, b = getattr(got_map, name), getattr(want_map, name)
        assert (a is None) == (b is None) == (name[0] == "U" and ft != "lu")
        assert a is None or (a.dtype == b.dtype and np.array_equal(a, b))


_NO_C = (native.availability() is not None
         or native_kernels.availability() is not None)


@pytest.mark.skipif(_NO_C, reason="native analysis or kernels unavailable")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(drawn=plan_matrices())
def test_native_plans_equal_python(drawn):
    assert_plans_match_numpy(*drawn)


@pytest.mark.skipif(_NO_C, reason="native analysis or kernels unavailable")
@pytest.mark.parametrize("workload", sorted(E2E_INPUTS))
@pytest.mark.parametrize("ft", FACTOTYPES)
def test_native_plans_equal_python_on_benchmark_inputs(workload, ft):
    assert_plans_match_numpy(load_matrix(*E2E_INPUTS[workload], 0), ft)
