"""The native backend against its oracle, the NumPy kernels.

Differential tests: native factors equal the NumPy ones (factorized
under :func:`repro.cbuild.python_bodies`) to 1e-12, threaded runs equal
the sequential one bit for bit *within* the native backend, every pivot
failure ends where the NumPy kernels end (C hands the panel back to the
one Python implementation of the pivot policy), a corrupted plan never
reaches C, and a host that cannot build the library silently-but-loudly
runs the NumPy kernels.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SolverOptions, SparseSolver, cbuild
from repro.core.factor import NumericFactor
from repro.core.factorization import factorize_sequential
from repro.kernels import native
from repro.kernels.indexcache import CouplePlanError, get_couple_cache
from repro.runtime.threaded import THREAD_SCHEDULERS, factorize_threaded
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic import SymbolicOptions, analyze
from repro.verify import stale_couple_map
from tests.conftest import backend

pytestmark = pytest.mark.skipif(
    native.availability() is not None,
    reason=f"native backend unavailable: {native.availability()}",
)

RTOL = 1e-12
#: One panel per column: the width-1 chains the unit path fuses.
NO_AMALGAMATION = SymbolicOptions(
    ordering="natural", amalgamation_ratio=None, split_max_width=None
)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _setup(mat, options=None):
    res = analyze(mat, options)
    return res.symbol, mat.permute(res.perm.perm)


def _sides(factor):
    for name in ("L", "U", "D"):
        panels = getattr(factor, name)
        if panels is not None:
            yield name, np.concatenate(
                [p.ravel() for p in panels] + [np.empty(0, factor.dtype)])


def assert_close(ref, got):
    for (name, a), (_, b) in zip(_sides(ref), _sides(got)):
        scale = np.abs(a).max(initial=0.0)
        assert np.allclose(a, b, rtol=RTOL, atol=RTOL * scale), (
            name, np.abs(a - b).max(initial=0.0), scale)


def assert_identical(ref, got):
    for (name, a), (_, b) in zip(_sides(ref), _sides(got)):
        assert np.array_equal(a, b), name


def _dense_pattern(kind: str, n: int, rng) -> np.ndarray:
    """Symmetric boolean pattern (diagonal included)."""
    eye = np.eye(n, dtype=bool)
    if kind == "dense":
        return np.ones((n, n), dtype=bool)
    if kind == "arrowhead":
        p = eye.copy()
        p[-1, :] = p[:, -1] = True
        return p
    if kind == "chain":
        return eye | np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    if kind == "grid":
        nx = max(1, int(np.sqrt(n)))
        idx = np.arange(nx * nx).reshape(nx, nx)
        p = np.eye(nx * nx, dtype=bool)
        for a, b in ((idx[:-1], idx[1:]), (idx[:, :-1], idx[:, 1:])):
            p[a.ravel(), b.ravel()] = p[b.ravel(), a.ravel()] = True
        return p
    upper = np.triu(rng.random((n, n)) < 0.15, 1)   # "random"
    return upper | upper.T | eye


def make_matrix(kind: str, n: int, seed: int, cplx: bool,
                unsymmetric: bool = False) -> SparseMatrixCSC:
    """Diagonally dominant matrix on a generated symmetric pattern:
    real SPD, complex symmetric, or (``unsymmetric``) LU-only values."""
    rng = np.random.default_rng(seed)
    return matrix_on(_dense_pattern(kind, n, rng), rng, cplx, unsymmetric)


def matrix_on(pattern: np.ndarray, rng, cplx: bool,
              unsymmetric: bool = False) -> SparseMatrixCSC:
    """:func:`make_matrix`'s values on a given symmetric boolean
    ``pattern`` (diagonal included)."""
    n = pattern.shape[0]
    sym = rng.uniform(-1.0, 1.0, (n, n))
    a = (sym + sym.T) / 2
    if cplx:
        im = rng.uniform(-1.0, 1.0, (n, n))
        a = a + 0.5j * (im + im.T)
    if unsymmetric:
        a = a * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, (n, n)))
    a = np.where(pattern & ~np.eye(n, dtype=bool), a, 0)
    a = a + np.diag(np.abs(a).sum(axis=1) + np.abs(a).sum(axis=0) + 1.0)
    # from_dense drops exact zeros; the pattern has none off the diagonal.
    return SparseMatrixCSC.from_dense(a)


def numpy_factor(*args, **kwargs):
    """``factorize_sequential`` on the NumPy kernels, the oracle."""
    with cbuild.python_bodies():
        return factorize_sequential(*args, **kwargs)


def factotypes(cplx: bool):
    return ("ldlt", "lu") if cplx else ("llt", "ldlt", "lu")


# ----------------------------------------------------------------------
# native == numpy (1e-12), threaded == sequential (bits) within native
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", sorted(THREAD_SCHEDULERS))
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_drivers_agree_on_every_scheduler(grid2d_medium, helmholtz_small,
                                          no_unit_floor, cplx, scheduler):
    symbol, permuted = _setup(helmholtz_small if cplx else grid2d_medium)
    for ft in factotypes(cplx):
        ref = numpy_factor(symbol, permuted, ft)
        seq = factorize_sequential(symbol, permuted, ft)
        assert (ref.kernels, seq.kernels) == ("numpy", "native")
        assert np.iscomplexobj(seq.L[0]) == cplx
        assert_close(ref, seq)
        for n_workers in (1, 2, 4):
            got = factorize_threaded(symbol, permuted, ft, scheduler=scheduler,
                                     n_workers=n_workers)
            assert got.kernels == "native"
            assert_identical(seq, got)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["grid", "arrowhead", "random", "chain", "dense"]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    cplx=st.booleans(),
    chains=st.booleans(),
    n_workers=st.sampled_from([1, 2, 4]),
    scheduler=st.sampled_from(sorted(THREAD_SCHEDULERS)),
)
def test_generated_matrices(no_unit_floor, kind, n, seed, cplx, chains,
                            n_workers, scheduler):
    """Grids, arrowheads, random patterns, 1×1, width-1 chains (no
    amalgamation) and a single dense panel."""
    options = NO_AMALGAMATION if chains else None
    for ft in factotypes(cplx):
        mat = make_matrix(kind, n, seed, cplx, unsymmetric=ft == "lu")
        symbol, permuted = _setup(mat, options)
        ref = numpy_factor(symbol, permuted, ft)
        seq = factorize_sequential(symbol, permuted, ft)
        assert_close(ref, seq)
        assert_identical(seq, factorize_threaded(
            symbol, permuted, ft, n_workers=n_workers, scheduler=scheduler))


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_scalar(n):
    mat = SparseMatrixCSC.from_dense(3.0 * np.eye(n))
    symbol, permuted = _setup(mat)
    for ft in ("llt", "ldlt", "lu"):
        seq = factorize_sequential(symbol, permuted, ft)
        assert seq.kernels == "native"
        assert_close(numpy_factor(symbol, permuted, ft), seq)


def test_width_one_chain_is_really_width_one():
    symbol, _ = _setup(make_matrix("chain", 12, 0, False), NO_AMALGAMATION)
    # (the last two columns share a structure: one width-2 supernode)
    assert symbol.n_cblk == 11 and np.diff(symbol.cblk_ptr).max() == 2
    assert get_couple_cache(symbol).n_couples == 10


def test_solver_reports_the_effective_backend(grid2d_small):
    b = np.ones(grid2d_small.n_rows)
    for kernels, runtime in (("native", "sequential"), ("native", "threaded"),
                             ("numpy", "sequential")):
        solver = SparseSolver(grid2d_small, SolverOptions(
            runtime=runtime, n_workers=2))
        with backend(kernels):
            assert solver.factorize().kernels == kernels
            assert solver.residual_norm(solver.solve(b), b) < 1e-12
    assert not hasattr(SolverOptions(), "kernels")   # the host decides


# ----------------------------------------------------------------------
# the hand-back path: one pivot policy, in Python
# ----------------------------------------------------------------------
@pytest.fixture
def handbacks(monkeypatch):
    """Panels C handed back to ``panel_factorize``, in order."""
    seen: list[int] = []
    inner = native.panel_factorize

    def counting(factor, k, **options):
        seen.append(k)
        inner(factor, k, **options)

    monkeypatch.setattr(native, "panel_factorize", counting)
    return seen


def _dense(a) -> tuple:
    return _setup(SparseMatrixCSC.from_dense(np.asarray(a)))


def _outcome(fn):
    """``("ok", factor)`` or ``(exception type, message)`` of ``fn()``."""
    try:
        return "ok", fn()
    except Exception as exc:   # compared, type and text, between backends
        return type(exc), str(exc)


def test_clean_run_never_hands_back(grid2d_medium, handbacks):
    symbol, permuted = _setup(grid2d_medium)
    for ft in ("llt", "ldlt", "lu"):
        factorize_sequential(symbol, permuted, ft)
    assert handbacks == []


@pytest.mark.parametrize("ft", ["ldlt", "lu"])
@pytest.mark.parametrize("driver", ["sequential", "threaded"])
def test_zero_pivot_raises_the_same_error(handbacks, ft, driver):
    symbol, permuted = _dense([[0.0, 1.0], [1.0, 0.0]])

    def run(kernels):
        with backend(kernels):
            if driver == "sequential":
                return factorize_sequential(symbol, permuted, ft)
            return factorize_threaded(symbol, permuted, ft, n_workers=2)

    expected = _outcome(lambda: run("numpy"))
    assert expected[0] is ZeroDivisionError and "zero pivot" in expected[1]
    assert _outcome(lambda: run("native")) == expected
    assert handbacks == [0]


def test_non_spd_block_raises_the_same_error(handbacks):
    symbol, permuted = _dense([[1.0, 2.0], [2.0, 1.0]])
    expected = _outcome(lambda: numpy_factor(symbol, permuted, "llt"))
    assert expected[0] is np.linalg.LinAlgError
    assert _outcome(
        lambda: factorize_sequential(symbol, permuted, "llt")) == expected
    assert handbacks == [0]


def test_complex_llt_is_rejected_as_before(helmholtz_small, handbacks):
    symbol, permuted = _setup(helmholtz_small)
    expected = _outcome(lambda: numpy_factor(symbol, permuted, "llt"))
    assert expected[0] is TypeError
    assert _outcome(
        lambda: factorize_sequential(symbol, permuted, "llt")) == expected


@pytest.mark.parametrize("ft", ["ldlt", "lu"])
def test_tiny_pivots_are_perturbed_alike(grid2d_medium, no_unit_floor,
                                         handbacks, ft):
    symbol, permuted = _setup(grid2d_medium)
    threshold = 3.0   # above the smallest pivot: guaranteed to bite
    ref = numpy_factor(symbol, permuted, ft, pivot_threshold=threshold)
    assert ref.pivot_monitor.n_perturbed > 0
    seq = factorize_sequential(symbol, permuted, ft,
                               pivot_threshold=threshold)
    assert seq.kernels == "native" and handbacks
    assert seq.pivot_monitor.n_perturbed == ref.pivot_monitor.n_perturbed
    assert_close(ref, seq)
    got = factorize_threaded(symbol, permuted, ft, n_workers=3,
                             pivot_threshold=threshold)
    assert got.pivot_monitor.n_perturbed == ref.pivot_monitor.n_perturbed
    assert_identical(seq, got)


def _leading(block, width: int) -> np.ndarray:
    """``block`` in the top-left corner of a ``width``-wide dense block
    whose other pivots are large: one panel of that width."""
    a = np.full((width, width), 0.01) + np.diag(np.full(width, 10.0))
    a[:2, :2] = block
    return a


@pytest.mark.parametrize("ft,block", [
    ("ldlt", [[1.0, 5.0], [5.0, 1.0]]),     # ?sytrf takes a 2×2 pivot
    ("lu", [[1.0, 5.0], [4.0, 1.0]]),       # ?getrf swaps the rows
])
def test_blocks_lapack_would_pivot_take_the_python_loop(handbacks, ft, block):
    """Every pivot passes, but LAPACK would pivot: a narrow block is
    eliminated in C without pivoting, a block wider than the bound goes
    back to the Python column loop; either way the factor is the column
    loop's, bit for bit (one panel, no update, the same operations)."""
    narrow = native.kernel_bounds()["narrow"]
    for width, back in ((2, []), (narrow, []), (narrow + 1, [0])):
        symbol, permuted = _dense(_leading(block, width))
        assert np.diff(symbol.cblk_ptr).tolist() == [width]
        del handbacks[:]
        ref = numpy_factor(symbol, permuted, ft)
        got = factorize_sequential(symbol, permuted, ft)
        assert got.kernels == "native" and handbacks == back, width
        assert_identical(ref, got)


@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_nan_never_yields_an_accepted_factor(grid2d_small, handbacks, ft):
    symbol, permuted = _setup(grid2d_small)
    poisoned = SparseMatrixCSC(
        permuted.n_rows, permuted.n_cols, permuted.colptr, permuted.rowind,
        permuted.values.copy())
    poisoned.values[0] = np.nan   # the first diagonal entry
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = _outcome(lambda: numpy_factor(
            symbol, poisoned, ft))
        del handbacks[:]
        got = _outcome(lambda: factorize_sequential(symbol, poisoned, ft))
    assert handbacks, "C accepted a block with a NaN pivot"
    assert got[0] == expected[0]
    if got[0] == "ok":   # the NumPy kernels let NaN through: so must we
        for (_, a), (_, b) in zip(_sides(expected[1]), _sides(got[1])):
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.isnan(b).any()
    else:
        assert got[1] == expected[1]


# ----------------------------------------------------------------------
# the tiny-couple bound and the phase counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_tiny_bound_on_both_sides(ft):
    """Panels of 8 columns cut from one dense block: couple ``(i, j)``
    runs ``(rows below j's first column) x 8 x 8`` multiply-adds, so the
    couples land on both sides of the tiny bound — one exactly on it.
    Those at or under it are one fused loop each, the others a GEMM and
    a scatter per side (LDLᵀ: and an L·D scaling); the factor is the
    NumPy one either way."""
    tiny = native.kernel_bounds()["tiny"]
    w = 8
    assert tiny % w ** 3 == 0
    n = w * (tiny // w ** 3 + 2)
    a = make_matrix("dense", n, 5, cplx=False, unsymmetric=ft == "lu")
    symbol, permuted = _setup(a, SymbolicOptions(ordering="natural",
                                                 split_max_width=w))
    assert np.all(np.diff(symbol.cblk_ptr) == w)
    plan = get_couple_cache(symbol)
    m = plan.layout.below[plan.src] - plan.i0
    n_face = plan.i1 - plan.i0
    cost = m * n_face * w
    assert np.any(cost == tiny) and np.any(cost > tiny)
    factor = NumericFactor.assemble(symbol, permuted, ft)
    factor.kernels, factor.index_cache = "native", plan
    scratch = native.Scratch(factor, counters=True)
    native.factorize_panels(factor, np.arange(symbol.n_cblk), scratch)
    got = {name: (int(ns), int(calls))
           for name, (ns, calls) in zip(native.PHASES, scratch.counters)}
    big = cost > tiny
    sides = int(big.sum()) + (int(np.sum(big & (m > n_face)))
                              if ft == "lu" else 0)
    assert got["fused"][1] == int(np.sum(~big))
    assert got["gemm"][1] == got["scatter"][1] == sides
    assert got["scale"][1] == (int(big.sum()) if ft == "ldlt" else 0)
    assert got["diag"][1] == symbol.n_cblk
    assert got["trsm"][1] == symbol.n_cblk - 1     # the last: no rows below
    assert all(ns >= 0 for ns, _ in got.values())
    ref = numpy_factor(symbol, permuted, ft)
    assert_close(ref, factor)


def test_counters_reach_a_traced_run_only(grid2d_medium, no_unit_floor):
    """A traced threaded run stamps every worker's phase counters into
    ``trace.meta`` — provenance-free, so not fingerprinted — and an
    untraced run reads no clock for them."""
    from repro.runtime.tracing import META_FINGERPRINT_KEYS, ExecutionTrace

    symbol, permuted = _setup(grid2d_medium)
    trace = ExecutionTrace()
    traced = factorize_threaded(symbol, permuted, "ldlt", n_workers=2,
                                trace=trace)
    phases = trace.meta["kernel_phases"]
    assert "kernel_phases" not in META_FINGERPRINT_KEYS
    assert list(phases) == list(native.PHASES)
    assert all(len(v["ns"]) == len(v["calls"]) == 2 for v in phases.values())
    below = np.count_nonzero(symbol.cblk_heights() > np.diff(symbol.cblk_ptr))
    assert sum(phases["diag"]["calls"]) == symbol.n_cblk
    assert sum(phases["trsm"]["calls"]) == below
    assert sum(phases["fused"]["calls"]) + sum(phases["gemm"]["calls"]) \
        == get_couple_cache(symbol).n_couples
    plain = factorize_threaded(symbol, permuted, "ldlt", n_workers=2)
    assert_identical(traced, plain)
    factor = NumericFactor.assemble(symbol, permuted, "ldlt")
    factor.kernels, factor.index_cache = "native", get_couple_cache(symbol)
    assert native.FactorizeTasks(factor, np.arange(symbol.n_cblk),
                                 2).phases() is None


# ----------------------------------------------------------------------
# a corrupted plan never reaches C
# ----------------------------------------------------------------------
def _factor_with_plan(mat, corrupt):
    symbol, permuted = _setup(mat)
    factor = NumericFactor.assemble(symbol, permuted, "llt")
    plan = get_couple_cache(symbol).clone()
    corrupt(plan)
    factor.index_cache = plan
    return factor


@pytest.mark.parametrize("corrupt,message", [
    (lambda plan: plan.rows_local.__setitem__(0, 10**6), "rows_local"),
    (lambda plan: plan.rows_local.__setitem__(0, -1), "rows_local"),
    (lambda plan: plan.i1.__setitem__(0, 10**6), "tail length"),
    (lambda plan: plan.i0.__setitem__(0, -1), "tail length"),
    (lambda plan: plan.src.__setitem__(0, plan.tgt[0]), "lower to a higher"),
    (lambda plan: plan.tgt_ptr.__setitem__(-1, plan.tgt_ptr[-1] + 1),
     "tgt_ptr"),
    (lambda plan: plan.rl_ptr.__setitem__(1, plan.rl_ptr[1] + 1), "rl_ptr"),
])
def test_out_of_range_plan_is_rejected(grid2d_small, corrupt, message):
    factor = _factor_with_plan(grid2d_small, corrupt)
    before = factor.L_arena.copy()
    with pytest.raises(CouplePlanError, match=message):
        native.factorize_panels(factor, np.arange(factor.n_cblk))
    assert np.array_equal(factor.L_arena, before)   # C never ran


def test_stale_plan_is_rejected(grid2d_small):
    symbol, permuted = _setup(grid2d_small)
    factor = NumericFactor.assemble(symbol, permuted, "llt")
    factor.index_cache, _ = stale_couple_map(get_couple_cache(symbol))
    before = factor.L_arena.copy()
    with pytest.raises(CouplePlanError, match="equal target rows"):
        native.factorize_panels(factor, np.arange(factor.n_cblk))
    assert np.array_equal(factor.L_arena, before)
    get_couple_cache(symbol).validate()   # the pristine plan is untouched


def test_wrong_arguments_are_rejected(grid2d_small, grid2d_medium):
    symbol, permuted = _setup(grid2d_small)
    factor = NumericFactor.assemble(symbol, permuted, "llt")
    with pytest.raises(ValueError, match="couple plan"):
        native.factorize_panels(factor, np.arange(factor.n_cblk))
    factor.index_cache = get_couple_cache(symbol)
    with pytest.raises(ValueError, match="out of range"):
        native.factorize_panels(factor, np.array([factor.n_cblk]))
    other, _ = _setup(grid2d_medium)
    factor.index_cache = get_couple_cache(other)
    with pytest.raises(ValueError, match="another symbol"):
        native.factorize_panels(factor, np.arange(factor.n_cblk))
    lists = NumericFactor(symbol, "llt", factor.dtype,
                          [p.copy() for p in factor.L], None, None,
                          factor.rows)
    lists.index_cache = get_couple_cache(symbol)
    with pytest.raises(ValueError, match="arena-backed"):
        native.factorize_panels(lists, np.arange(factor.n_cblk))


# ----------------------------------------------------------------------
# selection and fallback
# ----------------------------------------------------------------------
def test_unsupported_dtype_resolves_to_numpy_silently(grid2d_small):
    symbol, permuted = _setup(grid2d_small)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = factorize_sequential(symbol, permuted, "ldlt", dtype=np.float32)
        assert f.kernels == "numpy"
        f = factorize_threaded(symbol, permuted, "ldlt", n_workers=2,
                               dtype=np.float32)
        assert f.kernels == "numpy"
    assert native.resolve_kernels(np.float32) == "numpy"
    assert native.resolve_kernels(np.complex128) == "native"


@pytest.mark.parametrize("reason", [
    "no C compiler (cc/gcc) on PATH", "no BLAS/LAPACK capsule: KeyError()"])
def test_unloadable_library_falls_back_to_numpy(grid2d_small, monkeypatch,
                                                reason):
    def failing():
        raise native.NativeUnavailable(reason)

    monkeypatch.setattr(native, "load", failing)
    symbol, permuted = _setup(grid2d_small)
    for ft in ("llt", "ldlt", "lu"):
        ref = numpy_factor(symbol, permuted, ft)
        with pytest.warns(RuntimeWarning, match="falling back") as record:
            got = factorize_sequential(symbol, permuted, ft)
        assert len(record) == 1 and reason in str(record[0].message)
        assert got.kernels == "numpy"
        assert_identical(ref, got)
    with pytest.warns(RuntimeWarning, match="falling back"):
        got = factorize_threaded(symbol, permuted, "llt", n_workers=2)
    assert got.kernels == "numpy"
    assert native.availability() == reason


def test_cold_build_and_cache_hit(tmp_path):
    path, info = native.build(tmp_path)
    assert path.parent == tmp_path and path.exists() and not info["cached"]
    assert info["build_s"] > 0 and info["flags"] == (
        "-O2 -ffp-contract=off -pthread -shared -fPIC")
    again, info2 = native.build(tmp_path)
    assert again == path and info2["cached"]
    assert [p.name for p in tmp_path.iterdir()] == [path.name]   # no temp left


def test_cache_directory_must_be_the_callers_own(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = cbuild.cache_dir()
    assert cache == tmp_path / "repro"
    assert cache.stat().st_mode & 0o777 == 0o700
    cache.chmod(0o777)   # writable by others: code must not be loaded from it
    assert cbuild.cache_dir() is None


def test_build_failure_is_reported_with_the_compiler_output(tmp_path,
                                                            monkeypatch):
    broken = tmp_path / "native.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(native, "SOURCE", broken)
    with pytest.raises(native.NativeUnavailable, match="build failed") as err:
        native.build(tmp_path)
    assert "error" in str(err.value)
    assert [p.name for p in tmp_path.iterdir()] == ["native.c"]
