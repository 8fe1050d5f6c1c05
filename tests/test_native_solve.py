"""The native triangular solve against its oracle, the NumPy bodies.

Differential tests on the *same* factor: inside
:func:`repro.cbuild.python_bodies` a native factor's solves run the
NumPy sweeps over the very same panels.  Native is within 1e-12 of
NumPy, and the threaded solve is bit-identical to ``solve_factored``
*within* each backend (both make the same calls, only grouped
differently).  Malformed arguments never reach C, and a host that cannot
load the library solves exactly as the NumPy bodies do.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SolverOptions, SparseSolver, cbuild
from repro.core.factorization import factorize_sequential
from repro.core.triangular import solve_factored
from repro.dag import builder
from repro.dag.solve_builder import build_solve_dag
from repro.kernels import native
from repro.runtime.threaded import solve_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic import analyze
from tests.conftest import backend
from tests.test_native_kernels import (
    NO_AMALGAMATION,
    factotypes,
    make_matrix,
    matrix_on,
    numpy_factor,
)

#: Without the flop floors the test matrices' solve DAGs have many tasks
#: (with them, one forward and one backward task).
pytestmark = [
    pytest.mark.skipif(
        native.availability() is not None,
        reason=f"native backend unavailable: {native.availability()}",
    ),
    pytest.mark.usefixtures("no_unit_floor"),
]

RTOL = 1e-12


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _factor(mat, ft, options=None):
    res = analyze(mat, options)
    factor = factorize_sequential(res.symbol, mat.permute(res.perm.perm), ft)
    assert factor.kernels == "native"
    return factor


def _rhs(rng, n, shape, cplx=False):
    b = rng.standard_normal((n, *shape))
    return b + 1j * rng.standard_normal(b.shape) if cplx else b


def assert_close(ref, got):
    """Normwise 1e-12, and non-finite entries in the same places."""
    finite = np.isfinite(ref)
    assert np.array_equal(finite, np.isfinite(got))
    scale = np.abs(ref[finite]).max(initial=0.0)
    assert np.allclose(ref[finite], got[finite], rtol=RTOL,
                       atol=RTOL * scale), (
        np.abs(ref[finite] - got[finite]).max(initial=0.0), scale)


def assert_parity(factor, b, n_workers=2):
    """Both backends × both runtimes on ``b``; returns the native answer."""
    got = {}
    for kernels in ("native", "numpy"):
        with backend(kernels):
            seq = solve_factored(factor, b)
            par = solve_threaded(factor, b, n_workers=n_workers)
        assert seq.shape == b.shape and seq.dtype == factor.dtype
        assert np.array_equal(seq, par, equal_nan=True), kernels
        got[kernels] = seq
    assert_close(got["numpy"], got["native"])
    return got["native"]


# ----------------------------------------------------------------------
# native == numpy (1e-12), threaded == sequential (bits)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(), (1,), (3,), (16,)],
                         ids=["n", "n1", "n3", "n16"])
@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_native_matches_numpy_bodies(cplx, shape):
    rng = np.random.default_rng(1)
    for ft in factotypes(cplx):
        mat = make_matrix("grid", 196, 3, cplx, unsymmetric=ft == "lu")
        factor = _factor(mat, ft)
        assert np.iscomplexobj(factor.L_arena) == cplx
        b = _rhs(rng, mat.n_rows, shape, cplx)
        x = assert_parity(factor, b)
        permuted = mat.permute(analyze(mat).perm.perm)
        resid = permuted.matvec(x) - b
        assert np.abs(resid).max() <= 1e-12 * np.abs(b).max()


def test_threaded_equals_sequential(grid2d_medium, helmholtz_small):
    rng = np.random.default_rng(2)
    for mat, cplx in ((grid2d_medium, False), (helmholtz_small, True)):
        for ft in factotypes(cplx):
            factor = _factor(mat, ft)
            for shape in ((), (3,)):
                b = _rhs(rng, mat.n_rows, shape, cplx)
                for kernels in ("native", "numpy"):
                    with backend(kernels):
                        ref = solve_factored(factor, b)
                        for n_workers in (1, 2, 3):
                            assert np.array_equal(ref, solve_threaded(
                                factor, b, n_workers=n_workers))


def test_one_call_per_sweep_and_per_task(grid2d_medium, monkeypatch):
    """``solve_factored`` makes one sweep call per sweep; a threaded
    solve of one unit makes the same two calls, without the executor;
    one of several units makes one executor call, which runs each task
    once."""
    calls = []
    run, run_dag = native.SolveSweeps.run, native.run_dag

    def counting(self, lo, hi, backward):
        calls.append(backward)
        run(self, lo, hi, backward)

    def counting_dag(*args, **kwargs):
        calls.append("dag")
        run_dag(*args, **kwargs)

    monkeypatch.setattr(native.SolveSweeps, "run", counting)
    monkeypatch.setattr(native, "run_dag", counting_dag)
    factor = _factor(grid2d_medium, "ldlt")
    b = np.ones(grid2d_medium.n_rows)
    solve_factored(factor, b)
    assert calls == [False, True]
    for floor, want in ((float("inf"), [False, True]), (0.0, ["dag"])):
        monkeypatch.setattr(builder, "MIN_SOLVE_FLOPS", floor)
        dag = build_solve_dag(factor.symbol, "ldlt", n_workers=2)
        assert (dag.n_tasks == 2) == (floor > 0)
        del calls[:]
        trace = ExecutionTrace()
        solve_threaded(factor, b, n_workers=2, trace=trace)
        assert calls == want
        assert sorted(e.task for e in trace.events) == list(range(dag.n_tasks))
        assert trace.meta["kernels"] == "native"
        del calls[:]
        trace = ExecutionTrace()
        with cbuild.python_bodies():
            solve_threaded(factor, b, n_workers=2, trace=trace)
        assert trace.meta["kernels"] == "numpy"
        assert calls == [] and len(trace.events) == dag.n_tasks


def test_solves_bind_once_per_factor(grid2d_medium, monkeypatch):
    """The arena and plan checks of a solve run once per factor: every
    later solve, threaded solve and refinement step of it reuses them,
    while a new factor or a new arena binds again; the answers are
    ``array_equal`` to those of a factor that never solved before."""
    binds = []
    bind = native._bind

    def counting(factor, name):
        binds.append(name)
        return bind(factor, name)

    monkeypatch.setattr(native, "_bind", counting)
    factor = _factor(grid2d_medium, "lu")
    rng = np.random.default_rng(5)
    rhs = [_rhs(rng, grid2d_medium.n_rows, shape) for shape in
           ((), (3,), ())]

    def solves(f):
        return ([solve_factored(f, b) for b in rhs]
                + [solve_threaded(f, b, n_workers=n) for b in rhs
                   for n in (1, 2)])

    got = solves(factor)
    assert binds.count("solve_panels") == 1
    solver = SparseSolver(grid2d_medium, SolverOptions(factotype="lu"))
    solver.factorize()
    for b in rhs:
        solver.solve(b)                # refinement: several raw solves
    assert binds.count("solve_panels") == 2
    unbound = factor.copy()
    assert all(np.array_equal(x, y) for x, y in zip(solves(unbound), got))
    assert binds.count("solve_panels") == 3
    unbound.L_arena = unbound.L_arena.copy()
    assert np.array_equal(solve_factored(unbound, rhs[0]), got[0])
    assert binds.count("solve_panels") == 4


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_one_unit_chain_trace(grid2d_medium, helmholtz_small, monkeypatch,
                              cplx):
    """A solve of one unit runs its two tasks on the calling thread
    without the executor, and its sync trace still has the executor's
    shape: two task rows and their publishes, which pass the schedule
    check (S2xx) and the concurrency audit (C7xx)."""
    from repro.verify.concurrency import verify_concurrency
    from repro.verify.schedule import verify_schedule

    monkeypatch.setattr(builder, "MIN_SOLVE_FLOPS", float("inf"))
    monkeypatch.setattr(native, "run_dag", None)    # never called
    mat = helmholtz_small if cplx else grid2d_medium
    b = _rhs(np.random.default_rng(9), mat.n_rows, (), cplx)
    for ft in factotypes(cplx):
        factor = _factor(mat, ft)
        dag = build_solve_dag(factor.symbol, ft, dtype=factor.dtype,
                              n_workers=3)
        assert dag.n_tasks == 2
        trace = ExecutionTrace()
        x = solve_threaded(factor, b, n_workers=3, trace=trace,
                           record_sync=True)
        assert np.array_equal(x, solve_factored(factor, b))
        assert [e.task for e in trace.events] == [0, 1]
        assert trace.meta["kernels"] == "native"
        assert trace.meta["sync_stats"]["counts"]["publish"] == 2
        for rep in (verify_schedule(dag, trace),
                    verify_concurrency(dag, trace)):
            assert rep.ok, rep.format()


# ----------------------------------------------------------------------
# narrow steps: one right-hand side, no BLAS call
# ----------------------------------------------------------------------
def _block_chains(*chains) -> np.ndarray:
    """Block-diagonal pattern of independent chains of dense blocks, each
    block coupled densely to the next one of its chain: in natural order
    and without amalgamation, a panel per block (the last two blocks of a
    chain share one).  Rows below a block are its successor's."""
    n = sum(sum(c) for c in chains)
    pattern = np.zeros((n, n), dtype=bool)
    start = 0
    for widths in chains:
        bounds = np.cumsum([start, *widths])
        for a, c in zip(bounds[:-2], bounds[2:]):
            pattern[a:c, a:c] = True
        start = bounds[-1]
    return pattern


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_narrow_steps(cplx):
    """Panels 1, ``NARROW`` and ``NARROW + 1`` wide (the first two solved
    in plain loops, the last by BLAS) with one right-hand side: native
    within 1e-12 of NumPy, the multi-unit threaded solve (left-looking
    over slabs) bit-identical to the right-looking sweeps, and a NaN
    reaching the same entries on both backends."""
    narrow = native.kernel_bounds()["narrow"]
    pattern = _block_chains([1, narrow, narrow + 1, 1, 1],
                            [narrow + 1, 1, narrow, 1])
    rng = np.random.default_rng(8)
    for ft in factotypes(cplx):
        mat = matrix_on(pattern, rng, cplx, unsymmetric=ft == "lu")
        factor = _factor(mat, ft, NO_AMALGAMATION)
        widths = np.diff(factor.symbol.cblk_ptr)
        assert {1, narrow, narrow + 1} <= set(widths.tolist())
        assert build_solve_dag(factor.symbol, ft, dtype=factor.dtype,
                               n_workers=2).n_tasks > 2
        b = _rhs(rng, mat.n_rows, (), cplx)
        for n_workers in (1, 2, 3):
            assert_parity(factor, b, n_workers)
        b[narrow] = np.nan                  # the first chain's second block
        with np.errstate(invalid="ignore"):
            x = assert_parity(factor, b)
        first = sum((1, narrow, narrow + 1, 1, 1))
        assert np.isnan(x[:first]).any() and np.isfinite(x[first:]).all()


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def _edge_rhs(n: int) -> dict:
    rng = np.random.default_rng(4)
    return {
        "fortran": np.asfortranarray(rng.standard_normal((n, 3))),
        "strided-block": rng.standard_normal((n, 6))[:, ::2],
        "strided-vector": rng.standard_normal(2 * n)[::2],
        "no-columns": np.empty((n, 0)),
        "int64": np.arange(n) - n // 2,
        "float32": rng.standard_normal((n, 2)).astype(np.float32),
    }


@pytest.mark.parametrize("case", sorted(_edge_rhs(1)))
@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_rhs_layouts_and_dtypes(grid2d_small, ft, case):
    factor = _factor(grid2d_small, ft)
    b = _edge_rhs(grid2d_small.n_rows)[case]
    assert_parity(factor, b)
    plain = np.ascontiguousarray(b, dtype=factor.dtype)
    for kernels in ("native", "numpy"):
        with backend(kernels):
            assert np.array_equal(solve_factored(factor, b),
                                  solve_factored(factor, plain))


@pytest.mark.parametrize("runtime", ["sequential", "threaded"])
def test_complex_rhs_on_a_real_factor(grid2d_small, runtime):
    rng = np.random.default_rng(5)
    b = _rhs(rng, grid2d_small.n_rows, (), cplx=True)
    got = {}
    for kernels in ("native", "numpy"):
        solver = SparseSolver(grid2d_small, SolverOptions(
            runtime=runtime, n_workers=2))
        with backend(kernels):
            got[kernels] = solver.solve(b, method="none")
        assert np.iscomplexobj(got[kernels])
        assert solver.residual_norm(got[kernels], b) < 1e-12
    assert_close(got["numpy"], got["native"])


@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_nan_propagates_alike(grid2d_small, ft):
    factor = _factor(grid2d_small, ft)
    b = np.ones((grid2d_small.n_rows, 2))
    b[5, 1] = np.nan
    with np.errstate(invalid="ignore"):
        x = assert_parity(factor, b)
    assert np.isnan(x[:, 1]).any() and np.isfinite(x[:, 0]).all()


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_tiny_systems(n, ft):
    factor = _factor(SparseMatrixCSC.from_dense(3.0 * np.eye(n)), ft)
    for shape in ((), (3,)):
        b = np.ones((n, *shape))
        x = assert_parity(factor, b)
        assert np.allclose(3.0 * x, b)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(["grid", "arrowhead", "chain"]),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
    cplx=st.booleans(),
    chains=st.booleans(),
    nrhs=st.sampled_from([None, 1, 3, 16]),
    n_workers=st.sampled_from([1, 2, 4]),
)
def test_generated_systems(kind, n, seed, cplx, chains, nrhs, n_workers):
    """Grids, arrowheads and width-1 chains (no amalgamation)."""
    rng = np.random.default_rng(seed)
    for ft in factotypes(cplx):
        mat = make_matrix(kind, n, seed, cplx, unsymmetric=ft == "lu")
        factor = _factor(mat, ft, NO_AMALGAMATION if chains else None)
        shape = () if nrhs is None else (nrhs,)
        assert_parity(factor, _rhs(rng, mat.n_rows, shape, cplx),
                      n_workers=n_workers)


# ----------------------------------------------------------------------
# malformed arguments never reach C
# ----------------------------------------------------------------------
def test_malformed_arguments_are_rejected(grid2d_small):
    factor = _factor(grid2d_small, "ldlt")
    n, K = factor.n, factor.n_cblk
    x = np.ones(n)
    panels = np.arange(K)
    for bad_x in (np.ones(n, dtype=np.float32), np.ones(n + 1),
                  np.ones((n, 2), order="F"), np.ones((n, 2, 1)),
                  np.ones(n, dtype=np.complex128), [1.0] * n):
        with pytest.raises(ValueError, match="x must be"):
            native.SolveSweeps(factor, bad_x, panels)
    for bad in (np.array([K]), np.array([-1, 0])):
        with pytest.raises(ValueError, match="out of range"):
            native.SolveSweeps(factor, x, bad)
    for sweeps in (native.SolveSweeps(factor, x, panels),
                   native.SolveSweeps(factor, x)):
        for lo, hi in ((-1, 2), (2, 1), (0, K + 1)):
            with pytest.raises(ValueError, match="out of bounds"):
                sweeps.run(lo, hi, False)
    assert np.array_equal(x, np.ones(n))   # C never ran
    for name, arena in (("L_arena", factor.L_arena[:-1]),
                        ("L_arena", factor.L_arena.astype(np.float32)),
                        ("D_arena", factor.D_arena.astype(np.complex128))):
        broken = dataclasses.replace(factor, **{name: arena})
        with pytest.raises(ValueError, match=name):
            native.SolveSweeps(broken, x, panels)
    with pytest.raises(ValueError, match="factotype"):
        native.SolveSweeps(dataclasses.replace(factor, D_arena=None), x,
                           panels)
    with pytest.raises(ValueError, match="couple plan"):
        native.SolveSweeps(dataclasses.replace(factor, index_cache=None), x,
                           panels)


def test_executor_arguments_and_trace_logs(grid2d_medium):
    """``run_dag`` checks what its DagTasks could not (the worker count
    against the gather buffers, a body that runs every kind of task in the
    DAG), and a trace log that runs out of room is an error
    after a complete solve, never a silent cut."""
    from repro.dag import get_dag
    from repro.runtime.threaded import _executor_tasks

    factor = _factor(grid2d_medium, "lu")
    dag = build_solve_dag(factor.symbol, "lu", n_workers=2)
    tasks = _executor_tasks(dag)
    b = np.random.default_rng(3).standard_normal(grid2d_medium.n_rows)
    ref = solve_factored(factor, b)

    def sweeps():
        x = b.copy()
        return x, native.SolveSweeps(factor, x, dag.unit_panels, 2)

    for n_workers in (0, 3):
        with pytest.raises(ValueError, match="n_workers"):
            native.run_dag(tasks, sweeps()[1], n_workers)
    unit = get_dag(factor.symbol, "lu", granularity="unit", n_workers=2)
    for wrong, body in ((tasks, native.FactorizeTasks(factor,
                                                      unit.unit_panels, 2)),
                        (_executor_tasks(unit), sweeps()[1])):
        with pytest.raises(ValueError, match="does not run task kinds"):
            native.run_dag(wrong, body, 2)
    short = dag.copy(unit_panels=dag.unit_panels[:1])
    with pytest.raises(ValueError, match="panel list"):
        native.run_dag(tasks, native.SolveSweeps(
            factor, b.copy(), short.unit_panels, 2), 2)

    x, sw = sweeps()
    logs = native.DagLogs.sized_for(tasks.n_tasks, 2, sync=True)
    native.run_dag(tasks, sw, 2, logs)
    assert np.array_equal(x, ref)
    rows = logs.written("task")
    assert sorted(rows[:, 0]) == list(range(tasks.n_tasks))
    assert np.all((rows[:, 2] <= rows[:, 3]) & (rows[:, 1] < 2))
    assert len(logs.written("publish")) == tasks.n_tasks
    x, sw = sweeps()
    logs = native.DagLogs({"task": tasks.n_tasks - 1})
    with pytest.raises(RuntimeError, match="overflow.*'task'"):
        native.run_dag(tasks, sw, 2, logs)
    assert np.array_equal(x, ref)        # the solve itself completed
    assert len(logs.written("task")) == tasks.n_tasks - 1


def test_unloadable_library_solves_exactly_like_numpy(grid2d_small,
                                                      monkeypatch):
    res = analyze(grid2d_small)
    permuted = grid2d_small.permute(res.perm.perm)
    refs = {ft: numpy_factor(res.symbol, permuted, ft)
            for ft in ("llt", "ldlt", "lu")}

    def failing():
        raise native.NativeUnavailable("no C compiler (cc/gcc) on PATH")

    monkeypatch.setattr(native, "load", failing)
    rng = np.random.default_rng(7)
    for ft, ref in refs.items():
        with pytest.warns(RuntimeWarning, match="falling back"):
            factor = factorize_sequential(res.symbol, permuted, ft)
        assert factor.kernels == "numpy"
        for shape in ((), (3,)):
            b = _rhs(rng, permuted.n_rows, shape)
            expected = solve_factored(ref, b)
            assert np.array_equal(solve_factored(factor, b), expected)
            assert np.array_equal(solve_threaded(factor, b, n_workers=2),
                                  expected)
