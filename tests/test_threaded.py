"""Threaded runtime tests (real parallel execution)."""

import numpy as np
import pytest

from repro.core.factorization import factorize_sequential
from repro.core.triangular import solve_factored
from repro.runtime.threaded import factorize_threaded, solve_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.dag import build_dag, get_dag
from repro.dag.builder import dag_of_trace
from repro.symbolic import analyze
from tests.conftest import backend


def _setup(mat, factotype):
    res = analyze(mat)
    permuted = mat.permute(res.perm.perm)
    return res, permuted


@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
def test_matches_sequential(grid2d_medium, factotype):
    res, permuted = _setup(grid2d_medium, factotype)
    ref = factorize_sequential(res.symbol, permuted, factotype)
    par = factorize_threaded(res.symbol, permuted, factotype, n_workers=4)
    for a, b in zip(ref.L, par.L):
        assert np.allclose(a, b, atol=1e-10)
    if factotype == "ldlt":
        for a, b in zip(ref.D, par.D):
            assert np.allclose(a, b, atol=1e-10)
    if factotype == "lu":
        for a, b in zip(ref.U, par.U):
            assert np.allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("n_workers", [1, 2, 8])
def test_worker_counts(grid2d_small, n_workers):
    res, permuted = _setup(grid2d_small, "llt")
    ref = factorize_sequential(res.symbol, permuted, "llt")
    par = factorize_threaded(
        res.symbol, permuted, "llt", n_workers=n_workers
    )
    for a, b in zip(ref.L, par.L):
        assert np.allclose(a, b, atol=1e-10)


def test_complex_threaded(helmholtz_small):
    res, permuted = _setup(helmholtz_small, "ldlt")
    ref = factorize_sequential(res.symbol, permuted, "ldlt")
    par = factorize_threaded(res.symbol, permuted, "ldlt", n_workers=3)
    for a, b in zip(ref.L, par.L):
        assert np.allclose(a, b, atol=1e-10)


def test_trace_is_valid_schedule(grid2d_small):
    res, permuted = _setup(grid2d_small, "llt")
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, permuted, "llt", n_workers=3, trace=trace)
    dag = dag_of_trace(res.symbol, "llt", trace)
    assert dag.granularity == trace.meta["granularity"] == "unit"
    # Each worker stamps its rows on one monotonic clock and a successor
    # is pushed only after its predecessor's end is stamped, so the
    # simulators' schedule checks hold as they are.
    trace.validate(dag)


def test_one_task_dag_starts_no_worker(grid2d_small):
    """A worker starts only when a ready task waits for it: a one-task
    factorization runs on the caller alone, and no worker parks."""
    res, permuted = _setup(grid2d_small, "ldlt")
    dag = get_dag(res.symbol, "ldlt", granularity="unit", n_workers=4)
    assert dag.n_tasks == 1
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, permuted, "ldlt", n_workers=4,
                       trace=trace, record_sync=True)
    assert trace.resources() == ["cpu0"]
    assert trace.meta["sync_stats"]["counts"] == {"publish": 1}


def test_small_solve_starts_no_worker(grid2d_small):
    """Under ``MIN_SOLVE_FLOPS`` the solve DAG is a forward and a
    backward task: a chain, so a two-worker solve runs on the caller
    alone and no worker parks."""
    from repro.dag.solve_builder import build_solve_dag

    res, permuted = _setup(grid2d_small, "ldlt")
    factor = factorize_sequential(res.symbol, permuted, "ldlt")
    assert build_solve_dag(res.symbol, "ldlt", n_workers=2).n_tasks == 2
    b = np.random.default_rng(2).standard_normal(permuted.n_rows)
    trace = ExecutionTrace()
    x = solve_threaded(factor, b, n_workers=2, trace=trace,
                       record_sync=True)
    assert np.array_equal(x, solve_factored(factor, b))
    assert trace.resources() == ["cpu0"]
    assert trace.meta["sync_stats"]["counts"] == {"publish": 2}


@pytest.mark.parametrize("solve", [solve_factored, solve_threaded],
                         ids=["solve_factored", "solve_threaded"])
def test_complex_rhs_on_a_real_factor_is_rejected(grid2d_small, solve):
    """Casting a complex ``b`` to a real factor's dtype would drop its
    imaginary part: both solves refuse it (``SparseSolver.solve`` splits
    it into a real block instead), on either backend."""
    res, permuted = _setup(grid2d_small, "ldlt")
    factor = factorize_sequential(res.symbol, permuted, "ldlt")
    b = np.ones(permuted.n_rows) * (1 + 1j)
    for kernels in ("native", "numpy"):
        with backend(kernels):
            for rhs in (b, b[:, None], list(b)):
                with pytest.raises(TypeError,
                                   match="complex right-hand side"):
                    solve(factor, rhs)
            x = solve(factor, b.real)
        assert not np.iscomplexobj(x)


def test_failure_propagates(grid2d_small):
    res, permuted = _setup(grid2d_small, "llt")
    bad = permuted.to_dense()
    bad[0, 0] = 0.0  # not SPD any more
    np.fill_diagonal(bad, -1.0)
    from repro.sparse.csc import SparseMatrixCSC

    broken = SparseMatrixCSC.from_dense(bad)
    with pytest.raises(Exception):
        factorize_threaded(res.symbol, broken, "llt", n_workers=2)


def test_threaded_matches_sequential(grid2d_small):
    res, permuted = _setup(grid2d_small, "llt")
    ref = factorize_sequential(res.symbol, permuted, "llt")
    par = factorize_threaded(res.symbol, permuted, "llt", n_workers=3)
    for a, b in zip(ref.L, par.L):
        assert np.allclose(a, b, atol=1e-10)


@pytest.mark.parametrize("n_workers", [0, -1])
@pytest.mark.parametrize("driver", ["factorize", "solve"])
def test_non_positive_worker_count_is_rejected(grid2d_small, driver,
                                               n_workers):
    """Both drivers refuse ``n_workers < 1`` with the rule and the text
    of ``SolverOptions``, before any worker starts."""
    from repro.runtime.threaded import solve_threaded

    res, permuted = _setup(grid2d_small, "llt")
    if driver == "factorize":
        def run():
            factorize_threaded(res.symbol, permuted, "llt",
                               n_workers=n_workers)
    else:
        factor = factorize_sequential(res.symbol, permuted, "llt")

        def run():
            solve_threaded(factor, np.ones(permuted.n_rows),
                           n_workers=n_workers)
    with pytest.raises(ValueError, match="n_workers must be positive"):
        run()


@pytest.mark.parametrize("driver", ["factorize", "solve"])
def test_pool_arguments_are_checked(grid2d_small, driver):
    """Both drivers refuse ``n_workers < 1`` before any work starts."""
    from repro.runtime.threaded import solve_threaded

    res, permuted = _setup(grid2d_small, "llt")
    factor = factorize_sequential(res.symbol, permuted, "llt")

    def run(**options):
        if driver == "factorize":
            factorize_threaded(res.symbol, permuted, "llt", **options)
        else:
            solve_threaded(factor, np.ones(permuted.n_rows), **options)

    with pytest.raises(ValueError, match="n_workers must be positive"):
        run(n_workers=0)


def test_ldlt_pivot_threshold_threaded(grid2d_medium):
    """Static pivot perturbation is order-independent: the threaded LDLᵀ
    with a biting threshold must agree with the sequential driver, and
    the thread-safe monitor must count the same perturbations."""
    res, permuted = _setup(grid2d_medium, "ldlt")
    threshold = 3.0  # above the smallest pivot (~2.4): guaranteed to bite
    ref = factorize_sequential(
        res.symbol, permuted, "ldlt", pivot_threshold=threshold
    )
    par = factorize_threaded(
        res.symbol, permuted, "ldlt", n_workers=4,
        pivot_threshold=threshold,
    )
    for a, b in zip(ref.L, par.L):
        assert np.allclose(a, b, atol=1e-10)
    for a, b in zip(ref.D, par.D):
        assert np.allclose(a, b, atol=1e-10)
    assert par.pivot_monitor is not None
    assert ref.pivot_monitor.n_perturbed > 0  # the threshold really bit
    assert par.pivot_monitor.n_perturbed == ref.pivot_monitor.n_perturbed


def test_solve_dag_phase_field(grid2d_small, no_unit_floor):
    """The solve DAG carries an explicit per-task backward flag; the
    runtime must not infer the phase from task numbering."""
    from repro.dag.solve_builder import build_solve_dag

    res, _ = _setup(grid2d_small, "llt")
    dag = build_solve_dag(res.symbol, "llt")
    assert dag.solve_backward.dtype == np.bool_
    assert dag.solve_backward.shape == (dag.n_tasks,)
    # Both phases are populated, and every backward task is downstream
    # of the phase barrier: no forward task depends on a backward one.
    assert 0 < int(dag.solve_backward.sum()) < dag.n_tasks
    for t in range(dag.n_tasks):
        if dag.solve_backward[t]:
            for s in dag.successors(int(t)):
                assert dag.solve_backward[s]


def _solve_cases(mat, factotype, complex_rhs=False):
    """Factor + one ``(n,)`` and one ``(n, 3)`` right-hand side."""
    res, permuted = _setup(mat, factotype)
    factor = factorize_sequential(res.symbol, permuted, factotype)
    rng = np.random.default_rng(11)
    n = permuted.n_rows
    rhs = [rng.standard_normal(n), rng.standard_normal((n, 3))]
    if complex_rhs:
        rhs = [b * (1 - 2j) + 1j * rng.standard_normal(b.shape) for b in rhs]
    return factor, permuted, rhs


@pytest.mark.usefixtures("no_unit_floor")
class TestThreadedSolve:
    """The threaded solve is *bit-identical* to ``solve_factored``: every
    shared write is ordered by a DAG edge, so neither the worker count
    nor the interleaving can change a single bit.  (The
    test matrices are below ``MIN_SOLVE_FLOPS``: without the floor their
    solve DAGs have tens of tasks.)"""

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_matches_sequential_solve(self, grid2d_medium, factotype):
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        factor, _, rhs = _solve_cases(grid2d_medium, factotype)
        for b in rhs:
            ref = solve_factored(factor, b)
            for n_workers in (1, 2, 4):
                par = solve_threaded(factor, b, n_workers=n_workers)
                assert par.shape == b.shape
                assert np.array_equal(ref, par)

    def test_complex_threaded_solve(self, helmholtz_small):
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        for factotype in ("ldlt", "lu"):
            factor, _, rhs = _solve_cases(helmholtz_small, factotype,
                                          complex_rhs=True)
            assert np.iscomplexobj(factor.L[0])
            for b in rhs:
                ref = solve_factored(factor, b)
                for n_workers in (1, 2, 4):
                    par = solve_threaded(factor, b, n_workers=n_workers)
                    assert np.array_equal(ref, par)

    def test_actually_solves(self, grid2d_small):
        from repro.runtime.threaded import solve_threaded

        res, permuted = _setup(grid2d_small, "llt")
        factor = factorize_sequential(res.symbol, permuted, "llt")
        b = np.ones(permuted.n_rows)
        x = solve_threaded(factor, b, n_workers=2)
        assert np.allclose(permuted.matvec(x), b, atol=1e-9)

    def test_solve_worker_counts(self, grid2d_small, helmholtz_small):
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        cases = [_solve_cases(grid2d_small, ft) for ft in ("llt", "ldlt", "lu")]
        cases += [_solve_cases(helmholtz_small, ft, complex_rhs=True)
                  for ft in ("ldlt", "lu")]
        for factor, _, rhs in cases:
            for b in rhs:
                ref = solve_factored(factor, b)
                for n_workers in (1, 2, 3, 4):
                    par = solve_threaded(factor, b, n_workers=n_workers)
                    assert np.array_equal(ref, par)

    def test_block_rhs_ldlt(self, grid2d_small):
        """Regression: the LDLᵀ diagonal scaling used to divide a block
        right-hand side by ``D`` without broadcasting — a ``ValueError``,
        or a silently mis-scaled answer when the block is as wide as a
        panel.  Cover both widths."""
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        res, permuted = _setup(grid2d_small, "ldlt")
        factor = factorize_sequential(res.symbol, permuted, "ldlt")
        widths = {int(w) for w in np.diff(res.symbol.cblk_ptr)}
        rng = np.random.default_rng(5)
        for k in sorted(widths | {3}):
            B = rng.standard_normal((permuted.n_rows, k))
            X = solve_threaded(factor, B, n_workers=2)
            assert np.array_equal(X, solve_factored(factor, B))
            assert np.allclose(permuted.matvec(X), B, atol=1e-9)

    def test_interleaving_cannot_change_the_result(self, grid2d_medium):
        """Stress: more workers than cores and a tiny switch interval
        force as many interleavings as the host allows; a write not
        ordered by a DAG edge would show as a differing bit."""
        import sys

        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        factor, _, rhs = _solve_cases(grid2d_medium, "ldlt")
        refs = [solve_factored(factor, b) for b in rhs]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rep in range(10):
                for b, ref in zip(rhs, refs):
                    par = solve_threaded(factor, b, n_workers=8)
                    assert np.array_equal(ref, par), rep
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("n_workers", [1, 8])
    def test_worker_counts_solve(self, grid2d_small, n_workers):
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        res, permuted = _setup(grid2d_small, "lu")
        factor = factorize_sequential(res.symbol, permuted, "lu")
        b = np.random.default_rng(13).standard_normal(permuted.n_rows)
        assert np.array_equal(
            solve_threaded(factor, b, n_workers=n_workers),
            solve_factored(factor, b),
        )

    def test_solve_without_index_cache(self, grid2d_small):
        """The fan-in maps come from the symbol's memoised couple cache
        whether or not the factorization attached one to the factor."""
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        res, permuted = _setup(grid2d_small, "ldlt")
        factor = factorize_sequential(res.symbol, permuted, "ldlt")
        factor.index_cache = None
        b = np.random.default_rng(3).standard_normal(permuted.n_rows)
        assert np.array_equal(solve_threaded(factor, b, n_workers=2),
                              solve_factored(factor, b))

    def test_refactorization_reuses_the_dags(self, grid2d_small, monkeypatch):
        """Runtimes only read a DAG, so both phases memoise theirs on
        the symbol: a refactorization + solve builds nothing."""
        from repro.dag import build_solve_dag
        from repro.runtime import threaded

        seen = []
        factorize, run = threaded._factorize_dag, threaded._run_dag

        def spy(factor, dag, *args, **kwargs):
            seen.append(dag)
            factorize(factor, dag, *args, **kwargs)

        def run_spy(factor, x, dag, *args, **kwargs):
            seen.append(dag)
            run(factor, x, dag, *args, **kwargs)

        monkeypatch.setattr(threaded, "_factorize_dag", spy)
        monkeypatch.setattr(threaded, "_run_dag", run_spy)
        res, permuted = _setup(grid2d_small, "ldlt")
        for _ in range(2):
            factor = factorize_threaded(res.symbol, permuted, "ldlt",
                                        n_workers=2)
            threaded.solve_threaded(factor, np.ones(permuted.n_rows),
                                    n_workers=2)
        facto, solve = seen[:2]
        assert facto.phase == "facto" and solve.phase == "solve"
        assert seen[2] is facto and seen[3] is solve
        unit = dict(granularity="unit", n_workers=2)
        assert facto.granularity == "unit"
        assert facto is get_dag(res.symbol, "ldlt", dtype=factor.dtype,
                                **unit)
        assert solve is build_solve_dag(res.symbol, "ldlt",
                                        dtype=factor.dtype, n_workers=2)
        # Other keys get their own DAG (the worker count sets the unit
        # DAG's fusion threshold, so it is part of the key); build_dag
        # itself stays unmemoised (callers that edit a DAG build their
        # own).
        assert get_dag(res.symbol, "ldlt", granularity="unit",
                       n_workers=3) is not facto
        assert get_dag(res.symbol, "ldlt") is not facto
        assert get_dag(res.symbol, "ldlt", n_workers=3) \
            is get_dag(res.symbol, "ldlt", n_workers=2)   # 2D: no units
        assert get_dag(res.symbol, "lu", **unit) is not facto
        assert build_dag(res.symbol, "ldlt", **unit) is not facto


@pytest.mark.usefixtures("no_unit_floor")
class TestSolveExecutor:
    """The solve runs its whole DAG in one executor call: no Python
    thread, a DAG checked before any pointer reaches C, and the small
    and degenerate cases run like any other.  (So does the
    factorization.)  Without the flop floors, so that the DAGs have
    many tasks."""

    @staticmethod
    def _factor(mat, factotype="ldlt"):
        """A factor whose panels the cases solve on both backends."""
        res, permuted = _setup(mat, factotype)
        return res, factorize_sequential(res.symbol, permuted, factotype)

    def test_solve_starts_no_python_thread(self, grid2d_medium, monkeypatch):
        import threading

        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        started = []
        start = threading.Thread.start

        def spy(self):
            started.append(self)
            start(self)

        monkeypatch.setattr(threading.Thread, "start", spy)
        res, factor = self._factor(grid2d_medium)
        b = np.random.default_rng(1).standard_normal((res.symbol.n, 3))
        for kernels in ("native", "numpy"):
            trace = ExecutionTrace()
            with backend(kernels):
                x = solve_threaded(factor, b, n_workers=3, trace=trace,
                                   record_sync=True)
                assert np.array_equal(x, solve_factored(factor, b))
        factorize_threaded(res.symbol, grid2d_medium.permute(res.perm.perm),
                           "ldlt", n_workers=2)
        assert started == []

    def test_malformed_dag_is_rejected_before_c(self, grid2d_medium,
                                                monkeypatch):
        import repro.dag.solve_builder as solve_builder
        from repro.kernels import native
        from repro.runtime.threaded import solve_threaded

        res, factor = self._factor(grid2d_medium)
        dag = solve_builder.build_solve_dag(res.symbol, "ldlt", n_workers=2)
        assert dag.n_tasks > 2 and dag.n_edges > 0

        def corrupt(edit):
            bad = dag.copy()
            bad.solve_unit = dag.solve_unit.copy()
            bad.solve_backward = dag.solve_backward.copy()
            edit(bad)
            return bad

        last = int(np.flatnonzero(np.diff(dag.succ_ptr))[-1])
        cases = {
            "in-degree": lambda d: d.n_deps.__setitem__(0, d.n_deps[0] + 1),
            "range": lambda d: d.succ_list.__setitem__(0, d.n_tasks),
            "panel range": lambda d: d.unit_ptr.__setitem__(
                -1, d.unit_ptr[-1] + 1),
            "cycle": lambda d: d.__setattr__("succ_list", np.where(
                np.arange(d.succ_list.size) == d.succ_ptr[last],
                d.sources()[0], d.succ_list)),
        }

        def c_entered(*args, **kwargs):
            raise AssertionError("C was entered")

        monkeypatch.setattr(native, "run_dag", c_entered)
        for name, edit in cases.items():
            bad = corrupt(edit)
            if name == "cycle":
                bad.n_deps = np.bincount(bad.succ_list, minlength=bad.n_tasks)
            monkeypatch.setattr(solve_builder, "build_solve_dag",
                                lambda *a, bad=bad, **k: bad)
            for kernels in ("native", "numpy"):
                with backend(kernels), pytest.raises(ValueError):
                    solve_threaded(factor, np.ones(res.symbol.n), n_workers=2)
        with pytest.raises(ValueError, match="n_workers must be positive"):
            solve_threaded(factor, np.ones(res.symbol.n), n_workers=0)

    def test_tasks_are_checked_one_by_one(self):
        from repro.kernels.native import DagTasks

        from types import SimpleNamespace

        ptr, succ = np.array([0, 1, 1]), np.array([1])
        ok = np.array([[0, 1, 0, 0], [1, 2, 1, 0]])
        assert DagTasks(ptr, succ, [0, 1], ok, 2).order.tolist() == [0, 1]
        # Panel 0 is 2 wide and 5 high: a block task covers rows (0, 2)
        # or a range in [2, 5).
        layout = SimpleNamespace(width=np.array([2]), height=np.array([5]))
        blocks = np.array([[0, 2, 3, 0], [2, 5, 3, 0]])
        assert DagTasks(ptr, succ, [0, 1], blocks, 0, layout).kinds == {3}
        bad = [
            ((np.array([0, 2, 1]), succ, [0, 1], ok, 2), "CSR"),
            ((ptr, np.array([2]), [0, 1], ok, 2), "successor out of range"),
            ((ptr, succ, [0, 0], ok, 2), "in-degree"),
            ((ptr, succ, [0, 1], ok, 1), "panel range"),
            ((ptr, succ, [0, 1], np.array([[1, 0, 0, 0], [1, 2, 1, 0]]), 2),
             "panel range"),
            ((ptr, succ, [0, 1], np.array([[0, 1, 4, 0], [1, 2, 1, 0]]), 2),
             "kind"),
            ((ptr, succ, [0, 1], ok[:1], 2), "records"),
            ((ptr, succ, [0, 1], ok[:, :3], 2), "records"),
            ((ptr, succ.astype(float), [0, 1], ok, 2), "integer"),
            ((np.array([0, 1, 2]), np.array([1, 0]), [1, 1], ok, 2), "cycle"),
            ((ptr, succ, [0, 1], blocks, 0), "layout"),
            ((ptr, succ, [0, 1], blocks + [0, 0, 0, 1], 0, layout),
             "panel out of range"),
            ((ptr, succ, [0, 1], blocks + [[0, 1, 0, 0], [0, 1, 0, 0]], 0,
              layout), "rows"),
            ((ptr, succ, [0, 1], blocks - [[0, 0, 0, 0], [1, 0, 0, 0]], 0,
              layout), "rows"),
        ]
        for args, match in bad:
            with pytest.raises(ValueError, match=match):
                DagTasks(*args)

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_degenerate_solves(self, grid2d_small, factotype):
        """0 x 0 systems, ``(n, 0)`` right-hand sides and more workers
        than tasks."""
        from repro.core.triangular import solve_factored
        from repro.dag.solve_builder import build_solve_dag
        from repro.runtime.threaded import solve_threaded
        from repro.sparse.csc import SparseMatrixCSC

        for mat in (SparseMatrixCSC.from_dense(np.eye(0)), grid2d_small):
            res, factor = self._factor(mat, factotype)
            n = res.symbol.n
            n_tasks = build_solve_dag(res.symbol, factotype,
                                      n_workers=2).n_tasks
            assert n_tasks == (0 if n == 0 else n_tasks)
            for kernels in ("native", "numpy"):
                for b in (np.ones(n), np.ones((n, 0)), np.ones((n, 2))):
                    with backend(kernels):
                        ref = solve_factored(factor, b)
                    for n_workers in (1, 2, n_tasks + 5):
                        trace = ExecutionTrace()
                        with backend(kernels):
                            x = solve_threaded(factor, b,
                                               n_workers=n_workers,
                                               trace=trace, record_sync=True)
                        assert x.shape == b.shape
                        assert np.array_equal(x, ref)
                        counts = trace.meta["sync_stats"]["counts"]
                        assert counts.get("publish", 0) == len(trace.events)


class TestFailingTask:
    """A task that raises stops the run: no task starts after it, it
    lands in the trace as a ``"task-error"`` fault, and its exception
    reaches the caller, on either backend."""

    @pytest.mark.parametrize("kernels", ["native", "numpy"])
    def test_raising_task_is_traced_and_reraised(self, grid2d_small,
                                                 no_unit_floor, kernels):
        from repro.kernels import native, panel

        if kernels == "native" and native.availability() is not None:
            pytest.skip("native kernels unavailable")
        res, permuted = _setup(grid2d_small, "ldlt")
        dag = get_dag(res.symbol, "ldlt", granularity="unit", n_workers=3)
        assert dag.n_tasks > 3          # more than the workers can fail
        for n_workers in (1, 3):
            seen = []

            def boom(factor, k, **options):
                seen.append(k)
                raise ZeroDivisionError(f"boom in panel {k}")

            with pytest.MonkeyPatch.context() as mp:
                # Every diagonal block comes back to Python (a threshold
                # no pivot meets) and the first one raises.
                mp.setattr(native if kernels == "native" else panel,
                           "panel_factorize", boom)
                trace = ExecutionTrace()
                with backend(kernels), pytest.raises(
                        ZeroDivisionError, match="boom in panel"):
                    factorize_threaded(res.symbol, permuted, "ldlt",
                                       n_workers=n_workers, trace=trace,
                                       pivot_threshold=1e300,
                                       record_sync=True)
            faults = trace.fault_events
            assert len(faults) == len(seen) >= 1
            assert {f.kind for f in faults} == {"task-error"}
            ran = {e.task for e in trace.events}
            assert not ran & {f.task for f in faults}
            assert len(ran) + len(faults) < dag.n_tasks
            assert trace.meta["granularity"] == "unit"
            counts = trace.meta["sync_stats"]["counts"]
            assert counts.get("publish", 0) == len(trace.events)
