"""Unit-granular factorization: the DAG the threaded driver runs.

``build_dag(granularity="unit")`` has one left-looking task per unit (a
panel or a fused leaf subtree) and tree edges only; the threaded body
takes no lock and must reproduce ``factorize_sequential`` *bit for bit*
whatever the worker count and interleaving.  The test
matrices are far below ``MIN_UNIT_FLOPS``, so most tests lift the floor
(``no_unit_floor``) to get a real unit tree.
"""

import sys

import numpy as np
import pytest

from repro import SolverOptions, SparseSolver, cbuild
from repro.core.factorization import factorize_sequential
from repro.dag import TaskDAG, TaskKind, build_dag, get_dag, update_couples
from repro.dag import critical_path
from repro.dag.builder import (
    FUSE_UNITS_PER_WORKER,
    MIN_UNIT_FLOPS,
    dag_of_trace,
    row_blocks,
    supernode_parent,
)
from repro.kernels.cost import (
    flops_component,
    flops_panel,
    flops_total,
    flops_update,
)
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse import load_matrix
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic import analyze
from repro.symbolic.structures import plan_store
from repro.verify.hazards import analyze_hazards, drop_edge
from tests.conftest import backend
from tests.test_analysis_golden import E2E_INPUTS

#: (factotype, complex?) — LLᵀ is real-only (``potrf`` rejects complex).
CASES = [("llt", False), ("ldlt", False), ("lu", False),
         ("ldlt", True), ("lu", True)]


def _setup(mat):
    res = analyze(mat)
    return res, mat.permute(res.perm.perm)


def _assert_identical(ref, got):
    for name in ("L", "U", "D"):
        a, b = getattr(ref, name, None), getattr(got, name, None)
        if a is None:
            continue
        assert len(a) == len(b)
        for k, (x, y) in enumerate(zip(a, b)):
            if x is not None or y is not None:
                assert np.array_equal(x, y), f"{name}[{k}]"


# ----------------------------------------------------------------------
# bit-identity with the sequential driver
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factotype,cplx", CASES)
def test_bit_identical_to_sequential(grid2d_medium, helmholtz_small,
                                     no_unit_floor, factotype, cplx):
    res, permuted = _setup(helmholtz_small if cplx else grid2d_medium)
    # A statement about the NumPy kernels (the native backend:
    # tests/test_native_kernels.py).
    with cbuild.python_bodies():
        ref = factorize_sequential(res.symbol, permuted, factotype)
        assert np.iscomplexobj(ref.L[0]) == cplx
        for n_workers in (1, 2, 3, 4):
            got = factorize_threaded(
                res.symbol, permuted, factotype, n_workers=n_workers)
            _assert_identical(ref, got)
    assert get_dag(res.symbol, factotype, granularity="unit",
                   dtype=ref.dtype, n_workers=4).n_tasks > 4


@pytest.mark.parametrize("factotype", ["ldlt", "lu"])
def test_pivot_threshold_bit_identical(grid2d_medium, no_unit_floor,
                                       factotype):
    res, permuted = _setup(grid2d_medium)
    threshold = 3.0  # above the smallest pivot: guaranteed to bite
    ref = factorize_sequential(res.symbol, permuted, factotype,
                               pivot_threshold=threshold)
    assert ref.pivot_monitor.n_perturbed > 0
    for n_workers in (1, 3):
        got = factorize_threaded(res.symbol, permuted, factotype,
                                 n_workers=n_workers,
                                 pivot_threshold=threshold)
        _assert_identical(ref, got)
        assert got.pivot_monitor.n_perturbed == ref.pivot_monitor.n_perturbed


def test_interleaving_cannot_change_the_factor(grid2d_medium, no_unit_floor):
    """Stress: more workers than cores and a tiny switch interval force
    as many interleavings as the host allows; a write not ordered by a
    tree edge would show as a differing bit.  With a pivot threshold that
    bites, blocks also come back to Python from several C workers at
    once, through the GIL-taking callback."""
    res, permuted = _setup(grid2d_medium)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kernels, threshold in (("numpy", 0.0), ("native", 0.0),
                                   ("native", 3.0)):
            with backend(kernels):
                ref = factorize_sequential(res.symbol, permuted, "ldlt",
                                           pivot_threshold=threshold)
            for _ in range(10):
                with backend(kernels):
                    got = factorize_threaded(res.symbol, permuted, "ldlt",
                                             n_workers=8,
                                             pivot_threshold=threshold)
                _assert_identical(ref, got)
                assert (got.pivot_monitor is None) == (threshold == 0.0)
                if threshold:
                    assert got.pivot_monitor.n_perturbed \
                        == ref.pivot_monitor.n_perturbed > 0
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("n", [0, 1, 3])
def test_degenerate_matrices(n):
    """0×0, 1×1 and a dense single-panel matrix."""
    mat = SparseMatrixCSC.from_dense(np.ones((n, n)) + 2.0 * np.eye(n))
    res, permuted = _setup(mat)
    assert res.symbol.n_cblk == min(n, 1)
    for factotype in ("llt", "ldlt", "lu"):
        dag = build_dag(res.symbol, factotype, granularity="unit")
        dag.validate()
        assert dag.n_tasks == min(n, 1) and dag.n_edges == 0
        _assert_identical(
            factorize_sequential(res.symbol, permuted, factotype),
            factorize_threaded(res.symbol, permuted, factotype, n_workers=2))


# ----------------------------------------------------------------------
# unit-DAG structure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
def test_unit_dag_structure(grid2d_medium, no_unit_floor, factotype,
                            n_workers):
    sym = analyze(grid2d_medium).symbol
    K = sym.n_cblk
    dag = build_dag(sym, factotype, granularity="unit", n_workers=n_workers,
                    recompute_ld=False)
    dag.validate()
    assert dag.granularity == "unit" and dag.phase == "facto"
    assert 1 < dag.n_tasks <= K
    assert TaskKind.UPDATE not in set(dag.kind.tolist())
    assert np.all(dag.mutex == -1)

    # The units partition the panels; members ascend; a unit is named
    # (dag.cblk) by its topmost panel.
    assert sorted(dag.unit_panels.tolist()) == list(range(K))
    parent = supernode_parent(sym)
    unit_of = np.empty(K, dtype=np.int64)
    for u in range(dag.n_tasks):
        members = dag.unit_panels[dag.unit_ptr[u]: dag.unit_ptr[u + 1]]
        assert members.size and np.all(np.diff(members) > 0)
        assert int(dag.cblk[u]) == int(members[-1])
        unit_of[members] = u
        fused = members.size > 1
        assert dag.kind[u] == (TaskKind.SUBTREE if fused
                               else TaskKind.PANEL1D)
        if fused:
            # A complete subtree: every child of a member is a member,
            # and every member but the top has its parent inside.
            inside = set(members.tolist())
            assert all(int(parent[k]) in inside for k in members[:-1])
            assert all(int(c) in inside
                       for c in np.flatnonzero(np.isin(parent, members)))

    # Tree edges only: unit(child) -> unit(parent), one per non-root.
    edges = {(u, int(v)) for u in range(dag.n_tasks)
             for v in dag.successors(u)}
    tops = dag.cblk
    expect = {(u, int(unit_of[parent[tops[u]]]))
              for u in range(dag.n_tasks) if parent[tops[u]] >= 0}
    assert edges == expect

    # Flops: each unit weighs its panels plus the updates they receive.
    assert dag.total_flops() == pytest.approx(
        flops_total(sym, factotype), rel=1e-12)
    n_upd = update_couples(sym)[0].size
    comps = [c for u in range(dag.n_tasks) for c in dag.fused_components[u]]
    assert sum(c[0] == "panel" for c in comps) == K
    assert sum(c[0] == "update" for c in comps) == n_upd

    # The threshold scales with the worker count.
    limit = dag.total_flops() / (FUSE_UNITS_PER_WORKER * n_workers)
    sizes = np.diff(dag.unit_ptr)
    assert np.all(dag.flops[sizes > 1] <= limit * (1 + 1e-12))

    # ... and every edge is needed: the hazard analysis (which derives
    # the couples from the symbol, not from the DAG) is clean, and
    # dropping any edge uncovers a read.
    assert analyze_hazards(dag).ok
    for e in range(dag.n_edges):
        assert not analyze_hazards(drop_edge(dag, e)).ok


def test_small_tree_is_one_task(grid2d_medium):
    """Under MIN_UNIT_FLOPS the whole tree is a single task, whatever
    the worker count (a second worker of the executor costs more than
    it takes over on so little work)."""
    sym = analyze(grid2d_medium).symbol
    assert flops_total(sym, "lu") < MIN_UNIT_FLOPS
    for n_workers in (1, 2, 16):
        dag = build_dag(sym, "lu", granularity="unit", n_workers=n_workers)
        assert dag.n_tasks == 1 and dag.n_edges == 0
        assert dag.unit_panels.tolist() == list(range(sym.n_cblk))


def test_unit_dag_simulates(grid2d_medium, split_panels):
    """``fused_components`` lets the machine simulator cost unit tasks,
    diagonal tasks and row-block tasks alike."""
    from repro.machine import mirage, simulate
    from repro.runtime import get_policy

    sym = analyze(grid2d_medium).symbol
    for ft in ("llt", "ldlt", "lu"):
        dag = build_dag(sym, ft, granularity="unit", n_workers=2)
        assert {TaskKind.DIAG, TaskKind.ROWS} <= set(dag.kind.tolist())
        r = simulate(dag, mirage(n_cores=2, n_gpus=0), get_policy("native"))
        r.trace.validate(dag)
        assert r.makespan > 0


def test_solver_reuses_the_memoised_dag(grid2d_medium, monkeypatch):
    """update_values + factorize builds nothing new: one unit DAG per
    analysis, at most 64 tasks, and the 2D DAG is never built."""
    from repro.runtime import threaded

    seen = []
    run = threaded._factorize_dag

    def spy(factor, dag, *args, **kwargs):
        seen.append(dag)
        run(factor, dag, *args, **kwargs)

    monkeypatch.setattr(threaded, "_factorize_dag", spy)
    solver = SparseSolver(grid2d_medium, SolverOptions(
        factotype="ldlt", runtime="threaded", n_workers=2))
    solver.factorize()
    solver.update_values(grid2d_medium)
    solver.factorize()
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].granularity == "unit" and seen[0].n_tasks <= 64
    dags = [part for part in plan_store(solver.analysis.symbol).values()
            if isinstance(part, TaskDAG) and part.phase == "facto"]
    assert [dag.granularity for dag in dags] == ["unit"]


# ----------------------------------------------------------------------
# the threaded driver runs the unit DAG only
# ----------------------------------------------------------------------
def test_unknown_granularity_rejected(grid2d_small):
    """The driver has one DAG: there is no granularity to choose."""
    res, permuted = _setup(grid2d_small)
    with pytest.raises(TypeError, match="granularity"):
        factorize_threaded(res.symbol, permuted, "llt", granularity="2d")


# ----------------------------------------------------------------------
# regression: a trace names the DAG it ran
# ----------------------------------------------------------------------
def test_trace_names_its_dag(grid2d_medium, no_unit_floor):
    res, permuted = _setup(grid2d_medium)
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, permuted, "llt", n_workers=3,
                       trace=trace)
    assert trace.meta["granularity"] == "unit"
    assert 'meta:granularity="unit"' in trace.fingerprint_lines()
    dag = dag_of_trace(res.symbol, "llt", trace)
    # The audited DAG is the one the executor ran: same memoised object,
    # every task executed exactly once, dependencies honoured.
    assert dag is get_dag(res.symbol, "llt", granularity="unit",
                          n_workers=3)
    assert dag.n_tasks > 1
    assert sorted(e.task for e in trace.events) == list(range(dag.n_tasks))
    trace.validate(dag)


def test_hazards_flag_a_broken_partition(grid2d_medium, no_unit_floor):
    """The hazard pass derives what a unit task writes from the arrays
    its body iterates; units that do not partition the panels are an
    ownership finding (H105), not a crash."""
    sym = analyze(grid2d_medium).symbol
    dag = build_dag(sym, "llt", granularity="unit", n_workers=4)
    dag.unit_panels = dag.unit_panels.copy()
    dag.unit_panels[0] = dag.unit_panels[1]     # one panel twice, one never
    rep = analyze_hazards(dag)
    assert not rep.ok
    assert {f.code for f in rep.findings if f.severity == "error"} == {"H105"}


# ----------------------------------------------------------------------
# split panels: one diagonal task and row-block tasks per large panel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("ft,cplx", CASES)
def test_split_dag_structure(grid2d_small, split_panels, monkeypatch, ft,
                             cplx):
    """Every split panel is a DIAG task over its diagonal block and ROWS
    tasks that tile the rows below it; a ROWS task waits for its DIAG and
    for child row blocks only; the tasks of a panel weigh what the panel
    weighs in the unit DAG, and their kernel components sum to their
    flops; every edge is needed."""
    sym = analyze(grid2d_small).symbol
    dtype = np.complex128 if cplx else np.float64
    dag = build_dag(sym, ft, granularity="unit", n_workers=2, dtype=dtype)
    blocks = row_blocks(sym, ft, dtype)
    diag = np.flatnonzero(dag.kind == TaskKind.DIAG)
    rows = np.flatnonzero(dag.kind == TaskKind.ROWS)
    assert diag.size and rows.size
    width = np.diff(sym.cblk_ptr)
    for t in diag.tolist():
        k = int(dag.cblk[t])
        assert dag.unit_panels[dag.unit_ptr[t]:dag.unit_ptr[t + 1]].tolist() \
            == [k]
        assert tuple(dag.row_range[t]) == (0, width[k])
        mine = rows[dag.cblk[rows] == k]
        assert np.array_equal(
            np.concatenate([dag.row_range[mine, 0], dag.row_range[mine[-1:], 1]]),
            blocks.bounds(k))
        for r in mine.tolist():
            preds = dag.predecessors(r)
            assert t in preds.tolist()           # its own DIAG, and only
            others = preds[preds != t]           # the blocks of a child
            assert np.all((dag.kind[others] == TaskKind.ROWS)
                          & (dag.cblk[others] < k))
    assert np.all(np.diff(dag.unit_ptr)[rows] == 0)
    mult = 4 if cplx else 1
    for t in range(dag.n_tasks):
        assert dag.flops[t] == pytest.approx(mult * sum(
            flops_component(c, ft) for c in dag.fused_components[t]),
            rel=1e-12)

    monkeypatch.setattr("repro.dag.builder.ROW_BLOCK", 10 ** 9)
    whole = build_dag(sym, ft, granularity="unit", n_workers=2, dtype=dtype)
    assert not np.any(np.isin(whole.kind, (TaskKind.DIAG, TaskKind.ROWS)))
    assert dag.flops.sum() == pytest.approx(whole.flops.sum(), rel=1e-12)
    src, tgt, ms, ns = update_couples(sym)
    below = sym.cblk_heights() - width
    for t in diag.tolist():
        k = int(dag.cblk[t])
        into = tgt == k
        weight = mult * (flops_panel(width[k], below[k], ft) + flops_update(
            ms[into], ns[into], width[src[into]], ft).sum())
        assert dag.flops[dag.cblk == k].sum() == pytest.approx(weight,
                                                               rel=1e-12)

    assert analyze_hazards(dag).ok
    for e in range(dag.n_edges):
        assert not analyze_hazards(drop_edge(dag, e)).ok


@pytest.mark.parametrize("workload,ft", [("shell2d_lu", "lu"),
                                         ("vol3d_ldlt", "ldlt")])
def test_small_bench_workloads_split_no_panel(workload, ft):
    """Below MIN_SPLIT_FLOPS nothing splits, but the threaded workloads
    worth less than it are above MIN_UNIT_FLOPS: their unit DAG is a
    tree of whole-panel units, with at least two leaves for the two
    workers to start on."""
    matrix = load_matrix(*E2E_INPUTS[workload], 0)
    sym = analyze(matrix).symbol
    dtype = matrix.values.dtype
    assert not np.diff(row_blocks(sym, ft, dtype).ptr).any()
    dag = get_dag(sym, ft, granularity="unit", dtype=dtype, n_workers=2)
    assert dag.n_tasks > 1 and dag.total_flops() > MIN_UNIT_FLOPS
    assert np.isin(dag.kind, (TaskKind.PANEL1D, TaskKind.SUBTREE)).all()
    assert int(np.sum(dag.n_deps == 0)) >= 2


@pytest.mark.parametrize("workload,ft", [("shell2d_lu", "lu"),
                                         ("vol3d_ldlt", "ldlt")])
def test_small_bench_workloads_threaded_is_sequential(workload, ft):
    """Their multi-task unit DAGs run bit for bit as the sequential
    driver, at 1 to 3 workers."""
    matrix = load_matrix(*E2E_INPUTS[workload], 0)
    res = analyze(matrix)
    permuted = matrix.permute(res.perm.perm)
    seq = factorize_sequential(res.symbol, permuted, ft)
    for n_workers in (1, 2, 3):
        got = factorize_threaded(res.symbol, permuted, ft,
                                 n_workers=n_workers)
        for side in ("L_arena", "U_arena", "D_arena"):
            a, b = getattr(seq, side), getattr(got, side)
            assert (a is None and b is None) or np.array_equal(a, b), (
                n_workers, side)


def test_row_blocks_shorten_the_critical_path_of_helm3d(monkeypatch):
    """The top separators of ``helm3d_zldlt`` are one chain of panels
    holding 89 % of the flops; split, the flop-weighted critical path is
    at most 0.4 of the total, which itself does not move."""
    matrix = load_matrix(*E2E_INPUTS["helm3d_zldlt"], 0)
    sym = analyze(matrix).symbol
    dtype = matrix.values.dtype
    dag = build_dag(sym, "ldlt", granularity="unit", dtype=dtype,
                    n_workers=2)
    monkeypatch.setattr("repro.dag.builder.ROW_BLOCK", 10 ** 9)
    whole = build_dag(sym, "ldlt", granularity="unit", dtype=dtype,
                      n_workers=2)
    assert np.any(dag.kind == TaskKind.ROWS)
    assert dag.total_flops() == pytest.approx(whole.total_flops(), rel=1e-12)
    assert critical_path(whole)[0] > 0.85 * whole.total_flops()
    assert critical_path(dag)[0] <= 0.4 * dag.total_flops()


@pytest.mark.parametrize("ft,cplx", CASES)
def test_split_factor_is_bit_identical(grid2d_medium, helmholtz_small,
                                       split_panels, ft, cplx):
    """Sequential (one C call, each split panel's blocks in turn) and
    threaded (one task per block) factors are equal bit for bit, on
    either backend, and the native one is within 1e-12 of NumPy's."""
    res, permuted = _setup(helmholtz_small if cplx else grid2d_medium)
    seq = {}
    for kernels in ("native", "numpy"):
        with backend(kernels):
            seq[kernels] = ref = factorize_sequential(res.symbol, permuted,
                                                      ft)
            for n_workers in (1, 2, 3):
                _assert_identical(ref, factorize_threaded(
                    res.symbol, permuted, ft, n_workers=n_workers))
    for name in ("L", "U", "D"):
        a, b = getattr(seq["native"], name), getattr(seq["numpy"], name)
        for x, y in zip(a or (), b or ()):
            assert np.allclose(x, y, rtol=1e-12, atol=1e-12)
