"""Task DAG tests."""

import numpy as np
import pytest

from repro.core.factorization import facing_cblks
from repro.dag import (
    build_dag,
    critical_path,
    dag_summary,
    parallelism_profile,
    to_dot,
    update_couples,
)
from repro.dag.tasks import TaskDAG, TaskKind
from repro.symbolic import SymbolicOptions, analyze


@pytest.fixture(scope="module")
def sym(grid2d_medium):
    return analyze(grid2d_medium).symbol


class TestUpdateCouples:
    def test_couples_match_facing(self, sym):
        src, tgt, m, n = update_couples(sym)
        by_src = {}
        for s, t in zip(src.tolist(), tgt.tolist()):
            by_src.setdefault(s, []).append(t)
        for k in range(sym.n_cblk):
            assert by_src.get(k, []) == [int(x) for x in facing_cblks(sym, k)]

    def test_dims_positive_and_bounded(self, sym):
        src, tgt, m, n = update_couples(sym)
        assert np.all(m >= n)
        assert np.all(n >= 1)
        widths = np.diff(sym.cblk_ptr)
        for i in range(src.size):
            assert n[i] <= widths[tgt[i]]

    def test_targets_above_sources(self, sym):
        src, tgt, _, _ = update_couples(sym)
        assert np.all(tgt > src)


class TestBuild2D:
    def test_structure(self, sym):
        dag = build_dag(sym, "llt", granularity="2d")
        dag.validate()
        n_upd = update_couples(sym)[0].size
        assert dag.n_tasks == sym.n_cblk + n_upd
        assert dag.n_edges == 2 * n_upd

    def test_panel_task_deps_are_updates(self, sym):
        dag = build_dag(sym, "llt")
        # Every panel's in-degree equals the number of couples targeting it.
        _, tgt, _, _ = update_couples(sym)
        expect = np.bincount(tgt, minlength=sym.n_cblk)
        assert np.array_equal(dag.n_deps[: sym.n_cblk], expect)

    def test_update_deps_is_one(self, sym):
        dag = build_dag(sym, "llt")
        assert np.all(dag.n_deps[sym.n_cblk:] == 1)

    def test_mutex_groups(self, sym):
        dag = build_dag(sym, "llt")
        upd = dag.kind == TaskKind.UPDATE
        assert np.array_equal(dag.mutex[upd], dag.target[upd])
        assert np.all(dag.mutex[~upd] == -1)

    def test_sources_are_leaf_panels(self, sym):
        dag = build_dag(sym, "llt")
        srcs = dag.sources()
        assert np.all(dag.kind[srcs] != TaskKind.UPDATE)

    def test_topological_order_valid(self, sym):
        dag = build_dag(sym, "llt")
        order = dag.topological_order()
        pos = np.empty(dag.n_tasks, dtype=np.int64)
        pos[order] = np.arange(dag.n_tasks)
        for t in range(dag.n_tasks):
            for s in dag.successors(t):
                assert pos[t] < pos[s]


class TestBuild1D:
    def test_structure(self, sym):
        dag = build_dag(sym, "llt", granularity="1d")
        dag.validate()
        assert dag.n_tasks == sym.n_cblk
        assert np.all(dag.kind == TaskKind.PANEL1D)

    def test_flops_match_2d(self, sym):
        d1 = build_dag(sym, "llt", granularity="1d")
        d2 = build_dag(sym, "llt", granularity="2d")
        assert d1.total_flops() == pytest.approx(d2.total_flops())

    def test_critical_path_longer_than_2d(self, sym):
        d1 = build_dag(sym, "llt", granularity="1d")
        d2 = build_dag(sym, "llt", granularity="2d")
        cp1, _ = critical_path(d1)
        cp2, _ = critical_path(d2)
        assert cp1 >= cp2

    def test_bad_granularity(self, sym):
        with pytest.raises(ValueError):
            build_dag(sym, "llt", granularity="3d")


class TestAnalysis:
    def test_critical_path_on_chain(self):
        # Hand-built chain DAG: 3 tasks with flops 1,2,3.
        kind = np.zeros(3, dtype=np.int8)
        idx = np.arange(3, dtype=np.int64)
        dag = TaskDAG(
            kind, idx, idx, np.array([1.0, 2.0, 3.0]),
            np.zeros(3, np.int64), np.zeros(3, np.int64), np.zeros(3, np.int64),
            np.array([0, 1, 2, 2], dtype=np.int64), np.array([1, 2], dtype=np.int64),
            np.full(3, -1, dtype=np.int64), "2d",
        )
        length, path = critical_path(dag)
        assert length == 6.0
        assert np.array_equal(path, [0, 1, 2])

    def test_cycle_raises(self):
        kind = np.zeros(2, dtype=np.int8)
        idx = np.arange(2, dtype=np.int64)
        dag = TaskDAG(
            kind, idx, idx, np.ones(2),
            np.zeros(2, np.int64), np.zeros(2, np.int64), np.zeros(2, np.int64),
            np.array([0, 1, 2], dtype=np.int64), np.array([1, 0], dtype=np.int64),
            np.full(2, -1, dtype=np.int64), "2d",
        )
        with pytest.raises(ValueError):
            dag.topological_order()

    def test_summary(self, sym):
        dag = build_dag(sym, "llt")
        s = dag_summary(dag)
        assert s.n_tasks == dag.n_tasks
        assert s.n_panel + s.n_update == s.n_tasks
        assert s.avg_parallelism >= 1.0
        assert s.critical_path_flops <= s.total_flops

    def test_parallelism_profile_sums_to_tasks(self, sym):
        dag = build_dag(sym, "llt")
        assert parallelism_profile(dag).sum() == dag.n_tasks

    def test_dot_export(self, grid2d_small):
        small = analyze(grid2d_small).symbol
        dag = build_dag(small, "llt")
        if dag.n_tasks <= 500:
            dot = to_dot(dag)
            assert dot.startswith("digraph")
            assert dot.count("->") == dag.n_edges

    def test_dot_rejects_large(self, sym):
        dag = build_dag(sym, "llt")
        if dag.n_tasks > 50:
            with pytest.raises(ValueError):
                to_dot(dag, max_tasks=50)

    def test_task_view(self, sym):
        dag = build_dag(sym, "llt")
        t = dag.task(sym.n_cblk)  # first update task
        assert t.is_update
        assert t.flops > 0


def test_unit_weights_read_the_couple_plan(sym):
    """The unit DAG and the row blocks weigh the couples of the symbol's
    couple plan: the same arrays :func:`update_couples` enumerates, in
    the same order and dtypes."""
    from repro.dag.builder import _plan_couples

    for got, want in zip(_plan_couples(sym), update_couples(sym)):
        assert got.dtype == want.dtype and np.array_equal(got, want)

