"""Solve-phase DAG tests (coarse: one task per unit per sweep).

The test matrices are far below ``MIN_SOLVE_FLOPS``, so the tests of
the partitioned DAG lift the floor (``no_unit_floor``); ``TestWorkFloor``
checks the floor itself."""

import numpy as np
import pytest

from repro.dag import build_dag, build_solve_dag, critical_path, update_couples
from repro.dag.builder import MIN_SOLVE_FLOPS, supernode_parent
from repro.dag.tasks import TaskKind
from repro.machine import mirage, simulate
from repro.runtime import get_policy
from repro.sparse import load_matrix
from repro.sparse.generators import grid_laplacian_2d, grid_laplacian_3d
from repro.symbolic import analyze
from tests.conftest import COMPONENT_SIZES, many_component_matrix


@pytest.fixture(scope="module")
def sym(grid2d_medium):
    return analyze(grid2d_medium).symbol


@pytest.fixture(scope="module")
def sym3():
    return analyze(grid_laplacian_3d(10, jitter=0.05, seed=2)).symbol


@pytest.fixture
def sdag(sym, no_unit_floor):
    return build_solve_dag(sym, "llt")


def _units(dag):
    """Member panels of every unit, by unit id."""
    return [dag.unit_panels[dag.unit_ptr[u]: dag.unit_ptr[u + 1]]
            for u in range(dag.unit_ptr.size - 1)]


def _reaches(dag, src):
    """Tasks reachable from ``src`` (inclusive)."""
    seen, stack = {src}, [src]
    while stack:
        for s in dag.successors(stack.pop()):
            if int(s) not in seen:
                seen.add(int(s))
                stack.append(int(s))
    return seen


class TestStructure:
    def test_task_count(self, sym, sdag):
        """One task per unit per sweep: at most 2·K, and no UPDATE."""
        n_units = sdag.unit_ptr.size - 1
        assert sdag.n_tasks == 2 * n_units <= 2 * sym.n_cblk
        assert not np.any(sdag.kind == TaskKind.UPDATE)
        assert np.all(sdag.mutex == -1)
        assert sdag.phase == "solve"

    def test_acyclic_and_valid(self, sdag):
        sdag.validate()

    @pytest.mark.parametrize("n_workers", [1, 2, 4, 64])
    def test_units_partition_panels(self, sym, no_unit_floor, n_workers):
        dag = build_solve_dag(sym, "llt", n_workers=n_workers)
        assert np.array_equal(np.sort(dag.unit_panels),
                              np.arange(sym.n_cblk))
        for t in range(dag.n_tasks):
            members = _units(dag)[int(dag.solve_unit[t])]
            assert np.all(np.diff(members) > 0)          # ascending
            assert int(dag.cblk[t]) == int(members[-1])  # named by its top
            fused = dag.kind[t] == TaskKind.SUBTREE
            assert fused == (members.size > 1)

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_fused_units_are_complete_subtrees(self, sym, no_unit_floor,
                                               n_workers):
        """A fused unit holds *every* descendant of its top panel."""
        dag = build_solve_dag(sym, "llt", n_workers=n_workers)
        parent = supernode_parent(sym)
        top = np.empty(sym.n_cblk, dtype=np.int64)
        for members in _units(dag):
            top[members] = members[-1]
        n_fused = 0
        for members in _units(dag):
            if members.size == 1:
                continue
            n_fused += 1
            inside = set(members.tolist())
            for k in range(sym.n_cblk):
                anc = k
                while anc >= 0 and anc != members[-1]:
                    anc = int(parent[anc])
                assert (anc == members[-1]) == (k in inside)
        assert n_fused > 0

    def test_fewer_workers_fuse_more(self, sym, no_unit_floor):
        counts = [build_solve_dag(sym, "llt", n_workers=w).n_tasks
                  for w in (1, 2, 4, 64)]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_forward_before_backward(self, sym, sdag):
        """F(root unit) -> B(root unit) joins the sweeps, and no forward
        task is downstream of a backward one."""
        parent = supernode_parent(sym)
        n_units = sdag.unit_ptr.size - 1
        fwd = np.flatnonzero(~sdag.solve_backward)
        bwd = np.flatnonzero(sdag.solve_backward)
        assert fwd.size == bwd.size == n_units
        for f in fwd:
            b = next(int(t) for t in bwd
                     if sdag.solve_unit[t] == sdag.solve_unit[f])
            if parent[sdag.cblk[f]] < 0:
                assert sdag.has_edge(int(f), b)
            assert b in _reaches(sdag, int(f))
        for b in bwd:
            assert all(sdag.solve_backward[s] for s in sdag.successors(int(b)))

    def test_backward_edges_reversed(self, sym, sdag):
        """Every forward tree edge F(child) -> F(parent) has its mirror
        B(parent) -> B(child), and edges follow the supernode tree."""
        parent = supernode_parent(sym)
        unit_of = np.empty(sym.n_cblk, dtype=np.int64)
        for u, members in enumerate(_units(sdag)):
            unit_of[members] = u
        task = {(int(sdag.solve_unit[t]), bool(sdag.solve_backward[t])): t
                for t in range(sdag.n_tasks)}
        n_tree = 0
        for u, members in enumerate(_units(sdag)):
            up = int(parent[members[-1]])
            if up < 0:
                continue
            n_tree += 1
            pu = int(unit_of[up])
            assert sdag.has_edge(task[(u, False)], task[(pu, False)])
            assert sdag.has_edge(task[(pu, True)], task[(u, True)])
        n_roots = int(np.count_nonzero(parent < 0))
        assert sdag.n_edges == 2 * n_tree + n_roots

    def test_every_couple_is_ordered_by_the_dag(self, sym, sdag):
        """The lock-free bodies rely on it: for every update couple
        (j -> k), F(unit(j)) precedes-or-is F(unit(k)) (k reads j's slab)
        and B(unit(k)) precedes-or-is B(unit(j)) (j reads k's x)."""
        unit_of = np.empty(sym.n_cblk, dtype=np.int64)
        for u, members in enumerate(_units(sdag)):
            unit_of[members] = u
        task = {(int(sdag.solve_unit[t]), bool(sdag.solve_backward[t])): t
                for t in range(sdag.n_tasks)}
        reach = {t: _reaches(sdag, t) for t in range(sdag.n_tasks)}
        src, tgt, _, _ = update_couples(sym)
        for j, k in zip(src.tolist(), tgt.tolist()):
            uj, uk = int(unit_of[j]), int(unit_of[k])
            assert task[(uk, False)] in reach[task[(uj, False)]]
            assert task[(uj, True)] in reach[task[(uk, True)]]

    def test_flops_scale_with_nrhs(self, sym):
        one = build_solve_dag(sym, "llt", nrhs=1)
        four = build_solve_dag(sym, "llt", nrhs=4)
        assert four.total_flops() == pytest.approx(4 * one.total_flops())
        assert np.all(four.gemm_n == 4)

    def test_flops_independent_of_fusion(self, sym, no_unit_floor):
        """Coarsening moves flops between tasks, never changes the sum:
        per sweep, w² + 2·below·w per panel."""
        widths = np.diff(sym.cblk_ptr)
        below = np.array([sym.cblk_below(k) for k in range(sym.n_cblk)])
        expect = 2.0 * float((widths * (widths + 2 * below)).sum())
        for w in (1, 4, 64):
            dag = build_solve_dag(sym, "llt", n_workers=w)
            assert dag.total_flops() == pytest.approx(expect)

    def test_complex_multiplier(self, sym):
        real = build_solve_dag(sym, "ldlt", dtype=np.float64)
        cplx = build_solve_dag(sym, "ldlt", dtype=np.complex128)
        assert cplx.total_flops() == pytest.approx(4 * real.total_flops())

    def test_solve_flops_much_smaller_than_facto(self, sym3):
        # On a 3D problem the solve is a small fraction of the
        # factorization (O(nnz) vs O(n²)-ish).
        facto = build_dag(sym3, "llt")
        solve = build_solve_dag(sym3, "llt")
        assert solve.total_flops() < 0.1 * facto.total_flops()

    def test_memoised_on_the_symbol(self, sym):
        a = build_solve_dag(sym, "lu", dtype=np.float64, n_workers=2)
        assert build_solve_dag(sym, "lu", dtype=np.float64, n_workers=2) is a
        assert build_solve_dag(sym, "lu", dtype=np.float64, n_workers=3) is not a
        assert build_solve_dag(sym, "lu", dtype=np.complex128,
                               n_workers=2) is not a
        assert build_solve_dag(sym, "llt", n_workers=2) is not a
        same_pattern = analyze(
            grid_laplacian_2d(16, jitter=0.05, seed=5)
        ).symbol
        assert build_solve_dag(same_pattern, "lu", n_workers=2) is not a

    def test_single_panel_symbol(self):
        from repro.sparse.csc import SparseMatrixCSC

        one = analyze(SparseMatrixCSC.from_dense(np.array([[2.0]]))).symbol
        dag = build_solve_dag(one, "llt")
        assert dag.n_tasks == 2 and dag.n_edges == 1
        assert dag.has_edge(0, 1)
        dag.validate()


class TestSimulation:
    @pytest.mark.parametrize("policy", ["native", "parsec", "starpu"])
    def test_schedule_valid(self, sdag, policy):
        r = simulate(sdag, mirage(n_cores=4), get_policy(policy))
        r.trace.validate(sdag)
        assert len(r.trace.events) == sdag.n_tasks

    def test_nothing_runs_on_gpu(self, sdag):
        r = simulate(sdag, mirage(n_cores=4, n_gpus=2), get_policy("parsec"))
        assert all(not e.resource.startswith("gpu") for e in r.trace.events)

    def test_solve_throughput_far_below_facto(self, sym3, no_unit_floor):
        """The solve phase is bandwidth-bound: its achieved GFlop/s on 12
        cores must sit far below the factorization's (on a 3D problem —
        a toy 2D factorization is itself overhead-bound)."""
        fdag = build_dag(sym3, "llt")
        sdag = build_solve_dag(sym3, "llt", n_workers=12)
        gf_facto = simulate(fdag, mirage(12), get_policy("parsec"),
                            collect_trace=False).gflops
        gf_solve = simulate(sdag, mirage(12), get_policy("parsec"),
                            collect_trace=False).gflops
        assert gf_solve < 0.4 * gf_facto

    def test_critical_path_two_sweeps(self, sym, sdag):
        """The solve critical path spans both triangular sweeps: it climbs
        to a root unit forward and descends from it backward."""
        _, path = critical_path(sdag)
        back = [bool(sdag.solve_backward[t]) for t in path]
        assert len(path) >= 4
        assert not back[0] and back[-1]
        assert back == sorted(back)          # all forward, then all backward
        parent = supernode_parent(sym)
        turn = back.index(True)
        assert parent[sdag.cblk[path[turn]]] < 0
        assert sdag.solve_unit[path[turn - 1]] == sdag.solve_unit[path[turn]]


#: The arrays that make up a solve DAG.
_FIELDS = ("kind", "cblk", "target", "flops", "gemm_m", "gemm_n", "gemm_k",
           "succ_ptr", "succ_list", "mutex", "unit_ptr", "unit_panels",
           "solve_backward", "solve_unit")


def _without_floor(monkeypatch, build):
    """``build()`` with ``MIN_SOLVE_FLOPS`` dropped: the partition the
    DAG has without the floor."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.dag.builder.MIN_SOLVE_FLOPS", 0.0)
        return build()


def _assert_same_dag(a, b):
    for name in _FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestWorkFloor:
    """Under ``MIN_SOLVE_FLOPS`` the whole tree is one unit; above it the
    partition is the one it has without the floor."""

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_below_the_floor_one_forward_one_backward(self, sym, n_workers):
        dag = build_solve_dag(sym, "llt", n_workers=n_workers)
        assert dag.total_flops() < MIN_SOLVE_FLOPS
        assert dag.n_tasks == 2 and dag.n_edges == 1 and dag.has_edge(0, 1)
        assert dag.solve_backward.tolist() == [False, True]
        assert dag.solve_unit.tolist() == [0, 0]
        assert np.array_equal(dag.unit_ptr, [0, sym.n_cblk])
        assert np.array_equal(dag.unit_panels, np.arange(sym.n_cblk))
        assert dag.cblk.tolist() == [sym.n_cblk - 1] * 2
        assert np.all(dag.kind == TaskKind.SUBTREE)
        assert dag.total_flops() == pytest.approx(
            build_solve_dag(sym, "llt", n_workers=64).total_flops())
        dag.validate()

    def test_a_forest_is_one_unit(self):
        """Every tree of a forest, back to back, in the one unit: still
        the sequential solve bit for bit."""
        from repro.core.factorization import factorize_sequential
        from repro.core.triangular import solve_factored
        from repro.runtime.threaded import solve_threaded

        mat = many_component_matrix(COMPONENT_SIZES, seed=4)
        res = analyze(mat)
        assert np.count_nonzero(supernode_parent(res.symbol) < 0) > 1
        dag = build_solve_dag(res.symbol, "ldlt", n_workers=2)
        assert dag.n_tasks == 2
        factor = factorize_sequential(res.symbol, mat.permute(res.perm.perm),
                                      "ldlt")
        b = np.random.default_rng(3).standard_normal((mat.n_rows, 3))
        assert np.array_equal(solve_threaded(factor, b, n_workers=2),
                              solve_factored(factor, b))

    def test_the_floor_is_part_of_the_memo_key(self, sym, monkeypatch):
        floored = build_solve_dag(sym, "lu", n_workers=2)
        fine = _without_floor(
            monkeypatch, lambda: build_solve_dag(sym, "lu", n_workers=2))
        assert fine is not floored and fine.n_tasks > 2
        assert build_solve_dag(sym, "lu", n_workers=2) is floored

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_above_the_floor_the_partition_is_unchanged(self, sym,
                                                        monkeypatch,
                                                        n_workers):
        """A 128-column complex solve of the same symbol clears the
        floor: its DAG is, array for array, the one without it."""
        def build():
            return build_solve_dag(sym, "ldlt", dtype=np.complex128,
                                   nrhs=128, n_workers=n_workers)

        dag = build()
        assert dag.total_flops() >= MIN_SOLVE_FLOPS
        assert dag.n_tasks > 2
        _assert_same_dag(dag, _without_floor(monkeypatch, build))

    def test_benchmark_inputs(self, monkeypatch):
        """The solves of the wall-clock benchmark's threaded workloads:
        the Serena and afshell10 analogues are under the floor, and the
        pmlDF one (54 Mflop) keeps its DAG exactly."""
        for name, scale, ft in (("Serena", 0.5, "ldlt"),
                                ("afshell10", 0.5, "lu")):
            sym = analyze(load_matrix(name, scale, 0)).symbol
            assert build_solve_dag(sym, ft, n_workers=2).n_tasks == 2
        mat = load_matrix("pmlDF", 1.3, 0)
        sym = analyze(mat).symbol

        def build():
            return build_solve_dag(sym, "ldlt", dtype=mat.values.dtype,
                                   n_workers=2)

        dag = build()
        assert dag.total_flops() > 10 * MIN_SOLVE_FLOPS
        _assert_same_dag(dag, _without_floor(monkeypatch, build))
