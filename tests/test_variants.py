"""Left-looking couple order, 1d-left DAG, and static-pivot perturbation."""

import numpy as np
import pytest

from repro.core.factorization import (
    contributing_cblks,
    facing_cblks,
    factorize_sequential,
)
from repro.core.refinement import iterative_refinement
from repro.core.triangular import solve_factored
from repro.dag import build_dag, critical_path
from repro.kernels.dense import PivotMonitor, getrf_nopiv, ldlt_nopiv
from repro.sparse.csc import SparseMatrixCSC
from repro.symbolic import analyze


class TestLeftLooking:
    def test_contributing_is_inverse_of_facing(self, grid2d_medium):
        sym = analyze(grid2d_medium).symbol
        for k in range(sym.n_cblk):
            for t in facing_cblks(sym, k):
                assert k in contributing_cblks(sym, int(t))
        for t in range(sym.n_cblk):
            for k in contributing_cblks(sym, t):
                assert t in facing_cblks(sym, int(k))


class TestLeftDag:
    def test_same_edges_different_weights(self, grid2d_medium):
        sym = analyze(grid2d_medium).symbol
        right = build_dag(sym, "llt", granularity="1d")
        left = build_dag(sym, "llt", granularity="1d-left")
        left.validate()
        assert np.array_equal(right.succ_list, left.succ_list)
        assert right.total_flops() == pytest.approx(left.total_flops())
        assert not np.allclose(right.flops, left.flops)

    def test_left_concentrates_work_up_the_tree(self, grid2d_medium):
        """Left-looking charges updates to their targets, so its critical
        path (through the top of the tree) is at least as long."""
        sym = analyze(grid2d_medium).symbol
        cp_right, _ = critical_path(build_dag(sym, "llt", granularity="1d"))
        cp_left, _ = critical_path(build_dag(sym, "llt", granularity="1d-left"))
        assert cp_left >= cp_right

    def test_components_recorded_for_both(self, grid2d_small):
        sym = analyze(grid2d_small).symbol
        for g in ("1d", "1d-left"):
            dag = build_dag(sym, "llt", granularity=g)
            assert len(dag.fused_components) == dag.n_tasks
            total_updates = sum(
                1 for comps in dag.fused_components.values()
                for c in comps if c[0] == "update"
            )
            from repro.dag import update_couples

            assert total_updates == update_couples(sym)[0].size

    def test_simulates(self, grid2d_small):
        from repro.machine import mirage, simulate
        from repro.runtime import get_policy

        sym = analyze(grid2d_small).symbol
        dag = build_dag(sym, "llt", granularity="1d-left")
        r = simulate(dag, mirage(n_cores=4), get_policy("native"))
        r.trace.validate(dag)


class TestPivotPerturbation:
    def test_monitor_counts(self):
        mon = PivotMonitor(1e-8)
        a = np.diag([1.0, 1e-12, 2.0])
        lu = getrf_nopiv(a, mon)
        assert mon.n_perturbed == 1
        assert abs(lu[1, 1]) == pytest.approx(1e-8)

    def test_zero_pivot_perturbed(self):
        mon = PivotMonitor(1e-6)
        a = np.array([[0.0, 1.0], [1.0, 1.0]])
        lu = getrf_nopiv(a, mon)
        assert mon.n_perturbed == 1
        assert lu[0, 0] == pytest.approx(1e-6)

    def test_strict_mode_still_raises(self):
        with pytest.raises(ZeroDivisionError):
            ldlt_nopiv(np.zeros((2, 2)))

    def test_sign_preserved(self):
        mon = PivotMonitor(1e-4)
        a = np.diag([-1e-9, 1.0])
        L, d = ldlt_nopiv(a, mon)
        assert d[0] == pytest.approx(-1e-4)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            PivotMonitor(-1.0)

    def test_refinement_recovers_perturbed_solve(self, grid2d_small):
        """Perturb a nearly-singular pivot, then refine back to accuracy:
        the full static-pivoting workflow."""
        dense = grid2d_small.to_dense().copy()
        n = dense.shape[0]
        dense[0, 0] = 1e-13  # break a pivot
        # keep SPD-ish dominance elsewhere; use LU path
        mat = SparseMatrixCSC.from_dense(dense)
        res = analyze(mat)
        permuted = mat.permute(res.perm.perm)
        factor = factorize_sequential(
            res.symbol, permuted, "lu", pivot_threshold=1e-8
        )
        rng = np.random.default_rng(0)
        b = rng.standard_normal(n)

        def solve(v):
            pv = res.perm.apply_to_vector(v)
            return res.perm.undo_on_vector(solve_factored(factor, pv))

        result = iterative_refinement(mat, solve, b, tol=1e-9, max_iter=30)
        assert result.residual_norm < 1e-6
