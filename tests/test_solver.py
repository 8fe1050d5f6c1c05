"""Public SparseSolver API tests."""

import numpy as np
import pytest

from repro import SolverOptions, SparseSolver, cbuild
from repro.symbolic import SymbolicOptions
from tests.conftest import backend


class TestBasics:
    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_solve_all_factotypes(self, grid2d_medium, factotype):
        s = SparseSolver(grid2d_medium, SolverOptions(factotype=factotype))
        b = np.random.default_rng(0).standard_normal(grid2d_medium.n_rows)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-12

    def test_complex(self, helmholtz_small):
        s = SparseSolver(helmholtz_small, SolverOptions(factotype="ldlt"))
        rng = np.random.default_rng(1)
        b = rng.standard_normal(helmholtz_small.n_rows) * (1 + 1j)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-12

    def test_factorize_info(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        info = s.factorize()
        assert info.n == grid2d_small.n_rows
        assert info.flops > 0
        assert info.elapsed > 0
        assert info.gflops > 0
        assert info.nnz_factor == s.analysis.symbol.nnz()

    def test_analysis_cached(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        a1 = s.analyze()
        a2 = s.analyze()
        assert a1 is a2

    def test_solve_triggers_factorize(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        b = np.ones(grid2d_small.n_rows)
        s.solve(b)
        assert s.factor is not None
        assert s.last_info is not None

    def test_multiple_rhs(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        rng = np.random.default_rng(2)
        for _ in range(3):
            b = rng.standard_normal(grid2d_small.n_rows)
            x = s.solve(b)
            assert s.residual_norm(x, b) < 1e-12

    def test_refinement_recorded(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        s.solve(np.ones(grid2d_small.n_rows))
        assert s.last_refinement is not None
        assert s.last_refinement.converged

    def test_no_refinement(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        b = np.ones(grid2d_small.n_rows)
        x = s.solve(b, method="none")
        assert s.last_refinement is None
        assert s.residual_norm(x, b) < 1e-10


class TestValidation:
    def test_rejects_rectangular(self):
        from repro.sparse.csc import coo_to_csc

        with pytest.raises(ValueError):
            SparseSolver(coo_to_csc(2, 3, [0], [0], [1.0]))

    def test_rejects_pattern_only(self, grid2d_small):
        with pytest.raises(ValueError):
            SparseSolver(grid2d_small.pattern())

    def test_rejects_bad_rhs_shape(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        with pytest.raises(ValueError):
            s.solve(np.ones(3))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(factotype="qr")
        for runtime in ("mpi", "native", "starpu", "parsec"):
            with pytest.raises(ValueError):
                SolverOptions(runtime=runtime)
        with pytest.raises(ValueError):
            SolverOptions(n_workers=0)


class TestRuntimes:
    def test_threaded_runtime_matches(self, grid2d_medium):
        b = np.random.default_rng(3).standard_normal(grid2d_medium.n_rows)
        ref = SparseSolver(grid2d_medium).solve(b)
        thr = SparseSolver(
            grid2d_medium, SolverOptions(runtime="threaded", n_workers=3)
        ).solve(b)
        assert np.allclose(ref, thr, atol=1e-9)

    def test_symbolic_options_flow_through(self, grid2d_small):
        s = SparseSolver(
            grid2d_small,
            SolverOptions(symbolic=SymbolicOptions(split_max_width=4)),
        )
        s.analyze()
        assert np.diff(s.analysis.symbol.cblk_ptr).max() <= 4


class TestBlockAndReuse:
    def test_block_rhs(self, grid2d_small):
        s = SparseSolver(grid2d_small, SolverOptions(factotype="ldlt"))
        B = np.random.default_rng(7).standard_normal((grid2d_small.n_rows, 5))
        X = s.solve(B)
        assert X.shape == B.shape
        resid = np.linalg.norm(B - grid2d_small.matvec(X))
        assert resid / np.linalg.norm(B) < 1e-12

    def test_block_rhs_no_refine(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        B = np.ones((grid2d_small.n_rows, 3))
        X = s.solve(B, method="none")
        resid = np.linalg.norm(B - grid2d_small.matvec(X))
        assert resid / np.linalg.norm(B) < 1e-10

    def test_block_rhs_rejects_krylov(self, grid2d_small):
        s = SparseSolver(grid2d_small)
        with pytest.raises(ValueError, match="block right-hand"):
            s.solve(np.ones((grid2d_small.n_rows, 2)), method="gmres")

    def test_update_values_reuses_analysis(self, grid2d_small):
        from repro.sparse.generators import grid_laplacian_2d

        s = SparseSolver(grid2d_small)
        s.factorize()
        analysis = s.analysis
        fresh = grid_laplacian_2d(8, jitter=0.3, seed=99)
        s.update_values(fresh)
        assert s.analysis is analysis          # analyze phase kept
        assert s.factor is None                # numeric factor dropped
        b = np.ones(fresh.n_rows)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-12   # solves the NEW system

    @pytest.mark.parametrize("runtime", ["sequential", "threaded"])
    def test_refactorization_does_not_recount(self, grid2d_small,
                                              monkeypatch, runtime):
        """Regression: ``factorize()`` used to re-run ``flops_total`` and
        ``symbol.nnz`` — Python loops over every panel and couple — on
        each call, outside ``FactorizationInfo.elapsed`` but inside what
        a caller times.  Both depend on the symbol only: once per
        analysis (per factotype/dtype), never again.  Counted on the
        NumPy bodies: with the analysis helper the plan pass computes
        both, once (``test_factor_plan.py``)."""
        from repro.dag import builder
        from repro.sparse.generators import grid_laplacian_2d
        from repro.symbolic.structures import SymbolMatrix

        calls = {"flops": 0, "nnz": 0}
        real_flops, real_nnz = builder.flops_total, SymbolMatrix.nnz

        def flops(*args, **kwargs):
            calls["flops"] += 1
            return real_flops(*args, **kwargs)

        def nnz(self, **kwargs):
            calls["nnz"] += 1
            return real_nnz(self, **kwargs)

        monkeypatch.setattr(builder, "flops_total", flops)
        monkeypatch.setattr(SymbolMatrix, "nnz", nnz)
        s = SparseSolver(grid2d_small, SolverOptions(
            factotype="ldlt", runtime=runtime, n_workers=2))
        with cbuild.python_bodies():
            first = s.factorize()
            s.update_values(grid_laplacian_2d(8, jitter=0.3, seed=99))
            again = s.factorize()
            s.factorize()
        assert calls == {"flops": 1, "nnz": 1}
        assert (again.flops, again.nnz_factor) == \
            (first.flops, first.nnz_factor)
        assert first.flops == real_flops(s.analysis.symbol, "ldlt")
        assert first.nnz_factor == real_nnz(s.analysis.symbol,
                                            factotype="ldlt")

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    @pytest.mark.parametrize("runtime", ["sequential", "threaded"])
    def test_refactorization_reuses_permutation_and_assembly(
            self, grid2d_small, monkeypatch, factotype, runtime):
        """After ``update_values`` the new values are permuted by one
        gather onto the pattern arrays kept from the first ``permute``,
        and assembled through the symbol's memoised map: no ``permute``
        (an argsort), no ``to_coo`` copy, no ``local_rows`` (a
        ``searchsorted``).  The answer is a fresh solver's, to the bit."""
        from repro.kernels.indexcache import PanelLayout
        from repro.sparse.csc import SparseMatrixCSC
        from repro.sparse.generators import grid_laplacian_2d

        opts = SolverOptions(factotype=factotype, runtime=runtime,
                             n_workers=2)
        s = SparseSolver(grid2d_small, opts)
        s.factorize()
        new = grid_laplacian_2d(8, jitter=0.3, seed=99)
        s.update_values(new)
        calls = []
        for cls, name in ((SparseMatrixCSC, "permute"),
                          (SparseMatrixCSC, "to_coo"),
                          (PanelLayout, "local_rows")):
            def spy(*args, _real=getattr(cls, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
        s.factorize()
        assert calls == []
        monkeypatch.undo()
        b = np.random.default_rng(5).standard_normal(new.n_rows)
        assert np.array_equal(s.solve(b), SparseSolver(new, opts).solve(b))

    def test_update_values_rejects_new_pattern(self, grid2d_small):
        from repro.sparse.generators import grid_laplacian_2d

        s = SparseSolver(grid2d_small)
        with pytest.raises(ValueError, match="pattern"):
            s.update_values(grid_laplacian_2d(8, stencil=9, seed=1))

    def test_update_values_rejects_wrong_shape(self, grid2d_small, grid3d_small):
        s = SparseSolver(grid2d_small)
        with pytest.raises(ValueError, match="shape"):
            s.update_values(grid3d_small)

    def test_pivot_threshold_option(self, grid2d_small):
        import numpy as np

        dense = grid2d_small.to_dense().copy()
        dense[0, 0] = 1e-14
        from repro.sparse.csc import SparseMatrixCSC

        mat = SparseMatrixCSC.from_dense(dense)
        s = SparseSolver(
            mat, SolverOptions(factotype="lu", pivot_threshold=1e-8,
                               refine_max_iter=30, refine_tol=1e-8),
        )
        info = s.factorize()
        assert info.n_pivots_perturbed >= 1
        b = np.ones(mat.n_rows)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-6

    def test_pivot_threshold_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(pivot_threshold=-1.0)


class TestErrorPaths:
    def test_complex_llt_fails_cleanly(self, helmholtz_small):
        s = SparseSolver(helmholtz_small, SolverOptions(factotype="llt"))
        with pytest.raises(TypeError, match="potrf"):
            s.factorize()

    def test_indefinite_llt_fails(self, grid2d_small):
        import numpy as np
        from repro.sparse.csc import SparseMatrixCSC

        d = -grid2d_small.to_dense()
        s = SparseSolver(SparseMatrixCSC.from_dense(d))
        with pytest.raises(np.linalg.LinAlgError):
            s.factorize()


class TestThreadedSolvePath:
    """``runtime="threaded"`` solves through ``solve_threaded`` whatever
    the right-hand side's shape or dtype."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the DAG and vector of every executor run."""
        from repro.runtime import threaded

        seen = []
        run = threaded._run_dag

        def spy(factor, x, dag, *args, **kwargs):
            seen.append((dag, x.shape, x.dtype))
            run(factor, x, dag, *args, **kwargs)

        monkeypatch.setattr(threaded, "_run_dag", spy)
        return seen

    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_block_rhs_runs_on_the_pool(self, grid2d_small, factotype,
                                        monkeypatch):
        """Regression: a 2-D right-hand side used to be routed to the
        sequential solve behind the caller's back (hiding an LDLᵀ
        broadcasting bug on the threaded path)."""
        from repro.core.triangular import solve_factored

        seen = self._spy(monkeypatch)
        s = SparseSolver(grid2d_small, SolverOptions(
            factotype=factotype, runtime="threaded", n_workers=2))
        B = np.random.default_rng(4).standard_normal((grid2d_small.n_rows, 3))
        X = s.solve(B, method="none")
        assert [shape for _, shape, _ in seen] == [B.shape]
        perm = s.analysis.perm
        ref = perm.undo_on_vector(
            solve_factored(s.factor, perm.apply_to_vector(B)))
        assert np.array_equal(X, ref)
        X = s.solve(B)
        assert np.linalg.norm(B - grid2d_small.matvec(X)) \
            < 1e-12 * np.linalg.norm(B)

    def test_complex_block_rhs_runs_on_the_pool(self, helmholtz_small,
                                                monkeypatch):
        seen = self._spy(monkeypatch)
        rng = np.random.default_rng(6)
        n = helmholtz_small.n_rows
        B = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        for factotype in ("ldlt", "lu"):
            s = SparseSolver(helmholtz_small, SolverOptions(
                factotype=factotype, runtime="threaded", n_workers=2))
            X = s.solve(B)
            assert np.linalg.norm(B - helmholtz_small.matvec(X)) \
                < 1e-12 * np.linalg.norm(B)
        assert seen and all(shape == B.shape for _, shape, _ in seen)

    @pytest.mark.parametrize("runtime", ["sequential", "threaded"])
    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_complex_rhs_on_real_factor(self, grid2d_small, factotype,
                                        runtime):
        """Regression: casting a complex ``b`` to a real factor's dtype
        dropped the imaginary part (relative residual 0.707, only a
        ComplexWarning).  Real A: solve [Re b | Im b] and recombine."""
        import warnings

        n = grid2d_small.n_rows
        rng = np.random.default_rng(8)
        b = np.ones(n) + 1j * np.ones(n)
        B = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        s = SparseSolver(grid2d_small, SolverOptions(
            factotype=factotype, runtime=runtime, n_workers=2))
        # Outside the filter: on a host that cannot build the native
        # backend the fallback says so once, and that is not the warning
        # this test is about.
        s.factorize()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rhs, methods in ((b, ("none", "refine", "gmres", "bicgstab")),
                                 (B, ("none", "refine"))):
                for method in methods:
                    x = s.solve(rhs, method=method)
                    assert np.iscomplexobj(x) and x.shape == rhs.shape
                    resid = np.linalg.norm(rhs - grid2d_small.matvec(x))
                    assert resid < 1e-10 * np.linalg.norm(rhs), method
            # The real and imaginary parts are the two columns of one
            # real block solve, recombined.
            x = s.solve(b, method="none")
            both = s.solve(np.column_stack([b.real, b.imag]), method="none")
            assert np.array_equal(x, both[:, 0] + 1j * both[:, 1])

    def test_solves_reuse_the_memoised_dag(self, grid2d_small, monkeypatch):
        """One DAG object serves every solve, every refinement step and
        the solves after a refactorization of the same pattern."""
        from repro.sparse.generators import grid_laplacian_2d

        seen = self._spy(monkeypatch)
        s = SparseSolver(grid2d_small, SolverOptions(
            factotype="ldlt", runtime="threaded", n_workers=2))
        b = np.ones(grid2d_small.n_rows)
        s.solve(b)
        n_first = len(seen)
        s.solve(np.random.default_rng(9).standard_normal(b.size))
        s.update_values(grid_laplacian_2d(8, jitter=0.3, seed=99))
        s.factorize()
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-12
        assert n_first >= 1 and len(seen) >= n_first + 2
        assert all(dag is seen[0][0] for dag, _, _ in seen)
        assert seen[0][0].n_tasks <= 2 * s.analysis.symbol.n_cblk

    @pytest.mark.parametrize("runtime", ["sequential", "threaded"])
    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_degenerate_matrices_solve(self, factotype, runtime):
        from repro.sparse.csc import SparseMatrixCSC, coo_to_csc

        dense4 = 4.0 * np.eye(4) + np.ones((4, 4))
        cases = {
            "0x0": coo_to_csc(0, 0, [], [], np.array([], dtype=float)),
            "1x1": SparseMatrixCSC.from_dense(np.array([[2.0]])),
            "single panel": SparseMatrixCSC.from_dense(dense4),
        }
        opts = SolverOptions(factotype=factotype, runtime=runtime, n_workers=2)
        for name, mat in cases.items():
            s = SparseSolver(mat, opts)
            n = mat.n_rows
            for b in (np.ones(n), np.ones((n, 2))):
                x = s.solve(b)
                assert x.shape == b.shape, name
                assert np.allclose(mat.matvec(x), b, atol=1e-12), name
            assert s.analysis.symbol.n_cblk <= 1

    @pytest.mark.parametrize("kernels", ["native", "numpy"])
    @pytest.mark.parametrize("runtime", ["sequential", "threaded"])
    @pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
    def test_empty_system_raw_solve(self, factotype, runtime, kernels):
        """Regression: a sequential LDLᵀ solve of a 0×0 system raised
        (``np.concatenate`` of no diagonal blocks).  Refinement hid it —
        a zero ``b`` returns before any solve — so solve without it."""
        from repro.sparse.csc import coo_to_csc

        mat = coo_to_csc(0, 0, [], [], np.array([], dtype=float))
        s = SparseSolver(mat, SolverOptions(
            factotype=factotype, runtime=runtime, n_workers=2))
        with backend(kernels):
            for shape in ((0,), (0, 3)):
                x = s.solve(np.zeros(shape), method="none")
                assert x.shape == shape and x.dtype == np.float64
