"""N5xx symbolic-auditor tests.

The auditor re-derives nnz(L), per-column counts, and per-task flops
from the elimination tree and must agree exactly with the stored
structures on amalgamation-free analyses, dominate on amalgamated ones,
and catch seeded corruptions (skewed flop annotations, broken heights).
"""

import numpy as np
import pytest

from repro.dag import build_dag
from repro.dag.builder import update_couples
from repro.sparse.generators import (
    grid_laplacian_2d,
    grid_laplacian_3d,
    helmholtz_like_2d,
    random_pattern_spd,
)
from repro.symbolic import SymbolicOptions, analyze
from repro.verify import (
    derive_couples_by_target,
    skew_flops,
    verify_dag_costs,
    verify_symbolic,
)

EXACT = SymbolicOptions(split_max_width=32, amalgamation_ratio=None)


def matrices():
    return [
        ("lap2d16", grid_laplacian_2d(16, jitter=0.05, seed=0)),
        ("lap3d8", grid_laplacian_3d(8, jitter=0.05, seed=1)),
        ("helm10", helmholtz_like_2d(10)),
        ("rand", random_pattern_spd(80, 6.0, locality=0.4, seed=2)),
    ]


@pytest.mark.parametrize("label,matrix", matrices(),
                         ids=[m[0] for m in matrices()])
def test_exact_audit_clean_on_generators(label, matrix):
    res = analyze(matrix, EXACT)
    rep = verify_symbolic(matrix, res, exact=True)
    assert rep.ok, rep.format()
    # The acceptance bar: nnz agreement is exact, not approximate.
    assert rep.stats["nnz_symbol"] == rep.stats["nnz_colcount"]
    assert rep.stats["column_mismatches"] == 0


@pytest.mark.parametrize("label,matrix", matrices(),
                         ids=[m[0] for m in matrices()])
def test_amalgamated_audit_dominates(label, matrix):
    res = analyze(matrix, SymbolicOptions(split_max_width=32))
    rep = verify_symbolic(matrix, res, exact=False)
    assert rep.ok, rep.format()
    assert rep.stats["nnz_symbol"] >= rep.stats["nnz_colcount"]


def test_pattern_mismatch_detected():
    matrix = grid_laplacian_2d(12, jitter=0.05, seed=0)
    other = helmholtz_like_2d(12)  # same n, different sparsity pattern
    assert other.n_rows == matrix.n_rows
    res = analyze(matrix, EXACT)
    rep = verify_symbolic(other, res, exact=True)
    assert [f.code for f in rep.findings] == ["N500"]


def test_corrupted_heights_detected():
    matrix = grid_laplacian_2d(12, jitter=0.05, seed=0)
    res = analyze(matrix, EXACT)
    sym = res.symbol
    # Truncate the last blok of the last off-diagonal-bearing panel:
    # the structure now stores fewer entries than the factor needs.
    b = int(np.flatnonzero(sym.blok_lrow - sym.blok_frow > 1)[-1])
    sym.blok_lrow[b] -= 1
    rep = verify_symbolic(matrix, res, exact=True)
    found = {f.code for f in rep.findings}
    assert found & {"N501", "N502"}, rep.format()
    sym.blok_lrow[b] += 1  # restore (analysis objects may be shared)


# ----------------------------------------------------------------------
# Couple enumeration: per-target traversal vs the builder's per-source.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,matrix", matrices()[:2],
                         ids=[m[0] for m in matrices()[:2]])
def test_couples_by_target_match_builder(label, matrix):
    sym = analyze(matrix, EXACT).symbol
    src, tgt, m, n = update_couples(sym)
    mine = derive_couples_by_target(sym)
    assert sum(len(v) for v in mine.values()) == src.size
    for i in range(src.size):
        pair = (int(src[i]), int(tgt[i]))
        assert (int(m[i]), int(n[i])) in mine[pair]


# ----------------------------------------------------------------------
# DAG cost audit.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factotype", ["llt", "ldlt", "lu"])
@pytest.mark.parametrize("granularity", ["2d", "1d", "1d-left"])
def test_dag_costs_clean(factotype, granularity):
    sym = analyze(grid_laplacian_2d(16, jitter=0.05, seed=0), EXACT).symbol
    dag = build_dag(sym, factotype, granularity=granularity)
    rep = verify_dag_costs(dag)
    assert rep.ok, rep.format()


def test_dag_costs_clean_complex_and_fused():
    sym = analyze(grid_laplacian_2d(16, jitter=0.05, seed=0), EXACT).symbol
    dag = build_dag(sym, "ldlt", dtype=np.complex128)
    assert verify_dag_costs(dag, dtype=np.complex128).ok
    fused = build_dag(sym, "llt", granularity="1d",
                      fuse_subtree_flops=1e5)
    assert verify_dag_costs(fused).ok


def test_skew_flops_caught_naming_task():
    sym = analyze(grid_laplacian_2d(16, jitter=0.05, seed=0), EXACT).symbol
    dag = build_dag(sym, "llt")
    bad, task = skew_flops(dag)
    assert bad.flops[task] == pytest.approx(1.5 * dag.flops[task])
    rep = verify_dag_costs(bad)
    assert not rep.ok
    found = {f.code for f in rep.findings}
    assert "N504" in found and "N506" in found, rep.format()
    assert any(task in f.tasks for f in rep.findings if f.code == "N504")


def test_symbolless_dag_rejected():
    sym = analyze(grid_laplacian_2d(12, jitter=0.05, seed=0), EXACT).symbol
    dag = build_dag(sym, "llt")
    dag.symbol = None
    rep = verify_dag_costs(dag)
    assert [f.code for f in rep.findings] == ["N505"]
