"""The factorization's plan in one C pass against its NumPy builders.

:func:`repro.dag.builder.factor_plan` builds the panel layout, the couple
plan, the flop count and factor size, the row blocks and the unit DAG in
the executor's form in one call of the analysis helper; the NumPy
builders (run inside :func:`repro.cbuild.python_bodies`) are the oracle.
Every array must be ``array_equal`` to theirs, dtypes included, and a
malformed symbol must raise what the NumPy builders raise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cbuild
from repro.core.factor import assembly_map
from repro.dag import TaskKind, builder
from repro.graph import native
from repro.kernels.indexcache import (
    CoupleMapCache,
    PanelLayout,
    get_couple_cache,
    panel_layout,
)
from repro.runtime.threaded import _executor_tasks
from repro.sparse import SparseMatrixCSC, load_matrix
from repro.sparse.collection import MATRIX_COLLECTION, collection_names
from repro.symbolic import analyze
from repro.symbolic.structures import SymbolMatrix
from tests.conftest import split_every_panel

pytestmark = pytest.mark.skipif(
    native.availability() is not None, reason="native analysis unavailable")

#: The unit DAG's fields, and those of its executor form.
DAG_FIELDS = ("kind", "cblk", "target", "unit_ptr", "unit_panels",
              "row_range", "succ_ptr", "succ_list", "n_deps", "mutex",
              "flops", "gemm_m", "gemm_n", "gemm_k")
EXECUTOR_FIELDS = ("succ_ptr", "succ_list", "n_deps", "tasks", "order")


def _fresh(symbol: SymbolMatrix) -> SymbolMatrix:
    """The same arrays as a new symbol object: nothing memoised."""
    return SymbolMatrix(symbol.n, symbol.cblk_ptr, symbol.blok_ptr,
                        symbol.blok_frow, symbol.blok_lrow, symbol.blok_face,
                        symbol.blok_owner, symbol.col2cblk, symbol.face_ptr,
                        symbol.face_list)


def _read(symbol, ft, dtype, n_workers) -> dict:
    """Every plan array and scalar a factorization reads, through the
    accessors (which find them memoised after the C pass)."""
    out = {}
    lay = panel_layout(symbol)
    for name in PanelLayout._ARRAYS:
        out[f"layout.{name}"] = getattr(lay, name)
    plan = get_couple_cache(symbol)
    for name in CoupleMapCache._ARRAYS:
        out[f"plan.{name}"] = getattr(plan, name)
    plan.validate()
    out["plan.maxima"] = (plan.max_mn, plan.max_nw, plan.max_w)
    out["counts"] = builder.symbol_counts(symbol, ft, dtype)
    blocks = builder.row_blocks(symbol, ft, dtype)
    out["blocks.ptr"], out["blocks.rows"] = blocks.ptr, blocks.rows
    if n_workers is not None:
        dag = builder.get_dag(symbol, ft, granularity="unit", dtype=dtype,
                              n_workers=n_workers)
        for name in DAG_FIELDS:
            out[f"dag.{name}"] = getattr(dag, name)
        out["dag.fused_components"] = dag.fused_components
        tasks = _executor_tasks(dag)
        for name in EXECUTOR_FIELDS:
            out[f"executor.{name}"] = getattr(tasks, name)
        out["executor.kinds"] = (tasks.kinds, tasks.max_hi)
    return out


def assert_plan_matches_numpy(symbol, ft, dtype, n_workers=None) -> dict:
    """The C pass's plan of ``symbol`` against the NumPy builders' of the
    same arrays; returns the C side."""
    builder.factor_plan(symbol, ft, dtype, n_workers)
    assert native.planned(symbol) is not None, "the C pass did not run"
    assert get_couple_cache(symbol)._valid      # checked by the pass
    got = _read(symbol, ft, dtype, n_workers)
    with cbuild.python_bodies():
        want = _read(_fresh(symbol), ft, dtype, n_workers)
    assert got.keys() == want.keys()
    for name, a in got.items():
        b = want[name]
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name
    return got


@pytest.mark.parametrize("scale", [0.3, 0.5])
@pytest.mark.parametrize("name", collection_names())
def test_collection(name, scale):
    """The nine collection analogues at two scales, in their own
    factotype and dtype, at 1-4 workers; the sequential driver's plan
    (no unit DAG) too."""
    info = MATRIX_COLLECTION[name]
    symbol = analyze(load_matrix(name, scale, 0)).symbol
    ft = info.method.lower()
    assert_plan_matches_numpy(_fresh(symbol), ft, info.dtype)
    for n_workers in (1, 2, 3, 4):
        assert_plan_matches_numpy(_fresh(symbol), ft, info.dtype, n_workers)


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128],
                         ids=["real", "complex"])
@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_every_factotype(grid2d_medium, monkeypatch, no_unit_floor, ft,
                         dtype, split):
    """Every factotype, real and complex, with the floors dropped (a unit
    tree) and with every panel split into row blocks (``split``), at 1-4
    workers."""
    if split:
        split_every_panel(monkeypatch)
    symbol = analyze(grid2d_medium).symbol
    for n_workers in (1, 2, 3, 4):
        got = assert_plan_matches_numpy(_fresh(symbol), ft, dtype, n_workers)
        kinds = got["dag.kind"]
        assert (TaskKind.ROWS in kinds) == split
        assert got["dag.kind"].size > 1


def _cross_block_edges(got: dict) -> int:
    """Edges from a ``ROWS`` task of one panel to a task of another."""
    kind, cblk = got["dag.kind"], got["dag.cblk"]
    ptr, succ = got["dag.succ_ptr"], got["dag.succ_list"]
    heads = np.repeat(np.arange(kind.size), np.diff(ptr))
    return int(np.count_nonzero((kind[heads] == TaskKind.ROWS)
                                & (cblk[heads] != cblk[succ])
                                & (kind[succ] != TaskKind.PANEL1D)
                                & (kind[succ] != TaskKind.SUBTREE)))


def test_split_panel_under_a_split_parent(grid2d_medium, monkeypatch):
    """Row blocks of a split panel facing its split parent: the block
    edges (``_block_edges``) go from blocks to blocks, not to the parent
    as a whole."""
    split_every_panel(monkeypatch)
    got = assert_plan_matches_numpy(analyze(grid2d_medium).symbol, "ldlt",
                                    np.float64, 2)
    assert _cross_block_edges(got) > 0


def _one_panel() -> SparseMatrixCSC:
    dense = np.full((6, 6), 0.5) + 6.0 * np.eye(6)
    rows, cols = np.nonzero(dense)
    from repro.sparse.csc import coo_to_csc

    return coo_to_csc(6, 6, rows, cols, dense[rows, cols])


@pytest.mark.parametrize("case", ["one-panel", "no-couples", "1-x-1"])
@pytest.mark.parametrize("ft", ["llt", "ldlt", "lu"])
def test_edge_cases(case, ft, no_unit_floor):
    matrix = {"one-panel": _one_panel,
              "no-couples": lambda: SparseMatrixCSC.identity(30),
              "1-x-1": lambda: SparseMatrixCSC.identity(1)}[case]()
    symbol = analyze(matrix).symbol
    got = assert_plan_matches_numpy(symbol, ft, np.float64, 2)
    assert got["plan.src"].size == 0
    if case != "no-couples":
        assert got["layout.width"].size == 1


def _corrupt(symbol: SymbolMatrix, name: str) -> SymbolMatrix:
    """A copy of ``symbol`` with one malformation."""
    fields = {f: getattr(symbol, f).copy() for f in (
        "cblk_ptr", "blok_ptr", "blok_frow", "blok_lrow", "blok_face",
        "blok_owner", "col2cblk")}
    off = np.flatnonzero(fields["blok_face"] != fields["blok_owner"])
    b = int(off[len(off) // 2])
    if name == "face-out-of-range":
        fields["blok_face"][b] = symbol.n_cblk
    elif name == "downward-couple":
        fields["blok_face"][b] = fields["blok_owner"][b] - 1
    elif name == "reversed-blok":
        fields["blok_frow"][b], fields["blok_lrow"][b] = (
            fields["blok_lrow"][b], fields["blok_frow"][b] - 1)
    elif name == "row-past-n":
        fields["blok_lrow"][b] = symbol.n + 3
    elif name == "row-not-in-the-target":
        fields["blok_frow"][b] -= 1
    elif name == "blok_ptr-decreasing":
        fields["blok_ptr"][1] = fields["blok_ptr"][2] + 1
    elif name == "panel-without-bloks":
        fields["blok_ptr"][1] = 0
    return SymbolMatrix(symbol.n, face_ptr=symbol.face_ptr,
                        face_list=symbol.face_list, **fields)


def _outcome(run) -> tuple:
    try:
        run()
    except Exception as exc:   # the typed error is what is compared
        return type(exc).__name__, str(exc)
    return "ok", ""


def _plan_steps(symbol, permuted, n_workers) -> None:
    """What a first factorization builds before its kernels run."""
    builder.factor_plan(symbol, "ldlt", np.float64, n_workers)
    panel_layout(symbol)
    get_couple_cache(symbol).validate()
    builder.symbol_counts(symbol, "ldlt", np.float64)
    builder.row_blocks(symbol, "ldlt")
    assembly_map(symbol, permuted, "ldlt")
    if n_workers is not None:
        _executor_tasks(builder.get_dag(symbol, "ldlt", granularity="unit",
                                        n_workers=n_workers))


@pytest.mark.parametrize("n_workers", [None, 2], ids=["sequential", "unit"])
@pytest.mark.parametrize("name", [
    "face-out-of-range", "downward-couple", "reversed-blok", "row-past-n",
    "row-not-in-the-target", "blok_ptr-decreasing", "panel-without-bloks"])
def test_malformed_symbol_raises_what_numpy_raises(grid2d_medium, no_unit_floor,
                                                   name, n_workers):
    res = analyze(grid2d_medium)
    permuted = grid2d_medium.permute(res.perm.perm)
    got = _outcome(lambda: _plan_steps(_corrupt(res.symbol, name), permuted,
                                       n_workers))
    with cbuild.python_bodies():
        want = _outcome(lambda: _plan_steps(_corrupt(res.symbol, name),
                                            permuted, n_workers))
    assert got == want
    assert got[0] != "ok"


def test_plan_pass_runs_once_per_pattern(grid2d_medium, monkeypatch,
                                         no_unit_floor):
    """A first factorization makes one C pass; refactorizations and the
    solver's counts read its memos."""
    calls = []
    plan = native.factor_plan

    def counting(*args, **kwargs):
        calls.append(args[2:4])
        return plan(*args, **kwargs)

    monkeypatch.setattr(native, "factor_plan", counting)
    from repro import SolverOptions, SparseSolver

    solver = SparseSolver(grid2d_medium, SolverOptions(
        factotype="lu", runtime="threaded", n_workers=2))
    info = solver.factorize()
    solver.factorize()
    assert calls == [("lu", 1.0)]
    assert info.flops == builder.flops_total(solver.analysis.symbol, "lu")
    symbol = solver.analysis.symbol
    assert info.nnz_factor == symbol.nnz(factotype="lu")


def test_deferred_dag_fields_outlive_the_floors(grid2d_medium, monkeypatch):
    """The unit DAG's flops and components, deferred to their first read,
    belong to the DAG the pass built even when the floors changed since."""
    split_every_panel(monkeypatch)
    symbol = analyze(grid2d_medium).symbol
    builder.factor_plan(symbol, "llt", np.float64, 3)
    dag = builder.get_dag(symbol, "llt", granularity="unit", n_workers=3)
    with cbuild.python_bodies():
        want = builder.build_dag(_fresh(symbol), "llt", granularity="unit",
                                 n_workers=3)
    monkeypatch.setattr(builder, "ROW_BLOCK", 128)
    monkeypatch.setattr(builder, "MIN_UNIT_FLOPS", 4e6)
    assert np.array_equal(dag.flops, want.flops)
    assert dag.fused_components == want.fused_components
