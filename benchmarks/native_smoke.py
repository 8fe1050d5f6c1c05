"""Native-code smoke gate (``make native-smoke``).

Builds ``repro/kernels/native.c`` and ``repro/graph/analysis.c`` into a
*fresh* temporary cache directory — so a cold build is proven to work,
and its compiler, flags and seconds are printed — loads them from there,
and runs the differential checks: one small matrix per factotype in both
drivers (the native factor against the NumPy one, 1e-12, and the threaded
native factor against the sequential native one, bit for bit), and one
matrix per generator family through the analysis with the C helper (its
nested dissection on two threads) and with the Python bodies
(``repro.cbuild.python_bodies``: equal arrays, equal nested-dissection
orderings).  Each factor is also solved with 1, 3 and 16 right-hand
sides: the native sweeps against the NumPy bodies on the same panels
(1e-12), and the C DAG executor (``solve_threaded``, the solve
floor lowered so that its DAG is a tree of tasks) with 1, 2 and 3
workers against the sequential native solve (bit for bit); one traced
executor run per factor must pass the schedule check and the C7xx
concurrency audit.
A matrix just above the unit floor (``MIN_UNIT_FLOPS``, at the default
constants) runs as a tree of unit tasks: per factotype the DAG executor
at 1, 2 and 3 workers must equal the sequential driver bit for bit, and
one traced two-worker run must pass S2xx and C7xx.  One more matrix,
factorized with the split floors lowered so that its panels split into
a diagonal task and row-block tasks, checks each factotype the same way
(NumPy 1e-12; the DAG executor at 1, 2 and 3 workers bit for bit) and
audits one traced two-worker run (S2xx and C7xx); with those floors, one
matrix per factotype checks the factorization's plan of the C pass
against the NumPy builders (``python_bodies``: every array equal).  The
split matrix with zero pivots on the diagonal of narrow leaf panels (blocks C eliminates itself) makes C
hand those blocks back to Python inside the executor: at 2 workers the
LDLᵀ and LU errors, and the factors perturbed under a pivot threshold,
must be the sequential driver's.
Prints the effective backend.  Without a C compiler there is
nothing to build: it says ``SKIPPED (no C compiler)`` and exits 0.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

RTOL = 1e-12


def _analysis_arrays(res) -> list[np.ndarray]:
    from repro.graph.native import SYMBOL_FIELDS

    return [res.perm.perm, res.parent, res.counts, res.pattern.colptr,
            res.pattern.rowind, res.value_map] + [
                getattr(res.symbol, name) for name in SYMBOL_FIELDS]


def cold_build(module, cache: Path) -> None:
    """Build ``module.SOURCE`` into the empty ``cache`` and load it."""
    from repro import cbuild

    path, info = cbuild.build(module.SOURCE, cache)
    print(f"native-smoke: cold build of {path.name} in "
          f"{info['build_s']:.2f} s — {info['compiler']}, {info['flags']}")
    if info["cached"] or module.availability() is not None:
        sys.exit(f"native-smoke: cold build of {module.SOURCE.name} "
                 f"unusable: {module.availability()}")


def check_analysis() -> None:
    """C helper == Python bodies on one matrix per generator family."""
    from repro import cbuild
    from repro.graph import Graph
    from repro.ordering import nested_dissection
    from repro.sparse import generators as gen
    from repro.symbolic import analyze

    families = {
        "lap2d": gen.grid_laplacian_2d(20, jitter=0.05, seed=0),
        "lap3d": gen.grid_laplacian_3d(7, jitter=0.05, seed=1),
        "random": gen.random_pattern_spd(300, 6.0, seed=2, locality=0.5),
        "elasticity": gen.elasticity_like_3d(4, seed=3),
        "helmholtz": gen.helmholtz_like_2d(14, seed=4),
        "shell": gen.shell_like_2d(12, 12, seed=5),
    }
    for name, matrix in families.items():
        graph = Graph.from_matrix(matrix)
        got = _analysis_arrays(analyze(matrix)) + [
            nested_dissection(graph).perm]
        with cbuild.python_bodies():
            ref = _analysis_arrays(analyze(matrix)) + [
                nested_dissection(graph).perm]
        if not all(np.array_equal(a, b) for a, b in zip(got, ref)):
            sys.exit(f"native-smoke: analysis of {name} differs between "
                     "the C helper and the Python bodies")
        print(f"native-smoke: analysis {name} n={matrix.n_rows} ok "
              "(C helper == Python bodies)")


def numpy_factor(*args):
    """``factorize_sequential`` on the NumPy kernels, the oracle."""
    from repro import cbuild
    from repro.core.factorization import factorize_sequential

    with cbuild.python_bodies():
        return factorize_sequential(*args)


def _flat(factor, side: str) -> np.ndarray:
    return np.concatenate([p.ravel() for p in getattr(factor, side)])


def check_solve(ft: str, factor) -> None:
    """Native sweeps == NumPy bodies (1e-12) on the same factor, the DAG
    executor == sequential native solve (bits) at 1, 2 and 3 workers, 1,
    3 and 16 columns; a traced executor run audits clean."""
    from repro import cbuild
    from repro.core.triangular import solve_factored
    from repro.dag import builder
    from repro.dag.solve_builder import build_solve_dag
    from repro.runtime.threaded import solve_threaded
    from repro.runtime.tracing import ExecutionTrace
    from repro.verify.concurrency import verify_concurrency

    # Generator-sized solves weigh less than the solve floor, which makes
    # them a two-task chain: lower it, so the executor runs a real tree.
    builder.MIN_SOLVE_FLOPS = 0.0
    rng = np.random.default_rng(0)
    for nrhs in (1, 3, 16):
        b = rng.standard_normal((factor.n, nrhs))
        with cbuild.python_bodies():
            ref = solve_factored(factor, b)
        seq = solve_factored(factor, b)
        err = float(np.abs(ref - seq).max() / np.abs(ref).max())
        if not err <= RTOL:
            sys.exit(f"native-smoke: {ft} solve with {nrhs} column(s) "
                     f"deviates from the NumPy bodies by {err:.3e} "
                     f"(bound {RTOL})")
        for n_workers in (1, 2, 3):
            if not np.array_equal(
                    seq, solve_threaded(factor, b, n_workers=n_workers)):
                sys.exit(f"native-smoke: {ft} DAG executor with {n_workers} "
                         f"worker(s) and {nrhs} column(s) is not "
                         "bit-identical to the sequential solve")
    trace = ExecutionTrace()
    solve_threaded(factor, np.ones(factor.n), n_workers=3, trace=trace,
                   record_sync=True)
    dag = build_solve_dag(factor.symbol, ft, dtype=factor.dtype, n_workers=3)
    if dag.n_tasks <= 2:
        sys.exit(f"native-smoke: {ft} solve DAG has {dag.n_tasks} tasks")
    trace.validate(dag)
    report = verify_concurrency(dag, trace)
    if not report.ok or trace.meta["kernels"] != "native":
        sys.exit(f"native-smoke: {ft} traced DAG executor run fails its "
                 f"audit:\n{report.format()}")
    print(f"native-smoke: {ft} solve ok (1, 3 and 16 columns; sequential "
          "and the DAG executor at 1-3 workers; C7xx clean)")


def _check_drivers(what: str, res, permuted, ft: str) -> int:
    """The DAG executor at 1-3 workers == the sequential driver, bit for
    bit, and one traced two-worker run clean under S2xx and C7xx.
    Returns the DAG's task count."""
    from repro.core.factorization import factorize_sequential
    from repro.dag import builder
    from repro.runtime.threaded import factorize_threaded
    from repro.runtime.tracing import ExecutionTrace
    from repro.verify.concurrency import verify_concurrency
    from repro.verify.schedule import verify_schedule

    dag = builder.get_dag(res.symbol, ft, granularity="unit", n_workers=2)
    seq = factorize_sequential(res.symbol, permuted, ft)
    for w in (1, 2, 3):
        par = factorize_threaded(res.symbol, permuted, ft, n_workers=w)
        for side in ("L", "U", "D"):
            if getattr(seq, side) is not None and not np.array_equal(
                    _flat(seq, side), _flat(par, side)):
                sys.exit(f"native-smoke: {what} {ft} {side}: the executor "
                         f"at {w} worker(s) is not bit-identical to the "
                         "sequential driver")
    trace = ExecutionTrace()
    factorize_threaded(res.symbol, permuted, ft, n_workers=2, trace=trace,
                       record_sync=True)
    reports = [verify_schedule(dag, trace), verify_concurrency(dag, trace)]
    if not all(r.ok for r in reports):
        sys.exit(f"native-smoke: {what} {ft} traced run fails its audit:\n"
                 + "\n".join(r.format() for r in reports))
    return dag.n_tasks


def check_floor() -> None:
    """A matrix above the unit floor, at the default constants: a tree of
    unit tasks, run by the executor as the sequential driver runs it."""
    from repro.dag import builder
    from repro.kernels.cost import flops_total
    from repro.sparse.generators import grid_laplacian_3d
    from repro.symbolic import analyze

    matrix = grid_laplacian_3d(12, jitter=0.05, seed=3)
    res = analyze(matrix)
    permuted = matrix.permute(res.perm.perm)
    for ft in ("llt", "ldlt", "lu"):
        flops = flops_total(res.symbol, ft)
        n_tasks = _check_drivers("floor", res, permuted, ft)
        if not (flops >= builder.MIN_UNIT_FLOPS and n_tasks > 1):
            sys.exit(f"native-smoke: floor {ft}: {flops:.2e} flops ran as "
                     f"{n_tasks} task(s), not a tree above MIN_UNIT_FLOPS "
                     f"({builder.MIN_UNIT_FLOPS:.0e})")
        print(f"native-smoke: floor {ft} ok ({flops:.1e} flops, {n_tasks} "
              "tasks; the executor at 1-3 workers bit for bit, S2xx and "
              "C7xx clean)")


def check_split() -> None:
    """A matrix whose panels split: native factor == NumPy (1e-12), the
    DAG executor at 1, 2 and 3 workers == the sequential driver (bits), and one traced two-worker run passes S2xx
    and C7xx."""
    from repro.core.factorization import factorize_sequential
    from repro.dag import TaskKind, builder
    from repro.sparse.generators import grid_laplacian_3d
    from repro.symbolic import analyze

    # Generator-sized matrices weigh less than the floors: lower them.
    builder.MIN_UNIT_FLOPS = builder.MIN_SPLIT_FLOPS = 0.0
    builder.ROW_BLOCK = 16
    matrix = grid_laplacian_3d(9, jitter=0.05, seed=3)
    res = analyze(matrix)
    permuted = matrix.permute(res.perm.perm)
    for ft in ("llt", "ldlt", "lu"):
        dag = builder.get_dag(res.symbol, ft, granularity="unit", n_workers=2)
        n_rows = int(np.sum(dag.kind == TaskKind.ROWS))
        if not n_rows:
            sys.exit(f"native-smoke: split {ft}: no panel split")
        ref = numpy_factor(res.symbol, permuted, ft)
        seq = factorize_sequential(res.symbol, permuted, ft)
        for side in ("L", "U", "D"):
            if getattr(ref, side) is None:
                continue
            a, b = _flat(ref, side), _flat(seq, side)
            err = float(np.abs(a - b).max() / np.abs(a).max())
            if not err <= RTOL:
                sys.exit(f"native-smoke: split {ft} {side} deviates from "
                         f"the NumPy kernels by {err:.3e} (bound {RTOL})")
        _check_drivers("split", res, permuted, ft)
        print(f"native-smoke: split {ft} ok ({dag.n_tasks} tasks, {n_rows} "
              "row blocks; NumPy 1e-12, the executor at 1-3 workers bit "
              "for bit, S2xx and C7xx clean)")


def _plan_arrays(symbol, ft: str, n_workers: int) -> dict:
    """Every array of the factorization's plan of ``symbol``, read through
    its accessors, as ``{name: array}``."""
    from repro.dag import builder
    from repro.kernels.indexcache import (
        CoupleMapCache,
        PanelLayout,
        get_couple_cache,
        panel_layout,
    )
    from repro.runtime.threaded import _executor_tasks

    lay, plan = panel_layout(symbol), get_couple_cache(symbol)
    plan.validate()
    blocks = builder.row_blocks(symbol, ft)
    dag = builder.get_dag(symbol, ft, granularity="unit", n_workers=n_workers)
    tasks = _executor_tasks(dag)
    out = {name: getattr(lay, name) for name in PanelLayout._ARRAYS}
    out.update({name: getattr(plan, name) for name in CoupleMapCache._ARRAYS})
    out.update(maxima=np.array([plan.max_mn, plan.max_nw, plan.max_w]),
               counts=np.array(builder.symbol_counts(symbol, ft, np.float64)),
               block_ptr=blocks.ptr, block_rows=blocks.rows,
               tasks=tasks.tasks, order=tasks.order)
    for name in ("kind", "cblk", "unit_ptr", "unit_panels", "row_range",
                 "succ_ptr", "succ_list", "n_deps", "flops"):
        out[f"dag.{name}"] = getattr(dag, name)
    return out


def check_plan() -> None:
    """The factorization's plan in one C pass (layout, couple plan,
    counts, row blocks, unit DAG and its executor form) == the NumPy
    builders' (``python_bodies``), one matrix per factotype, with
    check_split's lowered floors so that panels split."""
    from repro import cbuild
    from repro.dag import TaskKind, builder
    from repro.graph import native
    from repro.sparse.generators import grid_laplacian_3d
    from repro.symbolic import analyze

    for ft, seed in (("llt", 4), ("ldlt", 5), ("lu", 6)):
        matrix = grid_laplacian_3d(8, jitter=0.05, seed=seed)
        symbol = analyze(matrix).symbol
        builder.factor_plan(symbol, ft, np.float64, 2)
        if native.planned(symbol) is None:
            sys.exit(f"native-smoke: plan {ft}: the C pass did not run")
        got = _plan_arrays(symbol, ft, 2)
        with cbuild.python_bodies():
            want = _plan_arrays(analyze(matrix).symbol, ft, 2)
        for name, a in got.items():
            if not (a.dtype == want[name].dtype
                    and np.array_equal(a, want[name])):
                sys.exit(f"native-smoke: plan {ft}: {name} differs from "
                         "the NumPy builders'")
        n_rows = int(np.sum(got["dag.kind"] == TaskKind.ROWS))
        print(f"native-smoke: plan {ft} ok ({got['dag.kind'].size} tasks, "
              f"{n_rows} row blocks; every array equal to the NumPy "
              "builders')")


def _outcome(run):
    """``(None, factor)``, or ``(exception type, text)`` when it raised."""
    try:
        return None, run()
    except (ZeroDivisionError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def check_handback() -> None:
    """Zero pivots (with check_split's lowered floors) on the first
    column of narrow leaf panels, whose diagonal blocks receive no update
    and C eliminates itself: C hands them back to Python inside the
    executor, and the two-worker error — or, under a pivot threshold,
    the perturbed factor — is the sequential driver's."""
    from repro.core.factorization import factorize_sequential
    from repro.kernels import native
    from repro.kernels.indexcache import get_couple_cache
    from repro.runtime.threaded import factorize_threaded
    from repro.sparse.csc import SparseMatrixCSC
    from repro.sparse.generators import grid_laplacian_3d
    from repro.symbolic import analyze

    matrix = grid_laplacian_3d(7, jitter=0.05, seed=3)
    res = analyze(matrix)
    permuted = matrix.permute(res.perm.perm)
    sym, plan = res.symbol, get_couple_cache(res.symbol)
    widths = np.diff(sym.cblk_ptr)
    narrow = native.kernel_bounds()["narrow"]
    leaves = np.flatnonzero((np.diff(plan.tgt_ptr) == 0) & (widths <= narrow))
    handed = []
    inner = native.panel_factorize

    def spy(factor, k, **options):
        handed.append(k)
        inner(factor, k, **options)

    native.panel_factorize = spy
    try:
        for panels in (leaves[:3], leaves[::7]):
            values = permuted.values.copy()
            for k in panels.tolist():
                col = int(sym.cblk_ptr[k])
                at = permuted.colptr[col] + np.searchsorted(
                    permuted.rowind[permuted.colptr[col]:
                                    permuted.colptr[col + 1]], col)
                values[at] = 0.0
            zeroed = SparseMatrixCSC(permuted.n_rows, permuted.n_cols,
                                     permuted.colptr, permuted.rowind, values)
            for ft in ("ldlt", "lu"):
                for threshold in (0.0, 1e-3):
                    seq = _outcome(lambda: factorize_sequential(
                        sym, zeroed, ft, pivot_threshold=threshold))
                    handed.clear()
                    par = _outcome(lambda: factorize_threaded(
                        sym, zeroed, ft, n_workers=2,
                        pivot_threshold=threshold))
                    same = seq[0] is par[0] and (
                        seq[1] == par[1] if seq[0] else all(
                            np.array_equal(_flat(seq[1], side),
                                           _flat(par[1], side))
                            for side in ("L", "U", "D")
                            if getattr(seq[1], side) is not None))
                    if not (handed and set(handed) <= set(panels.tolist())
                            and same):
                        sys.exit(f"native-smoke: hand-back {ft} with "
                                 f"{panels.size} zero pivot(s), threshold "
                                 f"{threshold}: panels {handed} back, "
                                 f"sequential {seq[0] or 'factor'}, "
                                 f"executor {par[0] or 'factor'}")
                    print(f"native-smoke: hand-back {ft} ok ({len(handed)} "
                          f"narrow block(s) back to Python at 2 workers, "
                          f"threshold {threshold}; "
                          f"{seq[0].__name__ if seq[0] else 'factor'} as "
                          "the sequential driver)")
    finally:
        native.panel_factorize = inner


def main() -> None:
    if not (shutil.which("cc") or shutil.which("gcc")):
        print("native-smoke: SKIPPED (no C compiler)")
        return
    with tempfile.TemporaryDirectory(prefix="repro-native-smoke-") as tmp:
        # Before the first load: the library is cached under here.
        os.environ["XDG_CACHE_HOME"] = tmp
        from repro.core.factorization import factorize_sequential
        from repro.graph import native as native_analysis
        from repro.kernels import native
        from repro.runtime.threaded import factorize_threaded
        from repro.sparse.generators import grid_laplacian_2d, helmholtz_like_2d
        from repro.symbolic import SymbolicOptions, analyze

        cache = Path(tmp) / "repro"
        cache.mkdir(mode=0o700)
        cold_build(native, cache)
        cold_build(native_analysis, cache)

        cases = [("llt", grid_laplacian_2d(24, jitter=0.05, seed=0)),
                 ("ldlt", helmholtz_like_2d(12, seed=1)),
                 ("lu", grid_laplacian_2d(20, jitter=0.05, seed=2))]
        for ft, matrix in cases:
            res = analyze(matrix, SymbolicOptions(split_max_width=16))
            permuted = matrix.permute(res.perm.perm)
            ref = numpy_factor(res.symbol, permuted, ft)
            seq = factorize_sequential(res.symbol, permuted, ft)
            par = factorize_threaded(res.symbol, permuted, ft, n_workers=2)
            if (seq.kernels, par.kernels) != ("native", "native"):
                sys.exit(f"native-smoke: {ft} ran {seq.kernels!r} / "
                         f"{par.kernels!r}, not the native backend")
            for side in ("L", "U", "D"):
                if getattr(ref, side) is None:
                    continue
                a, b = _flat(ref, side), _flat(seq, side)
                err = float(np.abs(a - b).max() / np.abs(a).max())
                if not err <= RTOL:
                    sys.exit(f"native-smoke: {ft} {side} deviates from the "
                             f"NumPy kernels by {err:.3e} (bound {RTOL})")
                if not np.array_equal(b, _flat(par, side)):
                    sys.exit(f"native-smoke: {ft} {side}: threaded native "
                             "factor is not bit-identical to the sequential")
            print(f"native-smoke: {ft} {matrix.values.dtype} ok "
                  f"(effective backend {seq.kernels!r}, both drivers)")
            check_solve(ft, seq)
        check_floor()
        check_split()
        check_plan()
        check_handback()
        check_analysis()


if __name__ == "__main__":
    main()
