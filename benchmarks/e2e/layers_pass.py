"""Traced pass: per-layer attribution, measured from outside.

Each round first runs the public pipeline untraced (the phase split
``core.analyze_s`` / ``core.factorize_s`` / ``core.first_solve_s``), then
walks the same work layer by layer, wrapping every call into a layer's
public functions in a benchmark-side span.  Nothing under ``src/`` is
instrumented; the only runtime-internal numbers come from arguments the
threaded runtime already offers (``trace=ExecutionTrace()``,
``record_sync=True``).
"""

from __future__ import annotations

import gc
import time

import numpy as np

from e2e_pass import time_to_solution
from harness import Inputs, Ops, Workload
from repro import SolverOptions, SymbolicOptions, analyze
from repro.core import (
    NumericFactor,
    factorize_sequential,
    iterative_refinement,
    solve_factored,
)
from repro.core.factorization import facing_cblks
from repro.dag import build_dag, build_solve_dag, critical_path
from repro.kernels import flops_total
from repro.kernels.indexcache import get_couple_cache
from repro.kernels.panel import (
    panel_factorize,
    panel_update_compute,
    panel_update_scatter,
)
from repro.ordering import nested_dissection
from repro.runtime import ExecutionTrace, factorize_threaded, solve_threaded
from spans import Tracer

__all__ = ["run_rounds", "account"]

KERNEL_SPANS = ("kernels.panel_factorize", "kernels.update_compute",
                "kernels.update_scatter")


def _structure_metrics(symbol, dag, cache, factor, wl, dtype) -> dict:
    """Counts that depend on the pattern only (same in every round)."""
    return {
        "symbolic.n_cblk": symbol.n_cblk,
        "symbolic.nnz_factor": symbol.nnz(factotype=wl.factotype),
        "kernels.couple_cache_bytes": cache.nbytes(),
        "dag.n_tasks": dag.n_tasks,
        "dag.n_edges": dag.n_edges,
        "dag.critical_path_frac": critical_path(dag)[0] / dag.total_flops(),
        "core.factor_bytes": factor.nbytes(),
        "kernels.flops": flops_total(symbol, wl.factotype, dtype),
    }


def _one_round(wl: Workload, inp: Inputs, ops: Ops, tracer: Tracer,
               structure: dict | None) -> tuple[dict, dict]:
    """All per-layer metrics of one round, and the structure counts among
    them for the next round to reuse (a failing layer call raises)."""
    matrix, ft = inp.matrix, wl.factotype
    dtype = matrix.values.dtype
    m: dict[str, float] = {}

    def layer(name, fn, *args, **kwargs):
        ops.attempted += 1
        return tracer.call(name, fn, *args, **kwargs)

    _, _, times = time_to_solution(wl, inp, ops)
    if times is None:
        raise RuntimeError("untraced pipeline failed: " + ops.errors[-1])
    (m["time_to_solution_s"], m["core.analyze_s"], m["core.factorize_s"],
     m["core.first_solve_s"]) = times

    # -- analyze, layer by layer --------------------------------------
    pattern = layer(
        "sparse.symmetrize",
        lambda: matrix.symmetrize_pattern().with_full_diagonal(),
    )
    nd_perm = layer("ordering.nd", nested_dissection, pattern)
    analysis = layer(
        "symbolic.symbolic", analyze, matrix, SymbolicOptions(ordering=nd_perm)
    )
    symbol, perm = analysis.symbol, analysis.perm
    permuted = layer("sparse.permute", matrix.permute, perm.perm)
    layer("sparse.matvec", matrix.matvec, inp.b)

    # -- what every factorize() rebuilds ------------------------------
    cache = layer("kernels.couple_cache_build", get_couple_cache, symbol)
    dag = layer("dag.build", build_dag, symbol, ft, granularity="2d",
                dtype=dtype)
    layer("dag.solve_build", build_solve_dag, symbol, ft, dtype=dtype)
    factor = layer("core.assemble", NumericFactor.assemble, symbol, permuted,
                   ft)
    factor.index_cache = cache   # the drivers' default (index_cache=True)

    # -- the numeric kernels: the sequential driver's loop, one span per
    #    call, so kernel time is separated from the driver's own time ---
    ops.attempted += 1
    with tracer.span("kernels.loop") as loop:
        for k in range(symbol.n_cblk):
            tracer.call("kernels.panel_factorize", panel_factorize, factor, k)
            for t in facing_cblks(symbol, k):
                parts = tracer.call("kernels.update_compute",
                                    panel_update_compute, factor, k, int(t))
                if parts is not None:
                    tracer.call("kernels.update_scatter",
                                panel_update_scatter, factor, int(t), parts)
    if structure is None:
        structure = _structure_metrics(symbol, dag, cache, factor, wl, dtype)
    m.update(structure)
    del factor

    # -- the two drivers, untraced, then the pool with its own trace ---
    layer("core.factorize_sequential", factorize_sequential, symbol,
          permuted, ft)
    layer("runtime.factorize_w1", factorize_threaded, symbol, permuted, ft,
          n_workers=1)
    factor = layer("runtime.factorize_w2", factorize_threaded, symbol,
                   permuted, ft, n_workers=2)
    trace_w1, trace_w2 = ExecutionTrace(), ExecutionTrace()
    layer("runtime.factorize_w1_traced", factorize_threaded, symbol, permuted,
          ft, n_workers=1, trace=trace_w1, record_sync=True)
    layer("runtime.factorize_w2_traced", factorize_threaded, symbol, permuted,
          ft, n_workers=2, trace=trace_w2, record_sync=True)

    # -- solves on the w2 factor --------------------------------------
    pb = perm.apply_to_vector(inp.b)
    px = layer("core.solve_factored", solve_factored, factor, pb)
    ops.check_solution(inp.a_scipy, perm.undo_on_vector(px), inp.b)
    b1 = inp.b if inp.b.ndim == 1 else np.ascontiguousarray(inp.b[:, 0])
    px1 = layer("runtime.solve_threaded", solve_threaded, factor,
                perm.apply_to_vector(b1), n_workers=2)
    ops.check_solution(inp.a_scipy, perm.undo_on_vector(px1), b1)

    def raw_solve(rhs):
        # What SparseSolver runs under its refinement loop.
        prhs = perm.apply_to_vector(np.asarray(rhs, dtype=factor.dtype))
        if wl.runtime == "threaded" and prhs.ndim == 1:
            out = solve_threaded(factor, prhs, n_workers=wl.n_workers)
        else:
            out = solve_factored(factor, prhs)
        return perm.undo_on_vector(out)

    # The refinement loop around it, as SparseSolver.solve runs it; the
    # raw solves are child spans, so the loop's self time is refinement.
    defaults = SolverOptions()
    ops.attempted += 1
    with tracer.span("core.solve_refined") as refine:
        refined = iterative_refinement(
            matrix, lambda rhs: tracer.call("core.solve_raw", raw_solve, rhs),
            inp.b, tol=defaults.refine_tol, max_iter=defaults.refine_max_iter,
        )
    ops.check_solution(inp.a_scipy, refined.x, inp.b)

    # -- this round's numbers -----------------------------------------
    for name in ("sparse.symmetrize", "sparse.permute", "sparse.matvec",
                 "ordering.nd", "symbolic.symbolic",
                 "kernels.couple_cache_build", "dag.build", "dag.solve_build",
                 "core.assemble", "kernels.panel_factorize",
                 "kernels.update_compute", "kernels.update_scatter",
                 "core.factorize_sequential", "runtime.factorize_w1",
                 "runtime.factorize_w2", "core.solve_factored",
                 "runtime.solve_threaded"):
        m[name + "_s"] = tracer.total(name)
    kernel_s = sum(tracer.total(name) for name in KERNEL_SPANS)
    m["kernels.n_panel"] = tracer.count("kernels.panel_factorize")
    m["kernels.n_update"] = tracer.count("kernels.update_compute")
    m["kernels.loop_s"] = tracer.duration(loop)
    m["bench.driver_overhead_s"] = tracer.self_time(loop)
    m["kernels.gemm_calib_gflops"] = inp.gemm_calib_gflops
    m["kernels.efficiency"] = (
        m["kernels.flops"] / kernel_s / 1e9 / inp.gemm_calib_gflops
    )

    w1, w2 = m["runtime.factorize_w1_s"], m["runtime.factorize_w2_s"]
    m["runtime.pool_overhead_s"] = w1 - m["core.factorize_sequential_s"]
    m["runtime.per_task_overhead_us"] = (w1 - kernel_s) / dag.n_tasks * 1e6
    m["runtime.speedup_w2"] = w1 / w2
    busy_w1 = sum(trace_w1.busy_time().values())
    busy_w2 = sum(trace_w2.busy_time().values())
    sync = trace_w2.meta["sync_stats"]
    m["runtime.task_busy_s"] = busy_w2
    m["runtime.busy_inflation"] = busy_w2 / busy_w1
    m["runtime.idle_s"] = 2 * trace_w2.makespan - busy_w2
    m["runtime.lock_wait_s"] = sync["lock_wait_s"]
    m["runtime.lock_held_s"] = sync["lock_held_s"]
    m["runtime.parks"] = sync["counts"].get("park", 0)
    m["runtime.steals"] = sync["counts"].get("steal", 0)
    m["runtime.trace_overhead_frac"] = (
        tracer.total("runtime.factorize_w2_traced") - w2
    ) / w2

    m["core.solve_refined_s"] = tracer.duration(refine)
    m["core.refine_s"] = tracer.self_time(refine)
    m["core.refine_iterations"] = refined.iterations
    m["core.backward_error_max"] = ops.backward_error_max
    return m, structure


def run_rounds(wl: Workload, inp: Inputs, ops: Ops, seconds: float,
               min_rounds: int) -> tuple[dict, Tracer]:
    """Rounds until ``seconds`` have passed and ``min_rounds`` are done.

    Returns the samples per metric and the last round's tracer.  A layer
    call that raises counts as one failed operation and ends the pass.
    """
    samples: dict[str, list[float]] = {}
    structure = None
    tracer = Tracer()
    begin = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - begin < seconds:
        rounds += 1
        gc.collect()
        tracer = Tracer()
        try:
            m, structure = _one_round(wl, inp, ops, tracer, structure)
        except Exception as exc:  # boundary: the benchmark must report it
            ops.failed += 1
            ops.errors.append(f"traced round {rounds}: {exc!r}")
            break
        for key, val in m.items():
            samples.setdefault(key, []).append(float(val))
    return samples, tracer


def account(wl: Workload, med: dict) -> dict:
    """Does the traced pass account for the untraced one?

    Per phase: the sum of the layer spans that make it up, the untraced
    phase time from the same rounds, and their ratio.
    """
    factorize = med["sparse.permute_s"] + med["kernels.couple_cache_build_s"]
    if wl.runtime == "threaded":
        # Seen from outside, the pool run is one call (it assembles and
        # builds its DAG inside).
        factorize += med["runtime.factorize_w2_s"]
    else:
        factorize += med["core.assemble_s"] + med["kernels.loop_s"]
    rows = {
        "analyze": (med["ordering.nd_s"] + med["symbolic.symbolic_s"],
                    med["core.analyze_s"]),
        "factorize": (factorize, med["core.factorize_s"]),
        "first_solve": (med["core.solve_refined_s"],
                        med["core.first_solve_s"]),
    }
    return {
        phase: {"layers_s": layers, "untraced_s": untraced,
                "ratio": layers / untraced}
        for phase, (layers, untraced) in rows.items()
    }
