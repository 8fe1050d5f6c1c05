"""Wall-clock benchmark of the *real* threaded runtime's schedulers.

Where ``bench_fig2_cpu_scaling.py`` reproduces the paper's Fig. 2 on the
simulated machine, this sweep runs the same scheduler-policy comparison
on live threads: ``scheduler x n_workers x matrix`` cells, each a real
:func:`repro.runtime.threaded.factorize_threaded` call timed on
wall-clock.  Results go to ``results/BENCH_threaded.json`` — the
committed copy of that file is the baseline ``perf_compare.py`` gates
regressions against (``make perf-smoke``).

Besides wall seconds, every cell records a **deterministic replay
makespan**: the order the real run started tasks in is list-scheduled
onto ``n_workers`` virtual workers with flops-proportional durations,
honouring DAG dependencies.  The replay isolates *schedule quality*
(the order a policy releases work in) from machine speed, BLAS jitter
and GIL-placement accidents — it is what lets the regression gate catch
a mis-prioritized scheduler even on a noisy or differently-sized host,
and what shows the scheduling headroom on boxes with too few cores to
measure a wall-clock gap.  The faithful per-worker placement replay is
kept alongside as ``model_placement_s`` (informational, not gated).

Every (matrix, scheduler, workers) cell is measured in three
**variants** — a ladder where each rung keeps the previous one's knobs
and adds its own:

* ``base`` — the uncached hot path (``index_cache=False``, no fan-in
  accumulation, no DLᵀ buffer): every update re-derives its scatter
  maps, and LDLᵀ recomputes ``L·D`` per couple.  Its replay durations
  charge each update the modelled index-work overhead
  (:func:`repro.kernels.cost.index_overhead_flops`) on top of its GEMM
  flops, and its DAG carries the ``recompute_ld`` LDLᵀ counts;
* ``opt`` — the cached + accumulated path (``index_cache=True``,
  ``accumulate=True``, ``dl_buffer=True``): pure GEMM flops, reduced
  LDLᵀ counts;
* ``compiled`` — opt's knobs plus ``kernels="compiled"`` (the numba
  fused update/merge/gather backend of :mod:`repro.kernels.compiled`,
  degrading to the bit-identical numpy path when numba is absent) and
  the 2D tall-panel row split (``build_dag(split_rows=SPLIT_ROWS)``),
  so one tall couple yields several independent update tasks.  Its
  replay DAG is built with the same ``split_rows`` so replay task ids
  match the traced run.

Every cell runs the **2D couple DAG** (``granularity="2d"``, requested
explicitly): the sweep compares scheduler policies and the ladder's
knobs — fan-in accumulation, the row split — are defined on update
couples, so mixing in the runtime's default (the lock-free unit DAG,
a few tasks per worker, on which every policy degenerates to the same
order) would compare granularities, not schedulers.  What the default
costs end to end is ``benchmarks/e2e``'s job.

``perf_compare.py --gate-variants`` asserts each rung never falls
behind the one below it (``opt`` vs ``base``, ``compiled`` vs ``opt``)
within one report — the regression gate for this repo's hot-path
optimizations.

The ``adaptive`` cells exercise the measured-history scheduler
(``repro.runtime.adaptive``): one :class:`PerfHistory` instance, seeded
from the committed ``results/`` corpus, is shared across a cell's
repeats so later repeats rank from the durations earlier ones fed back.
``perf_compare.py --gate-adaptive`` asserts the adaptive replay
makespan never loses to the static ``priority`` ranking it refines.

``--mis-prioritize`` is fault injection for the gate's self-test: the
``priority`` cells silently run the inverse (anti-critical-path)
scheduler while still reporting themselves as ``priority``; ``make
selftest`` asserts ``perf_compare.py`` flags the resulting regression.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    StageTimer,
    analyzed,
    format_table,
    matrix_dtype,
    matrix_factotype,
    standard_parser,
    write_bench_json,
)
from repro.dag.analysis import critical_path
from repro.kernels.cost import flops_total, index_overhead_flops
from repro.runtime.scheduling import get_thread_scheduler
from repro.runtime.threaded import factorize_threaded
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.collection import load_matrix

#: Schedulers every sweep covers: the legacy global-FIFO baseline, the
#: three paper twins (PaStiX work stealing, dmda critical path, PaRSEC
#: last-panel affinity), and the history-driven ``adaptive`` ranking
#: (dmda's measured-model loop; see ``repro.runtime.adaptive``).
SCHEDULERS = ["fifo", "ws", "priority", "affinity", "adaptive"]

#: Hot-path variants: the uncached baseline, the cached+accumulated
#: optimized path, and the compiled-kernel + 2D-row-split path (see
#: module docstring).
VARIANTS = ["base", "opt", "compiled"]

#: Row-block threshold of the ``compiled`` variant's 2D split: couples
#: taller than this are carved into independent update parts.  Matches
#: the order of magnitude ``suggest_blocking`` derives from measured
#: rates at the default task-size target on the committed corpus.
SPLIT_ROWS = 128

#: Replay rate (flops/s).  Arbitrary: only *ratios* of replay makespans
#: are ever compared, and a fixed constant keeps them machine-free.
REPLAY_RATE = 1e9

DEFAULT_MATRICES = ["afshell10", "audi", "Serena"]
DEFAULT_WORKERS = [1, 2, 4, 8]
QUICK_MATRICES = ["audi"]
QUICK_WORKERS = [4]


def calibrate(n: int = 384, repeats: int = 10) -> float:
    """GFlop/s of one fixed seeded dense GEMM — a machine-speed yardstick.

    ``perf_compare.py`` multiplies wall seconds by the producing run's
    calibration so baselines from differently-fast hosts stay
    comparable (perfectly so for BLAS-bound cells, approximately
    otherwise).  One warmup call is discarded (cold BLAS init skews the
    first GEMM by ~2x) and the best of ``repeats`` is kept; measured
    spread of the best-of-10 on a busy single-core box is ~3%.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def replay_makespan(dag, trace: ExecutionTrace, n_workers: int,
                    rate: float = REPLAY_RATE,
                    costs: np.ndarray | None = None) -> float:
    """Deterministic makespan of the executed task *order*.

    Greedy list-schedule: tasks are taken in the order the real run
    started them and placed on the earliest-free of ``n_workers``
    virtual workers, with flops-proportional durations and DAG edges
    honoured.  Measuring order rather than the executed placement keeps
    the metric stable across hosts — on a box with fewer physical cores
    than workers the GIL makes *placement* an accident of preemption
    timing, but the order a scheduler releases work in is exactly the
    thing a priority/stealing policy controls.  Processing events in
    wall-clock start order is safe because the real execution already
    respected the dependencies.

    ``costs`` overrides the per-task durations (default ``dag.flops``) —
    the ``base`` variant charges updates their index-work overhead here.
    """
    w_task = dag.flops if costs is None else costs
    end_model = np.zeros(dag.n_tasks)
    free = [0.0] * max(1, int(n_workers))
    for e in trace.sorted_events():
        dur = max(float(w_task[e.task]), 1.0) / rate
        w = min(range(len(free)), key=free.__getitem__)
        t_start = free[w]
        preds = dag.predecessors(int(e.task))
        if preds.size:
            t_start = max(t_start, float(end_model[preds].max()))
        end_model[e.task] = t_start + dur
        free[w] = end_model[e.task]
    return float(end_model.max()) if dag.n_tasks else 0.0


def replay_placement_makespan(dag, trace: ExecutionTrace,
                              rate: float = REPLAY_RATE,
                              costs: np.ndarray | None = None) -> float:
    """Deterministic makespan of the executed schedule *as placed*.

    Like :func:`replay_makespan` but each task replays on the worker
    that really ran it.  Faithful to the run, and therefore sensitive to
    GIL-placement accidents on undersized hosts — recorded for analysis
    (``model_placement_s``) but not gated by ``perf_compare.py``.
    """
    w_task = dag.flops if costs is None else costs
    end_model = np.zeros(dag.n_tasks)
    worker_free: dict[str, float] = {}
    for e in trace.sorted_events():
        dur = max(float(w_task[e.task]), 1.0) / rate
        t_start = worker_free.get(e.resource, 0.0)
        preds = dag.predecessors(int(e.task))
        if preds.size:
            t_start = max(t_start, float(end_model[preds].max()))
        end_model[e.task] = t_start + dur
        worker_free[e.resource] = end_model[e.task]
    return float(end_model.max()) if dag.n_tasks else 0.0


def run_cell(
    name: str,
    scheduler: str,
    n_workers: int,
    *,
    scale: float = 1.0,
    repeats: int = 2,
    variant: str = "opt",
    mis_prioritize: bool = False,
    verify: bool = False,
) -> dict:
    """Measure one (matrix, scheduler, n_workers, variant) cell.

    Wall seconds and the replay makespan are each the minimum over
    ``repeats`` runs (minimum is the standard noise-robust pick); the
    best-order run also supplies the placement replay and trace stats.

    ``variant="base"`` runs the uncached hot path and replays with the
    index-work overhead added to every update task's cost (on the
    ``recompute_ld`` LDLᵀ DAG); ``variant="opt"`` runs cached +
    accumulated + DLᵀ-buffered and replays pure GEMM costs;
    ``variant="compiled"`` adds ``kernels="compiled"`` and the 2D row
    split (``SPLIT_ROWS``) on top of opt's knobs — its replay DAG is
    built with the same split so replay task ids match the trace.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    opt = variant != "base"
    compiled = variant == "compiled"
    split = SPLIT_ROWS if compiled else None
    res = analyzed(name, scale)
    permuted = load_matrix(name, scale=scale).permute(res.perm.perm)
    ft = matrix_factotype(name)
    dt = matrix_dtype(name)
    flops = flops_total(res.symbol, ft, dt)

    from repro.dag import build_dag

    dag = build_dag(res.symbol, ft, granularity="2d", dtype=dt,
                    recompute_ld=not opt, split_rows=split)
    costs = dag.flops if opt else dag.flops + index_overhead_flops(dag)

    effective = scheduler
    if mis_prioritize and scheduler == "priority":
        effective = "inverse-priority"

    # The adaptive cells share ONE duration model across repeats,
    # seeded from the committed corpus: repeat 1 ranks from the seeded
    # global rate, later repeats from the durations repeat 1 fed back —
    # the measured-history loop this scheduler exists to close.
    history = None
    if effective == "adaptive":
        from repro.runtime.adaptive import DEFAULT_RESULTS, PerfHistory

        history = PerfHistory()
        history.seed_from_results(DEFAULT_RESULTS)

    best_wall = float("inf")
    best_model = float("inf")
    best_trace = None
    best_stats: dict = {}
    for _ in range(max(1, repeats)):
        if history is not None:
            from repro.runtime.adaptive import AdaptiveScheduler

            sched = AdaptiveScheduler(history=history)
        else:
            sched = get_thread_scheduler(effective)
        trace = ExecutionTrace()
        t0 = time.perf_counter()
        factor = factorize_threaded(
            res.symbol, permuted, ft, n_workers=n_workers, dtype=dt,
            trace=trace, scheduler=sched,
            index_cache=opt, accumulate=opt, dl_buffer=opt,
            kernels="compiled" if compiled else "numpy",
            split_rows=split,
            record_sync=verify,
            granularity="2d",
        )
        wall = time.perf_counter() - t0
        del factor
        best_wall = min(best_wall, wall)
        if verify:
            # C7xx happens-before audit on *every* traced run (not just
            # the best one): a race is a bug whichever repeat it bit.
            from repro.verify.concurrency import verify_concurrency

            crep = verify_concurrency(dag, trace)
            if not crep.ok:
                raise RuntimeError(
                    f"{name}/{scheduler} x{n_workers} [{variant}] "
                    "failed the concurrency audit:\n" + crep.format()
                )
        model = replay_makespan(dag, trace, n_workers, costs=costs)
        if model < best_model:
            best_model = model
            best_trace = trace
            best_stats = sched.stats()

    cell = {
        "matrix": name,
        "scheduler": scheduler,
        "n_workers": n_workers,
        "scale": scale,
        "variant": variant,
        "wall_s": best_wall,
        "gflops": flops / best_wall / 1e9,
        "model_makespan_s": best_model,
        "model_placement_s":
            replay_placement_makespan(dag, best_trace, costs=costs),
        "model_cp_s": critical_path(dag, weights=costs)[0] / REPLAY_RATE,
        "n_tasks": dag.n_tasks,
        "flops": flops,
        # Effective backend (trace meta: "compiled" only when numba is
        # importable) and the 2D split threshold, if any.
        "kernels": best_trace.meta.get("kernels", "numpy"),
        "split_rows": split,
    }
    cell.update(best_stats)
    if verify:
        from repro.verify import verify_schedule

        rep = verify_schedule(
            dag, best_trace, exclusive_resources=[],
            check_mutex=False, tol=1e-5,
        )
        if not rep.ok:
            raise RuntimeError(
                f"{name}/{scheduler} produced a dirty trace:\n"
                + rep.format()
            )
        cell["verified"] = True
        # Wall-clock trace: the fingerprint covers the task set and
        # fault/recovery decisions only (meta["clock"] == "wall"), so
        # same-seed reruns of the report remain comparable.
        cell["fingerprint"] = best_trace.fingerprint()
    return cell


def summarize(cells: list[dict]) -> list[dict]:
    """Per (matrix, n_workers, variant): scheduler speedup over fifo."""
    base = {
        (c["matrix"], c["n_workers"], c.get("variant", "base")): c
        for c in cells if c["scheduler"] == "fifo"
    }
    out = []
    for c in cells:
        if c["scheduler"] == "fifo":
            continue
        ref = base.get(
            (c["matrix"], c["n_workers"], c.get("variant", "base"))
        )
        if ref is None:
            continue
        out.append({
            "matrix": c["matrix"],
            "n_workers": c["n_workers"],
            "scheduler": c["scheduler"],
            "variant": c.get("variant", "base"),
            "wall_speedup_vs_fifo": ref["wall_s"] / c["wall_s"],
            "model_speedup_vs_fifo":
                ref["model_makespan_s"] / c["model_makespan_s"],
        })
    return out


#: The variant ladder's gated rungs: each (variant, reference) pair
#: must satisfy variant <= reference.  Mirrored by
#: ``perf_compare.VARIANT_PAIRS``.
VARIANT_PAIRS = (("opt", "base"), ("compiled", "opt"))


def summarize_variants(cells: list[dict]) -> list[dict]:
    """Per (matrix, n_workers, scheduler): each ladder rung's speedup.

    One row per ``VARIANT_PAIRS`` entry with a sibling cell present —
    the ratios ``perf_compare.py --gate-variants`` checks, printed here
    so a plain bench run already shows whether each rung pays off.
    """
    by_variant: dict[str, dict] = {}
    for c in cells:
        key = (c["matrix"], c["n_workers"], c["scheduler"],
               c.get("variant", "base"))
        by_variant[key] = c
    out = []
    for var, ref_var in VARIANT_PAIRS:
        for key, c in by_variant.items():
            if key[-1] != var:
                continue
            ref = by_variant.get(key[:-1] + (ref_var,))
            if ref is None:
                continue
            out.append({
                "matrix": c["matrix"],
                "n_workers": c["n_workers"],
                "scheduler": c["scheduler"],
                "pair": f"{var}/{ref_var}",
                "wall_speedup": ref["wall_s"] / c["wall_s"],
                "model_speedup":
                    ref["model_makespan_s"] / c["model_makespan_s"],
            })
    return out


def main(argv=None) -> int:
    p = standard_parser(__doc__.splitlines()[0])
    p.add_argument("--workers", type=int, nargs="*", default=None,
                   help=f"worker counts to sweep (default {DEFAULT_WORKERS})")
    p.add_argument("--schedulers", nargs="*", default=None,
                   choices=SCHEDULERS,
                   help=f"schedulers to sweep (default {SCHEDULERS})")
    p.add_argument("--repeats", type=int, default=None,
                   help="wall-clock repetitions per cell (keeps the min)")
    p.add_argument("--quick", action="store_true",
                   help="small subset for the perf-smoke gate: "
                        f"{QUICK_MATRICES} x workers {QUICK_WORKERS}")
    p.add_argument("--out", default=None,
                   help="write the JSON report here instead of "
                        "results/BENCH_threaded.json")
    p.add_argument("--variants", nargs="*", default=None,
                   choices=VARIANTS,
                   help="hot-path variants to sweep (default all: "
                        f"{VARIANTS})")
    p.add_argument("--mis-prioritize", action="store_true",
                   help="FAULT INJECTION: run 'priority' cells with the "
                        "inverse (anti-critical-path) heap while "
                        "reporting them as 'priority' — exists so make "
                        "selftest can prove perf_compare.py catches a "
                        "wrecked schedule")
    args = p.parse_args(argv)

    matrices = args.matrices or (
        QUICK_MATRICES if args.quick else DEFAULT_MATRICES
    )
    workers = args.workers or (
        QUICK_WORKERS if args.quick else DEFAULT_WORKERS
    )
    schedulers = args.schedulers or SCHEDULERS
    variants = args.variants or VARIANTS
    repeats = args.repeats or (2 if args.quick else 3)

    if args.mis_prioritize:
        print("WARNING: --mis-prioritize active; 'priority' cells run "
              "the inverse heap (gate self-test mode)", file=sys.stderr)

    timer = StageTimer()
    calib = calibrate()
    timer.note(f"calibration: {calib:.2f} GFlop/s dense GEMM")

    cells = []
    for name in matrices:
        for nw in workers:
            for sched in schedulers:
                for var in variants:
                    cells.append(run_cell(
                        name, sched, nw, scale=args.scale,
                        repeats=repeats, variant=var,
                        mis_prioritize=args.mis_prioritize,
                        verify=args.verify,
                    ))
                    c = cells[-1]
                    timer.note(
                        f"{name} x{nw} {sched} [{var}]: "
                        f"{c['wall_s']:.3f}s wall, "
                        f"{c['model_makespan_s']:.4f}s model"
                    )

    headers = ["matrix", "workers", "scheduler", "variant", "wall_s",
               "gflops", "model_s", "model_cp_s"]
    rows = [
        [c["matrix"], c["n_workers"], c["scheduler"], c["variant"],
         f"{c['wall_s']:.3f}", f"{c['gflops']:.2f}",
         f"{c['model_makespan_s']:.4f}", f"{c['model_cp_s']:.4f}"]
        for c in cells
    ]
    print(format_table(headers, rows))

    summary = summarize(cells)
    if summary:
        print()
        print(format_table(
            ["matrix", "workers", "scheduler", "variant",
             "wall_speedup", "model_speedup"],
            [[s["matrix"], s["n_workers"], s["scheduler"], s["variant"],
              f"{s['wall_speedup_vs_fifo']:.2f}x",
              f"{s['model_speedup_vs_fifo']:.2f}x"] for s in summary],
        ))

    variant_summary = summarize_variants(cells)
    if variant_summary:
        print()
        print(format_table(
            ["matrix", "workers", "scheduler", "pair",
             "wall_speedup", "model_speedup"],
            [[s["matrix"], s["n_workers"], s["scheduler"], s["pair"],
              f"{s['wall_speedup']:.2f}x",
              f"{s['model_speedup']:.2f}x"]
             for s in variant_summary],
        ))

    import os

    payload = {
        "bench": "threaded",
        "schema_version": 3,
        "quick": bool(args.quick),
        "n_cores": os.cpu_count(),
        "calib_gflops": calib,
        "replay_rate": REPLAY_RATE,
        "cells": cells,
        "summary": summary,
        "variant_summary": variant_summary,
    }
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        out_path = write_bench_json("threaded", payload)
    timer.note(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
