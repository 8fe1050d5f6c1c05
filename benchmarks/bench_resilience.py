"""Extension bench — factorization under injected faults.

Not a paper figure: the paper argues that delegating scheduling to a
generic runtime also delegates *robustness* concerns.  This bench
quantifies what the resilience layer (:mod:`repro.resilience`) costs:

* a fault-rate sweep (task + transfer fault probability 0 → 10%) per
  scheduler policy, reporting makespan inflation over the fault-free
  run, faults injected, tasks re-executed, and bytes retransmitted;
* ``--chaos``: a deterministic fault matrix (worker crash, GPU loss,
  transfer failures, limplock) x (native, starpu, parsec) where every
  cell must complete all tasks and — with ``--verify`` — produce a
  trace that is clean under the R6xx resilience auditor, the S2xx
  schedule verifier, and (limplock cells) the R7xx degradation
  auditor.  The chaos run ends with a hedging A/B: the same limplock
  scenario with health monitoring armed, hedging off vs on, and the
  bench *asserts* (not eyeballs) that hedging shortens the makespan.

Run ``python benchmarks/bench_resilience.py [--chaos] [--verify]``.
Results land in ``results/BENCH_resilience.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import format_table, write_bench_json, write_csv

from repro.dag import build_dag
from repro.machine import mirage, simulate
from repro.resilience import (
    FaultModel,
    FaultSpec,
    HealthPolicy,
    RecoveryPolicy,
)
from repro.runtime import get_policy
from repro.sparse.generators import grid_laplacian_2d
from repro.symbolic import SymbolicOptions, analyze

POLICIES = ("native", "starpu", "parsec")
FAULT_RATES = (0.0, 0.02, 0.05, 0.1)
CHAOS_KINDS = ("worker-crash", "gpu-loss", "transfer-fail", "limplock")


def _policy(name: str):
    # Low offload threshold so the bench problem exercises the GPU fault
    # paths; the native policy is CPU-only and takes no threshold.
    if name == "native":
        return get_policy(name)
    return get_policy(name, gpu_flops_threshold=1e3)


def _setup(grid: int, split: int):
    matrix = grid_laplacian_2d(grid, jitter=0.05, seed=0)
    res = analyze(matrix, SymbolicOptions(split_max_width=split))
    # 4 cores vs 2 GPUs: small enough a CPU pool that both cost-model
    # schedulers actually offload the bench problem, so transfer and
    # device-loss fault paths carry real traffic.
    machine = mirage(n_cores=4, n_gpus=2, streams_per_gpu=2)
    return res.symbol, machine


def _dag_for(symbol, name: str):
    pol = _policy(name)
    return pol, build_dag(
        symbol, "llt",
        granularity=pol.traits.granularity,
        recompute_ld=pol.traits.recompute_ld,
    )


def _check_trace(name: str, label: str, dag, result, *,
                 health: bool = False) -> None:
    from repro.verify import verify_health, verify_resilience, verify_schedule

    if len(result.trace.events) != dag.n_tasks:
        raise RuntimeError(
            f"{name}/{label}: {len(result.trace.events)} of "
            f"{dag.n_tasks} tasks completed"
        )
    reps = [verify_resilience(result.trace),
            verify_schedule(dag, result.trace)]
    if health:
        reps.append(verify_health(result.trace))
    for rep in reps:
        if not rep.ok:
            raise RuntimeError(
                f"{name}/{label} produced a dirty trace:\n" + rep.format()
            )


# ----------------------------------------------------------------------
# fault-rate sweep
# ----------------------------------------------------------------------
def sweep_rows(grid: int, split: int, seed: int, verify: bool):
    symbol, machine = _setup(grid, split)
    rows, cells = [], []
    for name in POLICIES:
        baseline = None
        for rate in FAULT_RATES:
            pol, dag = _dag_for(symbol, name)
            if rate == 0.0:
                r = simulate(dag, machine, pol, collect_trace=True)
                baseline = r.makespan
            else:
                faults = FaultModel(
                    seed=seed, task_fail_rate=rate,
                    transfer_fail_rate=rate, straggler_rate=rate / 2,
                )
                # A generous retry budget: at a 10% fault rate a task
                # losing 4 consecutive coin flips is expected in a sweep
                # this size, and the sweep measures cost, not budgets.
                r = simulate(dag, machine, pol, faults=faults,
                             recovery=RecoveryPolicy(max_retries=8),
                             collect_trace=True)
            if verify:
                _check_trace(name, f"rate={rate:g}", dag, r)
            inflation = r.makespan / baseline if baseline else float("nan")
            rows.append([
                name, f"{rate:.2f}", f"{r.makespan * 1e3:.3f}",
                f"{inflation:.3f}", r.n_faults, r.n_reexecuted,
                f"{r.bytes_retransferred / 1e6:.3f}",
            ])
            cells.append({
                "policy": name,
                "fault_rate": rate,
                "makespan_s": r.makespan,
                "makespan_inflation": inflation,
                "n_faults": r.n_faults,
                "n_reexecuted": r.n_reexecuted,
                "bytes_retransferred": r.bytes_retransferred,
                "gflops": r.gflops,
                "verified": verify,
            })
    return rows, cells


SWEEP_HEADERS = ["policy", "rate", "makespan (ms)", "inflation",
                 "faults", "re-exec", "MB resent"]


# ----------------------------------------------------------------------
# chaos matrix
# ----------------------------------------------------------------------
def _chaos_faults(kind: str, seed: int, horizon: float) -> FaultModel:
    if kind == "worker-crash":
        # One crash only: starpu's dedicated-GPU-worker trait leaves a
        # 2-worker CPU pool on this machine, and losing every CPU
        # worker is (correctly) unrecoverable.
        specs = [FaultSpec("worker-crash", time=0.0, resource=0)]
        return FaultModel(specs, seed=seed, task_fail_rate=0.01)
    if kind == "gpu-loss":
        specs = [FaultSpec("gpu-loss", time=0.25 * horizon, resource=0)]
        return FaultModel(specs, seed=seed)
    if kind == "limplock":
        # Persistent 50x slowdown of CPU worker 0 from 10% of the clean
        # makespan on: not a crash, so nothing re-executes — the health
        # monitor has to notice and route around it.
        specs = [FaultSpec("limplock", time=0.1 * horizon, resource=0,
                           factor=50.0)]
        return FaultModel(specs, seed=seed)
    specs = [FaultSpec("transfer-fail", time=0.0)]
    return FaultModel(specs, seed=seed, transfer_fail_rate=0.05)


def _health_policy(horizon: float, hedge: bool) -> HealthPolicy:
    return HealthPolicy(
        min_samples=3, suspect_ratio=2.0, degraded_ratio=4.0,
        quarantine_ratio=3.0, quarantine_s=0.6 * horizon,
        hedge=hedge, hedge_ratio=3.0,
    )


def chaos_rows(grid: int, split: int, seed: int, verify: bool):
    symbol, machine = _setup(grid, split)
    rows, cells = [], []
    for kind in CHAOS_KINDS:
        for name in POLICIES:
            pol, dag = _dag_for(symbol, name)
            clean = simulate(dag, machine, pol)
            faults = _chaos_faults(kind, seed, clean.makespan)
            health = (_health_policy(clean.makespan, hedge=True)
                      if kind == "limplock" else None)
            r = simulate(dag, machine, _policy(name), faults=faults,
                         recovery=RecoveryPolicy(), health=health,
                         collect_trace=True)
            label = f"chaos[{kind}]"
            if verify:
                _check_trace(name, label, dag, r,
                             health=health is not None)
            elif len(r.trace.events) != dag.n_tasks:
                raise RuntimeError(
                    f"{name}/{label}: {len(r.trace.events)} of "
                    f"{dag.n_tasks} tasks completed"
                )
            rows.append([
                kind, name, dag.n_tasks, r.n_faults, r.n_reexecuted,
                f"{r.makespan / clean.makespan:.3f}",
                "yes" if verify else "-",
            ])
            cells.append({
                "kind": kind,
                "policy": name,
                "n_tasks": dag.n_tasks,
                "n_faults": r.n_faults,
                "n_reexecuted": r.n_reexecuted,
                "makespan_inflation": r.makespan / clean.makespan,
                "bytes_retransferred": r.bytes_retransferred,
                "n_health_transitions": r.n_health_transitions,
                "n_hedges": r.n_hedges,
                "verified": verify,
            })
    return rows, cells


CHAOS_HEADERS = ["fault", "policy", "tasks", "faults", "re-exec",
                 "inflation", "verified"]


# ----------------------------------------------------------------------
# hedging A/B
# ----------------------------------------------------------------------
#: The A/B runs a pinned demonstration configuration instead of the
#: chaos machine: a CPU-only pool (the health monitor observes CPU
#: workers) at a scale where the limping worker's in-flight task binds
#: the critical path for the native schedule.  Whether hedging *wins*
#: depends on exactly that — a duplicate only shortens the makespan if
#: the stuck primary was on the critical path; otherwise hedging is a
#: small capacity tax.  The assertions below encode both halves.
HEDGE_GRID = 40
#: Hedging must never cost more than this factor over no-hedging.
HEDGE_HARM_BOUND = 1.02
#: And for the critical-path policy it must win by at least this much.
HEDGE_WIN_BOUND = 1.2


def hedge_rows(split: int, seed: int, verify: bool):
    """Limplock scenario, health monitoring armed, hedging off vs on.

    The simulator is deterministic, so the comparison is exact — the
    run *asserts* that hedging shortens the native-policy makespan by
    at least :data:`HEDGE_WIN_BOUND` and never inflates any policy's
    makespan beyond :data:`HEDGE_HARM_BOUND`."""
    matrix = grid_laplacian_2d(HEDGE_GRID, jitter=0.05, seed=0)
    symbol = analyze(matrix,
                     SymbolicOptions(split_max_width=split)).symbol
    machine = mirage(n_cores=4, n_gpus=0)
    rows, cells = [], []
    speedups = {}
    for name in POLICIES:
        pol, dag = _dag_for(symbol, name)
        clean = simulate(dag, machine, pol)
        mk = clean.makespan
        results = {}
        for hedge in (False, True):
            faults = _chaos_faults("limplock", seed, mk)
            r = simulate(dag, machine, _policy(name), faults=faults,
                         health=_health_policy(mk, hedge=hedge),
                         collect_trace=True)
            if verify:
                _check_trace(name, f"hedge={hedge}", dag, r, health=True)
            results[hedge] = r
        off, on = results[False], results[True]
        if on.n_hedges < 1:
            raise RuntimeError(
                f"{name}/hedge-ab: hedging armed but no duplicate "
                "launched — the scenario no longer exercises hedging"
            )
        speedup = off.makespan / on.makespan
        speedups[name] = speedup
        if speedup < 1.0 / HEDGE_HARM_BOUND:
            raise RuntimeError(
                f"{name}/hedge-ab: hedging inflates the makespan "
                f"{1.0 / speedup:.3f}x (harm bound {HEDGE_HARM_BOUND})"
            )
        rows.append([
            name, f"{off.makespan / mk:.3f}", f"{on.makespan / mk:.3f}",
            f"{speedup:.3f}", on.n_hedges, on.n_health_transitions,
            "yes" if verify else "-",
        ])
        cells.append({
            "policy": name,
            "clean_makespan_s": mk,
            "unhedged_inflation": off.makespan / mk,
            "hedged_inflation": on.makespan / mk,
            "hedge_speedup": speedup,
            "n_hedges": on.n_hedges,
            "n_health_transitions": on.n_health_transitions,
            "verified": verify,
        })
    if speedups["native"] <= 1.0:
        raise RuntimeError(
            f"native/hedge-ab: hedged makespan is not shorter "
            f"(speedup {speedups['native']:.3f})"
        )
    if max(speedups.values()) < HEDGE_WIN_BOUND:
        raise RuntimeError(
            f"hedge-ab: best speedup {max(speedups.values()):.3f} is "
            f"below the {HEDGE_WIN_BOUND} demonstration bound"
        )
    return rows, cells


HEDGE_HEADERS = ["policy", "no-hedge infl", "hedge infl", "speedup",
                 "hedges", "transitions", "verified"]


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    import argparse

    p = argparse.ArgumentParser(
        description="factorization under injected faults"
    )
    p.add_argument("--grid", type=int, default=48,
                   help="2-D Laplacian grid size (default 48)")
    p.add_argument("--split", type=int, default=32,
                   help="panel split width (default 32)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chaos", action="store_true",
                   help="run the fault-kind x policy chaos matrix "
                        "instead of the rate sweep")
    p.add_argument("--verify", action="store_true",
                   help="run the R6xx resilience auditor and the S2xx "
                        "schedule verifier on every faulted trace")
    args = p.parse_args(argv)

    payload = {"grid": args.grid, "split": args.split, "seed": args.seed}
    if args.chaos:
        rows, cells = chaos_rows(args.grid, args.split, args.seed,
                                 args.verify)
        print(format_table(CHAOS_HEADERS, rows))
        write_csv("resilience_chaos.csv", CHAOS_HEADERS, rows)
        payload["chaos"] = cells
        hrows, hcells = hedge_rows(args.split, args.seed, args.verify)
        print()
        print(format_table(HEDGE_HEADERS, hrows))
        write_csv("resilience_hedge.csv", HEDGE_HEADERS, hrows)
        payload["hedge_ab"] = hcells
    else:
        rows, cells = sweep_rows(args.grid, args.split, args.seed,
                                 args.verify)
        print(format_table(SWEEP_HEADERS, rows))
        write_csv("resilience_sweep.csv", SWEEP_HEADERS, rows)
        payload["sweep"] = cells
    path = write_bench_json("resilience", payload)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
