"""Driver behind ``python -m repro verify``.

Runs the static-analysis passes — DAG hazard coverage, simulated
schedule feasibility, the M4xx memory/data-movement audit, the N5xx
symbolic-structure audit, the R6xx resilience audit (a seeded
fault-injection run whose recovered trace must satisfy the fault/
recovery pairing rules *and* the schedule and memory audits), the R7xx
graceful-degradation audit (a seeded limplock run with health
monitoring and hedging armed, whose trace must satisfy the exactly-once
commit, legal-transition, quarantine-respect, and hedge-accounting
rules, plus a monitoring-off identity check), the C7xx concurrency
audit (a live sync-instrumented threaded factorization whose trace must
satisfy the publish-order, lost-wakeup and sync-provenance checks, plus
the RV4xx lock-discipline lint over the runtime sources), the D8xx
determinism audit (a seeded same-seed double-run of the machine
simulator and a kernel burst whose canonical trace fingerprints must
match bit-for-bit, with tie-break totality and RNG-draw provenance
checks on top), and the project linters (RV3xx plus the RV5xx
event-loop-discipline lint over the simulator sources) — on a chosen
matrix and prints one report per pass.  Exit status is 0 iff every
pass is clean, which is what the ``make verify`` gate and CI consume.

``--inject`` deliberately corrupts the artifact under test (drops a DAG
edge, an h2d transfer, a recovery event, or a sync event; overlaps two
trace events; breaks a mutex window; overflows device residency; skews
a task's flop count; records a completion twice; collapses a heap
tie-break; forges the replay RNG provenance; erases the sequence stamps; double-commits a hedged task;
dispatches onto a quarantined worker; forges an illegal health
transition) to demonstrate that the passes actually catch what they
claim to catch; an injected run is *expected* to exit non-zero.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.verify.report import Report

__all__ = ["run_verify", "add_verify_arguments"]

_GENERATORS = {
    "lap2d": ("grid_laplacian_2d", {"jitter": 0.05}),
    "lap3d": ("grid_laplacian_3d", {"jitter": 0.05}),
    "random": ("random_pattern_spd", {"locality": 0.4}),
    "elasticity": ("elasticity_like_3d", {}),
    "helmholtz": ("helmholtz_like_2d", {}),
    "shell": ("shell_like_2d", {}),
}

GRANULARITIES = ("2d", "1d", "1d-left", "subtree", "unit")


def add_verify_arguments(p: argparse.ArgumentParser) -> None:
    """Attach the ``verify`` subcommand's arguments to parser ``p``."""
    p.add_argument(
        "--matrix", default="lap2d",
        help="generator name (%s) or a MatrixMarket file path"
             % "/".join(sorted(_GENERATORS)),
    )
    p.add_argument("--size", type=int, default=20,
                   help="generator size parameter (default 20)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factotype", default="llt",
                   choices=["llt", "ldlt", "lu"])
    p.add_argument("--split", type=int, default=32,
                   help="panel split width for the symbolic step")
    p.add_argument("--granularity", default="all",
                   choices=("all",) + GRANULARITIES,
                   help="which DAG granularities the hazard pass covers")
    p.add_argument("--policy", default="parsec",
                   choices=["native", "starpu", "parsec", "all"],
                   help="scheduler policy for the schedule pass")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--gpus", type=int, default=1)
    p.add_argument("--streams", type=int, default=2)
    p.add_argument("--no-hazards", action="store_true")
    p.add_argument("--no-schedule", action="store_true")
    p.add_argument("--no-memory", action="store_true",
                   help="skip the M4xx data-movement audit")
    p.add_argument("--no-symbolic", action="store_true",
                   help="skip the N5xx symbolic-structure audit")
    p.add_argument("--no-resilience", action="store_true",
                   help="skip the R6xx fault-injection/recovery audit")
    p.add_argument("--no-health", action="store_true",
                   help="skip the R7xx graceful-degradation/hedging audit")
    p.add_argument("--no-concurrency", action="store_true",
                   help="skip the C7xx sync-trace / RV4xx "
                        "lock-discipline concurrency audit")
    p.add_argument("--no-determinism", action="store_true",
                   help="skip the D8xx same-seed replay/fingerprint "
                        "determinism audit")
    p.add_argument("--no-lint", action="store_true")
    p.add_argument("--redundant", action="store_true",
                   help="also report transitive (redundant) DAG edges")
    p.add_argument("--lint-path", default=None,
                   help="directory to lint (default: the repro package)")
    p.add_argument(
        "--inject", default="none",
        choices=["none", "drop-edge", "overlap-trace", "break-mutex",
                 "drop-transfer", "overflow-residency", "skew-flops",
                 "stale-cache", "drop-recovery", "double-complete",
                 "drop-sync-event",
                 "reorder-ties", "reseed-midrun", "drop-seq",
                 "double-commit-hedge", "steal-from-quarantined",
                 "illegal-transition"],
        help="fault injection self-test (expected to FAIL the run)",
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="also print info-severity findings")


def _load(args: argparse.Namespace) -> Any:
    from repro.sparse import generators
    from repro.sparse.io import read_matrix_market

    if args.matrix in _GENERATORS:
        fn_name, kw = _GENERATORS[args.matrix]
        fn = getattr(generators, fn_name)
        kw = dict(kw)
        if "seed" in fn.__code__.co_varnames:
            kw["seed"] = args.seed
        if args.matrix == "random":
            return fn(args.size, 6.0, **kw)
        return fn(args.size, **kw)
    if not Path(args.matrix).exists():
        raise SystemExit(
            f"--matrix {args.matrix!r} is neither a generator name "
            f"({'/'.join(sorted(_GENERATORS))}) nor an existing file"
        )
    return read_matrix_market(args.matrix)


def _hazard_pass(args: argparse.Namespace, symbol: Any,
                 reports: list[Report]) -> None:
    from repro.dag import build_dag
    from repro.verify.hazards import analyze_hazards, drop_edge

    grans = GRANULARITIES if args.granularity == "all" else (args.granularity,)
    injected = args.inject == "drop-edge"
    for gran in grans:
        if gran == "subtree":
            dag = build_dag(symbol, args.factotype,
                            fuse_subtree_flops=1e5)
        else:
            dag = build_dag(symbol, args.factotype, granularity=gran)
        label = gran
        if injected and dag.n_edges:
            rng = np.random.default_rng(args.seed)
            dag = drop_edge(dag, int(rng.integers(dag.n_edges)))
            label += "+drop-edge"
        t0 = time.perf_counter()
        rep = analyze_hazards(dag, find_redundant=args.redundant)
        rep.name = f"hazards[{label}]"
        rep.stats["seconds"] = time.perf_counter() - t0
        reports.append(rep)


def _schedule_pass(args: argparse.Namespace, symbol: Any,
                   reports: list[Report]) -> None:
    from repro.dag import build_dag
    from repro.machine import mirage, simulate
    from repro.runtime import get_policy
    from repro.runtime.tracing import ExecutionTrace, TraceEvent
    from repro.verify.memory import (
        drop_transfer,
        overflow_residency,
        verify_memory,
    )
    from repro.verify.schedule import verify_schedule

    policies = (
        ["native", "starpu", "parsec"] if args.policy == "all"
        else [args.policy]
    )
    machine = mirage(
        n_cores=args.cores, n_gpus=args.gpus,
        streams_per_gpu=args.streams if args.gpus else 1,
    )
    memory_inject = args.inject in ("drop-transfer", "overflow-residency")
    if memory_inject and args.gpus < 1:
        raise SystemExit(f"--inject {args.inject} needs at least one GPU")
    for name in policies:
        if memory_inject:
            # Force GPU offload so the trace has transfers to corrupt —
            # the default thresholds keep small test problems CPU-only.
            pol = get_policy(name, gpu_flops_threshold=1e3)
        else:
            pol = get_policy(name)
        dag = build_dag(
            symbol, args.factotype,
            granularity=pol.traits.granularity,
            recompute_ld=pol.traits.recompute_ld,
        )
        r = simulate(dag, machine, pol)
        trace = r.trace
        label = name
        if args.inject == "overlap-trace" and len(trace.events) >= 2:
            # Shift the second event of the busiest CPU back onto the
            # first — a textbook double-booking of one worker.
            by_res = trace.events_by_resource()
            cpu = max(
                (res for res in by_res if res.startswith("cpu")),
                key=lambda res: len(by_res[res]), default=None,
            )
            if cpu and len(by_res[cpu]) >= 2:
                a, b = by_res[cpu][0], by_res[cpu][1]
                moved = TraceEvent(b.task, b.resource,
                                   a.start + 0.25 * a.duration,
                                   a.start + 0.25 * a.duration + b.duration)
                trace = ExecutionTrace(
                    events=[moved if e is b else e for e in trace.events],
                    transfers=trace.transfers,
                )
                label += "+overlap-trace"
        elif args.inject == "break-mutex":
            # Start every update of one mutex group at the same instant.
            groups = {}
            for e in trace.events:
                g = int(dag.mutex[e.task])
                if g >= 0:
                    groups.setdefault(g, []).append(e)
            big = max(groups.values(), key=len, default=[])
            if len(big) >= 2:
                t0 = min(e.start for e in big)
                clones = {e.task: TraceEvent(e.task, e.resource, t0,
                                             t0 + e.duration)
                          for e in big}
                trace = ExecutionTrace(
                    events=[clones.get(e.task, e) for e in trace.events],
                    transfers=trace.transfers,
                )
                label += "+break-mutex"
        rep = verify_schedule(dag, trace)
        rep.name = f"schedule[{label}]"
        rep.stats["makespan_ms"] = r.makespan * 1e3
        reports.append(rep)

        if args.no_memory:
            continue
        mem_label = name
        mem_trace = trace
        if args.inject == "drop-transfer":
            try:
                mem_trace = drop_transfer(trace, dag)
                mem_label += "+drop-transfer"
            except ValueError as exc:
                raise SystemExit(
                    f"--inject drop-transfer: {exc} (policy {name}; "
                    "a larger --size makes the scheduler offload)"
                ) from exc
        elif args.inject == "overflow-residency":
            try:
                mem_trace = overflow_residency(trace, machine)
                mem_label += "+overflow-residency"
            except ValueError as exc:
                raise SystemExit(
                    f"--inject overflow-residency: {exc} (policy {name}; "
                    "a larger --size makes the scheduler offload)"
                ) from exc
        t0 = time.perf_counter()
        mrep = verify_memory(dag, mem_trace, machine)
        mrep.name = f"memory[{mem_label}]"
        mrep.stats["seconds"] = time.perf_counter() - t0
        reports.append(mrep)


def _resilience_pass(args: argparse.Namespace, symbol: Any,
                     reports: list[Report]) -> None:
    """R6xx: run a seeded fault scenario, audit the recovered trace.

    The scenario crashes CPU worker 0 on its first task, slows one task
    down 3x, sprinkles a 2% transient task-fault rate, and (with GPUs)
    kills device 0 part-way through a clean run's makespan.  The
    recovered trace must pass :func:`verify_resilience` *and* the
    regular schedule + memory audits — recovery is only correct if the
    schedule it produces is still feasible.
    """
    from repro.dag import build_dag
    from repro.machine import mirage, simulate
    from repro.resilience import FaultModel, FaultSpec, RecoveryPolicy
    from repro.runtime import get_policy
    from repro.verify.memory import verify_memory
    from repro.verify.resilience import (
        double_complete,
        drop_recovery,
        verify_resilience,
    )
    from repro.verify.schedule import verify_schedule

    policies = (
        ["native", "starpu", "parsec"] if args.policy == "all"
        else [args.policy]
    )
    machine = mirage(
        n_cores=args.cores, n_gpus=args.gpus,
        streams_per_gpu=args.streams if args.gpus else 1,
    )
    def _policy(name: str):
        # Low offload threshold so small test problems exercise the GPU
        # paths (same idiom as the memory-injection runs above); the
        # native policy is CPU-only and takes no threshold.
        if name == "native":
            return get_policy(name)
        return get_policy(name, gpu_flops_threshold=1e3)

    for name in policies:
        pol = _policy(name)
        dag = build_dag(
            symbol, args.factotype,
            granularity=pol.traits.granularity,
            recompute_ld=pol.traits.recompute_ld,
        )
        clean = simulate(dag, machine, pol)
        specs = [
            FaultSpec("worker-crash", time=0.0, resource=0),
            FaultSpec("straggler", time=0.0, factor=3.0),
        ]
        if args.gpus >= 1:
            specs.append(FaultSpec("gpu-loss", time=0.3 * clean.makespan,
                                   resource=0))
        faults = FaultModel(specs, seed=args.seed, task_fail_rate=0.02)
        r = simulate(dag, machine, _policy(name),
                     faults=faults, recovery=RecoveryPolicy())
        trace = r.trace

        t0 = time.perf_counter()
        rep = verify_resilience(trace, dag)
        rep.name = f"resilience[{name}]"
        rep.stats["seconds"] = time.perf_counter() - t0
        rep.stats["faults_injected"] = float(r.n_faults)
        rep.stats["reexecuted"] = float(r.n_reexecuted)
        rep.stats["makespan_ms"] = r.makespan * 1e3
        rep.stats["clean_makespan_ms"] = clean.makespan * 1e3
        reports.append(rep)

        srep = verify_schedule(dag, trace)
        srep.name = f"schedule[{name}+faults]"
        reports.append(srep)
        if not args.no_memory:
            mrep = verify_memory(dag, trace, machine)
            mrep.name = f"memory[{name}+faults]"
            reports.append(mrep)

        if args.inject in ("drop-recovery", "double-complete"):
            corrupt = (drop_recovery if args.inject == "drop-recovery"
                       else double_complete)
            try:
                bad = corrupt(trace)
            except ValueError as exc:
                raise SystemExit(
                    f"--inject {args.inject}: {exc} (policy {name})"
                ) from exc
            brep = verify_resilience(bad, dag)
            brep.name = f"resilience[{name}+{args.inject}]"
            reports.append(brep)


_HEALTH_INJECTS = ("double-commit-hedge", "steal-from-quarantined",
                   "illegal-transition")


def _health_pass(args: argparse.Namespace, symbol: Any,
                 reports: list[Report]) -> None:
    """R7xx: run a seeded limplock scenario, audit degradation/hedging.

    A persistent limplock slows CPU worker 0 by 50x for the rest of the
    run; health monitoring must walk it down the escalation chain into
    quarantine, and hedging must duplicate its stuck tasks on healthy
    workers with exactly-once commits.  A monitoring-off run of the same
    configuration is audited first — it must carry zero health or hedge
    events (the R705 identity).
    """
    from repro.dag import build_dag
    from repro.machine import mirage, simulate
    from repro.resilience import FaultModel, FaultSpec, HealthPolicy
    from repro.runtime import get_policy
    from repro.verify.health import (
        double_commit_hedge,
        illegal_transition,
        steal_from_quarantined,
        verify_health,
    )

    name = args.policy if args.policy != "all" else "parsec"
    machine = mirage(
        n_cores=args.cores, n_gpus=args.gpus,
        streams_per_gpu=args.streams if args.gpus else 1,
    )

    def _policy():
        if name == "native":
            return get_policy(name)
        return get_policy(name, gpu_flops_threshold=1e3)

    dag = build_dag(
        symbol, args.factotype,
        granularity=_policy().traits.granularity,
        recompute_ld=_policy().traits.recompute_ld,
    )
    clean = simulate(dag, machine, _policy())
    mk = clean.makespan

    t0 = time.perf_counter()
    rep = verify_health(clean.trace, name=f"health[{name}+off]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    def _faults():
        return FaultModel(
            [FaultSpec("limplock", time=0.1 * mk, resource=0,
                       factor=50.0)],
            seed=args.seed,
        )
    policy = HealthPolicy(
        min_samples=3, suspect_ratio=2.0, degraded_ratio=4.0,
        quarantine_ratio=3.0, quarantine_s=0.6 * mk,
        hedge=True, hedge_ratio=3.0,
    )
    r = simulate(dag, machine, _policy(), faults=_faults(),
                 health=policy)
    trace = r.trace

    t0 = time.perf_counter()
    rep = verify_health(trace, name=f"health[{name}+limplock]")
    rep.stats["seconds"] = time.perf_counter() - t0
    rep.stats["transitions"] = float(r.n_health_transitions)
    rep.stats["hedges"] = float(r.n_hedges)
    rep.stats["makespan_ms"] = r.makespan * 1e3
    rep.stats["clean_makespan_ms"] = mk * 1e3
    reports.append(rep)

    if args.inject in _HEALTH_INJECTS:
        corrupt = {"double-commit-hedge": double_commit_hedge,
                   "steal-from-quarantined": steal_from_quarantined,
                   "illegal-transition": illegal_transition}[args.inject]
        try:
            bad = corrupt(trace)
        except ValueError as exc:
            raise SystemExit(
                f"--inject {args.inject}: {exc} (policy {name}; a "
                "larger --size gives the monitor more samples)"
            ) from exc
        brep = verify_health(bad, name=f"health[{name}+{args.inject}]")
        reports.append(brep)


_CONCURRENCY_INJECTS = ("drop-sync-event",)

_DETERMINISM_INJECTS = ("reorder-ties", "reseed-midrun", "drop-seq")


def _determinism_pass(args: argparse.Namespace, symbol: Any,
                      reports: list[Report]) -> None:
    """D8xx: same-seed replay of the machine simulator and a burst.

    Runs the R6xx fault scenario's simulator configuration twice from
    the same seed (``FaultModel.fresh()`` rebuilds the RNG per run) and
    demands bit-identical canonical trace fingerprints, monotone and
    total tie-breaks, and matching RNG-draw provenance.  A second,
    cheap audit double-runs the stream-burst simulator the same way.
    """
    from repro.dag import build_dag
    from repro.machine import mirage, simulate
    from repro.machine.streamsim import simulate_kernel_burst
    from repro.resilience import FaultModel, FaultSpec, RecoveryPolicy
    from repro.runtime import get_policy
    from repro.runtime.tracing import ExecutionTrace
    from repro.verify.determinism import (
        drop_seq,
        reorder_ties,
        reseed_midrun,
        verify_determinism,
    )

    name = args.policy if args.policy != "all" else "parsec"
    machine = mirage(
        n_cores=args.cores, n_gpus=args.gpus,
        streams_per_gpu=args.streams if args.gpus else 1,
    )

    def _policy():
        if name == "native":
            return get_policy(name)
        return get_policy(name, gpu_flops_threshold=1e3)

    dag = build_dag(
        symbol, args.factotype,
        granularity=_policy().traits.granularity,
        recompute_ld=_policy().traits.recompute_ld,
    )
    specs = [
        FaultSpec("worker-crash", time=0.0, resource=0),
        FaultSpec("straggler", time=0.0, factor=3.0),
    ]
    base = FaultModel(specs, seed=args.seed, task_fail_rate=0.02)

    def run_sim() -> Any:
        r = simulate(dag, machine, _policy(),
                     faults=base.fresh(), recovery=RecoveryPolicy())
        return r.trace

    trace = run_sim()
    label = f"{name}+faults"
    if args.inject in _DETERMINISM_INJECTS:
        corrupt = {"reorder-ties": reorder_ties,
                   "reseed-midrun": reseed_midrun,
                   "drop-seq": drop_seq}[args.inject]
        try:
            trace = corrupt(trace)
        except ValueError as exc:
            raise SystemExit(f"--inject {args.inject}: {exc}") from exc
        label += f"+{args.inject}"
    t0 = time.perf_counter()
    rep = verify_determinism(run_sim, trace=trace,
                             name=f"determinism[{label}]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    def run_burst() -> Any:
        tr = ExecutionTrace()
        simulate_kernel_burst("cublas", 600, streams=max(args.streams, 2),
                              n_calls=64, trace=tr)
        return tr

    t0 = time.perf_counter()
    rep = verify_determinism(run_burst, name="determinism[burst]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)


def _concurrency_pass(args: argparse.Namespace, matrix: Any, res: Any,
                      reports: list[Report]) -> None:
    """C7xx: audit a live sync-instrumented threaded factorization and
    the threaded solve on its factor.

    Unlike the other passes this one executes the *real* threaded
    runtime (``record_sync=True``) rather than the simulator and feeds
    the recorded ``SyncEvent`` stream to the auditor, against the DAG
    the trace names (:func:`repro.dag.builder.dag_of_trace`; the solve
    DAG for the solve).  ``--inject drop-sync-event`` deletes one
    completion publish of the factorization trace, which the stamped
    ``sync_stats`` no longer match (C707).  (The static side — the RV4xx
    lock-discipline lint — runs with the project linter in
    :func:`_lint_pass`.)
    """
    from repro.dag.builder import dag_of_trace
    from repro.dag.solve_builder import build_solve_dag
    from repro.runtime.threaded import factorize_threaded, solve_threaded
    from repro.runtime.tracing import ExecutionTrace
    from repro.verify.concurrency import drop_sync_event, verify_concurrency

    trace = ExecutionTrace()
    factor = factorize_threaded(
        res.symbol, matrix.permute(res.perm.perm), args.factotype,
        n_workers=args.cores, trace=trace, record_sync=True,
    )
    dag = dag_of_trace(res.symbol, args.factotype, trace)
    solve_trace = ExecutionTrace()
    solve_threaded(factor, np.ones(res.symbol.n), n_workers=args.cores,
                   trace=solve_trace, record_sync=True)
    label = "unit"
    if args.inject == "drop-sync-event":
        try:
            trace = drop_sync_event(trace)
        except ValueError as exc:
            raise SystemExit(f"--inject {args.inject}: {exc}") from exc
        label += f"+{args.inject}"
    runs = (
        (label, dag, trace),
        (f"solve, {solve_trace.meta['kernels']}",
         build_solve_dag(res.symbol, args.factotype, dtype=factor.dtype,
                         n_workers=args.cores),
         solve_trace),
    )
    for label, dag, run_trace in runs:
        t0 = time.perf_counter()
        rep = verify_concurrency(dag, run_trace)
        rep.name = f"concurrency[{label}]"
        rep.stats["seconds"] = time.perf_counter() - t0
        reports.append(rep)


def _symbolic_pass(args: argparse.Namespace, matrix: Any, res: Any,
                   reports: list[Report]) -> None:
    from repro.dag import build_dag
    from repro.kernels.indexcache import CoupleMapCache
    from repro.symbolic import SymbolicOptions, analyze
    from repro.verify.symbols import (
        skew_flops,
        stale_couple_map,
        verify_couple_cache,
        verify_dag_costs,
        verify_symbolic,
    )

    # Exact audit: with amalgamation disabled the stored structure must
    # agree with the column-count recomputation entry for entry.
    t0 = time.perf_counter()
    exact_res = analyze(matrix, SymbolicOptions(
        split_max_width=args.split, amalgamation_ratio=None))
    rep = verify_symbolic(matrix, exact_res, exact=True,
                          name="symbolic[exact]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    # Amalgamated audit: the production structure may only *add* fill.
    t0 = time.perf_counter()
    rep = verify_symbolic(matrix, res, exact=False,
                          name="symbolic[amalgamated]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    # DAG cost audit on the production symbol.
    dag = build_dag(res.symbol, args.factotype, granularity="2d")
    label = "2d"
    if args.inject == "skew-flops":
        dag, task = skew_flops(dag)
        label += f"+skew-flops(task {task})"
    t0 = time.perf_counter()
    rep = verify_dag_costs(dag, name=f"dag-costs[{label}]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    # Couple-index-cache audit: the scatter maps the numeric hot path
    # reuses must agree with an independent re-derivation (N507/N508).
    cache = CoupleMapCache(res.symbol)
    clabel = "fresh"
    if args.inject == "stale-cache":
        cache, couple = stale_couple_map(cache)
        clabel = f"stale-cache({couple[0]} -> {couple[1]})"
    t0 = time.perf_counter()
    rep = verify_couple_cache(res.symbol, cache,
                              name=f"couple-cache[{clabel}]")
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)


def _lint_pass(args: argparse.Namespace,
               reports: list[Report]) -> None:
    import repro
    from repro.verify.lint import lint_report
    from repro.verify.lockdiscipline import lockdiscipline_report

    from repro.verify.eventloop import eventloop_report

    root = Path(args.lint_path) if args.lint_path else Path(repro.__file__).parent
    rep = lint_report([root])
    rep.name = f"lint[{root}]"
    reports.append(rep)

    # RV5xx event-loop-discipline lint over the simulator sources (the
    # static counterpart of the D8xx replay audit).
    t0 = time.perf_counter()
    erep = eventloop_report()
    erep.stats["seconds"] = time.perf_counter() - t0
    reports.append(erep)

    # RV4xx lock-discipline lint over the threaded-runtime scope (the
    # static counterpart of the C7xx trace audit).
    t0 = time.perf_counter()
    lrep = lockdiscipline_report()
    lrep.stats["seconds"] = time.perf_counter() - t0
    reports.append(lrep)


def run_verify(args: argparse.Namespace) -> int:
    """Entry point for the ``verify`` subcommand; returns the exit code."""
    from repro.symbolic import SymbolicOptions, analyze

    if args.inject in ("drop-recovery", "double-complete") \
            and args.no_resilience:
        raise SystemExit(
            f"--inject {args.inject} corrupts the resilience pass; "
            "drop --no-resilience to run it"
        )
    if args.inject in _HEALTH_INJECTS and args.no_health:
        raise SystemExit(
            f"--inject {args.inject} corrupts the health pass; "
            "drop --no-health to run it"
        )
    if args.inject in _CONCURRENCY_INJECTS and args.no_concurrency:
        raise SystemExit(
            f"--inject {args.inject} corrupts the concurrency pass; "
            "drop --no-concurrency to run it"
        )
    if args.inject in _DETERMINISM_INJECTS and args.no_determinism:
        raise SystemExit(
            f"--inject {args.inject} corrupts the determinism pass; "
            "drop --no-determinism to run it"
        )
    if args.inject in ("skew-flops", "stale-cache") \
            and args.no_symbolic:
        raise SystemExit(
            f"--inject {args.inject} corrupts the symbolic pass; "
            "drop --no-symbolic to run it"
        )
    reports: list[Report] = []
    needs_matrix = not (args.no_hazards and args.no_schedule
                        and args.no_symbolic and args.no_resilience
                        and args.no_health and args.no_concurrency
                        and args.no_determinism)
    if needs_matrix:
        matrix = _load(args)
        res = analyze(matrix, SymbolicOptions(split_max_width=args.split))
        symbol = res.symbol
        if not args.no_hazards:
            _hazard_pass(args, symbol, reports)
        if not args.no_schedule:
            _schedule_pass(args, symbol, reports)
        if not args.no_resilience:
            _resilience_pass(args, symbol, reports)
        if not args.no_health:
            _health_pass(args, symbol, reports)
        if not args.no_concurrency:
            _concurrency_pass(args, matrix, res, reports)
        if not args.no_determinism:
            _determinism_pass(args, symbol, reports)
        if not args.no_symbolic:
            _symbolic_pass(args, matrix, res, reports)
    if not args.no_lint:
        _lint_pass(args, reports)

    for rep in reports:
        print(rep.format(verbose=args.verbose))
        print()
    n_err = sum(rep.count() for rep in reports)
    n_pass = sum(rep.ok for rep in reports)
    print(f"verify: {n_pass}/{len(reports)} pass(es) clean, "
          f"{n_err} error finding(s)")
    return 0 if n_err == 0 else 1
