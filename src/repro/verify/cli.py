"""Driver behind ``python -m repro verify``.

Runs the passes of :data:`PASSES` on a chosen matrix and prints one
report per audited artifact:

* ``hazards`` — H1xx DAG hazard coverage, per granularity;
* ``schedule`` — S2xx feasibility of a simulated schedule per policy,
  plus the M4xx memory/data-movement audit of the same trace;
* ``resilience`` — R6xx audit of a seeded fault-injection run, whose
  recovered trace must also pass the schedule and memory audits;
* ``health`` — R7xx audit of a seeded limplock run with health
  monitoring and hedging armed, plus a monitoring-off identity check;
* ``concurrency`` — C7xx audit of a live sync-instrumented threaded
  factorization and of the threaded solve on its factor;
* ``determinism`` — D8xx same-seed double-run of the machine simulator
  and of a kernel burst (fingerprints, tie-breaks, RNG provenance);
* ``symbolic`` — N5xx symbolic-structure, DAG-cost and couple-cache
  audits;
* ``lint`` — the RV3xx project lint and the RV5xx event-loop lint
  (:mod:`repro.verify.lint`).

``--only PASS[,PASS]`` selects passes (default: all).  Exit status is 0
iff every report is clean, which is what ``make verify`` and CI consume.

``--inject MODE`` corrupts one artifact under test to show that its pass
catches what it claims to catch.  :data:`INJECTS` maps each mode to the
pass that runs it (added to the selection), the report stage whose
artifact it rewrites, the corruption, the fields it changes (and
nothing else), and the codes at least one of which the run must report;
an injected run is *expected* to exit 1.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.verify.concurrency import drop_sync_event
from repro.verify.determinism import drop_seq, reorder_ties, reseed_midrun
from repro.verify.hazards import drop_edge
from repro.verify.health import (
    double_commit_hedge,
    illegal_transition,
    steal_from_quarantined,
)
from repro.verify.memory import drop_transfer, overflow_residency
from repro.verify.report import Report
from repro.verify.resilience import double_complete, drop_recovery
from repro.verify.schedule import break_mutex, overlap_trace
from repro.verify.symbols import skew_flops, stale_couple_map

__all__ = ["run_verify", "add_verify_arguments", "PASSES", "INJECTS"]

_GENERATORS = {
    "lap2d": ("grid_laplacian_2d", {"jitter": 0.05}),
    "lap3d": ("grid_laplacian_3d", {"jitter": 0.05}),
    "random": ("random_pattern_spd", {"locality": 0.4}),
    "elasticity": ("elasticity_like_3d", {}),
    "helmholtz": ("helmholtz_like_2d", {}),
    "shell": ("shell_like_2d", {}),
}

GRANULARITIES = ("2d", "1d", "1d-left", "subtree", "unit")


class Inject(NamedTuple):
    """One ``--inject`` mode: the pass that runs it, the report stage
    whose artifact it rewrites, the corruption, the artifact fields the
    corruption changes (every other field of the copy it returns equals
    the input, which it leaves untouched), and the codes at least one of
    which the run must report."""

    pass_name: str
    stage: str
    corrupt: Callable[..., Any]
    changes: tuple[str, ...]
    codes: tuple[str, ...]


def _drop_seeded_edge(dag: Any, seed: int) -> Any:
    return drop_edge(dag, int(np.random.default_rng(seed).integers(dag.n_edges)))


#: Stage call signatures: hazards ``(dag, seed)``; schedule and memory
#: ``(trace, dag, machine)``; dag-costs ``(dag)`` and couple-cache
#: ``(cache)``, each returning ``(artifact, what)``; the others
#: ``(trace)``.
INJECTS: dict[str, Inject] = {
    "drop-edge": Inject("hazards", "hazards", _drop_seeded_edge,
                        ("succ_ptr", "succ_list"), ("H101", "H102")),
    "overlap-trace": Inject("schedule", "schedule",
                            lambda trace, dag, machine: overlap_trace(trace),
                            ("events",), ("S204",)),
    "break-mutex": Inject("schedule", "schedule",
                          lambda trace, dag, machine: break_mutex(trace, dag),
                          ("events",), ("S205",)),
    "drop-transfer": Inject(
        "schedule", "memory",
        lambda trace, dag, machine: drop_transfer(trace, dag),
        ("data_events", "transfers"), ("M401",)),
    "overflow-residency": Inject(
        "schedule", "memory",
        lambda trace, dag, machine: overflow_residency(trace, machine),
        ("data_events",), ("M402",)),
    "skew-flops": Inject("symbolic", "dag-costs", skew_flops, ("flops",),
                         ("N504",)),
    "stale-cache": Inject("symbolic", "couple-cache", stale_couple_map,
                          ("rows_local",), ("N507",)),
    "drop-recovery": Inject("resilience", "resilience", drop_recovery,
                            ("recovery_events",), ("R601",)),
    "double-complete": Inject("resilience", "resilience", double_complete,
                              ("events",), ("R602",)),
    "double-commit-hedge": Inject("health", "health", double_commit_hedge,
                                  ("events",), ("R701",)),
    "steal-from-quarantined": Inject("health", "health",
                                     steal_from_quarantined, ("events",),
                                     ("R703",)),
    "illegal-transition": Inject("health", "health", illegal_transition,
                                 ("health_events",), ("R702",)),
    "drop-sync-event": Inject("concurrency", "concurrency", drop_sync_event,
                              ("sync_events",), ("C707",)),
    "reorder-ties": Inject("determinism", "determinism", reorder_ties,
                           ("events",), ("D802",)),
    "reseed-midrun": Inject("determinism", "determinism", reseed_midrun,
                            ("meta",), ("D803",)),
    "drop-seq": Inject("determinism", "determinism", drop_seq, ("events",),
                       ("D802",)),
}


def _targets(args: argparse.Namespace, stage: str) -> bool:
    """Does ``--inject`` corrupt the artifact of report stage ``stage``?"""
    inj = INJECTS.get(args.inject)
    return inj is not None and inj.stage == stage


def _corrupt(args: argparse.Namespace, where: str, *artifacts: Any) -> Any:
    try:
        return INJECTS[args.inject].corrupt(*artifacts)
    except ValueError as exc:
        raise SystemExit(f"--inject {args.inject}: {exc} ({where})") from exc


def _pass_list(text: str) -> list[str]:
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [n for n in names if n not in PASSES]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown pass {','.join(unknown)!r}; choose from "
            f"{','.join(PASSES)}")
    return names


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
                   help="scheduler policy of the simulated passes")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--gpus", type=int, default=1)
    p.add_argument("--streams", type=int, default=2)
    p.add_argument("--only", type=_pass_list, default=None,
                   metavar="PASS[,PASS]",
                   help="run only these passes (default: all of %s)"
                        % ",".join(PASSES))
    p.add_argument("--redundant", action="store_true",
                   help="also report transitive (redundant) DAG edges")
    p.add_argument("--lint-path", default=None,
                   help="directory to lint (default: the repro package)")
    p.add_argument(
        "--inject", default="none", choices=["none", *INJECTS],
        help="fault injection self-test (expected to FAIL the run); "
             "runs the pass it corrupts even when --only leaves it out",
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


def _policies(args: argparse.Namespace) -> list[str]:
    return (["native", "starpu", "parsec"] if args.policy == "all"
            else [args.policy])


def _simulation(args: argparse.Namespace, symbol: Any, name: str,
                offload: bool = True) -> tuple[Any, Callable[[], Any], Any]:
    """``(machine, policy factory, dag)`` to simulate policy ``name`` on
    the ``--cores/--gpus/--streams`` Mirage node.  ``offload`` lowers the
    GPU threshold so that small problems exercise the GPU paths (the
    native policy is CPU-only and takes no threshold)."""
    from repro.dag import build_dag
    from repro.machine import mirage
    from repro.runtime import get_policy

    machine = mirage(
        n_cores=args.cores, n_gpus=args.gpus,
        streams_per_gpu=args.streams if args.gpus else 1,
    )

    def policy() -> Any:
        if not offload or name == "native":
            return get_policy(name)
        return get_policy(name, gpu_flops_threshold=1e3)

    traits = policy().traits
    dag = build_dag(symbol, args.factotype, granularity=traits.granularity,
                    recompute_ld=traits.recompute_ld)
    return machine, policy, dag


def _hazard_pass(args: argparse.Namespace, matrix: Any, res: Any,
                 reports: list[Report]) -> None:
    from repro.dag import build_dag
    from repro.verify.hazards import analyze_hazards

    grans = GRANULARITIES if args.granularity == "all" else (args.granularity,)
    for gran in grans:
        if gran == "subtree":
            dag = build_dag(res.symbol, args.factotype,
                            fuse_subtree_flops=1e5)
        else:
            dag = build_dag(res.symbol, args.factotype, granularity=gran)
        label = gran
        if _targets(args, "hazards") and dag.n_edges:
            dag = _corrupt(args, gran, dag, args.seed)
            label += f"+{args.inject}"
        t0 = time.perf_counter()
        rep = analyze_hazards(dag, find_redundant=args.redundant)
        rep.name = f"hazards[{label}]"
        rep.stats["seconds"] = time.perf_counter() - t0
        reports.append(rep)


def _schedule_pass(args: argparse.Namespace, matrix: Any, res: Any,
                   reports: list[Report]) -> None:
    from repro.machine import simulate
    from repro.verify.memory import verify_memory
    from repro.verify.schedule import verify_schedule

    memory_inject = _targets(args, "memory")
    if memory_inject and args.gpus < 1:
        raise SystemExit(f"--inject {args.inject} needs at least one GPU")
    for name in _policies(args):
        # The memory injections force GPU offload so the trace has
        # transfers to corrupt.
        machine, policy, dag = _simulation(args, res.symbol, name,
                                           offload=memory_inject)
        r = simulate(dag, machine, policy())
        trace, label = r.trace, name
        if _targets(args, "schedule"):
            trace = _corrupt(args, f"policy {name}", trace, dag, machine)
            label += f"+{args.inject}"
        rep = verify_schedule(dag, trace)
        rep.name = f"schedule[{label}]"
        rep.stats["makespan_ms"] = r.makespan * 1e3
        reports.append(rep)

        mem_trace, mem_label = trace, name
        if memory_inject:
            mem_trace = _corrupt(
                args, f"policy {name}; a larger --size makes the "
                "scheduler offload", trace, dag, machine)
            mem_label += f"+{args.inject}"
        t0 = time.perf_counter()
        mrep = verify_memory(dag, mem_trace, machine)
        mrep.name = f"memory[{mem_label}]"
        mrep.stats["seconds"] = time.perf_counter() - t0
        reports.append(mrep)


def _resilience_pass(args: argparse.Namespace, matrix: Any, res: Any,
                     reports: list[Report]) -> None:
    """R6xx: run a seeded fault scenario, audit the recovered trace.

    The scenario crashes CPU worker 0 on its first task, slows one task
    down 3x, sprinkles a 2% transient task-fault rate, and (with GPUs)
    kills device 0 part-way through a clean run's makespan.  The
    recovered trace must pass :func:`verify_resilience` *and* the
    regular schedule + memory audits — recovery is only correct if the
    schedule it produces is still feasible.
    """
    from repro.machine import simulate
    from repro.resilience import FaultModel, FaultSpec, RecoveryPolicy
    from repro.verify.memory import verify_memory
    from repro.verify.resilience import verify_resilience
    from repro.verify.schedule import verify_schedule

    for name in _policies(args):
        machine, policy, dag = _simulation(args, res.symbol, name)
        clean = simulate(dag, machine, policy())
        specs = [
            FaultSpec("worker-crash", time=0.0, resource=0),
            FaultSpec("straggler", time=0.0, factor=3.0),
        ]
        if args.gpus >= 1:
            specs.append(FaultSpec("gpu-loss", time=0.3 * clean.makespan,
                                   resource=0))
        faults = FaultModel(specs, seed=args.seed, task_fail_rate=0.02)
        r = simulate(dag, machine, policy(),
                     faults=faults, recovery=RecoveryPolicy())
        trace = r.trace

        t0 = time.perf_counter()
        rep = verify_resilience(trace)
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
        mrep = verify_memory(dag, trace, machine)
        mrep.name = f"memory[{name}+faults]"
        reports.append(mrep)

        if _targets(args, "resilience"):
            brep = verify_resilience(_corrupt(args, f"policy {name}", trace))
            brep.name = f"resilience[{name}+{args.inject}]"
            reports.append(brep)


def _health_pass(args: argparse.Namespace, matrix: Any, res: Any,
                 reports: list[Report]) -> None:
    """R7xx: run a seeded limplock scenario, audit degradation/hedging.

    A persistent limplock slows CPU worker 0 by 50x for the rest of the
    run; health monitoring must walk it down the escalation chain into
    quarantine, and hedging must duplicate its stuck tasks on healthy
    workers with exactly-once commits.  A monitoring-off run of the same
    configuration is audited first — it must carry zero health or hedge
    events (the R705 identity).
    """
    from repro.machine import simulate
    from repro.resilience import FaultModel, FaultSpec, HealthPolicy
    from repro.verify.health import verify_health

    name = args.policy if args.policy != "all" else "parsec"
    machine, policy, dag = _simulation(args, res.symbol, name)
    clean = simulate(dag, machine, policy())
    mk = clean.makespan

    t0 = time.perf_counter()
    rep = verify_health(clean.trace)
    rep.name = f"health[{name}+off]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    faults = FaultModel(
        [FaultSpec("limplock", time=0.1 * mk, resource=0, factor=50.0)],
        seed=args.seed,
    )
    health = HealthPolicy(
        min_samples=3, suspect_ratio=2.0, degraded_ratio=4.0,
        quarantine_ratio=3.0, quarantine_s=0.6 * mk,
        hedge=True, hedge_ratio=3.0,
    )
    r = simulate(dag, machine, policy(), faults=faults, health=health)
    trace = r.trace

    t0 = time.perf_counter()
    rep = verify_health(trace)
    rep.name = f"health[{name}+limplock]"
    rep.stats["seconds"] = time.perf_counter() - t0
    rep.stats["transitions"] = float(r.n_health_transitions)
    rep.stats["hedges"] = float(r.n_hedges)
    rep.stats["makespan_ms"] = r.makespan * 1e3
    rep.stats["clean_makespan_ms"] = mk * 1e3
    reports.append(rep)

    if _targets(args, "health"):
        bad = _corrupt(args, f"policy {name}; a larger --size gives the "
                       "monitor more samples", trace)
        rep = verify_health(bad)
        rep.name = f"health[{name}+{args.inject}]"
        reports.append(rep)


def _determinism_pass(args: argparse.Namespace, matrix: Any, res: Any,
                      reports: list[Report]) -> None:
    """D8xx: same-seed replay of the machine simulator and a burst.

    Runs the R6xx fault scenario's simulator configuration twice from
    the same seed (``FaultModel.fresh()`` rebuilds the RNG per run) and
    demands bit-identical canonical trace fingerprints, monotone and
    total tie-breaks, and matching RNG-draw provenance.  A second,
    cheap audit double-runs the stream-burst simulator the same way.
    """
    from repro.machine import simulate
    from repro.machine.streamsim import simulate_kernel_burst
    from repro.resilience import FaultModel, FaultSpec, RecoveryPolicy
    from repro.runtime.tracing import ExecutionTrace
    from repro.verify.determinism import verify_determinism

    name = args.policy if args.policy != "all" else "parsec"
    machine, policy, dag = _simulation(args, res.symbol, name)
    specs = [
        FaultSpec("worker-crash", time=0.0, resource=0),
        FaultSpec("straggler", time=0.0, factor=3.0),
    ]
    base = FaultModel(specs, seed=args.seed, task_fail_rate=0.02)

    def run_sim() -> Any:
        r = simulate(dag, machine, policy(),
                     faults=base.fresh(), recovery=RecoveryPolicy())
        return r.trace

    trace = run_sim()
    label = f"{name}+faults"
    if _targets(args, "determinism"):
        trace = _corrupt(args, f"policy {name}", trace)
        label += f"+{args.inject}"
    t0 = time.perf_counter()
    rep = verify_determinism(run_sim, trace=trace)
    rep.name = f"determinism[{label}]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    def run_burst() -> Any:
        tr = ExecutionTrace()
        simulate_kernel_burst("cublas", 600, streams=max(args.streams, 2),
                              n_calls=64, trace=tr)
        return tr

    t0 = time.perf_counter()
    rep = verify_determinism(run_burst)
    rep.name = "determinism[burst]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)


def _concurrency_pass(args: argparse.Namespace, matrix: Any, res: Any,
                      reports: list[Report]) -> None:
    """C7xx: audit a live sync-instrumented threaded factorization and
    the threaded solve on its factor.

    Unlike the other passes this one executes the *real* threaded
    runtime (``record_sync=True``) and feeds the recorded ``SyncEvent``
    stream to the auditor, against the DAG the trace names
    (:func:`repro.dag.builder.dag_of_trace`; the solve DAG for the
    solve).
    """
    from repro.dag.builder import dag_of_trace
    from repro.dag.solve_builder import build_solve_dag
    from repro.runtime.threaded import factorize_threaded, solve_threaded
    from repro.runtime.tracing import ExecutionTrace
    from repro.verify.concurrency import verify_concurrency

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
    if _targets(args, "concurrency"):
        trace = _corrupt(args, label, trace)
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
        verify_couple_cache,
        verify_dag_costs,
        verify_symbolic,
    )

    # Exact audit: with amalgamation disabled the stored structure must
    # agree with the column-count recomputation entry for entry.
    t0 = time.perf_counter()
    exact_res = analyze(matrix, SymbolicOptions(
        split_max_width=args.split, amalgamation_ratio=None))
    rep = verify_symbolic(matrix, exact_res, exact=True)
    rep.name = "symbolic[exact]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    # Amalgamated audit: the production structure may only *add* fill.
    t0 = time.perf_counter()
    rep = verify_symbolic(matrix, res, exact=False)
    rep.name = "symbolic[amalgamated]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    # DAG cost audit on the production symbol.
    dag = build_dag(res.symbol, args.factotype, granularity="2d")
    label = "2d"
    if _targets(args, "dag-costs"):
        dag, task = _corrupt(args, label, dag)
        label += f"+{args.inject}(task {task})"
    t0 = time.perf_counter()
    rep = verify_dag_costs(dag)
    rep.name = f"dag-costs[{label}]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)

    # Couple-index-cache audit: the scatter maps the numeric hot path
    # reuses must agree with an independent re-derivation (N507/N508).
    cache = CoupleMapCache(res.symbol)
    clabel = "fresh"
    if _targets(args, "couple-cache"):
        cache, couple = _corrupt(args, clabel, cache)
        clabel = f"{args.inject}({couple[0]} -> {couple[1]})"
    t0 = time.perf_counter()
    rep = verify_couple_cache(res.symbol, cache)
    rep.name = f"couple-cache[{clabel}]"
    rep.stats["seconds"] = time.perf_counter() - t0
    reports.append(rep)


def _lint_pass(args: argparse.Namespace, matrix: Any, res: Any,
               reports: list[Report]) -> None:
    """RV3xx over the package (or ``--lint-path``), then the RV5xx
    event-loop lint over its default scope (the static counterpart of
    D8xx)."""
    import repro
    from repro.verify.lint import lint_report

    root = Path(args.lint_path or Path(repro.__file__).parent)
    for family, paths in (("RV3", [root]), ("RV5", None)):
        t0 = time.perf_counter()
        rep = lint_report(paths, family)
        rep.stats["seconds"] = time.perf_counter() - t0
        if family == "RV3":
            rep.name = f"lint[{root}]"
        reports.append(rep)


#: Pass name -> runner, in report order.
PASSES: dict[str, Callable[..., None]] = {
    "hazards": _hazard_pass,
    "schedule": _schedule_pass,
    "resilience": _resilience_pass,
    "health": _health_pass,
    "concurrency": _concurrency_pass,
    "determinism": _determinism_pass,
    "symbolic": _symbolic_pass,
    "lint": _lint_pass,
}


def run_verify(args: argparse.Namespace) -> int:
    """Entry point for the ``verify`` subcommand; returns the exit code."""
    from repro.symbolic import SymbolicOptions, analyze

    selected = set(args.only or PASSES)
    if args.inject != "none":
        selected.add(INJECTS[args.inject].pass_name)
    if args.lint_path is not None and not Path(args.lint_path).exists():
        raise SystemExit(f"--lint-path {args.lint_path!r} does not exist")
    matrix = res = None
    if selected - {"lint"}:
        matrix = _load(args)
        res = analyze(matrix, SymbolicOptions(split_max_width=args.split))
    reports: list[Report] = []
    for name, run in PASSES.items():
        if name in selected:
            run(args, matrix, res, reports)

    for rep in reports:
        print(rep.format(verbose=args.verbose))
        print()
    n_err = sum(rep.count() for rep in reports)
    n_pass = sum(rep.ok for rep in reports)
    print(f"verify: {n_pass}/{len(reports)} pass(es) clean, "
          f"{n_err} error finding(s)")
    return 0 if n_err == 0 else 1
