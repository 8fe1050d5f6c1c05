"""Graceful-degradation auditor (R7xx): health tracking and hedging.

The health layer (:mod:`repro.resilience.health`) claims that limping
workers are detected, quarantined workers receive no work, and that
speculative (hedged) re-execution commits each task's side effects
exactly once.  This pass re-checks those claims from the
:class:`~repro.runtime.tracing.ExecutionTrace` alone — health and hedge
bookkeeping bugs cannot vouch for themselves.

Checks:

* **R701 exactly-once commit** — a hedged task (one with a ``launch``
  :class:`~repro.runtime.tracing.HedgeEvent`) has exactly one recorded
  completion, and it sits on the winning attempt's resource;
* **R702 legal transitions** — each resource's recorded health chain
  starts at ``healthy`` and every consecutive ``src -> dst`` pair is an
  edge of :data:`repro.resilience.health.LEGAL_TRANSITIONS`, taken at
  non-decreasing times;
* **R703 quarantine respected** — no task starts (and no hedge
  duplicate launches) on a resource inside one of its quarantine
  windows ``[t(-> quarantined), t(quarantined ->))``;
* **R704 hedge accounting** — every launch resolves into exactly one
  ``win`` plus at least one ``cancel``, no win or cancel exists without
  its launch, and the resolution order is sane (launch <= win, and no
  cancelled resource also records the completion);
* **R705 monitoring-off identity** — a trace produced without health
  monitoring (no ``meta["health"]`` stamp) carries zero health and
  hedge events, and a run with hedging disabled carries zero hedge
  events.
"""

from __future__ import annotations

from repro.resilience.health import HEALTH_STATES, LEGAL_TRANSITIONS
from repro.runtime.tracing import ExecutionTrace, HealthEvent, TraceEvent
from repro.verify.report import Report

__all__ = [
    "verify_health",
    "double_commit_hedge",
    "steal_from_quarantined",
    "illegal_transition",
]

_TOL = 1e-12


def _quarantine_windows(
    health_events: list[HealthEvent],
) -> dict[str, list[tuple[float, float]]]:
    """Per-resource ``[enter, exit)`` quarantine windows from the
    recorded transition chain (exit = next transition out, else inf)."""
    windows: dict[str, list[tuple[float, float]]] = {}
    entered: dict[str, float] = {}
    for e in health_events:
        if e.dst == "quarantined":
            entered.setdefault(e.resource, e.time)
        elif e.src == "quarantined" and e.resource in entered:
            windows.setdefault(e.resource, []).append(
                (entered.pop(e.resource), e.time)
            )
    for res, t0 in entered.items():
        windows.setdefault(res, []).append((t0, float("inf")))
    return windows


def verify_health(trace: ExecutionTrace) -> Report:
    """Audit ``trace``'s health-transition and hedge streams (R7xx)."""
    report = Report("health")
    health = trace.sorted_health_events()
    hedges = trace.sorted_hedge_events()
    report.stats["health_events"] = float(len(health))
    report.stats["hedge_events"] = float(len(hedges))

    # ------------------------------------------------------------- R705
    # Monitoring off must mean byte-identical behavior; the trace-level
    # shadow of that claim is "no events at all".
    meta = trace.meta.get("health")
    if meta is None:
        for e in health + hedges:
            report.add(
                "R705",
                f"{type(e).__name__} recorded on {e.resource} at "
                f"t={e.time:.6g} but the trace carries no "
                "meta['health'] stamp (monitoring was off)",
            )
        # Without monitoring none of the remaining checks can fire.
        return report
    if not meta.get("hedge", False):
        for e in hedges:
            report.add(
                "R705",
                f"hedge {e.kind!r} of task {e.task} on {e.resource} at "
                f"t={e.time:.6g} but meta['health'] says hedging was "
                "disabled",
                tasks=(e.task,),
            )

    # ------------------------------------------------------------- R702
    by_resource: dict[str, list[HealthEvent]] = {}
    for e in health:
        by_resource.setdefault(e.resource, []).append(e)
    for res, chain in sorted(by_resource.items()):
        prev = "healthy"
        prev_t = float("-inf")
        for e in chain:
            if e.src not in HEALTH_STATES or e.dst not in HEALTH_STATES:
                report.add(
                    "R702",
                    f"{res}: unknown health state in transition "
                    f"{e.src!r} -> {e.dst!r} at t={e.time:.6g}",
                )
                prev, prev_t = e.dst, e.time
                continue
            if e.src != prev:
                report.add(
                    "R702",
                    f"{res}: transition chain breaks at "
                    f"t={e.time:.6g}: recorded {e.src} -> {e.dst} "
                    f"but the resource was in state {prev!r}",
                )
            elif (e.src, e.dst) not in LEGAL_TRANSITIONS:
                report.add(
                    "R702",
                    f"{res}: illegal transition {e.src} -> {e.dst} "
                    f"at t={e.time:.6g} (not an edge of the health "
                    "state machine)",
                )
            if e.time < prev_t - _TOL:
                report.add(
                    "R702",
                    f"{res}: transition at t={e.time:.6g} predates "
                    f"the previous one at t={prev_t:.6g}",
                )
            prev, prev_t = e.dst, e.time
    report.stats["resources_tracked"] = float(len(by_resource))

    # ------------------------------------------------------------- R703
    windows = _quarantine_windows(health)
    if windows:
        for ev in trace.sorted_events():
            for (t0, t1) in windows.get(ev.resource, ()):
                if t0 - _TOL <= ev.start < t1 - _TOL:
                    report.add(
                        "R703",
                        f"task {ev.task} starts on {ev.resource} at "
                        f"t={ev.start:.6g}, inside its quarantine "
                        f"window [{t0:.6g}, "
                        f"{'inf' if t1 == float('inf') else format(t1, '.6g')})",
                        tasks=(ev.task,),
                    )
        for h in hedges:
            if h.kind != "launch":
                continue
            for (t0, t1) in windows.get(h.resource, ()):
                if t0 - _TOL <= h.time < t1 - _TOL:
                    report.add(
                        "R703",
                        f"hedge duplicate of task {h.task} launched "
                        f"on quarantined {h.resource} at "
                        f"t={h.time:.6g}",
                        tasks=(h.task,),
                    )
    report.stats["quarantine_windows"] = float(
        sum(len(w) for w in windows.values())
    )

    # ----------------------------------------------------- R701 + R704
    completions = trace.events_by_task()
    by_task: dict[int, dict[str, list]] = {}
    for h in hedges:
        by_task.setdefault(h.task, {}).setdefault(h.kind, []).append(h)
    n_hedged = 0
    for t, kinds in sorted(by_task.items()):
        launches = kinds.get("launch", [])
        wins = kinds.get("win", [])
        cancels = kinds.get("cancel", [])
        if not launches:
            for h in wins + cancels:
                report.add(
                    "R704",
                    f"hedge {h.kind!r} of task {t} on {h.resource} at "
                    f"t={h.time:.6g} without a recorded launch",
                    tasks=(t,),
                )
            continue
        n_hedged += 1
        if len(wins) != 1:
            report.add(
                "R704",
                f"hedged task {t} resolved into {len(wins)} wins "
                "(expected exactly one)",
                tasks=(t,),
            )
        if not cancels:
            report.add(
                "R704",
                f"hedged task {t} has a launch but no cancelled "
                "attempt (the losing side vanished)",
                tasks=(t,),
            )
        if wins and launches and \
                wins[0].time < min(la.time for la in launches) - _TOL:
            report.add(
                "R704",
                f"hedged task {t} wins at t={wins[0].time:.6g}, before "
                f"its launch at "
                f"t={min(la.time for la in launches):.6g}",
                tasks=(t,),
            )
        evs = completions.get(t, [])
        if len(evs) != 1:
            report.add(
                "R701",
                f"hedged task {t} recorded {len(evs)} completions "
                "(the commit gate admits exactly one)",
                tasks=(t,),
            )
        elif wins and evs[0].resource != wins[0].resource:
            report.add(
                "R701",
                f"hedged task {t} completed on {evs[0].resource} but "
                f"the win was recorded on {wins[0].resource}",
                tasks=(t,),
            )
        cancelled_res = {c.resource for c in cancels}
        for ev in evs:
            if wins and ev.resource in cancelled_res \
                    and ev.resource != wins[0].resource:
                report.add(
                    "R701",
                    f"hedged task {t} has a completion on cancelled "
                    f"attempt's resource {ev.resource}",
                    tasks=(t,),
                )
    report.stats["hedged_tasks"] = float(n_hedged)
    return report


# ----------------------------------------------------------------------
# fault injectors (verify-the-verifier)
# ----------------------------------------------------------------------
def double_commit_hedge(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by committing a hedged task twice: the losing
    attempt's completion is recorded as if the gate admitted it.  The
    returned trace must fail R701.  Raises ``ValueError`` when the
    trace has no resolved hedge (a launch with a win and a cancel)."""
    hedges = trace.sorted_hedge_events()
    wins = {h.task: h for h in hedges if h.kind == "win"}
    loser = next(
        (h for h in hedges if h.kind == "cancel" and h.task in wins), None
    )
    if loser is None:
        raise ValueError("trace has no resolved hedge to double-commit")
    orig = next(e for e in trace.events if e.task == loser.task)
    clone = TraceEvent(loser.task, loser.resource, loser.time,
                       loser.time + max(orig.duration, 1e-12))
    return trace.copy(events=trace.events + [clone])


def steal_from_quarantined(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by dispatching a task onto a quarantined
    worker mid-window (as a steal-filter bug would).  The returned
    trace must fail R703.  Raises ``ValueError`` when no quarantine
    window was recorded."""
    windows = _quarantine_windows(trace.sorted_health_events())
    if not windows:
        raise ValueError("trace has no quarantine window to violate")
    res = sorted(windows)[0]
    t0, t1 = windows[res][0]
    if t1 == float("inf"):
        t1 = max(t0, trace.makespan) + 1.0
    mid = 0.5 * (t0 + t1)
    donor = trace.sorted_events()[-1]
    clone = TraceEvent(donor.task, res, mid,
                       mid + min(donor.duration, 0.25 * (t1 - t0)))
    return trace.copy(events=trace.events + [clone])


def illegal_transition(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by appending a health transition that is not
    an edge of the state machine (``healthy -> quarantined``, skipping
    the escalation chain).  The returned trace must fail R702.  Raises
    ``ValueError`` when the trace has no health events at all (nothing
    monitored, so the corruption would instead trip R705)."""
    health = trace.sorted_health_events()
    if not health:
        raise ValueError("trace has no health events to corrupt")
    last = health[-1]
    bad = HealthEvent(last.resource, "healthy", "quarantined",
                      last.time + 1e-9, 0.0, "corrupt")
    return trace.copy(health_events=trace.health_events + [bad])
