"""Resilience auditor (R6xx): audit fault/recovery pairing in a trace.

The resilience layer (:mod:`repro.resilience`) claims that every
injected fault is absorbed by a recovery action and that the recovered
schedule is still honest: failed attempts never appear as completions,
re-executions respect their backoff, and a blacklisted device stays
dead.  This pass re-checks those claims from the
:class:`~repro.runtime.tracing.ExecutionTrace` alone — it never looks at
simulator internals, so a bookkeeping bug in the recovery machinery
cannot hide itself.

Checks:

* **R601 fault without recovery** — every
  :class:`~repro.runtime.tracing.FaultEvent` pairs with exactly one
  :class:`~repro.runtime.tracing.RecoveryEvent` on the same
  ``(task, cblk, resource, attempt)`` key, decided no earlier than the
  fault (stragglers are absorbed *at* their start, every other kind at
  the end of the failed attempt);
* **R602 double completion** — no task completes twice without an
  interleaved fault event invalidating the first completion (S201
  already demands "exactly once"; this is the resilience-shaped
  corruption where a re-execution is recorded on top of a success);
* **R603 orphan recovery** — a recovery that answers no recorded fault
  is bookkeeping fiction;
* **R604 backoff accounting** — a re-executed task's (single) trace
  event starts no earlier than its last recovery decision plus the
  imposed backoff delay, a retried link transfer's eventual data event
  respects the same bound, and the trace makespan covers every fault
  window (retries cannot be free);
* **R605 dead device use** — after a ``gpu-loss`` fault, no task event
  and no transfer lands on that device.

``check_double_complete=False`` disables R602/R604 for traces whose
task ids are not unique by construction (the distributed simulator
reuses ids across accumulate tasks).
"""

from __future__ import annotations

from repro.runtime.tracing import ExecutionTrace, TraceEvent, resource_index
from repro.verify.report import Report

__all__ = ["verify_resilience", "drop_recovery", "double_complete"]

_TOL = 1e-12


def _pair_key(task: int, cblk: int, resource: str, attempt: int):
    return (task, cblk, resource, attempt)


def verify_resilience(
    trace: ExecutionTrace, *, check_double_complete: bool = True
) -> Report:
    """Audit ``trace``'s fault and recovery events (R6xx)."""
    report = Report("resilience")
    faults = trace.sorted_fault_events()
    recoveries = trace.sorted_recovery_events()
    report.stats["faults"] = float(len(faults))
    report.stats["recoveries"] = float(len(recoveries))

    # ------------------------------------------------------------- R601
    # Greedy pairing: each fault consumes the earliest unused recovery
    # with its key that was decided no earlier than the fault.
    unused: dict[tuple, list[int]] = {}
    for i, r in enumerate(recoveries):
        unused.setdefault(
            _pair_key(r.task, r.cblk, r.resource, r.attempt), []
        ).append(i)
    consumed = [False] * len(recoveries)
    matched: dict[int, int] = {}  # fault index -> recovery index
    for fi, f in enumerate(faults):
        # A straggler is absorbed in place when the attempt *starts*;
        # every other fault is answered once the failed attempt ends.
        earliest = (f.start if f.kind == "straggler" else f.end) - _TOL
        found = None
        for ri in unused.get(_pair_key(f.task, f.cblk, f.resource,
                                       f.attempt), []):
            if not consumed[ri] and recoveries[ri].time >= earliest:
                found = ri
                break
        if found is None:
            report.add(
                "R601",
                f"{f.kind} fault on {f.resource} at t={f.end:.6g} "
                f"(task {f.task}, cblk {f.cblk}, attempt {f.attempt}) "
                f"has no matching recovery",
                tasks=(f.task,) if f.task >= 0 else (),
            )
        else:
            consumed[found] = True
            matched[fi] = found

    # ------------------------------------------------------------- R603
    for r, used in zip(recoveries, consumed):
        if used:
            continue
        report.add(
            "R603",
            f"{r.kind} recovery on {r.resource} at t={r.time:.6g} "
            f"(task {r.task}, cblk {r.cblk}, attempt {r.attempt}) "
            f"answers no recorded fault",
            tasks=(r.task,) if r.task >= 0 else (),
        )

    events_of = trace.events_by_task()

    # ------------------------------------------------------------- R602
    if check_double_complete:
        fault_ends: dict[int, list[float]] = {}
        for f in faults:
            fault_ends.setdefault(f.task, []).append(f.end)
        for t, evs in events_of.items():
            for a, b in zip(evs, evs[1:]):
                between = any(
                    a.end - _TOL <= fe <= b.start + _TOL
                    for fe in fault_ends.get(t, ())
                )
                if not between:
                    report.add(
                        "R602",
                        f"task {t} completes twice (at t={a.end:.6g} on "
                        f"{a.resource} and t={b.end:.6g} on {b.resource}) "
                        f"with no interleaved fault",
                        tasks=(t,),
                    )

    # ------------------------------------------------------------- R604
    # "Retries cannot be free": the trace's timeline must extend to
    # cover every fault window.  The horizon includes data/transfer
    # events — a trailing d2h writeback may retry past the last task.
    horizon = trace.makespan
    if trace.data_events:
        horizon = max(horizon, max(d.end for d in trace.data_events))
    if trace.transfers:
        horizon = max(horizon, max(t.end for t in trace.transfers))
    for fi, f in enumerate(faults):
        if horizon + _TOL < f.end:
            report.add(
                "R604",
                f"trace horizon {horizon:.6g} does not cover the "
                f"{f.kind} fault window ending at t={f.end:.6g} "
                f"(retries cannot be free)",
                tasks=(f.task,) if f.task >= 0 else (),
            )
    if check_double_complete:
        # A re-executed task must start after its recovery's backoff.
        last_bound: dict[int, float] = {}
        for fi, ri in matched.items():
            f, r = faults[fi], recoveries[ri]
            if f.task < 0 or r.kind == "absorb":
                continue
            bound = r.time + r.delay_s
            if bound > last_bound.get(f.task, -1.0):
                last_bound[f.task] = bound
        for t, bound in last_bound.items():
            evs = events_of.get(t, [])
            if len(evs) == 1 and evs[0].start + _TOL < bound:
                report.add(
                    "R604",
                    f"task {t} starts at t={evs[0].start:.6g}, before its "
                    f"recovery decision plus backoff (t={bound:.6g})",
                    tasks=(t,),
                )
    # A retried link transfer's successful data event obeys the bound.
    # Devices that were later lost are exempt: the loss cancels queued
    # inbound transfers, including a retry's eventual success.
    lost_gpus = {
        f.resource for f in faults if f.kind == "gpu-loss" and f.task < 0
    }
    for fi, ri in matched.items():
        f, r = faults[fi], recoveries[ri]
        gpu = resource_index(f.resource, "link")
        if f.kind != "transfer-fail" or gpu < 0 or f"gpu{gpu}" in lost_gpus:
            continue
        bound = r.time + r.delay_s
        landed = [
            d for d in trace.data_events
            if d.cblk == f.cblk and d.gpu == gpu and d.kind in ("h2d", "d2h")
            and d.start >= bound - _TOL
        ]
        if not landed:
            report.add(
                "R604",
                f"retried transfer of panel {f.cblk} on {f.resource} "
                f"(attempt {f.attempt}) has no data event at or after "
                f"its backoff bound t={bound:.6g}",
            )

    # ------------------------------------------------------------- R605
    for f in faults:
        if f.kind != "gpu-loss" or f.task >= 0:
            continue  # per-task gpu-loss faults are covered by pairing
        dead = f.resource
        gpu = resource_index(dead, "gpu")
        if gpu < 0:
            continue
        for e in trace.events:
            # GPU task events carry the stream lane ("gpu0s1"); both the
            # bare device name and its streams are dead.
            if (e.resource == dead or e.resource.startswith(dead + "s")) \
                    and e.end > f.end + _TOL:
                report.add(
                    "R605",
                    f"task {e.task} runs on {dead} until t={e.end:.6g}, "
                    f"after the device was lost at t={f.end:.6g}",
                    tasks=(e.task,),
                )
        for d in trace.data_events:
            if d.gpu == gpu and d.kind in ("h2d", "d2h") \
                    and d.start > f.end + _TOL:
                report.add(
                    "R605",
                    f"{d.kind} of panel {d.cblk} on link {gpu} starts at "
                    f"t={d.start:.6g}, after the device was lost at "
                    f"t={f.end:.6g}",
                )

    retried = {f.task for f in faults if f.task >= 0}
    report.stats["tasks_hit"] = float(len(retried))
    return report


# ----------------------------------------------------------------------
# fault injectors (verify-the-verifier)
# ----------------------------------------------------------------------
def drop_recovery(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by deleting one recovery event.

    The returned trace must fail R601 (its fault is now unanswered).
    Raises ``ValueError`` when the trace has no recovery events.
    """
    if not trace.recovery_events:
        raise ValueError("trace has no recovery events to drop")
    victim = trace.sorted_recovery_events()[0]
    return trace.copy(recovery_events=[
        r for r in trace.recovery_events if r is not victim])


def double_complete(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by recording one task's completion twice.

    The duplicate lands after the makespan with no interleaved fault, so
    the returned trace must fail R602.  Raises ``ValueError`` when the
    trace has no task events.
    """
    if not trace.events:
        raise ValueError("trace has no task events to duplicate")
    fault_tasks = {f.task for f in trace.fault_events}
    orig = next(
        (e for e in trace.sorted_events() if e.task not in fault_tasks),
        None,
    )
    if orig is None:
        raise ValueError("every task already has fault events; nothing "
                         "to duplicate cleanly")
    span = trace.makespan
    clone = TraceEvent(orig.task, orig.resource, span,
                       span + max(orig.duration, 1e-12))
    return trace.copy(events=trace.events + [clone])
