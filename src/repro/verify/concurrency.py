"""Concurrency auditor (C7xx): publish-order and wakeup checks for the
real threaded runtime.

The threaded engine hand-rolls the synchronization the paper delegates
to StarPU/PaRSEC — one mutex, one condition variable and timed parks in
the C DAG executor that runs both phases.  Its task bodies take no lock
(each task writes only what it owns; every read is ordered by a DAG
edge), so what is left to prove is that the *executor* honoured the
DAG.
This pass replays the :class:`~repro.runtime.tracing.SyncEvent` stream
recorded by ``factorize_threaded(..., record_sync=True)`` (or
``solve_threaded``) together with the task events.

Checks:

* **C702 read of unpublished completion** — a task started before some
  predecessor's completion was published to the executor (its dependency
  counter was decremented on state the reader could not yet see);
* **C705 lost wakeup** — a worker parked past the horizon while a task
  that had been ready since before the park sat unstarted until after
  the park ended (the runtime's park timeout bounds honest naps far
  below the horizon);
* **C707 sync provenance** — the ``sync_stats`` summary the engine
  stamped into ``trace.meta`` (event counts, lock-held/wait totals)
  must match what this pass recomputes from the events; a mismatch
  means the trace was edited after the run.

A trace without ``meta["sync_trace"]`` is not auditable (no sync events
were recorded) — the pass reports that as an INFO finding and abstains
rather than guessing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.dag.tasks import TaskDAG
from repro.runtime.tracing import (
    ExecutionTrace,
    SyncEvent,
    TraceEvent,
    resource_index,
    sync_stats,
)
from repro.verify.report import INFO, Report

__all__ = [
    "verify_concurrency",
    "drop_sync_event",
    "swallow_wakeup",
]

#: A park window at least this long, spanning a ready task's idle wait,
#: is a lost wakeup (C705).  The C executor records whole idle episodes,
#: which can be longer, but it parks a worker only while the ready set
#: is empty, so no ready task waits through an honest one.
PARK_HORIZON_S = 0.1

_TOL = 1e-9


def verify_concurrency(dag: TaskDAG, trace: ExecutionTrace) -> Report:
    """Audit ``trace``'s synchronization against ``dag`` (C7xx)."""
    report = Report("concurrency")
    sync = trace.sorted_sync_events()
    report.stats["sync_events"] = float(len(sync))

    if not trace.meta.get("sync_trace"):
        report.add(
            "C700",
            "trace carries no sync instrumentation "
            "(meta['sync_trace'] unset); concurrency audit abstains — "
            "re-run with record_sync=True",
            severity=INFO,
        )
        return report

    parks = [e for e in sync if e.kind == "park"]
    publish: dict[int, float] = {}
    for e in sync:
        if e.kind == "publish" and e.task >= 0:
            # Last publish wins (retries republish after re-execution).
            publish[e.task] = e.start
    report.stats["parks"] = float(len(parks))

    # The last (successful) execution of every task.
    exec_of = {t: evs[-1] for t, evs in trace.events_by_task().items()}

    # ------------------------------------------------------------- C702
    for t, op in sorted(exec_of.items()):
        if not 0 <= t < dag.n_tasks:
            continue
        for p in dag.predecessors(int(t)):
            pt = publish.get(int(p))
            if pt is not None and op.start + _TOL < pt:
                report.add(
                    "C702",
                    f"task {t} starts at t={op.start:.6g}, before "
                    f"predecessor {int(p)}'s completion was "
                    f"published at t={pt:.6g}",
                    tasks=(t, int(p)),
                )

    # ------------------------------------------------------------- C705
    # Ready time of a task: the latest publish among its predecessors
    # (sources are ready at t=0).  A long park fully spanning a ready
    # task's unstarted wait is a swallowed wakeup.
    if parks:
        ready_time: dict[int, float] = {}
        for t, op in exec_of.items():
            if not 0 <= t < dag.n_tasks:
                continue
            preds = dag.predecessors(int(t))
            r = 0.0
            complete = True
            for p in preds:
                pt = publish.get(int(p))
                if pt is None:
                    complete = False
                    break
                r = max(r, pt)
            if complete:
                ready_time[t] = r
        for e in parks:
            if e.duration < PARK_HORIZON_S:
                continue
            for t, r in sorted(ready_time.items()):
                op = exec_of[t]
                if r <= e.start + _TOL and op.start + _TOL >= e.end:
                    report.add(
                        "C705",
                        f"worker {e.worker} parked for "
                        f"{e.duration:.4g}s [{e.start:.6g}, "
                        f"{e.end:.6g}] while task {t} had been ready "
                        f"since t={r:.6g} and only started at "
                        f"t={op.start:.6g}: lost wakeup",
                        tasks=(t,),
                    )
                    break               # one task per park is enough

    # ------------------------------------------------------------- C707
    stamped = trace.meta.get("sync_stats")
    recount = sync_stats(sync)
    counts = recount["counts"]
    if stamped is None:
        report.add(
            "C707",
            "trace records sync events but meta['sync_stats'] is "
            "missing: the engine always stamps its summary",
        )
    else:
        if dict(stamped.get("counts", {})) != counts:
            report.add(
                "C707",
                f"meta sync_stats counts {stamped.get('counts')} do not "
                f"match the recorded events {counts}: trace edited "
                "after the run",
            )
        for key in ("lock_held_s", "lock_wait_s"):
            recomputed = recount[key]
            val = float(stamped.get(key, -1.0))
            if abs(val - recomputed) > 1e-6 + 1e-6 * abs(recomputed):
                report.add(
                    "C707",
                    f"meta sync_stats {key}={val:.6g} does not match "
                    f"the recomputed total {recomputed:.6g}",
                )

    report.stats["tasks"] = float(len(exec_of))
    return report


# ----------------------------------------------------------------------
# fault injectors (verify-the-verifier)
# ----------------------------------------------------------------------
def _restamp(trace: ExecutionTrace) -> ExecutionTrace:
    """Recompute ``meta['sync_stats']`` to match the (edited) events —
    used by injectors that simulate a *runtime* bug, where the engine
    would have stamped self-consistent numbers."""
    trace.meta["sync_stats"] = sync_stats(trace.sync_events)
    return trace


def drop_sync_event(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by deleting one completion-publish sync event.

    The stamped ``sync_stats`` no longer match the events, so the
    returned trace must fail C707.  Raises ``ValueError`` when the trace
    has no publish events.
    """
    victim = next(
        (e for e in trace.sorted_sync_events() if e.kind == "publish"), None
    )
    if victim is None:
        raise ValueError("trace has no publish sync events to drop")
    return trace.copy(sync_events=[
        e for e in trace.sync_events if e is not victim])


def swallow_wakeup(trace: ExecutionTrace, dag: TaskDAG) -> ExecutionTrace:
    """Corrupt ``trace`` to look like a lost wakeup: a sink task's
    execution is delayed past the horizon while its worker's park
    window silently spans the whole wait.

    ``sync_stats`` are restamped (a *runtime* bug would have stamped
    self-consistent numbers), so only C705 convicts.  Raises
    ``ValueError`` when no suitable task exists.
    """
    publish = {e.task: e.start for e in trace.sync_events
               if e.kind == "publish" and e.task >= 0}
    victim_ev: Optional[TraceEvent] = None
    ready = 0.0
    for ev in sorted(trace.events, key=lambda e: -e.start):
        t = ev.task
        if not 0 <= t < dag.n_tasks or len(dag.successors(int(t))):
            continue                # need a sink: no downstream reader
        preds = dag.predecessors(int(t))
        if not len(preds):
            continue                # need a real ready transition
        if all(int(p) in publish for p in preds):
            victim_ev = ev
            ready = max(publish[int(p)] for p in preds)
            break
    if victim_ev is None:
        raise ValueError("trace has no published sink task to delay")
    delay = ready + 2.0 * PARK_HORIZON_S - victim_ev.start
    moved = replace(victim_ev, start=victim_ev.start + delay,
                    end=victim_ev.end + delay)
    events = [moved if e is victim_ev else e for e in trace.events]
    worker = resource_index(victim_ev.resource, "cpu")
    park = SyncEvent("park", worker, f"worker{worker}", -1,
                     ready, moved.start)
    sync = list(trace.sync_events) + [park]
    # The delayed completion publishes late, too.
    sync = [
        (replace(e, start=e.start + delay, end=e.end + delay)
         if e.kind == "publish" and e.task == victim_ev.task else e)
        for e in sync
    ]
    return _restamp(trace.copy(events=events, sync_events=sync))
