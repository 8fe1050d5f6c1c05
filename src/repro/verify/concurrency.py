"""Concurrency auditor (C7xx): publish-order and wakeup checks for the
real threaded runtime.

The threaded engine hand-rolls the synchronization the paper delegates
to StarPU/PaRSEC — per-worker deques, completion publishes under one
state lock, evented worker parking.  Its task bodies take no lock (each
unit task writes only its own panels; every read is ordered by a DAG
edge), so what is left to prove is that the *pool* honoured the DAG.
This pass replays the :class:`~repro.runtime.tracing.SyncEvent` stream
recorded by ``factorize_threaded(..., record_sync=True)`` (or
``solve_threaded``) together with the task events.

Checks:

* **C702 read of unpublished completion** — a task started before some
  predecessor's completion was published to the pool (its dependency
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

from typing import Optional

from repro.dag.tasks import TaskDAG
from repro.runtime.tracing import ExecutionTrace, SyncEvent, TraceEvent
from repro.verify.report import INFO, Report

__all__ = [
    "verify_concurrency",
    "drop_sync_event",
    "swallow_wakeup",
]

#: A park window at least this long, spanning a ready task's idle wait,
#: is a lost wakeup (C705).  The runtime's park timeout is 0.02 s, so an
#: honest nap never comes close.
PARK_HORIZON_S = 0.1


def _exec_worker(resource: str) -> int:
    """Worker index of a threaded-engine resource (``"cpu3"`` -> 3)."""
    if resource.startswith("cpu"):
        try:
            return int(resource[3:])
        except ValueError:
            return -1
    return -1


def verify_concurrency(
    dag: TaskDAG,
    trace: ExecutionTrace,
    *,
    park_horizon_s: float = PARK_HORIZON_S,
    tol: float = 1e-9,
    max_reported: int = 25,
    name: str = "concurrency",
) -> Report:
    """Audit ``trace``'s synchronization against ``dag`` (C7xx)."""
    report = Report(name)
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
    exec_of: dict[int, TraceEvent] = {}
    for ev in trace.sorted_events():
        exec_of[ev.task] = ev

    # ------------------------------------------------------------- C702
    n_c702 = 0
    for t, op in sorted(exec_of.items()):
        if not 0 <= t < dag.n_tasks:
            continue
        for p in dag.predecessors(int(t)):
            pt = publish.get(int(p))
            if pt is not None and op.start + tol < pt:
                n_c702 += 1
                if n_c702 <= max_reported:
                    report.add(
                        "C702",
                        f"task {t} starts at t={op.start:.6g}, before "
                        f"predecessor {int(p)}'s completion was "
                        f"published at t={pt:.6g}",
                        tasks=(t, int(p)),
                    )
    if n_c702 > max_reported:
        report.add("C702", f"... further {n_c702 - max_reported} "
                           "unpublished read(s) suppressed")

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
            if e.duration < park_horizon_s:
                continue
            for t, r in sorted(ready_time.items()):
                op = exec_of[t]
                if r <= e.start + tol and op.start + tol >= e.end:
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
    counts: dict[str, int] = {}
    r_held = r_wait = 0.0
    for e in sync:
        counts[e.kind] = counts.get(e.kind, 0) + 1
        if e.kind == "lock":
            r_held += e.duration
            r_wait += e.wait_s
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
        for key, recomputed in (("lock_held_s", r_held),
                                ("lock_wait_s", r_wait)):
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
def _clone(trace: ExecutionTrace,
           events: Optional[list[TraceEvent]] = None,
           sync_events: Optional[list[SyncEvent]] = None,
           meta: Optional[dict] = None) -> ExecutionTrace:
    return ExecutionTrace(
        events=list(trace.events) if events is None else events,
        transfers=list(trace.transfers),
        data_events=list(trace.data_events),
        fault_events=list(trace.fault_events),
        recovery_events=list(trace.recovery_events),
        sync_events=(list(trace.sync_events) if sync_events is None
                     else sync_events),
        meta=dict(trace.meta) if meta is None else meta,
    )


def _restamp(trace: ExecutionTrace) -> ExecutionTrace:
    """Recompute ``meta['sync_stats']`` to match the (edited) events —
    used by injectors that simulate a *runtime* bug, where the engine
    would have stamped self-consistent numbers."""
    counts: dict[str, int] = {}
    held = wait = 0.0
    for e in trace.sync_events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
        if e.kind == "lock":
            held += e.duration
            wait += e.wait_s
    trace.meta["sync_stats"] = {
        "counts": counts, "lock_held_s": held, "lock_wait_s": wait,
    }
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
    kept = [e for e in trace.sync_events if e is not victim]
    return _clone(trace, sync_events=kept)


def swallow_wakeup(
    trace: ExecutionTrace,
    dag: TaskDAG,
    horizon_s: float = PARK_HORIZON_S,
) -> ExecutionTrace:
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
    delay = ready + 2.0 * horizon_s - victim_ev.start
    moved = TraceEvent(victim_ev.task, victim_ev.resource,
                       victim_ev.start + delay, victim_ev.end + delay)
    events = [moved if e is victim_ev else e for e in trace.events]
    worker = _exec_worker(victim_ev.resource)
    park = SyncEvent("park", worker, f"worker{worker}", -1,
                     ready, moved.start)
    sync = list(trace.sync_events) + [park]
    # The delayed completion publishes late, too.
    sync = [
        (SyncEvent(e.kind, e.worker, e.obj, e.task,
                   e.start + delay, e.end + delay, e.wait_s, e.n)
         if e.kind == "publish" and e.task == victim_ev.task else e)
        for e in sync
    ]
    return _restamp(_clone(trace, events=events, sync_events=sync))
