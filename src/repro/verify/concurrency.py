"""Concurrency auditor (C7xx): happens-before race detection for the
real threaded runtime.

The threaded engine hand-rolls exactly the synchronization the paper
delegates to StarPU/PaRSEC — per-worker deques, a narrowed scatter-add
mutex per facing panel, evented worker parking, opt-in fan-in batching.
This pass replays the :class:`~repro.runtime.tracing.SyncEvent` stream
recorded by ``factorize_threaded(..., record_sync=True)`` together with
the task events and *proves* (or refutes) that every concurrent write
was ordered by a lock hand-off or a completion publish.

The model is a vector-clock happens-before relation over per-worker
operation sequences.  Operations are task executions and mutex hold
windows; edges are

* **program order** — operations of one worker, in time order;
* **lock hand-off** — consecutive disjoint hold windows of one lock
  object (two *overlapping* holds of one object are a mutual-exclusion
  violation and flagged directly);
* **publish order** — a DAG edge ``u -> v`` whose trace timestamps are
  consistent (``end(u) <= start(v) + tol``).

Checks:

* **C701 unordered conflicting write** — two tasks in one mutex group
  (scatter-adds into one facing panel) ran on different workers with
  no happens-before path between their write operations, or two hold
  windows of one lock object overlap in time;
* **C702 read of unpublished completion** — a task started before some
  predecessor's completion was published to the pool (its dependency
  counter was decremented on state the reader could not yet see);
* **C703 scatter outside the update lock** — a task in a mutex group
  has no hold window (and no accumulator flush, and no recorded "no
  contribution" no-op) on its own mutex object: the write happened
  outside the lock;
* **C704 accumulator flush racing its drain** — a batched update's
  completion was published before the batch's locked flush committed
  its contribution to the panel;
* **C705 lost wakeup** — a worker parked past the horizon while a task
  that had been ready since before the park sat unstarted until after
  the park ended (the runtime's park timeout bounds honest naps far
  below the horizon);
* **C706 lock-order cycle** — the nested-hold graph (lock A held while
  acquiring lock B) contains a cycle; the runtime's discipline is one
  lock at a time, so *any* nesting is already reported as a warning;
* **C707 sync provenance** — the ``sync_stats`` summary the engine
  stamped into ``trace.meta`` (event counts, lock-held/wait totals)
  must match what this pass recomputes from the events; a mismatch
  means the trace was edited after the run.

A trace without ``meta["sync_trace"]`` is not auditable (no lock
windows were recorded) — the pass reports that as an INFO finding and
abstains rather than guessing.
"""

from __future__ import annotations

from typing import Optional

from repro.dag.tasks import TaskDAG
from repro.runtime.tracing import ExecutionTrace, SyncEvent, TraceEvent
from repro.verify.report import INFO, WARNING, Report

__all__ = [
    "verify_concurrency",
    "drop_sync_event",
    "unlocked_scatter",
    "swallow_wakeup",
]

#: A park window at least this long, spanning a ready task's idle wait,
#: is a lost wakeup (C705).  The runtime's park timeout is 0.02 s, so an
#: honest nap never comes close.
PARK_HORIZON_S = 0.1


class _Op:
    """One operation in the happens-before model."""

    __slots__ = ("worker", "start", "end", "task", "obj", "index", "seq")

    def __init__(self, worker: int, start: float, end: float,
                 task: int, obj: Optional[str]) -> None:
        self.worker = worker
        self.start = start
        self.end = end
        self.task = task
        self.obj = obj          # lock object for hold ops, None for exec
        self.index = -1         # global index after sorting
        self.seq = 0            # per-worker sequence number (1-based)


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

    holds = [e for e in sync if e.kind == "lock"]
    flushes = [e for e in sync if e.kind == "flush"]
    noops = {e.task for e in sync if e.kind == "noop"}
    parks = [e for e in sync if e.kind == "park"]
    publish: dict[int, float] = {}
    for e in sync:
        if e.kind == "publish" and e.task >= 0:
            # Last publish wins (retries republish after re-execution).
            publish[e.task] = e.start
    report.stats["lock_windows"] = float(len(holds))
    report.stats["parks"] = float(len(parks))
    held = trace.lock_held_time()
    report.stats["lock_held_s"] = float(sum(held.values()))

    # ------------------------------------------------------- operations
    exec_of: dict[int, _Op] = {}
    ops: list[_Op] = []
    for ev in trace.sorted_events():
        w = _exec_worker(ev.resource)
        op = _Op(w, ev.start, ev.end, ev.task, None)
        ops.append(op)
        exec_of[ev.task] = op       # retries: the last (successful) run
    hold_ops: list[_Op] = []
    for e in holds:
        op = _Op(e.worker, e.start, e.end, e.task, e.obj)
        ops.append(op)
        hold_ops.append(op)
    ops.sort(key=lambda o: (o.start, o.end, o.worker, o.task))
    for i, op in enumerate(ops):
        op.index = i

    n_workers = max(
        int(trace.meta.get("n_workers", 0)),
        max((o.worker for o in ops), default=-1) + 1,
        1,
    )

    # ------------------------------------------------------------ edges
    in_edges: list[list[int]] = [[] for _ in ops]
    last_of_worker: list[int] = [-1] * n_workers
    for op in ops:
        if 0 <= op.worker < n_workers:
            prev = last_of_worker[op.worker]
            if prev >= 0:
                in_edges[op.index].append(prev)
            last_of_worker[op.worker] = op.index

    # Lock hand-off chains; overlapping holds of one object are a
    # direct mutual-exclusion violation (C701).
    by_obj: dict[str, list[_Op]] = {}
    for op in hold_ops:
        assert op.obj is not None
        by_obj.setdefault(op.obj, []).append(op)
    n_overlap = 0
    for obj, chain in sorted(by_obj.items()):
        chain.sort(key=lambda o: (o.start, o.end))
        for a, b in zip(chain, chain[1:]):
            if a.end <= b.start + tol:
                if a.index < b.index:
                    in_edges[b.index].append(a.index)
            elif a.task != b.task or a.worker != b.worker:
                n_overlap += 1
                if n_overlap <= max_reported:
                    report.add(
                        "C701",
                        f"two hold windows of {obj} overlap: task "
                        f"{a.task} on worker {a.worker} "
                        f"[{a.start:.6g}, {a.end:.6g}] vs task {b.task} "
                        f"on worker {b.worker} [{b.start:.6g}, "
                        f"{b.end:.6g}] — the mutex did not exclude",
                        tasks=(a.task, b.task),
                    )
    if n_overlap > max_reported:
        report.add("C701", f"... further {n_overlap - max_reported} "
                           "overlapping hold pair(s) suppressed")

    # Publish edges along timestamp-consistent DAG edges.
    for t, op in exec_of.items():
        if not 0 <= t < dag.n_tasks:
            continue
        for p in dag.predecessors(int(t)):
            pu = exec_of.get(int(p))
            if pu is not None and pu.end <= op.start + tol \
                    and pu.index < op.index:
                in_edges[op.index].append(pu.index)

    # ---------------------------------------------------- vector clocks
    clocks: list[list[int]] = [[0] * n_workers for _ in ops]
    seq_of_worker = [0] * n_workers
    for op in ops:
        vc = clocks[op.index]
        for j in in_edges[op.index]:
            other = clocks[j]
            for w in range(n_workers):
                if other[w] > vc[w]:
                    vc[w] = other[w]
        if 0 <= op.worker < n_workers:
            seq_of_worker[op.worker] += 1
            op.seq = seq_of_worker[op.worker]
            vc[op.worker] = op.seq

    def ordered(a: _Op, b: _Op) -> bool:
        if a.worker == b.worker and 0 <= a.worker:
            return True
        before = (0 <= a.worker < n_workers
                  and clocks[b.index][a.worker] >= a.seq)
        after = (0 <= b.worker < n_workers
                 and clocks[a.index][b.worker] >= b.seq)
        return before or after

    # ------------------------------------------- write-op per task (C703)
    # A task's write operation is its hold window if it has one, else
    # the hold window its accumulator flush committed under, else its
    # bare exec event (which C703 flags as unprotected).
    hold_of_task: dict[int, _Op] = {}
    for op in hold_ops:
        if op.task >= 0:
            hold_of_task[op.task] = op
    flush_window: dict[int, SyncEvent] = {}
    for e in flushes:
        flush_window[e.task] = e
    flush_hold: dict[int, _Op] = {}
    for t, e in flush_window.items():
        for op in by_obj.get(e.obj, ()):
            if op.worker == e.worker and abs(op.start - e.start) <= tol \
                    and abs(op.end - e.end) <= tol:
                flush_hold[t] = op
                break

    groups: dict[int, list[int]] = {}
    mutex = getattr(dag, "mutex", None)
    if mutex is not None:
        for t in range(dag.n_tasks):
            g = int(mutex[t])
            if g >= 0 and t in exec_of:
                groups.setdefault(g, []).append(t)

    n_c701 = n_c703 = 0
    for g, members in sorted(groups.items()):
        # The runtime's lock object of a mutex group is the facing panel
        # (a solve DAG has no groups: its shared accesses are ordered by
        # DAG edges alone, which C702 audits).
        obj = f"panel{g}"
        write_ops: list[tuple[int, _Op]] = []
        for t in members:
            if t in noops:
                continue                      # wrote nothing: exempt
            op = hold_of_task.get(t) or flush_hold.get(t)
            if op is None or op.obj != obj:
                n_c703 += 1
                if n_c703 <= max_reported:
                    where = (f"(hold on {op.obj!r} instead)" if op is not
                             None else "(no hold, flush, or no-op)")
                    report.add(
                        "C703",
                        f"task {t} writes mutex group {g} with no hold "
                        f"window on {obj} {where}: scatter outside the "
                        f"update lock",
                        tasks=(t,),
                    )
                op = exec_of[t]               # best effort for C701
            write_ops.append((t, op))
        # Pairwise happens-before across workers.  Hold windows of one
        # object chain into a total order, so surviving unordered pairs
        # are exactly the writes the lock discipline failed to cover.
        for i in range(len(write_ops)):
            ti, oi = write_ops[i]
            for j in range(i + 1, len(write_ops)):
                tj, oj = write_ops[j]
                if oi is oj or oi.worker == oj.worker:
                    continue
                if not ordered(oi, oj):
                    n_c701 += 1
                    if n_c701 <= max_reported:
                        report.add(
                            "C701",
                            f"conflicting writes to mutex group {g} "
                            f"({obj}) are not ordered: task {ti} "
                            f"(worker {oi.worker}) and task {tj} "
                            f"(worker {oj.worker}) have no "
                            f"happens-before path",
                            tasks=(ti, tj),
                        )
    if n_c701 > max_reported:
        report.add("C701", f"... further {n_c701 - max_reported} "
                           "unordered pair(s) suppressed")
    if n_c703 > max_reported:
        report.add("C703", f"... further {n_c703 - max_reported} "
                           "unprotected write(s) suppressed")

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

    # ------------------------------------------------------------- C704
    for t, e in sorted(flush_window.items()):
        pt = publish.get(t)
        if pt is not None and pt + tol < e.end:
            report.add(
                "C704",
                f"batched update {t}'s completion published at "
                f"t={pt:.6g}, before its accumulator flush committed "
                f"at t={e.end:.6g}: successors could read a panel "
                f"missing this contribution",
                tasks=(t,),
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

    # ------------------------------------------------------------- C706
    # Nested holds: worker held A while acquiring B.  The runtime's
    # discipline is one lock at a time, so nesting itself is warned;
    # a cycle in the nesting graph is a deadlock recipe and an error.
    nest: dict[str, set[str]] = {}
    by_worker: dict[int, list[_Op]] = {}
    for op in hold_ops:
        by_worker.setdefault(op.worker, []).append(op)
    for w, chain in sorted(by_worker.items()):
        chain.sort(key=lambda o: (o.start, o.end))
        open_stack: list[_Op] = []
        for op in chain:
            while open_stack and open_stack[-1].end <= op.start + tol:
                open_stack.pop()
            if open_stack:
                outer = open_stack[-1]
                assert outer.obj is not None and op.obj is not None
                if outer.obj != op.obj:
                    nest.setdefault(outer.obj, set()).add(op.obj)
                    report.add(
                        "C706",
                        f"worker {w} acquired {op.obj} while holding "
                        f"{outer.obj} (tasks {outer.task}, {op.task}); "
                        "the runtime's discipline is one lock at a time",
                        severity=WARNING,
                        tasks=(outer.task, op.task),
                    )
            open_stack.append(op)
    # Cycle detection over the nesting graph.
    state: dict[str, int] = {}
    cycle: list[str] = []

    def _dfs(node: str, path: list[str]) -> bool:
        state[node] = 1
        path.append(node)
        for nxt in sorted(nest.get(node, ())):
            if state.get(nxt, 0) == 1:
                cycle.extend(path[path.index(nxt):] + [nxt])
                return True
            if state.get(nxt, 0) == 0 and _dfs(nxt, path):
                return True
        path.pop()
        state[node] = 2
        return False

    for node in sorted(nest):
        if state.get(node, 0) == 0 and _dfs(node, []):
            report.add(
                "C706",
                "lock-order cycle: " + " -> ".join(cycle),
            )
            break

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

    report.stats["mutex_groups"] = float(len(groups))
    report.stats["hb_ops"] = float(len(ops))
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
    """Corrupt ``trace`` by deleting one lock-hold sync event.

    The stamped ``sync_stats`` no longer match the events, so the
    returned trace must fail C707 (and usually C703: the dropped hold
    uncovers its task's scatter).  Raises ``ValueError`` when the trace
    has no lock windows.
    """
    victim = next(
        (e for e in trace.sorted_sync_events() if e.kind == "lock"), None
    )
    if victim is None:
        raise ValueError("trace has no lock-hold sync events to drop")
    kept = [e for e in trace.sync_events if e is not victim]
    return _clone(trace, sync_events=kept)


def unlocked_scatter(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by retagging one panel hold window as a
    different lock object — the recorded scatter now ran outside its
    target's mutex.

    Counts and held-time totals are unchanged (C707 stays quiet); the
    returned trace must fail C703, and fails C701 too whenever program
    and publish order do not coincidentally serialize the pair.  Raises
    ``ValueError`` when no panel hold window exists.
    """
    sync = trace.sorted_sync_events()
    victim = next(
        (e for e in sync
         if e.kind == "lock"
         and e.obj.startswith("panel")
         and e.n == 1),
        None,
    )
    if victim is None:
        raise ValueError("trace has no single-task panel hold to retag")
    edited = [
        (SyncEvent(e.kind, e.worker, e.obj + ":phantom", e.task,
                   e.start, e.end, e.wait_s, e.n) if e is victim else e)
        for e in trace.sync_events
    ]
    return _clone(trace, sync_events=edited)


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
