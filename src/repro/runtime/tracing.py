"""Execution traces.

Produced by both the machine simulator and the threaded engine; consumed
by the tests (schedule-validity checking), the Gantt renderer, and the
benchmark reports.
"""

from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Optional

from repro.dag.tasks import TaskDAG

__all__ = [
    "TraceEvent",
    "DataEvent",
    "FaultEvent",
    "RecoveryEvent",
    "SyncEvent",
    "HealthEvent",
    "HedgeEvent",
    "ExecutionTrace",
    "META_FINGERPRINT_KEYS",
    "resource_index",
    "sync_stats",
]

#: DataEvent kinds.
H2D = "h2d"
D2H = "d2h"
EVICT = "evict"

#: ``meta`` keys that are run *provenance* (and therefore fingerprinted),
#: as opposed to measured statistics (timing-dependent, excluded).
META_FINGERPRINT_KEYS = (
    "producer",
    "clock",
    "policy",
    "n_workers",
    # Which DAG a threaded run executed ("unit"): task ids only mean
    # something against it (repro.dag.builder.dag_of_trace).
    "granularity",
    "fanin",
    "seed",
    "rng",
    "health",
)


@dataclass(frozen=True)
class TraceEvent:
    """One task execution: ``resource`` is e.g. ``"cpu3"`` or ``"gpu1"``.

    ``seq`` is the trace-global record sequence number stamped by
    :meth:`ExecutionTrace.record` — the order the producer *emitted*
    events, independent of their timestamps.  Simulators derive it from
    the same monotonic counters that break their heap ties, so the D8xx
    determinism auditor can check that simultaneous events have a total,
    reproducible order.  ``-1`` means "not stamped" (hand-built traces);
    it is excluded from equality so existing comparisons are unaffected.
    """

    task: int
    resource: str
    start: float
    end: float
    seq: int = field(default=-1, compare=False)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class DataEvent:
    """One data-movement event of the simulated memory system.

    ``kind`` is ``"h2d"``/``"d2h"`` for a PCIe transfer of panel ``cblk``
    over GPU ``gpu``'s link, or ``"evict"`` when the LRU device memory
    drops the panel (instantaneous: ``start == end``).  ``reason``
    records *why* the bytes moved — ``"demand"`` (a task needed them),
    ``"prefetch"`` (StarPU-style early fetch), ``"writeback"`` (newest
    copy pulled back to the host), or ``"capacity"`` (LRU eviction).
    The M4xx memory auditor replays these events against the task
    events, so the simulator must emit every residency change.
    """

    kind: str
    cblk: int
    gpu: int
    nbytes: float
    start: float
    end: float
    reason: str = "demand"

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class FaultEvent:
    """One injected (or observed) fault during an execution.

    ``kind`` names the failure mode — ``"worker-crash"``,
    ``"task-fault"``, ``"gpu-loss"``, ``"transfer-fail"``,
    ``"straggler"``, ``"node-fail"``, ``"message-loss"``,
    ``"task-error"`` (real threaded runtime).  ``task`` is the DAG task
    the fault hit (``-1`` for device/link-level faults); ``cblk`` the
    panel involved in a data fault (``-1`` otherwise).  The window
    ``[start, end]`` is the wall-clock span the failed attempt wasted;
    ``attempt`` counts retries of the same task/transfer (1-based) and
    ``nbytes`` the payload a failed transfer must re-send.  The R6xx
    resilience auditor pairs every fault with a :class:`RecoveryEvent`.
    """

    kind: str
    task: int
    cblk: int
    resource: str
    start: float
    end: float
    attempt: int = 1
    nbytes: float = 0.0


@dataclass(frozen=True)
class RecoveryEvent:
    """The runtime's answer to one :class:`FaultEvent`.

    ``kind`` names the recovery action — ``"requeue"`` (bounded task
    re-execution), ``"reroute-cpu"`` (GPU blacklist degradation),
    ``"retry-transfer"``, ``"restart"`` (node checkpoint/restart),
    ``"resend"`` (message retransmission), ``"absorb"`` (straggler
    tolerated in place).  ``time`` is when the decision was taken and
    ``delay_s`` the backoff the runtime imposed before the retry may
    start; pairing with the fault uses ``(task, cblk, attempt)``.
    """

    kind: str
    task: int
    cblk: int
    resource: str
    time: float
    attempt: int = 1
    delay_s: float = 0.0


@dataclass(frozen=True)
class SyncEvent:
    """One synchronization action of the real threaded runtime.

    ``kind`` names the action; ``worker`` the thread that performed it
    (``-1`` for the driver); ``obj`` the object involved; ``task`` the
    DAG task the action served (``-1`` when none).  ``[start, end]`` is
    the wall-clock window on the run's clock (instantaneous actions
    have ``start == end``).  The C7xx concurrency auditor replays these
    together with the task events:

    * ``"lock"`` — a mutex hold window: ``obj`` is the lock name,
      ``start`` the moment the lock was *acquired*, ``end`` its release,
      ``wait_s`` how long the acquire blocked, ``n`` how many writes the
      window covered (no task body of the threaded runtime takes a lock,
      so its runs report zero lock time);
    * ``"publish"`` — a task's completion became visible to the
      executor (dependency counters decremented);
    * ``"park"`` — a worker's idle episode of timed waits (``obj`` =
      ``"worker{w}"``);
    * ``"wake"`` — this worker signalled the executor's condition
      variable, ``obj`` = ``"pool"`` (instantaneous).
    """

    kind: str
    worker: int
    obj: str
    task: int
    start: float
    end: float
    wait_s: float = 0.0
    n: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class HealthEvent:
    """One health-state transition of a worker/node.

    ``resource`` names the monitored unit (``"cpu3"``, ``"n1"``);
    ``src``/``dst`` are states from
    :data:`repro.resilience.health.HEALTH_STATES` and every recorded
    pair must be a legal edge of the monitor's state machine (the R702
    audit).  ``time`` is when the transition was taken on the run's
    clock, ``ratio`` the EWMA slowdown estimate that drove it (observed
    duration over per-(kernel, size-bucket) expectation; ``0.0`` when
    the transition was time-driven), and ``reason`` a short tag
    (``"ewma"``, ``"probe"``, ``"probation"``, ``"relapse"``).
    Monitoring off ⇒ zero health events (the R705 identity).
    """

    resource: str
    src: str
    dst: str
    time: float
    ratio: float = 0.0
    reason: str = "ewma"


@dataclass(frozen=True)
class HedgeEvent:
    """One step of a speculative (hedged) re-execution.

    ``kind`` is ``"launch"`` (a duplicate of ``task`` started on
    ``resource`` because the primary attempt overstayed the hedge
    threshold on a suspect worker), ``"win"`` (the attempt on
    ``resource`` reached the commit gate first), or ``"cancel"`` (the
    losing attempt on ``resource`` was discarded — its side effects
    never committed).  ``primary`` names the resource of the original
    attempt.  The R704 audit requires every launch to resolve into
    exactly one win plus one cancel per launch, and R701 requires the
    task to commit exactly once.
    """

    kind: str
    task: int
    resource: str
    time: float
    primary: str = ""


def _hx(x: float) -> str:
    return float(x).hex()


#: Per stream, in fingerprint order: its canonical sort key (the
#: ``sorted_*`` views) and the :meth:`ExecutionTrace.fingerprint_lines`
#: rendering of one event.
_STREAMS: dict[str, tuple[Callable[[Any], tuple], Callable[[Any], str]]] = {
    "events": (
        lambda e: (e.start, e.end, e.task),
        lambda e: f"ev|{e.task}|{e.resource}|{_hx(e.start)}|{_hx(e.end)}|{e.seq}"),
    "transfers": (
        lambda e: (e.start, e.end, e.resource, e.task),
        lambda e: f"tr|{e.task}|{e.resource}|{_hx(e.start)}|{_hx(e.end)}|{e.seq}"),
    "data_events": (
        lambda d: (d.end, d.start, d.cblk),
        lambda d: (f"da|{d.kind}|{d.cblk}|{d.gpu}|{d.nbytes!r}|{_hx(d.start)}|"
                   f"{_hx(d.end)}|{d.reason}")),
    "fault_events": (
        lambda f: (f.end, f.start, f.task),
        lambda f: (f"fa|{f.kind}|{f.task}|{f.cblk}|{f.resource}|{_hx(f.start)}|"
                   f"{_hx(f.end)}|{f.attempt}|{f.nbytes!r}")),
    "recovery_events": (
        lambda r: (r.time, r.task, r.attempt),
        lambda r: (f"re|{r.kind}|{r.task}|{r.cblk}|{r.resource}|{_hx(r.time)}|"
                   f"{r.attempt}|{r.delay_s!r}")),
    "sync_events": (
        lambda s: (s.start, s.end, s.worker, s.obj),
        lambda s: (f"sy|{s.kind}|{s.worker}|{s.obj}|{s.task}|{_hx(s.start)}|"
                   f"{_hx(s.end)}|{s.wait_s!r}|{s.n}")),
    "health_events": (
        lambda h: (h.time, h.resource, h.src, h.dst),
        lambda h: (f"he|{h.resource}|{h.src}|{h.dst}|{_hx(h.time)}|{h.ratio!r}|"
                   f"{h.reason}")),
    "hedge_events": (
        lambda g: (g.time, g.task, g.kind, g.resource),
        lambda g: (f"hg|{g.kind}|{g.task}|{g.resource}|{g.primary}|"
                   f"{_hx(g.time)}")),
}


def _sorted_view(stream: str) -> Callable[["ExecutionTrace"], list]:
    def view(self: "ExecutionTrace") -> list:
        return sorted(getattr(self, stream), key=_STREAMS[stream][0])

    view.__doc__ = f"``{stream}`` in canonical order (the audits' view)."
    return view


def resource_index(resource: str, kind: str) -> int:
    """Index of a ``kind`` resource (``resource_index("gpu3", "gpu") ==
    3``); ``-1`` when ``resource`` is not ``kind`` plus an integer."""
    if resource.startswith(kind):
        try:
            return int(resource[len(kind):])
        except ValueError:
            pass
    return -1


def sync_stats(events: Iterable[SyncEvent]) -> dict:
    """Counts per kind plus total lock-held/lock-wait seconds of ``events``:
    what the threaded engine stamps into ``meta["sync_stats"]`` and the
    C707 audit recounts."""
    counts: dict[str, int] = {}
    held = wait = 0.0
    for e in events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
        if e.kind == "lock":
            held += e.duration
            wait += e.wait_s
    return {"counts": counts, "lock_held_s": held, "lock_wait_s": wait}


@dataclass
class ExecutionTrace:
    """A complete schedule: task executions plus optional transfers.

    ``meta`` carries producer-side provenance — the simulators stamp
    their ``policy``, the threaded engine its ``n_workers`` — so the
    verifiers and the benchmark reports know what made the schedule
    without re-deriving it from timings.
    """

    events: list[TraceEvent] = field(default_factory=list)
    transfers: list[TraceEvent] = field(default_factory=list)
    data_events: list[DataEvent] = field(default_factory=list)
    fault_events: list[FaultEvent] = field(default_factory=list)
    recovery_events: list[RecoveryEvent] = field(default_factory=list)
    sync_events: list[SyncEvent] = field(default_factory=list)
    health_events: list[HealthEvent] = field(default_factory=list)
    hedge_events: list[HedgeEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: Next record-order sequence number (see :attr:`TraceEvent.seq`).
    next_seq: int = 0

    def _stamp_seq(self) -> int:
        s = self.next_seq
        self.next_seq = s + 1
        return s

    def copy(self, **streams: Any) -> "ExecutionTrace":
        """Copy of the trace — every stream, ``meta`` and ``next_seq`` —
        with only the fields named in ``streams`` replaced."""
        kept = {f.name: shallow_copy(getattr(self, f.name)) for f in fields(self)
                if f.name not in streams}
        return replace(self, **kept, **streams)

    def record(self, task: int, resource: str, start: float, end: float) -> None:
        self.events.append(
            TraceEvent(task, resource, start, end, self._stamp_seq())
        )

    def record_transfer(self, tag: int, resource: str, start: float, end: float) -> None:
        self.transfers.append(
            TraceEvent(tag, resource, start, end, self._stamp_seq())
        )

    def record_data(
        self,
        kind: str,
        cblk: int,
        gpu: int,
        nbytes: float,
        start: float,
        end: float,
        reason: str = "demand",
    ) -> None:
        """Record one data-movement event (see :class:`DataEvent`).

        Transfers additionally keep the legacy ``transfers`` row (one
        ``link{gpu}:{kind}`` lane) so the Gantt/Chrome renderers keep
        working unchanged; evictions only appear in ``data_events``.
        """
        self.data_events.append(
            DataEvent(kind, cblk, gpu, nbytes, start, end, reason)
        )
        if kind in (H2D, D2H):
            self.record_transfer(cblk, f"link{gpu}:{kind}", start, end)

    def record_fault(
        self,
        kind: str,
        task: int,
        cblk: int,
        resource: str,
        start: float,
        end: float,
        attempt: int = 1,
        nbytes: float = 0.0,
    ) -> None:
        """Record one fault (see :class:`FaultEvent`)."""
        self.fault_events.append(
            FaultEvent(kind, task, cblk, resource, start, end, attempt, nbytes)
        )

    def record_recovery(
        self,
        kind: str,
        task: int,
        cblk: int,
        resource: str,
        time: float,
        attempt: int = 1,
        delay_s: float = 0.0,
    ) -> None:
        """Record one recovery action (see :class:`RecoveryEvent`)."""
        self.recovery_events.append(
            RecoveryEvent(kind, task, cblk, resource, time, attempt, delay_s)
        )

    def record_sync(
        self,
        kind: str,
        worker: int,
        obj: str,
        task: int,
        start: float,
        end: float,
        wait_s: float = 0.0,
        n: int = 1,
    ) -> None:
        """Record one synchronization action (see :class:`SyncEvent`)."""
        self.sync_events.append(
            SyncEvent(kind, worker, obj, task, start, end, wait_s, n)
        )

    def record_health(
        self,
        resource: str,
        src: str,
        dst: str,
        time: float,
        ratio: float = 0.0,
        reason: str = "ewma",
    ) -> None:
        """Record one health-state transition (see :class:`HealthEvent`)."""
        self.health_events.append(
            HealthEvent(resource, src, dst, time, ratio, reason)
        )

    def record_hedge(
        self,
        kind: str,
        task: int,
        resource: str,
        time: float,
        primary: str = "",
    ) -> None:
        """Record one hedged-execution step (see :class:`HedgeEvent`)."""
        self.hedge_events.append(
            HedgeEvent(kind, task, resource, time, primary)
        )

    def bytes_moved(self, kind: str) -> float:
        """Total transferred bytes of one kind (``"h2d"`` or ``"d2h"``)."""
        return sum(e.nbytes for e in self.data_events if e.kind == kind)

    # ------------------------------------------------------------------
    def fingerprint_lines(self) -> list[str]:
        """Canonical line-per-fact rendering backing :meth:`fingerprint`.

        The D8xx determinism auditor diffs these lines directly to
        localize the first divergence between two runs, so the rendering
        must be stable: events are listed in their canonical sorted
        order, times as ``float.hex()`` (no rounding), and only the
        provenance subset of ``meta`` (:data:`META_FINGERPRINT_KEYS`)
        is included — measured statistics would differ run to run.

        Two clock domains (``meta["clock"]``):

        * ``"virtual"`` (simulators, the default) — simulated time is
          part of the deterministic contract, so every event tuple
          enters verbatim, including its record-order ``seq`` stamp:
          a tie resolved differently *is* a divergence;
        * ``"wall"`` (the real threaded runtime) — wall-clock timings
          and thread placement legitimately vary run to run, so only
          the order-insensitive deterministic content enters: the
          sorted set of executed tasks and the fault/recovery
          *decisions* ``(kind, task, cblk, attempt)``.  Health events
          are *excluded* in this domain: health monitoring is
          simulated only, and a detector fed wall durations would
          legitimately differ between same-seed replays.
        """
        import json

        clock = str(self.meta.get("clock", "virtual"))
        lines = [f"clock={clock}"]
        for key in META_FINGERPRINT_KEYS:
            if key in self.meta:
                val = json.dumps(self.meta[key], sort_keys=True, default=str)
                lines.append(f"meta:{key}={val}")
        if clock == "wall":
            tasks = ",".join(str(t) for t in sorted(e.task for e in self.events))
            lines.append(f"tasks={tasks}")
            lines.extend(sorted(
                f"fa|{e.kind}|{e.task}|{e.cblk}|{e.attempt}"
                for e in self.fault_events
            ))
            lines.extend(sorted(
                f"re|{e.kind}|{e.task}|{e.cblk}|{e.attempt}"
                for e in self.recovery_events
            ))
            return lines
        for stream, (key, render) in _STREAMS.items():
            lines.extend(render(e) for e in sorted(getattr(self, stream), key=key))
        return lines

    def fingerprint(self) -> str:
        """Order-sensitive sha256 digest of the canonical trace content.

        Two same-seed runs of any simulator must produce identical
        fingerprints (the D801 replay check); any reordering of
        simultaneous events, dropped tie-break, or edited provenance
        changes the digest.  See :meth:`fingerprint_lines` for what is
        (and deliberately is not) covered per clock domain.
        """
        import hashlib

        h = hashlib.sha256()
        for line in self.fingerprint_lines():
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def busy_time(self) -> dict[str, float]:
        """Total busy seconds per resource."""
        out: dict[str, float] = {}
        for e in self.events:
            out[e.resource] = out.get(e.resource, 0.0) + e.duration
        return out

    def resources(self) -> list[str]:
        return sorted({e.resource for e in self.events})

    sorted_events = _sorted_view("events")
    sorted_data_events = _sorted_view("data_events")
    sorted_fault_events = _sorted_view("fault_events")
    sorted_recovery_events = _sorted_view("recovery_events")
    sorted_sync_events = _sorted_view("sync_events")
    sorted_health_events = _sorted_view("health_events")
    sorted_hedge_events = _sorted_view("hedge_events")

    def _group(self, attr: str) -> dict:
        out: dict = {}
        for e in self.sorted_events():
            out.setdefault(getattr(e, attr), []).append(e)
        return out

    def events_by_resource(self) -> dict[str, list[TraceEvent]]:
        """Per-resource event lists, each sorted by (start, end, task)."""
        return self._group("resource")

    def events_by_task(self) -> dict[int, list[TraceEvent]]:
        """Per-task event lists (retries and duplicates included), each
        sorted by (start, end, task)."""
        return self._group("task")

    # ------------------------------------------------------------------
    def validate(self, dag: TaskDAG) -> None:
        """Raise :class:`repro.verify.schedule.ScheduleError` (an
        ``AssertionError`` carrying the report) unless
        :func:`repro.verify.schedule.verify_schedule` accepts the trace:
        every task exactly once, happens-before on every edge, CPU
        workers never double-booked, GPU placement restricted to UPDATE
        tasks, mutex windows disjoint."""
        from repro.verify.schedule import ScheduleError, verify_schedule

        report = verify_schedule(dag, self)
        if not report.ok:
            raise ScheduleError(report)

    # ------------------------------------------------------------------
    def gantt(self, *, width: int = 100) -> str:
        """ASCII Gantt chart (one row per resource)."""
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        lines = []
        for res in self.resources():
            row = [" "] * width
            for e in self.events:
                if e.resource != res:
                    continue
                a = int(e.start / span * (width - 1))
                b = max(a + 1, int(e.end / span * (width - 1)))
                for i in range(a, min(b, width)):
                    row[i] = "#"
            lines.append(f"{res:>6} |{''.join(row)}|")
        lines.append(f"{'':>6}  makespan = {span:.6f} s")
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """Dump events as CSV (task,resource,start,end)."""
        with open(path, "w") as fh:
            fh.write("task,resource,start,end\n")
            for e in self.events:
                fh.write(f"{e.task},{e.resource},{e.start!r},{e.end!r}\n")

    def to_chrome_trace(self, path, dag: Optional[TaskDAG] = None) -> None:
        """Write the schedule in Chrome trace-event format.

        Open the file at ``chrome://tracing`` or https://ui.perfetto.dev
        to inspect the schedule interactively.  When ``dag`` is given,
        events are labelled with task kind and panel indices; transfers
        appear on their own link rows.
        """
        import json

        def label(task: int) -> str:
            if dag is None:
                return f"task {task}"
            from repro.dag.tasks import TaskKind

            kind = TaskKind(int(dag.kind[task]))
            if kind == TaskKind.UPDATE:
                return f"update {dag.cblk[task]}->{dag.target[task]}"
            if kind == TaskKind.SUBTREE:
                return f"subtree @{dag.cblk[task]}"
            return f"panel {dag.cblk[task]}"

        rows = sorted({e.resource for e in self.events}
                      | {e.resource for e in self.transfers})
        tid = {r: i for i, r in enumerate(rows)}
        events = []
        for r, i in tid.items():
            events.append({
                "name": "thread_name", "ph": "M", "pid": 0, "tid": i,
                "args": {"name": r},
            })
        for e in self.events:
            events.append({
                "name": label(e.task),
                "cat": "task",
                "ph": "X",
                "pid": 0,
                "tid": tid[e.resource],
                "ts": e.start * 1e6,
                "dur": max(e.duration * 1e6, 0.01),
                "args": {"task": e.task},
            })
        for e in self.transfers:
            events.append({
                "name": e.resource,
                "cat": "transfer",
                "ph": "X",
                "pid": 0,
                "tid": tid[e.resource],
                "ts": e.start * 1e6,
                "dur": max(e.duration * 1e6, 0.01),
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
