"""Schedule/trace verifier: does an ExecutionTrace respect the DAG?

Centralizes the feasibility checks that were previously scattered as
ad-hoc assertions through the tests and
:meth:`repro.runtime.tracing.ExecutionTrace.validate` (which now
delegates here).  Given a :class:`~repro.dag.tasks.TaskDAG` and an
:class:`~repro.runtime.tracing.ExecutionTrace` it verifies:

* **completeness** — every task executes exactly once (``S201``), with
  a non-negative duration (``S202``);
* **happens-before** — no task starts before every predecessor has
  ended (``S203``);
* **resource exclusivity** — an exclusive resource (CPU workers by
  default) never runs two tasks at once (``S204``); GPU streams are
  shared by design and may overlap;
* **mutex windows** — tasks in one mutex group (scatter-adds into one
  facing panel) never overlap in time, on any resource (``S205``);
* **placement** — GPU resources only ever run UPDATE-kind tasks: panel
  factorizations stay on CPU, paper §V-B (``S206``); solve-phase DAGs
  never offload at all;
* **provenance** — a trace stamped with a scheduler name
  (``trace.meta["scheduler"]``, written by the threaded engine) must
  name a registered policy (``S208``); an unknown name means the trace
  and the runtime registry drifted.  The name is surfaced in
  ``report.stats`` so benchmark sweeps can audit which policy produced
  each schedule.

All comparisons use an absolute tolerance ``tol`` — simulated times are
floats and exact equality would misreport back-to-back events.

Two fault injectors (``python -m repro verify --inject``) corrupt a
valid trace the way S204 and S205 exist to catch:
:func:`overlap_trace` and :func:`break_mutex`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.runtime.tracing import ExecutionTrace, TraceEvent
from repro.verify.report import Report

__all__ = ["verify_schedule", "assert_valid_schedule", "ScheduleError",
           "overlap_trace", "break_mutex"]


def _ft(x: float) -> str:
    """Format a (possibly numpy) time scalar for a finding message."""
    return f"{float(x):.9g}"


class ScheduleError(AssertionError):
    """Raised by :func:`assert_valid_schedule`; carries the report."""

    def __init__(self, report: Report) -> None:
        super().__init__(report.format())
        self.report = report


def verify_schedule(
    dag: TaskDAG,
    trace: ExecutionTrace,
    *,
    exclusive_resources: Optional[Iterable[str]] = None,
    check_mutex: bool = True,
    check_gpu_kind: bool = True,
    tol: float = 1e-12,
    max_reported: int = 50,
) -> Report:
    """Check ``trace`` against ``dag``; returns a :class:`Report`.

    ``exclusive_resources`` defaults to every resource whose name starts
    with ``"cpu"``; pass an explicit iterable (possibly empty) to
    override — the threaded engine's wall-clock traces, for instance,
    interleave records and are checked without exclusivity.
    """
    report = Report("schedule")
    n = dag.n_tasks
    report.stats["tasks"] = n
    report.stats["events"] = len(trace.events)

    # Provenance: the threaded engine stamps the scheduler that produced
    # the trace; audit the stamp against the registries (S208).
    sched = trace.meta.get("scheduler")
    if sched is not None:
        from repro.runtime import _POLICIES
        from repro.runtime.scheduling import THREAD_SCHEDULERS

        report.stats["scheduler"] = sched
        if sched not in THREAD_SCHEDULERS and sched not in _POLICIES \
                and sched != "static":
            report.add(
                "S208",
                f"trace records unknown scheduler {sched!r}; registered "
                f"thread schedulers: {sorted(THREAD_SCHEDULERS)}, "
                f"simulated policies: {sorted(_POLICIES)}",
            )

    seen = np.zeros(n, dtype=np.int64)
    start = np.full(n, np.nan)
    end = np.full(n, np.nan)
    for e in trace.events:
        if not 0 <= e.task < n:
            report.add("S207", f"trace names unknown task {e.task}",
                       tasks=(int(e.task),))
            continue
        seen[e.task] += 1
        start[e.task] = e.start
        end[e.task] = e.end
        if e.end < e.start - tol:
            report.add(
                "S202",
                f"task {e.task} ends before start "
                f"({_ft(e.end)} < {_ft(e.start)}) on {e.resource}",
                tasks=(int(e.task),),
            )
    wrong = np.flatnonzero(seen != 1)
    if wrong.size:
        sample = ", ".join(str(int(t)) for t in wrong[:10])
        report.add(
            "S201",
            f"tasks executed != once: [{sample}]"
            + (" ..." if wrong.size > 10 else "")
            + f" ({wrong.size} task(s))",
            tasks=tuple(int(t) for t in wrong[:10]),
        )
        # Times for unexecuted tasks are undefined; bail before deriving
        # ordering violations from NaNs.
        return report

    # Happens-before along every edge, vectorized.
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(dag.succ_ptr))
    tails = dag.succ_list
    bad = np.flatnonzero(start[tails] < end[heads] - tol)
    for i in bad[:max_reported]:
        t, s = int(heads[i]), int(tails[i])
        report.add(
            "S203",
            f"dependency violated: {t} -> {s} "
            f"(succ starts {_ft(start[s])} before pred ends {_ft(end[t])})",
            tasks=(t, s),
        )
    if bad.size > max_reported:
        report.add("S203", f"... {bad.size - max_reported} further "
                           "dependency violations suppressed")
    report.stats["dependency_violations"] = int(bad.size)

    # Resource exclusivity.
    excl = (
        set(exclusive_resources)
        if exclusive_resources is not None
        else {r for r in trace.resources() if r.startswith("cpu")}
    )
    for res, evs in trace.events_by_resource().items():
        if res not in excl:
            continue
        for a, b in zip(evs, evs[1:]):
            if b.start < a.end - tol:
                report.add(
                    "S204",
                    f"overlap on {res}: tasks {a.task} and {b.task} "
                    f"([{_ft(a.start)}, {_ft(a.end)}] vs "
                    f"[{_ft(b.start)}, {_ft(b.end)}])",
                    tasks=(int(a.task), int(b.task)),
                )

    # GPU placement: only UPDATE tasks offload (facto); solve never does.
    if check_gpu_kind:
        for res, evs in trace.events_by_resource().items():
            if not res.startswith("gpu"):
                continue
            for e in evs:
                kind = TaskKind(int(dag.kind[e.task]))
                if dag.phase != "facto" or kind != TaskKind.UPDATE:
                    report.add(
                        "S206",
                        f"{kind.name} task {e.task} ran on {res}; only "
                        "facto-phase UPDATE tasks may run on a GPU",
                        tasks=(int(e.task),),
                    )

    # Mutex windows: members of one group must not overlap in time.
    if check_mutex:
        groups: dict[int, list[int]] = {}
        for t in range(n):
            g = int(dag.mutex[t])
            if g >= 0:
                groups.setdefault(g, []).append(t)
        n_viol = 0
        for g, tasks in groups.items():
            tasks.sort(key=lambda t: (start[t], end[t]))
            for a, b in zip(tasks, tasks[1:]):
                if start[b] < end[a] - tol:
                    n_viol += 1
                    if n_viol <= max_reported:
                        report.add(
                            "S205",
                            f"mutex {g} violated by tasks {a}, {b}: "
                            f"scatter-add windows overlap "
                            f"([{_ft(start[a])}, {_ft(end[a])}] vs "
                            f"[{_ft(start[b])}, {_ft(end[b])}])",
                            tasks=(int(a), int(b)),
                        )
        report.stats["mutex_violations"] = n_viol

    return report


def assert_valid_schedule(
    dag: TaskDAG,
    trace: ExecutionTrace,
    *,
    exclusive_resources: Optional[Iterable[str]] = None,
    check_mutex: bool = True,
    check_gpu_kind: bool = True,
    tol: float = 1e-12,
) -> None:
    """Raise :class:`ScheduleError` (an ``AssertionError``) on violations."""
    report = verify_schedule(
        dag,
        trace,
        exclusive_resources=exclusive_resources,
        check_mutex=check_mutex,
        check_gpu_kind=check_gpu_kind,
        tol=tol,
    )
    if not report.ok:
        raise ScheduleError(report)


def overlap_trace(trace: ExecutionTrace) -> ExecutionTrace:
    """Copy of ``trace`` (task events and transfers) with the second
    event of the busiest CPU worker shifted back onto the first: a
    double-booking of one worker (S204)."""
    by_res = trace.events_by_resource()
    cpu = max(
        (res for res in by_res if res.startswith("cpu")),
        key=lambda res: len(by_res[res]), default=None,
    )
    if cpu is None or len(by_res[cpu]) < 2:
        raise ValueError("trace has no CPU worker with two events to overlap")
    a, b = by_res[cpu][0], by_res[cpu][1]
    start = a.start + 0.25 * a.duration
    moved = TraceEvent(b.task, b.resource, start, start + b.duration)
    return ExecutionTrace(
        events=[moved if e is b else e for e in trace.events],
        transfers=trace.transfers,
    )


def break_mutex(trace: ExecutionTrace, dag: TaskDAG) -> ExecutionTrace:
    """Copy of ``trace`` (task events and transfers) with every update of
    the largest mutex group started at the same instant (S205)."""
    groups: dict[int, list[TraceEvent]] = {}
    for e in trace.events:
        g = int(dag.mutex[e.task])
        if g >= 0:
            groups.setdefault(g, []).append(e)
    big = max(groups.values(), key=len, default=[])
    if len(big) < 2:
        raise ValueError("trace has no mutex group with two tasks to overlap")
    t0 = min(e.start for e in big)
    clones = {e.task: TraceEvent(e.task, e.resource, t0, t0 + e.duration)
              for e in big}
    return ExecutionTrace(
        events=[clones.get(e.task, e) for e in trace.events],
        transfers=trace.transfers,
    )
