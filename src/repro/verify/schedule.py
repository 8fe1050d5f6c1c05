"""Schedule/trace verifier: does an ExecutionTrace respect the DAG?

:meth:`repro.runtime.tracing.ExecutionTrace.validate` raises on what
this pass reports.  Given a :class:`~repro.dag.tasks.TaskDAG` and an
:class:`~repro.runtime.tracing.ExecutionTrace` it verifies:

* **completeness** — every task executes exactly once (``S201``), with
  a non-negative duration (``S202``);
* **happens-before** — no task starts before every predecessor has
  ended (``S203``);
* **resource exclusivity** — a CPU worker never runs two tasks at once
  (``S204``); GPU streams are shared by design and may overlap;
* **mutex windows** — tasks in one mutex group (scatter-adds into one
  facing panel) never overlap in time, on any resource (``S205``);
* **placement** — GPU resources only ever run UPDATE-kind tasks: panel
  factorizations stay on CPU, paper §V-B (``S206``); solve-phase DAGs
  never offload at all.

All comparisons use an absolute tolerance ``_TOL`` — simulated times are
floats and exact equality would misreport back-to-back events.  The
threaded engine's wall-clock traces pass the same checks: each worker
stamps its rows in order on one monotonic clock, and a successor is
pushed only after its predecessor's end was stamped.

Two fault injectors (``python -m repro verify --inject``) corrupt a
valid trace the way S204 and S205 exist to catch:
:func:`overlap_trace` and :func:`break_mutex`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.runtime.tracing import ExecutionTrace, TraceEvent
from repro.verify.report import Report

__all__ = ["verify_schedule", "ScheduleError", "overlap_trace", "break_mutex"]

_TOL = 1e-12


def _ft(x: float) -> str:
    """Format a (possibly numpy) time scalar for a finding message."""
    return f"{float(x):.9g}"


class ScheduleError(AssertionError):
    """Raised by :meth:`ExecutionTrace.validate`; carries the report."""

    def __init__(self, report: Report) -> None:
        super().__init__(report.format())
        self.report = report


def verify_schedule(dag: TaskDAG, trace: ExecutionTrace) -> Report:
    """Check ``trace`` against ``dag``; returns a :class:`Report`."""
    report = Report("schedule")
    n = dag.n_tasks
    report.stats["tasks"] = n
    report.stats["events"] = len(trace.events)

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
        if e.end < e.start - _TOL:
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
    bad = np.flatnonzero(start[tails] < end[heads] - _TOL)
    for i in bad:
        t, s = int(heads[i]), int(tails[i])
        report.add(
            "S203",
            f"dependency violated: {t} -> {s} "
            f"(succ starts {_ft(start[s])} before pred ends {_ft(end[t])})",
            tasks=(t, s),
        )
    report.stats["dependency_violations"] = int(bad.size)

    # Resource exclusivity: a CPU worker runs one task at a time; GPU
    # streams share their device by design.
    by_res = trace.events_by_resource()
    for res, evs in by_res.items():
        if not res.startswith("cpu"):
            continue
        for a, b in zip(evs, evs[1:]):
            if b.start < a.end - _TOL:
                report.add(
                    "S204",
                    f"overlap on {res}: tasks {a.task} and {b.task} "
                    f"([{_ft(a.start)}, {_ft(a.end)}] vs "
                    f"[{_ft(b.start)}, {_ft(b.end)}])",
                    tasks=(int(a.task), int(b.task)),
                )

    # GPU placement: only UPDATE tasks offload (facto); solve never does.
    for res, evs in by_res.items():
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
    groups: dict[int, list[int]] = {}
    for t in range(n):
        g = int(dag.mutex[t])
        if g >= 0:
            groups.setdefault(g, []).append(t)
    n_viol = 0
    for g, tasks in groups.items():
        tasks.sort(key=lambda t: (start[t], end[t]))
        for a, b in zip(tasks, tasks[1:]):
            if start[b] < end[a] - _TOL:
                n_viol += 1
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


def overlap_trace(trace: ExecutionTrace) -> ExecutionTrace:
    """Copy of ``trace`` with the second event of the busiest CPU worker
    shifted back onto the first: a double-booking of one worker (S204)."""
    by_res = trace.events_by_resource()
    cpu = max(
        (res for res in by_res if res.startswith("cpu")),
        key=lambda res: len(by_res[res]), default=None,
    )
    if cpu is None or len(by_res[cpu]) < 2:
        raise ValueError("trace has no CPU worker with two events to overlap")
    a, b = by_res[cpu][0], by_res[cpu][1]
    start = a.start + 0.25 * a.duration
    moved = replace(b, start=start, end=start + b.duration)
    return trace.copy(events=[moved if e is b else e for e in trace.events])


def break_mutex(trace: ExecutionTrace, dag: TaskDAG) -> ExecutionTrace:
    """Copy of ``trace`` with every update of the largest mutex group
    started at the same instant (S205)."""
    groups: dict[int, list[TraceEvent]] = {}
    for e in trace.events:
        g = int(dag.mutex[e.task])
        if g >= 0:
            groups.setdefault(g, []).append(e)
    big = max(groups.values(), key=len, default=[])
    if len(big) < 2:
        raise ValueError("trace has no mutex group with two tasks to overlap")
    t0 = min(e.start for e in big)
    moved = {e.task: replace(e, start=t0, end=t0 + e.duration) for e in big}
    return trace.copy(events=[moved.get(e.task, e) for e in trace.events])
