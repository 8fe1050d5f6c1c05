"""Execution-trace container tests (including violation detection).

Schedule feasibility itself is checked by :mod:`repro.verify.schedule`;
these tests exercise both ``ExecutionTrace.validate`` (which raises
``ScheduleError``) and the report-producing ``verify_schedule``.
"""

import numpy as np
import pytest

from repro.dag.tasks import TaskDAG, TaskKind
from repro.runtime.tracing import ExecutionTrace, TraceEvent
from repro.verify import ScheduleError, verify_schedule


def chain_dag(n=3):
    kind = np.zeros(n, dtype=np.int8)
    idx = np.arange(n, dtype=np.int64)
    succ_ptr = np.concatenate([np.arange(n, dtype=np.int64), [n - 1]])
    succ_list = np.arange(1, n, dtype=np.int64)
    mutex = np.full(n, -1, dtype=np.int64)
    return TaskDAG(kind, idx, idx, np.ones(n),
                   np.zeros(n, np.int64), np.zeros(n, np.int64),
                   np.zeros(n, np.int64), succ_ptr, succ_list, mutex, "2d")


def independent_dag(n=2, kind_value=TaskKind.PANEL, mutex_value=-1):
    kind = np.full(n, int(kind_value), dtype=np.int8)
    idx = np.arange(n, dtype=np.int64)
    return TaskDAG(kind, idx, idx, np.ones(n),
                   np.zeros(n, np.int64), np.zeros(n, np.int64),
                   np.zeros(n, np.int64),
                   np.zeros(n + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64),
                   np.full(n, mutex_value, dtype=np.int64), "2d")


def test_valid_trace_passes():
    dag = chain_dag()
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "cpu0", 1.0, 2.0)
    tr.record(2, "cpu1", 2.0, 3.0)
    tr.validate(dag)
    assert verify_schedule(dag, tr).ok
    assert tr.makespan == 3.0  # noqa: RV302 -- exact literals above


def test_missing_task_detected():
    dag = chain_dag()
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "cpu0", 1.0, 2.0)
    with pytest.raises(AssertionError, match="!= once"):
        tr.validate(dag)
    rep = verify_schedule(dag, tr)
    assert [f.code for f in rep.errors()] == ["S201"]
    assert 2 in rep.errors()[0].tasks


def test_double_execution_detected():
    dag = chain_dag(2)
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(0, "cpu1", 0.0, 1.0)
    tr.record(1, "cpu0", 1.0, 2.0)
    with pytest.raises(AssertionError):
        tr.validate(dag)
    assert any(f.code == "S201" for f in verify_schedule(dag, tr).errors())


def test_dependency_violation_detected():
    dag = chain_dag()
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "cpu1", 0.5, 1.5)  # starts before task 0 ends
    tr.record(2, "cpu1", 2.0, 3.0)
    with pytest.raises(AssertionError, match="dependency"):
        tr.validate(dag)
    rep = verify_schedule(dag, tr)
    assert any(f.code == "S203" and f.tasks == (0, 1) for f in rep.errors())


def test_overlap_on_cpu_detected():
    # Two independent tasks overlapping on one core.
    dag = independent_dag(2)
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "cpu0", 0.5, 1.5)
    with pytest.raises(AssertionError, match="overlap"):
        tr.validate(dag)
    rep = verify_schedule(dag, tr)
    assert [(f.code, f.tasks) for f in rep.errors()] == [("S204", (0, 1))]


def test_gpu_overlap_allowed():
    # Concurrent UPDATE kernels on one GPU's streams are fine; mutexes
    # differ so the scatter-add windows are into distinct panels.
    dag = independent_dag(2, kind_value=TaskKind.UPDATE)
    dag.mutex[:] = dag.target
    tr = ExecutionTrace()
    tr.record(0, "gpu0", 0.0, 1.0)
    tr.record(1, "gpu0", 0.5, 1.5)  # concurrent kernels: fine
    tr.validate(dag)
    assert verify_schedule(dag, tr).ok


def test_gpu_wrong_kind_detected():
    # A PANEL factorization must never be offloaded (paper §V-B).
    dag = chain_dag(2)
    tr = ExecutionTrace()
    tr.record(0, "gpu0", 0.0, 1.0)
    tr.record(1, "cpu0", 1.0, 2.0)
    with pytest.raises(AssertionError, match="GPU"):
        tr.validate(dag)
    rep = verify_schedule(dag, tr)
    assert [(f.code, f.tasks) for f in rep.errors()] == [("S206", (0,))]


def test_mutex_violation_detected():
    dag = independent_dag(2, kind_value=TaskKind.UPDATE, mutex_value=7)
    dag.target[:] = 7
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "gpu0", 0.5, 1.5)
    with pytest.raises(AssertionError, match="mutex"):
        tr.validate(dag)
    rep = verify_schedule(dag, tr)
    assert [(f.code, f.tasks) for f in rep.errors()] == [("S205", (0, 1))]


def test_negative_duration_and_unknown_task_detected():
    dag = independent_dag(2, kind_value=TaskKind.UPDATE)
    dag.mutex[:] = dag.target
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 1.0, 0.5)  # ends before it starts
    tr.record(1, "cpu1", 0.0, 1.0)
    tr.record(9, "cpu2", 0.0, 1.0)  # no such task
    rep = verify_schedule(dag, tr)
    codes = {f.code for f in rep.errors()}
    assert "S202" in codes and "S207" in codes


def test_schedule_error_carries_report():
    dag = chain_dag(2)
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    with pytest.raises(ScheduleError) as exc:
        tr.validate(dag)
    assert not exc.value.report.ok
    assert any(f.code == "S201" for f in exc.value.report.errors())


def test_sorted_events_and_resource_iteration():
    tr = ExecutionTrace()
    tr.record(2, "cpu1", 2.0, 3.0)
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "cpu0", 1.0, 2.0)
    assert [e.task for e in tr.sorted_events()] == [0, 1, 2]
    by_res = tr.events_by_resource()
    assert sorted(by_res) == ["cpu0", "cpu1"]
    assert [e.task for e in by_res["cpu0"]] == [0, 1]
    tr.record(0, "cpu1", 3.0, 4.0)
    by_task = tr.events_by_task()
    assert sorted(by_task) == [0, 1, 2]
    assert [e.resource for e in by_task[0]] == ["cpu0", "cpu1"]
    # Ties on start break by (end, task) so ordering is deterministic.
    tie = ExecutionTrace(events=[
        TraceEvent(5, "gpu0", 0.0, 2.0),
        TraceEvent(3, "gpu0", 0.0, 1.0),
        TraceEvent(4, "gpu0", 0.0, 1.0),
    ])
    assert [e.task for e in tie.sorted_events()] == [3, 4, 5]


def test_busy_time_and_resources():
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record(1, "cpu1", 0.0, 2.0)
    assert tr.busy_time() == {"cpu0": 1.0, "cpu1": 2.0}
    assert tr.resources() == ["cpu0", "cpu1"]


def test_gantt_renders():
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.0)
    txt = tr.gantt(width=20)
    assert "cpu0" in txt and "#" in txt


def test_csv_roundtrip(tmp_path):
    tr = ExecutionTrace()
    tr.record(0, "cpu0", 0.0, 1.25)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "task,resource,start,end"
    assert lines[1].startswith("0,cpu0,0.0,")


def test_chrome_trace_export(tmp_path):
    import json

    from repro.dag import build_dag
    from repro.machine import mirage, simulate
    from repro.runtime import get_policy
    from repro.sparse.generators import grid_laplacian_2d
    from repro.symbolic import analyze

    sym = analyze(grid_laplacian_2d(8, jitter=0.05, seed=3)).symbol
    dag = build_dag(sym, "llt")
    r = simulate(dag, mirage(n_cores=2, n_gpus=1), get_policy("parsec"))
    path = tmp_path / "trace.json"
    r.trace.to_chrome_trace(path, dag)
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    tasks = [e for e in events if e.get("cat") == "task"]
    assert len(tasks) == dag.n_tasks
    assert any(e["name"].startswith("panel") for e in tasks)
    assert any(e.get("cat") == "transfer" for e in events) or r.bytes_h2d == 0
    # metadata rows name each resource
    names = [e for e in events if e.get("ph") == "M"]
    assert any("cpu0" in str(e["args"]) for e in names)


# ----------------------------------------------------------------------
# Data-movement events (the M4xx auditor's input stream).
# ----------------------------------------------------------------------
def test_record_data_mirrors_transfers():
    tr = ExecutionTrace()
    tr.record_data("h2d", 3, 0, 1024.0, 0.0, 1.0)
    tr.record_data("d2h", 3, 0, 1024.0, 2.0, 3.0, reason="writeback")
    tr.record_data("evict", 3, 0, 1024.0, 4.0, 4.0, reason="capacity")
    assert len(tr.data_events) == 3
    # Transfers keep the legacy lane rows; evictions do not.
    assert [t.resource for t in tr.transfers] == ["link0:h2d", "link0:d2h"]
    ev = tr.data_events[0]
    assert (ev.kind, ev.cblk, ev.gpu, ev.reason) == ("h2d", 3, 0, "demand")


def test_bytes_moved_filters_by_kind():
    tr = ExecutionTrace()
    tr.record_data("h2d", 0, 0, 100.0, 0.0, 1.0)
    tr.record_data("h2d", 1, 1, 50.0, 0.0, 1.0)
    tr.record_data("d2h", 0, 0, 25.0, 1.0, 2.0)
    tr.record_data("evict", 1, 1, 50.0, 2.0, 2.0)
    assert tr.bytes_moved("h2d") == 150.0  # noqa: RV302 -- exact literals
    assert tr.bytes_moved("d2h") == 25.0   # noqa: RV302 -- exact literals
    assert tr.bytes_moved("evict") == 50.0  # noqa: RV302 -- exact literals


def test_sorted_data_events_order():
    tr = ExecutionTrace()
    tr.record_data("h2d", 5, 0, 1.0, 1.0, 2.0)
    tr.record_data("h2d", 2, 0, 1.0, 0.0, 2.0)
    tr.record_data("h2d", 9, 0, 1.0, 0.0, 1.0)
    # Ordered by (end, start, cblk): ties on end break by start.
    assert [e.cblk for e in tr.sorted_data_events()] == [9, 2, 5]


def test_copy_replaces_only_named_streams():
    tr = ExecutionTrace(meta={"producer": "test"})
    tr.record(0, "cpu0", 0.0, 1.0)
    tr.record_data("h2d", 3, 0, 8.0, 0.0, 1.0)
    tr.record_sync("publish", 0, "state", 0, 1.0, 1.0)
    out = tr.copy(events=[])
    assert out.events == [] and len(tr.events) == 1
    assert out.data_events == tr.data_events
    assert out.transfers == tr.transfers and out.sync_events == tr.sync_events
    assert out.meta == tr.meta and out.next_seq == tr.next_seq == 2
    # Every stream and meta are fresh containers: editing the copy
    # leaves the original alone.
    out.meta["producer"] = "edited"
    out.sync_events.clear()
    assert tr.meta["producer"] == "test" and len(tr.sync_events) == 1


def test_resource_index_and_sync_stats():
    from repro.runtime.tracing import resource_index, sync_stats

    assert resource_index("gpu3", "gpu") == 3
    assert resource_index("link0", "link") == 0
    assert resource_index("cpu3", "gpu") == -1
    assert resource_index("link0:h2d", "link") == -1
    tr = ExecutionTrace()
    tr.record_sync("lock", 0, "m", 1, 0.0, 0.5, wait_s=0.25)
    tr.record_sync("publish", 0, "state", 1, 0.5, 0.5)
    assert sync_stats(tr.sync_events) == {
        "counts": {"lock": 1, "publish": 1},
        "lock_held_s": 0.5, "lock_wait_s": 0.25,
    }
