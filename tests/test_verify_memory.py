"""M4xx memory-auditor tests.

Clean simulator traces must audit clean; each seeded corruption (a
dropped transfer, an inflated residency, a redundant re-send) must be
flagged with the offending task/panel pair; and the replay must stay
fast on a 10k+-task trace (the auditor runs inside benchmark sweeps).
"""

import time

import numpy as np
import pytest

from repro.dag import build_dag
from repro.kernels.cost import panel_bytes
from repro.machine import mirage, simulate
from repro.runtime import get_policy
from repro.runtime.tracing import ExecutionTrace
from repro.sparse.generators import grid_laplacian_2d
from repro.symbolic import SymbolicOptions, analyze
from repro.symbolic.structures import build_symbol
from repro.verify import drop_transfer, overflow_residency, verify_memory
from repro.verify.report import ERROR


def codes(rep):
    return [f.code for f in rep.findings]


def error_codes(rep):
    return [f.code for f in rep.findings if f.severity == ERROR]


# ----------------------------------------------------------------------
# Simulator-produced traces (end-to-end).
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def offloaded():
    """A (dag, trace, machine) triple whose schedule really uses a GPU."""
    matrix = grid_laplacian_2d(32, jitter=0.05, seed=0)
    res = analyze(matrix, SymbolicOptions(split_max_width=32))
    # The default threshold keeps this size CPU-only; force offload so
    # the trace carries transfers worth auditing.
    pol = get_policy("parsec", gpu_flops_threshold=1e3)
    dag = build_dag(res.symbol, "llt", granularity=pol.traits.granularity,
                    recompute_ld=pol.traits.recompute_ld)
    machine = mirage(n_cores=4, n_gpus=1, streams_per_gpu=2)
    r = simulate(dag, machine, pol)
    assert any(e.kind == "h2d" for e in r.trace.data_events)
    return dag, r.trace, machine, r


def test_clean_trace_audits_clean(offloaded):
    dag, trace, machine, _ = offloaded
    rep = verify_memory(dag, trace, machine)
    assert rep.ok, rep.format()
    assert rep.stats["h2d_transfers"] > 0
    assert rep.stats["bytes_h2d"] >= rep.stats["h2d_lower_bound"]


def test_auditor_agrees_with_simulator_counters(offloaded):
    dag, trace, machine, r = offloaded
    rep = verify_memory(dag, trace, machine)
    assert rep.stats["bytes_h2d"] == pytest.approx(r.bytes_h2d)
    assert rep.stats["bytes_d2h"] == pytest.approx(r.bytes_d2h)
    assert rep.stats["peak_gpu_bytes"] == pytest.approx(r.peak_gpu_bytes)


def test_cpu_only_trace_is_trivially_clean(offloaded):
    dag, _, _, _ = offloaded
    machine = mirage(n_cores=4, n_gpus=0)
    r = simulate(dag, machine, get_policy("parsec"))
    assert not r.trace.data_events
    rep = verify_memory(dag, r.trace, machine)
    assert rep.ok, rep.format()


def test_drop_transfer_caught_with_task_and_panel(offloaded):
    dag, trace, machine, _ = offloaded
    bad = drop_transfer(trace, dag)
    assert len(bad.data_events) == len(trace.data_events) - 1
    rep = verify_memory(dag, bad, machine)
    assert not rep.ok
    m401 = [f for f in rep.findings if f.code == "M401"]
    assert m401, rep.format()
    # The finding names a concrete task and the missing panel.
    assert m401[0].tasks and "panel" in m401[0].message


def test_overflow_residency_caught_with_gpu_and_panel(offloaded):
    dag, trace, machine, _ = offloaded
    bad = overflow_residency(trace, machine)
    rep = verify_memory(dag, bad, machine)
    assert "M402" in error_codes(rep), rep.format()
    m402 = next(f for f in rep.findings if f.code == "M402")
    assert "gpu" in m402.message and "panel" in m402.message


def test_memory_injections_trip_no_determinism_code(offloaded):
    """The corruptions touch only data movement: the provenance stamps
    and every transfer's ``seq`` survive, so D802/D805 stay quiet."""
    from repro.verify import verify_determinism

    dag, trace, machine, _ = offloaded
    for bad in (drop_transfer(trace, dag), overflow_residency(trace, machine)):
        rep = verify_determinism(lambda: bad, trace=bad, replay=False)
        assert rep.ok, rep.format()


def test_injections_refuse_transferless_traces(offloaded):
    dag, _, machine, _ = offloaded
    empty = ExecutionTrace()
    with pytest.raises(ValueError):
        drop_transfer(empty, dag)
    with pytest.raises(ValueError):
        overflow_residency(empty, machine)


def test_redundant_transfer_caught(offloaded):
    dag, trace, machine, _ = offloaded
    ev = next(e for e in trace.sorted_data_events() if e.kind == "h2d")
    bad = ExecutionTrace(events=list(trace.events))
    for e in trace.data_events:
        bad.record_data(e.kind, e.cblk, e.gpu, e.nbytes, e.start, e.end,
                        e.reason)
    # Re-send the same panel the instant its first copy lands: the
    # replay sees a valid copy resident and must count the waste.
    bad.record_data("h2d", ev.cblk, ev.gpu, ev.nbytes, ev.end, ev.end)
    rep = verify_memory(dag, bad, machine)
    assert "M403" in codes(rep), rep.format()
    assert rep.stats["redundant_bytes"] == pytest.approx(ev.nbytes)


def test_missing_total_traffic_caught(offloaded):
    """Deleting every h2d transfer trips the M404 traffic lower bound."""
    dag, trace, machine, _ = offloaded
    bad = ExecutionTrace(events=list(trace.events))
    for e in trace.data_events:
        if e.kind == "h2d":
            continue
        bad.record_data(e.kind, e.cblk, e.gpu, e.nbytes, e.start, e.end,
                        e.reason)
    rep = verify_memory(dag, bad, machine)
    found = error_codes(rep)
    assert "M404" in found and "M401" in found, rep.format()
    assert rep.stats["bytes_h2d"] == 0.0
    assert rep.stats["h2d_lower_bound"] > 0


def test_size_mismatch_is_warning_only(offloaded):
    dag, trace, machine, _ = offloaded
    ev = next(e for e in trace.sorted_data_events() if e.kind == "h2d")
    bad = ExecutionTrace(events=list(trace.events))
    for e in trace.data_events:
        nbytes = e.nbytes + 64.0 if e is ev else e.nbytes
        bad.record_data(e.kind, e.cblk, e.gpu, nbytes, e.start, e.end,
                        e.reason)
    rep = verify_memory(dag, bad, machine)
    assert "M405" in codes(rep)
    assert "M405" not in error_codes(rep)
    assert rep.ok  # warnings never gate


# ----------------------------------------------------------------------
# Scale: a 10k+-task trace audits in well under five seconds.
# ----------------------------------------------------------------------
def banded_symbol(n_cblk, width=8, band=3):
    snptr = np.arange(n_cblk + 1, dtype=np.int64) * width
    n = int(snptr[-1])
    rowsets = [
        np.arange(snptr[k + 1], snptr[min(k + 1 + band, n_cblk)],
                  dtype=np.int64)
        for k in range(n_cblk)
    ]
    return build_symbol(n, snptr, rowsets)


def synthetic_gpu_trace(dag, machine):
    """A hand-built trace running every update on gpu0, panels on cpu0.

    Not a feasible *schedule* (dependencies run backwards), but a
    memory-coherent event stream: every panel an update touches is
    fetched before the kernel starts, so the M4xx replay must come out
    clean.  Returns the trace.
    """
    from repro.dag.tasks import TaskKind

    pbytes = panel_bytes(dag.symbol, np.float64, dag.factotype)
    trace = ExecutionTrace()
    t = 0.0
    updates = []
    for task in range(dag.n_tasks):
        if int(dag.kind[task]) == TaskKind.UPDATE:
            updates.append(task)
        else:
            trace.record(task, "cpu0", t, t + 0.5)
            t += 1.0
    on_gpu: set[int] = set()
    for task in updates:
        for c in (int(dag.cblk[task]), int(dag.target[task])):
            if c not in on_gpu:
                trace.record_data("h2d", c, 0, float(pbytes[c]), t, t + 0.1)
                t += 0.1
                on_gpu.add(c)
        trace.record(task, "gpu0", t, t + 0.5)
        t += 1.0
    return trace


def test_memory_auditor_scales_to_10k_tasks():
    sym = banded_symbol(2700)
    dag = build_dag(sym, "llt")
    assert dag.n_tasks >= 10_000
    machine = mirage(n_cores=4, n_gpus=1)
    trace = synthetic_gpu_trace(dag, machine)

    t0 = time.perf_counter()
    rep = verify_memory(dag, trace, machine)
    clean_elapsed = time.perf_counter() - t0
    assert rep.ok, rep.format()

    # Seed a redundant re-send AND a residency overflow in one trace.
    ev = next(e for e in trace.sorted_data_events() if e.kind == "h2d")
    bad = ExecutionTrace(events=list(trace.events))
    for e in trace.data_events:
        bad.record_data(e.kind, e.cblk, e.gpu, e.nbytes, e.start, e.end,
                        e.reason)
    bad.record_data("h2d", ev.cblk, ev.gpu, ev.nbytes, ev.end, ev.end)
    bad = overflow_residency(bad, machine)

    t0 = time.perf_counter()
    rep = verify_memory(dag, bad, machine)
    elapsed = time.perf_counter() - t0
    found = error_codes(rep)
    assert "M403" in found and "M402" in found, rep.format()
    assert clean_elapsed + elapsed < 5.0, (
        f"audit took {clean_elapsed:.2f}s + {elapsed:.2f}s"
    )
