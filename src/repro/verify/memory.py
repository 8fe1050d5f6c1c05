"""Memory & data-movement auditor (M4xx): replay a trace's data events.

The simulator's device memory is a model the rest of the repo *trusts* —
the Figure 2/4 GFlop/s numbers assume the transfer volumes and residency
decisions it reports are coherent.  This pass re-checks that trust from
the :class:`~repro.runtime.tracing.ExecutionTrace` alone: it replays the
``data_events`` stream (h2d/d2h/evict) against the task events and the
DAG, maintaining its own per-GPU residency ledger, independent of the
simulator internals that produced the trace.

Checks:

* **M401 residency at start** — every GPU task's source and facing
  panels hold a valid device copy when the kernel starts;
* **M402 capacity** — per-GPU reserved bytes (copies in flight or
  resident) never exceed :class:`~repro.machine.model.GpuSpec` memory;
* **M403 redundant traffic** — no panel is re-transferred to a device
  that still holds a valid copy of it (reported with the bytes wasted);
* **M404 traffic lower bound** — observed host→device traffic is at
  least the statically derived per-panel lower bound: every distinct
  panel a GPU task touches must cross the PCIe link at least once;
* **M405 size mismatch** — a transfer's byte count disagrees with the
  symbolic per-panel storage (:func:`repro.kernels.cost.panel_bytes`);
  warning severity, since inflated volumes are modelling drift rather
  than a schedule-correctness bug.

The replay distinguishes *reserved* bytes (device memory allocated to a
panel: counted from transfer initiation, exactly when the simulator's
LRU reserves space) from *valid* copies (usable data: counted from
transfer completion).  Writes are derived from the DAG — a task writes
its ``target`` panel, and non-UPDATE tasks also (re)write their own
panel — so the invalidation logic here shares no code with the
simulator's MSI bookkeeping.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.kernels.cost import panel_bytes
from repro.machine.model import MachineSpec
from repro.runtime.tracing import DataEvent, ExecutionTrace, resource_index
from repro.verify.report import Report, WARNING

__all__ = ["verify_memory", "drop_transfer", "overflow_residency"]

# Replay priorities at equal timestamps: transfer completions land
# before evictions, evictions before task starts, task ends before the
# transfers they trigger.  This mirrors the simulator's causal order
# (a kernel only starts once its fetches completed).
_PRI_H2D_END = 0
_PRI_EVICT = 1
_PRI_TASK_START = 2
_PRI_TASK_END = 3
_PRI_XFER_START = 4


def verify_memory(
    dag: TaskDAG,
    trace: ExecutionTrace,
    machine: MachineSpec,
    *,
    dtype=np.float64,
) -> Report:
    """Audit ``trace``'s data movement against ``dag`` and ``machine``."""
    report = Report("memory")
    pbytes = panel_bytes(dag.symbol, dtype, dag.factotype)
    limit = float(machine.gpu.memory_bytes)
    n = dag.n_tasks

    # ------------------------------------------------------------------
    # Build the merged replay stream.  Each entry:
    #   (time, priority, payload...)
    # ------------------------------------------------------------------
    stream: list[tuple] = []
    n_h2d = n_d2h = n_evict = 0
    bytes_h2d = bytes_d2h = 0.0
    for ev in trace.data_events:
        if ev.kind == "h2d":
            n_h2d += 1
            bytes_h2d += ev.nbytes
            stream.append((ev.start, _PRI_XFER_START, "h2d0", ev))
            stream.append((ev.end, _PRI_H2D_END, "h2d1", ev))
        elif ev.kind == "d2h":
            n_d2h += 1
            bytes_d2h += ev.nbytes
            # Writebacks copy device->host; device residency unchanged.
            stream.append((ev.start, _PRI_XFER_START, "d2h0", ev))
        elif ev.kind == "evict":
            n_evict += 1
            stream.append((ev.start, _PRI_EVICT, "evict", ev))
        else:
            report.add("M405", f"unknown data-event kind {ev.kind!r} "
                               f"for panel {ev.cblk}")
    for te in trace.events:
        if not 0 <= te.task < n:
            continue  # S207 territory; the schedule pass reports it
        stream.append((te.start, _PRI_TASK_START, "t0", te))
        stream.append((te.end, _PRI_TASK_END, "t1", te))
    stream.sort(key=lambda e: (e[0], e[1]))

    # ------------------------------------------------------------------
    # Replay.
    # ------------------------------------------------------------------
    n_gpus = machine.n_gpus
    reserved: list[dict[int, float]] = [{} for _ in range(n_gpus)]
    reserved_bytes = [0.0] * n_gpus
    peak_bytes = [0.0] * n_gpus
    valid: list[set[int]] = [set() for _ in range(n_gpus)]
    redundant_bytes = 0.0

    for entry in stream:
        when, _, tag, ev = entry
        if tag in ("h2d0", "d2h0"):
            g = ev.gpu
            if not 0 <= g < n_gpus:
                report.add("M402", f"transfer names unknown gpu{g} "
                                   f"(panel {ev.cblk})")
                continue
            expect = float(pbytes[ev.cblk])
            if abs(ev.nbytes - expect) > 0.5:
                report.add(
                    "M405",
                    f"{ev.kind} of panel {ev.cblk} moved "
                    f"{ev.nbytes:.0f} B but the symbol says the panel is "
                    f"{expect:.0f} B",
                    severity=WARNING,
                )
            if tag == "d2h0":
                continue
            # h2d start: redundant-traffic check, then reserve space.
            if ev.cblk in valid[g]:
                redundant_bytes += ev.nbytes
                report.add(
                    "M403",
                    f"redundant transfer: panel {ev.cblk} re-sent to "
                    f"gpu{g} at t={when:.6g} while a valid copy was "
                    f"resident ({ev.nbytes:.0f} B wasted)",
                )
            if ev.cblk not in reserved[g]:
                reserved[g][ev.cblk] = ev.nbytes
                reserved_bytes[g] += ev.nbytes
                if reserved_bytes[g] > peak_bytes[g]:
                    peak_bytes[g] = reserved_bytes[g]
                if reserved_bytes[g] > limit:
                    report.add(
                        "M402",
                        f"gpu{g} over capacity at t={when:.6g}: panel "
                        f"{ev.cblk} brings resident bytes to "
                        f"{reserved_bytes[g]:.0f} > {limit:.0f}",
                    )
        elif tag == "h2d1":
            g = ev.gpu
            # Only copies still holding their reservation become valid —
            # a prefetch evicted (or invalidated) mid-flight delivers
            # bytes nobody may read.
            if 0 <= g < n_gpus and ev.cblk in reserved[g]:
                valid[g].add(ev.cblk)
        elif tag == "evict":
            g = ev.gpu
            if not 0 <= g < n_gpus:
                continue
            nb = reserved[g].pop(ev.cblk, None)
            if nb is not None:
                reserved_bytes[g] -= nb
            valid[g].discard(ev.cblk)
        elif tag == "t0":
            g = resource_index(ev.resource, "gpu")
            if g < 0:
                continue
            for cblk, role in (
                (int(dag.cblk[ev.task]), "source"),
                (int(dag.target[ev.task]), "facing"),
            ):
                if g >= n_gpus or cblk not in valid[g]:
                    report.add(
                        "M401",
                        f"task {ev.task} started on gpu{g} at "
                        f"t={when:.6g} without a valid device copy of "
                        f"its {role} panel {cblk}",
                        tasks=(int(ev.task),),
                    )
        elif tag == "t1":
            g = resource_index(ev.resource, "gpu")
            kind = TaskKind(int(dag.kind[ev.task]))
            writes = {int(dag.target[ev.task])}
            if kind != TaskKind.UPDATE:
                writes.add(int(dag.cblk[ev.task]))
            if g >= 0:
                # GPU write: this device holds the only valid copy.
                # Stale copies elsewhere lose validity but their bytes
                # stay allocated until evicted (matching real runtimes).
                for cblk in sorted(writes):
                    for i in range(n_gpus):
                        if i != g:
                            valid[i].discard(cblk)
                    if g < n_gpus:
                        valid[g].add(cblk)
            else:
                # CPU write: device copies are invalidated and freed.
                for cblk in sorted(writes):
                    for i in range(n_gpus):
                        valid[i].discard(cblk)
                        nb = reserved[i].pop(cblk, None)
                        if nb is not None:
                            reserved_bytes[i] -= nb

    # ------------------------------------------------------------------
    # M404: static per-panel lower bound on h2d traffic.
    # ------------------------------------------------------------------
    touched: set[int] = set()
    for te in trace.events:
        if resource_index(te.resource, "gpu") >= 0 and 0 <= te.task < n:
            touched.add(int(dag.cblk[te.task]))
            touched.add(int(dag.target[te.task]))
    lower_bound = float(sum(pbytes[c] for c in sorted(touched)))
    if bytes_h2d < lower_bound - 0.5:
        report.add(
            "M404",
            f"observed h2d traffic {bytes_h2d:.0f} B is below the "
            f"symbolic lower bound {lower_bound:.0f} B ({len(touched)} "
            "distinct panels must each cross the link at least once)",
        )

    report.stats["data_events"] = len(trace.data_events)
    report.stats["h2d_transfers"] = n_h2d
    report.stats["d2h_transfers"] = n_d2h
    report.stats["evictions"] = n_evict
    report.stats["bytes_h2d"] = bytes_h2d
    report.stats["bytes_d2h"] = bytes_d2h
    report.stats["h2d_lower_bound"] = lower_bound
    report.stats["redundant_bytes"] = redundant_bytes
    report.stats["peak_gpu_bytes"] = max(peak_bytes, default=0.0)
    return report


# ----------------------------------------------------------------------
# Fault injections (for --inject self-tests)
# ----------------------------------------------------------------------
def drop_transfer(trace: ExecutionTrace, dag: TaskDAG) -> ExecutionTrace:
    """Remove one h2d transfer a later GPU task depends on.

    Picks the first h2d event whose panel is read by a GPU task starting
    at-or-after the transfer completes, and deletes it and its
    ``transfers`` row — M401 must then flag that task/panel pair (and
    usually M404 notices the missing bytes too).  Returns a new trace;
    the input is not modified.
    """
    gpu_events = sorted(
        (te for te in trace.events if resource_index(te.resource, "gpu") >= 0),
        key=lambda te: (te.start, te.end),
    )
    victim = None
    for ev in trace.sorted_data_events():
        if ev.kind != "h2d":
            continue
        # The earliest dependent kernel: it starts after this transfer
        # completes and before any re-transfer could restore validity.
        for te in gpu_events:
            if te.start < ev.end or resource_index(te.resource, "gpu") != ev.gpu:
                continue
            if ev.cblk in (int(dag.cblk[te.task]), int(dag.target[te.task])):
                victim = ev
                break
        if victim is not None:
            break
    if victim is None:
        raise ValueError("trace has no h2d transfer feeding a GPU task; "
                         "run with at least one GPU")
    row = (victim.cblk, f"link{victim.gpu}:h2d", victim.start, victim.end)
    return trace.copy(
        data_events=[ev for ev in trace.data_events if ev is not victim],
        transfers=[t for t in trace.transfers
                   if (t.task, t.resource, t.start, t.end) != row],
    )


def overflow_residency(
    trace: ExecutionTrace, machine: MachineSpec
) -> ExecutionTrace:
    """Inflate one h2d transfer past the device memory size.

    The largest h2d event is rewritten to move 1.25× the GPU's total
    memory, so the replayed reserved-bytes ledger must cross the
    capacity limit the moment the transfer starts — M402 names the
    panel/GPU pair (M405 also warns about the size mismatch).
    """
    first: dict[tuple[int, int], DataEvent] = {}
    for ev in trace.sorted_data_events():
        if ev.kind == "h2d":
            first.setdefault((ev.cblk, ev.gpu), ev)
    if not first:
        raise ValueError("trace has no h2d transfers; run with at least "
                         "one GPU")
    # First transfer of its (panel, gpu) pair: a re-transfer would be
    # idempotent in the reserved-bytes ledger and never trip M402.
    victim = max(first.values(), key=lambda ev: (ev.nbytes, -ev.start))
    inflated = replace(victim, nbytes=1.25 * float(machine.gpu.memory_bytes))
    return trace.copy(data_events=[inflated if ev is victim else ev
                                   for ev in trace.data_events])
