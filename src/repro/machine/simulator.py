"""Discrete-event simulation of a factorization DAG on a hybrid machine.

The simulator owns the mechanics; a
:class:`repro.runtime.base.SchedulerPolicy` owns the decisions.  Modelled
mechanics:

* **dependencies** — a task becomes ready when all predecessors complete;
* **mutexes** — updates targeting one panel are serialized (the in-out
  panel access of the right-looking variant, §III);
* **CPU workers** — exclusive, per-task overhead + duration from
  :class:`CpuPerfModel`, with a cache-reuse bonus when the policy keeps
  consecutive updates of a panel on one core;
* **GPUs** — up to ``streams_per_gpu`` concurrent kernels under
  *processor sharing*: each kernel alone runs at its Figure-3 model rate;
  concurrent kernels share the device in proportion to their occupancy,
  which is precisely how multiple streams raise small-kernel throughput;
* **transfers** — one exclusive PCIe link per GPU (latency + bandwidth),
  LRU device memory, MSI-style panel coherence (a write invalidates other
  copies; a read from a device lacking the newest copy pays a transfer).

Panel-factorization tasks always run on CPU (the paper offloads only the
compute-heavy GEMM updates, §V-B).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dag.tasks import TaskDAG, TaskKind
from repro.machine.model import MachineSpec
from repro.machine.perfmodel import CpuPerfModel, GpuKernelModel, stream_shares
from repro.resilience import (
    FaultModel,
    HealthMonitor,
    HealthPolicy,
    RecoveryPolicy,
    UnrecoverableError,
    bucket_key,
)
from repro.runtime.tracing import ExecutionTrace
from repro.sim import EventLoop, FaultLedger

__all__ = ["simulate", "SimulationResult"]


@dataclass
class SimulationResult:
    """Outcome of one simulated factorization."""

    policy: str
    machine: MachineSpec
    makespan: float
    flops: float
    trace: Optional[ExecutionTrace]
    n_cpu_workers: int
    bytes_h2d: float
    bytes_d2h: float
    busy: dict
    #: Largest device-memory footprint reached on any single GPU.
    peak_gpu_bytes: float = 0.0
    #: Faults injected during the run (0 when resilience is off).
    n_faults: int = 0
    #: Task attempts re-executed after a fault.
    n_reexecuted: int = 0
    #: Bytes of failed transfer attempts that had to be re-sent.
    bytes_retransferred: float = 0.0
    #: Health-state transitions taken (0 when monitoring is off).
    n_health_transitions: int = 0
    #: Speculative duplicates launched (0 when hedging is off).
    n_hedges: int = 0

    @property
    def gflops(self) -> float:
        return self.flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult({self.policy}, cores={self.n_cpu_workers}, "
            f"gpus={self.machine.n_gpus}, makespan={self.makespan:.4f}s, "
            f"{self.gflops:.1f} GFlop/s)"
        )


class _GpuState:
    """Per-GPU runtime state (streams, sharing, link, residency).

    A task accepted by the GPU first *stages* (its transfers run while
    other kernels compute — the prefetch pipeline every real runtime
    implements), then occupies one of the ``streams`` compute slots.
    """

    #: Extra tasks whose transfers may be in flight beyond the streams.
    PREFETCH_DEPTH = 2

    __slots__ = (
        "index", "streams", "staging", "ready_queue", "active_rem",
        "active_rate", "active_base", "active_occ", "last_time", "version",
        "link_free", "resident", "resident_bytes", "peak_bytes", "pinned",
        "arrival",
    )

    def __init__(self, index: int, streams: int) -> None:
        self.index = index
        self.streams = streams
        self.staging = 0                 # tasks with transfers in flight
        self.ready_queue: list[int] = []  # data ready, waiting for a stream
        self.active_rem: dict[int, float] = {}
        self.active_rate: dict[int, float] = {}
        self.active_base: dict[int, float] = {}   # solo rate (flops/s)
        self.active_occ: dict[int, float] = {}
        self.last_time = 0.0
        self.version = 0
        self.link_free = 0.0
        self.resident: "OrderedDict[int, int]" = OrderedDict()  # cblk -> bytes
        self.resident_bytes = 0
        self.peak_bytes = 0
        self.pinned: dict[int, int] = {}  # cblk -> pin count
        self.arrival: dict[int, float] = {}  # cblk -> transfer completion

    @property
    def free_streams(self) -> int:
        return self.streams - len(self.active_rem)

    def free_slots(self) -> int:
        """How many more tasks the GPU will accept right now."""
        committed = len(self.active_rem) + self.staging + len(self.ready_queue)
        return self.streams + self.PREFETCH_DEPTH - committed


class _Simulator(EventLoop):
    """One simulation run (see :func:`simulate`)."""

    HOST = -1

    def __init__(
        self,
        dag: TaskDAG,
        machine: MachineSpec,
        policy,
        *,
        dtype=np.float64,
        cpu_model: CpuPerfModel | None = None,
        gpu_model: GpuKernelModel | None = None,
        collect_trace: bool = True,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        health: HealthPolicy | None = None,
    ) -> None:
        super().__init__()
        self.dag = dag
        self.machine = machine
        self.policy = policy
        self.dtype = np.dtype(dtype)
        self.cpu_model = cpu_model or CpuPerfModel()
        self.gpu_model = gpu_model or GpuKernelModel("sparse")
        self.ledger = FaultLedger("machine.simulator", collect_trace,
                                  faults, recovery)
        self.trace = self.ledger.trace
        if self.trace is not None:
            self.trace.meta["policy"] = policy.traits.name

        # Resilience.  Every fault hook below is gated on
        # ``self.faults is not None`` so a run without a fault model goes
        # through byte-identical code paths (no overhead, same trace).
        self.faults = faults
        self.recovery = self.ledger.recovery
        self.dead_gpus: set[int] = set()
        self.dead_workers: set[int] = set()

        traits = policy.traits
        self.n_cpu_workers = machine.n_cores
        if traits.dedicated_gpu_workers:
            self.n_cpu_workers = max(1, machine.n_cores - machine.n_gpus)

        n = dag.n_tasks
        self.deps_left = dag.n_deps.copy()
        self.done = np.zeros(n, dtype=bool)
        self.n_done = 0

        # Mutexes: holder per group, parked tasks per group.
        self._mutex_holder: dict[int, int] = {}
        self._mutex_wait: dict[int, list[int]] = {}

        # CPU workers.
        self.idle_workers: set[int] = set(range(self.n_cpu_workers))
        self.worker_last_target = np.full(self.n_cpu_workers, -1, dtype=np.int64)
        self._last_writer_core: dict[int, int] = {}

        # GPUs.
        self.gpus = [
            _GpuState(g, machine.streams_per_gpu)
            for g in range(machine.n_gpus)
        ]
        #: Kernel start time per task running on a GPU (FIFO share order).
        self._gpu_start_time: dict[int, float] = {}

        # Coherence: newest location and valid-copy sets per cblk.
        self._newest: dict[int, int] = {}
        self._valid: dict[int, set[int]] = {}

        self.bytes_h2d = 0.0
        self.bytes_d2h = 0.0

        # Health monitoring / graceful degradation.  Like the fault
        # hooks, everything below is gated on ``self.health is not None``
        # so a monitoring-off run keeps byte-identical code paths and
        # trace fingerprints (the R705/D8xx identity).
        self.health: HealthMonitor | None = None
        if health is not None:
            self.health = self.ledger.monitor(
                (f"cpu{w}" for w in range(self.n_cpu_workers)), health)
            #: Live CPU attempts: ``(task, worker) -> start time``.  With
            #: hedging a task may have two; the first to finish commits.
            self._live_attempt: dict[tuple[int, int], float] = {}
            #: Hedged tasks: ``task -> primary resource`` (one hedge max).
            self._hedged: dict[int, str] = {}
            #: Overstayed tasks waiting for a healthy worker to duplicate
            #: them (served ahead of fresh policy work).
            self._hedge_wanted: list[int] = []
        self.n_hedges = 0

        self._precompute()
        policy.bind(self)
        # Device losses are purely time-driven; limplock windows are per
        # CPU worker, degraded-link windows per GPU link.
        self.ledger.arm(self, "gpu-loss", len(self.gpus), self._device_loss,
                        "cpu{}", "link{}")

    # ------------------------------------------------------------------
    # static models
    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        from repro.kernels.cost import panel_bytes

        dag, sym = self.dag, self.dag.symbol
        K = sym.n_cblk
        widths = np.diff(sym.cblk_ptr).astype(np.int64)
        heights = np.array([sym.cblk_height(k) for k in range(K)], dtype=np.int64)
        self.panel_bytes = panel_bytes(sym, self.dtype, dag.factotype)
        self.cblk_height = heights

        peak = self.machine.cpu.peak_gflops * 1e9
        traits = self.policy.traits
        n = dag.n_tasks
        cpu_dur = np.empty(n, dtype=np.float64)
        gpu_dur = np.full(n, np.inf, dtype=np.float64)
        gpu_occ = np.zeros(n, dtype=np.float64)
        is_update = dag.kind == TaskKind.UPDATE
        below = heights - widths

        if getattr(dag, "phase", "facto") == "solve":
            # Solve-phase kernels are bandwidth-bound; nothing offloads.
            # gemm_k is the task's (flop-weighted mean) panel width.
            for t in range(n):
                eff = self.cpu_model.solve_eff(float(dag.gemm_k[t]))
                cpu_dur[t] = dag.flops[t] / (peak * eff)
            self.cpu_duration = cpu_dur
            self.gpu_duration = gpu_dur
            self.gpu_occupancy = gpu_occ
            self.gpu_eligible = np.zeros(n, dtype=bool)
            return

        for t in range(n):
            k = int(dag.cblk[t])
            if is_update[t]:
                m, nn, kk = int(dag.gemm_m[t]), int(dag.gemm_n[t]), int(dag.gemm_k[t])
                eff = self.cpu_model.update_eff(
                    m, nn, kk, factotype=dag.factotype,
                    recompute_ld=traits.recompute_ld,
                    index_cache=traits.index_cache,
                )
                cpu_dur[t] = dag.flops[t] / (peak * eff)
                tgt = int(dag.target[t])
                hr = float(heights[tgt]) / max(m, 1)
                rate = self.gpu_model.rate(m, nn, kk, height_ratio=hr)
                if dag.factotype == "ldlt":
                    # The LDLT extension of the GPU kernel (C -= L·D·Lᵀ)
                    # "decreases the performance by 5%" (paper §V-B).
                    rate *= 0.95
                if rate > 0:
                    gpu_dur[t] = dag.flops[t] / (rate * 1e9)
                gpu_occ[t] = self.gpu_model.occupancy(m, nn, kk)
            elif dag.kind[t] == TaskKind.PANEL:
                eff = self.cpu_model.panel_eff(float(widths[k]), float(below[k]))
                cpu_dur[t] = dag.flops[t] / (peak * eff)
            elif dag.kind[t] == TaskKind.SUBTREE:
                # Fused leaf subtree: sum the component kernel durations.
                cpu_dur[t] = self._components_duration(
                    dag.fused_components[t], peak, traits
                )
            elif t in dag.fused_components:
                # PANEL1D with recorded components (1d / 1d-left builders).
                cpu_dur[t] = self._components_duration(
                    dag.fused_components[t], peak, traits
                )
            else:  # PANEL1D without components: blended efficiency
                w = float(widths[k])
                eff_p = self.cpu_model.panel_eff(w, float(below[k]))
                eff_u = self.cpu_model.update_eff(
                    float(below[k]), max(w, 1.0), w,
                    factotype=dag.factotype, recompute_ld=traits.recompute_ld,
                    index_cache=traits.index_cache,
                )
                # Panel flops share vs update share within the fused task.
                from repro.kernels.cost import complex_multiplier, flops_panel

                mult = complex_multiplier(self.dtype)
                fp = mult * flops_panel(int(w), int(below[k]), dag.factotype)
                fu = max(dag.flops[t] - fp, 0.0)
                cpu_dur[t] = fp / (peak * eff_p) + fu / (peak * max(eff_u, 1e-3))

        self.cpu_duration = cpu_dur
        self.gpu_duration = gpu_dur
        self.gpu_occupancy = gpu_occ
        self.gpu_eligible = is_update & (self.machine.n_gpus > 0) & np.isfinite(gpu_dur)

    def _components_duration(self, components, peak: float, traits) -> float:
        """CPU duration of a fused task from its kernel components."""
        from repro.kernels.cost import complex_multiplier, flops_component

        mult = complex_multiplier(self.dtype)
        total = 0.0
        for comp in components:
            if comp[0] in ("panel", "rows"):
                eff = self.cpu_model.panel_eff(float(comp[1]), float(comp[2]))
            else:
                _, m, nn, w = comp
                eff = self.cpu_model.update_eff(
                    m, nn, w, factotype=self.dag.factotype,
                    recompute_ld=traits.recompute_ld,
                    index_cache=traits.index_cache,
                )
            total += mult * flops_component(
                comp, self.dag.factotype, recompute_ld=traits.recompute_ld,
            ) / (peak * eff)
        return total

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        n_total = self.dag.n_tasks
        for t in self.dag.sources():
            self._task_ready(int(t))
        self._kick()
        # A device loss, limp onset or hedge check timed past the last
        # completion is moot.
        self.run_events(
            lambda: self.n_done == n_total,
            (self._device_loss, self.ledger.onset, self._hedge_check),
        )
        if self.n_done != n_total:
            if (
                self.faults is not None
                and len(self.dead_workers) >= self.n_cpu_workers
            ):
                raise UnrecoverableError(
                    f"all {self.n_cpu_workers} CPU worker(s) crashed with "
                    f"{n_total - self.n_done} task(s) outstanding; no "
                    "resource can run the CPU-only frontier"
                )
            raise RuntimeError(self._stall_message())
        self.ledger.stamp_rng()
        busy = self.trace.busy_time() if self.trace else {}
        return SimulationResult(
            policy=self.policy.traits.name,
            machine=self.machine,
            makespan=self.time,
            flops=self.dag.total_flops(),
            trace=self.trace,
            n_cpu_workers=self.n_cpu_workers,
            bytes_h2d=self.bytes_h2d,
            bytes_d2h=self.bytes_d2h,
            busy=busy,
            peak_gpu_bytes=float(
                max((g.peak_bytes for g in self.gpus), default=0)
            ),
            n_faults=self.ledger.n_faults,
            n_reexecuted=self.ledger.n_reexecuted,
            bytes_retransferred=self.ledger.bytes_retransferred,
            n_health_transitions=(
                self.health.n_transitions if self.health is not None else 0
            ),
            n_hedges=self.n_hedges,
        )

    def _stall_message(self) -> str:
        """Diagnose a stalled run: which tasks *should* be runnable?

        The blocked frontier — pending tasks whose predecessors all
        completed — is where a scheduler bug hides: a task there with
        ``deps_left == 0`` was released but never dispatched (a policy
        lost it), while nonzero ``deps_left`` means the completion
        bookkeeping itself is wrong.
        """
        pending = np.flatnonzero(~self.done)
        frontier = [
            int(t) for t in pending
            if all(bool(self.done[int(p)])
                   for p in self.dag.predecessors(int(t)))
        ]
        shown = ", ".join(
            f"{t}(deps_left={int(self.deps_left[t])})" for t in frontier[:15]
        )
        msg = (
            f"simulation stalled: {self.n_done}/{self.dag.n_tasks} done; "
            f"{len(frontier)} task(s) in the blocked frontier "
            f"(all predecessors completed): [{shown}"
            + (" ...]" if len(frontier) > 15 else "]")
        )
        if self._mutex_holder:
            held = {int(g): int(t)
                    for g, t in sorted(self._mutex_holder.items())[:10]}
            msg += f"; mutexes held (group -> task): {held}"
        if self.dead_gpus or self.dead_workers:
            msg += (f"; dead GPUs {sorted(self.dead_gpus)}, "
                    f"dead workers {sorted(self.dead_workers)}")
        return msg

    # ------------------------------------------------------------------
    # readiness / dispatch
    # ------------------------------------------------------------------
    def _task_ready(self, t: int) -> None:
        self.policy.on_ready(t)

    def _kick(self) -> None:
        self._kick_cpus()
        self._kick_gpus()

    def _cpu_poll_order(self) -> list[int]:
        """Idle workers in dispatch order.  With monitoring on, degraded
        workers are polled last (healthy ones drain the queue first) and
        quarantined workers are not polled at all (the R703 contract)."""
        if self.health is None:
            return sorted(self.idle_workers)
        self.ledger.record_health(self.health.tick(self.time))
        ranked = sorted(
            self.idle_workers,
            key=lambda w: (self.health.rank(f"cpu{w}"), w),
        )
        return [w for w in ranked if self.health.rank(f"cpu{w}") < 2]

    def _kick_cpus(self) -> None:
        progressed = True
        while progressed and self.idle_workers:
            progressed = False
            for w in self._cpu_poll_order():
                if self.health is not None and self._launch_hedge_for(w):
                    progressed = True
                    continue
                t = self.policy.next_cpu_task(w)
                while t is not None and not self._try_lock(t):
                    t = self.policy.next_cpu_task(w)
                if t is None:
                    continue
                self.idle_workers.discard(w)
                self._start_cpu(t, w)
                progressed = True

    def _kick_gpus(self) -> None:
        for g in self.gpus:
            if self.faults is not None and g.index in self.dead_gpus:
                continue
            while g.free_slots() > 0:
                t = self.policy.next_gpu_task(g.index)
                while t is not None and not self._try_lock(t):
                    t = self.policy.next_gpu_task(g.index)
                if t is None:
                    break
                g.staging += 1
                self._start_gpu(t, g)

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def _fail_task(
        self,
        t: int,
        kind: str,
        resource: str,
        start: float,
        end: float,
        *,
        recovery: str = "requeue",
    ) -> None:
        """Record a failed task attempt and schedule its re-execution.

        The failed attempt appears ONLY as a :class:`FaultEvent` — never
        as a TraceEvent — so the S201 "every task exactly once" invariant
        keeps holding on recovered traces.  Raises
        :class:`UnrecoverableError` once the retry budget is exhausted.
        """
        cblk = int(self.dag.cblk[t])
        attempt = self.ledger.charge(
            t, kind, t, cblk, resource, start, end,
            what=f"task {t} (last: {kind} on {resource} at t={end:.6g})",
        )
        # The failed attempt still holds its mutex (locked at dispatch):
        # release it before requeueing or the retry deadlocks on itself.
        self._unlock(t)
        delay = self.ledger.backoff(attempt - 1)
        self.ledger.rerun(recovery, t, cblk, resource, end, attempt, delay)
        self.schedule(end + delay, self._requeue_task, t)

    def _requeue_task(self, t: int) -> None:
        self.policy.on_ready(t)
        self._kick()

    def _cpu_fault(self, t: int, w: int, kind: str, start: float) -> None:
        """A CPU task attempt dies mid-execution (scheduled by
        :meth:`_start_cpu` when the fault model says the attempt fails)."""
        if self.health is not None:
            if self._live_attempt.pop((t, w), None) is None:
                return  # attempt already cancelled at a hedge commit
        if kind == "worker-crash":
            self.dead_workers.add(w)  # the worker never rejoins the pool
        else:
            self.idle_workers.add(w)
        if self.health is not None:
            others = [ww for (tt, ww) in self._live_attempt if tt == t]
            if t in self._hedged and self.trace is not None:
                # A hedged attempt died without committing: that *is*
                # the cancelled loser (R704 accounting).
                self.trace.record_hedge("cancel", t, f"cpu{w}", self.time,
                                        self._hedged[t])
            if others:
                # A duplicate is still running: absorb the fault in
                # place instead of re-queueing (the survivor commits;
                # a requeue would race it for the task's mutex).
                cblk = int(self.dag.cblk[t])
                att = self.ledger.charge(t, kind, t, cblk, f"cpu{w}", start,
                                         self.time)
                self.ledger.recover("absorb", t, cblk, f"cpu{w}", self.time,
                                    att)
                self._kick()
                return
        self._fail_task(t, kind, f"cpu{w}", start, self.time)
        self._kick()

    def _unpin(self, t: int, g: _GpuState) -> None:
        for cblk in (int(self.dag.cblk[t]), int(self.dag.target[t])):
            if g.pinned.get(cblk, 0) > 0:
                g.pinned[cblk] -= 1
                if g.pinned[cblk] == 0:
                    del g.pinned[cblk]

    def _device_loss(self, gidx: int) -> None:
        """GPU ``gidx`` disappears: blacklist it, fail its in-flight
        tasks, invalidate its residency, and re-route everything."""
        if gidx in self.dead_gpus:
            return
        g = self.gpus[gidx]
        self.dead_gpus.add(gidx)
        # Outbound (d2h) transfers already committed to the link drain
        # normally — the DMA queue survives long enough to flush, which
        # is what makes the optimistic host-validity marks honest.
        # Inbound (h2d) transfers still in the pipe deliver bytes nobody
        # may ever read: cancel their data events and refund the bytes.
        drain = max(self.time, g.link_free)
        if self.trace is not None:
            cancelled = [
                d for d in self.trace.data_events
                if d.gpu == gidx and d.kind == "h2d" and d.end > self.time
            ]
            for d in cancelled:
                self.bytes_h2d -= d.nbytes
            if cancelled:
                dropped = set(map(id, cancelled))
                self.trace.data_events = [
                    d for d in self.trace.data_events
                    if id(d) not in dropped
                ]
        # The fault window spans the loss instant through the link
        # drain; the R6xx auditor treats traffic inside the window as
        # the drain, traffic after it as use of a dead device.
        self.ledger.fault("gpu-loss", -1, -1, f"gpu{gidx}", self.time, drain)
        if not self.recovery.gpu_blacklist:
            raise UnrecoverableError(
                f"GPU {gidx} lost at t={self.time:.6g} and gpu_blacklist "
                f"recovery is disabled"
            )
        self.ledger.recover("reroute-cpu", -1, -1, f"gpu{gidx}", drain)
        # Account partial progress before killing the active kernels.
        self._gpu_progress(g)
        active = list(g.active_rem)
        queued = list(g.ready_queue)
        # Tasks whose transfers are in flight have a pending
        # _gpu_data_ready event in the heap; the dead-GPU guard there
        # makes the event a no-op, and we fail the task here.
        staged = [t for (t, gg) in self.pending(self._gpu_data_ready)
                  if gg is g]
        for d in (g.active_rem, g.active_rate, g.active_base, g.active_occ):
            d.clear()
        g.ready_queue.clear()
        g.staging = 0
        g.version += 1  # stales out every pending _finish_gpu event
        g.pinned.clear()
        g.arrival.clear()
        # Invalidate residency.  Checkpoint writeback guarantees the
        # host holds every committed panel, so newest pointers flip home
        # and later readers re-fetch from there.
        for cblk, nb in list(g.resident.items()):
            if self.trace is not None:
                self.trace.record_data("evict", cblk, gidx, nb,
                                       self.time, self.time, "device-loss")
            self._valid.get(cblk, set()).discard(gidx)
            if self._newest_loc(cblk) == gidx:
                if not self._loc_valid(cblk, self.HOST):
                    raise UnrecoverableError(
                        f"GPU {gidx} lost at t={self.time:.6g} holding the "
                        f"only copy of panel {cblk} (enable "
                        f"checkpoint_writeback to survive device loss)"
                    )
                self._newest[cblk] = self.HOST
                self._valid[cblk] = {self.HOST}
        g.resident.clear()
        g.resident_bytes = 0
        for t in active:
            start = self._gpu_start_time.pop(t, self.time)
            self._fail_task(t, "gpu-loss", f"gpu{gidx}", start, self.time)
        for t in queued + staged:
            self._fail_task(t, "gpu-loss", f"gpu{gidx}", self.time, self.time)
        # Tasks still parked inside the policy's per-GPU structures never
        # started (no mutex held, no fault to record): the policy drains
        # them and we re-route each as a plain ready task.
        for t in self.policy.on_device_loss(gidx):
            self.policy.on_ready(t)
        if all(gg.index in self.dead_gpus for gg in self.gpus):
            # CPU-only degradation: nothing may target a GPU any more.
            self.gpu_eligible[:] = False
        if self.policy.traits.dedicated_gpu_workers:
            # The core that drove this GPU returns to the CPU pool.
            w = self.n_cpu_workers
            self.n_cpu_workers += 1
            self.worker_last_target = np.append(self.worker_last_target, -1)
            self.idle_workers.add(w)
        self._kick()

    # ------------------------------------------------------------------
    # mutexes
    # ------------------------------------------------------------------
    def _try_lock(self, t: int) -> bool:
        grp = int(self.dag.mutex[t])
        if grp < 0:
            return True
        if grp in self._mutex_holder:
            self._mutex_wait.setdefault(grp, []).append(t)
            return False
        self._mutex_holder[grp] = t
        return True

    def _unlock(self, t: int) -> None:
        grp = int(self.dag.mutex[t])
        if grp < 0:
            return
        assert self._mutex_holder.get(grp) == t
        del self._mutex_holder[grp]
        waiters = self._mutex_wait.pop(grp, [])
        for w in waiters:
            self.policy.on_ready(w)

    # ------------------------------------------------------------------
    # coherence / transfers
    # ------------------------------------------------------------------
    def _loc_valid(self, cblk: int, loc: int) -> bool:
        if cblk not in self._valid:
            return loc == self.HOST  # untouched panels live in host memory
        return loc in self._valid[cblk]

    def _newest_loc(self, cblk: int) -> int:
        return self._newest.get(cblk, self.HOST)

    def _mark_write(self, cblk: int, loc: int) -> None:
        self._newest[cblk] = loc
        self._valid[cblk] = {loc}
        if loc == self.HOST:
            for g in self.gpus:
                nb = g.resident.pop(cblk, None)
                if nb is not None:
                    g.resident_bytes -= nb

    def _mark_copy(self, cblk: int, loc: int) -> None:
        self._valid.setdefault(cblk, {self.HOST}).add(loc)

    def _link_transfer(
        self, g: _GpuState, cblk: int, nbytes: float, kind: str, reason: str
    ) -> float:
        """Occupy GPU ``g``'s PCIe link; returns completion time."""
        spec = self.machine.gpu
        start = max(self.time, g.link_free)
        deg = self.ledger.link_factor(g.index, start)
        dur = spec.transfer_latency_s + deg * nbytes / (spec.h2d_gbps * 1e9)
        start = self.ledger.transfer(g.index, cblk, f"link{g.index}", start,
                                     dur, nbytes)
        g.link_free = start + dur
        if kind == "h2d":
            self.bytes_h2d += nbytes
        else:
            self.bytes_d2h += nbytes
        if self.trace is not None:
            self.trace.record_data(
                kind, cblk, g.index, nbytes, start, start + dur, reason
            )
        return g.link_free

    def _fetch_to_host(self, cblk: int) -> float:
        """Ensure the newest copy of ``cblk`` is in host memory."""
        loc = self._newest_loc(cblk)
        if loc == self.HOST or self._loc_valid(cblk, self.HOST):
            return self.time
        g = self.gpus[loc]
        done = self._link_transfer(
            g, cblk, self.panel_bytes[cblk], "d2h", "writeback"
        )
        self._mark_copy(cblk, self.HOST)
        return done

    def _fetch_to_gpu(self, cblk: int, g: _GpuState, reason: str = "demand") -> float:
        """Ensure the newest copy of ``cblk`` is on GPU ``g``."""
        if self._loc_valid(cblk, g.index):
            g.resident.move_to_end(cblk, last=True)
            # The copy may still be in flight (a fetch another task
            # initiated): data is usable only once the link delivers it.
            return max(self.time, g.arrival.get(cblk, self.time))
        ready = self.time
        loc = self._newest_loc(cblk)
        if loc != self.HOST and not self._loc_valid(cblk, self.HOST):
            ready = self._fetch_to_host(cblk)
        # NOTE: a strictly ordered model would delay the h2d until the
        # d2h completed; the link-FIFO ordering already enforces that
        # when both use the same link, and cross-GPU routes are rare
        # enough that the optimistic overlap is acceptable.
        done = self._link_transfer(
            g, cblk, self.panel_bytes[cblk], "h2d", reason
        )
        self._register_resident(cblk, g)
        self._mark_copy(cblk, g.index)
        g.arrival[cblk] = max(ready, done)
        return max(ready, done)

    def _register_resident(self, cblk: int, g: _GpuState) -> None:
        nbytes = int(self.panel_bytes[cblk])
        if cblk in g.resident:
            g.resident.move_to_end(cblk, last=True)
            return
        limit = self.machine.gpu.memory_bytes
        while g.resident_bytes + nbytes > limit and g.resident:
            # Evict the least recently used unpinned, non-newest panel.
            victim = None
            for c in g.resident:
                if g.pinned.get(c, 0) == 0 and self._newest_loc(c) != g.index:
                    victim = c
                    break
            if victim is None:
                break  # everything pinned/dirty: over-subscribe gracefully
            vbytes = g.resident.pop(victim)
            g.resident_bytes -= vbytes
            self._valid.get(victim, set()).discard(g.index)
            if self.trace is not None:
                self.trace.record_data(
                    "evict", victim, g.index, vbytes,
                    self.time, self.time, "capacity",
                )
        g.resident[cblk] = nbytes
        g.resident_bytes += nbytes
        if g.resident_bytes > g.peak_bytes:
            g.peak_bytes = g.resident_bytes

    def transfer_estimate(self, gpu: int, task: int) -> float:
        """Seconds of PCIe traffic task ``task`` would need on GPU ``gpu``
        right now (used by cost-model policies)."""
        if self.faults is not None and gpu in self.dead_gpus:
            return float("inf")
        g = self.gpus[gpu]
        spec = self.machine.gpu
        total = 0.0
        for cblk in (int(self.dag.cblk[task]), int(self.dag.target[task])):
            if not self._loc_valid(cblk, g.index):
                total += spec.transfer_latency_s + self.panel_bytes[cblk] / (
                    spec.h2d_gbps * 1e9
                )
        return total

    def prefetch(self, gpu: int, cblk: int) -> None:
        """Start an input transfer early (StarPU's prefetch)."""
        if self.faults is not None and gpu in self.dead_gpus:
            return
        g = self.gpus[gpu]
        if not self._loc_valid(cblk, g.index):
            self._fetch_to_gpu(cblk, g, reason="prefetch")

    def last_writer_core(self, cblk: int) -> int:
        return self._last_writer_core.get(cblk, -1)

    # ------------------------------------------------------------------
    # CPU execution
    # ------------------------------------------------------------------
    def _start_cpu(self, t: int, w: int) -> None:
        dag = self.dag
        data_ready = self.time
        # Reads and writes must see the newest copy in host memory.
        needed = {int(dag.cblk[t]), int(dag.target[t])}
        for cblk in sorted(needed):
            data_ready = max(data_ready, self._fetch_to_host(cblk))

        dur = self.cpu_duration[t] + self.policy.traits.task_overhead_s
        tgt = int(dag.target[t])
        if (
            self.policy.traits.cache_reuse
            and dag.kind[t] == TaskKind.UPDATE
            and self.worker_last_target[w] == tgt
        ):
            dur /= self.machine.cpu.cache_reuse_bonus
        start = data_ready
        if self.faults is not None:
            dur = self.ledger.stretch(t, int(dag.cblk[t]), f"cpu{w}", w,
                                      start, dur)
            if self.health is not None:
                self._live_attempt[(t, w)] = start
            kind = self.faults.task_fault(t, w, start)
            if kind is not None:
                # The attempt dies halfway through: the wasted time is
                # the fault window, and no TraceEvent is recorded (the
                # task did not complete here — it will re-execute).
                self.schedule(start + 0.5 * dur, self._cpu_fault,
                              t, w, kind, start)
                return
        end = start + dur
        if self.health is None:
            if self.trace is not None:
                self.trace.record(t, f"cpu{w}", start, end)
            self.schedule(end, self._finish_cpu, t, w)
            return
        # Monitoring on: the TraceEvent is recorded at *commit* (a hedge
        # duplicate may beat this attempt to it), and an overstay check
        # is armed so a suspect worker's in-flight task can be hedged.
        self._live_attempt.setdefault((t, w), start)
        p = self.health.policy
        if p.hedge:
            expected = (self.cpu_duration[t]
                        + self.policy.traits.task_overhead_s)
            after = max(p.hedge_ratio * expected, p.hedge_min_s)
            self.schedule(start + after, self._hedge_check, t)
        self.schedule(end, self._finish_cpu, t, w)

    def _hedge_check(self, t: int) -> None:
        """The in-flight attempt of ``t`` overstayed its hedge threshold:
        launch a duplicate on an idle healthy worker if the primary sits
        on a suspect-or-worse one (first commit wins, loser cancelled).
        While the attempt is still live but its worker has not been
        flagged yet, the check re-arms itself (it dies with the commit);
        when no healthy worker is idle, the task parks on the
        hedge-wanted queue, which idle healthy workers serve ahead of
        fresh policy work."""
        live = sorted(ww for (tt, ww) in self._live_attempt if tt == t)
        if not live or t in self._hedged or self.done[t]:
            return
        w = live[0]
        if self.health.rank(f"cpu{w}") == 0 and \
                self.health.state(f"cpu{w}") != "suspect":
            # The primary's worker looks fine (so far): check back later.
            p = self.health.policy
            expected = (self.cpu_duration[t]
                        + self.policy.traits.task_overhead_s)
            retry = max(p.hedge_ratio * expected, p.hedge_min_s)
            self.schedule(self.time + retry, self._hedge_check, t)
            return
        spare = [h for h in sorted(self.idle_workers)
                 if self.health.rank(f"cpu{h}") == 0]
        if spare:
            self.idle_workers.discard(spare[0])
            self._launch_duplicate(t, spare[0], w)
        elif t not in self._hedge_wanted:
            self._hedge_wanted.append(t)
            self._kick_cpus()

    def _launch_hedge_for(self, w: int) -> bool:
        """Idle healthy worker ``w`` serves the hedge-wanted queue;
        returns True when it picked up a duplicate."""
        if not self._hedge_wanted or self.health.rank(f"cpu{w}") != 0:
            return False
        while self._hedge_wanted:
            t = self._hedge_wanted.pop(0)
            live = sorted(ww for (tt, ww) in self._live_attempt if tt == t)
            if not live or t in self._hedged or self.done[t]:
                continue
            self.idle_workers.discard(w)
            self._launch_duplicate(t, w, live[0])
            return True
        return False

    def _launch_duplicate(self, t: int, h: int, primary: int) -> None:
        """Start the speculative duplicate of ``t`` on worker ``h``."""
        self._hedged[t] = f"cpu{primary}"
        self.n_hedges += 1
        if self.trace is not None:
            self.trace.record_hedge("launch", t, f"cpu{h}", self.time,
                                    f"cpu{primary}")
        dur = self.cpu_duration[t] + self.policy.traits.task_overhead_s
        dur *= self.ledger.limp_factor(h, self.time)
        self._live_attempt[(t, h)] = self.time
        self.schedule(self.time + dur, self._finish_cpu, t, h)

    def _finish_cpu(self, t: int, w: int) -> None:
        if self.health is not None:
            start = self._live_attempt.pop((t, w), None)
            if start is None:
                return  # this attempt was cancelled at the winner's commit
            hedged = t in self._hedged
            if hedged and self.trace is not None:
                self.trace.record_hedge("win", t, f"cpu{w}", self.time,
                                        self._hedged[t])
            # Idempotent commit gate: cancel every other live attempt of
            # this task *now* — its worker frees immediately and its side
            # effects are never applied (no TraceEvent, no completion).
            expected = (self.cpu_duration[t]
                        + self.policy.traits.task_overhead_s)
            losers = sorted(ww for (tt, ww) in self._live_attempt if tt == t)
            for ww in losers:
                lstart = self._live_attempt.pop((t, ww))
                if self.trace is not None:
                    self.trace.record_hedge("cancel", t, f"cpu{ww}",
                                            self.time, self._hedged.get(t, ""))
                if ww not in self.dead_workers:
                    self.idle_workers.add(ww)
                # Censored observation: the loser ran this long without
                # finishing, so its true duration is at least that.
                # Without it a worker that always loses its hedges never
                # completes anything, its EWMA freezes, and it keeps
                # black-holing fresh dispatches as "suspect" forever.
                self.ledger.record_health(self.health.observe(
                    f"cpu{ww}", self._health_key(t), self.time - lstart,
                    self.time, expected=expected,
                ))
            if self.trace is not None:
                self.trace.record(t, f"cpu{w}", start, self.time)
            self.ledger.record_health(self.health.observe(
                f"cpu{w}", self._health_key(t), self.time - start,
                self.time, expected=expected,
            ))
        tgt = int(self.dag.target[t])
        self.worker_last_target[w] = tgt
        self._last_writer_core[tgt] = w
        self._mark_write(tgt, self.HOST)
        if self.dag.kind[t] != TaskKind.UPDATE:
            self._mark_write(int(self.dag.cblk[t]), self.HOST)
        self.idle_workers.add(w)
        self._complete(t, f"cpu{w}")

    def _health_key(self, t: int) -> str:
        """(kernel, size-bucket) expectation key for task ``t``."""
        return bucket_key(int(self.dag.kind[t]), float(self.dag.flops[t]))

    # ------------------------------------------------------------------
    # GPU execution
    # ------------------------------------------------------------------
    def _start_gpu(self, t: int, g: _GpuState) -> None:
        dag = self.dag
        src, tgt = int(dag.cblk[t]), int(dag.target[t])
        for cblk in (src, tgt):
            g.pinned[cblk] = g.pinned.get(cblk, 0) + 1
        data_ready = max(
            self._fetch_to_gpu(src, g), self._fetch_to_gpu(tgt, g)
        )
        self.schedule(max(data_ready, self.time), self._gpu_data_ready, t, g)

    def _gpu_data_ready(self, t: int, g: _GpuState) -> None:
        if self.faults is not None and g.index in self.dead_gpus:
            return  # the device loss already failed and re-routed `t`
        g.staging -= 1
        if g.free_streams > 0:
            self._begin_gpu_compute(t, g)
        else:
            g.ready_queue.append(t)

    def _begin_gpu_compute(self, t: int, g: _GpuState) -> None:
        if self.faults is not None:
            kind = self.faults.task_fault(t, -1, self.time)
            if kind is not None:
                # Kernel-launch failure: instant (the launch bounced),
                # the inputs stay resident, the task re-queues.
                self._unpin(t, g)
                self._fail_task(t, "task-fault", f"gpu{g.index}",
                                self.time, self.time)
                return
        self._gpu_progress(g)
        g.active_rem[t] = float(self.dag.flops[t])
        g.active_base[t] = 1e9 * self.dag.flops[t] / max(
            self.gpu_duration[t] * 1e9, 1e-12
        )
        g.active_occ[t] = float(self.gpu_occupancy[t])
        g.active_rate[t] = 0.0
        self._gpu_start_time[t] = self.time
        self._gpu_recompute(g)

    def _gpu_progress(self, g: _GpuState) -> None:
        elapsed = self.time - g.last_time
        if elapsed > 0:
            for t, rate in g.active_rate.items():
                g.active_rem[t] = max(0.0, g.active_rem[t] - rate * elapsed)
        g.last_time = self.time

    def _gpu_recompute(self, g: _GpuState) -> None:
        """Re-plan kernel rates under the CUDA block scheduler model.

        Kernels receive device capacity FIFO (by start time): an earlier
        kernel gets up to its occupancy, later kernels fill what is left.
        Big kernels therefore serialize (as on real hardware) while small
        kernels genuinely overlap — the multi-stream effect of Fig. 3.
        A small floor keeps starved kernels creeping forward so the event
        loop cannot deadlock.
        """
        g.version += 1
        if not g.active_rem:
            return
        order = sorted(g.active_rem, key=lambda t: self._gpu_start_time[t])
        fracs = stream_shares([g.active_occ[t] for t in order])
        soonest, soonest_t = np.inf, None
        for t, frac in zip(order, fracs):
            rate = g.active_base[t] * frac
            g.active_rate[t] = rate
            eta = g.active_rem[t] / rate if rate > 0 else np.inf
            if eta < soonest:
                soonest, soonest_t = eta, t
        if soonest_t is not None:
            self.schedule(
                self.time + soonest, self._finish_gpu, soonest_t, g, g.version
            )

    def _finish_gpu(self, t: int, g: _GpuState, version: int) -> None:
        if version != g.version or t not in g.active_rem:
            return  # stale event
        self._gpu_progress(g)
        if g.active_rem[t] > 1e-6 * self.dag.flops[t]:
            # Sharing changed since scheduling: re-plan.
            self._gpu_recompute(g)
            return
        for d in (g.active_rem, g.active_rate, g.active_base, g.active_occ):
            d.pop(t, None)
        self._unpin(t, g)
        tgt = int(self.dag.target[t])
        self._mark_write(tgt, g.index)
        g.resident.move_to_end(tgt, last=True)
        if self.faults is not None and self.recovery.checkpoint_writeback:
            # Panel-granularity checkpoint: committed results reach the
            # host immediately, so a later device loss loses nothing.
            self._fetch_to_host(tgt)
        start = self._gpu_start_time.pop(t)
        if self.trace is not None:
            self.trace.record(t, f"gpu{g.index}", start, self.time)
        # A freed stream immediately picks up a staged (data-ready) task.
        while g.ready_queue and g.free_streams > 0:
            self._begin_gpu_compute(g.ready_queue.pop(0), g)
        self._gpu_recompute(g)
        self._complete(t, f"gpu{g.index}")

    # ------------------------------------------------------------------
    def _complete(self, t: int, resource: str) -> None:
        assert not self.done[t]
        self.done[t] = True
        self.n_done += 1
        self._unlock(t)
        self.policy.on_complete(t, resource)
        for s in self.dag.successors(t):
            self.deps_left[s] -= 1
            if self.deps_left[s] == 0:
                self._task_ready(int(s))
        self._kick()


def simulate(
    dag: TaskDAG,
    machine: MachineSpec,
    policy,
    *,
    dtype=np.float64,
    cpu_model: CpuPerfModel | None = None,
    gpu_model: GpuKernelModel | None = None,
    collect_trace: bool = True,
    faults: FaultModel | None = None,
    recovery: RecoveryPolicy | None = None,
    health: HealthPolicy | None = None,
) -> SimulationResult:
    """Simulate the execution of ``dag`` on ``machine`` under ``policy``.

    ``dtype`` only influences data volumes (complex panels are twice the
    bytes) — the flops in the DAG already carry the complex multiplier.

    ``faults`` arms the resilience layer: the fault model is consulted at
    every execution hook and recoveries follow ``recovery`` (defaults to
    :class:`repro.resilience.RecoveryPolicy`).  With ``faults=None`` the
    run is bit-identical to a build without the resilience layer.

    ``health`` arms worker health monitoring and graceful degradation
    (see :class:`repro.resilience.HealthPolicy`): an EWMA detector over
    CPU task durations drives a per-worker state machine, degraded
    workers are polled last and quarantined ones not at all, and — with
    ``health.hedge`` — in-flight tasks stuck on suspect workers are
    speculatively re-executed on a healthy one (first commit wins).
    With ``health=None`` the run is bit-identical to pre-monitoring
    builds (the R705 identity).
    """
    sim = _Simulator(
        dag,
        machine,
        policy,
        dtype=dtype,
        cpu_model=cpu_model,
        gpu_model=gpu_model,
        collect_trace=collect_trace,
        faults=faults,
        recovery=recovery,
        health=health,
    )
    return sim.run()
