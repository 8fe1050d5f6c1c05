"""Discrete-event simulation of the distributed factorization.

Execution model (the fan-in scheme of the paper's §VI, and PaStiX's MPI
layer):

* every panel lives on its owner node; the panel task and all update
  tasks *sourced* from it run there (compute-at-source — the factorized
  panel never travels);
* an update into a panel owned by the same node scatters directly
  (serialized per target by the usual mutex);
* an update into a *remote* panel accumulates into a node-local fan-in
  buffer; when the last local contribution to that panel completes, one
  message carries the whole buffer to the owner, where a cheap
  accumulate task (mutex-serialized like an update) applies it.  With
  ``fanin=False`` every remote update sends its own message immediately
  instead — more, smaller messages: the latency/bandwidth trade the
  paper describes.

The interconnect has one full-duplex NIC per node: sends serialize at
the sender, receives at the receiver.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dag.builder import build_dag, update_couples
from repro.distributed.cluster import ClusterSpec
from repro.machine.perfmodel import CpuPerfModel
from repro.resilience import (
    FaultModel,
    HealthMonitor,
    HealthPolicy,
    RecoveryPolicy,
)
from repro.runtime.base import bottom_levels
from repro.runtime.tracing import ExecutionTrace
from repro.sim import EventLoop, FaultLedger, ReadyHeap
from repro.symbolic.structures import SymbolMatrix

__all__ = ["simulate_distributed", "DistributedResult"]

#: Effective memory bandwidth for applying a received fan-in buffer.
_ACCUMULATE_GBPS = 4.0


@dataclass
class DistributedResult:
    """Outcome of one distributed simulation."""

    cluster: ClusterSpec
    fanin: bool
    makespan: float
    flops: float
    n_messages: int
    bytes_on_wire: float
    node_busy: list
    trace: Optional[ExecutionTrace]
    #: Faults injected during the run (0 when resilience is off).
    n_faults: int = 0
    #: Task attempts re-executed after a fault.
    n_reexecuted: int = 0
    #: Bytes of failed/lost messages that had to be re-sent.
    bytes_retransferred: float = 0.0
    #: Health state transitions taken (0 when monitoring is off).
    n_health_transitions: int = 0

    @property
    def gflops(self) -> float:
        return self.flops / self.makespan / 1e9 if self.makespan > 0 else 0.0

    @property
    def load_imbalance(self) -> float:
        """max(node busy) / mean(node busy) — 1.0 is perfect."""
        busy = np.asarray(self.node_busy)
        return float(busy.max() / busy.mean()) if busy.mean() > 0 else 1.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedResult(nodes={self.cluster.n_nodes}, "
            f"fanin={self.fanin}, {self.gflops:.1f} GFlop/s, "
            f"{self.n_messages} msgs, {self.bytes_on_wire / 1e6:.1f} MB)"
        )


class _DistSim(EventLoop):
    def __init__(
        self,
        symbol: SymbolMatrix,
        owner: np.ndarray,
        cluster: ClusterSpec,
        *,
        factotype: str,
        dtype,
        fanin: bool,
        cpu_model: CpuPerfModel | None,
        task_overhead_s: float,
        collect_trace: bool,
        faults: FaultModel | None = None,
        recovery: RecoveryPolicy | None = None,
        health: HealthPolicy | None = None,
    ) -> None:
        super().__init__()
        self.symbol = symbol
        self.owner = np.asarray(owner, dtype=np.int64)
        self.cluster = cluster
        self.factotype = factotype
        self.dtype = np.dtype(dtype)
        self.fanin = fanin
        self.cpu_model = cpu_model or CpuPerfModel()
        self.overhead = task_overhead_s
        self.ledger = FaultLedger("distributed.simulator", collect_trace,
                                  faults, recovery)
        self.trace = self.ledger.trace
        if self.trace is not None:
            self.trace.meta["fanin"] = bool(fanin)

        # Resilience.  Every fault hook below is gated on
        # ``self.faults is not None`` so a run without a fault model goes
        # through byte-identical code paths.
        self.faults = faults
        self.recovery = self.ledger.recovery

        # Health monitoring.  Tasks are owner-bound here (the factorized
        # panel never travels), so quarantining a node outright would
        # starve its panels and deadlock the run: quarantine is forced
        # off and *backpressure* (capping concurrent dispatch on a
        # degraded node, see ``_kick``) is the strongest reaction.
        # Hedged re-execution is likewise not applicable — there is no
        # healthy peer that could run an owner-bound duplicate.
        self.health: HealthMonitor | None = None
        if health is not None:
            self.health = self.ledger.monitor(
                (f"n{n}" for n in range(cluster.n_nodes)),
                dataclasses.replace(health, allow_quarantine=False,
                                    hedge=False))

        K = symbol.n_cblk
        if self.owner.shape != (K,):
            raise ValueError("owner array must have one entry per cblk")
        if self.owner.size and (
            self.owner.min() < 0 or self.owner.max() >= cluster.n_nodes
        ):
            raise ValueError("owner out of node range")

        self._precompute()
        self._init_state()
        # Node failures are purely time-driven.  A limplock resource
        # index is a node; a degraded-link index is the sending node's
        # NIC.
        self.ledger.arm(self, "node-fail", cluster.n_nodes, self._node_loss,
                        "n{}", "net{}")

    # ------------------------------------------------------------------
    def _precompute(self) -> None:
        symbol, factotype = self.symbol, self.factotype
        K = symbol.n_cblk
        # Reuse the 2D DAG for flops and priorities.
        dag = build_dag(symbol, factotype, granularity="2d",
                        dtype=self.dtype, recompute_ld=False)
        self.total_flops = dag.total_flops()
        bl = bottom_levels(dag)
        self.panel_prio = bl[:K]
        self.upd_prio = bl[K:]

        widths = np.diff(symbol.cblk_ptr).astype(np.int64)
        below = np.array([symbol.cblk_below(k) for k in range(K)])
        peak = self.cluster.cpu.peak_gflops * 1e9
        self.panel_dur = np.array([
            dag.flops[k] / (peak * self.cpu_model.panel_eff(
                float(widths[k]), float(below[k])))
            for k in range(K)
        ]) + self.overhead

        self.src, self.tgt, ms, ns = update_couples(symbol)
        n_upd = self.src.size
        self.upd_dur = np.empty(n_upd)
        per_entry = self.dtype.itemsize * (2 if factotype == "lu" else 1)
        self.contrib_bytes = (
            ms.astype(np.float64) * ns.astype(np.float64) * per_entry
        )
        heights = np.array([symbol.cblk_height(k) for k in range(K)])
        self.panel_bytes = heights * widths * float(per_entry)
        for i in range(n_upd):
            eff = self.cpu_model.update_eff(
                int(ms[i]), int(ns[i]), int(widths[self.src[i]]),
                factotype=factotype, recompute_ld=False,
            )
            self.upd_dur[i] = dag.flops[K + i] / (peak * eff) + self.overhead

        own = self.owner
        self.is_local = own[self.src] == own[self.tgt]

        # Dependency counts for each panel.
        self.panel_deps = np.zeros(K, dtype=np.int64)
        np.add.at(self.panel_deps, self.tgt[self.is_local], 1)
        if self.fanin:
            senders: dict[int, set[int]] = {}
            for i in np.flatnonzero(~self.is_local):
                senders.setdefault(int(self.tgt[i]), set()).add(
                    int(own[self.src[i]])
                )
            for t, s in senders.items():
                self.panel_deps[t] += len(s)
            # Fan-in buffers: (sender node, target) -> [pending, bytes].
            self.buffers: dict[tuple[int, int], list] = {}
            for i in np.flatnonzero(~self.is_local):
                key = (int(own[self.src[i]]), int(self.tgt[i]))
                entry = self.buffers.setdefault(key, [0, 0.0])
                entry[0] += 1
                entry[1] = min(
                    entry[1] + self.contrib_bytes[i],
                    float(self.panel_bytes[self.tgt[i]]),
                )
        else:
            np.add.at(self.panel_deps, self.tgt[~self.is_local], 1)

        # Updates of panel k, for release when the panel completes.
        self.updates_of: list[list[int]] = [[] for _ in range(K)]
        for i in range(n_upd):
            self.updates_of[self.src[i]].append(i)

    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        n_nodes = self.cluster.n_nodes
        self.ready = [ReadyHeap() for _ in range(n_nodes)]
        self.idle: list[set[int]] = [
            set(range(self.cluster.cores_per_node)) for _ in range(n_nodes)
        ]
        self.mutex_held: set[int] = set()
        self.mutex_wait: dict[int, list[tuple]] = {}
        self.send_free = [0.0] * n_nodes
        self.recv_free = [0.0] * n_nodes
        self.node_busy = [0.0] * n_nodes
        self.n_messages = 0
        self.bytes_on_wire = 0.0
        self.panels_done = 0
        # Resilience bookkeeping (only consulted when faults are armed).
        self.node_up = [True] * n_nodes
        self.node_epoch = [0] * n_nodes
        self.node_restore_at = [0.0] * n_nodes
        #: Attempts in flight: ``(node, core) -> (task, start, charged)``,
        #: where ``node_busy`` already counts ``[start, charged)`` of the
        #: attempt: its end, or its start for one doomed to fail.
        self.running: dict[tuple[int, int], tuple] = {}
        # Health bookkeeping: (node, core) -> start time of the attempt
        # whose completion the monitor will observe.
        self._hstart: dict[tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def _push_ready(self, node: int, prio: float, task: tuple) -> None:
        self.ready[node].push(prio, task)
        self._kick(node)

    def _kick(self, node: int) -> None:
        if self.faults is not None and not self.node_up[node]:
            return  # the node is down; _node_restored re-kicks it
        cap = None
        if self.health is not None and self.health.rank(f"n{node}") >= 1:
            # Backpressure: a degraded node runs at most
            # ``backpressure_limit`` tasks at once, so a limping node
            # drains its owner-bound queue slowly instead of hogging a
            # full complement of (slow) cores while remote consumers
            # starve.  The cap is >= 1, so progress is never lost.
            cap = max(1, self.health.policy.backpressure_limit)
        while self.idle[node] and self.ready[node]:
            if cap is not None and (
                    self.cluster.cores_per_node - len(self.idle[node])
                    >= cap):
                break
            task = self.ready[node].pop()
            grp = self._mutex_group(task)
            if grp is not None and grp in self.mutex_held:
                self.mutex_wait.setdefault(grp, []).append(task)
                continue
            if grp is not None:
                self.mutex_held.add(grp)
            core = min(self.idle[node])
            self.idle[node].discard(core)
            self._start(node, core, task)

    def _mutex_group(self, task: tuple) -> int | None:
        kind = task[0]
        if kind == "update":
            return int(self.tgt[task[1]])
        if kind == "acc":
            return int(task[2])
        return None

    def _duration(self, task: tuple) -> float:
        kind = task[0]
        if kind == "panel":
            return float(self.panel_dur[task[1]])
        if kind == "update":
            return float(self.upd_dur[task[1]])
        # ("acc", sender, target, bytes)
        return self.overhead + task[3] / (_ACCUMULATE_GBPS * 1e9)

    def _tid(self, task: tuple) -> int:
        """The trace task id of one (kind, index, ...) task tuple.

        Accumulate tasks are keyed by (sender, target) — keying by
        sender alone would alias every acc from one node to a single
        id, and the R602 double-completion audit (rightly) rejects a
        task id that completes twice without an interleaved fault.
        """
        kind = task[0]
        if kind == "panel":
            return int(task[1])
        if kind == "update":
            return 10**8 + int(task[1])
        # ("acc", sender, target, bytes)
        return (2 * 10**8 + int(task[2]) * self.cluster.n_nodes
                + int(task[1]))

    def _start(self, node: int, core: int, task: tuple) -> None:
        dur = self._duration(task)
        if self.health is not None:
            self._hstart[(node, core)] = self.time
        if self.faults is not None:
            tid = self._tid(task)
            dur = self.ledger.stretch(tid, -1, f"n{node}c{core}", node,
                                      self.time, dur)
            if self.faults.task_fault(tid, -1, self.time) is not None:
                # The attempt dies halfway through; no TraceEvent — the
                # task will re-execute after the backoff.  It occupies
                # its core until then, so a node loss restarts it.
                self.running[(node, core)] = (task, self.time, self.time)
                self.schedule(self.time + 0.5 * dur, self._task_fault,
                              node, core, task, self.node_epoch[node])
                return
        end = self.time + dur
        self.node_busy[node] += dur
        if self.faults is not None:
            # Recorded at commit: a node loss may still void the attempt.
            self.running[(node, core)] = (task, self.time, end)
        elif self.trace is not None:
            self.trace.record(
                self._tid(task), f"n{node}c{core}", self.time, end,
            )
        self.schedule(end, self._finish, node, core, task,
                      self.node_epoch[node])

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def _task_fault(self, node: int, core: int, task: tuple,
                    epoch: int) -> None:
        """A task attempt dies mid-execution (transient fault)."""
        if not self.node_up[node] or epoch != self.node_epoch[node]:
            return  # stale: the node died and restarted this attempt
        start = self.running.pop((node, core))[1]
        tid = self._tid(task)
        res = f"n{node}c{core}"
        self.node_busy[node] += self.time - start  # the wasted half
        att = self.ledger.charge(tid, "task-fault", tid, -1, res, start,
                                 self.time,
                                 what=f"distributed task {task!r} on node "
                                      f"{node}")
        grp = self._mutex_group(task)
        if grp is not None:
            self.mutex_held.discard(grp)
        delay = self.ledger.backoff(att - 1)
        self.ledger.rerun("requeue", tid, -1, res, self.time, att, delay)
        self.idle[node].add(core)
        self.schedule(self.time + delay, self._requeue, node, task)
        self._kick(node)

    def _requeue(self, node: int, task: tuple) -> None:
        self._push_ready(node, self._task_prio(task), task)

    def _node_loss(self, node: int) -> None:
        """Node ``node`` crashes: panel-granularity checkpointing means
        completed work persists; only in-flight tasks re-execute after
        the node restarts."""
        if not self.node_up[node]:
            return
        self.node_up[node] = False
        self.node_epoch[node] += 1
        restart = self.recovery.node_restart_s
        restore = self.time + restart
        self.node_restore_at[node] = restore
        self.ledger.fault("node-fail", -1, -1, f"n{node}", self.time,
                          self.time)
        self.ledger.recover("restart", -1, -1, f"n{node}", self.time,
                            delay=restart)
        lost: list[tuple] = []
        for (nd, core), (task, start, charged) in list(self.running.items()):
            if nd != node:
                continue
            del self.running[(nd, core)]
            tid = self._tid(task)
            res = f"n{node}c{core}"
            # Keep only the part of the attempt that ran.
            self.node_busy[node] -= charged - self.time
            att = self.ledger.charge(tid, "node-fail", tid, -1, res, start,
                                     self.time,
                                     what=f"distributed task {task!r} "
                                          f"(node {node} crashed)")
            grp = self._mutex_group(task)
            if grp is not None:
                self.mutex_held.discard(grp)
            self.ledger.rerun("restart", tid, -1, res, self.time, att,
                              restart)
            lost.append(task)
        self.schedule(restore, self._node_restored, node, tuple(lost))

    def _node_restored(self, node: int, lost: tuple) -> None:
        self.node_up[node] = True
        self.idle[node] = set(range(self.cluster.cores_per_node))
        for task in lost:
            self._push_ready(node, self._task_prio(task), task)
        self._kick(node)

    # ------------------------------------------------------------------
    def _finish(self, node: int, core: int, task: tuple,
                epoch: int) -> None:
        if self.faults is not None:
            if not self.node_up[node] or epoch != self.node_epoch[node]:
                return  # stale: the node died while this task ran
            start = self.running.pop((node, core))[1]
            if self.trace is not None:
                self.trace.record(self._tid(task), f"n{node}c{core}",
                                  start, self.time)
        if self.health is not None:
            hstart = self._hstart.pop((node, core), None)
            if hstart is not None:
                self.ledger.record_health(self.health.observe(
                    f"n{node}", task[0], self.time - hstart, self.time,
                    expected=self._duration(task),
                ))
        self.idle[node].add(core)
        grp = self._mutex_group(task)
        if grp is not None:
            self.mutex_held.discard(grp)
            for waiting in self.mutex_wait.pop(grp, []):
                w_node = self._task_node(waiting)
                prio = self._task_prio(waiting)
                self._push_ready(w_node, prio, waiting)

        kind = task[0]
        if kind == "panel":
            k = task[1]
            self.panels_done += 1
            for i in self.updates_of[k]:
                self._push_ready(node, float(self.upd_prio[i]), ("update", i))
        elif kind == "update":
            i = task[1]
            t = int(self.tgt[i])
            if self.is_local[i]:
                self._panel_contribution(t)
            elif self.fanin:
                key = (node, t)
                entry = self.buffers[key]
                entry[0] -= 1
                if entry[0] == 0:
                    self._send(node, int(self.owner[t]), t, entry[1])
            else:
                self._send(node, int(self.owner[t]), t,
                           float(self.contrib_bytes[i]))
        else:  # acc
            self._panel_contribution(int(task[2]))
        self._kick(node)

    def _task_node(self, task: tuple) -> int:
        if task[0] == "update":
            return int(self.owner[self.src[task[1]]])
        if task[0] == "acc":
            return int(self.owner[task[2]])
        return int(self.owner[task[1]])

    def _task_prio(self, task: tuple) -> float:
        if task[0] == "update":
            return float(self.upd_prio[task[1]])
        if task[0] == "acc":
            return float(self.panel_prio[task[2]])
        return float(self.panel_prio[task[1]])

    def _panel_contribution(self, t: int) -> None:
        self.panel_deps[t] -= 1
        if self.panel_deps[t] == 0:
            node = int(self.owner[t])
            self._push_ready(node, float(self.panel_prio[t]), ("panel", t))

    def _send(self, a: int, b: int, target: int, nbytes: float) -> None:
        start = max(self.time, self.send_free[a])
        # A degraded link slows the sender's NIC.
        deg = self.ledger.link_factor(a, start)
        wire = self.cluster.net_latency_s + deg * nbytes / (
            self.cluster.net_gbps * 1e9)
        net = f"net{a}->{b}"
        start = self.ledger.transfer(b, target, net, start, wire, nbytes)
        self.send_free[a] = start + wire
        arrival = max(start + wire, self.recv_free[b])
        self.recv_free[b] = arrival
        self.n_messages += 1
        self.bytes_on_wire += nbytes
        if self.trace is not None:
            self.trace.record_transfer(target, net, start, arrival)
        self.schedule(arrival, self._arrive, a, b, target, nbytes)

    def _arrive(self, a: int, b: int, target: int, nbytes: float) -> None:
        if self.faults is not None and not self.node_up[b]:
            # The destination is down: the message is lost and must be
            # retransmitted once the node is back (the runtime knows the
            # restart delay, so the resend is timed to land after it).
            net = f"net{a}->{b}"
            att = self.ledger.charge(
                ("msg", a, b, target), "message-loss", -1, target, net,
                self.time, self.time, nbytes,
                what=f"message for panel {target} to node {b}",
            )
            retry = max(self.time + self.ledger.backoff(att - 1),
                        self.node_restore_at[b])
            self.ledger.recover("resend", -1, target, net, self.time, att,
                                retry - self.time)
            self.schedule(retry, self._send, a, b, target, nbytes)
            return
        self._push_ready(
            b, float(self.panel_prio[target]), ("acc", a, target, nbytes)
        )

    # ------------------------------------------------------------------
    def run(self) -> DistributedResult:
        for k in np.flatnonzero(self.panel_deps == 0):
            self._push_ready(
                int(self.owner[k]), float(self.panel_prio[k]),
                ("panel", int(k)),
            )
        # A node loss or limp onset timed past completion is moot.
        self.run_events(lambda: self.panels_done == self.symbol.n_cblk,
                        (self._node_loss, self.ledger.onset))
        if self.panels_done != self.symbol.n_cblk:
            raise RuntimeError(
                f"distributed simulation stalled: "
                f"{self.panels_done}/{self.symbol.n_cblk} panels"
            )
        self.ledger.stamp_rng()
        return DistributedResult(
            cluster=self.cluster,
            fanin=self.fanin,
            makespan=self.time,
            flops=self.total_flops,
            n_messages=self.n_messages,
            bytes_on_wire=self.bytes_on_wire,
            node_busy=self.node_busy,
            trace=self.trace,
            n_faults=self.ledger.n_faults,
            n_reexecuted=self.ledger.n_reexecuted,
            bytes_retransferred=self.ledger.bytes_retransferred,
            n_health_transitions=(
                self.health.n_transitions if self.health is not None else 0
            ),
        )


def simulate_distributed(
    symbol: SymbolMatrix,
    owner: np.ndarray,
    cluster: ClusterSpec,
    *,
    factotype: str = "llt",
    dtype=np.float64,
    fanin: bool = True,
    cpu_model: CpuPerfModel | None = None,
    task_overhead_s: float = 1e-6,
    collect_trace: bool = False,
    faults: FaultModel | None = None,
    recovery: RecoveryPolicy | None = None,
    health: HealthPolicy | None = None,
) -> DistributedResult:
    """Simulate the distributed factorization of ``symbol``.

    ``owner`` maps each cblk to a node (see
    :func:`repro.distributed.mapping.map_cblks`); ``fanin`` selects the
    accumulated-buffer communication scheme vs. per-update messages.
    ``faults`` arms the resilience layer (node failures, lost messages,
    task faults, and the persistent ``limplock`` / ``degraded-link``
    conditions); with ``faults=None`` the run is bit-identical to a
    build without it.

    ``health`` arms per-node health monitoring: an EWMA detector over
    task durations drives each node's state machine, and dispatch to a
    degraded node is backpressured (at most
    ``health.backpressure_limit`` concurrent tasks).  Tasks are
    owner-bound here, so quarantine and hedging are forced off — see
    the :class:`~repro.resilience.HealthPolicy` notes.  With
    ``health=None`` the run is bit-identical to a build without
    monitoring.
    """
    sim = _DistSim(
        symbol,
        owner,
        cluster,
        factotype=factotype,
        dtype=dtype,
        fanin=fanin,
        cpu_model=cpu_model,
        task_overhead_s=task_overhead_s,
        collect_trace=collect_trace,
        faults=faults,
        recovery=recovery,
        health=health,
    )
    return sim.run()
