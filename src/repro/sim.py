"""Discrete-event core shared by the machine and distributed simulators.

Both simulators (:mod:`repro.machine.simulator`,
:mod:`repro.distributed.simulator`) are built from the three pieces
here, which own clauses 1–3 and 5 of the determinism contract in
``docs/simulation_model.md``:

* :class:`EventLoop` — the virtual clock and the event heap.  Every
  event is ``(when, next(seq), fn, args)`` with a
  :class:`~repro.runtime.seq.MonotonicCounter`, so simultaneous events
  pop in submission order; the clock moves only when an event pops.
* :class:`FaultLedger` — everything a run records about faults: the
  trace and its provenance stamps, per-unit attempt charging against the
  retry budget, the jittered backoff (drawn from the run's one seeded
  :class:`~repro.resilience.FaultModel`), the persistent limplock /
  degraded-link windows, the transfer retry loop and health
  transitions.  With ``faults=None`` nothing here draws, schedules or
  records a fault, so a fault-free run takes the fault-free code path.
* :class:`ReadyHeap` — a max-priority ready queue whose ties pop in push
  order (the distributed simulator's per-node queues).

The simulators keep the mechanics that differ — resources, coherence,
dispatch, what a fault does to in-flight work.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

from repro.resilience import (
    FaultModel,
    HealthMonitor,
    HealthPolicy,
    RecoveryPolicy,
    UnrecoverableError,
    window_factor,
)
from repro.runtime.seq import monotonic_counter
from repro.runtime.tracing import ExecutionTrace

__all__ = ["EventLoop", "FaultLedger", "ReadyHeap"]


class EventLoop:
    """Virtual clock plus an event heap tie-broken by a sequence counter."""

    def __init__(self) -> None:
        self.time = 0.0
        self._heap: list = []
        self._seq = monotonic_counter()

    def schedule(self, when: float, fn: Callable, *args: Any) -> None:
        """Call ``fn(*args)`` at virtual time ``when``."""
        heapq.heappush(self._heap, (when, next(self._seq), fn, args))

    def pending(self, fn: Callable) -> list[tuple]:
        """Argument tuples of the queued (not yet popped) ``fn`` events."""
        return [args for (_, _, f, args) in self._heap if f == fn]

    def run_events(self, finished: Callable[[], bool],
                   moot: tuple) -> None:
        """Pop events in ``(when, seq)`` order until the heap is empty.

        Once ``finished()`` holds, events whose callback is in ``moot``
        are dropped without advancing the clock: a fault or probe timed
        past the end of the run must not drag the makespan out to it.
        """
        heap = self._heap
        while heap:
            when, _, fn, args = heapq.heappop(heap)
            if fn in moot and finished():
                continue
            self.time = when
            fn(*args)


class ReadyHeap:
    """Highest priority first; equal priorities pop in push order."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = monotonic_counter()

    def push(self, prio: float, item: Any) -> None:
        heapq.heappush(self._heap, (-prio, next(self._seq), item))

    def pop(self) -> Any:
        return heapq.heappop(self._heap)[2]

    def __bool__(self) -> bool:
        return bool(self._heap)


class FaultLedger:
    """The trace, fault counters and recovery bookkeeping of one run.

    ``producer`` names the simulator in ``trace.meta``; the trace is
    ``None`` when ``collect_trace`` is off, and every recording method
    is then a no-op on it (counters still count).
    """

    def __init__(
        self,
        producer: str,
        collect_trace: bool,
        faults: Optional[FaultModel],
        recovery: Optional[RecoveryPolicy],
    ) -> None:
        self.trace = ExecutionTrace() if collect_trace else None
        if self.trace is not None:
            self.trace.meta["producer"] = producer
            self.trace.meta["clock"] = "virtual"
        self.faults = faults
        self.recovery = recovery or RecoveryPolicy()
        #: Failed attempts so far, per task / message key.
        self.attempts: dict = {}
        self.n_faults = 0
        self.n_reexecuted = 0
        self.bytes_retransferred = 0.0
        #: Persistent slowdown windows per resource index (consumed
        #: whole by :meth:`arm`; declarative state, not per-attempt draws).
        self.limp: dict[int, list] = {}
        self.linkdeg: dict[int, list] = {}

    # ------------------------------------------------------------------
    def arm(self, loop: EventLoop, loss_kind: str, n_resources: int,
            on_loss: Callable, limp_name: str, link_name: str) -> None:
        """Pre-schedule the purely time-driven faults.

        Each ``loss_kind`` spec (``gpu-loss`` / ``node-fail``) becomes an
        ``on_loss(index)`` event; the limplock and degraded-link windows
        are taken out of the fault model, and each window's onset is
        scheduled as a paired fault/recovery (:meth:`onset`) on the
        resource named ``limp_name.format(i)`` / ``link_name.format(i)``
        so the R6xx auditor sees it.
        """
        if self.faults is None:
            return
        for spec in self.faults.pop_timed(loss_kind):
            idx = spec.resource if spec.resource >= 0 else 0
            if idx < n_resources:
                loop.schedule(spec.time, on_loss, idx)
        self.limp = self.faults.pop_windows("limplock")
        self.linkdeg = self.faults.pop_windows("degraded-link")
        for kind, windows, name in (
            ("limplock", self.limp, limp_name),
            ("degraded-link", self.linkdeg, link_name),
        ):
            for i, spans in sorted(windows.items()):
                for (t0, _t1, _f) in spans:
                    loop.schedule(t0, self.onset, kind, name.format(i), t0)

    def onset(self, kind: str, resource: str, t0: float) -> None:
        """A persistent condition (limplock / degraded-link) begins.

        The slowdown itself is applied where durations are computed;
        this event only makes the onset trace-visible as a paired
        fault/recovery (kind ``"degrade"``: the runtime tolerates the
        condition in place and degrades around it).
        """
        self.n_faults += 1
        if self.trace is not None:
            self.trace.record_fault(kind, -1, -1, resource, t0, t0)
            self.trace.record_recovery("degrade", -1, -1, resource, t0)

    def limp_factor(self, idx: int, now: float) -> float:
        """Limplock slowdown of resource ``idx`` at ``now``."""
        return window_factor(self.limp.get(idx), now)

    def link_factor(self, idx: int, now: float) -> float:
        """Bandwidth divisor of link ``idx`` at ``now`` (a degraded link
        keeps its per-transfer latency)."""
        return window_factor(self.linkdeg.get(idx), now)

    def stretch(self, task: int, cblk: int, resource: str, idx: int,
                start: float, dur: float) -> float:
        """Duration of an attempt starting at ``start`` after the
        straggler draw and resource ``idx``'s limplock window.  A
        straggler still succeeds, just slower: the runtime absorbs it in
        place (no re-execution)."""
        factor = self.faults.straggler(task, start)
        if factor > 1.0:
            self.n_faults += 1
            if self.trace is not None:
                att = self.attempts.get(task, 0) + 1
                self.trace.record_fault("straggler", task, cblk, resource,
                                        start, start + dur * factor, att)
                self.trace.record_recovery("absorb", task, cblk, resource,
                                           start, att)
            dur *= factor
        return dur * self.limp_factor(idx, start)

    # ------------------------------------------------------------------
    def fault(self, kind: str, task: int, cblk: int, resource: str,
              start: float, end: float, attempt: int = 1,
              nbytes: float = 0.0, what: Optional[str] = None) -> None:
        """Count and record one fault window.

        With ``what`` (the failed unit, for the message) the attempt is
        held to the retry budget: past ``max_retries`` the run raises
        :class:`UnrecoverableError`.
        """
        self.n_faults += 1
        self.bytes_retransferred += nbytes
        if self.trace is not None:
            self.trace.record_fault(kind, task, cblk, resource, start, end,
                                    attempt, nbytes)
        if what is not None and attempt > self.recovery.max_retries:
            raise UnrecoverableError(
                f"{what} failed {attempt} attempt(s); retry budget "
                f"max_retries={self.recovery.max_retries} exhausted"
            )

    def charge(self, key: Any, kind: str, task: int, cblk: int,
               resource: str, start: float, end: float, nbytes: float = 0.0,
               what: Optional[str] = None) -> int:
        """One more failed attempt of ``key``; see :meth:`fault`.
        Returns the attempt number."""
        attempt = self.attempts.get(key, 0) + 1
        self.attempts[key] = attempt
        self.fault(kind, task, cblk, resource, start, end, attempt, nbytes,
                   what)
        return attempt

    def backoff(self, attempt: int) -> float:
        """Recovery backoff; jitter (when configured) draws from the
        run's single fault RNG so D803 draw accounting balances."""
        if self.recovery.jitter > 0.0 and self.faults is not None:
            return self.recovery.backoff(attempt,
                                         self.faults.backoff_jitter())
        return self.recovery.backoff(attempt)

    def recover(self, kind: str, task: int, cblk: int, resource: str,
                when: float, attempt: int = 1, delay: float = 0.0) -> None:
        """Record one recovery action."""
        if self.trace is not None:
            self.trace.record_recovery(kind, task, cblk, resource, when,
                                       attempt, delay)

    def rerun(self, kind: str, task: int, cblk: int, resource: str,
              when: float, attempt: int, delay: float) -> None:
        """Record the recovery that re-executes a charged task attempt."""
        self.recover(kind, task, cblk, resource, when, attempt, delay)
        self.n_reexecuted += 1

    def transfer(self, link: int, cblk: int, resource: str, start: float,
                 dur: float, nbytes: float) -> float:
        """Start time of the attempt that succeeds at moving panel
        ``cblk`` over ``resource`` (fault-model index ``link``).

        Each failed attempt occupies the link for at most the
        per-attempt timeout, then backs off exponentially.  Failed
        attempts emit fault windows only (the bytes never landed), so
        the M4xx replay stays consistent.
        """
        if self.faults is None:
            return start
        attempt = 1
        while self.faults.transfer_fails(link, cblk, start):
            cost = min(dur, self.recovery.transfer_timeout_s)
            self.fault("transfer-fail", -1, cblk, resource, start,
                       start + cost, attempt, nbytes,
                       what=f"transfer of panel {cblk} on {resource}")
            delay = self.backoff(attempt - 1)
            self.recover("retry-transfer", -1, cblk, resource, start + cost,
                         attempt, delay)
            start = start + cost + delay
            attempt += 1
        return start

    # ------------------------------------------------------------------
    def monitor(self, resources: Iterable[str],
                policy: HealthPolicy) -> HealthMonitor:
        """A health monitor over ``resources``; the trace notes whether
        it hedges.  Its transitions come back through
        :meth:`record_health`."""
        if self.trace is not None:
            self.trace.meta["health"] = {"hedge": policy.hedge}
        return HealthMonitor(resources, policy=policy)

    def record_health(self, transitions) -> None:
        if self.trace is not None:
            for (res, src, dst, when, ratio, reason) in transitions:
                self.trace.record_health(res, src, dst, when, ratio, reason)

    def stamp_rng(self) -> None:
        """D8xx provenance: the seed of the one RNG every stochastic
        decision of the run came from, and how many draws it served."""
        if self.trace is not None:
            self.trace.meta["rng"] = (
                {"seed": self.faults.seed, "draws": self.faults.n_draws}
                if self.faults is not None else None
            )
