"""Worker health tracking and graceful degradation.

The resilience layer (PR 3) models *binary* failures: a worker is alive
or crashed.  A limping worker is a distinct and nastier class — it keeps
accepting (and stealing) work it executes 10-100x too slowly, silently
inflating makespan, whereas a dead one is detected and routed around.
This module supplies the detection half of graceful degradation; the
engines supply the reaction half (dispatch skipping, steal filtering,
backpressure, hedged re-execution):

* :class:`HealthPolicy` — the knobs: EWMA smoothing, the slowdown
  ratios that drive state transitions, quarantine/probation dwell
  parameters, and the hedging thresholds;
* :class:`HealthMonitor` — a per-resource state machine

  .. code-block:: text

      healthy -> suspect -> degraded -> quarantined -> probation
         ^---------/            \\----------------------^    |
         ^------------------------------------------ (clean) |
         \\<------------------------------------- (relapse)

  driven by an EWMA of observed-over-expected task duration per
  resource, where the expectation is per-(kernel, size-bucket): either
  supplied by the caller (the simulators know their duration model) or
  learned online as a running mean over currently-healthy workers.

Every transition the monitor takes is returned to the caller, which
records it as a :class:`~repro.runtime.tracing.HealthEvent`; the R702
audit replays the recorded chain against :data:`LEGAL_TRANSITIONS`.
The monitor is deterministic — no RNG, no wall clock; time is always
passed in by the engine — so seeded simulator runs with monitoring on
replay bit-identically (D801).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = [
    "HEALTH_STATES",
    "LEGAL_TRANSITIONS",
    "HEALTH_RANK",
    "HealthPolicy",
    "HealthMonitor",
    "bucket_key",
]


def bucket_key(kind: int, flops: float) -> str:
    """Canonical per-(kernel, size-bucket) expectation key.

    ``"<kind>:<log2 bucket>"`` where the bucket is the floor of
    ``log2(flops)`` (flops clamped to >= 1, so a costless task lands in
    bucket 0).  Every consumer of per-kernel duration statistics keys
    through this one helper so their buckets can never drift apart (a
    drifted key would silently reset a worker's EWMA).
    """
    return f"{int(kind)}:{int(math.log2(max(float(flops), 1.0)))}"

#: States of the per-resource health machine, in degradation order.
HEALTH_STATES = (
    "healthy",      # EWMA near 1.0: full scheduling participation
    "suspect",      # mildly slow: still scheduled, in-flight work hedged
    "degraded",     # badly slow: de-prioritized, no stealing, backpressured
    "quarantined",  # pathological: receives no work until a probe window
    "probation",    # recovering: must run `probation_tasks` clean tasks
)

#: Legal edges of the state machine (the R702 contract).
LEGAL_TRANSITIONS = frozenset({
    ("healthy", "suspect"),
    ("suspect", "healthy"),
    ("suspect", "degraded"),
    ("degraded", "quarantined"),
    ("degraded", "probation"),
    ("quarantined", "probation"),
    ("probation", "healthy"),
    ("probation", "suspect"),
})

#: Scheduling severity: 0 = full participation (hedging aside),
#: 1 = de-prioritize / no stealing / backpressure, 2 = no dispatch.
HEALTH_RANK = {
    "healthy": 0,
    "suspect": 0,
    "probation": 0,
    "degraded": 1,
    "quarantined": 2,
}


@dataclass(frozen=True)
class HealthPolicy:
    """Detection and reaction knobs for :class:`HealthMonitor`.

    The ratio thresholds are EWMA values of observed/expected duration;
    with the default EWMA weight a persistent ``factor``x limplock
    converges to an EWMA of ``factor`` within a handful of tasks.
    """

    #: EWMA weight of the newest observation.
    ewma_alpha: float = 0.4
    #: Observations on a resource before any transition may fire.
    min_samples: int = 3
    #: healthy -> suspect when the EWMA crosses this.
    suspect_ratio: float = 2.0
    #: suspect -> degraded.
    degraded_ratio: float = 4.0
    #: degraded -> quarantined.
    quarantine_ratio: float = 8.0
    #: Falling below this recovers (suspect -> healthy,
    #: degraded -> probation).
    recover_ratio: float = 1.5
    #: Signal floor: an observation whose duration *and* expectation
    #: both sit below this carries no health signal (on microsecond
    #: tasks, scheduler jitter alone exceeds every ratio threshold)
    #: and is only used to learn the expectation.  On wall-clock
    #: durations it would be a few OS-scheduling quanta; the simulators
    #: keep the 0.0 default (their virtual durations are exact).
    min_duration_s: float = 0.0
    #: Dwell time in quarantine before the probe into probation.
    quarantine_s: float = 0.05
    #: Clean observations required in probation before healthy.
    probation_tasks: int = 3
    #: Permit the quarantined state at all (the distributed simulator
    #: disables it: its tasks are owner-bound, so starving a node of
    #: dispatch entirely would deadlock the run — R703 stays trivially
    #: satisfied there and backpressure is the strongest reaction).
    allow_quarantine: bool = True
    #: Arm speculative (hedged) re-execution of in-flight tasks stuck
    #: on suspect-or-worse workers.
    hedge: bool = False
    #: Hedge when in-flight time exceeds ``hedge_ratio`` x expectation.
    hedge_ratio: float = 3.0
    #: Floor on the hedge threshold (suppresses hedging noise-length
    #: tasks; also the fallback when no expectation is known yet).
    hedge_min_s: float = 0.0
    #: Max concurrently running tasks on a degraded distributed node.
    backpressure_limit: int = 1


class HealthMonitor:
    """Per-resource health state machine over duration observations.

    Engines call :meth:`observe` after every completed task and
    :meth:`tick` from their dispatch loop; both return the list of
    transitions taken (``(resource, src, dst, time, ratio, reason)``)
    for the caller to record as trace :class:`HealthEvent` rows.  All
    mutating entry points take an internal lock, so an engine may
    observe from many threads concurrently.
    """

    def __init__(
        self,
        resources: Iterable[str] = (),
        *,
        policy: Optional[HealthPolicy] = None,
    ) -> None:
        self.policy = policy or HealthPolicy()
        self._state: dict[str, str] = {}
        self._ewma: dict[str, float] = {}
        self._count: dict[str, int] = {}
        self._probation_left: dict[str, int] = {}
        self._quarantined_at: dict[str, float] = {}
        #: Learned expectation per (kernel, size-bucket) key:
        #: key -> [n_samples, running mean].
        self._means: dict[str, list[float]] = {}
        self.n_observations = 0
        self.n_transitions = 0
        self._lock = threading.Lock()
        for r in resources:
            self.register(r)

    # ------------------------------------------------------------------
    # registration and queries
    # ------------------------------------------------------------------
    def register(self, resource: str) -> None:
        """Register a monitored resource (idempotent; starts healthy)."""
        with self._lock:
            if resource not in self._state:
                self._state[resource] = "healthy"
                self._ewma[resource] = 1.0
                self._count[resource] = 0

    def state(self, resource: str) -> str:
        return self._state.get(resource, "healthy")

    def rank(self, resource: str) -> int:
        """Scheduling severity of ``resource`` (see :data:`HEALTH_RANK`)."""
        return HEALTH_RANK[self.state(resource)]

    def ewma(self, resource: str) -> float:
        return self._ewma.get(resource, 1.0)

    def counts(self) -> dict[str, int]:
        """Number of resources currently in each state."""
        out = {s: 0 for s in HEALTH_STATES}
        for s in self._state.values():
            out[s] += 1
        return out

    # ------------------------------------------------------------------
    # expectation model
    # ------------------------------------------------------------------
    def expected(self, key: str) -> Optional[float]:
        """Learned expected duration for a (kernel, size-bucket) key."""
        m = self._means.get(key)
        return m[1] if m else None

    def _learn(self, resource: str, key: str, duration: float) -> None:
        """Fold one observation into the learned expectation — only from
        rank-0 resources, so a limping worker cannot drag the baseline
        up after detection (before detection it contributes like anyone,
        which merely makes the detector slightly conservative)."""
        if HEALTH_RANK[self._state.get(resource, "healthy")] != 0:
            return
        m = self._means.setdefault(key, [0.0, 0.0])
        m[0] += 1.0
        m[1] += (duration - m[1]) / m[0]

    def hedge_after(self, key: str) -> Optional[float]:
        """In-flight age beyond which a task with this key should be
        hedged, or ``None`` when hedging is off / no basis exists."""
        p = self.policy
        if not p.hedge:
            return None
        exp = self.expected(key)
        if exp is not None and exp > 0.0:
            return max(p.hedge_ratio * exp, p.hedge_min_s)
        return p.hedge_min_s if p.hedge_min_s > 0.0 else None

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def _transition(
        self,
        out: list[tuple[str, str, str, float, float, str]],
        resource: str,
        dst: str,
        now: float,
        ratio: float,
        reason: str,
    ) -> None:
        src = self._state[resource]
        if (src, dst) not in LEGAL_TRANSITIONS:  # pragma: no cover
            raise AssertionError(f"illegal health transition {src}->{dst}")
        self._state[resource] = dst
        self.n_transitions += 1
        if dst == "quarantined":
            self._quarantined_at[resource] = now
        elif dst == "probation":
            self._quarantined_at.pop(resource, None)
            self._probation_left[resource] = self.policy.probation_tasks
            self._ewma[resource] = 1.0
        out.append((resource, src, dst, now, ratio, reason))

    def _can_quarantine(self) -> bool:
        """Never quarantine the last dispatchable resource: with every
        worker starved of work the run would deadlock."""
        n_quar = sum(1 for s in self._state.values() if s == "quarantined")
        return n_quar + 1 < len(self._state)

    def observe(
        self,
        resource: str,
        key: str,
        duration: float,
        now: float,
        expected: Optional[float] = None,
    ) -> list[tuple[str, str, str, float, float, str]]:
        """Fold one completed-task duration into ``resource``'s EWMA and
        step its state machine; returns the transitions taken.

        ``expected`` is the modelled duration when the engine has one
        (the simulators); ``None`` uses the learned per-key mean.
        """
        p = self.policy
        with self._lock:
            self.register_locked(resource)
            self.n_observations += 1
            exp = expected
            if exp is None:
                exp = self.expected(key)
            self._learn(resource, key, duration)
            if exp is None or exp <= 0.0:
                return []
            if duration < p.min_duration_s and exp < p.min_duration_s:
                # Below the signal floor both ways: pure noise.  (A
                # duration *above* the floor against a tiny expectation
                # is exactly the limplock signature, so that still
                # counts.)
                return []
            ratio = duration / exp
            ew = self._ewma[resource]
            ew += p.ewma_alpha * (ratio - ew)
            self._ewma[resource] = ew
            self._count[resource] += 1
            if self._count[resource] < p.min_samples:
                return []
            out: list[tuple[str, str, str, float, float, str]] = []
            state = self._state[resource]
            if state == "healthy":
                if ew >= p.suspect_ratio:
                    self._transition(out, resource, "suspect", now, ew, "ewma")
            elif state == "suspect":
                if ew >= p.degraded_ratio:
                    self._transition(out, resource, "degraded", now, ew, "ewma")
                elif ew < p.recover_ratio:
                    self._transition(out, resource, "healthy", now, ew, "ewma")
            elif state == "degraded":
                if (ew >= p.quarantine_ratio and p.allow_quarantine
                        and self._can_quarantine()):
                    self._transition(out, resource, "quarantined", now, ew,
                                     "ewma")
                elif ew < p.recover_ratio:
                    self._transition(out, resource, "probation", now, ew,
                                     "ewma")
            elif state == "probation":
                if ew >= p.suspect_ratio:
                    self._transition(out, resource, "suspect", now, ew,
                                     "relapse")
                else:
                    left = self._probation_left.get(resource, 0) - 1
                    self._probation_left[resource] = left
                    if left <= 0:
                        self._transition(out, resource, "healthy", now, ew,
                                         "probation")
            # quarantined: exits only via the timer in tick().
            return out

    def register_locked(self, resource: str) -> None:
        """Registration for callers already holding the lock."""
        if resource not in self._state:
            self._state[resource] = "healthy"
            self._ewma[resource] = 1.0
            self._count[resource] = 0

    def tick(self, now: float) -> list[tuple[str, str, str, float, float, str]]:
        """Time-driven transitions: quarantine dwell expiry -> probation.

        Engines call this from their dispatch loop; cheap no-op when
        nothing is quarantined.
        """
        if not self._quarantined_at:
            return []
        with self._lock:
            out: list[tuple[str, str, str, float, float, str]] = []
            due = [r for r, t0 in sorted(self._quarantined_at.items())
                   if now - t0 >= self.policy.quarantine_s]
            for r in due:
                self._transition(out, r, "probation", now,
                                 self._ewma.get(r, 1.0), "probe")
            return out
