"""Shared monotonic sequence counter for event-heap tie-breaking.

Every discrete-event heap in the project (:class:`repro.sim.EventLoop`,
which both simulators run on, and the distributed simulator's per-node
:class:`repro.sim.ReadyHeap` queues) breaks simultaneous-event ties with
a monotonically increasing integer drawn from one of these counters:
``(when, next(ctr), ...)``.
A heap tuple whose time key compares equal then falls through to the
sequence element, which is unique, so the pop order of simultaneous
events is total, reproducible, and independent of hash seeds, allocation
order, or callback-registration order.

This module exists so there is exactly one blessed implementation for
the RV5xx event-loop lint (:mod:`repro.verify.lint`) to recognize
and for the D8xx determinism auditor to trust:

* unlike ``itertools.count`` the counter exposes :attr:`~MonotonicCounter.count`
  (how many ties have been broken), which the simulators stamp into
  ``ExecutionTrace.meta`` as provenance;
* instances are plain picklable objects, so a trace-producing run can be
  checkpointed without losing its tie-break state.
"""

from __future__ import annotations

__all__ = ["MonotonicCounter", "monotonic_counter"]


class MonotonicCounter:
    """``next(ctr)`` returns 0, 1, 2, ... — never repeats, never skips."""

    __slots__ = ("_n",)

    def __init__(self, start: int = 0) -> None:
        self._n = start

    def __next__(self) -> int:
        n = self._n
        self._n = n + 1
        return n

    def __iter__(self) -> "MonotonicCounter":
        return self

    @property
    def count(self) -> int:
        """How many values have been drawn (the next value to be issued)."""
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonotonicCounter(next={self._n})"


def monotonic_counter(start: int = 0) -> MonotonicCounter:
    """The blessed tie-breaker factory for event/ready heaps."""
    return MonotonicCounter(start)
