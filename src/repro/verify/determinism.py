"""Determinism auditor (D8xx): same-seed replay and tie-break discipline.

The project's reproducibility claims — "zero-fault runs are
bit-identical", "a (seed, rate) pair always yields the same fault
sequence" — were, until this pass, asserted ad hoc by individual tests.
This module audits them from traces the way the other passes audit
everything else, built on the canonical order-sensitive
:meth:`~repro.runtime.tracing.ExecutionTrace.fingerprint`:

* **D801 same-seed replay divergence** — re-run the scenario with a
  fresh same-seed fault model and compare fingerprints; any difference
  (a tie resolved by hash order, an unseeded draw, wall-clock leakage
  into simulated time) is a determinism bug;
* **D802 event-time monotonicity and tie-break totality** — every
  event must carry a record-order ``seq`` stamp, no two events may
  share one (two events at equal time with equal sequence have no
  defined order), time may not run backwards inside an event, and on a
  serial resource the sequence order must agree with the time order;
* **D803 RNG-draw provenance** — every stochastic decision comes from
  the one seeded :class:`~repro.resilience.faults.FaultModel` RNG,
  whose ``(seed, draws)`` the simulators stamp into
  ``meta["rng"]``; the replay must consume the RNG identically, so a
  mid-run reseed or an out-of-band draw shows up as a provenance
  mismatch;
* **D804 cross-run trace-diff localization** — when D801 fires, the
  first diverging canonical line of the two fingerprints is reported
  verbatim (:func:`trace_diff`), so a replay failure is debuggable
  rather than a bare hash mismatch;
* **D805 meta/seed stamping completeness** — the producer, clock
  domain, and (for simulator traces) RNG provenance must be stamped;
  an unstamped trace cannot be audited or reproduced.

Traces come in two clock domains (``meta["clock"]``): ``"virtual"``
(the simulators — times are part of the deterministic contract) and
``"wall"`` (the real threaded runtime — only the executed-task set and
fault/recovery decisions are deterministic).  D802's seq checks apply
to virtual-clock traces only; D801/D803/D805 apply to both.

The injectors (``reorder_ties``, ``reseed_midrun``, ``drop_seq``)
corrupt a trace the way a broken event loop would, for the
verify-the-verifier self-tests (``make selftest``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.runtime.tracing import ExecutionTrace, TraceEvent
from repro.verify.report import Report

__all__ = [
    "verify_determinism",
    "trace_diff",
    "reorder_ties",
    "reseed_midrun",
    "drop_seq",
]

_TOL = 0.0


def trace_diff(a: ExecutionTrace, b: ExecutionTrace) -> Optional[str]:
    """First diverging canonical line between two traces (D804).

    Returns ``None`` when the canonical renderings are identical (the
    fingerprints then match too), else a human-readable one-line
    description of the earliest divergence.
    """
    la, lb = a.fingerprint_lines(), b.fingerprint_lines()
    for i, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return (f"first divergence at canonical line {i}: "
                    f"run A {x!r} vs run B {y!r}")
    if len(la) != len(lb):
        i = min(len(la), len(lb))
        extra, which = (la, "A") if len(la) > len(lb) else (lb, "B")
        return (f"run {which} has {abs(len(la) - len(lb))} extra "
                f"canonical line(s) from line {i}: first is {extra[i]!r}")
    return None


def _audit_order(trace: ExecutionTrace, report: Report) -> None:
    """D802: seq stamping, uniqueness, and time/sequence consistency."""
    stamped = [e for e in trace.events if e.seq >= 0]
    missing = len(trace.events) - len(stamped)
    if missing:
        report.add(
            "D802",
            f"{missing} event(s) carry no tie-break sequence stamp "
            f"(seq=-1): simultaneous events have no total order",
        )
    for e in trace.events:
        if e.end < e.start - _TOL:
            report.add(
                "D802",
                f"time runs backwards in task {e.task} on "
                f"{e.resource}: start={e.start!r} > end={e.end!r}",
                tasks=(e.task,),
            )
    seen: dict[int, TraceEvent] = {}
    for e in trace.events + trace.transfers:
        if e.seq < 0:
            continue
        other = seen.get(e.seq)
        if other is None:
            seen[e.seq] = e
        else:
            tie = (
                " at equal time"
                if other.start == e.start else ""  # noqa: RV302 (label)
            )
            where = (f"on {e.resource}" if other.resource == e.resource
                     else f"on {other.resource} and {e.resource}")
            report.add(
                "D802",
                f"two events{tie} {where} share sequence {e.seq} "
                f"(tasks {other.task} and {e.task}): the tie-break "
                f"is not total",
                tasks=(other.task, e.task),
            )
    # On a *serial* resource (no overlapping executions) the record
    # order must agree with the time order regardless of whether the
    # producer records at start or at finish.  Stream-parallel
    # resources can legitimately finish out of start order, so they
    # are skipped.
    by_res: dict[str, list[TraceEvent]] = {}
    for e in stamped:
        by_res.setdefault(e.resource, []).append(e)
    for res, evs in sorted(by_res.items()):
        by_time = sorted(evs, key=lambda e: (e.start, e.end, e.seq))
        serial = all(
            a.end <= b.start + _TOL for a, b in zip(by_time, by_time[1:])
        )
        if not serial:
            continue
        by_seq = sorted(evs, key=lambda e: e.seq)
        for a, b in zip(by_seq, by_seq[1:]):
            if a.start > b.start + _TOL:
                report.add(
                    "D802",
                    f"on serial resource {res}, sequence order "
                    f"contradicts time order: seq {a.seq} (task "
                    f"{a.task}) at t={a.start!r} recorded before "
                    f"seq {b.seq} (task {b.task}) at t={b.start!r}",
                    tasks=(a.task, b.task),
                )


def _audit_meta(trace: ExecutionTrace, report: Report) -> None:
    """D805: provenance stamping completeness."""
    producer = trace.meta.get("producer")
    if not producer:
        report.add(
            "D805",
            "meta['producer'] is missing: the trace does not say which "
            "engine emitted it",
        )
    clock = trace.meta.get("clock")
    if clock not in ("virtual", "wall"):
        report.add(
            "D805",
            f"meta['clock'] is {clock!r}: must be 'virtual' (simulator) "
            "or 'wall' (threaded runtime) so the fingerprint knows "
            "which content is deterministic",
        )
    if clock == "virtual" and "rng" not in trace.meta:
        report.add(
            "D805",
            "meta['rng'] is missing: a simulator trace must stamp its "
            "RNG provenance ({'seed': ..., 'draws': ...}, or None for "
            "a run with no fault model)",
        )
    rng = trace.meta.get("rng")
    if rng is not None:
        well_formed = (
            isinstance(rng, dict) and "seed" in rng
            and isinstance(rng.get("draws"), int) and rng["draws"] >= 0
        )
        if not well_formed:
            report.add(
                "D805",
                f"meta['rng'] is malformed: {rng!r} (expected "
                "{'seed': ..., 'draws': <int >= 0>} or None)",
            )


def verify_determinism(
    run: Callable[[], ExecutionTrace],
    trace: Optional[ExecutionTrace] = None,
    *,
    replay: bool = True,
) -> Report:
    """Audit one scenario's determinism (D8xx).

    ``run`` executes the scenario from scratch — same DAG, same machine,
    same seed, a *fresh* fault model — and returns its trace.  ``trace``
    is the first run's trace; when ``None``, ``run()`` is called once to
    produce it.  With ``replay=True`` (the default) ``run()`` is called
    (again) for the D801/D803/D804 same-seed replay comparison;
    ``replay=False`` restricts the audit to the static D802/D805 checks
    on ``trace`` alone.
    """
    report = Report("determinism")
    if trace is None:
        trace = run()
    report.stats["events"] = float(len(trace.events))
    report.stats["seq_stamped"] = float(
        sum(1 for e in trace.events if e.seq >= 0)
    )

    _audit_meta(trace, report)
    if trace.meta.get("clock", "virtual") == "virtual":
        _audit_order(trace, report)

    if not replay:
        return report

    twin = run()
    fp_a, fp_b = trace.fingerprint(), twin.fingerprint()
    report.stats["replayed"] = 1.0
    if fp_a != fp_b:
        report.add(
            "D801",
            f"same-seed replay diverged: fingerprint {fp_a[:16]}... vs "
            f"{fp_b[:16]}... — the run is not a function of its seed",
        )
        diff = trace_diff(trace, twin)
        if diff is not None:
            report.add("D804", diff)

    rng_a = trace.meta.get("rng")
    rng_b = twin.meta.get("rng")
    if rng_a != rng_b:
        report.add(
            "D803",
            f"RNG provenance diverged between same-seed runs: "
            f"{rng_a!r} vs replay {rng_b!r} — draws were not consumed "
            "in event order (reseed or out-of-band draw)",
        )
    elif isinstance(rng_a, dict):
        report.stats["rng_draws"] = float(rng_a.get("draws", 0))
    return report


# ----------------------------------------------------------------------
# fault injectors (verify-the-verifier)
# ----------------------------------------------------------------------
def reorder_ties(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by collapsing one tie-break: two events end up
    with the same sequence number (preferring a pair at equal start
    time — exactly the "equal time, equal sequence" case D802 forbids).

    Raises ``ValueError`` when the trace has fewer than two
    seq-stamped events.
    """
    stamped = sorted((e for e in trace.events if e.seq >= 0),
                     key=lambda e: e.seq)
    if len(stamped) < 2:
        raise ValueError(
            "trace has fewer than two seq-stamped events; no tie-break "
            "to collapse"
        )
    by_start: dict[float, TraceEvent] = {}
    pair = None
    for e in stamped:
        other = by_start.get(e.start)
        if other is not None:
            pair = (other, e)
            break
        by_start[e.start] = e
    if pair is None:
        pair = (stamped[0], stamped[1])
    keep, victim = pair
    moved = replace(victim, seq=keep.seq)
    events = [moved if e is victim else e for e in trace.events]
    return trace.copy(events=events)


def drop_seq(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace`` by erasing every tie-break sequence stamp
    (``seq=-1``), as an event loop pushing bare ``(when, fn)`` tuples
    would produce.  Must fail D802.  Raises ``ValueError`` when the
    trace has no stamped events to erase.
    """
    if not any(e.seq >= 0 for e in trace.events):
        raise ValueError("trace has no seq-stamped events to erase")
    return trace.copy(events=[replace(e, seq=-1) for e in trace.events])


def reseed_midrun(trace: ExecutionTrace) -> ExecutionTrace:
    """Corrupt ``trace``'s RNG provenance to what a mid-run reseed (or
    an out-of-band draw) would have stamped: the draw count no longer
    matches what a faithful same-seed replay consumes.  Must fail D803.
    Raises ``ValueError`` when the trace carries no RNG stamp to
    corrupt.
    """
    if "rng" not in trace.meta:
        raise ValueError(
            "trace meta carries no 'rng' provenance stamp to corrupt"
        )
    rng = trace.meta["rng"]
    if rng is None:
        bad: Optional[dict] = {"seed": None, "draws": 3}
    else:
        bad = {"seed": rng.get("seed"), "draws": int(rng.get("draws", 0)) + 7}
    return trace.copy(meta={**trace.meta, "rng": bad})
