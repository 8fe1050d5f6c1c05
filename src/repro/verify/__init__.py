"""Static-analysis subsystem: hazard coverage, schedule verification, lint.

Each pass returns a :class:`repro.verify.report.Report` and is exposed
through ``python -m repro verify``:

* :func:`repro.verify.hazards.analyze_hazards` — re-derives every task's
  panel read/write sets from the symbolic structure and checks that each
  RAW/ACCUM hazard pair is covered by a dependency path in the DAG
  (reachability via topological + interval labeling, not pairwise BFS);
* :func:`repro.verify.schedule.verify_schedule` — checks an
  :class:`~repro.runtime.tracing.ExecutionTrace` for happens-before,
  resource exclusivity, GPU placement, and mutex-window violations
  (:meth:`~repro.runtime.tracing.ExecutionTrace.validate` raises
  :class:`~repro.verify.schedule.ScheduleError` on them);
* :func:`repro.verify.memory.verify_memory` — replays the simulator's
  :class:`~repro.runtime.tracing.DataEvent` stream against the task
  events and checks residency-before-use, device-memory capacity,
  redundant transfers, and a static lower bound on h2d traffic (M4xx);
* :func:`repro.verify.symbols.verify_symbolic` /
  :func:`repro.verify.symbols.verify_dag_costs` — re-derive nnz(L),
  per-supernode column counts, and per-task flop counts from the
  elimination tree without trusting the stored ``SymbolMatrix`` or
  ``TaskDAG`` annotations (N5xx);
* :func:`repro.verify.resilience.verify_resilience` — audits the
  fault/recovery event stream recorded by the resilience layer: every
  fault paired with a recovery, no double completions without an
  interleaved fault, backoff delays actually paid, no activity on a
  lost device (R6xx);
* :func:`repro.verify.health.verify_health` — audits the health and
  hedge event streams recorded by the graceful-degradation layer:
  exactly-once commit of hedged tasks, legal health-state transition
  chains, no dispatch onto quarantined workers, launch/win/cancel
  hedge accounting, and a monitoring-off identity check (R7xx);
* :func:`repro.verify.concurrency.verify_concurrency` — replays the
  ``SyncEvent`` stream the threaded runtime records
  (``record_sync=True``): reads of unpublished completions, lost
  wakeups, and sync-stats provenance (C7xx);
* :func:`repro.verify.determinism.verify_determinism` — replays a
  seeded run and convicts divergence: same-seed fingerprint mismatch,
  event-time monotonicity and tie-break totality, RNG-draw provenance,
  first-divergence localization, and meta/seed stamping completeness
  (D8xx) over the canonical order-sensitive trace fingerprint
  (:meth:`~repro.runtime.tracing.ExecutionTrace.fingerprint`);
* :func:`repro.verify.lint.lint_paths` — one AST lint engine for two
  rule families (``family=`` ``"RV3"``/``"RV5"``): the
  project's simulation invariants over the package (RV3xx: no
  frozen-dataclass mutation, no float-equality on times, ``traits`` on
  every policy, no ambiguous NumPy truthiness, no shared mutable
  dataclass defaults, no iteration over unordered sets, no unseeded
  randomness); and the event-loop discipline of the shared
  event core, the simulators and the fault layer, the static shadow of
  D8xx (RV5xx: heap pushes without a monotonic tie-breaker, float
  equality on simulated clocks, unordered-set choices, wall clocks or
  unseeded RNGs in a simulation step).

``python -m repro verify`` runs them as the passes of
:data:`repro.verify.cli.PASSES` (``--only`` selects), and each
``--inject`` mode of :data:`repro.verify.cli.INJECTS` names the pass it
corrupts, the trace fields it changes (every other field of the copy
equals the input) and the codes it must trip.

Every report stores at most :data:`repro.verify.report.
MAX_FINDINGS_PER_CODE` findings per code and counts the rest, so its
error count and verdict line are true totals.  The trace audits read
the trace through :class:`~repro.runtime.tracing.ExecutionTrace`'s own
views (``sorted_*``, ``events_by_task``/``events_by_resource``) and copy
it with :meth:`~repro.runtime.tracing.ExecutionTrace.copy`.

The hazard analyzer and the linter run inside the test suite, so a
builder change that drops an edge — or a scheduler change that breaks an
invariant — fails tier-1 rather than silently corrupting a panel.
"""

from repro.verify.access import ACCUM, READ, WRITE, AccessSets, derive_accesses
from repro.verify.concurrency import (
    drop_sync_event,
    swallow_wakeup,
    verify_concurrency,
)
from repro.verify.determinism import (
    drop_seq,
    reorder_ties,
    reseed_midrun,
    trace_diff,
    verify_determinism,
)
from repro.verify.health import (
    double_commit_hedge,
    illegal_transition,
    steal_from_quarantined,
    verify_health,
)
from repro.verify.hazards import (
    analyze_hazards,
    drop_edge,
    find_cycle,
    find_redundant_edges,
)
from repro.verify.lint import (
    FAMILIES,
    LintFinding,
    lint_paths,
    lint_report,
    lint_sources,
)
from repro.verify.memory import drop_transfer, overflow_residency, verify_memory
from repro.verify.reach import ReachabilityOracle
from repro.verify.report import ERROR, INFO, WARNING, Finding, Report
from repro.verify.resilience import (
    double_complete,
    drop_recovery,
    verify_resilience,
)
from repro.verify.schedule import ScheduleError, verify_schedule
from repro.verify.symbols import (
    derive_couples_by_target,
    skew_flops,
    stale_couple_map,
    verify_couple_cache,
    verify_dag_costs,
    verify_symbolic,
)

__all__ = [
    "AccessSets",
    "derive_accesses",
    "READ",
    "WRITE",
    "ACCUM",
    "analyze_hazards",
    "drop_edge",
    "find_cycle",
    "find_redundant_edges",
    "ReachabilityOracle",
    "verify_schedule",
    "ScheduleError",
    "verify_memory",
    "drop_transfer",
    "overflow_residency",
    "verify_resilience",
    "drop_recovery",
    "double_complete",
    "verify_health",
    "double_commit_hedge",
    "steal_from_quarantined",
    "illegal_transition",
    "verify_symbolic",
    "verify_dag_costs",
    "verify_couple_cache",
    "derive_couples_by_target",
    "skew_flops",
    "stale_couple_map",
    "verify_concurrency",
    "drop_sync_event",
    "swallow_wakeup",
    "verify_determinism",
    "trace_diff",
    "reorder_ties",
    "reseed_midrun",
    "drop_seq",
    "FAMILIES",
    "lint_paths",
    "lint_sources",
    "lint_report",
    "LintFinding",
    "Finding",
    "Report",
    "ERROR",
    "WARNING",
    "INFO",
]
