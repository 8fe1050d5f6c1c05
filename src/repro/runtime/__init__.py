"""Task-based runtimes.

Three scheduler policies reproduce the paper's three software stacks:

* :class:`NativePolicy`  — PaStiX's internal scheduler: 1D tasks, static
  cost-model priorities, work stealing, excellent locality, negligible
  per-task overhead, CPU only;
* :class:`StarPUPolicy`  — centralized list scheduling with online
  performance models (dmda: minimum expected completion time including
  transfers), data prefetch, one CPU core dedicated per GPU, no CPU
  cache-reuse policy;
* :class:`ParsecPolicy`  — decentralized per-core queues with data-reuse
  locality and work stealing, opportunistic GPU offload with multiple
  CUDA streams, tasks instantiated when ready (low memory, small extra
  dispatch cost).

:mod:`repro.runtime.threaded` executes the factorization and solve DAGs
for real on the C DAG executor (one GIL-free call per phase);
:mod:`repro.runtime.tracing` provides the execution-trace container used
by the simulator, the threaded engine, and the tests.
"""

from repro.runtime.base import PolicyTraits, SchedulerPolicy, bottom_levels
from repro.runtime.native import NativePolicy
from repro.runtime.starpu import StarPUPolicy
from repro.runtime.parsec import ParsecPolicy
from repro.runtime.threaded import (
    THREAD_SCHEDULERS,
    factorize_threaded,
    solve_threaded,
)
from repro.runtime.tracing import ExecutionTrace, TraceEvent

_POLICIES = {
    "native": NativePolicy,
    "starpu": StarPUPolicy,
    "parsec": ParsecPolicy,
}


def get_policy(name: str, **kwargs) -> SchedulerPolicy:
    """Instantiate a scheduler policy by name (``native``/``starpu``/``parsec``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown policy {name!r}; available: {sorted(_POLICIES)}"
        ) from None
    return cls(**kwargs)


__all__ = [
    "PolicyTraits",
    "SchedulerPolicy",
    "bottom_levels",
    "NativePolicy",
    "StarPUPolicy",
    "ParsecPolicy",
    "factorize_threaded",
    "solve_threaded",
    "THREAD_SCHEDULERS",
    "ExecutionTrace",
    "TraceEvent",
    "get_policy",
]
