"""Resilience: budgets, retries, fault injection.

This package makes the read/execute path survive the failures a
production catalog actually sees, and makes those failures *testable*:

* :mod:`repro.resilience.budget` — cooperative execution budgets
  (deadline / node evaluations / result objects) carried as ambient
  context and checked at executor node boundaries and in the sampler;
* :mod:`repro.resilience.retry` — retry-with-backoff (seeded jitter,
  injectable sleep) around catalog I/O;
* :mod:`repro.resilience.faults` — a deterministic seeded fault
  injector (raise-on-Nth-IO, corrupt-bytes, slow-call) behind named
  hook points in the codec, catalog, and engine caches.

Every degraded path reports into :mod:`repro.obs` (``resilience.*`` and
``db.corrupt_quarantined`` metrics, ``resilience.*`` tracer events), so
observability covers degraded operation too.  See
``docs/RESILIENCE.md``.
"""

from repro.errors import (
    BudgetExceeded,
    CorruptInstanceError,
    FaultError,
    ResilienceError,
)
from repro.resilience.budget import Budget, current_budget, use_budget
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    current_injector,
    fault_point,
)
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CorruptInstanceError",
    "FaultError",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "ResilienceError",
    "RetryPolicy",
    "current_budget",
    "current_injector",
    "fault_point",
    "retry_call",
    "use_budget",
]
