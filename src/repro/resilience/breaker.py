"""A circuit breaker for degradable engine layers.

The engine's accelerated layers — the certificate skip, the columnar
snapshot access method and the interpreter's statement tier — have a
correct slow path beside them (run the plan as written, skip the tier).
A :class:`CircuitBreaker` guards such layers the classical way:

* **closed** — calls flow; failures are counted, successes reset the
  count;
* **open** — after ``failure_threshold`` consecutive failures the
  breaker *trips*: :meth:`allow` answers ``False`` and the engine takes
  the degraded path without touching the faulty layer;
* **half-open** — once ``reset_after_s`` has elapsed, exactly **one**
  probe is let through; the probe's success closes the breaker, its
  failure re-trips it immediately.  Further :meth:`allow` calls while
  the probe is in flight answer ``False`` — under concurrency a
  thundering herd must not stampede a layer that just recovered.  A
  probe whose outcome is never recorded (the prober died) expires after
  another ``reset_after_s``, so the breaker can never wedge.

All state transitions happen under an internal lock, so concurrent
callers see a consistent state and the single-probe guarantee holds
under any interleaving.  Transitions land in the ambient metrics
(``resilience.breaker_trips`` counter, ``resilience.breaker_open``
gauge) and as ``resilience.breaker`` tracer events.  The clock is
injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer
from repro.resilience.faults import fault_point

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trip after repeated failures; probe again after a cool-down.

    Thread-safe: :meth:`allow`, :meth:`record_failure` and
    :meth:`record_success` may be called from any thread; in the
    half-open state exactly one caller wins the probe slot.
    """

    def __init__(
        self,
        name: str = "breaker",
        failure_threshold: int = 3,
        reset_after_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_after_s = reset_after_s
        self.clock = clock
        self.state = CLOSED
        self.failures = 0
        self.trips = 0
        self._opened_at = 0.0
        self._lock = threading.RLock()
        self._probe_in_flight = False
        self._probe_at = 0.0

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        current_tracer().event(
            "resilience.breaker", name=self.name, state=state
        )
        current_registry().gauge(f"resilience.breaker_open.{self.name}").set(
            1.0 if state == OPEN else 0.0
        )

    def allow(self) -> bool:
        """Whether a call may proceed right now (may start a probe).

        In the half-open state only the first caller is granted the
        probe; everyone else is told ``False`` until the probe's outcome
        is recorded (or the probe expires after ``reset_after_s``).
        """
        fault_point("lock.breaker")
        with self._lock:
            if self.state == CLOSED:
                return True
            now = self.clock()
            if self.state == OPEN:
                if now - self._opened_at < self.reset_after_s:
                    return False
                self._transition(HALF_OPEN)
                self._probe_in_flight = True
                self._probe_at = now
                return True
            # HALF_OPEN: one probe at a time, with crash expiry.
            if (
                self._probe_in_flight
                and now - self._probe_at < self.reset_after_s
            ):
                return False
            self._probe_in_flight = True
            self._probe_at = now
            return True

    def record_failure(self) -> None:
        """Count a failure; trip when the threshold is reached."""
        with self._lock:
            self._probe_in_flight = False
            self.failures += 1
            if (
                self.state == HALF_OPEN
                or self.failures >= self.failure_threshold
            ):
                self.trips += 1
                self._opened_at = self.clock()
                current_registry().counter("resilience.breaker_trips").inc()
                self._transition(OPEN)

    def record_success(self) -> None:
        """A successful call closes the breaker and clears the count."""
        with self._lock:
            self._probe_in_flight = False
            self.failures = 0
            self._transition(CLOSED)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state}, "
            f"failures={self.failures}/{self.failure_threshold}, "
            f"trips={self.trips})"
        )
