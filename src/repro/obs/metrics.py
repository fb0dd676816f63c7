"""The metrics registry of :mod:`repro.obs`.

Three instrument kinds, all process-local and thread-safe (every
instrument guards its mutable state with a small lock, and the registry
serializes creation, so concurrent workers never lose an increment or
observe a torn histogram; finding an existing instrument takes no lock):

* :class:`Counter` — a monotonically increasing total (cache hits,
  statements executed, worlds sampled);
* :class:`Gauge` — a last-written value (cache size, threshold in use);
* :class:`Histogram` — counts over fixed, cumulative-style buckets plus
  a running sum/count (operator latencies, statement latencies).

A :class:`MetricsRegistry` get-or-creates instruments by dotted name.
There is a process-global default (:func:`global_registry`) and every
:class:`~repro.engine.executor.Engine` / PXQL interpreter owns its own
instance; modules without a registry of their own (the catalog, the
query algorithms, the sampler) write to the *ambient* registry
(:func:`current_registry` / :func:`use_registry`), which the engine
rebinds to its own for the duration of an execution.

The metric names emitted across the stack are catalogued in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import PXMLError


class MetricError(PXMLError):
    """Raised for malformed metric registrations (kind clashes, bad buckets)."""


#: Default latency buckets (seconds): 0.1 ms .. 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass
class Counter:
    """A monotonically increasing total (thread-safe)."""

    name: str
    description: str = ""
    value: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def as_dict(self) -> dict[str, object]:
        return {"kind": "counter", "value": self.value}


@dataclass
class Gauge:
    """A last-written value (thread-safe)."""

    name: str
    description: str = ""
    value: float = 0.0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount

    def as_dict(self) -> dict[str, object]:
        return {"kind": "gauge", "value": self.value}


@dataclass
class Histogram:
    """Counts of observations over fixed bucket upper bounds.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit ``+inf`` bucket catches the rest.  ``counts[i]`` is the
    number of observations ``<= buckets[i]`` exclusive of earlier
    buckets (i.e. plain, not cumulative, per-bucket counts);
    ``counts[-1]`` belongs to the overflow bucket.
    """

    name: str
    description: str = ""
    buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise MetricError(
                f"histogram {self.name!r} needs increasing, non-empty buckets"
            )
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.total += value
            self.count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[index] += 1
                    return
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        """The running mean (0 when empty)."""
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """An estimate of the ``q``-quantile, interpolated linearly
        inside the bucket it falls in.

        A bucket spans from the previous bound (0 for the first) to its
        own; the overflow bucket answers ``inf``, an empty histogram 0.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            seen = 0
            lower = 0.0
            for index, bound in enumerate(self.buckets):
                inside = self.counts[index]
                if inside and seen + inside >= rank:
                    return lower + (bound - lower) * (rank - seen) / inside
                seen += inside
                lower = bound
            return float("inf")

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "kind": "histogram",
                "count": self.count,
                "sum": self.total,
                "mean": self.total / self.count if self.count else 0.0,
                "buckets": list(self.buckets),
                "counts": list(self.counts),
            }


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create instruments by dotted name.

    A name is bound to one instrument kind for the registry's lifetime;
    re-requesting it with a different kind raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}
        self._lock = threading.RLock()

    def _get_or_create(
        self, name: str, kind: type[Instrument], *args: Any
    ) -> Instrument:
        # Looked up on every request: a hit is one dictionary read, no
        # lock; only a miss (or a clash, which raises) builds under it.
        existing = self._instruments.get(name)
        if isinstance(existing, kind):
            return existing
        with self._lock:
            existing = self._instruments.get(name)
            if existing is None:
                existing = self._instruments[name] = kind(name, *args)
            elif not isinstance(existing, kind):
                raise MetricError(
                    f"metric {name!r} is a {type(existing).__name__}, "
                    f"not a {kind.__name__}"
                )
            return existing

    def counter(self, name: str, description: str = "") -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        instrument = self._get_or_create(name, Counter, description)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, description: str = "") -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        instrument = self._get_or_create(name, Gauge, description)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        instrument = self._get_or_create(name, Histogram, description, buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def get(self, name: str) -> Instrument | None:
        """The instrument under ``name``, if registered."""
        with self._lock:
            return self._instruments.get(name)

    def value(self, name: str, default: float = 0.0) -> float:
        """A counter/gauge's value (``default`` when unregistered)."""
        with self._lock:
            instrument = self._instruments.get(name)
        if isinstance(instrument, (Counter, Gauge)):
            return instrument.value
        return default

    def as_dict(self) -> dict[str, dict[str, object]]:
        """All instruments in JSON-friendly form, keyed by name."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.as_dict() for name, instrument in instruments}

    def import_snapshot(
        self, prefix: str, snapshot: dict[str, dict[str, object]]
    ) -> None:
        """Mirror another registry's :meth:`as_dict` under ``prefix``.

        The sharded router uses this to surface each shard process's
        counters in its own registry (``shard0.server.completed``, ...).
        Everything lands as a *gauge* holding the last snapshot's value
        — counters in the source stay counters there; here they are
        observations of a remote total, so last-write-wins semantics
        are the honest representation.  Histograms are summarized as
        ``.count`` and ``.mean`` gauges.  Malformed entries are skipped,
        never raised — a garbled remote snapshot must not take down the
        importer.
        """
        for name, payload in snapshot.items():
            if not isinstance(payload, dict):
                continue
            kind = payload.get("kind")
            if kind in ("counter", "gauge"):
                value = payload.get("value")
                if isinstance(value, (int, float)):
                    self.gauge(f"{prefix}.{name}").set(float(value))
            elif kind == "histogram":
                count = payload.get("count")
                mean = payload.get("mean")
                if isinstance(count, (int, float)):
                    self.gauge(f"{prefix}.{name}.count").set(float(count))
                if isinstance(mean, (int, float)):
                    self.gauge(f"{prefix}.{name}.mean").set(float(mean))

    def clear(self) -> None:
        """Drop every instrument (fresh registry semantics)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments


_GLOBAL_REGISTRY = MetricsRegistry()

_ACTIVE_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_registry", default=None
)


def global_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL_REGISTRY


def current_registry() -> MetricsRegistry:
    """The ambient registry: the innermost :func:`use_registry`, else global."""
    registry = _ACTIVE_REGISTRY.get()
    return registry if registry is not None else _GLOBAL_REGISTRY


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the ambient registry for the ``with`` region."""
    token = _ACTIVE_REGISTRY.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_REGISTRY.reset(token)
