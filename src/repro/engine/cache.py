"""A small, thread-safe LRU cache with hit/miss/eviction counters.

The interpreter's statement tier is one of these.  Its keys carry the
catalog token of the instance a statement reads — the token
(:func:`repro.storage.derived.cache_token`) moves whenever that instance
is (re-)registered, reloaded or touched, or another process mutates it
in the shared catalog, so stale entries can never be returned: a mutated
input changes the key, and the orphaned entry simply ages out of the LRU
order.

When constructed with a ``name`` and a
:class:`~repro.obs.metrics.MetricsRegistry`, every hit/miss/eviction is
mirrored into ``<name>.hits`` / ``<name>.misses`` / ``<name>.evictions``
counters and a ``<name>.size`` gauge, so the registry view and
:attr:`LRUCache.stats` always agree.

Every operation (lookup, insert, eviction, counter update) happens under
one internal lock, so concurrent readers and writers can never tear an
entry or lose a counter increment: ``hits + misses == gets`` holds under
any interleaving.  The ``lock.cache`` / ``lock.<name>`` fault-point just
before the lock is a scheduling-fault site — a ``barrier`` or ``slow``
:class:`~repro.resilience.faults.FaultSpec` there piles threads up at
the lock boundary to amplify races in chaos tests.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable

from repro.resilience.faults import fault_point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


_MISSING = object()


@dataclass
class CacheStats:
    """Cumulative cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    gets: int = 0
    size: int = 0
    capacity: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "gets": self.gets,
            "size": self.size,
            "capacity": self.capacity,
        }

    def __str__(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.evictions} evictions, {self.size}/{self.capacity} entries"
        )


class LRUCache:
    """Least-recently-used mapping with instrumentation (thread-safe)."""

    def __init__(
        self,
        capacity: int = 256,
        name: str | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._metrics = metrics if name is not None else None
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.gets = 0
        self._fault_site = f"lock.{name}" if name is not None else "lock.cache"

    def _count(self, event: str, amount: int = 1) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"{self.name}.{event}").inc(amount)

    def _track_size(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge(f"{self.name}.size").set(len(self._entries))

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, counting a hit or miss and refreshing recency."""
        fault_point(self._fault_site)
        with self._lock:
            self.gets += 1
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                self._count("misses")
                return default
            self.hits += 1
            self._count("hits")
            self._entries.move_to_end(key)
            return value

    def peek(self, key: Hashable) -> bool:
        """Whether ``key`` is cached, without touching any counter."""
        with self._lock:
            return key in self._entries

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh an entry, evicting the oldest past capacity."""
        fault_point(self._fault_site)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evictions")
            self._track_size()

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._track_size()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters (taken under the lock)."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                gets=self.gets,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def __repr__(self) -> str:
        return f"LRUCache({self.stats})"
