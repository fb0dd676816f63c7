"""A small, thread-safe LRU cache with hit/miss/eviction counters.

The interpreter's statement tier keeps its entries in one of these
(:class:`repro.pxql.interpreter.StatementTier`, which checks each
entry's catalog token before answering with it, and mirrors the
counters into the registry of whoever asked).

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
from typing import Hashable

from repro.resilience.faults import fault_point

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

    def __init__(self, capacity: int = 256, name: str | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.gets = 0
        self._fault_site = f"lock.{name}" if name is not None else "lock.cache"

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, counting a hit or miss and refreshing recency."""
        value = self.find(key, _MISSING)
        self.record(value is not _MISSING)
        return default if value is _MISSING else value

    def find(self, key: Hashable, default: object = None) -> object:
        """Look up ``key``, refreshing recency and counting nothing: the
        caller reports the lookup's outcome with :meth:`record`."""
        fault_point(self._fault_site)
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return default
            self._entries.move_to_end(key)
            return value

    def record(self, hit: bool) -> None:
        """Count one lookup as a hit or a miss."""
        with self._lock:
            self.gets += 1
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def peek(self, key: Hashable) -> bool:
        """Whether ``key`` is cached, without touching any counter."""
        with self._lock:
            return key in self._entries

    def put(self, key: Hashable, value: object) -> int:
        """Insert or refresh an entry, evicting the oldest past capacity;
        returns how many entries it evicted."""
        fault_point(self._fault_site)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()

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
