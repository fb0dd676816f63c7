"""The catalog token and the one cache of state derived from an instance.

A named instance's identity is one pair, both halves about *that
name*: ``version(name)`` moves when this catalog object re-registers,
reloads, touches or drops it, and ``epoch(name)`` is the on-disk
generation of the last mutation of it that some *other* process (or
catalog object) made on the shared directory.  A write to one name
therefore leaves every other name's derived state standing; only a
foreign change the catalog cannot attribute to a name moves them all
(:meth:`repro.storage.database.Database.epoch`).  :func:`cache_token` is
the only place that pair is built — and the only caller of ``epoch`` —
and :class:`DerivedCache` the only implementation of "name -> (token,
value); rebuild when the token moves" — dataguides, columnar snapshots
and cost measurements are instances of it.  A statement reads
:func:`catalog_generation` once and passes it to every key it builds, so
all of them see one catalog snapshot.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import TYPE_CHECKING, Generic, Protocol, TypeVar

from repro.obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import ProbabilisticInstance

#: ``(version, epoch)`` — the invalidation key of one named instance:
#: what this catalog object did to the name, and the generation of the
#: last mutation of it that anyone else did.
Token = tuple[int, int]

V = TypeVar("V")


class Catalog(Protocol):
    """What derived state needs of a catalog (``generation()`` and
    ``epoch()`` optional)."""

    def get(self, name: str) -> "ProbabilisticInstance": ...
    def version(self, name: str) -> int: ...


def catalog_generation(catalog: object) -> int:
    """The catalog's current generation.

    Catalogs without a ``generation`` (plain dict-backed fakes in tests)
    contribute a constant 0, degrading to version-only keying.
    """
    generation = getattr(catalog, "generation", None)
    return int(generation()) if callable(generation) else 0


def cache_token(
    catalog: Catalog, name: str, generation: int | None = None
) -> Token:
    """The invalidation key for ``name``, under the ``generation`` the
    running statement already read (omitted: the catalog is asked now).

    A catalog exposing only ``generation()`` contributes it whole.  The
    epoch is asked first: observing a foreign mutation bumps the version.
    """
    if generation is None:
        generation = catalog_generation(catalog)
    ask = getattr(catalog, "epoch", None)
    epoch = int(ask(name, generation)) if callable(ask) else generation
    return (catalog.version(name), epoch)


class DerivedCache(Generic[V]):
    """Thread-safe ``name -> value built from that instance``.

    One entry per name, stamped with the token it was built under; a
    moved token rebuilds and replaces it, so the cache is bounded by the
    number of live names.  ``build(name, instance)`` runs outside the
    lock; with ``counters`` set, lookups count into ``<counters>.hits``
    / ``<counters>.misses`` on the ambient metrics registry.
    """

    def __init__(
        self,
        build: Callable[[str, "ProbabilisticInstance"], V],
        counters: str | None = None,
    ) -> None:
        self._build = build
        self._counters = counters
        self._entries: dict[str, tuple[Token, V]] = {}
        self._lock = threading.Lock()

    def get(
        self,
        catalog: Catalog,
        name: str,
        generation: int | None = None,
        instance: "ProbabilisticInstance | None" = None,
    ) -> V:
        """The value for ``name``'s current token, building it on miss.

        A caller that already holds the scanned instance passes it as
        ``instance`` so the value is built from exactly what is being
        evaluated (not a possibly-racing re-read).
        """
        token = cache_token(catalog, name, generation)
        with self._lock:
            entry = self._entries.get(name)
        if entry is not None and entry[0] != token:
            entry = None
        if self._counters is not None:
            outcome = "misses" if entry is None else "hits"
            current_registry().counter(f"{self._counters}.{outcome}").inc()
        if entry is not None:
            return entry[1]
        value = self._build(
            name, instance if instance is not None else catalog.get(name)
        )
        with self._lock:
            self._entries[name] = (token, value)
        return value

    def invalidate(self, name: str) -> None:
        """Drop ``name``'s entry."""
        with self._lock:
            self._entries.pop(name, None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
