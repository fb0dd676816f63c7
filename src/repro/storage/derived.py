"""The catalog token and the one cache of state derived from an instance.

A named instance's identity is one pair, both halves about *that
name*: ``version(name)`` moves when this catalog object registers,
loads, reloads or drops it, and ``epoch(name)`` is the on-disk
generation of the last mutation of it that some *other* process (or
catalog object) made on the shared directory.  A write to one name
therefore leaves every other name's derived state standing; only a
foreign change the catalog cannot attribute to a name moves them all
(:meth:`repro.storage.database.Database.epoch`).  :func:`cache_token` is
the only place that pair is built — and the only caller of ``epoch`` —
and :class:`DerivedCache` the only implementation of "name -> (token,
value); rebuild when the token moves" — dataguides, columnar snapshots
and cost measurements are instances of it.  A statement reads
:func:`catalog_generation` once and passes it to every key it builds —
or, across layers that do not hand it on, pins it for its extent
(:func:`reading_at`) — so all of them see one catalog snapshot.

Derived values are immutable and stamped with the token they were built
under, so they belong to the *catalog*, not to whoever asked first:
:meth:`DerivedCache.of` hands every reader of one catalog object in this
process — pool workers, the static checker, the engine — the same cache
of each kind, and :func:`forget` is the one place a dropped name leaves
all of them.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, Generic, Protocol, TypeVar, cast

from repro.collector import collector_paused
from repro.obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import ProbabilisticInstance

#: ``(version, epoch)`` — the invalidation key of one named instance:
#: what this catalog object did to the name, and the generation of the
#: last mutation of it that anyone else did.
Token = tuple[int, int]

V = TypeVar("V")
C = TypeVar("C", bound="DerivedCache[Any]")


class Versioned(Protocol):
    """What a token needs of a catalog (``generation()`` and ``epoch()``
    optional) — a router's view of its shards is one too."""

    def version(self, name: str) -> int: ...


class Catalog(Versioned, Protocol):
    """What derived state needs of a catalog."""

    def get(self, name: str) -> "ProbabilisticInstance": ...


#: ``(catalog, generation)`` pinned by :func:`reading_at` in this context.
_pinned: ContextVar[tuple[object, int] | None] = ContextVar(
    "repro_catalog_generation", default=None
)


@contextmanager
def reading_at(catalog: object, generation: int | None) -> Iterator[None]:
    """Pin ``catalog``'s generation to the value the running statement
    already read: inside the region :func:`catalog_generation` returns
    it for that catalog object instead of reading again, so the layers a
    statement passes through — which do not all call each other with a
    ``generation`` argument — see one catalog snapshot from one read.
    ``None`` pins nothing.
    """
    if generation is None:
        yield
        return
    token = _pinned.set((catalog, generation))
    try:
        yield
    finally:
        _pinned.reset(token)


def catalog_generation(catalog: object) -> int:
    """The catalog's current generation (the pinned one inside
    :func:`reading_at`).

    Catalogs without a ``generation`` (plain dict-backed fakes in tests)
    contribute a constant 0, degrading to version-only keying.
    """
    pinned = _pinned.get()
    if pinned is not None and pinned[0] is catalog:
        return pinned[1]
    generation = getattr(catalog, "generation", None)
    return int(generation()) if callable(generation) else 0


def cache_token(
    catalog: Versioned, name: str, generation: int | None = None
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


#: catalog object -> {cache class: its one instance for that catalog}.
#: Weak-keyed: the derived state of a catalog dies with the catalog.
_per_catalog: "weakref.WeakKeyDictionary[Any, dict[type, DerivedCache[Any]]]" = (
    weakref.WeakKeyDictionary()
)
_per_catalog_lock = threading.Lock()


def forget(catalog: object, name: str) -> None:
    """Drop ``name``'s entry from every shared derived cache of
    ``catalog``.  For a name that is gone, or whose token has moved for
    good: nothing can look the entry up again, so without this it would
    be kept for as long as the catalog lives."""
    try:
        with _per_catalog_lock:
            caches = list(_per_catalog.get(catalog, {}).values())
    except TypeError:  # not weak-referenceable: it never had shared caches
        return
    for cache in caches:
        cache.invalidate(name)


class DerivedCache(Generic[V]):
    """Thread-safe ``name -> value built from that instance``.

    One entry per name, stamped with the token it was built under; a
    moved token rebuilds and replaces it and :func:`forget` removes the
    entry of a dropped name, so a cache obtained through :meth:`of` is
    bounded by the number of live names (a private one keeps the entry
    of a name dropped behind its back until :meth:`invalidate`).
    ``build(name, instance)`` runs outside the lock, with the cyclic
    collector paused (:func:`repro.collector.collector_paused`) — two
    threads missing one token at the same instant may both build, and
    one copy is discarded; with ``counters`` set, lookups count into
    ``<counters>.hits`` / ``<counters>.misses`` on the ambient metrics
    registry.
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

    @classmethod
    def of(cls: type[C], catalog: object) -> C:
        """The cache of this kind that all readers of ``catalog`` in
        this process share (subclasses constructible without arguments).

        A catalog that cannot be weakly referenced (the dict-backed
        fakes of tests) gets a private instance per call.
        """
        try:
            with _per_catalog_lock:
                caches = _per_catalog.setdefault(catalog, {})
                cache = caches.get(cls)
                if cache is None:
                    cache = caches[cls] = cls()
        except TypeError:
            return cls()
        return cast(C, cache)

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
        # A build allocates a whole instance's worth of acyclic objects
        # (a snapshot's arrays, a guide's per-path bounds): no full
        # collection should walk the catalog for it.
        with collector_paused():
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
