"""The catalog token, the one scan read, and the one memo of state
derived from an instance.

A named instance's identity is one pair, both halves about *that
name*: ``version(name)`` moves when this catalog object registers,
loads, reloads or drops it, and ``epoch(name)`` is the on-disk
generation of the last mutation of it that some *other* process (or
catalog object) made on the shared directory.  A write to one name
therefore leaves every other name's token standing; only a foreign
change the catalog cannot attribute to a name moves them all
(:meth:`repro.storage.database.Database.epoch`).  :func:`cache_token` is
the only place that pair is built — and the only caller of ``epoch`` —
and it decides which object a name maps to: :func:`fetch` asks it
before it reads the instance.  A statement reads
:func:`catalog_generation` once and passes it to every key it builds —
or, across layers that do not hand it on, pins it for its extent
(:func:`reading_at`) — so all of them see one catalog snapshot.

A registered instance is a frozen value, so what is derived from it —
its columnar snapshot, its dataguide, its cost measurement — lives on
the instance (:func:`derived`) and goes when the instance goes: every
reader that holds the object reads the same one, and nothing is keyed
by name or token.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Protocol, TypeVar, cast

from repro.collector import collector_paused
from repro.obs.metrics import current_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import ProbabilisticInstance

#: ``(version, epoch)`` — the invalidation key of one named instance:
#: what this catalog object did to the name, and the generation of the
#: last mutation of it that anyone else did.
Token = tuple[int, int]

V = TypeVar("V")

#: A memo slot no value fills.
_MISSING = object()


class Versioned(Protocol):
    """What a token needs of a catalog (``generation()`` and ``epoch()``
    optional) — a router's view of its shards is one too."""

    def version(self, name: str) -> int: ...


class Catalog(Versioned, Protocol):
    """What a scan needs of a catalog."""

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


def fetch(
    catalog: Catalog, name: str, generation: int | None = None
) -> "ProbabilisticInstance":
    """The instance ``name`` maps to under the running statement's
    ``generation``: its token first, then the instance.  Asking the
    token observes a foreign save of the name (one epoch comparison
    when not behind), which drops the stale in-memory copy, so what is
    read — and everything derived from it — is the new file's.  Every
    scan reads through here."""
    cache_token(catalog, name, generation)
    return catalog.get(name)


def derived(
    instance: "ProbabilisticInstance",
    kind: str,
    build: Callable[["ProbabilisticInstance"], V],
    counters: str | None = None,
) -> V:
    """The ``kind`` value derived from ``instance`` by ``build``: kept
    in a frozen instance's :attr:`~ProbabilisticInstance.memo`, built
    anew for a mutable one.

    The build runs with the cyclic collector paused
    (:func:`repro.collector.collector_paused`): it allocates a whole
    instance's worth of acyclic objects, and no full collection should
    walk the catalog for it.  A build that raises keeps nothing; two
    threads missing at one instant may both build, and the first value
    kept is the one both return.  With ``counters`` set, lookups count
    into ``<counters>.hits`` / ``<counters>.misses`` on the ambient
    metrics registry.
    """
    memo = instance.memo
    value = memo.get(kind, _MISSING) if memo is not None else _MISSING
    if counters is not None:
        outcome = "misses" if value is _MISSING else "hits"
        current_registry().counter(f"{counters}.{outcome}").inc()
    if value is not _MISSING:
        return cast(V, value)
    with collector_paused():
        value = build(instance)
    if memo is None:
        return value
    return cast(V, memo.setdefault(kind, value))
