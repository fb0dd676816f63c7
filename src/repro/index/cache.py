"""Versioned cache of columnar snapshots.

One :class:`ColumnarInstance` per catalog name, held in a
:class:`~repro.storage.derived.DerivedCache` under the name's
:func:`~repro.storage.derived.cache_token` (a DAG has no snapshot: its
entry is ``None``, built and counted once per token like a tree's
snapshot) — ``IndexCache.of(catalog)``
is the one every reader of that catalog in this process shares, so pool
workers, the static checker and the engine match against one snapshot
and one path-match memo per name.  Builds, hits and misses land on the
ambient metrics registry (``index.builds`` / ``index.hits`` /
``index.misses``) and every build runs inside an ``index.build`` span
of the ambient tracer.  :meth:`IndexCache.try_get` is the one fail-open
fetch: the snapshot is an access method, so a reader that cannot have it
walks instead of failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.index.columnar import ColumnarInstance
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer
from repro.storage.derived import Catalog, DerivedCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import ProbabilisticInstance


def _build_snapshot(
    name: str, instance: "ProbabilisticInstance"
) -> ColumnarInstance | None:
    with current_tracer().span("index.build", instance=name) as span:
        snapshot = ColumnarInstance.from_instance(instance)
        span.attributes["objects"] = len(instance)
        span.attributes["tree"] = snapshot is not None
    current_registry().counter("index.builds").inc()
    return snapshot


class IndexCache(DerivedCache[ColumnarInstance | None]):
    """Thread-safe name -> snapshot (``None``: not a tree) cache for one
    catalog."""

    def __init__(self) -> None:
        super().__init__(_build_snapshot, counters="index")

    def try_get(
        self,
        catalog: Catalog,
        name: str,
        generation: int | None = None,
        instance: "ProbabilisticInstance | None" = None,
    ) -> ColumnarInstance | None:
        """:meth:`get`, or ``None`` when the instance is not a tree or
        the snapshot cannot be built (an ``index.build_error`` event on
        the ambient tracer): the caller locates its path by the walk
        instead."""
        try:
            return self.get(catalog, name, generation, instance)
        except Exception as exc:
            current_tracer().event(
                "index.build_error", instance=name,
                error=f"{type(exc).__name__}: {exc}",
            )
            return None
