"""The columnar snapshot of an instance, kept on the instance.

One :class:`ColumnarInstance` per frozen instance, built on first use
and kept in its memo (:func:`repro.storage.derived.derived`; a DAG has
no snapshot: its ``None`` is kept and counted once like a tree's
snapshot), so every reader that holds the instance — pool workers, the
static checker, the engine — matches against one snapshot and one
path-match memo.  Builds, hits and misses land on the ambient metrics
registry (``index.builds`` / ``index.hits`` / ``index.misses``) and
every build runs inside an ``index.build`` span of the ambient tracer.
:func:`snapshot_of` is the one fail-open fetch: the snapshot is an
access method, so a reader that cannot have it walks instead of failing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.index.columnar import ColumnarInstance
from repro.obs.metrics import current_registry
from repro.obs.tracing import current_tracer
from repro.storage.derived import derived

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


def snapshot_of(
    name: str, instance: "ProbabilisticInstance"
) -> ColumnarInstance | None:
    """The snapshot of ``instance``, catalog name ``name`` — ``None``
    when it is not a tree or the snapshot cannot be built (an
    ``index.build_error`` event on the ambient tracer): the caller
    locates its path by the walk instead."""
    try:
        return derived(
            instance, "snapshot", lambda pi: _build_snapshot(name, pi),
            counters="index",
        )
    except Exception as exc:
        current_tracer().event(
            "index.build_error", instance=name,
            error=f"{type(exc).__name__}: {exc}",
        )
        return None
