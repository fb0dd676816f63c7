"""The one locate step of the check passes.

"Which objects can satisfy path ``p`` on this sub-plan's output?" is
asked by the plan pass (for the plan, which is the plan that runs)
and, a moment later, by the executor.  :class:`Site` answers it for the
plan pass from views that already hold the answer, so a cold statement
locates its path once:

* a **sound guide** — present, not truncated, rooted where the path is
  — *is* the alive set: a guide target is reached by the same ``lch``
  chain as the structural match, restricted to edges of positive
  inclusion probability, so ``guide.targets(labels)`` is a subset of
  ``match_path(graph, path).matched`` and intersecting the two gives
  the targets back.  No structural match is made at all;
* where the **match itself** is needed (a projection's result shape,
  the wording of a finding on a failing path, no sound guide) it comes
  from the catalog's shared columnar snapshot through
  :func:`~repro.index.columnar.match_path_indexed` — equal to the walk
  by the parity suite of ``tests/test_index.py`` — and stays in that
  snapshot's memo, where the executor finds it.  The snapshot is
  fetched lazily: a statement the guide decides never builds one;
* a derived, unnamed shape, a DAG (which has no snapshot) and a
  snapshot that cannot be built keep the
  :func:`~repro.semistructured.paths.match_path` walk, the reference
  implementation — as the executor does.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.check.dataguide import DataGuide, DataGuideCache
from repro.core.instance import ProbabilisticInstance
from repro.index import ColumnarInstance, IndexCache, match_path_indexed
from repro.semistructured.graph import EdgeLabeledGraph, Oid
from repro.semistructured.paths import PathExpression, PathMatch, match_path


@dataclass(eq=False)
class Site:
    """What a check pass knows about one sub-plan's output structure.

    ``graph`` over-approximates the result's weak structure (``None`` =
    unknown: nothing can be located).  ``pi``, ``guide`` and
    ``snapshot`` are only set directly above a scan, where they are
    exact; ``guide`` is only ever a sound one (see :func:`scan_site`).
    """

    root: Oid | None
    graph: EdgeLabeledGraph | None
    pi: ProbabilisticInstance | None = None
    guide: DataGuide | None = None
    #: Fetches the scanned name's shared snapshot (``None``: a DAG, or
    #: unbuildable).
    snapshot: Callable[[], ColumnarInstance | None] | None = field(
        default=None, repr=False
    )

    @property
    def known(self) -> bool:
        return self.graph is not None

    def guide_for(self, path: PathExpression) -> DataGuide | None:
        """The guide, when it speaks for ``path``."""
        if self.guide is not None and self.guide.covers(path):
            return self.guide
        return None

    def alive(self, path: PathExpression) -> frozenset[Oid] | None:
        """The objects that can satisfy ``path`` (``None``: unknown
        shape): the guide's probability-pruned targets when it speaks
        for the path, the structural match's otherwise."""
        guide = self.guide_for(path)
        if guide is not None:
            return guide.targets(path.labels)
        match = self.match(path)
        return None if match is None else match.matched

    def match(self, path: PathExpression) -> PathMatch | None:
        """The structural match of ``path`` (``None``: unknown shape)."""
        if self.graph is None:
            return None
        col = self.snapshot() if self.snapshot is not None else None
        if col is not None:
            return match_path_indexed(col, path)
        return match_path(self.graph, path)

    def projected(self, match: PathMatch | None = None) -> "Site":
        """The site of an ancestor projection's result: the root plus
        exactly the objects and edges ``match`` keeps (``None``: nothing
        survives — the bare root)."""
        graph = EdgeLabeledGraph()
        if self.root is not None:
            graph.add_vertex(self.root)
        if match is not None:
            assert self.graph is not None
            for oid in match.kept_objects():
                graph.add_vertex(oid)
            for src, dst in match.edges:
                graph.add_edge(src, dst, self.graph.label(src, dst))
        return Site(self.root, graph)


#: The site of a sub-plan nothing is known about.
UNKNOWN = Site(root=None, graph=None)


def scan_site(
    database: Any,
    name: str,
    pi: ProbabilisticInstance,
    guides: DataGuideCache,
    generation: int,
) -> Site:
    """The exact site of catalog name ``name`` — whose instance ``pi``
    the caller just fetched — under the generation the running statement
    already read.  The guide and the snapshot are fail-open.

    A truncated guide is dropped here, once for every pass: beyond the
    truncation it has no entry for paths that do match, and its
    per-object bounds may miss contributions from unexpanded parents.
    """
    guide: DataGuide | None
    try:
        guide = guides.get(database, name, generation, instance=pi)
    except Exception:
        guide = None
    if guide is not None and guide.truncated:
        guide = None

    @functools.cache
    def snapshot() -> ColumnarInstance | None:
        return IndexCache.of(database).try_get(database, name, generation, pi)

    return Site(
        root=pi.root, graph=pi.weak.graph(), pi=pi, guide=guide,
        snapshot=snapshot,
    )
