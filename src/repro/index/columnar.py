"""A flat snapshot of one tree-shaped instance's weak structure.

:class:`ColumnarInstance` numbers the objects of a tree in preorder
(children visited in sorted order) and keeps three columns over those
positions — object ids, parent pointers and, per edge label, each
position's children reached by that label.  Built once per instance
version (see :class:`repro.index.cache.IndexCache`), it lets a path
match run as list expansions instead of per-node ``lch`` calls:

* the forward sweep expands each level through the label's children
  adjacency; on a tree the expanded level needs no dedup (every node
  has one parent) and comes out position-ascending;
* the backward prune keeps exactly the parents of the surviving level,
  read off the parent column; they come out non-decreasing, so dedup is
  a run-boundary scan.

Section 6's efficient algorithms are defined on trees, so a DAG has no
snapshot: :meth:`ColumnarInstance.from_graph` returns ``None`` and its
readers walk.

:func:`match_path_indexed` returns a :class:`~repro.semistructured.paths.
PathMatch` **identical** to :func:`~repro.semistructured.paths.match_path`
on the same graph — the randomized parity suite (``tests/test_index.py``)
holds the two equal on generated trees, so every consumer of a match
(epsilon pass, aggregates, projections) is oblivious to which one
produced it.
"""

from __future__ import annotations

import threading
from itertools import groupby
from typing import TYPE_CHECKING

from repro.semistructured.graph import EdgeLabeledGraph, Label, Oid
from repro.semistructured.paths import PathExpression, PathMatch, empty_match

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import ProbabilisticInstance


class ColumnarInstance:
    """Preorder columns over one tree.

    The snapshot is immutable by convention: it is keyed by instance
    version in the :class:`~repro.index.cache.IndexCache` and rebuilt,
    never patched, when the catalog changes.
    """

    __slots__ = (
        "root",
        "oids",
        "index_of",
        "parent",
        "children",
        "_match_memo",
        "_memo_lock",
        "_reach",
    )

    def __init__(
        self,
        root: Oid,
        oids: tuple[Oid, ...],
        index_of: dict[Oid, int],
        parent: tuple[int, ...],
        children: dict[Label, dict[int, list[int]]],
    ) -> None:
        self.root = root
        self.oids = oids
        self.index_of = index_of
        self.parent = parent
        #: label -> position -> its children by that label, ascending.
        self.children = children
        # Bounded memo of materialized path matches.  Sound because the
        # snapshot is immutable: the IndexCache drops the whole snapshot
        # (memo included) when the instance's (version, epoch) token
        # moves, so a memoized PathMatch can never go stale.  A snapshot
        # is shared by every reader of its catalog, so the memo's
        # evict-then-insert runs under a lock.
        self._match_memo: dict[PathExpression, PathMatch] = {}
        self._memo_lock = threading.Lock()
        # ``P(o occurs)`` per position (:meth:`reach`); the token's, like
        # the match memo.  A slot is one assignment of a value every
        # thread computes identically, so it needs no lock.
        self._reach: list[float | None] = [None] * len(oids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: EdgeLabeledGraph, root: Oid
    ) -> "ColumnarInstance | None":
        """Snapshot a rooted tree; ``None`` when the graph is not a tree.

        One preorder walk numbers the objects and proves the shape: a
        tree reaches every vertex from ``root`` exactly once.
        """
        if root not in graph:
            return None
        oids: list[Oid] = []
        index_of: dict[Oid, int] = {}
        parent: list[int] = []
        children: dict[Label, dict[int, list[int]]] = {}
        stack: list[tuple[Oid, int, Label]] = [(root, -1, "")]
        while stack:
            oid, up, label = stack.pop()
            if oid in index_of:     # a second parent or a cycle
                return None
            position = index_of[oid] = len(oids)
            oids.append(oid)
            parent.append(up)
            if up >= 0:
                children.setdefault(label, {}).setdefault(up, []).append(position)
            for child in sorted(graph.children(oid), reverse=True):
                stack.append((child, position, graph.label(oid, child)))
        if len(oids) != len(graph):     # unreachable from the root
            return None
        return cls(root, tuple(oids), index_of, tuple(parent), children)

    @classmethod
    def from_instance(
        cls, pi: "ProbabilisticInstance"
    ) -> "ColumnarInstance | None":
        """Snapshot a probabilistic instance's weak structure (``None``
        unless it is a tree)."""
        return cls.from_graph(pi.weak.graph(), pi.root)

    # ------------------------------------------------------------------
    # Navigation helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.oids)

    def reach(self, pi: "ProbabilisticInstance", oid: Oid) -> float:
        """``P(oid occurs)`` in ``pi``, the tree this snapshot was built
        from: ``reach(parent) * marginal_inclusion(oid)``, the chain
        probability of Section 6.2 with every prefix of a root chain
        computed once (0.0 for an unknown object or below a missing
        OPF, as :func:`~repro.queries.chain.chain_probability`)."""
        position = self.index_of.get(oid)
        if position is None:
            return 0.0
        memo, parent, oids = self._reach, self.parent, self.oids
        pending: list[int] = []
        while (value := memo[position]) is None and parent[position] >= 0:
            pending.append(position)
            position = parent[position]
        if value is None:
            value = memo[position] = 1.0    # the root
        for below in reversed(pending):
            opf = pi.opf(oids[position]) if value else None
            value = (
                value * opf.marginal_inclusion(oids[below])
                if opf is not None else 0.0
            )
            memo[below] = value
            position = below
        return value


#: Entries kept in a snapshot's path-match memo before FIFO eviction.
_MATCH_MEMO_CAP = 128


def match_path_indexed(
    col: ColumnarInstance, path: PathExpression, *, memo: bool = True
) -> PathMatch:
    """Match a path against a snapshot.

    Equal to :func:`~repro.semistructured.paths.match_path` on the
    snapshot's source tree, including the empty and zero-label cases.
    Repeated queries against the same snapshot hit a bounded
    per-snapshot memo (the snapshot is immutable, so memoized matches
    cannot go stale); pass ``memo=False`` to force a fresh evaluation,
    e.g. when benchmarking the matcher itself.
    """
    if memo:
        cached = col._match_memo.get(path)
        if cached is not None:
            return cached
    result = _match(col, path)
    if memo:
        with col._memo_lock:
            if len(col._match_memo) >= _MATCH_MEMO_CAP:
                col._match_memo.pop(next(iter(col._match_memo)))
            col._match_memo[path] = result
    return result


def _match(col: ColumnarInstance, path: PathExpression) -> PathMatch:
    """Forward expansion through the per-label children, then the
    backward prune through the parent column (see the module
    docstring for why neither needs a sort or a set)."""
    position = col.index_of.get(path.root)
    if position is None:
        return empty_match(path)
    frontier = [position]
    for label in path.labels:
        by_parent = col.children.get(label)
        if by_parent is None:
            return empty_match(path)
        expanded: list[int] = []
        for position in frontier:
            kids = by_parent.get(position)
            if kids:
                expanded.extend(kids)
        if not expanded:
            return empty_match(path)
        frontier = expanded

    oids, parent = col.oids, col.parent
    depth = len(path.labels)
    levels: list[list[int]] = [frontier] * (depth + 1)
    level_edges: list[frozenset[tuple[Oid, Oid]]] = [frozenset()] * depth
    for index in range(depth - 1, -1, -1):
        below = levels[index + 1]
        sources = [parent[position] for position in below]
        level_edges[index] = frozenset(
            zip(map(oids.__getitem__, sources), map(oids.__getitem__, below))
        )
        levels[index] = [source for source, _run in groupby(sources)]
    return PathMatch(
        path,
        tuple(frozenset(map(oids.__getitem__, level)) for level in levels),
        frozenset().union(*level_edges),
        tuple(level_edges),
    )
