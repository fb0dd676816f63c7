"""A struct-of-arrays snapshot of one instance's weak structure.

:class:`ColumnarInstance` flattens an :class:`~repro.semistructured.graph.
EdgeLabeledGraph` into integer columns — node ids, parent pointers,
per-label edge arrays, and the :class:`~repro.index.encoding.
IntervalEncoding` when the graph is a tree.  Built once per instance
version (see :class:`repro.index.cache.IndexCache`), it lets path
matching run as batched array operations instead of per-node ``lch``
calls:

* on trees the forward sweep is frontier-mask propagation through the
  parent-pointer and parent-edge-label columns (one gather + one compare
  per level); the backward prune reduces to interval containment against
  the final level's preorder ranks (the XPath-accelerator trick) plus a
  parent-pointer gather for the surviving edges;
* DAGs use the generic per-label edge-array sweep and edge-filter prune.

:func:`match_path_indexed` returns a :class:`~repro.semistructured.paths.
PathMatch` **identical** to :func:`~repro.semistructured.paths.match_path`
on the same graph — the randomized parity suite (``tests/test_index.py``)
holds the two implementations equal on generated instances, so every
consumer of a match (epsilon pass, aggregates, projections) is oblivious
to which matcher produced it.

Everything here works without numpy; the array code paths light up when
it is importable (see :mod:`repro.index.np_compat`).
"""

from __future__ import annotations

import threading
from itertools import groupby
from typing import TYPE_CHECKING, Any, Iterable

from repro.index.encoding import IntervalEncoding
from repro.index.np_compat import HAS_NUMPY, numpy
from repro.semistructured.graph import EdgeLabeledGraph, Label, Oid
from repro.semistructured.paths import PathExpression, PathMatch, empty_match

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import ProbabilisticInstance


class ColumnarInstance:
    """Flat integer columns over one graph, plus the interval encoding.

    Node positions follow the encoding's preorder on trees (so subtree
    ranges are contiguous) and sorted object-id order on DAGs.  The
    snapshot is immutable by convention: it is keyed by instance version
    in the :class:`~repro.index.cache.IndexCache` and rebuilt, never
    patched, when the catalog changes.
    """

    __slots__ = (
        "root",
        "oids",
        "index_of",
        "parent",
        "edges_by_label",
        "encoding",
        "is_tree",
        "num_edges",
        "_pre_np",
        "_size_np",
        "_parent_np",
        "_csr_cache",
        "_children_cache",
        "_match_memo",
        "_memo_lock",
        "_oids_np",
        "_parent_map",
        "_reach",
    )

    def __init__(
        self,
        root: Oid,
        oids: tuple[Oid, ...],
        parent: tuple[int, ...],
        edges_by_label: dict[Label, tuple[Any, Any]],
        encoding: IntervalEncoding | None,
        num_edges: int,
    ) -> None:
        self.root = root
        self.oids = oids
        self.index_of: dict[Oid, int] = {
            oid: position for position, oid in enumerate(oids)
        }
        self.parent = parent
        self.edges_by_label = edges_by_label
        self.encoding = encoding
        self.is_tree = encoding is not None
        self.num_edges = num_edges
        self._oids_np = (
            numpy.array(oids, dtype=object) if HAS_NUMPY else None
        )
        if HAS_NUMPY and encoding is not None:
            self._pre_np = numpy.asarray(encoding.pre, dtype=numpy.int64)
            self._size_np = numpy.asarray(encoding.size, dtype=numpy.int64)
            self._parent_np = numpy.asarray(parent, dtype=numpy.int64)
        else:
            self._pre_np = None
            self._size_np = None
            self._parent_np = None
        # Per-label children adjacency in two lazily built forms: CSR
        # arrays for wide frontiers (:func:`_label_csr`) and plain dicts
        # for narrow ones (:func:`_label_children`).
        self._csr_cache: dict[Label, tuple[Any, Any]] = {}
        self._children_cache: dict[Label, dict[int, list[int]]] = {}
        # Bounded memo of materialized path matches.  Sound because the
        # snapshot is immutable: the IndexCache drops the whole snapshot
        # (memo included) when the instance's (version, epoch) token
        # moves, so a memoized PathMatch can never go stale.  A snapshot
        # is shared by every reader of its catalog, so the memo's
        # evict-then-insert runs under a lock; the adjacency caches
        # above are idempotent builds published by one assignment.
        self._match_memo: dict[PathExpression, PathMatch] = {}
        self._memo_lock = threading.Lock()
        self._parent_map: dict[Oid, Oid] | None = None
        # ``P(o occurs)`` per position (:meth:`reach`); the token's, like
        # the match memo.  A slot is one assignment of a value every
        # thread computes identically, so it needs no lock.
        self._reach: list[float | None] = [None] * len(oids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: EdgeLabeledGraph, root: Oid) -> "ColumnarInstance":
        """Snapshot a rooted graph (tree or DAG) into columns."""
        encoding = IntervalEncoding.from_graph(graph, root)
        if encoding is not None:
            order = sorted(encoding.index_of, key=encoding.index_of.__getitem__)
            oids = tuple(order)
        else:
            oids = tuple(sorted(graph.vertices))
        index_of = {oid: position for position, oid in enumerate(oids)}

        parent = [-1] * len(oids)
        by_label: dict[Label, tuple[list[int], list[int]]] = {}
        num_edges = 0
        for src, dst, label in graph.edges():
            src_idx = index_of.get(src)
            dst_idx = index_of.get(dst)
            if src_idx is None or dst_idx is None:  # pragma: no cover - defensive
                continue
            srcs, dsts = by_label.setdefault(label, ([], []))
            srcs.append(src_idx)
            dsts.append(dst_idx)
            num_edges += 1
            if encoding is not None:
                parent[dst_idx] = src_idx

        edges_by_label: dict[Label, tuple[Any, Any]] = {}
        for label, (srcs, dsts) in by_label.items():
            if HAS_NUMPY:
                edges_by_label[label] = (
                    numpy.asarray(srcs, dtype=numpy.int64),
                    numpy.asarray(dsts, dtype=numpy.int64),
                )
            else:
                edges_by_label[label] = (tuple(srcs), tuple(dsts))

        return cls(root, oids, tuple(parent), edges_by_label, encoding, num_edges)

    @classmethod
    def from_instance(cls, pi: "ProbabilisticInstance") -> "ColumnarInstance":
        """Snapshot a probabilistic instance's weak structure."""
        return cls.from_graph(pi.weak.graph(), pi.root)

    # ------------------------------------------------------------------
    # Navigation helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.oids)

    def parent_map(self) -> dict[Oid, Oid]:
        """Child -> parent object ids (tree snapshots only; cached)."""
        if self._parent_map is None:
            self._parent_map = {
                self.oids[child]: self.oids[parent]
                for child, parent in enumerate(self.parent)
                if parent >= 0
            }
        return self._parent_map

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
    """Match a path against a columnar snapshot.

    Byte-for-byte equivalent to :func:`~repro.semistructured.paths.
    match_path` on the snapshot's source graph, including the empty and
    zero-label cases.  Repeated queries against the same snapshot hit a
    bounded per-snapshot memo (the snapshot is immutable, so memoized
    matches cannot go stale); pass ``memo=False`` to force a fresh
    evaluation, e.g. when benchmarking the matcher itself.
    """
    if memo:
        cached = col._match_memo.get(path)
        if cached is not None:
            return cached
    root_position = col.index_of.get(path.root)
    if root_position is None:
        result = empty_match(path)
    elif not path.labels:
        result = PathMatch(path, (frozenset({path.root}),), frozenset(), ())
    elif HAS_NUMPY:
        result = _match_numpy(col, path, root_position)
    else:
        result = _match_python(col, path, root_position)
    if memo:
        with col._memo_lock:
            if len(col._match_memo) >= _MATCH_MEMO_CAP:
                col._match_memo.pop(next(iter(col._match_memo)))
            col._match_memo[path] = result
    return result


_EMPTY_EDGES: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())

#: Frontier width at which the tree matcher switches from per-node dict
#: lookups to the vectorized CSR gather.
_NARROW_FRONTIER = 128


def _match_numpy(
    col: ColumnarInstance, path: PathExpression, root_position: int
) -> PathMatch:
    if col.is_tree:
        return _match_numpy_tree(col, path, root_position)
    np = numpy
    frontier = np.asarray([root_position], dtype=np.int64)
    levels = [frontier]
    level_edges_idx: list[tuple[Any, Any]] = []
    for label in path.labels:
        pair = col.edges_by_label.get(label)
        if pair is None:
            return empty_match(path)
        srcs, dsts = pair
        mask = np.isin(srcs, frontier)
        level_srcs = srcs[mask]
        level_dsts = dsts[mask]
        frontier = np.unique(level_dsts)
        if frontier.size == 0:
            return empty_match(path)
        levels.append(frontier)
        level_edges_idx.append((level_srcs, level_dsts))

    depth = len(path.labels)
    pruned: list[Any] = [None] * (depth + 1)
    pruned[depth] = levels[depth]
    per_level_edges: list[frozenset[tuple[Oid, Oid]]] = [frozenset()] * depth

    for index in range(depth - 1, -1, -1):
        level_srcs, level_dsts = level_edges_idx[index]
        mask = np.isin(level_dsts, pruned[index + 1])
        kept_srcs = level_srcs[mask]
        kept_dsts = level_dsts[mask]
        pruned[index] = np.unique(kept_srcs)
        per_level_edges[index] = frozenset(
            (col.oids[src], col.oids[dst])
            for src, dst in zip(kept_srcs.tolist(), kept_dsts.tolist())
        )

    return _build_match(col, path, pruned, per_level_edges)


def _label_csr(col: ColumnarInstance, label: Label) -> tuple[Any, Any] | None:
    """Children-with-``label`` CSR adjacency (lazily built, cached).

    Returns ``(offsets, children)`` where ``children[offsets[v] :
    offsets[v + 1]]`` are the label-``label`` children of position ``v``,
    grouped by parent and ascending within each group.  ``None`` when the
    label does not occur.  Tree snapshots only (edge source == parent).
    """
    cached = col._csr_cache.get(label)
    if cached is not None:
        return cached
    pair = col.edges_by_label.get(label)
    if pair is None:
        return None
    srcs, dsts = pair
    order = numpy.lexsort((dsts, srcs))
    children = dsts[order]
    offsets = numpy.zeros(len(col.oids) + 1, dtype=numpy.int64)
    numpy.cumsum(
        numpy.bincount(srcs, minlength=len(col.oids)), out=offsets[1:]
    )
    col._csr_cache[label] = (offsets, children)
    return offsets, children


def _label_children(
    col: ColumnarInstance, label: Label
) -> dict[int, list[int]] | None:
    """Children-with-``label`` as a plain dict (lazily built, cached).

    The dict form wins on narrow frontiers, where a handful of lookups
    beat the fixed cost of a vectorized gather.  Child lists are sorted
    so expanded frontiers stay position-ascending.  ``None`` when the
    label does not occur.
    """
    cached = col._children_cache.get(label)
    if cached is not None:
        return cached
    pair = col.edges_by_label.get(label)
    if pair is None:
        return None
    srcs, dsts = pair
    if HAS_NUMPY:
        srcs = srcs.tolist()
        dsts = dsts.tolist()
    children: dict[int, list[int]] = {}
    for src, dst in zip(srcs, dsts):
        children.setdefault(src, []).append(dst)
    for kids in children.values():
        kids.sort()
    col._children_cache[label] = children
    return children


def _match_numpy_tree(
    col: ColumnarInstance, path: PathExpression, root_position: int
) -> PathMatch:
    """Tree fast path: per-label adjacency expansion + parent prune.

    The forward sweep expands each frontier through the label's
    children adjacency — per-node dict lookups while the frontier is
    narrow, one ragged CSR gather once it is wide — so the per-level
    cost tracks the frontier's fan-out, not the column length.  On a
    tree the frontier needs no dedup — every node has one parent, so
    distinct children stay distinct — and every level comes out sorted
    by position: same-depth subtrees are disjoint and preorder-ordered,
    so parents ascending with per-parent children ascending concatenate
    into an ascending whole.  The backward prune is equally direct: a
    level-``i`` node survives iff one of its matched children survives,
    i.e. pruned level ``i`` is exactly the set of parents of pruned
    level ``i + 1`` — and since those parents come out non-decreasing,
    dedup is a run-boundary scan rather than a sort or hash (again in
    dict-or-gather form depending on the level's width).
    """
    np = numpy
    frontier: Any = [root_position]
    for label in path.labels:
        if len(frontier) <= _NARROW_FRONTIER:
            # Narrow frontier: a few dict lookups beat vectorized
            # gathers' fixed per-call cost.
            children_map = _label_children(col, label)
            if children_map is None:
                return empty_match(path)
            if not isinstance(frontier, list):
                frontier = frontier.tolist()
            expanded: list[int] = []
            lookup = children_map.get
            for position in frontier:
                kids = lookup(position)
                if kids:
                    expanded.extend(kids)
            if not expanded:
                return empty_match(path)
            frontier = expanded
        else:
            csr = _label_csr(col, label)
            if csr is None:
                return empty_match(path)
            offsets, children = csr
            if isinstance(frontier, list):
                frontier = np.asarray(frontier, dtype=np.int64)
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            ends = counts.cumsum()
            total = int(ends[-1])
            if total == 0:
                return empty_match(path)
            # Ragged gather: concatenate [start, start + count) runs
            # without a Python-level loop.
            slots = (
                np.repeat(starts + counts - ends, counts)
                + np.arange(total, dtype=np.int64)
            )
            frontier = children[slots]

    depth = len(path.labels)
    pruned: list[Any] = [None] * (depth + 1)
    pruned[depth] = frontier
    per_level_edges: list[frozenset[tuple[Oid, Oid]]] = [frozenset()] * depth
    oids_np = col._oids_np
    oids = col.oids
    parent_np = col._parent_np
    parent_t = col.parent
    prev: Any = frontier
    for index in range(depth - 1, -1, -1):
        if len(prev) <= _NARROW_FRONTIER:
            if not isinstance(prev, list):
                prev = prev.tolist()
            srcs = [parent_t[dst] for dst in prev]
            per_level_edges[index] = frozenset(
                zip(map(oids.__getitem__, srcs), map(oids.__getitem__, prev))
            )
            # srcs is non-decreasing, so consecutive dedup is exact.
            prev = [src for src, _run in groupby(srcs)]
        else:
            if isinstance(prev, list):
                prev = np.asarray(prev, dtype=np.int64)
            kept_srcs = parent_np[prev]
            per_level_edges[index] = frozenset(
                zip(oids_np[kept_srcs].tolist(), oids_np[prev].tolist())
            )
            boundary = np.empty(kept_srcs.size, dtype=bool)
            boundary[0] = True
            np.not_equal(kept_srcs[1:], kept_srcs[:-1], out=boundary[1:])
            prev = kept_srcs[boundary]
        pruned[index] = prev

    return _build_match(col, path, pruned, per_level_edges)


def _match_python(
    col: ColumnarInstance, path: PathExpression, root_position: int
) -> PathMatch:
    frontier = {root_position}
    levels: list[set[int]] = [frontier]
    level_edges_idx: list[list[tuple[int, int]]] = []
    for label in path.labels:
        srcs, dsts = col.edges_by_label.get(label, _EMPTY_EDGES)
        level_pairs = [
            (src, dst) for src, dst in zip(srcs, dsts) if src in frontier
        ]
        frontier = {dst for _src, dst in level_pairs}
        if not frontier:
            return empty_match(path)
        levels.append(frontier)
        level_edges_idx.append(level_pairs)

    depth = len(path.labels)
    pruned: list[set[int]] = [set()] * (depth + 1)
    pruned[depth] = levels[depth]
    per_level_edges: list[frozenset[tuple[Oid, Oid]]] = [frozenset()] * depth
    for index in range(depth - 1, -1, -1):
        kept_pairs = [
            (src, dst)
            for src, dst in level_edges_idx[index]
            if dst in pruned[index + 1]
        ]
        pruned[index] = {src for src, _dst in kept_pairs}
        per_level_edges[index] = frozenset(
            (col.oids[src], col.oids[dst]) for src, dst in kept_pairs
        )
    return _build_match(col, path, pruned, per_level_edges)


def _build_match(
    col: ColumnarInstance,
    path: PathExpression,
    pruned: list[Any],
    per_level_edges: list[frozenset[tuple[Oid, Oid]]],
) -> PathMatch:
    def level_oids(positions: Iterable[int]) -> frozenset[Oid]:
        if isinstance(positions, (list, set)):
            return frozenset(map(col.oids.__getitem__, positions))
        if col._oids_np is not None and hasattr(positions, "tolist"):
            return frozenset(col._oids_np[positions].tolist())
        return frozenset(col.oids[position] for position in positions)

    levels = tuple(level_oids(positions) for positions in pruned)
    all_edges: frozenset[tuple[Oid, Oid]] = frozenset().union(*per_level_edges)
    return PathMatch(path, levels, all_edges, tuple(per_level_edges))
