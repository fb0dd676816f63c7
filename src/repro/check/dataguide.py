"""Strong-dataguide inference over weak instances.

A *dataguide* is the classic semistructured structural summary: one node
per distinct label path from the root, annotated with the set of objects
that path can reach.  Over a PXML weak instance the summary is finite
(the weak instance graph is required acyclic for coherence), and the
local probability functions let us attach a *reachability bound* to each
path: an interval ``[lower, upper]`` on the probability that some object
satisfies the path in a compatible world.

On tree-structured instances the per-object bounds are exact — the
probability an object occurs is the product of marginal inclusion
probabilities up its unique parent chain (the closed form of
``repro.analysis.existence_probability``).  On DAGs the upper bound is a
union bound over incoming chains and the lower bound falls back to zero
(occurrence events along converging chains are correlated).

Paths whose upper bound is zero are pruned: the dataguide therefore
contains a label path **iff** that path has nonzero existence
probability, which is exactly the oracle the plan checker needs to flag
statically doomed path expressions — and the oracle the abstract
interpreter (:mod:`repro.check.absint`) folds into the certificates
that let the engine skip plans that provably cannot match.
:func:`guide_of` keeps a frozen instance's guide on the instance, so
repeated checks of an unchanged catalog are free, and a changed name —
re-registered here or saved by another process — maps to a new
instance with a guide of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.instance import ProbabilisticInstance
from repro.semistructured.graph import Label, Oid
from repro.semistructured.paths import PathExpression
from repro.storage.derived import derived

#: Safety valve: stop expanding a guide past this many label paths
#: (read when a guide is built).
DEFAULT_MAX_PATHS = 10_000


@dataclass(frozen=True)
class DataGuideEntry:
    """One dataguide node: a label path and its reachability summary.

    Attributes:
        labels: the label path from the root (``()`` is the root itself).
        targets: the objects some compatible world can reach via the path.
        lower: a lower bound on ``P(some object satisfies the path)``.
        upper: an upper bound on the same probability (``> 0`` always —
            zero-probability paths are pruned from the guide).
        exact: whether the per-object probabilities underlying the bounds
            are exact (true on trees with fully specified OPFs).
        object_bounds: per-target ``(lower, upper)`` occurrence bounds,
            the raw material the path-level bounds are folded from.  On
            truncated guides these may be incomplete and must not be
            trusted (see :attr:`DataGuide.truncated`).
    """

    labels: tuple[Label, ...]
    targets: frozenset[Oid]
    lower: float
    upper: float
    exact: bool
    object_bounds: Mapping[Oid, tuple[float, float]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __str__(self) -> str:
        path = ".".join(self.labels) if self.labels else "(root)"
        bound = (
            f"P={self.lower:.6g}" if self.exact and self.lower == self.upper
            else f"P in [{self.lower:.6g}, {self.upper:.6g}]"
        )
        return f"{path}: {len(self.targets)} object(s), {bound}"


class DataGuide:
    """A strong dataguide with per-path existence probability intervals."""

    def __init__(
        self,
        root: Oid,
        entries: Mapping[tuple[Label, ...], DataGuideEntry],
        is_tree: bool,
        truncated: bool = False,
    ) -> None:
        self.root = root
        self._entries = dict(entries)
        self.is_tree = is_tree
        self.truncated = truncated

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, labels: tuple[Label, ...]) -> bool:
        return tuple(labels) in self._entries

    def paths(self) -> Iterator[DataGuideEntry]:
        """Iterate entries by increasing depth, then lexicographically."""
        for labels in sorted(self._entries, key=lambda ls: (len(ls), ls)):
            yield self._entries[labels]

    def entry(self, labels: tuple[Label, ...]) -> DataGuideEntry | None:
        """The entry for a label path, or ``None`` when unreachable."""
        return self._entries.get(tuple(labels))

    def targets(self, labels: tuple[Label, ...]) -> frozenset[Oid]:
        """The objects reachable via the path (empty when unreachable)."""
        entry = self.entry(labels)
        return entry.targets if entry is not None else frozenset()

    def covers(self, path: PathExpression) -> bool:
        """Whether the guide speaks for this path (rooted at our root)."""
        return path.root == self.root

    def interval(self, labels: tuple[Label, ...]) -> tuple[float, float]:
        """The existence probability interval (``(0, 0)`` if unreachable)."""
        entry = self.entry(labels)
        if entry is None:
            return (0.0, 0.0)
        return (entry.lower, entry.upper)

    def probe(self, labels: tuple[Label, ...]) -> tuple[int, tuple[Label, ...]]:
        """Diagnose a miss: longest live prefix and its outgoing labels.

        Returns ``(k, next_labels)`` where ``labels[:k]`` is the longest
        prefix present in the guide and ``next_labels`` are the labels
        that *do* extend that prefix — the raw material for "did you
        mean" fix hints.
        """
        labels = tuple(labels)
        length = len(labels)
        while length > 0 and labels[:length] not in self._entries:
            length -= 1
        prefix = labels[:length]
        continuations = sorted({
            ls[-1] for ls in self._entries
            if len(ls) == length + 1 and ls[:length] == prefix
        })
        return length, tuple(continuations)

    def __repr__(self) -> str:
        kind = "tree" if self.is_tree else "dag"
        return f"DataGuide(root={self.root!r}, {len(self)} paths, {kind})"


def _marginal_bounds(
    pi: ProbabilisticInstance, parent: Oid, child: Oid
) -> tuple[float, float]:
    """Bounds on ``P(child in c(parent) | parent occurs)``."""
    opf = pi.opf(parent)
    if opf is None:
        return (0.0, 1.0)    # unspecified OPF: anything goes
    marginal = opf.marginal_inclusion(child)
    return (marginal, marginal)


def build_dataguide(pi: ProbabilisticInstance) -> DataGuide:
    """Compute the strong dataguide of a probabilistic instance, up to
    :data:`DEFAULT_MAX_PATHS` label paths.

    Breadth-first over label paths: the frontier maps each live label
    path to per-object reachability bounds; every step extends each path
    by each label its targets can emit, multiplying edge bounds in.
    Objects (and whole paths) whose upper bound collapses to zero are
    pruned, so membership in the guide coincides with nonzero existence
    probability.
    """
    weak = pi.weak
    graph = weak.graph()
    is_tree = weak.is_tree()

    entries: dict[tuple[Label, ...], DataGuideEntry] = {}
    truncated = False
    # Per-path object bounds: {labels: {oid: (lower, upper)}}.
    frontier: dict[tuple[Label, ...], dict[Oid, tuple[float, float]]] = {
        (): {weak.root: (1.0, 1.0)}
    }

    def record(labels: tuple[Label, ...], bounds: dict[Oid, tuple[float, float]]) -> None:
        lower = max((lo for lo, _hi in bounds.values()), default=0.0)
        upper = min(1.0, sum(hi for _lo, hi in bounds.values()))
        entries[labels] = DataGuideEntry(
            labels=labels,
            targets=frozenset(bounds),
            lower=lower,
            upper=upper,
            exact=is_tree,
            object_bounds=dict(bounds),
        )

    while frontier:
        next_frontier: dict[tuple[Label, ...], dict[Oid, tuple[float, float]]] = {}
        for labels, bounds in frontier.items():
            record(labels, bounds)
            if len(entries) + len(next_frontier) >= DEFAULT_MAX_PATHS:
                truncated = True
                continue
            for oid, (olow, ohigh) in bounds.items():
                for label in weak.labels_of(oid):
                    card = weak.card(oid, label)
                    children = weak.lch(oid, label)
                    if card.max < 1 or card.min > len(children):
                        # Not an edge of the weak instance graph (no
                        # potential child set holds these children): the
                        # guide walks exactly the edges a structural
                        # match walks, so targets stay a subset of it.
                        continue
                    for child in children:
                        mlow, mhigh = _marginal_bounds(pi, oid, child)
                        high = ohigh * mhigh
                        if high <= 0.0:
                            continue      # zero inclusion: prune
                        low = olow * mlow if is_tree else 0.0
                        extended = (*labels, label)
                        per_object = next_frontier.setdefault(extended, {})
                        prev = per_object.get(child)
                        if prev is None:
                            per_object[child] = (low, high)
                        else:
                            # Converging chains (DAG): union-bound the
                            # upper side, keep the best lower bound.
                            per_object[child] = (
                                max(prev[0], low), min(1.0, prev[1] + high)
                            )
        frontier = next_frontier

    return DataGuide(weak.root, entries, is_tree, truncated)


def guide_of(pi: ProbabilisticInstance) -> DataGuide:
    """The dataguide of ``pi``, built once per frozen instance and kept
    on it (:func:`repro.storage.derived.derived`): an interpreter, its
    engine and every checker pass over the instance read the same one."""
    return derived(pi, "guide", build_dataguide)


class DataGuideCache:
    """Holds nothing: kept only because ``benchmarks/e2e/ladder.py``
    builds one and passes it as ``check_statement(guides=)``, which is
    accepted and ignored — a guide lives on its instance
    (:func:`guide_of`)."""
