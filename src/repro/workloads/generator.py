"""Synthetic workload generation (Section 7.1).

The paper's experimental instances are balanced trees where every
non-leaf has the same number of children, no cardinality constraints are
imposed (so a non-leaf with branching factor ``b`` carries ``2^b`` OPF
entries), and edges are labeled in one of two ways:

* **SL** ("same label"): all children of a parent share one label, drawn
  from the label pool of their depth.
* **FR** ("fully random"): every child independently draws a label from
  the pool of its depth.

The generator records the labels actually used at each depth so the query
generator can draw candidate path expressions the way the paper does
(``r.x1...xd`` with ``x_i`` from depth ``i``'s label set), accepting only
expressions with a non-empty structural match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, combinations

from repro.core.compact import IndependentOPF
from repro.core.distributions import TabularOPF, TabularVPF
from repro.core.instance import ProbabilisticInstance
from repro.core.interpretation import LocalInterpretation
from repro.core.weak_instance import WeakInstance
from repro.errors import ModelError
from repro.semistructured.graph import Label, Oid
from repro.semistructured.paths import PathExpression, match_path
from repro.semistructured.types import LeafType


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic instance.

    Attributes:
        depth: tree depth (root at depth 0, leaves at ``depth``).
        branching: children per non-leaf node.
        labeling: ``"SL"`` or ``"FR"``.
        seed: RNG seed (instances are fully reproducible).
        labels_per_depth: size of each depth's label pool.
        value_domain: the leaf value domain (one shared leaf type).
        opf_kind: ``"tabular"`` (the paper's 2^b explicit tables) or
            ``"independent"`` (compact per-child inclusion probabilities,
            for the representation ablation).
    """

    depth: int
    branching: int
    labeling: str = "SL"
    seed: int = 0
    labels_per_depth: int = 2
    value_domain: tuple = ("a", "b")
    opf_kind: str = "tabular"

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ModelError("depth must be >= 1")
        if self.branching < 1:
            raise ModelError("branching must be >= 1")
        if self.labeling not in ("SL", "FR"):
            raise ModelError(f"labeling must be 'SL' or 'FR', got {self.labeling!r}")
        if self.opf_kind not in ("tabular", "independent"):
            raise ModelError(
                f"opf_kind must be 'tabular' or 'independent', got {self.opf_kind!r}"
            )

    @property
    def num_objects(self) -> int:
        """``(b^(d+1) - 1) / (b - 1)`` for branching ``b`` > 1."""
        if self.branching == 1:
            return self.depth + 1
        return (self.branching ** (self.depth + 1) - 1) // (self.branching - 1)


@dataclass
class GeneratedWorkload:
    """A generated instance plus the metadata query generation needs."""

    spec: WorkloadSpec
    instance: ProbabilisticInstance
    labels_by_depth: list[frozenset[Label]] = field(default_factory=list)

    @property
    def num_objects(self) -> int:
        """The instance's object count."""
        return len(self.instance)

    @property
    def total_entries(self) -> int:
        """Total OPF/VPF entries (the paper's cost parameter)."""
        return self.instance.total_interpretation_entries()


def _full_table(rng: random.Random, pool: list[Oid]) -> TabularOPF:
    """A random OPF over every subset of ``pool``: the subsets in
    ``combinations`` order over ``pool`` (the order the draws are
    made in), each as a mask over the sorted ids."""
    children = tuple(sorted(pool))
    bits = [1 << children.index(child) for child in pool]
    masks = [
        sum(combo)
        for combo in chain.from_iterable(
            combinations(bits, size) for size in range(len(bits) + 1)
        )
    ]
    probabilities = _random_distribution(rng, len(masks))
    return TabularOPF.from_masks(children, dict(zip(masks, probabilities)))


def _random_distribution(rng: random.Random, size: int) -> list[float]:
    weights = [rng.random() + 1e-9 for _ in range(size)]
    total = sum(weights)
    return [w / total for w in weights]


def generate_workload(spec: WorkloadSpec) -> GeneratedWorkload:
    """Generate one balanced-tree probabilistic instance per the spec."""
    rng = random.Random(spec.seed)
    pools = [
        [f"l{d}_{i}" for i in range(spec.labels_per_depth)] for d in range(spec.depth)
    ]
    leaf_type = LeafType("value-type", spec.value_domain)

    weak = WeakInstance("o0")
    interp = LocalInterpretation()
    labels_by_depth: list[set[Label]] = [set() for _ in range(spec.depth)]

    counter = 1
    frontier: list[Oid] = ["o0"]
    for depth in range(spec.depth):
        next_frontier: list[Oid] = []
        for parent in frontier:
            children = [f"o{counter + i}" for i in range(spec.branching)]
            counter += spec.branching
            if spec.labeling == "SL":
                label = rng.choice(pools[depth])
                weak.set_lch(parent, label, children)
                labels_by_depth[depth].add(label)
            else:
                by_label: dict[Label, list[Oid]] = {}
                for child in children:
                    label = rng.choice(pools[depth])
                    by_label.setdefault(label, []).append(child)
                for label, group in by_label.items():
                    weak.set_lch(parent, label, group)
                    labels_by_depth[depth].add(label)
            if spec.opf_kind == "independent":
                interp.set_opf(
                    parent,
                    IndependentOPF(
                        {child: rng.uniform(0.1, 0.95) for child in children}
                    ),
                )
            else:
                interp.set_opf(parent, _full_table(rng, children))
            next_frontier.extend(children)
        frontier = next_frontier

    for leaf in frontier:
        weak.set_type(leaf, leaf_type)
        probabilities = _random_distribution(rng, len(spec.value_domain))
        interp.set_vpf(
            leaf, TabularVPF(dict(zip(spec.value_domain, probabilities)))
        )

    instance = ProbabilisticInstance(weak, interp)
    return GeneratedWorkload(
        spec, instance, [frozenset(labels) for labels in labels_by_depth]
    )


def random_projection_path(
    workload: GeneratedWorkload, rng: random.Random, max_tries: int = 200
) -> PathExpression:
    """A random accepted path expression of length = instance depth.

    Mirrors the paper: draw each label from the labels actually used at
    that depth and accept only expressions whose structural match is
    non-empty ("queries that returned results not only consisting of a
    root").  Falls back to reading the labels off an actual root-to-leaf
    walk when random draws keep missing (rare, but possible under SL).
    """
    graph = workload.instance.weak.graph()
    root = workload.instance.root
    for _ in range(max_tries):
        labels = tuple(
            rng.choice(sorted(pool)) for pool in workload.labels_by_depth
        )
        path = PathExpression(root, labels)
        if not match_path(graph, path).is_empty:
            return path
    # Guaranteed-nonempty fallback: follow an actual branch.
    labels = []
    current = root
    for _ in range(workload.spec.depth):
        children = sorted(graph.children(current))
        child = rng.choice(children)
        labels.append(graph.label(current, child))
        current = child
    return PathExpression(root, tuple(labels))


def random_selection_target(
    workload: GeneratedWorkload, rng: random.Random, max_tries: int = 200
) -> tuple[PathExpression, Oid]:
    """A random accepted selection query ``p = o``.

    Draws a path as :func:`random_projection_path` does, then picks ``o``
    uniformly from the objects satisfying it (the paper's ``SelObj``).
    """
    path = random_projection_path(workload, rng, max_tries)
    graph = workload.instance.weak.graph()
    matched = sorted(match_path(graph, path).matched)
    return path, rng.choice(matched)
