"""Most-probable-world (MAP) computation.

``P_p`` factorizes over objects, so on a tree-structured instance the
most probable compatible world is computable by a max-product dynamic
program: for each object, the best achievable probability of its subtree
given the object exists is

    best(o) = max_c  p(o)(c) * prod_{x in c} best(x)         (non-leaf)
    best(o) = max_v  p(o)(v)                                 (leaf)

and backtracking the argmaxes materializes the world.  On DAGs a shared
child's choice is counted once but its ``best`` factor would be
multiplied per parent, so the DP is unsound there — :func:`map_world`
falls back to exact enumeration (with a size guard).

:func:`top_k_worlds` returns the k most probable worlds (enumeration).
"""

from __future__ import annotations

from repro.core.instance import ProbabilisticInstance
from repro.core.potential import ChildSet
from repro.errors import SemanticsError
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import Oid
from repro.semistructured.instance import SemistructuredInstance
from repro.semistructured.types import Value


def map_world(
    pi: ProbabilisticInstance, max_enumeration: int = 200_000
) -> tuple[SemistructuredInstance, float]:
    """The most probable compatible world and its probability.

    Exact and linear-time (in interpretation entries) on trees; exact by
    enumeration on DAGs, guarded by ``max_enumeration`` worlds.
    """
    if pi.weak.is_tree():
        return _map_world_tree(pi)
    return _map_world_enumerate(pi, max_enumeration)


def _map_world_tree(
    pi: ProbabilisticInstance,
) -> tuple[SemistructuredInstance, float]:
    weak = pi.weak
    best: dict[Oid, float] = {}
    best_choice: dict[Oid, ChildSet] = {}
    best_value: dict[Oid, Value] = {}

    order = weak.graph().topological_order()
    if order is None:
        raise SemanticsError("cyclic weak instance")
    for oid in reversed(order):
        if weak.is_leaf(oid):
            vpf = pi.effective_vpf(oid)
            if vpf is None:
                best[oid] = 1.0
                continue
            value, probability = max(vpf.support(), key=lambda kv: kv[1])
            best[oid] = probability
            best_value[oid] = value
            continue
        opf = pi.opf(oid)
        if opf is None:
            raise SemanticsError(f"non-leaf object {oid!r} has no OPF")
        best_score = -1.0
        chosen: ChildSet = frozenset()
        for child_set, probability in opf.support():
            score = probability
            for child in child_set:
                score *= best[child]
            if score > best_score:
                best_score = score
                chosen = child_set
        best[oid] = best_score
        best_choice[oid] = chosen

    world = SemistructuredInstance(pi.root)
    frontier = [pi.root]
    while frontier:
        oid = frontier.pop()
        if oid in best_value:
            leaf_type = weak.tau(oid)
            if leaf_type is not None:
                world.set_type(oid, leaf_type)
            world.set_value(oid, best_value[oid])
        for child in best_choice.get(oid, frozenset()):
            world.add_edge(oid, child, weak.label_of_child(oid, child))
            frontier.append(child)
    return world, best[pi.root]


def _map_world_enumerate(
    pi: ProbabilisticInstance, max_enumeration: int
) -> tuple[SemistructuredInstance, float]:
    from repro.semantics.compatible import iter_compatible_instances

    best_world: SemistructuredInstance | None = None
    best_probability = -1.0
    count = 0
    for world, probability in iter_compatible_instances(pi):
        count += 1
        if count > max_enumeration:
            raise SemanticsError(
                f"DAG MAP enumeration exceeded {max_enumeration} worlds; "
                "raise max_enumeration or use sampling"
            )
        if probability > best_probability:
            best_world = world
            best_probability = probability
    if best_world is None:
        raise SemanticsError("the instance has no compatible world")
    return best_world, best_probability


def top_k_worlds(
    pi: ProbabilisticInstance, k: int
) -> list[tuple[SemistructuredInstance, float]]:
    """The ``k`` most probable worlds (exact, by enumeration)."""
    if k <= 0:
        raise SemanticsError("k must be positive")
    interpretation = GlobalInterpretation.from_local(pi)
    ranked = sorted(interpretation.support(), key=lambda kv: -kv[1])
    return ranked[:k]
