"""Descendant and single projection on probabilistic instances.

The paper names these operators alongside ancestor projection (Section
5.1) without detailing them; the SD-level semantics live in
:mod:`repro.algebra.projection` and the probabilistic versions follow the
same global/local split as ancestor projection:

* **Descendant projection** keeps the matched objects, their on-path
  ancestors, and everything below the matches.  The efficient local
  version runs the same epsilon pass as ancestor projection (survival of
  a branch depends only on the path part) and then grafts each surviving
  matched object's original subtree — whose distribution is untouched
  and independent of the ancestors — back onto the result.

* **Single projection** re-attaches the matched objects directly under
  the root.  Its result distribution is generally *not* factorizable
  into per-object local functions: two matched objects that shared an
  ancestor are correlated in the result, but the result's weak instance
  (root + matches) has nowhere to store that correlation except the root
  OPF — which is exactly where we put it.  The local algorithm therefore
  computes the root's joint OPF over sets of matched objects via the
  pushforward of the path-ancestor portion only (still far cheaper than
  full enumeration); matched leaves keep their VPFs.
"""

from __future__ import annotations

from repro.algebra.projection import descendant_projection, single_projection
from repro.algebra.projection_prob import _require_tree, ancestor_projection_local
from repro.core.distributions import TabularOPF
from repro.core.instance import ProbabilisticInstance
from repro.core.potential import ChildSet
from repro.errors import SemanticsError
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression, match_path


def descendant_projection_global(
    pi: ProbabilisticInstance, path: PathExpression | str
) -> GlobalInterpretation:
    """Reference semantics: project every world, group identical results."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    interpretation = GlobalInterpretation.from_local(pi)
    return interpretation.map_worlds(lambda world: descendant_projection(world, path))


def descendant_projection_local(
    pi: ProbabilisticInstance, path: PathExpression | str
) -> ProbabilisticInstance:
    """Efficient descendant projection for tree-structured instances."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    result = ancestor_projection_local(pi, path)
    weak = pi.weak
    # Graft the original subtree below every surviving matched object.
    frontier = [oid for oid in _matched_in(result, pi, path) if oid in result]
    seen: set[Oid] = set()
    while frontier:
        oid = frontier.pop()
        if oid in seen:
            continue
        seen.add(oid)
        for label, children in weak.lch_map(oid).items():
            result.weak.set_lch(oid, label, children)
            if weak.has_explicit_card(oid, label):
                result.weak.set_card(oid, label, weak.card(oid, label))
            frontier.extend(children)
        opf = pi.opf(oid)
        if opf is not None and result.opf(oid) is None:
            result.interpretation.set_opf(oid, opf)
        if weak.is_leaf(oid):
            leaf_type = weak.tau(oid)
            if leaf_type is not None and result.weak.tau(oid) is None:
                result.weak.set_type(oid, leaf_type)
            default = weak.val(oid)
            if default is not None and result.weak.val(oid) is None:
                result.weak.set_val(oid, default)
            vpf = pi.vpf(oid)
            if vpf is not None and result.vpf(oid) is None:
                result.interpretation.set_vpf(oid, vpf)
    return result


def _matched_in(
    result: ProbabilisticInstance, pi: ProbabilisticInstance, path: PathExpression
) -> frozenset[Oid]:
    from repro.semistructured.paths import match_path

    return match_path(pi.weak.graph(), path).matched


def single_projection_global(
    pi: ProbabilisticInstance, path: PathExpression | str
) -> GlobalInterpretation:
    """Reference semantics for single projection."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    interpretation = GlobalInterpretation.from_local(pi)
    return interpretation.map_worlds(lambda world: single_projection(world, path))


def single_projection_local(
    pi: ProbabilisticInstance, path: PathExpression | str
) -> ProbabilisticInstance:
    """Single projection returning a probabilistic instance (trees only).

    The result's root OPF is the exact joint distribution over *sets of
    matched objects present*, computed bottom-up over the path-ancestor
    portion of the tree (never enumerating full worlds): for each kept
    object we maintain a small distribution over "which matched objects
    below it survive", combine children independently (valid in a tree),
    and push through the object's own OPF.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    _require_tree(pi)
    match = match_path(pi.weak.graph(), path)
    depth = len(match.levels) - 1 if match.levels else 0

    from repro.core.weak_instance import WeakInstance

    result_weak = WeakInstance(pi.root)
    result = ProbabilisticInstance(result_weak)
    if match.is_empty or depth == 0:
        return result

    # reach[o] = distribution over frozensets of matched objects reachable
    # below (and including) o, given o exists.
    reach: dict[Oid, dict[ChildSet, float]] = {}
    for oid in match.levels[depth]:
        reach[oid] = {frozenset({oid}): 1.0}

    for level in range(depth - 1, -1, -1):
        children_of: dict[Oid, list[Oid]] = {}
        for src, dst in match.level_edges[level]:
            if dst in reach:
                children_of.setdefault(src, []).append(dst)
        for oid in match.levels[level]:
            kept = children_of.get(oid, [])
            opf = pi.opf(oid)
            if opf is None:
                raise SemanticsError(f"non-leaf object {oid!r} has no OPF")
            dist: dict[ChildSet, float] = {}
            for child_set, p_children in opf.support():
                partials: list[dict[ChildSet, float]] = [
                    reach[c] for c in kept if c in child_set
                ]
                for matched_set, p_matched in _convolve(partials).items():
                    dist[matched_set] = dist.get(matched_set, 0.0) + (
                        p_children * p_matched
                    )
            if dist:
                reach[oid] = dist

    root_dist = reach.get(pi.root, {frozenset(): 1.0})
    matched_present = sorted({o for s in root_dist for o in s})
    if matched_present:
        label = path.labels[-1]
        result_weak.set_lch(pi.root, label, matched_present)
        result.set_opf(pi.root, TabularOPF(root_dist))
        from repro.algebra.projection_prob import _recompute_card

        _recompute_card(result_weak, pi.root, result.opf(pi.root))
    for oid in matched_present:
        if pi.weak.is_leaf(oid):
            leaf_type = pi.weak.tau(oid)
            if leaf_type is not None:
                result_weak.set_type(oid, leaf_type)
            default = pi.weak.val(oid)
            if default is not None:
                result_weak.set_val(oid, default)
            vpf = pi.vpf(oid)
            if vpf is not None:
                result.set_vpf(oid, vpf)
    return result


def _convolve(partials: list[dict[ChildSet, float]]) -> dict[ChildSet, float]:
    """Combine independent per-branch matched-set distributions."""
    combined: dict[ChildSet, float] = {frozenset(): 1.0}
    for partial in partials:
        merged: dict[ChildSet, float] = {}
        for left_set, left_p in combined.items():
            for right_set, right_p in partial.items():
                key = left_set | right_set
                merged[key] = merged.get(key, 0.0) + left_p * right_p
        combined = merged
    return combined
