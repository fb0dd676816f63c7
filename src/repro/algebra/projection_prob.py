"""Ancestor projection on probabilistic instances (Sections 5.1 and 6.1).

Two implementations are provided:

* :func:`ancestor_projection_global` — the *reference* semantics of
  Definition 5.3: enumerate the compatible worlds, project each with the
  ordinary :func:`repro.algebra.projection.ancestor_projection`, and sum
  the probabilities of identical results.  Exponential; used for tests,
  small instances and the global-vs-local ablation.

* :func:`ancestor_projection_local` — the efficient algorithm of Section
  6.1 for tree-structured instances.  It rewrites the local interpretation
  bottom-up: a *marginalization* step projects each OPF onto the kept
  children, weighting each kept child ``o_j`` by the probability
  ``eps_j`` that ``o_j`` still has a surviving match below it, and a
  *normalization* step conditions every non-root object on having at
  least one surviving child (objects without surviving children do not
  appear in an ancestor projection).  The root is not normalized: its
  empty-set mass is exactly the probability that the projection of a
  world is the bare root.  Cardinality constraints are recomputed from
  the new OPF supports.

The unified update formula (covering both the "immediate parent of the
matched level" and the general case — matched objects have ``eps = 1``) is

    p'(o)(c') = sum_{c in PC(o), c' subseteq c} p(o)(c)
                * prod_{j in c'} eps_j
                * prod_{j in (c ∩ kept) - c'} (1 - eps_j)

followed by ``eps_o = sum_{c' != {}} p'(o)(c')`` and division by
``eps_o`` (non-root objects only).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.projection import ancestor_projection
from repro.core.cardinality import CardinalityInterval
from repro.core.compact import IndependentOPF, NonEmptyIndependentOPF
from repro.core.distributions import ObjectProbabilityFunction, TabularOPF
from repro.core.instance import ProbabilisticInstance
from repro.core.weak_instance import WeakInstance
from repro.errors import NonTreeInstanceError, SemanticsError
from repro.index.opf import marginalize
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.graph import Oid
from repro.semistructured.paths import PathExpression, PathMatch, match_path


def ancestor_projection_global(
    pi: ProbabilisticInstance, path: PathExpression | str
) -> GlobalInterpretation:
    """Definition 5.3 verbatim: project every world, group identical results."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    interpretation = GlobalInterpretation.from_local(pi)
    return interpretation.map_worlds(lambda world: ancestor_projection(world, path))


@dataclass(frozen=True)
class EpsilonPass:
    """The output of the bottom-up epsilon computation.

    Attributes:
        match: the structural path match on the weak instance graph.
        epsilon: per-object survival probability ``eps_o`` (matched objects
            have 1.0; objects that can never survive have 0.0).
        opfs: the rewritten OPFs of surviving non-leaf objects.  Non-root
            objects are conditioned on having at least one surviving
            child; the root keeps its (possibly positive) empty-set mass.
            Tabular inputs yield :class:`TabularOPF` results; independent
            inputs stay compact (:class:`IndependentOPF` at the root,
            :class:`NonEmptyIndependentOPF` elsewhere) and are updated in
            O(children) instead of O(2^b).
        root_empty_mass: ``p'(r)({})`` — the probability that no object
            satisfies the path expression.
    """

    match: PathMatch
    epsilon: dict[Oid, float]
    opfs: dict[Oid, "ObjectProbabilityFunction"]
    root_empty_mass: float

    @property
    def root_epsilon(self) -> float:
        """``eps_r = 1 - p'(r)({})`` — probability some object matches."""
        return 1.0 - self.root_empty_mass


def _require_tree(pi: ProbabilisticInstance) -> None:
    if not pi.weak.is_tree():
        raise NonTreeInstanceError(
            "the efficient local algorithms require a tree-structured weak "
            "instance graph; use the global or Bayesian-network engines for DAGs"
        )


def _locate(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    match: PathMatch | None,
) -> PathMatch:
    """``path``'s match on ``pi`` (the caller's, if it brought one),
    behind the tree check."""
    if isinstance(path, str):
        path = PathExpression.parse(path)
    _require_tree(pi)
    return match if match is not None else match_path(pi.weak.graph(), path)


def epsilon_pass(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    match: PathMatch | None = None,
) -> EpsilonPass:
    """Run the bottom-up marginalize/normalize sweep of Section 6.1.

    Only the objects on matching root-paths are touched (the paper sets
    the query length equal to the instance depth precisely because deeper
    objects "will not be considered and ... does not need updating").
    A precomputed ``match`` may be passed so callers (the benchmark
    harness, the indexed executor) can time or batch the locate step
    separately.
    """
    match = _locate(pi, path, match)
    epsilon: dict[Oid, float] = {}
    opfs: dict[Oid, ObjectProbabilityFunction] = {}

    if match.is_empty:
        return EpsilonPass(match, epsilon, opfs, root_empty_mass=1.0)

    depth = len(match.levels) - 1
    if depth == 0:
        # Zero-label path: the root matches itself with certainty.
        epsilon[pi.root] = 1.0
        return EpsilonPass(match, epsilon, opfs, root_empty_mass=0.0)

    for oid in match.levels[depth]:
        epsilon[oid] = 1.0

    for level in range(depth - 1, -1, -1):
        children_of: dict[Oid, list[Oid]] = {}
        for src, dst in match.level_edges[level]:
            if epsilon.get(dst, 0.0) > 0.0:
                children_of.setdefault(src, []).append(dst)
        for oid in match.levels[level]:
            kept = children_of.get(oid, [])
            opf = pi.opf(oid)
            if opf is None:
                raise SemanticsError(f"non-leaf object {oid!r} has no OPF")
            if isinstance(opf, IndependentOPF):
                new_opf, survive_mass = _update_independent(
                    opf, kept, epsilon, is_root=oid == pi.root
                )
            else:
                new_opf, survive_mass = _update_tabular(
                    opf, kept, epsilon, is_root=oid == pi.root
                )
            epsilon[oid] = survive_mass
            if oid == pi.root or survive_mass > 0.0:
                if new_opf is not None:
                    opfs[oid] = new_opf

    if pi.root not in opfs:
        # The root was structurally on the match but every branch died
        # probabilistically: projection yields the bare root with certainty.
        return EpsilonPass(match, epsilon, opfs, root_empty_mass=1.0)
    return EpsilonPass(
        match, epsilon, opfs,
        root_empty_mass=opfs[pi.root].prob(frozenset()),
    )


def root_epsilon(
    pi: ProbabilisticInstance,
    path: PathExpression | str,
    match: PathMatch | None = None,
) -> float:
    """``eps_r`` alone — the probability that some object satisfies ``path``.

    :func:`epsilon_pass`'s sweep (same arguments, same empty /
    zero-label / missing-OPF behaviour) carrying one float per object
    and rewriting no OPF: all an existential query reads.  Independent
    OPFs get ``1 - prod_j (1 - p_j eps_j)`` (over the non-empty mass
    when conditioned on it); any other sums its mask table once.
    """
    match = _locate(pi, path, match)
    if match.is_empty:
        return 0.0
    depth = len(match.levels) - 1
    if depth == 0:
        return 1.0    # zero-label path: the root matches itself
    # On a tree an object's children on the match are exactly its
    # children with an epsilon: every object has one depth.
    epsilon: dict[Oid, float] = dict.fromkeys(match.levels[depth], 1.0)
    for level in range(depth - 1, -1, -1):
        for oid in match.levels[level]:
            opf = pi.opf(oid)
            if opf is None:
                raise SemanticsError(f"non-leaf object {oid!r} has no OPF")
            if isinstance(opf, (IndependentOPF, NonEmptyIndependentOPF)):
                dead = 1.0
                for child, included in opf.inclusion.items():
                    dead *= 1.0 - included * epsilon.get(child, 0.0)
                epsilon[oid] = (1.0 - dead) / (
                    opf.nonempty_mass
                    if isinstance(opf, NonEmptyIndependentOPF) else 1.0
                )
                continue
            tabular = opf.to_tabular()
            dies = [
                (1 << position, 1.0 - epsilon[child])
                for position, child in enumerate(tabular.children)
                if child in epsilon
            ]
            total = dead = 0.0
            for mask, mass in tabular.masks.items():
                total += mass
                for bit, factor in dies:
                    if mask & bit:
                        mass *= factor
                dead += mass
            # As epsilon_pass: the root keeps its empty-set mass, every
            # other object is measured by its surviving mass.
            epsilon[oid] = (1.0 if oid == pi.root else total) - dead
    return epsilon.get(pi.root, 0.0)


def _update_independent(
    opf: IndependentOPF,
    kept: list[Oid],
    epsilon: dict[Oid, float],
    is_root: bool,
) -> tuple[ObjectProbabilityFunction | None, float]:
    """O(children) update for independent OPFs.

    Every kept child survives independently with probability
    ``q_j = p_j * eps_j``; dropped children marginalize away for free.
    """
    survival = {}
    empty_mass = 1.0
    for child in kept:
        q = opf.marginal_inclusion(child) * epsilon[child]
        if q > 0.0:
            survival[child] = q
            empty_mass *= 1.0 - q
    survive_mass = 1.0 - empty_mass if survival else 0.0
    if is_root:
        if not survival:
            return None, 0.0
        return IndependentOPF(survival), survive_mass
    if survive_mass <= 0.0:
        return None, 0.0
    return NonEmptyIndependentOPF(survival), survive_mass


def _update_tabular(
    opf: ObjectProbabilityFunction,
    kept: list[Oid],
    epsilon: dict[Oid, float],
    is_root: bool,
) -> tuple[ObjectProbabilityFunction | None, float]:
    """The unified marginalization formula of the module docstring over
    the OPF's mask table (any other representation is tabulated first);
    the result keeps the input's ``children``."""
    tabular = opf.to_tabular()
    table = marginalize(tabular, kept, epsilon)
    survive_mass = sum(p for mask, p in table.items() if mask)
    if is_root:
        return TabularOPF.from_masks(tabular.children, table), survive_mass
    if survive_mass <= 0.0:
        return None, 0.0
    return (
        TabularOPF.from_masks(tabular.children, {
            mask: p / survive_mass for mask, p in table.items() if mask
        }),
        survive_mass,
    )


def ancestor_projection_local(
    pi: ProbabilisticInstance, path: PathExpression | str
) -> ProbabilisticInstance:
    """Section 6.1: ancestor projection returning a probabilistic instance.

    The result's global semantics equals the pushed-forward distribution
    of :func:`ancestor_projection_global` (tested property-based); it is
    computed in one bottom-up sweep over the matched objects instead of
    enumerating worlds.
    """
    if isinstance(path, str):
        path = PathExpression.parse(path)
    sweep = epsilon_pass(pi, path)
    return instance_from_epsilon_pass(pi, path, sweep)


def instance_from_epsilon_pass(
    pi: ProbabilisticInstance, path: PathExpression, sweep: EpsilonPass
) -> ProbabilisticInstance:
    """Materialize the projection result from a completed epsilon pass."""
    weak = pi.weak
    result_weak = WeakInstance(pi.root)
    result = ProbabilisticInstance(result_weak)

    root_is_weak_leaf = weak.is_leaf(pi.root)
    if root_is_weak_leaf:
        _copy_leaf(pi, result, pi.root)

    if sweep.root_empty_mass >= 1.0 or not sweep.match.levels:
        return result

    depth = len(sweep.match.levels) - 1
    if depth == 0:
        return result

    surviving: set[Oid] = {pi.root}
    for level in range(depth):
        # A child is kept when it can still match below (eps > 0) *and*
        # its parent's rewritten OPF ever includes it: a child every
        # containing set gives zero mass would get card [0, 0] and sit
        # in the result unreachable from the root.  Dropping it drops
        # its subtree too (its children never see it in ``surviving``).
        children_of: dict[Oid, list[Oid]] = {}
        for src, dst in sweep.match.level_edges[level]:
            opf = sweep.opfs.get(src)
            if (
                src in surviving
                and opf is not None
                and sweep.epsilon.get(dst, 0.0) > 0.0
                and opf.marginal_inclusion(dst) > 0.0
            ):
                children_of.setdefault(src, []).append(dst)
        for oid in sorted(children_of):
            result_weak.set_lch(oid, path.labels[level], sorted(children_of[oid]))
        surviving = {dst for kept in children_of.values() for dst in kept}

    # Attach the rewritten OPFs and recomputed cardinalities.
    for oid, opf in sweep.opfs.items():
        if oid != pi.root and oid not in result_weak:
            continue  # the object's whole branch died or was orphaned
        if not result_weak.labels_of(oid):
            continue  # no surviving children recorded (bare-root case)
        result.set_opf(oid, opf)
        _recompute_card(result_weak, oid, opf)

    # Matched objects that were leaves keep their type and value/VPF.
    for oid in sweep.match.levels[depth]:
        if oid in result_weak and weak.is_leaf(oid):
            _copy_leaf(pi, result, oid)
    return result


def _copy_leaf(
    source: ProbabilisticInstance, target: ProbabilisticInstance, oid: Oid
) -> None:
    leaf_type = source.weak.tau(oid)
    if leaf_type is not None:
        target.weak.set_type(oid, leaf_type)
    default = source.weak.val(oid)
    if default is not None:
        target.weak.set_val(oid, default)
    vpf = source.vpf(oid)
    if vpf is not None:
        target.set_vpf(oid, vpf)


def _recompute_card(
    weak: WeakInstance, oid: Oid, opf: ObjectProbabilityFunction
) -> None:
    """``card'(o, l)``: min/max label-l children over the new OPF support.

    Compact independent OPFs get a closed form (no support enumeration):
    a child is mandatory iff its inclusion probability is 1 and possible
    iff it is positive; the non-empty conditioning of a single-label
    object raises the lower bound to 1.
    """
    labels = weak.labels_of(oid)
    if isinstance(opf, (IndependentOPF, NonEmptyIndependentOPF)):
        inclusion = opf.inclusion
        for label in labels:
            pool = weak.lch(oid, label)
            certain = sum(1 for c in pool if inclusion.get(c, 0.0) >= 1.0)
            possible = sum(1 for c in pool if inclusion.get(c, 0.0) > 0.0)
            low = certain
            if isinstance(opf, NonEmptyIndependentOPF) and len(labels) == 1:
                low = max(low, 1)
            weak.set_card(oid, label, CardinalityInterval(low, possible))
        return
    tabular = opf.to_tabular()
    if not tabular.masks:
        return
    for label in labels:
        label_mask = 0
        for child in weak.lch(oid, label):
            label_mask |= tabular.bit(child)
        counts = {(mask & label_mask).bit_count() for mask in tabular.masks}
        weak.set_card(oid, label, CardinalityInterval(min(counts), max(counts)))
