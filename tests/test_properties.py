"""Property-based tests (hypothesis) for the library's core invariants.

These cover the invariants listed in DESIGN.md §4: distribution legality,
Theorem 1, local/global algorithm equivalence, query-engine agreement,
codec round-trips and interval soundness — on randomly generated models
rather than hand-picked fixtures.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.algebra.projection_prob import (
    ancestor_projection_global,
    ancestor_projection_local,
)
from repro.core.cardinality import CardinalityInterval
from repro.core.compact import IndependentOPF, SymmetricOPF
from repro.core.distributions import TabularOPF
from repro.core.potential import (
    count_potential_child_sets,
    potential_child_sets,
    potential_child_sets_via_hitting,
)
from repro.io import json_codec
from repro.pixml.intervals import ProbInterval
from repro.queries.engine import QueryEngine
from repro.semantics.global_interpretation import GlobalInterpretation, verify_theorem1
from repro.semistructured.paths import PathExpression

from tests.helpers import random_dag_instance, random_tree_instance

HEAVY = settings(max_examples=20, deadline=None)
LIGHT = settings(max_examples=60, deadline=None)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def inclusion_maps(draw):
    size = draw(st.integers(min_value=1, max_value=5))
    return {
        f"c{i}": draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
        for i in range(size)
    }


@st.composite
def opf_tables(draw):
    """A random legal OPF over subsets of a small child pool."""
    pool = [f"c{i}" for i in range(draw(st.integers(min_value=1, max_value=4)))]
    subsets = [frozenset(), *map(lambda i: frozenset(pool[: i + 1]), range(len(pool)))]
    chosen = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=4,
                           unique=True))
    weights = draw(st.lists(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        min_size=len(chosen), max_size=len(chosen)))
    total = sum(weights)
    return TabularOPF({c: w / total for c, w in zip(chosen, weights)})


@st.composite
def lch_with_cards(draw):
    labels = draw(st.integers(min_value=1, max_value=3))
    lch = {}
    cards = {}
    next_id = 0
    for index in range(labels):
        size = draw(st.integers(min_value=1, max_value=3))
        children = {f"c{next_id + i}" for i in range(size)}
        next_id += size
        low = draw(st.integers(min_value=0, max_value=size))
        high = draw(st.integers(min_value=low, max_value=size))
        lch[f"l{index}"] = children
        cards[f"l{index}"] = CardinalityInterval(low, high)
    return lch, cards


# ----------------------------------------------------------------------
# Distributions
# ----------------------------------------------------------------------
class TestDistributionProperties:
    @LIGHT
    @given(opf_tables())
    def test_opf_mass_is_one(self, opf):
        opf.validate()

    @LIGHT
    @given(opf_tables(), st.sampled_from(["c0", "c1", "c2"]))
    def test_marginal_inclusion_bounded(self, opf, oid):
        marginal = opf.marginal_inclusion(oid)
        assert 0.0 <= marginal <= 1.0 + 1e-12

    @LIGHT
    @given(inclusion_maps())
    def test_independent_opf_equals_tabular(self, inclusion):
        compact = IndependentOPF(inclusion)
        for child_set, probability in compact.to_tabular().support():
            assert compact.prob(child_set) == pytest.approx(probability)

    @LIGHT
    @given(inclusion_maps())
    def test_independent_opf_mass_is_one(self, inclusion):
        total = sum(p for _, p in IndependentOPF(inclusion).support())
        assert total == pytest.approx(1.0)

    @LIGHT
    @given(st.integers(min_value=1, max_value=5),
           st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1,
                    max_size=4))
    def test_symmetric_opf_mass_is_one(self, n, raw_weights):
        sizes = list(range(min(len(raw_weights), n + 1)))
        weights = raw_weights[: len(sizes)]
        total = sum(weights)
        opf = SymmetricOPF([f"c{i}" for i in range(n)],
                           {s: w / total for s, w in zip(sizes, weights)})
        assert sum(p for _, p in opf.support()) == pytest.approx(1.0)


class TestPotentialProperties:
    @LIGHT
    @given(lch_with_cards())
    def test_count_matches_enumeration(self, setup):
        lch, cards = setup
        assert count_potential_child_sets(lch, cards) == len(
            list(potential_child_sets(lch, cards))
        )

    @settings(max_examples=30, deadline=None)
    @given(lch_with_cards())
    def test_hitting_definition_agrees(self, setup):
        lch, cards = setup
        via_product = set(potential_child_sets(lch, cards))
        via_hitting = potential_child_sets_via_hitting(lch, cards)
        assert via_product == via_hitting

    @LIGHT
    @given(lch_with_cards())
    def test_every_pc_member_respects_cards(self, setup):
        lch, cards = setup
        for child_set in potential_child_sets(lch, cards):
            for label, children in lch.items():
                assert len(child_set & children) in cards[label]


# ----------------------------------------------------------------------
# Semantics and algebra
# ----------------------------------------------------------------------
class TestSemanticsProperties:
    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000))
    def test_theorem1_random_trees(self, seed):
        pi = random_tree_instance(random.Random(seed), depth=2, max_children=2)
        verify_theorem1(pi)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_theorem1_random_dags(self, seed):
        pi = random_dag_instance(random.Random(seed), width=2)
        verify_theorem1(pi)

    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 3))
    @example(263, 1)  # a matched child the parent's OPF never includes
    def test_projection_local_equals_global(self, seed, length):
        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=2, max_children=2)
        labels = sorted(pi.weak.graph().labels)
        path = PathExpression(
            pi.root, tuple(rng.choice(labels) for _ in range(length))
        )
        reference = ancestor_projection_global(pi, path)
        local = ancestor_projection_local(pi, path)
        local.validate()
        assert GlobalInterpretation.from_local(local).is_close_to(reference)

    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000))
    def test_query_engines_agree(self, seed):
        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=2, max_children=2)
        graph = pi.weak.graph()
        target = rng.choice(sorted(pi.objects))
        labels = []
        current = target
        while current != pi.root:
            (parent,) = graph.parents(current)
            labels.append(graph.label(parent, current))
            current = parent
        labels.reverse()
        path = PathExpression(pi.root, tuple(labels))
        answers = [
            QueryEngine(pi, strategy=s).point(path, target)
            for s in ("local", "bayes", "enumerate")
        ]
        assert answers[0] == pytest.approx(answers[2], abs=1e-9)
        assert answers[1] == pytest.approx(answers[2], abs=1e-9)

    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000))
    def test_json_round_trip_preserves_distribution(self, seed):
        pi = random_tree_instance(random.Random(seed), depth=2, max_children=2)
        restored = json_codec.loads(json_codec.dumps(pi))
        restored.validate()
        assert GlobalInterpretation.from_local(restored).is_close_to(
            GlobalInterpretation.from_local(pi)
        )


# ----------------------------------------------------------------------
# Intervals
# ----------------------------------------------------------------------
class TestIntervalProperties:
    @LIGHT
    @given(
        st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
        st.floats(0, 1), st.floats(0, 1),
    )
    def test_product_soundness(self, a, b, c, d, p, q):
        lo1, hi1 = min(a, b), max(a, b)
        lo2, hi2 = min(c, d), max(c, d)
        i1 = ProbInterval(lo1, hi1)
        i2 = ProbInterval(lo2, hi2)
        point1 = lo1 + p * (hi1 - lo1)
        point2 = lo2 + q * (hi2 - lo2)
        product = i1.product(i2)
        assert product.lo - 1e-12 <= point1 * point2 <= product.hi + 1e-12

    @LIGHT
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_complement_involution(self, a, b):
        interval = ProbInterval(min(a, b), max(a, b))
        doubled = interval.complement().complement()
        assert doubled.lo == pytest.approx(interval.lo, abs=1e-12)
        assert doubled.hi == pytest.approx(interval.hi, abs=1e-12)


class TestAggregateProperties:
    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000), st.integers(1, 3))
    def test_match_count_distribution_matches_enumeration(self, seed, length):
        from repro.queries.aggregates import match_count_distribution
        from repro.semistructured.paths import evaluate_path

        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=2, max_children=2)
        labels = sorted(pi.weak.graph().labels)
        path = PathExpression(
            pi.root, tuple(rng.choice(labels) for _ in range(length))
        )
        computed = match_count_distribution(pi, path)
        brute: dict[int, float] = {}
        for world, probability in GlobalInterpretation.from_local(pi).support():
            count = len(evaluate_path(world.graph, path))
            brute[count] = brute.get(count, 0.0) + probability
        assert set(computed) == set(brute)
        for count in brute:
            assert computed[count] == pytest.approx(brute[count])

    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000))
    def test_expected_size_by_linearity(self, seed):
        from repro.analysis import expected_size

        pi = random_tree_instance(random.Random(seed), depth=2, max_children=2)
        brute = sum(
            p * len(w)
            for w, p in GlobalInterpretation.from_local(pi).support()
        )
        assert expected_size(pi) == pytest.approx(brute)


class TestUpdateProperties:
    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000))
    def test_assert_child_certain_root_equals_conditioning(self, seed):
        from repro.algebra.updates import assert_child

        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=2, max_children=2)
        children = sorted(pi.weak.potential_children(pi.root))
        child = rng.choice(children)
        opf = pi.opf(pi.root)
        if opf.marginal_inclusion(child) <= 0.0:
            return  # conditioning event has probability zero
        updated = assert_child(pi, pi.root, child)
        reference = GlobalInterpretation.from_local(pi).condition(
            lambda w, _c=child: _c in w.children(w.root)
        )
        assert GlobalInterpretation.from_local(updated).is_close_to(reference)

    @HEAVY
    @given(st.integers(min_value=0, max_value=10_000),
           st.floats(min_value=0.0, max_value=1.0))
    def test_insert_child_marginal(self, seed, probability):
        from repro.algebra.updates import insert_child

        pi = random_tree_instance(random.Random(seed), depth=2, max_children=2)
        label = sorted(pi.weak.labels_of(pi.root))[0]
        updated = insert_child(pi, pi.root, label, "brand-new", probability)
        assert updated.opf(pi.root).marginal_inclusion("brand-new") == (
            pytest.approx(probability)
        )


class TestUnrollProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(0, 4))
    def test_unrolled_mass_is_one(self, seed, horizon):
        from repro.core.distributions import TabularOPF
        from repro.core.instance import ProbabilisticInstance
        from repro.core.unroll import unroll
        from repro.core.weak_instance import WeakInstance

        rng = random.Random(seed)
        weak = WeakInstance("a")
        weak.set_lch("a", "l", ["b"])
        weak.set_lch("b", "l", ["a"])
        pi = ProbabilisticInstance(weak)
        p_ab = rng.uniform(0.1, 0.9)
        p_ba = rng.uniform(0.1, 0.9)
        pi.set_opf("a", TabularOPF({("b",): p_ab, (): 1.0 - p_ab}))
        pi.set_opf("b", TabularOPF({("a",): p_ba, (): 1.0 - p_ba}))
        unrolled = unroll(pi, horizon)
        unrolled.validate()
        GlobalInterpretation.from_local(unrolled).validate()


class TestLearningProperties:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exact_weights_recover_distribution(self, seed):
        from repro.learn import learn_instance
        from repro.semantics.compatible import domain_distribution

        pi = random_tree_instance(random.Random(seed), depth=2, max_children=2)
        learned = learn_instance(list(domain_distribution(pi).items()))
        assert GlobalInterpretation.from_local(learned).is_close_to(
            GlobalInterpretation.from_local(pi)
        )


class TestEventProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_boolean_laws(self, seed):
        from repro.events import ObjectExists, probability

        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=2, max_children=2)
        objects = sorted(pi.objects)
        a = ObjectExists(rng.choice(objects))
        b = ObjectExists(rng.choice(objects))
        p_a = probability(pi, a)
        p_b = probability(pi, b)
        p_and = probability(pi, a & b)
        p_or = probability(pi, a | b)
        assert p_or == pytest.approx(p_a + p_b - p_and)
        assert probability(pi, ~a) == pytest.approx(1.0 - p_a)
        assert probability(pi, ~(a & b)) == pytest.approx(
            probability(pi, ~a | ~b)
        )
