"""Tests for aggregate queries."""

import pytest

from repro.core.builder import InstanceBuilder
from repro.errors import QueryError
from repro.queries.aggregates import (
    child_count_distribution,
    expected_chain_extensions,
    expected_child_count,
    expected_match_count,
    match_count_distribution,
    value_distribution_at,
    value_point_query,
)
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.paths import PathExpression, evaluate_path


@pytest.fixture
def tree():
    builder = InstanceBuilder("R")
    builder.children("R", "book", ["B1", "B2"])
    builder.opf("R", {("B1",): 0.3, ("B2",): 0.2, ("B1", "B2"): 0.4, (): 0.1})
    builder.children("B1", "author", ["A1", "A2"])
    builder.opf("B1", {("A1",): 0.5, ("A2",): 0.2, ("A1", "A2"): 0.3})
    builder.children("B2", "author", ["A3"])
    builder.opf("B2", {("A3",): 0.6, (): 0.4})
    builder.leaf("A1", "name", ["x", "y"], {"x": 0.7, "y": 0.3})
    builder.leaf("A2", "name", vpf={"x": 1.0})
    builder.leaf("A3", "name", vpf={"y": 1.0})
    return builder.build()


class TestChildCounts:
    def test_distribution(self, tree):
        dist = child_count_distribution(tree, "B1", "author")
        assert dist == {1: pytest.approx(0.7), 2: pytest.approx(0.3)}

    def test_distribution_counts_only_that_label(self, tree):
        dist = child_count_distribution(tree, "R", "book")
        assert sum(dist.values()) == pytest.approx(1.0)
        assert dist[0] == pytest.approx(0.1)

    def test_leaf_rejected(self, tree):
        with pytest.raises(QueryError):
            child_count_distribution(tree, "A1", "x")

    def test_expected_count_conditional(self, tree):
        assert expected_child_count(tree, "B1", "author") == pytest.approx(1.3)

    def test_expected_count_unconditional(self, tree):
        # P(B1) = 0.7; E[authors | B1] = 1.3.
        assert expected_child_count(
            tree, "B1", "author", conditional=False
        ) == pytest.approx(0.7 * 1.3)


class TestMatchCounts:
    def test_expected_match_count_matches_enumeration(self, tree):
        path = PathExpression.parse("R.book.author")
        worlds = GlobalInterpretation.from_local(tree)
        brute = sum(
            p * len(evaluate_path(w.graph, path)) for w, p in worlds.support()
        )
        assert expected_match_count(tree, path) == pytest.approx(brute)

    def test_match_count_distribution_matches_enumeration(self, tree):
        path = PathExpression.parse("R.book.author")
        worlds = GlobalInterpretation.from_local(tree)
        brute: dict[int, float] = {}
        for world, probability in worlds.support():
            count = len(evaluate_path(world.graph, path))
            brute[count] = brute.get(count, 0.0) + probability
        computed = match_count_distribution(tree, path)
        assert set(computed) == set(brute)
        for count, probability in brute.items():
            assert computed[count] == pytest.approx(probability)

    def test_distribution_mean_equals_expectation(self, tree):
        path = PathExpression.parse("R.book.author")
        dist = match_count_distribution(tree, path)
        mean = sum(k * p for k, p in dist.items())
        assert mean == pytest.approx(expected_match_count(tree, path))

    def test_empty_path_distribution(self, tree):
        assert match_count_distribution(tree, "R.ghost") == {0: 1.0}

    def test_zero_label_path_distribution(self, tree):
        assert match_count_distribution(tree, "R") == {1: 1.0}

    def test_distribution_sums_to_one(self, tree):
        dist = match_count_distribution(tree, "R.book")
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_dag_is_refused_unless_the_caller_holds_a_tree_proof(
        self, tree, monkeypatch
    ):
        """The tree proof is the weak instance's, made once: a DAG is
        refused, and a tree asked twice is walked once."""
        from repro.errors import NonTreeInstanceError
        from repro.paper import figure2_instance
        from repro.semistructured.graph import EdgeLabeledGraph

        with pytest.raises(NonTreeInstanceError):
            match_count_distribution(figure2_instance(), "R.book.author")
        proofs = []
        is_tree = EdgeLabeledGraph.is_tree
        monkeypatch.setattr(
            EdgeLabeledGraph, "is_tree",
            lambda graph, root: proofs.append(root) or is_tree(graph, root),
        )
        first = match_count_distribution(tree, "R.book.author")
        assert match_count_distribution(tree, "R.book.author") == first
        assert proofs == ["R"]


class TestIndependentFanOut:
    """Independent OPFs answer from their closed forms: the support of
    a 24-child pool has 16.8 M entries, its count distribution is a
    product of 24 binomials."""

    @staticmethod
    def _wide(fan_out, opf_class, tabular=False):
        import random

        rng = random.Random(fan_out)
        builder = InstanceBuilder("R")
        groups = ["G1", "G2"]
        builder.children("R", "group", groups)
        builder.opf("R", {("G1",): 0.3, ("G2",): 0.2, ("G1", "G2"): 0.5})
        for group in groups:
            items = [f"{group}i{n}" for n in range(fan_out)]
            builder.children(group, "item", items[: fan_out // 2])
            builder.children(group, "other", items[fan_out // 2:])
            inclusion = {item: rng.choice([rng.random(), 1.0]) for item in items}
            opf = opf_class(inclusion)
            builder.opf(group, opf.to_tabular() if tabular else opf)
            for item in items:
                builder.leaf(item, "name", ["x"], {"x": 1.0})
        # Validation enumerates every support: 2^24 sets at fan-out 24.
        return builder.build(validate=fan_out <= 10)

    @pytest.mark.parametrize("conditioned", (False, True))
    def test_closed_forms_equal_the_enumerated_support(self, conditioned):
        from repro.core.compact import IndependentOPF, NonEmptyIndependentOPF
        from repro.queries.point import existential_query

        opf_class = NonEmptyIndependentOPF if conditioned else IndependentOPF
        compact = self._wide(10, opf_class)
        table = self._wide(10, opf_class, tabular=True)
        for path in ("R.group.item", "R.group.other"):
            closed = match_count_distribution(compact, path)
            enumerated = match_count_distribution(table, path)
            assert set(closed) == set(enumerated)
            for count, probability in enumerated.items():
                assert closed[count] == pytest.approx(probability, abs=1e-12)
            assert existential_query(compact, path) == pytest.approx(
                existential_query(table, path), abs=1e-12
            )

    @pytest.mark.parametrize("conditioned", (False, True))
    def test_fan_out_24_is_not_enumerated(self, conditioned):
        import time

        from repro.core.compact import IndependentOPF, NonEmptyIndependentOPF
        from repro.queries.point import existential_query

        wide = self._wide(
            24, NonEmptyIndependentOPF if conditioned else IndependentOPF
        )
        started = time.perf_counter()
        dist = match_count_distribution(wide, "R.group.item")
        exists = existential_query(wide, "R.group.item")
        count = expected_match_count(wide, "R.group.item")
        assert time.perf_counter() - started < 0.05
        assert sum(dist.values()) == pytest.approx(1.0)
        assert sum(k * p for k, p in dist.items()) == pytest.approx(count)
        assert 1.0 - dist.get(0, 0.0) == pytest.approx(exists)


class TestValueAggregates:
    def test_value_point_query_matches_enumeration(self, tree):
        path = PathExpression.parse("R.book.author")
        worlds = GlobalInterpretation.from_local(tree)
        brute = worlds.event_probability(
            lambda w: "A1" in evaluate_path(w.graph, path) and w.val("A1") == "y"
            if "A1" in w else False
        )
        assert value_point_query(tree, path, "A1", "y") == pytest.approx(brute)

    def test_value_point_query_zero_off_path(self, tree):
        assert value_point_query(tree, "R.book", "A1", "x") == 0.0

    def test_value_distribution_at(self, tree):
        dist = value_distribution_at(tree, "R.book.author", "A1")
        assert dist == {"x": pytest.approx(0.7), "y": pytest.approx(0.3)}

    def test_value_distribution_unreachable_rejected(self, tree):
        with pytest.raises(QueryError):
            value_distribution_at(tree, "R.title", "A1")

    def test_valueless_target_rejected(self, tree):
        with pytest.raises(QueryError):
            value_point_query(tree, "R.book", "B1", "x")


class TestChainAggregates:
    def test_expected_extensions(self, tree):
        # P(R.B1) = 0.7, E[authors | B1] = 1.3.
        assert expected_chain_extensions(tree, ["R", "B1"], "author") == (
            pytest.approx(0.7 * 1.3)
        )

    def test_impossible_chain_zero(self, tree):
        assert expected_chain_extensions(tree, ["R", "A1"], "author") == 0.0
