"""Tests for selection: conditions, global semantics, efficient algorithm."""

import random

import pytest

from repro.algebra.selection import (
    CardinalityCondition,
    ObjectCondition,
    ObjectValueCondition,
    ValueCondition,
    chain_to,
    select_global,
    select_local,
)
from repro.core.builder import InstanceBuilder
from repro.core.cardinality import CardinalityInterval
from repro.errors import AlgebraError, EmptyResultError
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.paths import PathExpression

from tests.helpers import random_tree_instance


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


def path(text):
    return PathExpression.parse(text)


class TestConditions:
    def test_object_condition(self, tree):
        condition = ObjectCondition(path("R.book"), "B1")
        worlds = GlobalInterpretation.from_local(tree)
        satisfied = worlds.event_probability(condition.satisfied_by)
        assert satisfied == pytest.approx(0.7)

    def test_value_condition_existential(self, tree):
        condition = ValueCondition(path("R.book.author"), "y")
        worlds = GlobalInterpretation.from_local(tree)
        satisfied = worlds.event_probability(condition.satisfied_by)
        # y via A1 (p=0.3 when A1 present) or via A3 (always when present).
        assert 0.0 < satisfied < 1.0

    def test_object_value_condition(self, tree):
        condition = ObjectValueCondition(path("R.book.author"), "A1", "x")
        worlds = GlobalInterpretation.from_local(tree)
        # P(A1 via path) * P(A1 = x) = 0.7 * 0.8 * 0.7.
        expected = 0.7 * 0.8 * 0.7
        assert worlds.event_probability(condition.satisfied_by) == pytest.approx(
            expected
        )

    def test_cardinality_condition(self, tree):
        condition = CardinalityCondition(
            path("R.book"), "author", CardinalityInterval(2, 2)
        )
        worlds = GlobalInterpretation.from_local(tree)
        # Only B1 can have two authors: P(B1 present) * 0.3.
        assert worlds.event_probability(condition.satisfied_by) == pytest.approx(
            0.7 * 0.3
        )

    def test_condition_str(self, tree):
        assert "B1" in str(ObjectCondition(path("R.book"), "B1"))
        assert "val" in str(ValueCondition(path("R.book"), "v"))


class TestGlobalSelection:
    def test_definition56_normalization(self, tree):
        condition = ObjectCondition(path("R.book"), "B1")
        result = select_global(tree, condition)
        result.validate()
        for world, _ in result.support():
            assert condition.satisfied_by(world)

    def test_null_condition_raises(self, tree):
        condition = ObjectCondition(path("R.book"), "GHOST")
        with pytest.raises(EmptyResultError):
            select_global(tree, condition)


class TestLocalSelection:
    def test_matches_global_object_condition(self, tree):
        condition = ObjectCondition(path("R.book.author"), "A1")
        reference = select_global(tree, condition)
        local = select_local(tree, condition)
        local.instance.validate()
        assert GlobalInterpretation.from_local(local.instance).is_close_to(reference)
        assert local.probability == pytest.approx(0.7 * 0.8)

    def test_matches_global_object_value_condition(self, tree):
        condition = ObjectValueCondition(path("R.book.author"), "A1", "y")
        reference = select_global(tree, condition)
        local = select_local(tree, condition)
        assert GlobalInterpretation.from_local(local.instance).is_close_to(reference)
        assert local.probability == pytest.approx(0.7 * 0.8 * 0.3)

    def test_structure_unchanged(self, tree):
        condition = ObjectCondition(path("R.book"), "B2")
        local = select_local(tree, condition)
        assert local.instance.objects == tree.objects
        assert local.instance.weak.lch_map("R") == tree.weak.lch_map("R")

    def test_only_chain_opfs_touched(self, tree):
        condition = ObjectCondition(path("R.book.author"), "A3")
        local = select_local(tree, condition)
        # B1 is off the chain: its OPF object is shared, not rewritten.
        assert local.instance.opf("B1") is tree.opf("B1")
        assert local.instance.opf("B2") is not tree.opf("B2")

    def test_input_not_mutated(self, tree):
        before = tree.opf("R").prob(frozenset({"B2"}))
        select_local(tree, ObjectCondition(path("R.book"), "B1"))
        assert tree.opf("R").prob(frozenset({"B2"})) == before

    def test_selected_object_becomes_certain(self, tree):
        condition = ObjectCondition(path("R.book"), "B1")
        local = select_local(tree, condition)
        engine = GlobalInterpretation.from_local(local.instance)
        assert engine.prob_object_exists("B1") == pytest.approx(1.0)

    def test_impossible_target_raises(self, tree):
        with pytest.raises((EmptyResultError, AlgebraError)):
            select_local(tree, ObjectCondition(path("R.book"), "A1"))

    def test_unsupported_condition_raises(self, tree):
        condition = ValueCondition(path("R.book.author"), "x")
        with pytest.raises(AlgebraError):
            select_local(tree, condition)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_trees(self, seed):
        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=2, max_children=2,
                                  allow_empty_choice=True)
        graph = pi.weak.graph()
        # Pick a random leaf and its actual root chain.
        leaves = sorted(pi.weak.leaves())
        target = rng.choice(leaves)
        labels = []
        current = target
        while current != pi.root:
            (parent,) = graph.parents(current)
            labels.append(graph.label(parent, current))
            current = parent
        labels.reverse()
        condition = ObjectCondition(PathExpression(pi.root, tuple(labels)), target)
        try:
            local = select_local(pi, condition)
        except EmptyResultError:
            return  # target unreachable probabilistically: nothing to compare
        reference = select_global(pi, condition)
        assert GlobalInterpretation.from_local(local.instance).is_close_to(reference)


class TestChainTo:
    def test_finds_chain(self, tree):
        assert chain_to(tree, path("R.book.author"), "A2") == ["R", "B1", "A2"]

    def test_wrong_label_rejected(self, tree):
        with pytest.raises(AlgebraError):
            chain_to(tree, path("R.title.author"), "A2")

    def test_wrong_length_rejected(self, tree):
        with pytest.raises(AlgebraError):
            chain_to(tree, path("R.book"), "A2")

    def test_unknown_object_rejected(self, tree):
        with pytest.raises(AlgebraError):
            chain_to(tree, path("R.book"), "GHOST")


class TestSharedStructure:
    """A selection changes OPFs on one root chain and nothing else: its
    result shares its source's frozen weak instance, so the tree proof
    is made once for the source and every selection derived from it."""

    def test_select_as_shares_the_weak_instance(self, tree, monkeypatch):
        from repro.pxql.interpreter import Interpreter
        from repro.semistructured.graph import EdgeLabeledGraph
        from repro.storage.database import Database

        database = Database()
        database.register("bib", tree)
        proofs = []
        is_tree = EdgeLabeledGraph.is_tree
        monkeypatch.setattr(
            EdgeLabeledGraph, "is_tree",
            lambda graph, root: proofs.append(root) or is_tree(graph, root),
        )
        interp = Interpreter(database=database)
        interp.execute("SELECT R.book = B1 FROM bib AS s1")
        interp.execute("SELECT R.book.author = A3 FROM bib AS s2")
        for name in ("s1", "s2"):
            assert database.get(name).weak is tree.weak
            assert database.get(name).interpretation is not tree.interpretation
        assert proofs == ["R"]
