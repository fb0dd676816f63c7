"""Tests for the update operations."""

import pytest

from repro.algebra.updates import (
    assert_child,
    insert_child,
    remove_object,
    retract_child,
    reweight_opf,
    set_value,
)
from repro.core.builder import InstanceBuilder
from repro.errors import AlgebraError, EmptyResultError
from repro.semantics.global_interpretation import GlobalInterpretation


@pytest.fixture
def tree():
    builder = InstanceBuilder("R")
    builder.children("R", "book", ["B1", "B2"])
    builder.opf("R", {("B1",): 0.3, ("B2",): 0.2, ("B1", "B2"): 0.5})
    builder.children("B1", "author", ["A1", "A2"])
    builder.opf("B1", {("A1",): 0.5, ("A2",): 0.2, ("A1", "A2"): 0.3})
    builder.leaf("A1", "name", ["x", "y"], {"x": 0.7, "y": 0.3})
    builder.leaf("A2", "name", vpf={"x": 1.0})
    builder.leaf("B2", "isbn", ["n1"], {"n1": 1.0})
    return builder.build()


class TestAssertChild:
    def test_child_becomes_certain(self, tree):
        updated = assert_child(tree, "R", "B1")
        updated.validate()
        worlds = GlobalInterpretation.from_local(updated)
        assert worlds.prob_object_exists("B1") == pytest.approx(1.0)

    def test_equals_global_conditioning_for_certain_parent(self, tree):
        # The root always exists, so the local rewrite IS the global
        # conditional (Definition 5.6 with condition R.book = B1).
        updated = assert_child(tree, "R", "B1")
        reference = GlobalInterpretation.from_local(tree).condition(
            lambda w: "B1" in w.children("R")
        )
        assert GlobalInterpretation.from_local(updated).is_close_to(reference)

    def test_uncertain_parent_keeps_absence_mass(self, tree):
        # B1 exists with p=0.8; asserting A1 in c(B1) must not change that.
        updated = assert_child(tree, "B1", "A1")
        worlds = GlobalInterpretation.from_local(updated)
        assert worlds.prob_object_exists("B1") == pytest.approx(0.8)
        # But given B1, A1 is now certain.
        joint = worlds.event_probability(lambda w: "B1" in w and "A1" in w)
        assert joint == pytest.approx(0.8)

    def test_non_potential_child_rejected(self, tree):
        with pytest.raises(AlgebraError):
            assert_child(tree, "R", "A1")

    def test_input_unchanged(self, tree):
        before = tree.opf("R").prob(frozenset({"B2"}))
        assert_child(tree, "R", "B1")
        assert tree.opf("R").prob(frozenset({"B2"})) == before

    @pytest.mark.parametrize(
        "update",
        [
            lambda pi: retract_child(pi, "R", "B1"),
            lambda pi: insert_child(pi, "B1", "author", "A9", 0.5),
            lambda pi: remove_object(pi, "A1"),
        ],
        ids=["retract_child", "insert_child", "remove_object"],
    )
    def test_structural_update_leaves_input_unchanged(self, tree, update):
        """A structural update builds on a copy of the weak instance:
        its input's objects, ``lch`` and OPFs stay as they were, and a
        frozen input (a registered one) is updated all the same."""

        def state(pi):
            return (
                pi.objects,
                {oid: pi.weak.lch_map(oid) for oid in pi.objects},
                dict(pi.interpretation.opf_items()),
            )

        before = state(tree)
        updated = update(tree)
        assert state(tree) == before
        assert state(updated) != before
        tree.weak.freeze()
        assert state(update(tree)) == state(updated)


class TestRetractChild:
    def test_child_disappears(self, tree):
        updated = retract_child(tree, "R", "B1")
        updated.validate()
        assert "B1" not in updated
        # B1's whole subtree became unreachable and was pruned.
        assert "A1" not in updated
        assert updated.interpretation.opf("B1") is None

    def test_probabilities_renormalized(self, tree):
        updated = retract_child(tree, "R", "B1")
        worlds = GlobalInterpretation.from_local(updated)
        # Only the {B2} entry survives: B2 now certain.
        assert worlds.prob_object_exists("B2") == pytest.approx(1.0)

    def test_shared_leaf_not_pruned(self):
        builder = InstanceBuilder("R")
        builder.children("R", "l", ["a", "b"], card=(0, 2))
        builder.opf("R", {("a",): 0.3, ("b",): 0.3, ("a", "b"): 0.4})
        builder.children("a", "m", ["z"], card=(1, 1))
        builder.opf("a", {("z",): 1.0})
        builder.children("b", "m", ["z"], card=(1, 1))
        builder.opf("b", {("z",): 1.0})
        builder.leaf("z", "t", ["v"], {"v": 1.0})
        pi = builder.build()
        updated = retract_child(pi, "R", "a")
        # z stays reachable via b.
        assert "z" in updated
        assert "a" not in updated

    def test_mandatory_child_rejected(self):
        builder = InstanceBuilder("R")
        builder.children("R", "l", ["a"], card=(1, 1))
        builder.opf("R", {("a",): 1.0})
        builder.leaf("a", "t", ["v"], {"v": 1.0})
        with pytest.raises(EmptyResultError):
            retract_child(builder.build(), "R", "a")


class TestSetValue:
    def test_point_mass(self, tree):
        updated = set_value(tree, "A1", "y")
        assert updated.vpf("A1").prob("y") == 1.0
        updated.validate()

    def test_contradicting_value_rejected(self, tree):
        with pytest.raises(EmptyResultError):
            set_value(tree, "A2", "y")  # A2 is certainly "x"

    def test_valueless_object_rejected(self, tree):
        with pytest.raises(AlgebraError):
            set_value(tree, "R", "x")


class TestReweight:
    def test_likelihood_applied_and_normalized(self, tree):
        # Prefer child sets containing A1 by a factor of 2.
        updated = reweight_opf(
            tree, "B1", lambda c: 2.0 if "A1" in c else 1.0
        )
        opf = updated.opf("B1")
        total = sum(p for _, p in opf.support())
        assert total == pytest.approx(1.0)
        # (0.5*2 + 0.3*2 + 0.2) -> A1 marginal = 1.6/1.8.
        assert opf.marginal_inclusion("A1") == pytest.approx(1.6 / 1.8)

    def test_annihilating_likelihood_rejected(self, tree):
        with pytest.raises(EmptyResultError):
            reweight_opf(tree, "B1", lambda c: 0.0)

    def test_negative_likelihood_rejected(self, tree):
        with pytest.raises(AlgebraError):
            reweight_opf(tree, "B1", lambda c: -1.0)


class TestInsertChild:
    def test_marginal_is_inclusion_probability(self, tree):
        updated = insert_child(tree, "R", "book", "B3", 0.25)
        updated.validate()
        assert updated.opf("R").marginal_inclusion("B3") == pytest.approx(0.25)

    def test_existing_marginals_untouched(self, tree):
        updated = insert_child(tree, "R", "book", "B3", 0.25)
        assert updated.opf("R").marginal_inclusion("B1") == pytest.approx(0.8)

    def test_probability_one_child_always_present(self, tree):
        updated = insert_child(tree, "R", "book", "B3", 1.0)
        worlds = GlobalInterpretation.from_local(updated)
        assert worlds.prob_object_exists("B3") == pytest.approx(1.0)

    def test_duplicate_id_rejected(self, tree):
        with pytest.raises(AlgebraError):
            insert_child(tree, "R", "book", "B1", 0.5)

    def test_bad_probability_rejected(self, tree):
        with pytest.raises(AlgebraError):
            insert_child(tree, "R", "book", "B3", 1.5)


class TestRemoveObject:
    def test_object_and_subtree_gone(self, tree):
        updated = remove_object(tree, "B1")
        updated.validate()
        assert "B1" not in updated
        assert "A1" not in updated and "A2" not in updated

    def test_distribution_conditioned(self, tree):
        updated = remove_object(tree, "B1")
        worlds = GlobalInterpretation.from_local(updated)
        assert worlds.prob_object_exists("B2") == pytest.approx(1.0)

    def test_remove_shared_child_conditions_all_parents(self):
        builder = InstanceBuilder("R")
        builder.children("R", "l", ["a", "b"], card=(2, 2))
        builder.opf("R", {("a", "b"): 1.0})
        builder.children("a", "m", ["z"], card=(0, 1))
        builder.opf("a", {("z",): 0.5, (): 0.5})
        builder.children("b", "m", ["z"], card=(0, 1))
        builder.opf("b", {("z",): 0.4, (): 0.6})
        builder.leaf("z", "t", ["v"], {"v": 1.0})
        pi = builder.build()
        updated = remove_object(pi, "z")
        updated.validate()
        assert "z" not in updated
        assert updated.opf("a").prob(frozenset()) == pytest.approx(1.0)
        assert updated.opf("b").prob(frozenset()) == pytest.approx(1.0)

    def test_root_removal_rejected(self, tree):
        with pytest.raises(AlgebraError):
            remove_object(tree, "R")

    def test_unknown_object_rejected(self, tree):
        with pytest.raises(AlgebraError):
            remove_object(tree, "GHOST")
