"""Unit tests for weak instances and the weak instance graph."""

import pytest

from repro.core.cardinality import CardinalityInterval
from repro.core.weak_instance import WeakInstance
from repro.errors import (
    CardinalityError,
    CyclicModelError,
    ModelError,
    OverlappingLabelError,
    TypeDomainError,
    UnknownObjectError,
)
from repro.semistructured.types import LeafType


@pytest.fixture
def weak():
    w = WeakInstance("R")
    w.set_lch("R", "book", ["B1", "B2"])
    w.set_lch("B1", "author", ["A1", "A2"])
    w.set_card("B1", "author", CardinalityInterval(1, 2))
    w.set_type("A1", LeafType("t", ["x"]))
    return w


class TestStructure:
    def test_children_added_on_demand(self, weak):
        assert weak.objects == frozenset({"R", "B1", "B2", "A1", "A2"})

    def test_lch_lookup(self, weak):
        assert weak.lch("R", "book") == frozenset({"B1", "B2"})
        assert weak.lch("R", "nope") == frozenset()

    def test_lch_map(self, weak):
        assert weak.lch_map("B1") == {"author": frozenset({"A1", "A2"})}

    def test_labels_of(self, weak):
        assert weak.labels_of("R") == frozenset({"book"})
        assert weak.labels_of("A1") == frozenset()

    def test_potential_children_union(self, weak):
        weak.set_lch("B1", "title", ["T1"])
        assert weak.potential_children("B1") == frozenset({"A1", "A2", "T1"})

    def test_empty_lch_removes_entry(self, weak):
        weak.set_lch("R", "book", [])
        assert weak.labels_of("R") == frozenset()
        assert weak.is_leaf("R")

    def test_overlapping_labels_rejected(self, weak):
        with pytest.raises(OverlappingLabelError):
            weak.set_lch("B1", "editor", ["A1"])

    def test_unknown_object_raises(self, weak):
        with pytest.raises(UnknownObjectError):
            weak.lch("ghost", "l")

    def test_leaves_and_non_leaves(self, weak):
        assert weak.leaves() == frozenset({"B2", "A1", "A2"})
        assert weak.non_leaves() == frozenset({"R", "B1"})

    def test_label_of_child(self, weak):
        assert weak.label_of_child("B1", "A1") == "author"
        with pytest.raises(ModelError):
            weak.label_of_child("B1", "B2")

    def test_copy_independent(self, weak):
        clone = weak.copy()
        clone.set_lch("B2", "title", ["T9"])
        assert weak.is_leaf("B2")
        assert not clone.is_leaf("B2")


class TestCardinality:
    def test_default_is_unconstrained(self, weak):
        assert weak.card("R", "book") == CardinalityInterval(0, 2)
        assert not weak.has_explicit_card("R", "book")

    def test_explicit_card(self, weak):
        assert weak.card("B1", "author") == CardinalityInterval(1, 2)
        assert weak.has_explicit_card("B1", "author")

    def test_card_entries_iterates_explicit_only(self, weak):
        entries = list(weak.card_entries())
        assert entries == [("B1", "author", CardinalityInterval(1, 2))]


class TestPotentialSets:
    def test_pl(self, weak):
        sets = weak.potential_l_child_sets("B1", "author")
        assert set(sets) == {
            frozenset({"A1"}),
            frozenset({"A2"}),
            frozenset({"A1", "A2"}),
        }

    def test_pc_counts(self, weak):
        assert weak.count_potential_child_sets("B1") == 3
        assert weak.count_potential_child_sets("R") == 4
        assert len(list(weak.potential_child_sets("R"))) == 4

    def test_membership_without_enumeration(self, weak):
        assert weak.is_potential_child_set("B1", frozenset({"A1"}))
        assert not weak.is_potential_child_set("B1", frozenset())  # card.min = 1
        assert not weak.is_potential_child_set("B1", frozenset({"B2"}))


class TestWeakInstanceGraph:
    def test_edges_follow_lch(self, weak):
        graph = weak.graph()
        assert graph.has_edge("R", "B1")
        assert graph.label("R", "B1") == "book"
        assert graph.has_edge("B1", "A2")

    def test_zero_max_card_removes_edges(self, weak):
        weak.set_card("R", "book", CardinalityInterval(0, 0))
        assert not weak.graph().has_edge("R", "B1")

    def test_graph_cache_invalidated_on_mutation(self, weak):
        graph_before = weak.graph()
        weak.set_lch("B2", "title", ["T1"])
        assert weak.graph() is not graph_before
        assert weak.graph().has_edge("B2", "T1")

    def test_acyclic_and_tree(self, weak):
        assert weak.is_acyclic()
        assert weak.is_tree()

    def test_dag_is_not_tree(self, weak):
        weak.set_lch("B2", "author2", ["A1"])
        assert weak.is_acyclic()
        assert not weak.is_tree()

    def test_tree_proof_forgotten_on_mutation(self, weak):
        assert weak.is_tree()
        weak.set_lch("B2", "author2", ["A1"])
        assert not weak.is_tree()

    def test_frozen_refuses_changes_and_copies_thaw(self, weak):
        weak.freeze()
        with pytest.raises(ModelError, match="'B2'"):
            weak.set_lch("B2", "title", ["T1"])
        assert "T1" not in weak
        clone = weak.copy()
        clone.set_lch("B2", "title", ["T1"])
        assert clone.graph().has_edge("B2", "T1")


class TestValidation:
    def test_valid_instance_passes(self, weak):
        weak.validate()

    def test_cycle_rejected(self):
        w = WeakInstance("a")
        w.set_lch("a", "l", ["b"])
        w.set_lch("b", "l", ["a"])
        with pytest.raises(CyclicModelError):
            w.validate()

    def test_unreachable_object_rejected(self, weak):
        weak.add_object("island")
        with pytest.raises(ModelError):
            weak.validate()

    def test_unsatisfiable_card_rejected(self, weak):
        weak.set_card("R", "book", CardinalityInterval(3, 3))
        with pytest.raises(CardinalityError):
            weak.validate()

    def test_value_without_type_rejected(self, weak):
        weak.set_val("A2", "x")
        with pytest.raises(TypeDomainError):
            weak.validate()

    def test_value_checked_against_type(self, weak):
        with pytest.raises(TypeDomainError):
            weak.set_val("A1", "not-in-domain")
