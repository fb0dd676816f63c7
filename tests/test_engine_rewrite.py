"""Tests for the rewrite rule and the optimizer driver."""

import pytest

from repro.core.builder import InstanceBuilder
from repro.engine import (
    CostModel,
    PlanBuilder,
    ProductNode,
    QueryNode,
    ScanNode,
    optimize,
    reorder_product_by_size,
)
from repro.semistructured.paths import PathExpression
from repro.storage.database import Database


PATH = PathExpression.parse("R.book.author")


def _sized_database():
    db = Database()
    small = InstanceBuilder("S")
    small.children("S", "x", ["s1"])
    small.opf("S", {("s1",): 1.0})
    small.leaf("s1", "t", ["v"], {"v": 1.0})
    db.register("small", small.build())
    big = InstanceBuilder("B")
    big.children("B", "y", ["b1", "b2", "b3"])
    big.opf("B", {("b1", "b2", "b3"): 1.0})
    for leaf in ("b1", "b2", "b3"):
        big.leaf(leaf, "t", ["v"], {"v": 1.0})
    db.register("big", big.build())
    return db


class TestReorderProduct:
    def test_bigger_left_operand_swaps(self):
        cost = CostModel(_sized_database())
        plan = ProductNode(ScanNode("big"), ScanNode("small"), "r")
        swapped = reorder_product_by_size(plan, cost)
        assert swapped == ProductNode(ScanNode("small"), ScanNode("big"), "r")

    def test_already_ordered_stays(self):
        cost = CostModel(_sized_database())
        plan = ProductNode(ScanNode("small"), ScanNode("big"), "r")
        assert reorder_product_by_size(plan, cost) is None

    def test_default_root_is_pinned_before_swapping(self):
        cost = CostModel(_sized_database())
        plan = ProductNode(ScanNode("big"), ScanNode("small"))
        swapped = reorder_product_by_size(plan, cost)
        # The result keeps the root the un-swapped product would have had.
        assert swapped.new_root == "BxS"

    def test_no_cost_model_means_no_reorder(self):
        plan = ProductNode(ScanNode("big"), ScanNode("small"), "r")
        assert reorder_product_by_size(plan, None) is None


class TestOptimizer:
    def test_fixpoint_applies_rules_transitively(self):
        # The inner product is reordered first; the outer one then
        # compares the reordered operand's estimate and swaps too.
        cost = CostModel(_sized_database())
        inner = ProductNode(ScanNode("big"), ScanNode("small"), "r")
        plan = ProductNode(inner, ScanNode("small"), "q")
        optimized, applied = optimize(plan, cost)
        assert applied == ("reorder_product_by_size",) * 2
        assert optimized == ProductNode(
            ScanNode("small"),
            ProductNode(ScanNode("small"), ScanNode("big"), "r"),
            "q",
        )

    def test_no_rules_fire_returns_same_plan(self):
        plan = PlanBuilder.scan("bib").select(PATH, "A1").build()
        optimized, applied = optimize(plan)
        assert optimized == plan
        assert applied == ()

    def test_query_node_children_are_optimized(self):
        cost = CostModel(_sized_database())
        plan = (
            PlanBuilder.scan("big")
            .product(PlanBuilder.scan("small"), new_root="r")
            .point("r.y", "b1")
            .build()
        )
        optimized, applied = optimize(plan, cost)
        assert applied == ("reorder_product_by_size",)
        assert isinstance(optimized, QueryNode)
        assert optimized.child == ProductNode(
            ScanNode("small"), ScanNode("big"), "r"
        )
