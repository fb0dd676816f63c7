"""Tests for probabilistic ancestor projection: local ≡ global.

The central correctness property of Section 6.1: the efficient local
algorithm must produce a probabilistic instance whose world distribution
equals the pushed-forward distribution of Definition 5.3.
"""

import random

import pytest

from repro.algebra.projection_more import descendant_projection_local
from repro.algebra.projection_prob import (
    ancestor_projection_global,
    ancestor_projection_local,
    epsilon_pass,
)
from repro.core.builder import InstanceBuilder
from repro.errors import NonTreeInstanceError
from repro.paper import figure2_instance
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.semistructured.paths import PathExpression
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
)

from tests.helpers import random_tree_instance


def assert_local_matches_global(pi, path):
    reference = ancestor_projection_global(pi, path)
    local = ancestor_projection_local(pi, path)
    local.validate()
    rebuilt = GlobalInterpretation.from_local(local)
    assert rebuilt.is_close_to(reference, tolerance=1e-9), str(path)


@pytest.fixture
def tree():
    builder = InstanceBuilder("R")
    builder.children("R", "book", ["B1", "B2"])
    builder.opf("R", {("B1",): 0.3, ("B2",): 0.2, ("B1", "B2"): 0.4, (): 0.1})
    builder.children("B1", "author", ["A1", "A2"])
    builder.children("B1", "title", ["T1"])
    builder.opf("B1", {
        ("A1", "T1"): 0.3, ("A2",): 0.2, ("A1", "A2"): 0.25, ("T1",): 0.15,
        (): 0.1,
    })
    builder.children("B2", "author", ["A3"])
    builder.opf("B2", {("A3",): 0.6, (): 0.4})
    builder.leaf("A1", "name", ["x", "y"], {"x": 0.7, "y": 0.3})
    builder.leaf("A2", "name", vpf={"x": 1.0})
    builder.leaf("A3", "name", vpf={"y": 1.0})
    builder.leaf("T1", "title", ["t"], {"t": 1.0})
    return builder.build()


class TestEquivalence:
    def test_two_level_path(self, tree):
        assert_local_matches_global(tree, "R.book.author")

    def test_one_level_path(self, tree):
        assert_local_matches_global(tree, "R.book")

    def test_title_path(self, tree):
        assert_local_matches_global(tree, "R.book.title")

    def test_empty_match(self, tree):
        assert_local_matches_global(tree, "R.nothing")

    def test_zero_label_path(self, tree):
        assert_local_matches_global(tree, "R")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_trees_random_paths(self, seed):
        rng = random.Random(seed)
        pi = random_tree_instance(rng, depth=rng.choice([2, 3]), max_children=2)
        graph = pi.weak.graph()
        labels = sorted(graph.labels)
        for _ in range(3):
            length = rng.randint(1, 3)
            path = PathExpression(pi.root, tuple(rng.choice(labels)
                                                 for _ in range(length)))
            assert_local_matches_global(pi, path)

    @pytest.mark.parametrize("labeling", ["SL", "FR"])
    def test_generated_workloads(self, labeling):
        workload = generate_workload(
            WorkloadSpec(depth=2, branching=2, labeling=labeling, seed=11)
        )
        rng = random.Random(0)
        path = random_projection_path(workload, rng)
        assert_local_matches_global(workload.instance, path)


class TestResultShape:
    def test_root_empty_mass_is_no_match_probability(self, tree):
        # P(no author anywhere) — computable by brute force.
        reference = ancestor_projection_global(tree, "R.book.author")
        bare_root_mass = sum(
            p for world, p in reference.support() if len(world) == 1
        )
        sweep = epsilon_pass(tree, "R.book.author")
        assert sweep.root_empty_mass == pytest.approx(bare_root_mass)

    def test_internal_objects_never_childless(self, tree):
        local = ancestor_projection_local(tree, "R.book.author")
        for oid, opf in local.interpretation.opf_items():
            if oid == local.root:
                continue
            for child_set, probability in opf.support():
                assert child_set, f"{oid} has empty-set mass {probability}"

    def test_matched_leaves_keep_vpfs(self, tree):
        local = ancestor_projection_local(tree, "R.book.author")
        assert local.vpf("A1").prob("x") == pytest.approx(0.7)

    def test_cardinalities_recomputed(self, tree):
        local = ancestor_projection_local(tree, "R.book.author")
        card = local.card("R", "book")
        assert card.min == 0  # the projection can be the bare root
        assert card.max <= 2

    def test_pruned_siblings_absent(self, tree):
        local = ancestor_projection_local(tree, "R.book.author")
        assert "T1" not in local

    def test_child_the_parent_never_includes_is_dropped(self):
        """Regression: ``r``'s OPF gives every set containing ``n1`` zero
        mass while eps(n1) = 1, and float rounding leaves the root's
        empty mass just below 1 — the result used to keep ``n1`` under
        ``card(r, L0) = [0, 0]`` and fail its own ``validate()``."""
        pi = random_tree_instance(random.Random(263), depth=2, max_children=2)
        assert pi.weak.lch("r", "L0") == frozenset({"n1"})
        assert pi.opf("r").marginal_inclusion("n1") == 0.0
        path = PathExpression("r", ("L0",))
        assert 0.0 < epsilon_pass(pi, path).root_empty_mass < 1.0
        local = ancestor_projection_local(pi, path)
        local.validate()
        assert local.objects == {"r"}
        assert_local_matches_global(pi, path)
        # Descendant projection grafts onto the same skeleton.
        descendant = descendant_projection_local(pi, path)
        descendant.validate()
        assert descendant.objects == {"r"}

    def test_dag_instance_rejected(self):
        with pytest.raises(NonTreeInstanceError):
            ancestor_projection_local(figure2_instance(), "R.book.author")

    def test_projection_result_total_mass(self, tree):
        local = ancestor_projection_local(tree, "R.book.author")
        GlobalInterpretation.from_local(local).validate()


class TestEpsilonPass:
    def test_matched_objects_have_epsilon_one(self, tree):
        sweep = epsilon_pass(tree, "R.book.author")
        for oid in sweep.match.levels[-1]:
            assert sweep.epsilon[oid] == 1.0

    def test_epsilon_is_survival_probability(self, tree):
        # eps(B2) = P(B2 has an author | B2 exists) = 0.6.
        sweep = epsilon_pass(tree, "R.book.author")
        assert sweep.epsilon["B2"] == pytest.approx(0.6)
        # eps(B1) = P(B1 has an author | B1 exists) = 1 - 0.15 - 0.1 = 0.75.
        assert sweep.epsilon["B1"] == pytest.approx(0.75)

    def test_root_epsilon_complements_empty_mass(self, tree):
        sweep = epsilon_pass(tree, "R.book.author")
        assert sweep.root_epsilon == pytest.approx(1.0 - sweep.root_empty_mass)

    def test_zero_label_path_is_certain(self, tree):
        sweep = epsilon_pass(tree, "R")
        assert sweep.root_epsilon == 1.0

    def test_unmatched_path_is_impossible(self, tree):
        sweep = epsilon_pass(tree, "R.ghost")
        assert sweep.root_epsilon == 0.0
