"""Unit tests for the compact OPF representations."""

import math

import pytest

from repro.core.compact import IndependentOPF, PerLabelOPF, SymmetricOPF
from repro.core.distributions import ObjectProbabilityFunction, TabularOPF
from repro.errors import DistributionError


class TestIndependentOPF:
    def test_product_probability(self):
        opf = IndependentOPF({"a": 0.5, "b": 0.2})
        assert opf.prob(frozenset({"a"})) == pytest.approx(0.5 * 0.8)
        assert opf.prob(frozenset({"a", "b"})) == pytest.approx(0.5 * 0.2)
        assert opf.prob(frozenset()) == pytest.approx(0.5 * 0.8)

    def test_outside_pool_is_zero(self):
        opf = IndependentOPF({"a": 0.5})
        assert opf.prob(frozenset({"ghost"})) == 0.0

    def test_support_sums_to_one(self):
        opf = IndependentOPF({"a": 0.3, "b": 0.7, "c": 0.5})
        assert sum(p for _, p in opf.support()) == pytest.approx(1.0)
        opf.validate()

    def test_certain_child_prunes_support(self):
        opf = IndependentOPF({"a": 1.0, "b": 0.5})
        sets = {c for c, _ in opf.support()}
        assert all("a" in c for c in sets)

    def test_entry_count_is_linear(self):
        opf = IndependentOPF({f"c{i}": 0.5 for i in range(10)})
        assert opf.entry_count() == 10
        # The equivalent table would have 2^10 entries.
        assert opf.to_tabular().entry_count() == 1024

    def test_marginal_inclusion(self):
        opf = IndependentOPF({"a": 0.3})
        assert opf.marginal_inclusion("a") == 0.3
        assert opf.marginal_inclusion("ghost") == 0.0

    def test_invalid_probability_rejected(self):
        with pytest.raises(DistributionError):
            IndependentOPF({"a": 1.5})

    def test_restrict_matches_tabular(self):
        opf = IndependentOPF({"a": 0.4, "b": 0.6})
        conditioned, mass = opf.restrict(lambda c: "a" in c)
        assert mass == pytest.approx(0.4)
        assert conditioned.prob(frozenset({"a", "b"})) == pytest.approx(0.6)


class TestPerLabelOPF:
    @pytest.fixture
    def opf(self):
        return PerLabelOPF({
            "author": (["A1", "A2"], TabularOPF({("A1",): 0.6, ("A2",): 0.4})),
            "title": (["T1"], TabularOPF({("T1",): 0.9, (): 0.1})),
        })

    def test_product_of_components(self, opf):
        assert opf.prob(frozenset({"A1", "T1"})) == pytest.approx(0.54)
        assert opf.prob(frozenset({"A2"})) == pytest.approx(0.04)

    def test_unsupported_combination_zero(self, opf):
        assert opf.prob(frozenset({"A1", "A2"})) == 0.0
        assert opf.prob(frozenset({"ghost"})) == 0.0

    def test_support_is_joint(self, opf):
        support = dict(opf.support())
        assert sum(support.values()) == pytest.approx(1.0)
        assert len(support) == 4

    def test_entry_count_is_sum(self, opf):
        assert opf.entry_count() == 4  # 2 + 2

    def test_component_access(self, opf):
        assert opf.labels() == frozenset({"author", "title"})
        assert opf.component("author").prob(frozenset({"A1"})) == 0.6

    def test_overlapping_pools_rejected(self):
        with pytest.raises(DistributionError):
            PerLabelOPF({
                "x": (["a"], TabularOPF({("a",): 1.0})),
                "y": (["a"], TabularOPF({("a",): 1.0})),
            })

    def test_validate(self, opf):
        opf.validate()


class TestSymmetricOPF:
    def test_equal_probability_within_size(self):
        opf = SymmetricOPF(["v1", "v2", "bridge"], {1: 0.3, 2: 0.7})
        assert opf.prob(frozenset({"v1"})) == opf.prob(frozenset({"v2"}))
        assert opf.prob(frozenset({"v1", "bridge"})) == opf.prob(
            frozenset({"v2", "bridge"})
        )

    def test_size_mass_divided_by_binomial(self):
        opf = SymmetricOPF(["a", "b", "c"], {2: 1.0})
        assert opf.prob(frozenset({"a", "b"})) == pytest.approx(1.0 / math.comb(3, 2))

    def test_support_sums_to_one(self):
        opf = SymmetricOPF(["a", "b", "c"], {0: 0.1, 1: 0.5, 3: 0.4})
        assert sum(p for _, p in opf.support()) == pytest.approx(1.0)
        opf.validate()

    def test_outside_pool_zero(self):
        opf = SymmetricOPF(["a"], {1: 1.0})
        assert opf.prob(frozenset({"ghost"})) == 0.0

    def test_unlisted_size_zero(self):
        opf = SymmetricOPF(["a", "b"], {2: 1.0})
        assert opf.prob(frozenset({"a"})) == 0.0

    def test_entry_count_is_number_of_sizes(self):
        opf = SymmetricOPF(["a", "b", "c"], {1: 0.5, 2: 0.5})
        assert opf.entry_count() == 2

    def test_invalid_size_rejected(self):
        with pytest.raises(DistributionError):
            SymmetricOPF(["a"], {2: 1.0})


class TestCrossRepresentation:
    @pytest.mark.parametrize("opf", [
        PerLabelOPF({
            "author": (["A1", "A2"], TabularOPF(
                {("A1",): 0.5, ("A2",): 0.1, ("A1", "A2"): 0.4})),
            "title": (["T1"], TabularOPF({("T1",): 0.9, (): 0.1})),
            "year": (["Y1", "Y2"], IndependentOPF({"Y1": 0.3, "Y2": 1.0})),
        }),
        SymmetricOPF(["v1", "v2", "v3", "v4"], {0: 0.1, 1: 0.2, 3: 0.3, 4: 0.4}),
    ])
    def test_closed_form_inclusion_equals_the_enumerated_support(self, opf):
        children = {child for child_set, _ in opf.support() for child in child_set}
        assert len(children) >= 4
        for child in sorted(children | {"stranger"}):
            assert opf.marginal_inclusion(child) == pytest.approx(
                ObjectProbabilityFunction.marginal_inclusion(opf, child),
                abs=1e-12,
            )

    def test_independent_equals_tabular(self):
        inclusion = {"a": 0.25, "b": 0.5}
        compact = IndependentOPF(inclusion)
        table = compact.to_tabular()
        for child_set, probability in table.support():
            assert compact.prob(child_set) == pytest.approx(probability)

    def test_per_label_equals_tabular(self):
        opf = PerLabelOPF({
            "x": (["a"], TabularOPF({("a",): 0.5, (): 0.5})),
            "y": (["b"], TabularOPF({("b",): 1.0})),
        })
        table = opf.to_tabular()
        assert table.prob(frozenset({"a", "b"})) == pytest.approx(0.5)
        assert table.prob(frozenset({"b"})) == pytest.approx(0.5)
