"""Unit tests for tabular OPFs and VPFs."""

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.distributions import TabularOPF, TabularVPF
from repro.errors import DistributionError


class TestTabularOPF:
    def test_prob_lookup(self):
        opf = TabularOPF({frozenset({"a"}): 0.4, frozenset(): 0.6})
        assert opf.prob(frozenset({"a"})) == 0.4
        assert opf.prob(frozenset({"b"})) == 0.0

    def test_iterable_keys_normalized(self):
        opf = TabularOPF({("a", "b"): 1.0})
        assert opf.prob(frozenset({"a", "b"})) == 1.0

    def test_duplicate_keys_rejected(self):
        with pytest.raises(DistributionError):
            TabularOPF({("a", "b"): 0.5, ("b", "a"): 0.5})

    def test_zero_entries_dropped(self):
        opf = TabularOPF({("a",): 1.0, ("b",): 0.0})
        assert opf.entry_count() == 1

    def test_validate_sums_to_one(self):
        TabularOPF({("a",): 0.5, (): 0.5}).validate()

    def test_validate_rejects_bad_total(self):
        with pytest.raises(DistributionError):
            TabularOPF({("a",): 0.5}).validate()

    def test_validate_rejects_negative(self):
        with pytest.raises(DistributionError):
            TabularOPF({("a",): -0.5, (): 1.5}).validate()

    def test_validate_rejects_outside_support(self):
        opf = TabularOPF({("a",): 1.0})
        with pytest.raises(DistributionError):
            opf.validate(potential=[frozenset({"b"})])

    def test_marginal_inclusion(self):
        opf = TabularOPF({("a",): 0.3, ("a", "b"): 0.2, ("b",): 0.5})
        assert opf.marginal_inclusion("a") == pytest.approx(0.5)
        assert opf.marginal_inclusion("b") == pytest.approx(0.7)
        assert opf.marginal_inclusion("ghost") == 0.0

    def test_restrict_conditions_and_normalizes(self):
        opf = TabularOPF({("a",): 0.3, ("a", "b"): 0.2, ("b",): 0.5})
        conditioned, mass = opf.restrict(lambda c: "a" in c)
        assert mass == pytest.approx(0.5)
        assert conditioned.prob(frozenset({"a"})) == pytest.approx(0.6)
        assert conditioned.prob(frozenset({"b"})) == 0.0

    def test_restrict_on_null_event_raises(self):
        opf = TabularOPF({("a",): 1.0})
        with pytest.raises(DistributionError):
            opf.restrict(lambda c: "ghost" in c)

    def test_point_mass(self):
        opf = TabularOPF.point_mass(["a", "b"])
        assert opf.prob(frozenset({"a", "b"})) == 1.0
        opf.validate()

    def test_uniform(self):
        opf = TabularOPF.uniform([frozenset(), frozenset({"a"})])
        assert opf.prob(frozenset()) == pytest.approx(0.5)
        opf.validate()

    def test_uniform_empty_rejected(self):
        with pytest.raises(DistributionError):
            TabularOPF.uniform([])

    def test_equality_with_tolerance(self):
        a = TabularOPF({("a",): 0.5, (): 0.5})
        b = TabularOPF({("a",): 0.5 + 1e-12, (): 0.5 - 1e-12})
        assert a == b

    def test_items_sorted_deterministic(self):
        opf = TabularOPF({("b",): 0.2, ("a",): 0.3, ("a", "b"): 0.5})
        keys = [sorted(c) for c, _ in opf.items_sorted()]
        assert keys == [["a"], ["b"], ["a", "b"]]

    def test_to_tabular_identity(self):
        opf = TabularOPF({("a",): 1.0})
        assert opf.to_tabular() == opf


class TestTabularVPF:
    def test_prob_lookup(self):
        vpf = TabularVPF({"x": 0.7, "y": 0.3})
        assert vpf.prob("x") == 0.7
        assert vpf.prob("z") == 0.0

    def test_validate_against_domain(self):
        vpf = TabularVPF({"x": 1.0})
        vpf.validate(domain=["x", "y"])
        with pytest.raises(DistributionError):
            vpf.validate(domain=["y"])

    def test_restrict(self):
        vpf = TabularVPF({"x": 0.25, "y": 0.75})
        conditioned, mass = vpf.restrict(lambda v: v == "y")
        assert mass == pytest.approx(0.75)
        assert conditioned.prob("y") == pytest.approx(1.0)

    def test_point_mass(self):
        vpf = TabularVPF.point_mass("x")
        assert vpf.prob("x") == 1.0
        assert vpf.entry_count() == 1

    def test_uniform(self):
        vpf = TabularVPF.uniform(["a", "b", "c", "d"])
        assert vpf.prob("a") == pytest.approx(0.25)
        vpf.validate()

    def test_uniform_empty_rejected(self):
        with pytest.raises(DistributionError):
            TabularVPF.uniform([])

    def test_equality(self):
        assert TabularVPF({"x": 1.0}) == TabularVPF({"x": 1.0, "y": 0.0})
        assert TabularVPF({"x": 1.0}) != TabularVPF({"y": 1.0})


# ----------------------------------------------------------------------
# The mask table against a frozenset-keyed reference dict
# ----------------------------------------------------------------------
_IDS = st.text(alphabet="ab019", min_size=1, max_size=3)
_PROBABILITY = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
#: Not a child of any generated table ("~" sorts after every id).
_OUTSIDER = "~"


@st.composite
def _full_tables(draw):
    """Every subset of up to six children, some with zero mass."""
    children = draw(st.lists(_IDS, min_size=1, max_size=6, unique=True))
    subsets = [
        frozenset(c for i, c in enumerate(children) if mask >> i & 1)
        for mask in range(1 << len(children))
    ]
    return {subset: draw(_PROBABILITY) for subset in subsets}


@st.composite
def _sparse_tables(draw):
    """A few subsets of 20 to 28 children, some with zero mass."""
    children = [f"c{i}" for i in range(draw(st.integers(20, 28)))]
    subsets = draw(st.lists(
        st.frozensets(st.sampled_from(children)), min_size=1, max_size=10,
        unique=True,
    ))
    return {subset: draw(_PROBABILITY) for subset in subsets}


def _mask_keyed(table, extra=()):
    """``table`` through :meth:`TabularOPF.from_masks`, over an alphabet
    that may hold ids no entry names."""
    children = tuple(sorted({c for key in table for c in key} | set(extra)))
    bit = {child: 1 << i for i, child in enumerate(children)}
    return TabularOPF.from_masks(
        children, {sum(bit[c] for c in key): p for key, p in table.items()}
    )


class TestMaskTableAgreesWithReference:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_full_tables(), _sparse_tables()), st.booleans())
    def test_every_reader(self, table, tuple_keys):
        reference = {key: p for key, p in table.items() if p != 0.0}
        assume(reference)
        opf = TabularOPF(
            {tuple(sorted(key)): p for key, p in table.items()}
            if tuple_keys else table
        )
        children = sorted({c for key in reference for c in key})
        assert opf.children == tuple(children)
        assert opf.entry_count() == len(reference)
        assert dict(opf.support()) == reference

        assert opf.prob(frozenset()) == reference.get(frozenset(), 0.0)
        for key, p in reference.items():
            assert opf.prob(key) == p
            assert opf.prob(key | {_OUTSIDER}) == 0.0
        assert opf.prob(frozenset({_OUTSIDER})) == 0.0

        for child in [*children, _OUTSIDER]:
            assert opf.marginal_inclusion(child) == pytest.approx(
                sum(p for key, p in reference.items() if child in key), abs=1e-12
            )
        assert opf.items_sorted() == sorted(
            reference.items(), key=lambda item: (len(item[0]), sorted(item[0]))
        )

        masked = _mask_keyed(table, extra=[_OUTSIDER])
        assert masked.entry_count() == len(reference)
        assert masked == opf and opf == masked
        assert masked == _mask_keyed(reference)
        assert masked != TabularOPF({**reference, frozenset({_OUTSIDER}): 0.5})
        first = next(iter(reference))
        assert opf != TabularOPF({**reference, first: reference[first] + 0.01})

        if children:
            pivot = children[0]
            kept = {k: p for k, p in reference.items() if pivot in k}
            restricted, mass = opf.restrict(lambda c: pivot in c)
            assert mass == pytest.approx(sum(kept.values()), abs=1e-12)
            assert restricted == TabularOPF({k: p / mass for k, p in kept.items()})

        for copy in (pickle.loads(pickle.dumps(opf)),
                     pickle.loads(pickle.dumps(masked))):
            assert copy == opf
            assert dict(copy.support()) == reference

    def test_from_masks_drops_zero_entries(self):
        opf = TabularOPF.from_masks(("a", "b"), {0b01: 0.5, 0b10: 0.0, 0b11: 0.5})
        assert opf.entry_count() == 2
        assert dict(opf.support()) == {
            frozenset({"a"}): 0.5, frozenset({"a", "b"}): 0.5,
        }
