"""Tests for the exhaustive model linter and DOT export."""

import pytest

from repro.check.model import format_issues, has_errors, lint_instance
from repro.core.builder import InstanceBuilder
from repro.core.cardinality import CardinalityInterval
from repro.core.distributions import TabularOPF, TabularVPF
from repro.core.instance import ProbabilisticInstance
from repro.core.weak_instance import WeakInstance
from repro.paper import figure2_instance
from repro.render import to_dot
from repro.semistructured.types import LeafType


def codes(issues):
    return [issue.code for issue in issues]


class TestLint:
    def test_clean_instance(self):
        issues = lint_instance(figure2_instance())
        assert issues == []
        assert format_issues(issues) == "clean"

    def test_cycle_reported(self):
        weak = WeakInstance("a")
        weak.set_lch("a", "l", ["b"])
        weak.set_lch("b", "l", ["a"])
        issues = lint_instance(ProbabilisticInstance(weak))
        assert "cyclic" in codes(issues)
        assert has_errors(issues)

    def test_unreachable_warning(self):
        weak = WeakInstance("r")
        weak.add_object("island")
        issues = lint_instance(ProbabilisticInstance(weak))
        assert "unreachable" in codes(issues)
        assert not has_errors(issues)

    def test_missing_opf(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        issues = lint_instance(ProbabilisticInstance(weak))
        assert "missing-opf" in codes(issues)

    def test_bad_total_and_outside_pc(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        pi = ProbabilisticInstance(weak)
        pi.set_opf("r", TabularOPF({("a", "ghost"): 0.5}))
        issue_codes = codes(lint_instance(pi))
        assert "bad-total" in issue_codes
        assert "outside-pc" in issue_codes

    def test_unsatisfiable_card(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        weak.set_card("r", "l", CardinalityInterval(2, 2))
        pi = ProbabilisticInstance(weak)
        issue_codes = codes(lint_instance(pi))
        assert "unsatisfiable-card" in issue_codes

    def test_dead_label_warning(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        weak.set_card("r", "l", CardinalityInterval(0, 0))
        pi = ProbabilisticInstance(weak)
        pi.set_opf("r", TabularOPF({(): 1.0}))
        assert "dead-label" in codes(lint_instance(pi))

    def test_never_chosen_warning(self):
        builder = InstanceBuilder("r")
        builder.children("r", "l", ["a", "b"])
        builder.opf("r", {("a",): 1.0})  # b has zero inclusion probability
        builder.leaf("a", "t", ["v"], {"v": 1.0})
        builder.leaf("b", "t", vpf={"v": 1.0})
        pi = builder.build()
        issues = lint_instance(pi)
        assert "never-chosen" in codes(issues)
        assert not has_errors(issues)

    def test_vpf_outside_domain(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        weak.set_type("a", LeafType("t", ["x"]))
        pi = ProbabilisticInstance(weak)
        pi.set_opf("r", TabularOPF({("a",): 1.0}))
        pi.interpretation.set_vpf("a", TabularVPF({"nope": 1.0}))
        assert "outside-domain" in codes(lint_instance(pi))

    def test_typed_leaf_without_vpf_warning(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        weak.set_type("a", LeafType("t", ["x"]))
        pi = ProbabilisticInstance(weak)
        pi.set_opf("r", TabularOPF({("a",): 1.0}))
        assert "typed-no-vpf" in codes(lint_instance(pi))

    def test_vpf_without_type_warning(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        pi = ProbabilisticInstance(weak)
        pi.set_opf("r", TabularOPF({("a",): 1.0}))
        pi.interpretation.set_vpf("a", TabularVPF({"x": 1.0}))
        assert "vpf-no-type" in codes(lint_instance(pi))

    def test_errors_sorted_before_warnings(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        weak.add_object("island")  # warning
        pi = ProbabilisticInstance(weak)  # missing OPF: error
        issues = lint_instance(pi)
        severities = [issue.severity for issue in issues]
        assert severities == sorted(severities)

    def test_issue_str(self):
        weak = WeakInstance("r")
        weak.set_lch("r", "l", ["a"])
        issues = lint_instance(ProbabilisticInstance(weak))
        assert "missing-opf" in str(issues[0])

    def test_unknown_mnemonic_rejected_at_construction(self):
        # Every mnemonic must map to a stable PX code; a typo in an
        # emitting site must fail loudly, not produce a codeless issue.
        from repro.check.model import Issue

        with pytest.raises(ValueError, match="unknown lint mnemonic"):
            Issue(severity="error", oid=None, code="no-such-mnemonic",
                  message="boom")

    def test_known_mnemonic_gets_its_px_code(self):
        from repro.check.model import Issue

        issue = Issue(severity="error", oid=None, code="missing-opf",
                      message="m")
        assert issue.px.startswith("PX1")


class TestDot:
    def test_dot_structure(self):
        dot = to_dot(figure2_instance())
        assert dot.startswith("digraph pxml {")
        assert '"R" -> "B1"' in dot
        assert "book" in dot

    def test_dot_marginals(self):
        dot = to_dot(figure2_instance())
        # P(B1 in c(R)) = 0.2 + 0.2 + 0.4 = 0.8.
        assert "p=0.800" in dot

    def test_dot_leaf_values(self):
        dot = to_dot(figure2_instance())
        assert "institution-type" in dot
        assert "Stanford" in dot
