"""The PSD probabilistic data model (Section 3 of the paper)."""

from repro.core.builder import InstanceBuilder
from repro.core.cardinality import CardinalityInterval
from repro.core.compact import (
    IndependentOPF,
    NonEmptyIndependentOPF,
    PerLabelOPF,
    SymmetricOPF,
)
from repro.core.distributions import (
    PROBABILITY_TOLERANCE,
    ObjectProbabilityFunction,
    TabularOPF,
    TabularVPF,
    ValueProbabilityFunction,
)
from repro.core.instance import ProbabilisticInstance
from repro.core.interpretation import LocalInterpretation
from repro.core.potential import (
    ChildSet,
    count_potential_child_sets,
    count_potential_l_child_sets,
    hitting_sets,
    potential_child_sets,
    potential_child_sets_via_hitting,
    potential_l_child_sets,
    split_by_label,
)
from repro.core.weak_instance import WeakInstance

__all__ = [
    "CardinalityInterval",
    "ChildSet",
    "IndependentOPF",
    "InstanceBuilder",
    "LocalInterpretation",
    "NonEmptyIndependentOPF",
    "ObjectProbabilityFunction",
    "PROBABILITY_TOLERANCE",
    "PerLabelOPF",
    "ProbabilisticInstance",
    "SymmetricOPF",
    "TabularOPF",
    "TabularVPF",
    "ValueProbabilityFunction",
    "WeakInstance",
    "count_potential_child_sets",
    "count_potential_l_child_sets",
    "hitting_sets",
    "potential_child_sets",
    "potential_child_sets_via_hitting",
    "potential_l_child_sets",
    "split_by_label",
]
