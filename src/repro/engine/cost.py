"""A simple cost model over logical plans.

The model tracks three quantities per sub-plan — estimated object count,
estimated total OPF/VPF entries (the paper's Section 7 cost parameter),
and whether the result is tree-structured — plus the root object id the
sub-plan will produce.  Scans are measured exactly from the catalog
(memoized per instance under the catalog token); operators propagate:

* projection and selection keep the structure (upper bound: same size);
* product sums sizes (minus the two merged roots) and multiplies the
  roots' OPF entry counts;
* tree-ness is preserved by every operator (product of trees is a tree).

The estimates drive one decision — the ``local`` vs ``bayes`` vs
``sample`` execution strategy per query node (Section 6's thesis: prefer
per-object local computation whenever the instance is a tree) — and the
``est.`` columns of ``EXPLAIN``; no plan is reordered by them.  A scan's measured
tree-ness is also what the executor's access-method decision reads
(``Engine._strategy``); there is no price for it here.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.core.instance import ProbabilisticInstance
from repro.engine.plan import (
    PlanError,
    PlanNode,
    ProductNode,
    ProjectNode,
    QueryNode,
    ScanNode,
    SelectNode,
)
from repro.storage.derived import DerivedCache

#: Above this many interpretation entries a non-tree instance is judged
#: too large for exact Bayesian-network elimination and sampled instead.
SAMPLE_ENTRY_THRESHOLD = 200_000


@dataclass(frozen=True)
class Estimate:
    """Predicted properties of a sub-plan's result instance."""

    objects: int
    entries: int
    is_tree: bool
    root: str


def measure_instance(pi: ProbabilisticInstance) -> Estimate:
    """Exact properties of a concrete instance (one walk of all of it)."""
    return Estimate(
        objects=len(pi),
        entries=pi.total_interpretation_entries(),
        is_tree=pi.weak.is_tree(),
        root=pi.root,
    )


class MeasurementCache(DerivedCache[Estimate]):
    """Memoizes :func:`measure_instance` per catalog name and token;
    ``MeasurementCache.of(catalog)`` is shared by every cost model over
    that catalog in this process."""

    def __init__(self) -> None:
        super().__init__(lambda _name, pi: measure_instance(pi))


class CostModel:
    """Estimates plan properties against a catalog of instances.

    Args:
        catalog: any object with ``get(name) -> ProbabilisticInstance``
            and ``version(name) -> int`` (``generation()`` is used when
            present): per-instance measurements are memoized under the
            catalog token.
    """

    def __init__(self, catalog) -> None:
        self._catalog = catalog
        #: The generation scans are keyed under (None: ask the catalog).
        self._generation: int | None = None
        self._measured = MeasurementCache.of(catalog)

    def at(self, generation: int) -> "CostModel":
        """This model keyed under a generation the caller already read.

        A view for one statement: it shares the measurement memo with
        the model it came from.
        """
        view = copy.copy(self)
        view._generation = generation
        return view

    # ------------------------------------------------------------------
    def scan(
        self, name: str, instance: ProbabilisticInstance | None = None
    ) -> Estimate:
        """The measurements of catalog name ``name`` (of ``instance``,
        when the caller already holds what it scanned), memoized under
        the name's token."""
        return self._measured.get(
            self._catalog, name, self._generation, instance
        )

    # ------------------------------------------------------------------
    def estimate(self, plan: PlanNode) -> Estimate:
        """Recursive estimate of the plan's result."""
        if isinstance(plan, ScanNode):
            return self.scan(plan.name)
        if isinstance(plan, (ProjectNode, SelectNode)):
            # Structure-preserving (selection) or shrinking (projection):
            # the child's size is a safe upper bound either way.
            return self.estimate(plan.child)
        if isinstance(plan, ProductNode):
            left = self.estimate(plan.left)
            right = self.estimate(plan.right)
            root = plan.new_root
            if root is None:
                root = f"{left.root}x{right.root}"
            return Estimate(
                objects=left.objects + right.objects - 1,
                entries=left.entries + right.entries,
                is_tree=left.is_tree and right.is_tree,
                root=root,
            )
        if isinstance(plan, QueryNode):
            return self.estimate(plan.child)
        raise PlanError(f"cannot estimate {type(plan).__name__}")

    # ------------------------------------------------------------------
    def choose_strategy(self, estimate: Estimate) -> str:
        """The execution strategy for a query over an instance like this.

        Trees use the Section 6 local algorithms; acyclic non-trees use
        exact Bayesian-network elimination while small enough, and fall
        back to Monte-Carlo sampling beyond ``SAMPLE_ENTRY_THRESHOLD``.
        """
        if estimate.is_tree:
            return "local"
        if estimate.entries <= SAMPLE_ENTRY_THRESHOLD:
            return "bayes"
        return "sample"
