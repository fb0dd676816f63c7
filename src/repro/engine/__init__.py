"""The query engine: a planner, rewrite optimizer, and versioned cache.

The PXQL interpreter used to map each statement straight onto one
algebra call.  This package inserts a classical database engine between
the language and the algebra:

* :mod:`repro.engine.plan` — a logical plan IR (scan / project / select /
  product / query nodes) built from PXQL ASTs or programmatically;
* :mod:`repro.engine.cost` — size/entry/tree-ness estimates driving
  rewrite decisions and execution-strategy choice;
* :mod:`repro.engine.rewrite` — a rule-based optimizer (projection
  collapse, selection pushdown, product reordering);
* :mod:`repro.engine.executor` — an instrumented executor producing
  per-node timings, cardinalities and cache status (``EXPLAIN ANALYZE``);
  its path operators locate their path on the :mod:`repro.index`
  columnar snapshot when their input is a scanned tree, by the walk
  otherwise — an access method chosen at run time, not a plan shape;
* :mod:`repro.engine.cache` — an LRU result cache keyed by canonical
  plan fingerprint plus the versions of every scanned instance.
"""

from repro.engine.cache import CacheStats, LRUCache
from repro.engine.cost import CostModel, Estimate
from repro.engine.executor import Engine, ExecutionResult, NodeStats
from repro.engine.plan import (
    PlanBuilder,
    PlanError,
    PlanNode,
    ProductNode,
    ProjectNode,
    QueryNode,
    ScanNode,
    SelectNode,
    fingerprint,
    plan_statement,
    scan_names,
)
from repro.engine.rewrite import (
    DEFAULT_RULES,
    RewriteRule,
    collapse_adjacent_projections,
    optimize,
    push_selection_below_projection,
    reorder_product_by_size,
)

__all__ = [
    "CacheStats",
    "CostModel",
    "DEFAULT_RULES",
    "Engine",
    "Estimate",
    "ExecutionResult",
    "LRUCache",
    "NodeStats",
    "PlanBuilder",
    "PlanError",
    "PlanNode",
    "ProductNode",
    "ProjectNode",
    "QueryNode",
    "RewriteRule",
    "ScanNode",
    "SelectNode",
    "collapse_adjacent_projections",
    "fingerprint",
    "optimize",
    "plan_statement",
    "push_selection_below_projection",
    "reorder_product_by_size",
    "scan_names",
]
