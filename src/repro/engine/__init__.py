"""The query engine: a planner, rewrite optimizer, and versioned cache.

The PXQL interpreter used to map each statement straight onto one
algebra call.  This package inserts a classical database engine between
the language and the algebra:

* :mod:`repro.engine.plan` — a logical plan IR (scan / project / select /
  product / query nodes) built from PXQL ASTs or programmatically;
* :mod:`repro.engine.cost` — size/entry/tree-ness estimates driving
  rewrite decisions and execution-strategy choice;
* :mod:`repro.engine.rewrite` — a rule-based optimizer (projection
  collapse, selection pushdown, product reordering, plus a second-stage
  pass lowering path navigation onto the :mod:`repro.index` columnar
  snapshots where the cost model prices it cheaper);
* :mod:`repro.engine.executor` — an instrumented executor producing
  per-node timings, cardinalities and cache status (``EXPLAIN ANALYZE``);
* :mod:`repro.engine.cache` — an LRU result cache keyed by canonical
  plan fingerprint plus the versions of every scanned instance.
"""

from repro.engine.cache import CacheStats, LRUCache
from repro.engine.cost import CostModel, Estimate
from repro.engine.executor import Engine, ExecutionResult, NodeStats
from repro.engine.plan import (
    IndexedPathStepNode,
    IndexedScanNode,
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
    INDEX_RULES,
    RewriteRule,
    collapse_adjacent_projections,
    lower_projection_to_index,
    lower_query_to_index,
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
    "INDEX_RULES",
    "IndexedPathStepNode",
    "IndexedScanNode",
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
    "lower_projection_to_index",
    "lower_query_to_index",
    "optimize",
    "plan_statement",
    "push_selection_below_projection",
    "reorder_product_by_size",
    "scan_names",
]
