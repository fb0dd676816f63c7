"""The query engine: a planner and an executor.

The PXQL interpreter used to map each statement straight onto one
algebra call.  This package inserts a classical database engine between
the language and the algebra:

* :mod:`repro.engine.plan` — a logical plan IR (scan / project / select /
  product / query nodes) built from PXQL ASTs or programmatically;
* :mod:`repro.engine.cost` — size/entry/tree-ness estimates driving
  ``EXPLAIN`` and execution-strategy choice;
* :mod:`repro.engine.executor` — an instrumented executor running each
  plan as written, producing per-node timings and cardinalities
  (``EXPLAIN ANALYZE``);
  its path operators locate their path on the :mod:`repro.index`
  columnar snapshot when their input is a scanned tree, by the walk
  otherwise — an access method chosen at run time, not a plan shape;
* :mod:`repro.engine.cache` — the LRU cache the interpreter's statement
  tier is built on.
"""

from repro.engine.cache import CacheStats, LRUCache
from repro.engine.cost import CostModel, Estimate
from repro.engine.executor import Engine, ExecutionResult
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

__all__ = [
    "CacheStats",
    "CostModel",
    "Engine",
    "Estimate",
    "ExecutionResult",
    "LRUCache",
    "PlanBuilder",
    "PlanError",
    "PlanNode",
    "ProductNode",
    "ProjectNode",
    "QueryNode",
    "ScanNode",
    "SelectNode",
    "fingerprint",
    "plan_statement",
    "scan_names",
]
