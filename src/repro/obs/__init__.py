"""repro.obs — observability for the PXML engine stack.

The paper's core claim is *efficiency*: Section 6's local algorithms
answer queries without enumerating the exponentially many compatible
instances.  This package is how the repo substantiates that claim with
trustworthy numbers instead of ad-hoc timers:

* :mod:`repro.obs.tracing` — spans (ids, parent links, wall/CPU time,
  attributes) emitted per plan node by the engine executor, per
  statement by the PXQL interpreter, per
  query by the Section 6 algorithms, and for catalog load/register
  events;
* :mod:`repro.obs.metrics` — counters, gauges, and fixed-bucket
  histograms in a :class:`~repro.obs.metrics.MetricsRegistry`, with a
  process-global default and per-engine instances;
* :mod:`repro.obs.slowlog` — a bounded log of statements whose wall
  time crossed a configurable threshold, span tree attached;
* :mod:`repro.obs.export` — text and JSON exporters;
* ``python -m repro.obs trace`` — a CLI that runs a PXQL script with
  every span and metric on and prints them.

PXQL surfaces the tracer directly: ``PROFILE <statement>`` executes the
statement and returns its span tree (see ``docs/OBSERVABILITY.md``).
"""

from repro.obs.export import (
    metrics_to_json,
    render_metrics,
    render_span_tree,
    spans_to_jsonl,
    write_metrics_json,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    current_registry,
    global_registry,
    use_registry,
)
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord
from repro.obs.tracing import (
    Span,
    Tracer,
    current_tracer,
    global_tracer,
    use_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SlowQueryLog",
    "SlowQueryRecord",
    "Span",
    "Tracer",
    "current_registry",
    "current_tracer",
    "global_registry",
    "global_tracer",
    "metrics_to_json",
    "render_metrics",
    "render_span_tree",
    "spans_to_jsonl",
    "use_registry",
    "use_tracer",
    "write_metrics_json",
    "write_spans_jsonl",
]
