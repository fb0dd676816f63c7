"""Exporters for spans and metrics: text trees and JSON.

Two audiences, two formats:

* :func:`render_span_tree` / :func:`render_metrics` — human-readable
  text, the format ``PROFILE``, ``EXPLAIN ANALYZE`` and
  ``python -m repro.obs trace`` print;
* :func:`spans_to_jsonl` / :func:`write_spans_jsonl` and
  :func:`metrics_to_json` / :func:`write_metrics_json` — JSON (one
  object per span, flattened, children by id; one object per
  registry), for machine consumption.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracing import Span

T = TypeVar("T")


# ----------------------------------------------------------------------
# Text
# ----------------------------------------------------------------------
def _tree_lines(
    root: T, render: Callable[[T], str], children_of: Callable[[T], Sequence[T]]
) -> list[str]:
    """``root`` and its descendants, one rendered line each, indented
    as a tree (span trees here, ``EXPLAIN``'s plan in the executor)."""
    lines = [render(root)]

    def recurse(node: T, prefix: str) -> None:
        children = children_of(node)
        for index, child in enumerate(children):
            last = index == len(children) - 1
            branch = "└─ " if last else "├─ "
            lines.append(prefix + branch + render(child))
            recurse(child, prefix + ("   " if last else "│  "))

    recurse(root, "")
    return lines


#: The name prefix of the span the executor opens for each plan node.
NODE_SPAN = "engine.node."


def node_spans(root: Span) -> list[Span]:
    """The plan-node spans of a tree, pre-order: an execution's per-node
    record (``strategy``, ``objects``, a selection's
    ``condition_probability``), in the order of the plan's nodes."""
    return [span for span in root.walk() if span.name.startswith(NODE_SPAN)]


def render_span(span: Span) -> str:
    """One span as a single line: name, wall/CPU, salient attributes."""
    details = [f"{span.wall_s * 1e3:.3f} ms"]
    if span.cpu_s:
        details.append(f"cpu {span.cpu_s * 1e3:.3f} ms")
    if span.status != "ok":
        details.append(f"status={span.status}")
    for key in sorted(span.attributes):
        value = span.attributes[key]
        if isinstance(value, float):
            details.append(f"{key}={value:.6g}")
        else:
            details.append(f"{key}={value}")
    return f"{span.name}  ({', '.join(details)})"


def render_span_tree(root: Span) -> str:
    """The whole span tree as an indented text block."""
    return "\n".join(
        _tree_lines(root, render_span, lambda span: span.children)
    )


def render_metrics(registry: MetricsRegistry) -> str:
    """All instruments of a registry as aligned text lines."""
    lines: list[str] = []
    for name in registry.names():
        instrument = registry.get(name)
        if isinstance(instrument, Counter):
            lines.append(f"{name} = {instrument.value:g}  (counter)")
        elif isinstance(instrument, Gauge):
            lines.append(f"{name} = {instrument.value:g}  (gauge)")
        elif isinstance(instrument, Histogram):
            lines.append(
                f"{name}: count={instrument.count} "
                f"mean={instrument.mean:.6g} "
                f"p50~{instrument.quantile(0.5):g} "
                f"p99~{instrument.quantile(0.99):g}  (histogram)"
            )
    return "\n".join(lines) if lines else "(no metrics)"


# ----------------------------------------------------------------------
# JSON lines
# ----------------------------------------------------------------------
def spans_to_jsonl(roots: Sequence[Span]) -> str:
    """Every span of every tree, one JSON object per line (pre-order)."""
    lines = [
        json.dumps(span.to_dict(), sort_keys=True)
        for root in roots
        for span in root.walk()
    ]
    return "\n".join(lines)


def write_spans_jsonl(roots: Sequence[Span], path: str | Path) -> Path:
    """Write :func:`spans_to_jsonl` output to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = spans_to_jsonl(roots)
    target.write_text(text + ("\n" if text else ""), encoding="utf-8")
    return target


def metrics_to_json(registry: MetricsRegistry) -> str:
    """A registry as one pretty-printed JSON object."""
    return json.dumps(registry.as_dict(), indent=2, sort_keys=True)


def write_metrics_json(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write :func:`metrics_to_json` output to ``path``."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(metrics_to_json(registry) + "\n", encoding="utf-8")
    return target
