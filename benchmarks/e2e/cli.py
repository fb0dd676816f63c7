"""Command line of the served-path benchmark.

Driver form (what ``BENCHMARK.json`` runs)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

prints every metric by name with its unit and ends with one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics (the layer ladder) with
``--trace 1``.

Human forms::

    PYTHONPATH=src python -m benchmarks.e2e --seed N            # all workloads
    PYTHONPATH=src python -m benchmarks.e2e --seed N --traced   # + ladder
    PYTHONPATH=src python -m benchmarks.e2e --seed N --aa       # A/A check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

from repro.index import HAS_NUMPY

from .e2e import REPO_ROOT, BenchmarkError, RunResult, run_workload
from .serverproc import adopt_orphans, stop_descendants
from .workloads import WORKLOADS, Workload

SPEC_PATH = REPO_ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def _environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "has_numpy": HAS_NUMPY,
    }


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.4f} {unit}")


def _result_line(result: RunResult, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def run_one(
    workload: Workload, seed: int, seconds: float, traced: bool,
    tiny: bool = False,
) -> tuple[RunResult, dict[str, tuple[float, str]]]:
    """One driver-style run; ``(result, the metrics that mode reports)``.

    Untraced: the whole of ``seconds`` goes to the segment pairs and
    the set-up is repeated for a steady ``setup_s``.  Traced: the pairs
    get half of ``seconds`` (they only feed the client-side per-layer
    metrics and ``harness.ladder_vs_e2e``) and the ladder runs after.
    """
    if not traced:
        result = run_workload(workload, seed, seconds, tiny=tiny,
                              min_requests=1 if tiny else 200)
        return result, result.metrics
    from .ladder import run_ladder

    result = run_workload(workload, seed, seconds / 2.0, setups=1, tiny=tiny,
                          min_requests=1 if tiny else 50)
    ladder = run_ladder(workload, seed, tiny=tiny)
    layers = dict(ladder.metrics)
    layers.update(result.harness)
    layers["harness.ladder_vs_e2e"] = (
        ladder.top_median_ms / result.harness["client.open_p50_ms"][0], "ratio"
    )
    result.failures += ladder.failures
    result.failed = len(result.failures)
    layers["failed_share"] = (result.failed / result.attempted, "share")
    return result, layers


def _report(result: RunResult, metrics: dict[str, tuple[float, str]]) -> None:
    _print_metrics(f"== {result.workload} (seed {result.seed})", metrics)
    if metrics is result.metrics:
        _print_metrics("   harness", result.harness)
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")
    print(f"  attempted {result.attempted}, failed {result.failed}")


def _aa(workloads: list[Workload], seed: int, seconds: float) -> int:
    """Two sets of runs of the same code; differences against the bounds."""
    spec = load_spec()
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    first = {w.name: run_one(w, seed, seconds, False)[0] for w in workloads}
    second = {
        w.name: run_one(w, seed, seconds, False)[0]
        for w in reversed(workloads)
    }
    outside = 0
    print(f"{'workload':<22} {'metric':<16} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>7}")
    for workload in workloads:
        a, b = first[workload.name], second[workload.name]
        outside += a.failed + b.failed
        for name, (bound, better) in bounds.items():
            before, after = a.metrics[name][0], b.metrics[name][0]
            worse = (after - before) / before
            if better == "higher":
                worse = -worse
            flag = "" if abs(worse) <= bound else "  OUTSIDE"
            outside += bool(flag)
            print(f"{workload.name:<22} {name:<16} {before:>12.4f} "
                  f"{after:>12.4f} {worse:>+8.1%} {bound:>7.0%}{flag}")
    print("A/A: " + ("every difference within its bound" if not outside
                     else f"{outside} outside bound or failed"))
    return 1 if outside else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of the same code and compare")
    parser.add_argument("--ledger", type=Path, default=None,
                        help="with --traced: also write the ledger here")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny catalogs (the self-test's sizes)")
    args = parser.parse_args(argv)

    # SIGTERM must unwind through the finally blocks that kill servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Orphaned shards and resource trackers come to this process, which
    # waits for each of them: nothing is left behind, not even a zombie.
    adopt_orphans()
    # One CPU for the harness and every process it spawns.  The two
    # virtual CPUs of the reference box share one host CPU (two busy
    # loops take 2.25 times as long each as one), so a second CPU adds no
    # capacity, only the host's time-slicing between threads that wait
    # for each other: the same run read 192-246 requests per second on
    # two CPUs and 196-212 on one.  README.md has the measurements.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seconds = (
        args.seconds if args.seconds is not None
        else float(load_spec()["run_seconds"])
    )
    chosen = (
        [WORKLOADS[args.workload]] if args.workload
        else list(WORKLOADS.values())
    )
    print(f"environment: {json.dumps(_environment())}")
    try:
        if args.aa:
            return _aa(chosen, args.seed, seconds)
        ledger: dict[str, object] = {"environment": _environment(),
                                     "seed": args.seed, "workloads": {}}
        for workload in chosen:
            result, metrics = run_one(
                workload, args.seed, seconds, bool(args.trace), args.tiny
            )
            _report(result, metrics)
            ledger["workloads"][workload.name] = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            }
            print(_result_line(result, metrics))
        if args.ledger is not None:
            args.ledger.write_text(json.dumps(ledger, indent=2) + "\n",
                                   encoding="utf-8")
        return 0
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_descendants()
