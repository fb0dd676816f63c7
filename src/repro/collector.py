"""The process's cyclic garbage collector: the one switch and its record.

An instance is a large graph of acyclic objects (dicts, tuples,
frozensets, floats) allocated in one burst when it is decoded, encoded
or turned into a snapshot.  Each burst trips CPython's allocation
thresholds again and again, and every full (generation-2) collection it
triggers walks everything the process already holds — the whole
catalog — to find no cycle at all.  :func:`collector_paused` switches
the collector off for such a burst; reference counting still frees
everything as usual, and the first collection after the region sees
what the region left behind.

It is called at exactly three sites (architecture walk 18,
``test_one_collector_switch``): :func:`repro.io.json_codec.dumps`,
:func:`repro.io.json_codec.loads` and the build in
:func:`repro.storage.derived.derived`.  :func:`collector_stats`
is what ``GET /metrics`` reports as ``process.gc``.
"""

from __future__ import annotations

import gc
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: The longest the collector stays off for regions that overlap one
#: after another on several threads.  One region is one burst, well
#: under this; a hold that outlasts it is a chain, and the region that
#: closes then runs the full collection the hold put off, so cyclic
#: garbage made meanwhile is bounded by what a second of serving makes.
HOLD_LIMIT_S = 1.0

# The collector is one per process, and so is the count of the regions
# holding it off: module state, not an object a caller could make twice.
_lock = threading.Lock()
#: Regions open in this process, on any thread.
_depth = 0
#: Whether the collector was on when the outermost region opened.
_resume = False
#: When the collector was switched off, or last collected under a hold.
_held_since = 0.0


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the region with the cyclic collector off.

    Re-entrant and thread-safe: the collector is switched off when the
    first region in the process opens and back on when the last one
    closes, on whichever thread that is — and only if it was on when
    the first opened, so a collector the caller disabled stays
    disabled.  A region that raises restores it the same way.  A
    region that closes under a hold older than :data:`HOLD_LIMIT_S`
    runs a full collection (:func:`gc.collect`) and starts the hold
    over, so overlapping regions cannot keep the collector off for good.
    """
    global _depth, _resume, _held_since
    with _lock:
        if _depth == 0:
            _resume = gc.isenabled()
            gc.disable()
            _held_since = time.monotonic()
        _depth += 1
    try:
        yield
    finally:
        overdue = False
        with _lock:
            _depth -= 1
            if _depth == 0:
                if _resume:
                    gc.enable()
            elif _resume and time.monotonic() - _held_since > HOLD_LIMIT_S:
                overdue = True
                _held_since = time.monotonic()
        if overdue:
            gc.collect()


def collector_stats() -> dict[str, object]:
    """The collector's own totals per generation, for ``/metrics``:
    ``collections``, ``collected`` and ``uncollectable`` (what
    :func:`gc.get_stats` keeps; nothing is hooked to count them)."""
    return {
        "kind": "collector",
        "generations": [
            {
                key: generation[key]
                for key in ("collections", "collected", "uncollectable")
            }
            for generation in gc.get_stats()
        ],
    }
