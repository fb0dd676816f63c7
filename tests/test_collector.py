"""The cyclic collector is paused where a whole instance is allocated.

``collector_paused`` is re-entrant across threads, restores what it
found, and overlapping regions cannot keep the collector off for good; no
collection of any generation starts while ``dumps`` / ``loads`` encode
or decode a 5,461-object tree, or while a value derived from an instance
builds.
"""

from __future__ import annotations

import gc
import json
import sys
import threading
import time
import weakref

import pytest

from repro.check.dataguide import build_dataguide, guide_of
from repro.collector import collector_paused
from repro.index.cache import snapshot_of
from repro.index.columnar import ColumnarInstance
from repro.io import json_codec
from repro.storage.database import Database
from repro.storage.derived import derived, fetch
from repro.workloads.generator import WorkloadSpec, generate_workload


@pytest.fixture(autouse=True)
def _collector_on():
    """Every test starts and ends with the collector on."""
    assert gc.isenabled()
    yield
    gc.enable()


# ----------------------------------------------------------------------
# The switch
# ----------------------------------------------------------------------
def test_a_region_that_raises_restores_the_collector():
    with pytest.raises(RuntimeError):
        with collector_paused():
            assert not gc.isenabled()
            raise RuntimeError("inside")
    assert gc.isenabled()


def test_nested_regions_switch_back_on_at_the_outermost_exit():
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_regions_on_two_threads_resume_at_the_last_exit():
    first_in, second_in = threading.Event(), threading.Event()
    first_out, release_second = threading.Event(), threading.Event()
    seen = {}

    def first():
        with collector_paused():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with collector_paused():
            second_in.set()
            release_second.wait(10)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    assert first_out.wait(10)
    seen["after first exit"] = gc.isenabled()
    release_second.set()
    for thread in threads:
        thread.join(10)
    assert seen["after first exit"] is False
    assert gc.isenabled()


def test_overlapping_regions_cannot_hold_the_collector_off_for_good(monkeypatch):
    """A region that closes under a hold older than ``HOLD_LIMIT_S`` runs
    the full collection the hold put off: a cycle made while regions on
    two threads overlap is freed before the last of them closes."""
    from repro import collector

    monkeypatch.setattr(collector, "HOLD_LIMIT_S", 0.05)
    first_in, second_in = threading.Event(), threading.Event()
    first_out, release_second = threading.Event(), threading.Event()

    class Node:
        pass

    def first():
        with collector_paused():
            first_in.set()
            second_in.wait(10)
            time.sleep(0.1)
        first_out.set()

    def second():
        first_in.wait(10)
        with collector_paused():
            second_in.set()
            release_second.wait(10)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    try:
        assert first_in.wait(10)
        node = Node()
        node.self = node
        freed = weakref.ref(node)
        del node
        assert first_out.wait(10)
        assert freed() is None
        assert not gc.isenabled()  # the second region still holds it off
    finally:
        release_second.set()
        for thread in threads:
            thread.join(10)
    assert gc.isenabled()


def test_many_threads_never_see_the_collector_on_inside_a_region():
    """More threads than cores, switching often: a lost update of the
    region count would switch the collector on under an open region or
    leave it off after the last one closes."""
    from repro import collector

    seen_on = []

    def churn():
        for _ in range(300):
            with collector_paused():
                with collector_paused():
                    seen_on.append(gc.isenabled())
                seen_on.append(gc.isenabled())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen_on) == 8 * 300 * 2 and not any(seen_on)
    assert collector._depth == 0 and gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled():
    gc.disable()
    try:
        with collector_paused():
            with collector_paused():
                pass
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# No collection inside the three sites
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def big_tree():
    """The served scan workload's tree shape: 4-ary, depth 6, 5,461 objects."""
    spec = WorkloadSpec(depth=6, branching=4, seed=5)
    pi = generate_workload(spec).instance
    assert len(pi.objects) == spec.num_objects == 5461
    return pi


def _collections_in(work_codes, action):
    """The generations of the collections that start while a frame of
    one of ``work_codes`` is on the stack, counted by a ``gc.callbacks``
    hook around ``action()``."""
    started = []

    def hook(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in work_codes:
                started.append(info["generation"])
                return
            frame = frame.f_back

    gc.collect()
    gc.callbacks.append(hook)
    try:
        action()
    finally:
        gc.callbacks.remove(hook)
    return started


def test_no_collection_while_a_large_tree_is_encoded_or_decoded(big_tree):
    encoding = {
        json_codec.encode_instance.__code__, json.JSONEncoder.encode.__code__,
    }
    decoding = {
        json_codec.decode_instance.__code__, json.JSONDecoder.decode.__code__,
    }
    text = json_codec.dumps(big_tree)
    assert _collections_in(encoding, lambda: json_codec.dumps(big_tree)) == []
    assert _collections_in(decoding, lambda: json_codec.loads(text)) == []


def test_no_collection_while_a_derived_value_builds(big_tree, tmp_path):
    database = Database(tmp_path)
    database.register("big", big_tree)
    database.save("big")
    cold = Database(tmp_path)  # the build below loads the tree from disk
    building = {
        build_dataguide.__code__, ColumnarInstance.from_instance.__code__,
        json_codec.decode_instance.__code__,
    }

    def build_both():
        big = fetch(cold, "big")
        guide_of(big)
        snapshot_of("big", big)

    assert _collections_in(building, build_both) == []


def test_a_hit_never_pauses_the_collector(big_tree, monkeypatch):
    from repro.storage import derived as derived_module

    paused = []

    def counted():
        paused.append(True)
        return collector_paused()

    monkeypatch.setattr(derived_module, "collector_paused", counted)
    database = Database()
    database.register("big", big_tree)
    big = database.get("big")
    assert derived(big, "objects", lambda instance: len(instance.objects)) == 5461
    assert derived(big, "objects", lambda instance: len(instance.objects)) == 5461
    assert paused == [True]
