"""Engine benchmarks: optimizer and versioned-cache effect.

The measured unit is the canonical pipeline plan — ancestor projection,
selection on the projected path, point query — executed through
:class:`repro.engine.Engine` in its four modes: the naive eager path
(optimizer off, caching off), rewrites only, cold cache, and warm cache.
The warm series is the headline: every sub-plan is served from the
versioned result cache, so repeated identical statements cost microseconds
regardless of instance size.
"""

import random
from functools import lru_cache

import pytest

from repro.bench.engine import pipeline_plan
from repro.engine import Engine
from repro.storage.database import Database
from repro.workloads.generator import WorkloadSpec, generate_workload

GRID = [("SL", 2, 3), ("SL", 2, 5), ("SL", 2, 7), ("SL", 4, 4)]


@lru_cache(maxsize=None)
def cached_workload(labeling, branching, depth):
    return generate_workload(
        WorkloadSpec(depth=depth, branching=branching, labeling=labeling,
                     seed=97)
    )


def _grid_id(case):
    labeling, branching, depth = case
    return f"{labeling}-b{branching}-d{depth}"


@pytest.fixture(params=GRID, ids=_grid_id)
def engine_case(request):
    labeling, branching, depth = request.param
    workload = cached_workload(labeling, branching, depth)
    plan = pipeline_plan(workload, random.Random(5))
    return workload, plan


def _database(workload) -> Database:
    database = Database()
    database.register("base", workload.instance)
    return database


def test_pipeline_naive(benchmark, engine_case):
    workload, plan = engine_case
    engine = Engine(_database(workload), optimizer=False, caching=False)
    result = benchmark(engine.execute_plan, plan)
    benchmark.extra_info["objects"] = workload.num_objects
    assert 0.0 <= result.value <= 1.0


def test_pipeline_optimized(benchmark, engine_case):
    workload, plan = engine_case
    engine = Engine(_database(workload), optimizer=True, caching=False)
    result = benchmark(engine.execute_plan, plan)
    benchmark.extra_info["objects"] = workload.num_objects
    assert result.applied_rules


def test_pipeline_cold_cache(benchmark, engine_case):
    workload, plan = engine_case
    engine = Engine(_database(workload), optimizer=True, caching=True)

    def cold():
        engine.result_cache.clear()
        return engine.execute_plan(plan)

    result = benchmark(cold)
    benchmark.extra_info["objects"] = workload.num_objects
    assert result.stats.cache == "miss"


def test_pipeline_warm_cache(benchmark, engine_case):
    workload, plan = engine_case
    engine = Engine(_database(workload), optimizer=True, caching=True)
    engine.execute_plan(plan)  # populate outside the clock
    result = benchmark(engine.execute_plan, plan)
    benchmark.extra_info["objects"] = workload.num_objects
    assert result.stats.cache == "hit"
    assert engine.result_cache.stats.hits > 0


def test_warm_beats_naive(engine_case):
    """The acceptance check: a warm repeat is measurably faster."""
    import time

    workload, plan = engine_case
    naive = Engine(_database(workload), optimizer=False, caching=False)
    cached = Engine(_database(workload), optimizer=True, caching=True)
    cached.execute_plan(plan)

    start = time.perf_counter()
    for _ in range(10):
        naive.execute_plan(plan)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(10):
        cached.execute_plan(plan)
    warm_s = time.perf_counter() - start

    assert warm_s < naive_s
