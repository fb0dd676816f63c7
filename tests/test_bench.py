"""Tests for the benchmark harness (timing decomposition and sweep runner)."""

import random

import pytest

from repro.bench.runner import (
    SweepConfig,
    format_series,
    records_to_dicts,
    run_projection_sweep,
    run_selection_sweep,
)
from repro.bench.timing import timed_ancestor_projection, timed_selection
from repro.algebra.projection_prob import ancestor_projection_local
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.workloads.generator import (
    WorkloadSpec,
    generate_workload,
    random_projection_path,
    random_selection_target,
)


@pytest.fixture
def workload():
    return generate_workload(WorkloadSpec(depth=3, branching=2, seed=21))


class TestTiming:
    def test_projection_timing_components(self, workload, tmp_path):
        rng = random.Random(0)
        path = random_projection_path(workload, rng)
        result, timing = timed_ancestor_projection(
            workload.instance, path, tmp_path / "out.json"
        )
        assert timing.copy >= 0 and timing.locate >= 0
        assert timing.update > 0
        assert timing.write > 0
        assert timing.total == pytest.approx(
            timing.copy + timing.locate + timing.structure + timing.update
            + timing.write
        )
        assert (tmp_path / "out.json").exists()
        result.validate()

    def test_projection_result_matches_untimed(self, workload, tmp_path):
        rng = random.Random(1)
        path = random_projection_path(workload, rng)
        timed, _ = timed_ancestor_projection(workload.instance, path, None)
        plain = ancestor_projection_local(workload.instance, path)
        a = GlobalInterpretation.from_local(timed)
        b = GlobalInterpretation.from_local(plain)
        assert a.is_close_to(b)

    def test_selection_timing_components(self, workload, tmp_path):
        rng = random.Random(2)
        path, target = random_selection_target(workload, rng)
        result, timing = timed_selection(
            workload.instance, path, target, tmp_path / "out.json"
        )
        assert timing.structure == 0.0  # selection never changes structure
        assert timing.write > 0
        result.validate()

    def test_selection_does_not_mutate_input(self, workload):
        rng = random.Random(3)
        path, target = random_selection_target(workload, rng)
        before = workload.instance.opf("o0").to_tabular()
        timed_selection(workload.instance, path, target, None)
        assert workload.instance.opf("o0").to_tabular() == before

    def test_skip_write_when_no_path(self, workload):
        rng = random.Random(4)
        path = random_projection_path(workload, rng)
        _, timing = timed_ancestor_projection(workload.instance, path, None)
        assert timing.write == 0.0


class TestRunner:
    @pytest.fixture(scope="class")
    def records(self):
        config = SweepConfig(
            grid={2: (3, 4)},
            labelings=("SL", "FR"),
            instances_per_config=1,
            queries_per_instance=2,
        )
        return run_projection_sweep(config)

    def test_one_record_per_cell(self, records):
        assert len(records) == 4  # 2 labelings x 2 depths

    def test_record_contents(self, records):
        for record in records:
            assert record.operation == "projection"
            assert record.objects in (15, 31)
            assert record.queries == 2
            assert record.total > 0

    def test_selection_sweep(self):
        config = SweepConfig(
            grid={2: (3,)}, labelings=("SL",),
            instances_per_config=1, queries_per_instance=1,
        )
        records = run_selection_sweep(config)
        assert len(records) == 1
        assert records[0].operation == "selection"
        assert records[0].timing.write > 0

    def test_format_series_table(self, records):
        table = format_series(records, "total")
        assert "b=2 SL" in table
        assert "b=2 FR" in table
        assert "15" in table and "31" in table

    def test_records_to_dicts(self, records):
        dicts = records_to_dicts(records)
        assert len(dicts) == len(records)
        assert {"operation", "labeling", "branching", "depth", "objects",
                "total_s"} <= set(dicts[0])


class TestAbsintBench:
    @pytest.fixture(scope="class")
    def records(self):
        from repro.bench.absint import run_absint_bench

        return run_absint_bench(quick=True, repeats=1)

    def test_every_cell_measures_every_mode(self, records):
        from repro.bench.absint import MODES, QUICK_GRID

        assert len(records) == len(QUICK_GRID) * len(MODES)

    def test_dead_on_actually_skipped(self, records):
        dead_on = [r for r in records if r.mode == "dead_on"]
        assert dead_on and all(r.skips > 0 for r in dead_on)
        assert all(r.speedup is not None for r in dead_on)

    def test_records_are_mergeable(self, records):
        from repro.bench.absint import records_to_dicts as to_dicts

        entry = to_dicts(records)[0]
        assert entry["operation"] == "absint"
        assert {"mode", "repeats", "total_s", "speedup", "skips"} <= set(entry)

    def test_format_table(self, records):
        from repro.bench.absint import format_absint_records

        table = format_absint_records(records)
        assert "dead_on" in table and "certify" in table
