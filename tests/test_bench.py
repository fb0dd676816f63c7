"""Tests for the benchmark harness (timing decomposition, sweep runner, CLI)."""

import json
import pathlib
import random

import pytest

from repro.bench.__main__ import main
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


ROOT = pathlib.Path(__file__).resolve().parents[1]


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


class TestCLI:
    """``python -m repro.bench``: a run and its report print one set of tables."""

    RECORDS = ROOT / "results" / "bench_records.json"

    def test_report_renders_the_committed_records(self, capsys):
        assert main(["report", "--json", str(self.RECORDS)]) == 0
        out = capsys.readouterr().out
        assert "Figure 7(a)" in out and "Figure 7(c)" in out

    def test_report_refuses_a_row_it_cannot_render(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        path.write_text(json.dumps([{"operation": "engine", "mode": "warm"}]))
        assert main(["report", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert "'engine'" in captured.err
        assert "Traceback" not in captured.err

    def test_a_run_and_its_report_print_the_same_tables(self, tmp_path, capsys):
        path = tmp_path / "records.json"
        assert main(["fig7c", "--quick", "--json", str(path)]) == 0
        run = capsys.readouterr().out
        assert main(["report", "--json", str(path)]) == 0
        report = capsys.readouterr().out
        assert "Figure 7(c) detail" in report
        assert run == report + f"raw records written to {path}\n"

