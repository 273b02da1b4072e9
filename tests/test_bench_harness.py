"""Benchmark harness: runner caching, sweeps, report formatting."""

import json

import pytest

from repro.bench.report import (
    format_metric_table,
    format_scaling_series,
    format_speedup_table,
    geomean,
    write_bench_json,
)
from repro.bench.runner import ExperimentRunner
from repro.machine.config import LX2


class TestRunner:
    def test_measure_cell(self):
        runner = ExperimentRunner(LX2())
        m = runner.measure("hstencil", "star2d5p", (32, 32))
        assert m.counters.points == 32 * 32
        assert m.method == "hstencil"

    def test_measure_cached(self):
        runner = ExperimentRunner(LX2())
        a = runner.measure("auto", "star2d5p", (32, 32))
        b = runner.measure("auto", "star2d5p", (32, 32))
        assert a is b

    def test_sweep_skips_inapplicable(self):
        runner = ExperimentRunner(LX2())
        cells = runner.sweep(["auto", "mat-ortho"], "box2d9p", (32, 32))
        assert "auto" in cells
        assert "mat-ortho" not in cells  # star-only method

    def test_sweep_reports_skip_reasons(self):
        runner = ExperimentRunner(LX2())
        skipped = {}
        runner.sweep(["auto", "mat-ortho"], "box2d9p", (32, 32), skipped=skipped)
        assert list(skipped) == ["mat-ortho"]
        assert "star" in skipped["mat-ortho"]

    def test_speedups_normalized(self):
        runner = ExperimentRunner(LX2())
        sp = runner.speedups(["auto", "hstencil"], "box2d9p", (64, 64))
        assert sp["auto"] == pytest.approx(1.0)
        assert sp["hstencil"] > 1.0

    def test_speedups_missing_baseline_is_descriptive(self):
        runner = ExperimentRunner(LX2())
        with pytest.raises(ValueError, match="baseline method 'mat-ortho'.*box2d9p"):
            runner.speedups(["auto"], "box2d9p", (32, 32), baseline="mat-ortho")

    def test_3d_shapes(self):
        runner = ExperimentRunner(LX2())
        m = runner.measure("hstencil", "star3d7p", (4, 16, 32))
        assert m.counters.points == 4 * 16 * 32


class TestReport:
    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([2.0, 0.0]) == pytest.approx(2.0)  # zeros skipped

    def test_speedup_table_contains_cells(self):
        text = format_speedup_table(
            "demo", {"star": {"a": 1.0, "b": 2.0}, "box": {"a": 1.0}}
        )
        assert "demo" in text
        assert "2.00x" in text
        assert "geomean" in text
        assert text.count("\n") >= 5

    def test_speedup_table_missing_cells_dashed(self):
        text = format_speedup_table("demo", {"box": {"a": 1.0}, "star": {"b": 3.0}})
        assert "-" in text

    def test_metric_table(self):
        text = format_metric_table(
            "cache", {"1024": {"hit": "66%", "times": "2.5e5"}}
        )
        assert "66%" in text and "cache" in text

    def test_scaling_series(self):
        text = format_scaling_series(
            "scaling", {"hstencil": [(1, 0.5), (32, 12.9)], "vector": [(1, 0.3)]}
        )
        assert "12.90" in text
        assert "32" in text

    @pytest.mark.parametrize(
        "kwargs,modes",
        [
            ({}, {"engine": "compiled", "steady": "on", "sample": None}),
            (
                {"engine": "reference", "steady": "off", "sample": False},
                {"engine": "reference", "steady": "off", "sample": False},
            ),
        ],
        ids=["default", "reference-off-exact"],
    )
    def test_bench_json_records_the_resolved_mode(self, tmp_path, monkeypatch, kwargs, modes):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        monkeypatch.delenv("REPRO_STEADY", raising=False)
        runner = ExperimentRunner(LX2(), **kwargs)
        runner.measure("auto", "star2d5p", (32, 32))
        payload = json.loads(write_bench_json(tmp_path, "demo", runner=runner).read_text())
        assert payload["modes"] == modes
