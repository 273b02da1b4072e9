"""Engine smoke tests — one small cell per migrated benchmark.

Runnable as ``python -m pytest benchmarks -q -k smoke``: a fast CI target
that exercises the experiment engine end-to-end (cold cache, warm cache,
parallel fan-out, scaling rebase) without the full paper-scale sweeps.
"""

import pytest

from conftest import report

from repro.bench.report import format_metric_table
from repro.bench.runner import ExperimentRunner
from repro.machine.config import LX2
from repro.machine.multicore import MulticoreModel
from repro.machine.timing import SamplePlan


@pytest.fixture()
def cache_dir(tmp_path):
    return tmp_path / "cache"


def test_smoke_fig12_cell_cold_then_warm(cache_dir):
    """One in-cache Figure 12 cell: miss on a cold cache, hit on a warm one."""
    cold = ExperimentRunner(LX2(), cache_dir=cache_dir)
    first = cold.measure("hstencil", "star2d5p", (32, 32))
    assert cold.provenance("hstencil", "star2d5p", (32, 32)) == "simulated"
    assert cold.disk_cache.stats()["stores"] == 1

    warm = ExperimentRunner(LX2(), cache_dir=cache_dir)
    second = warm.measure("hstencil", "star2d5p", (32, 32))
    assert warm.provenance("hstencil", "star2d5p", (32, 32)) == "disk"
    assert warm.disk_cache.stats() == {
        "root": str(cache_dir),
        "hits": 1,
        "misses": 0,
        "stores": 0,
        "invalid": 0,
    }
    assert second.counters.to_dict() == first.counters.to_dict()

    rows = {
        run: {k: str(v) for k, v in r.disk_cache.stats().items() if k != "root"}
        for run, r in (("cold", cold), ("warm", warm))
    }
    report("smoke_engine", format_metric_table("engine smoke: disk cache", rows))


def test_smoke_fig15_cell_sampled(cache_dir):
    """One small out-of-cache Figure 15 cell, band-sampled, cache round-trip."""
    plan = SamplePlan(warmup_bands=1, min_measure_points=4096)
    cold = ExperimentRunner(LX2(), cache_dir=cache_dir)
    first = cold.measure("hstencil-prefetch", "box2d25p", (1024, 1024), plan=plan)
    assert first.counters.sampled
    warm = ExperimentRunner(LX2(), cache_dir=cache_dir)
    second = warm.measure("hstencil-prefetch", "box2d25p", (1024, 1024), plan=plan)
    assert warm.provenance("hstencil-prefetch", "box2d25p", (1024, 1024), plan=plan) == "disk"
    assert second.counters.sampled
    assert second.counters.to_dict() == first.counters.to_dict()


def test_smoke_fig16_scaling_rebase():
    """One tiny Figure 16 series: speedup rebased against the 1-core point."""
    runner = ExperimentRunner(LX2())
    cores = [1, 2, 4]
    heights = sorted({64 // c for c in cores} | {64})
    results = runner.measure_many(
        [("hstencil", "box2d9p", (rows, 64)) for rows in heights]
    )
    assert all(r.ok for r in results)
    slices = {r.shape[0]: r.counters for r in results}
    points = MulticoreModel(LX2()).series_from_slices(slices, 64, cores)
    speedups = {p.cores: p.speedup_vs_serial for p in points}
    assert speedups[1] == pytest.approx(1.0)
    assert speedups[4] > 2.0  # true speedup over serial, not ~1.0x


def test_smoke_parallel_matches_serial(cache_dir):
    """A 4-way parallel sweep of 8 cells is bit-identical to the serial run."""
    cells = [
        (method, stencil, (32, 32))
        for method in ("auto", "vector-only", "matrix-only", "hstencil")
        for stencil in ("star2d5p", "box2d9p")
    ]
    assert len(cells) == 8
    serial = ExperimentRunner(LX2()).measure_many(cells, jobs=1)
    parallel = ExperimentRunner(LX2(), cache_dir=cache_dir).measure_many(cells, jobs=4)
    assert [r.ok for r in serial] == [r.ok for r in parallel] == [True] * 8
    for s, p in zip(serial, parallel):
        assert (s.method, s.stencil, s.shape) == (p.method, p.stencil, p.shape)
        assert s.counters.to_dict() == p.counters.to_dict()
