"""Multicore strong-scaling model."""

import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.machine.config import LX2
from repro.machine.memory import MemorySpace
from repro.machine.multicore import MulticoreModel, ScalingPoint
from repro.machine.perf import PerfCounters
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark


def kernel_factory(method="hstencil", stencil="box2d9p", cols=64):
    spec = benchmark(stencil)

    def make(rows):
        mem = MemorySpace()
        src = Grid2D(mem, rows, cols, spec.radius, "A")
        dst = Grid2D(mem, rows, cols, spec.radius, "B")
        return make_kernel(method, spec, src, dst, LX2(), KernelOptions(unroll_j=2))

    return make


class TestScalingPoint:
    def _slice(self, cycles=1000.0, points=4096, dram_lines=100):
        pc = PerfCounters()
        pc.cycles = cycles
        pc.points = points
        pc.dram_lines_read = dram_lines
        return pc

    def test_compute_bound_at_low_core_counts(self):
        mc = MulticoreModel(LX2())
        pt = mc.scaling_point(1, self._slice())
        assert not pt.bandwidth_bound
        assert pt.cycles == 1000.0
        assert pt.points == 4096

    def test_bandwidth_bound_at_high_core_counts(self):
        mc = MulticoreModel(LX2())
        heavy = self._slice(cycles=100.0, dram_lines=10_000)
        pt = mc.scaling_point(64, heavy)
        assert pt.bandwidth_bound
        assert pt.cycles > 100.0

    def test_throughput_additive_when_unbound(self):
        mc = MulticoreModel(LX2())
        p1 = mc.scaling_point(1, self._slice())
        p4 = mc.scaling_point(4, self._slice())
        if not p4.bandwidth_bound:
            assert p4.gstencil_per_s == pytest.approx(4 * p1.gstencil_per_s)

    def test_invalid_core_count(self):
        mc = MulticoreModel(LX2())
        with pytest.raises(ValueError):
            mc.scaling_point(0, self._slice())


class TestStrongScaling:
    def test_monotone_throughput(self):
        mc = MulticoreModel(LX2())
        pts = mc.strong_scaling(kernel_factory(), total_rows=64, core_counts=[1, 2, 4])
        rates = [p.gstencil_per_s for p in pts]
        assert rates[0] < rates[1] < rates[2] * 1.001

    def test_equal_slices_simulated_once(self):
        mc = MulticoreModel(LX2())
        pts = mc.strong_scaling(kernel_factory(), total_rows=64, core_counts=[2, 2])
        assert pts[0].cycles == pts[1].cycles

    def test_rows_must_divide(self):
        mc = MulticoreModel(LX2())
        with pytest.raises(ValueError):
            mc.strong_scaling(kernel_factory(), total_rows=8, core_counts=[16])

    @pytest.mark.parametrize("cores", [0, -2])
    def test_core_count_below_one_rejected(self, cores):
        # Checked before the slice height: 0 would divide by zero, and a
        # negative count is not a lack of rows.
        mc = MulticoreModel(LX2())
        with pytest.raises(ValueError, match=f"core count must be >= 1, got {cores}"):
            mc.strong_scaling(kernel_factory(), total_rows=64, core_counts=[cores, 2])
        slices = {32: synthetic_slice(100.0, 2048), 64: synthetic_slice(200.0, 4096)}
        with pytest.raises(ValueError, match=f"core count must be >= 1, got {cores}"):
            mc.series_from_slices(slices, 64, [2, cores])

    def test_points_scale_with_cores(self):
        mc = MulticoreModel(LX2())
        pts = mc.strong_scaling(kernel_factory(), total_rows=64, core_counts=[1, 4])
        assert pts[1].points == pts[0].points  # same total grid rows*cols


def synthetic_slice(cycles, points, dram_lines=0):
    pc = PerfCounters()
    pc.cycles = cycles
    pc.points = points
    pc.dram_lines_read = dram_lines
    return pc


class TestSerialRebase:
    """Regression: speedup_vs_serial must compare against the true 1-core
    point, not the same slice's own cycles (which reported ~1.0x)."""

    def test_32_cores_reports_true_speedup(self):
        mc = MulticoreModel(LX2())
        # Perfectly linear synthetic workload: the 2-row slice runs 32x
        # faster than the full 64-row grid.
        slices = {2: synthetic_slice(100.0, 128), 64: synthetic_slice(3200.0, 4096)}
        (pt,) = mc.series_from_slices(slices, total_rows=64, core_counts=[32])
        assert pt.speedup_vs_serial == pytest.approx(32.0)
        assert pt.serial_cycles == 3200.0
        assert pt.serial_points == 4096

    def test_serial_point_reports_one(self):
        mc = MulticoreModel(LX2())
        slices = {64: synthetic_slice(3200.0, 4096)}
        (pt,) = mc.series_from_slices(slices, total_rows=64, core_counts=[1])
        assert pt.speedup_vs_serial == pytest.approx(1.0)

    def test_strong_scaling_simulates_serial_reference(self):
        mc = MulticoreModel(LX2())
        # 1 is NOT in core_counts: the serial (64-row) reference must be
        # simulated anyway and used as the rebase target.
        pts = mc.strong_scaling(kernel_factory(), total_rows=64, core_counts=[4])
        assert pts[0].serial_cycles > 0
        assert pts[0].serial_points == pts[0].points
        assert pts[0].speedup_vs_serial > 2.0  # real speedup, not ~1.0x

    def test_remainder_rows_surfaced(self):
        mc = MulticoreModel(LX2())
        slices = {
            21: synthetic_slice(100.0, 1344),
            64: synthetic_slice(320.0, 4096),
        }
        (pt,) = mc.series_from_slices(slices, total_rows=64, core_counts=[3])
        assert pt.remainder_rows == 64 % 3 == 1
        assert pt.points == 3 * 1344  # remainder rows are not computed

    def test_missing_serial_slice_rejected(self):
        mc = MulticoreModel(LX2())
        with pytest.raises(ValueError):
            mc.series_from_slices({32: synthetic_slice(100.0, 2048)}, 64, [2])

    def test_bare_scaling_point_falls_back_to_slice_ratio(self):
        mc = MulticoreModel(LX2())
        pt = mc.scaling_point(4, synthetic_slice(1000.0, 4096))
        assert pt.serial_cycles == 0.0
        assert pt.speedup_vs_serial == pytest.approx(1.0)


class TestSpeedupVsSerialContract:
    """Pin down the three regimes of ``ScalingPoint.speedup_vs_serial``."""

    def test_bare_fallback_below_one_when_bandwidth_bound(self):
        # Without a serial reference the property degrades to the
        # same-slice ratio, which only drops below 1.0 when the
        # contention bound stretched the slice.
        mc = MulticoreModel(LX2())
        pt = mc.scaling_point(64, synthetic_slice(100.0, 4096, dram_lines=10_000))
        assert pt.bandwidth_bound
        assert pt.serial_cycles == 0.0
        assert pt.speedup_vs_serial == pytest.approx(pt.single_core_cycles / pt.cycles)
        assert pt.speedup_vs_serial < 1.0

    def test_zero_cycle_point_reports_zero(self):
        mc = MulticoreModel(LX2())
        pt = mc.scaling_point(2, synthetic_slice(0.0, 0))
        assert pt.speedup_vs_serial == 0.0

    def test_remainder_rows_do_not_distort_throughput_speedup(self):
        # 64 rows on 3 cores: one remainder row is dropped (fewer points),
        # but the speedup is a throughput ratio, so a perfectly linear
        # workload still reports exactly 3x — with the dropped work
        # surfaced separately via remainder_rows / points.
        mc = MulticoreModel(LX2())
        slices = {
            21: synthetic_slice(2100.0, 1344),  # 100 cycles/row, 64 pts/row
            64: synthetic_slice(6400.0, 4096),
        }
        (pt,) = mc.series_from_slices(slices, total_rows=64, core_counts=[3])
        assert pt.remainder_rows == 1
        assert pt.points == 3 * 1344
        assert pt.speedup_vs_serial == pytest.approx(3.0)

    def test_rebase_uses_true_serial_reference_not_slice_ratio(self):
        # The short slice runs super-linearly faster per point (cache
        # effects): rebasing against the true 1-core measurement must
        # surface that, where the same-slice fallback would report 1.0.
        mc = MulticoreModel(LX2())
        slices = {
            32: synthetic_slice(800.0, 2048),   # 4x the serial throughput
            64: synthetic_slice(6400.0, 4096),
        }
        (pt,) = mc.series_from_slices(slices, total_rows=64, core_counts=[2])
        assert not pt.bandwidth_bound
        assert pt.speedup_vs_serial == pytest.approx(8.0)
