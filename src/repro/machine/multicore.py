"""Multicore strong-scaling model (Figure 16).

OpenMP-style row partitioning inside one NUMA node: the grid is split into
``P`` horizontal slices, each core runs the same kernel on its slice with
private L1/L2, and all cores share the socket's DRAM bandwidth.  Because the
slices are statistically identical, one slice is simulated (band-sampled)
and the socket-level result follows from a bandwidth-contention bound:

* unconstrained, all cores finish in the single-core slice time ``C``;
* the aggregate DRAM demand is ``P * D`` bytes over those ``C`` cycles; if
  that exceeds the socket bandwidth ``B`` bytes/cycle, execution stretches
  to ``P * D / B`` cycles.

``T = max(C, P*D/B)`` — compute-bound at low core counts, bandwidth-bound
at high ones.  Methods with better cache behaviour (HStencil with spatial
prefetch keeps more traffic in L1/L2) have smaller ``D`` and therefore a
higher scaling ceiling, which is exactly the separation Figure 16 shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.isa.program import Kernel
from repro.machine.config import MachineConfig
from repro.machine.perf import PerfCounters
from repro.machine.timing import SamplePlan, TimingEngine


def _rows_per_core(total_rows: int, cores: int) -> int:
    """Slice height for ``cores`` cores; rejects counts that leave none."""
    if cores < 1:
        raise ValueError(f"core count must be >= 1, got {cores}")
    rows = total_rows // cores
    if rows <= 0:
        raise ValueError(f"{cores} cores leave no rows per core")
    return rows


@dataclass
class ScalingPoint:
    """One core-count measurement of the strong-scaling curve."""

    cores: int
    cycles: float
    points: int
    gstencil_per_s: float
    bandwidth_bound: bool
    dram_bytes_per_core: float
    single_core_cycles: float
    #: Cycles/points of the true ``cores == 1`` (full-grid) measurement.
    #: Filled in by :meth:`MulticoreModel.strong_scaling` /
    #: :meth:`MulticoreModel.series_from_slices`; zero for a bare
    #: :meth:`MulticoreModel.scaling_point` call.
    serial_cycles: float = 0.0
    serial_points: int = 0
    #: ``total_rows % cores`` rows that the equal-slice partition leaves
    #: unassigned (no core computes them).
    remainder_rows: int = 0

    @property
    def speedup_vs_serial(self) -> float:
        """Throughput relative to the true 1-core point of the sweep.

        With the serial reference filled in, this is the strong-scaling
        speedup the paper plots: per-point throughput of this point over
        per-point throughput of the full grid on one core.  Without it
        (a bare :meth:`MulticoreModel.scaling_point`), it falls back to the
        same-slice ratio, which only deviates from 1.0 when the point is
        bandwidth-bound.
        """
        if not self.cycles:
            return 0.0
        if self.serial_cycles and self.serial_points and self.points:
            serial_throughput = self.serial_points / self.serial_cycles
            return (self.points / self.cycles) / serial_throughput
        return self.single_core_cycles / self.cycles


class MulticoreModel:
    """Strong-scaling evaluation for one machine configuration.

    ``timing_engine`` injects a constructed
    :class:`~repro.machine.timing.TimingEngine` (built for this ``config``)
    and with it a simulation mode; ``None`` builds one on the mode resolved
    from the environment.  One engine serves the whole sweep on purpose: on
    the compiled engine its columnar share holds the memory plans and
    scoreboard memo tables, so every distinct slice height after the first
    replays against already-warmed state (slice kernels differ only in row
    count, and their programs pool by structural signature).
    """

    def __init__(
        self,
        config: MachineConfig,
        timing_engine: Optional[TimingEngine] = None,
    ) -> None:
        self.config = config
        if timing_engine is not None:
            if timing_engine.config is not config:
                raise ValueError("timing_engine was built for a different config")
            self.engine = timing_engine
        else:
            self.engine = TimingEngine(config)

    def run_slice(
        self,
        kernel: Kernel,
        plan: Optional[SamplePlan] = None,
    ) -> PerfCounters:
        """Time one core's slice (band-sampled for large slices)."""
        return self.engine.run(kernel, plan=plan)

    def scaling_point(
        self,
        cores: int,
        slice_counters: PerfCounters,
    ) -> ScalingPoint:
        """Combine a slice measurement with the contention bound."""
        if cores < 1:
            raise ValueError("core count must be >= 1")
        compute_cycles = slice_counters.cycles
        # The counters record the line size they were collected at; forcing
        # this config's L1 line size would silently mis-scale DRAM traffic
        # for counters measured on a machine with a different line size.
        dram_bytes = float(slice_counters.dram_bytes())
        bandwidth = self.config.mem_bandwidth_bytes_per_cycle
        if bandwidth <= 0:
            # A non-positive bandwidth used to mean "never bandwidth-bound",
            # which turns the contention model into a no-op without any
            # signal to the caller; a config like that is a setup error.
            raise ValueError(
                "mem_bandwidth_bytes_per_cycle must be positive for the "
                f"contention bound, got {bandwidth!r}"
            )
        bw_cycles = cores * dram_bytes / bandwidth
        cycles = max(compute_cycles, bw_cycles)
        total_points = cores * slice_counters.points
        seconds = cycles / (self.config.clock_ghz * 1e9)
        gstencil = total_points / seconds / 1e9 if seconds > 0 else 0.0
        return ScalingPoint(
            cores=cores,
            cycles=cycles,
            points=total_points,
            gstencil_per_s=gstencil,
            bandwidth_bound=bw_cycles > compute_cycles,
            dram_bytes_per_core=dram_bytes,
            single_core_cycles=compute_cycles,
        )

    def series_from_slices(
        self,
        slices: Mapping[int, PerfCounters],
        total_rows: int,
        core_counts: Sequence[int],
    ) -> List[ScalingPoint]:
        """Build the scaling curve from pre-measured per-slice counters.

        ``slices`` maps slice height (interior rows) to that slice's
        counters; it must contain ``total_rows // P`` for every ``P`` in
        ``core_counts`` *and* ``total_rows`` itself (the serial reference
        every point's :attr:`ScalingPoint.speedup_vs_serial` is rebased
        against).  ``total_rows % P`` remainder rows are not assigned to any
        core; the dropped count is surfaced on each point.
        """
        if total_rows not in slices:
            raise ValueError(
                f"slices must include the serial reference height {total_rows}"
            )
        serial = slices[total_rows]
        out: List[ScalingPoint] = []
        for cores in core_counts:
            rows = _rows_per_core(total_rows, cores)
            if rows not in slices:
                raise ValueError(f"missing slice measurement for {rows} rows")
            point = self.scaling_point(cores, slices[rows])
            point.serial_cycles = serial.cycles
            point.serial_points = serial.points
            point.remainder_rows = total_rows % cores
            out.append(point)
        return out

    def strong_scaling(
        self,
        kernel_for_rows: Callable[[int], Kernel],
        total_rows: int,
        core_counts: Sequence[int],
        plan: Optional[SamplePlan] = None,
    ) -> List[ScalingPoint]:
        """Sweep core counts; each core gets ``total_rows // P`` rows.

        ``kernel_for_rows(rows)`` must build the per-slice kernel (same
        method, same row width, ``rows`` interior rows).  Slices of equal
        height are simulated once per distinct height.  The ``cores == 1``
        (full-grid) slice is always simulated — even when 1 is not in
        ``core_counts`` — so every point's
        :attr:`ScalingPoint.speedup_vs_serial` is rebased against the true
        serial measurement rather than its own slice.
        """
        heights = set()
        for cores in core_counts:
            heights.add(_rows_per_core(total_rows, cores))
        heights.add(total_rows)  # serial reference
        slices: Dict[int, PerfCounters] = {
            rows: self.run_slice(kernel_for_rows(rows), plan=plan)
            for rows in sorted(heights)
        }
        return self.series_from_slices(slices, total_rows, core_counts)
