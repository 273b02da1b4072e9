"""Bit-identity of the multicore columnar replay vs the reference walk.

:class:`~repro.machine.multicore.MulticoreModel` runs one
:class:`~repro.machine.timing.TimingEngine` across every distinct slice
height of a strong-scaling sweep, so on the compiled engine each height
after the first replays columnar against the engine's already-warmed share
(memory plans and scoreboard memo pool by structural signature).  That
sharing is an optimization only: every scaling point — cycles, points,
DRAM bytes, bandwidth flags, serial rebase — must be *identical* to the
reference per-instruction walk.  These tests enforce that contract across
the method registry on both machines, with odd slice heights
(tail-predicated rows, non-zero remainders), through the probe-verify /
demote fallback, and over the ``engine=`` constructor plumbing.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.columnar import ColumnarReplayer
from repro.machine.config import LX2, M4
from repro.machine.memory import MemorySpace
from repro.machine.multicore import MulticoreModel
from repro.machine.timing import SamplePlan, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

MACHINES = {"LX2": LX2, "M4": M4}

#: Odd total height: 45 rows over {1, 2, 4, 8} cores gives slice heights
#: {45, 22, 11, 5} — three odd heights plus non-zero remainders for every
#: multi-core point, so tail predication and the remainder-row accounting
#: are both exercised.
TOTAL_ROWS = 45
COLS = 29
CORES = [1, 2, 4, 8]
STENCIL = "box2d9p"

#: Tiny plan so oversized slices band-sample instead of running full.
PLAN = SamplePlan(warmup_bands=1, min_measure_points=600)


def _kernel_builder(method, config, stencil=STENCIL, cols=COLS):
    """``kernel_for_rows`` closure; None if the method rejects the machine."""
    spec = benchmark(stencil)

    def kernel_for_rows(rows):
        mem = MemorySpace()
        src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=7)
        dst = Grid2D(mem, rows, cols, spec.radius, "B")
        return make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))

    try:
        kernel_for_rows(TOTAL_ROWS)
    except ValueError:
        return None  # method not available on this machine (e.g. no V-FMLA)
    return kernel_for_rows


def _sweep(method, machine_name, engine):
    config = MACHINES[machine_name]()
    builder = _kernel_builder(method, config)
    if builder is None:
        pytest.skip(f"{method} not applicable on {machine_name}")
    mc = MulticoreModel(config, engine=engine)
    return mc.strong_scaling(builder, TOTAL_ROWS, CORES, plan=PLAN)


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_multicore_columnar_bit_identical(method, machine_name):
    reference = _sweep(method, machine_name, "reference")
    columnar = _sweep(method, machine_name, "compiled")
    assert [asdict(p) for p in columnar] == [asdict(p) for p in reference]
    # The odd partition really was exercised: every multi-core point drops
    # remainder rows, so this sweep cannot degenerate to even slices.
    assert [p.remainder_rows for p in columnar] == [0, 1, 1, 5]


def test_multicore_forced_demotion_falls_back_bit_identically(monkeypatch):
    """Slice heights whose probes fail must demote to the scalar template
    walk and still produce a scaling curve identical to the reference."""
    reference = _sweep("hstencil", "LX2", "reference")

    demotions = []
    original_demote = ColumnarReplayer._demote

    def counting_demote(self, template, state):
        original_demote(self, template, state)
        demotions.append(template)

    # Every probe "fails": all shape classes of every slice height must
    # demote permanently to the scalar template walk.
    monkeypatch.setattr(
        ColumnarReplayer, "_columnar_matches", staticmethod(lambda clone, pipe: False)
    )
    monkeypatch.setattr(ColumnarReplayer, "_demote", counting_demote)

    columnar = _sweep("hstencil", "LX2", "compiled")

    assert demotions, "probe rejection must trigger at least one demotion"
    assert [asdict(p) for p in columnar] == [asdict(p) for p in reference]


class TestEngineInjection:
    def test_engine_timing_kwargs_match_injected_engine(self):
        """``MulticoreModel(engine=)`` must behave exactly like injecting a
        :class:`TimingEngine` built with the same selection."""
        config = LX2()
        builder = _kernel_builder("hstencil", config)
        via_kwargs = MulticoreModel(config, engine="compiled")
        via_engine = MulticoreModel(
            config, timing_engine=TimingEngine(config, engine="compiled")
        )
        a = via_kwargs.strong_scaling(builder, TOTAL_ROWS, CORES, plan=PLAN)
        b = via_engine.strong_scaling(builder, TOTAL_ROWS, CORES, plan=PLAN)
        assert [asdict(p) for p in a] == [asdict(p) for p in b]

    def test_injected_engine_must_match_config(self):
        lx2, m4 = LX2(), M4()
        with pytest.raises(ValueError, match="different config"):
            MulticoreModel(lx2, timing_engine=TimingEngine(m4))

    def test_non_positive_bandwidth_rejected(self):
        config = replace(LX2(), mem_bandwidth_bytes_per_cycle=0)
        mc = MulticoreModel(config)
        counters = TimingEngine(LX2(), engine="compiled").run(
            _kernel_builder("hstencil", LX2())(TOTAL_ROWS), sample=True, plan=PLAN
        )
        with pytest.raises(ValueError, match="must be positive"):
            mc.scaling_point(2, counters)
