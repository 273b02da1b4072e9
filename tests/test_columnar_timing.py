"""Bit-identity of the compiled engine's columnar replay vs the reference walk.

The compiled engine replays every band columnar: it precomputes each
block's word-address stream and memoizes the scoreboard recurrence, but it
promises *exact* equality with the reference per-instruction walk —
identical :class:`~repro.machine.perf.PerfCounters` for every method,
machine and grid shape, including odd/tail-predicated sizes.  These tests
enforce that contract across the whole method registry and exercise the
probe-verify / demote fallback: a demoted class must still produce
identical counters through columnar's private scalar template walk.
"""

from __future__ import annotations

import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.columnar import ColumnarReplayer
from repro.machine.config import LX2, M4
from repro.machine.memory import MemorySpace
from repro.machine.timing import SamplePlan, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

MACHINES = {"LX2": LX2, "M4": M4}

#: Odd sizes so tail-predicated rows exercise more than one shape class.
GRIDS = [("box2d9p", 37, 29), ("star2d9p", 33, 48)]

#: Tiny plan so even these small grids run several measured bands.
PLAN = SamplePlan(warmup_bands=1, min_measure_points=600)


def _build(method, machine_name, stencil, rows, cols):
    """Kernel + config; None if the method rejects this machine."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=11)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    try:
        kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    except ValueError:
        return None  # method not available on this machine (e.g. no V-FMLA)
    return kernel, config


def _sampled(method, machine_name, stencil, rows, cols, engine):
    built = _build(method, machine_name, stencil, rows, cols)
    if built is None:
        pytest.skip(f"{method} not applicable on {machine_name}")
    kernel, config = built
    return TimingEngine(config, engine=engine).run(kernel, sample=True, plan=PLAN)


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=[g[0] for g in GRIDS])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_columnar_sampled_bit_identical(method, machine_name, stencil, rows, cols):
    reference = _sampled(method, machine_name, stencil, rows, cols, "reference")
    columnar = _sampled(method, machine_name, stencil, rows, cols, "compiled")
    assert columnar.to_dict() == reference.to_dict()


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_forced_demotion_falls_back_bit_identically(monkeypatch, method, machine_name):
    """A class that fails probe verification must demote permanently and
    keep producing counters identical to the reference walk."""
    reference = _sampled(method, machine_name, "box2d9p", 37, 29, "reference")

    demotions = []
    original_demote = ColumnarReplayer._demote

    def counting_demote(self, template, state):
        original_demote(self, template, state)
        demotions.append(template)

    # Every probe "fails": all shape classes must demote to the scalar
    # template walk.
    monkeypatch.setattr(
        ColumnarReplayer, "_columnar_matches", staticmethod(lambda clone, pipe: False)
    )
    monkeypatch.setattr(ColumnarReplayer, "_demote", counting_demote)

    columnar = _sampled(method, machine_name, "box2d9p", 37, 29, "compiled")

    assert demotions, "probe rejection must trigger at least one demotion"
    assert columnar.to_dict() == reference.to_dict()
