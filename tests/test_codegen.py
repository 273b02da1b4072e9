"""The retired exec-compiled replay tier stays retired, and its sweeps stay exact.

The simulator once replayed probe-verified shape classes through generated
straight-line Python kernels.  That tier is gone: the interpreted walks it
was verified against (the columnar replay with its scalar template walk,
and ``FunctionalEngine.execute_template``) are the compiled engine's only
replay paths, and
:func:`repro.machine.codegen.codegen_stats` survives only as an all-zero
stub for the benchmark's ``machine.codegen.*`` metrics.

These tests keep the tier's registry x {LX2, M4} x odd-grid sweeps and
check the two things that remain true after its removal: every compiled
run is bit-identical to the reference per-instruction walk, and no run
moves a ``codegen_stats`` counter off zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.artifacts import install_artifact_store
from repro.machine.codegen import codegen_stats
from repro.machine.compiled import clear_program_pool
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.timing import SamplePlan, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

MACHINES = {"LX2": LX2, "M4": M4}

#: Odd sizes so tail-predicated rows exercise more than one shape class.
GRIDS = [("box2d9p", 37, 29), ("star2d9p", 33, 48)]

#: Tiny plan so even these small grids run several measured bands.
PLAN = SamplePlan(warmup_bands=1, min_measure_points=600)


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Fresh pools and store state for every test."""
    monkeypatch.delenv("REPRO_ARTIFACTS", raising=False)
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)
    yield
    install_artifact_store(None)
    clear_program_pool(reset_stats=True)


def _assert_tier_idle():
    stats = codegen_stats()
    assert stats and all(value == 0 for value in stats.values())


def _build(method, machine_name, stencil, rows, cols):
    """Kernel + config + memory; None if the method rejects this machine."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=13)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    try:
        kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    except ValueError:
        return None  # method not available on this machine (e.g. no V-FMLA)
    return kernel, config, mem, dst


def _timed(method, machine_name, stencil, rows, cols, engine):
    built = _build(method, machine_name, stencil, rows, cols)
    if built is None:
        pytest.skip(f"{method} not applicable on {machine_name}")
    kernel, config, _, _ = built
    return TimingEngine(config, engine=engine).run(
        kernel, sample=True, plan=PLAN
    )


# -- timing bit identity ------------------------------------------------------


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=[g[0] for g in GRIDS])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_timing_codegen_bit_identical(method, machine_name, stencil, rows, cols):
    """Sampled columnar replay equals the reference engine, with the
    retired tier's counters untouched."""
    reference = _timed(method, machine_name, stencil, rows, cols, "reference")
    compiled = _timed(method, machine_name, stencil, rows, cols, "compiled")
    assert compiled.to_dict() == reference.to_dict()
    _assert_tier_idle()


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_columnar_chunk_codegen_bit_identical(machine_name):
    """Phase-P chunks replay through the scoreboard walk, still exactly."""
    args = ("hstencil", machine_name, "star2d9p", 33, 48)
    reference = _timed(*args, "reference")
    columnar = _timed(*args, "compiled")
    assert columnar.to_dict() == reference.to_dict()
    _assert_tier_idle()


def test_full_run_codegen_bit_identical():
    """Exact (unsampled) runs replay the same way."""
    runs = {}
    for engine in ("reference", "compiled"):
        kernel, config, _, _ = _build("hstencil", "LX2", "star2d5p", 31, 35)
        runs[engine] = TimingEngine(config, engine=engine).run(
            kernel, sample=False, warm=True
        )
    assert runs["compiled"].to_dict() == runs["reference"].to_dict()
    _assert_tier_idle()


# -- functional bit identity --------------------------------------------------


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", ["hstencil", "vector-only"])
def test_functional_codegen_bit_identical(method, machine_name):
    grids = {}
    for engine in ("reference", "compiled"):
        clear_program_pool(reset_stats=True)
        built = _build(method, machine_name, "box2d9p", 37, 29)
        if built is None:
            pytest.skip(f"{method} not applicable on {machine_name}")
        kernel, _, mem, dst = built
        fe = FunctionalEngine(mem)
        fe.run_kernel(kernel, engine=engine)
        grids[engine] = (dst.get_full().copy(), fe.instructions_executed)
    assert np.array_equal(grids["compiled"][0], grids["reference"][0])
    assert grids["compiled"][1] == grids["reference"][1]
    _assert_tier_idle()
