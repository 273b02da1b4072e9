"""Bit-identity of the compiled template-replay engine vs the reference walk.

The ``engine="compiled"`` fast path (kernel templates + precompiled
timing/functional programs) promises *exact* equality with the reference
per-instruction walk — every performance counter and every word the kernel
leaves in memory.  These tests enforce that contract over the whole method
registry, on both machine presets, on conforming grids and on
tail-predicated odd sizes, so any regression in the replay layer is caught
as a hard failure rather than a drifting benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.timing import ENGINES, TimingEngine, default_engine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

MACHINES = {"LX2": LX2, "M4": M4}

#: (stencil, rows, cols): one conforming size and odd/tail sizes.
GRIDS = [("star2d9p", 32, 32), ("box2d9p", 21, 27), ("box2d9p", 37, 29), ("star2d5p", 31, 35)]
GRID_IDS = ["star2d9p", "box2d9p-odd", "box2d9p-37x29", "star2d5p-31x35"]


def _build(method, machine_name, stencil, rows, cols):
    """Kernel + its memory space; None if the method rejects this machine."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=7)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    try:
        kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    except ValueError:
        return None  # method not available on this machine (e.g. no V-FMLA)
    return kernel, config, mem, dst


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_timing_counters_bit_identical(method, machine_name, stencil, rows, cols):
    built = _build(method, machine_name, stencil, rows, cols)
    if built is None:
        pytest.skip(f"{method} not applicable on {machine_name}")
    kernel, config, _, _ = built
    ref = TimingEngine(config, engine="reference").run(kernel, sample=False, warm=True)
    cmp_ = TimingEngine(config, engine="compiled").run(kernel, sample=False, warm=True)
    assert cmp_.to_dict() == ref.to_dict()


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_functional_grids_bit_identical(method, machine_name, stencil, rows, cols):
    outputs = {}
    for engine in ENGINES:
        built = _build(method, machine_name, stencil, rows, cols)
        if built is None:
            pytest.skip(f"{method} not applicable on {machine_name}")
        kernel, _, mem, dst = built
        fe = FunctionalEngine(mem)
        fe.run_kernel(kernel, engine=engine)
        outputs[engine] = (dst.get_full().copy(), fe.instructions_executed)
    ref_grid, ref_count = outputs["reference"]
    cmp_grid, cmp_count = outputs["compiled"]
    # Bit identity, not tolerance: the same IEEE ops in the same order.
    assert np.array_equal(cmp_grid, ref_grid)
    assert cmp_count == ref_count


def test_sampled_run_bit_identical():
    """Band-sampled timing (the out-of-cache path) agrees across engines."""
    spec = benchmark("box2d25p")
    config = LX2()
    results = {}
    for engine in ENGINES:
        mem = MemorySpace()
        src = Grid2D(mem, 512, 512, spec.radius, "A")
        dst = Grid2D(mem, 512, 512, spec.radius, "B")
        kernel = make_kernel("hstencil-prefetch", spec, src, dst, config)
        results[engine] = TimingEngine(config, engine=engine).run(kernel, sample=True)
    assert results["compiled"].to_dict() == results["reference"].to_dict()


def test_default_engine_is_compiled(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "compiled"
    assert TimingEngine(LX2()).engine == "compiled"
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert default_engine() == "reference"
    assert TimingEngine(LX2()).engine == "reference"


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        TimingEngine(LX2(), engine="turbo")
    with pytest.raises(ValueError, match="unknown engine"):
        FunctionalEngine().run_kernel(
            make_kernel("auto", benchmark("star2d5p"), *_grids(), LX2()), engine="turbo"
        )


def _grids():
    mem = MemorySpace()
    spec = benchmark("star2d5p")
    src = Grid2D(mem, 16, 16, spec.radius, "A")
    dst = Grid2D(mem, 16, 16, spec.radius, "B")
    return src, dst
