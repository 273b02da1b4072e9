"""Shared helpers for the test suite (importable module)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.machine.config import LX2, M4, MachineConfig
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.stencils.grid import Grid2D, Grid3D
from repro.stencils.reference import reference_stencil_2d, reference_stencil_3d
from repro.stencils.spec import StencilSpec


def run_method_2d(
    method: str,
    spec: StencilSpec,
    config: MachineConfig,
    rows: int = 16,
    cols: int = 32,
    options: Optional[KernelOptions] = None,
    seed: int = 11,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a kernel functionally on a random 2D grid; return (got, ref)."""
    memspace = MemorySpace()
    src = Grid2D(memspace, rows, cols, spec.radius, "A", fill="random", seed=seed)
    dst = Grid2D(memspace, rows, cols, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config, options or KernelOptions(unroll_j=2))
    engine = FunctionalEngine(memspace)
    engine.run_kernel(kernel)
    return dst.get_interior(), reference_stencil_2d(src.get_full(), spec)


def run_method_3d(
    method: str,
    spec: StencilSpec,
    config: MachineConfig,
    depth: int = 4,
    rows: int = 16,
    cols: int = 32,
    options: Optional[KernelOptions] = None,
    seed: int = 13,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run a kernel functionally on a random 3D grid; return (got, ref)."""
    memspace = MemorySpace()
    src = Grid3D(memspace, depth, rows, cols, spec.radius, "A", fill="random", seed=seed)
    dst = Grid3D(memspace, depth, rows, cols, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config, options or KernelOptions(unroll_j=2))
    engine = FunctionalEngine(memspace)
    engine.run_kernel(kernel)
    return dst.get_interior(), reference_stencil_3d(src.get_full(), spec)


def assert_matches_reference(got: np.ndarray, ref: np.ndarray, rtol: float = 1e-11) -> None:
    """Assert kernel output equals the NumPy reference up to FP reassociation."""
    scale = max(float(np.max(np.abs(ref))), 1e-30)
    err = float(np.max(np.abs(got - ref))) / scale
    assert err < rtol, f"max relative error {err:.3e} exceeds {rtol}"


def assert_sets_in_lru_order(hierarchy) -> None:
    """Every cache set's key order is its LRU order: ticks strictly ascend.

    Eviction takes a set's first key, and signatures read recency order
    straight off the dicts, so both are exact only while this holds.
    """
    for level in (hierarchy.l1, hierarchy.l2):
        for index, ways in enumerate(level._sets):
            ticks = list(ways.values())
            assert all(a < b for a, b in zip(ticks, ticks[1:])), (
                level.name,
                index,
                list(ways.items()),
            )
