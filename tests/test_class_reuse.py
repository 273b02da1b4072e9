"""In-process reuse of fitted shape classes across kernels of one identity.

A :class:`~repro.kernels.template.TraceCompiler` keeps every class it
resolves in the program pool, keyed by the kernel's identity digest.  A
later compiler of an equal kernel adopts each class after one live emit
that must reproduce the class's signature and the addresses its affine
model predicts.  These tests pin the three halves of that contract: equal
kernels reuse every class with bit-identical counters and grids, kernels
that differ only in coefficient values or a coefficient-table base do not
reuse, and an entry whose model lies is demoted without changing a count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import make_kernel
from repro.kernels.template import TraceCompiler, compile_stats, reset_compile_stats
from repro.machine import compiled as compiled_mod
from repro.machine.compiled import clear_program_pool, program_pool_stats
from repro.machine.config import LX2, M4
from repro.machine.functional import FunctionalEngine
from repro.machine.memory import MemorySpace
from repro.machine.timing import SimMode, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark
from repro.stencils.reference import reference_stencil_2d
from tests.helpers import assert_matches_reference

MACHINES = {"LX2": LX2, "M4": M4}

#: Method and machine pairs with several shape classes each.
CASES = [("hstencil", "LX2"), ("vector-only", "LX2"), ("matrix-only", "M4"), ("auto", "M4")]


@pytest.fixture(autouse=True)
def _fresh_pool():
    clear_program_pool(reset_stats=True)
    reset_compile_stats()
    yield
    clear_program_pool(reset_stats=True)
    reset_compile_stats()


def _kernel(method, machine_name, spec=None, pad_words=0, rows=32, cols=32):
    """Kernel, memory space and destination grid.

    ``pad_words`` reserves memory between the grids and the coefficient
    tables, so only the tables' base addresses move.
    """
    spec = spec or benchmark("box2d9p")
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=5)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    if pad_words:
        mem.alloc(pad_words, name="pad")
    config = MACHINES[machine_name]()
    kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    return kernel, mem, dst


def _timing(kernel, engine="compiled"):
    return TimingEngine(kernel.config, SimMode(engine=engine)).run(
        kernel, sample=False, warm=True
    ).to_dict()


def _grid(kernel, mem, dst):
    FunctionalEngine(mem).run_kernel(kernel, engine="compiled")
    return dst.get_full().copy()


@pytest.mark.parametrize("method,machine_name", CASES)
def test_equal_identity_reuses_every_class(method, machine_name):
    kernel, mem, dst = _kernel(method, machine_name)
    fresh_counters = _timing(kernel)
    fitted = compile_stats()
    assert fitted["compiled_classes"] >= 2 and fitted["loaded_classes"] == 0

    entries = [e for b in compiled_mod._POOL._bundles.values() for e in b.classes.values()]
    demoted = sum(entry is None for entry in entries)

    kernel, mem, dst = _kernel(method, machine_name)
    reset_compile_stats()
    reused_counters = _timing(kernel)
    reused = compile_stats()
    assert reused_counters == fresh_counters
    assert reused["compiled_classes"] == 0 and reused["probe_emits"] == 0
    assert reused["loaded_classes"] == len(entries)
    assert reused["load_demotions"] == 0
    # One verify emit per adopted class; a demotion verdict needs none.
    assert reused["verify_emits"] == len(entries) - demoted

    # The functional grid check adopts the same classes: same grid as a
    # process that fits them itself.
    reset_compile_stats()
    kernel, mem, dst = _kernel(method, machine_name)
    reused_grid = _grid(kernel, mem, dst)
    assert compile_stats()["compiled_classes"] == 0
    clear_program_pool()
    kernel, mem, dst = _kernel(method, machine_name)
    assert np.array_equal(reused_grid, _grid(kernel, mem, dst))


@pytest.mark.parametrize(
    "variant",
    ["coefficients", "rodata-base"],
)
def test_kernels_differing_in_coefficients_or_rodata_do_not_reuse(variant):
    base = benchmark("box2d9p")
    _timing(_kernel("hstencil", "LX2", spec=base)[0])
    if variant == "coefficients":
        # Same name, taps and layout; only the coefficient values differ.
        kernel, mem, dst = _kernel("hstencil", "LX2", spec=base.scaled(0.5, name=base.name))
    else:
        kernel, mem, dst = _kernel("hstencil", "LX2", spec=base, pad_words=64)
    reset_compile_stats()
    counters = _timing(kernel)
    stats = compile_stats()
    assert stats["loaded_classes"] == 0 and stats["verify_emits"] == 0
    assert stats["compiled_classes"] >= 2
    assert counters == _timing(kernel, engine="reference")


@pytest.mark.parametrize("method,machine_name", [("hstencil", "LX2"), ("matrix-only", "M4")])
def test_tampered_entry_demotes_and_stays_exact(method, machine_name):
    _timing(_kernel(method, machine_name)[0])
    tampered = 0
    for bundle in compiled_mod._POOL._bundles.values():
        for cls, entry in bundle.classes.items():
            if entry is None:
                continue
            key0, addr0, deltas, signature = entry
            wrong = addr0.copy()
            wrong[0] += 1  # one word off: the model now lies for every block
            bundle.classes[cls] = (key0, wrong, deltas, signature)
            tampered += 1
    assert tampered >= 1

    kernel, mem, dst = _kernel(method, machine_name)
    reset_compile_stats()
    counters = _timing(kernel)
    stats = compile_stats()
    # A demoted interior class may widen the edge, after which the rest
    # is fitted live at the new width.
    assert stats["load_demotions"] >= 1
    assert counters == _timing(kernel, engine="reference")
    # Whatever the bundle now holds, an equal kernel's grid stays exact.
    kernel, mem, dst = _kernel(method, machine_name)
    grid = _grid(kernel, mem, dst)
    clear_program_pool()
    kernel, mem, dst = _kernel(method, machine_name)
    assert np.array_equal(grid, _grid(kernel, mem, dst))


def test_clear_program_pool_drops_the_classes():
    _timing(_kernel("hstencil", "LX2")[0])
    assert compiled_mod._POOL._bundles
    clear_program_pool()
    assert not compiled_mod._POOL._bundles
    reset_compile_stats()
    _timing(_kernel("hstencil", "LX2")[0])
    assert compile_stats()["loaded_classes"] == 0


def test_bundle_entries_share_the_pool_signature():
    """Entries hold the interned signature object the program pool keys
    on, never a copy of their own."""
    _timing(_kernel("hstencil", "LX2")[0])
    pooled = {id(key[1]) for key in compiled_mod._POOL._entries}
    for bundle in compiled_mod._POOL._bundles.values():
        for entry in bundle.classes.values():
            if entry is not None:
                assert id(entry[3]) in pooled


def test_equal_signatures_share_one_functional_program():
    """Templates of different kernels with equal signatures get one pooled
    functional program, lowered once, and both grids stay correct."""
    programs = {}
    templates = {}
    for rows in (32, 40):
        kernel, mem, dst = _kernel("hstencil", "LX2", rows=rows)
        compiler = TraceCompiler(kernel)
        for block in kernel.loop_nest():
            entry = compiler.lookup(block)
            if entry is not None:
                template = entry[0]
                templates.setdefault(template.signature, set()).add(template)
                programs.setdefault(template.signature, set()).add(
                    template.functional_program()
                )
        _grid(kernel, mem, dst)
        assert_matches_reference(
            dst.get_interior(), reference_stencil_2d(kernel.src.get_full(), kernel.spec)
        )
    assert any(len(group) > 1 for group in templates.values())
    assert all(len(group) == 1 for group in programs.values())
    assert program_pool_stats()["functional_builds"] == len(programs)
