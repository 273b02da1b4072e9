"""Bit-identity of band-periodic steady-state elision vs the full band walk.

``steady="on"`` lets :class:`~repro.machine.timing.TimingEngine` detect a
recurring machine state at band boundaries of a full (unsampled) run,
verify one extra period live under an armed static-line watch, and apply
the remaining bands arithmetically.  The contract is *exactness*: counters
and grids are bit-identical to walking every band, for every method,
machine and odd/tail-predicated grid shape — and any verification mismatch
demotes permanently back to the exact walk.  These tests enforce that
contract across the method registry, force the demotion path, pin the
multicore lockstep all-or-none rule, round-trip detected periods
through the compiled-artifact store (warm runs skip detection entirely),
and check that detection refuses without signatures where no recurrence
could have room to engage.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.kernels.template import RowTemplate
from repro.machine.artifacts import install_artifact_store
from repro.machine.cache import CacheHierarchy
from repro.machine.config import LX2, M4, CacheGeometry
from repro.machine.memory import MemorySpace
from repro.machine.multicore import MulticoreModel
from repro.machine.steady import SteadyController
from repro.machine.timing import (
    STEADY_MODES,
    TimingEngine,
    default_steady,
)
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

MACHINES = {"LX2": LX2, "M4": M4}

#: Odd interior heights (tail-predicated last band rides through the
#: periodic jump) with 16-aligned columns so the non-predicated methods
#: build on both machines; large enough that the moving span clears the
#: in-cache gate on both L2s.  Methods with their own shape constraints
#: (e.g. matrix-only needs row multiples) skip with the builder's reason.
GRIDS = [("box2d25p", 515, 512), ("star2d9p", 387, 512)]

#: Elided bands of every buildable LX2 cell on GRIDS.  No M4 cell on GRIDS
#: elides: its 16-band alignment period never fits the verify window plus
#: one more period after the first recurrence, so each refuses ``no-room``.
LX2_ELIDED = {
    ("box2d25p", "auto"): 256,
    ("box2d25p", "hstencil"): 32,
    ("box2d25p", "hstencil-noprefetch"): 32,
    ("box2d25p", "hstencil-nosched"): 32,
    ("box2d25p", "hstencil-prefetch"): 32,
    ("star2d9p", "auto"): 128,
    ("star2d9p", "hstencil"): 16,
    ("star2d9p", "hstencil-noprefetch"): 16,
    ("star2d9p", "hstencil-nosched"): 16,
    ("star2d9p", "hstencil-prefetch"): 16,
}

#: Per-machine grids on which the flagship method provably engages (M4's
#: larger L1 doubles the alignment period, so it needs the wider grid),
#: and the bands it elides there.
ENGAGE_GRIDS = {"LX2": ("box2d25p", 515, 512), "M4": ("box2d25p", 515, 515)}
ENGAGE_ELIDED = {"LX2": 32, "M4": 16}


def _build(method, machine_name, stencil, rows, cols, seed=11):
    """Kernel + config; raises ValueError when the method rejects the shape."""
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, rows, cols, spec.radius, "A", fill="random", seed=seed)
    dst = Grid2D(mem, rows, cols, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    return kernel, config


def _full(method, machine_name, steady, stencil, rows, cols):
    try:
        kernel, config = _build(method, machine_name, stencil, rows, cols)
    except ValueError as exc:
        pytest.skip(f"{method} on {machine_name} {stencil}: {exc}")
    engine = TimingEngine(config, engine="compiled", steady=steady)
    counters = engine.run(kernel, sample=False, warm=False)
    return counters, engine.steady_stats


@pytest.mark.parametrize("stencil,rows,cols", GRIDS, ids=[g[0] for g in GRIDS])
@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_steady_bit_identical_across_registry(method, machine_name, stencil, rows, cols):
    exact, _ = _full(method, machine_name, "off", stencil, rows, cols)
    elided, stats = _full(method, machine_name, "on", stencil, rows, cols)
    assert elided.to_dict() == exact.to_dict()
    # Elision may legitimately sit out (uncertifiable class, no recurrence,
    # no room) but it must never have *demoted*: a verified candidate that
    # fails its probe on these deterministic grids would be a soundness bug.
    assert stats.demoted == 0
    # Skipping signatures that cannot lead to an engagement must never
    # cost an elided band or change a verdict.
    if machine_name == "M4":
        assert (stats.elided_bands, stats.disabled) == (0, "no-room")
    else:
        assert stats.elided_bands == LX2_ELIDED[stencil, method]
        assert stats.disabled == ""


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
def test_steady_engages_and_elides_bands(machine_name):
    """The flagship method must actually take the fast path, not just match."""
    stencil, rows, cols = ENGAGE_GRIDS[machine_name]
    exact, _ = _full("hstencil", machine_name, "off", stencil, rows, cols)
    elided, stats = _full("hstencil", machine_name, "on", stencil, rows, cols)
    assert elided.to_dict() == exact.to_dict()
    assert stats.engaged >= 1
    assert stats.elided_bands == ENGAGE_ELIDED[machine_name]
    assert stats.disabled == ""


def test_steady_engages_on_lx2_auto_box2d25p():
    """auto keeps its row streams confirmed across bands, so their advance
    counts grow at every boundary; compared saturated at confirmation, the
    band state recurs and elision engages, still bit-identical."""
    exact, _ = _full("auto", "LX2", "off", "box2d25p", 384, 384)
    elided, stats = _full("auto", "LX2", "on", "box2d25p", 384, 384)
    assert elided.to_dict() == exact.to_dict()
    assert stats.elided_bands > 0
    assert stats.demoted == 0


@pytest.mark.parametrize(
    "method,rows,cols,max_sigs",
    [
        # 48 bands: no boundary can be the origin of a 16-band-aligned
        # recurrence that leaves a verify window and one more period.
        ("hstencil", 384, 384, 0),
        # 64 bands: only the few boundaries that could still start or
        # match a recurrence with room pay for a signature.
        ("auto", 515, 512, 8),
    ],
)
def test_no_room_refusal_takes_few_signatures(method, rows, cols, max_sigs):
    exact, _ = _full(method, "M4", "off", "box2d25p", rows, cols)
    elided, stats = _full(method, "M4", "on", "box2d25p", rows, cols)
    assert elided.to_dict() == exact.to_dict()
    assert stats.disabled == "no-room"
    assert stats.detect_sigs <= max_sigs


def test_forced_demotion_stays_exact(monkeypatch):
    """A mid-window static event must demote (permanently) and keep the
    counters identical to the all-band walk."""
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    exact, _ = _full("hstencil", "LX2", "off", stencil, rows, cols)

    original_start = SteadyController._start_verify

    def sabotaged_start(self, k, p, digest, delta, raw):
        original_start(self, k, p, digest, delta, raw)
        # Simulate a demand touch on a watched static line during the
        # verification window: the probe must fail and demote.
        self.pipe.hierarchy.static_watch_hits += 1

    monkeypatch.setattr(SteadyController, "_start_verify", sabotaged_start)
    elided, stats = _full("hstencil", "LX2", "on", stencil, rows, cols)

    assert stats.demoted >= 1
    assert stats.engaged == 0
    assert stats.disabled == "verify-mismatch"
    assert elided.to_dict() == exact.to_dict()


# ---------------------------------------------------------------------------
# Multicore lockstep
# ---------------------------------------------------------------------------

LOCK_ROWS, LOCK_COLS = 387, 389


def _lockstep_kernels(cores, machine_name="LX2", rows=LOCK_ROWS, cols=LOCK_COLS):
    """Independent per-core slice kernels (each with its own memory space)."""
    kernels = []
    for core in range(cores):
        kernel, config = _build(
            "hstencil", machine_name, "box2d25p", rows, cols, seed=11 + core
        )
        kernels.append(kernel)
    return kernels, config


def _solo_exact(kernel, config):
    engine = TimingEngine(config, engine="compiled", steady="off")
    return engine.run(kernel, sample=False, warm=False)


@pytest.mark.parametrize("cores", [1, 2, 4])
def test_lockstep_bit_identical_to_solo(cores):
    kernels, config = _lockstep_kernels(cores)
    solo = [_solo_exact(k, config) for k in kernels]

    mc = MulticoreModel(MACHINES["LX2"](), engine="compiled", steady="on")
    lock = mc.lockstep_slices(kernels, warm=False)

    assert len(lock) == cores
    for got, want in zip(lock, solo):
        assert got.to_dict() == want.to_dict()
    stats = mc.engine.lockstep_steady_stats
    assert stats is not None and len(stats) == cores
    # Symmetric slices reach readiness together: every core engages.
    assert all(s.engaged >= 1 for s in stats)
    assert all(s.demoted == 0 for s in stats)


@pytest.mark.parametrize("rows,cols", [(384, 384), (512, 512)])
def test_lockstep_no_room_takes_no_signatures(rows, cols):
    """On M4 no-room cells every core refuses without a signature: at the
    first interior boundary with 48 bands, at the origin bound with 64."""
    kernels, config = _lockstep_kernels(2, "M4", rows, cols)
    solo = [_solo_exact(k, config) for k in kernels]

    mc = MulticoreModel(MACHINES["M4"](), engine="compiled", steady="on")
    lock = mc.lockstep_slices(kernels, warm=False)

    for got, want in zip(lock, solo):
        assert got.to_dict() == want.to_dict()
    stats = mc.engine.lockstep_steady_stats
    assert [(s.disabled, s.detect_sigs) for s in stats] == [("no-room", 0)] * 2


def test_lockstep_single_demotion_disables_all_cores(monkeypatch):
    """One core failing its probe must abandon elision on *every* core
    (all-or-none), and all counters must stay exact."""
    kernels, config = _lockstep_kernels(2)
    solo = [_solo_exact(k, config) for k in kernels]

    original_start = SteadyController._start_verify
    sabotaged = []

    def sabotage_first(self, k, p, digest, delta, raw):
        original_start(self, k, p, digest, delta, raw)
        if not sabotaged:
            sabotaged.append(self)
            self.pipe.hierarchy.static_watch_hits += 1

    monkeypatch.setattr(SteadyController, "_start_verify", sabotage_first)

    mc = MulticoreModel(MACHINES["LX2"](), engine="compiled", steady="on")
    lock = mc.lockstep_slices(kernels, warm=False)

    for got, want in zip(lock, solo):
        assert got.to_dict() == want.to_dict()
    stats = mc.engine.lockstep_steady_stats
    assert sabotaged, "sabotage never reached a verification window"
    assert sum(s.demoted for s in stats) >= 1
    assert all(s.engaged == 0 for s in stats)
    assert all(s.disabled for s in stats)


# ---------------------------------------------------------------------------
# Artifact-store round trip
# ---------------------------------------------------------------------------


def test_steady_record_round_trip(tmp_path):
    """A verified period persists to the artifact store; a fresh engine
    (new process in spirit) runs in record mode with zero detection work
    and identical counters."""
    store = str(tmp_path / "artifacts")
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    try:
        cold = TimingEngine(LX2(), engine="compiled", steady="on", artifact_dir=store)
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        first = cold.run(kernel, sample=False, warm=False)
        cold_stats = cold.steady_stats
        assert cold_stats.engaged >= 1
        assert cold_stats.detect_sigs > 0
        assert not cold_stats.record_mode

        warm = TimingEngine(LX2(), engine="compiled", steady="on", artifact_dir=store)
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        second = warm.run(kernel, sample=False, warm=False)
        warm_stats = warm.steady_stats
        assert warm_stats.record_mode
        assert warm_stats.detect_sigs == 0
        assert warm_stats.record_probes >= 1
        assert warm_stats.engaged >= 1
        assert second.to_dict() == first.to_dict()
    finally:
        install_artifact_store(None)


# ---------------------------------------------------------------------------
# Occupancy: detection drops an origin once L2 holds more lines than it did
# there, which is exact only because resident line counts never fall.
# ---------------------------------------------------------------------------

CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "sw-prefetch", "hw-prefetch"]),
        st.integers(0, 48 * 8),  # word address: 48 lines over a few sets
        st.integers(1, 16),  # words: up to three lines per access
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(ops=CACHE_OPS, l1_ways=st.integers(2, 4), l2_ways=st.integers(2, 4))
def test_resident_lines_never_decrease(ops, l1_ways, l2_ways):
    config = dataclasses.replace(
        LX2(),
        l1=CacheGeometry(2 * l1_ways * 64, 64, l1_ways),
        l2=CacheGeometry(4 * l2_ways * 64, 64, l2_ways),
    )
    h = CacheHierarchy(config)
    before = (0, 0)
    for kind, addr, words in ops:
        if kind == "hw-prefetch":
            h.hardware_prefetch(addr // 8)
        elif kind == "sw-prefetch":
            h.software_prefetch(addr, words, write=False)
        else:
            h.demand_access(addr, words, write=kind == "store")
        now = (h.l1.resident_lines(), h.l2.resident_lines())
        assert now[0] >= before[0] and now[1] >= before[1], (kind, addr, words)
        before = now


def test_l2_lines_never_decrease_across_band_boundaries(monkeypatch):
    """The same invariant on the columnar replay's inlined cache paths,
    read at every band boundary of one exact M4 512x512 run."""
    counts = []
    original = TimingEngine._band_machinery

    def counting(self, kernel, pipe, nest):
        run_band, compiler = original(self, kernel, pipe, nest)

        def run_and_count(band):
            run_band(band)
            counts.append(pipe.hierarchy.l2.resident_lines())

        return run_and_count, compiler

    monkeypatch.setattr(TimingEngine, "_band_machinery", counting)
    kernel, config = _build("hstencil", "M4", "box2d25p", 512, 512)
    engine = TimingEngine(config, engine="compiled", steady="off")
    engine.run(kernel, sample=False, warm=False)
    assert len(counts) == len(kernel.loop_nest().bands())
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


# ---------------------------------------------------------------------------
# Two-frame check: no registry template is unclean, so the certificate's
# "nonuniform-template" rejection is pinned on hand-built address models.
# ---------------------------------------------------------------------------


def _words(*vals):
    return np.array(vals, dtype=np.int64)


FRAME_CASES = {
    # Three grid addresses move together; a coefficient table stays put.
    "clean-with-static": (
        _words(0, 8, 16, 4096),
        ((0, _words(64, 64, 64, 0)), (1, _words(8, 8, 8, 0))),
        True,
    ),
    # Each dimension has one stride, but they move different address sets.
    "dims-move-different-sets": (
        _words(0, 8, 16),
        ((0, _words(64, 64, 0)), (1, _words(0, 8, 8))),
        False,
    ),
    "nonconstant-stride": (_words(0, 8, 16), ((0, _words(64, 128, 64)),), False),
    "no-moving-address": (_words(0, 8, 4096), ((0, _words(0, 0, 0)),), True),
    "single-address": (_words(0), ((0, _words(64)), (1, _words(8))), True),
}


@pytest.mark.parametrize("addr0,deltas,clean", FRAME_CASES.values(), ids=list(FRAME_CASES))
def test_two_frame_check(addr0, deltas, clean):
    template = RowTemplate((), (0, 0), addr0, deltas, signature=())
    assert template.two_frame_clean is clean


# ---------------------------------------------------------------------------
# Mode selection and guard rails
# ---------------------------------------------------------------------------


class TestSteadySelection:
    def test_default_steady_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_STEADY", raising=False)
        assert default_steady() == "on"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEADY", "off")
        assert default_steady() == "off"
        assert TimingEngine(LX2()).steady == "off"

    def test_unknown_steady_rejected(self):
        with pytest.raises(ValueError, match="unknown steady"):
            TimingEngine(LX2(), steady="fast")

    def test_modes_are_exactly_the_documented_pair(self):
        assert STEADY_MODES == ("on", "off")

    def test_iters_under_sampling_names_the_fix(self):
        kernel, config = _build("hstencil", "LX2", "star2d9p", 33, 48)
        engine = TimingEngine(config, engine="compiled")
        with pytest.raises(ValueError, match=r"sample=False \(or --no-sample\)"):
            engine.run(kernel, sample=True, iters=2)
