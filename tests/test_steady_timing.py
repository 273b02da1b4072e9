"""Bit-identity of band-periodic steady-state elision vs the full band walk.

``steady="on"`` lets :class:`~repro.machine.timing.TimingEngine` detect a
recurring machine state at band boundaries of a full (unsampled) run,
verify one extra period live under an armed static-line watch, and apply
the remaining bands arithmetically.  The contract is *exactness*: counters
and grids are bit-identical to walking every band, for every method,
machine and odd/tail-predicated grid shape — and any verification mismatch
demotes permanently back to the exact walk.  These tests enforce that
contract across the method registry, force the demotion path, check that
a verified window jumps at its own boundary, round-trip detected periods
through the artifact store (warm runs skip detection entirely),
and check that detection refuses without signatures where no recurrence
could have room to engage.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.kernels.template import RowTemplate
from repro.machine import steady as steady_mod
from repro.machine.artifacts import install_artifact_store
from repro.machine.cache import CacheHierarchy
from repro.machine.config import LX2, M4, CacheGeometry
from repro.machine.memory import MemorySpace
from repro.machine.steady import SteadyController
from repro.machine.timing import STEADY_MODES, SimMode, TimingEngine
from repro.stencils.grid import Grid2D
from repro.stencils.library import benchmark

from tests.helpers import assert_sets_in_lru_order

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
    engine = TimingEngine(config, SimMode(engine="compiled", steady=steady))
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
    # A verified window jumps at its own boundary.
    assert stats.verified == stats.engaged
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
    assert stats.verified == stats.engaged
    assert stats.elided_bands == ENGAGE_ELIDED[machine_name]
    assert stats.disabled == ""


def test_steady_engages_on_odd_column_count():
    """An odd row width (not on GRIDS) still engages without a demotion."""
    exact, _ = _full("hstencil", "LX2", "off", "box2d25p", 387, 389)
    elided, stats = _full("hstencil", "LX2", "on", "box2d25p", 387, 389)
    assert elided.to_dict() == exact.to_dict()
    assert stats.engaged >= 1
    assert stats.demoted == 0


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
        # 64 bands: refused at the origin bound, still before the first
        # signature.
        ("hstencil", 512, 512, 0),
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
# Artifact-store round trip
# ---------------------------------------------------------------------------


def test_steady_record_round_trip(tmp_path):
    """A verified period persists to the artifact store; a fresh engine
    (new process in spirit) runs in record mode with zero detection work
    and identical counters."""
    store = str(tmp_path / "artifacts")
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    try:
        cold = TimingEngine(LX2(), SimMode(artifact_dir=store))
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        first = cold.run(kernel, sample=False, warm=False)
        cold_stats = cold.steady_stats
        assert cold_stats.engaged >= 1
        assert cold_stats.detect_sigs > 0
        assert not cold_stats.record_mode

        warm = TimingEngine(LX2(), SimMode(artifact_dir=store))
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        second = warm.run(kernel, sample=False, warm=False)
        warm_stats = warm.steady_stats
        assert warm_stats.record_mode
        assert warm_stats.detect_sigs == 0
        assert warm_stats.record_probes >= 1
        assert warm_stats.engaged >= 1
        assert second.to_dict() == first.to_dict()
        # Record mode engages one period before live detection can.
        (record,) = cold._steady_records.values()
        assert warm_stats.elided_bands - cold_stats.elided_bands == record["period"]
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
    engine = TimingEngine(config, SimMode(engine="compiled", steady="off"))
    engine.run(kernel, sample=False, warm=False)
    assert len(counts) == len(kernel.loop_nest().bands())
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


# ---------------------------------------------------------------------------
# LRU order: every cache set keeps its keys oldest-first, so eviction takes
# the first key and signatures read recency order with no sort.  The
# hierarchy's own paths are checked against a list-based LRU in
# test_machine_cache.py; these read the invariant on the columnar replay's
# inlined paths and right after a periodic jump relocates the sets.
# ---------------------------------------------------------------------------


def test_sets_stay_in_lru_order_across_band_boundaries(monkeypatch):
    checked = []
    original = TimingEngine._band_machinery

    def checking(self, kernel, pipe, nest):
        run_band, compiler = original(self, kernel, pipe, nest)

        def run_and_check(band):
            run_band(band)
            assert_sets_in_lru_order(pipe.hierarchy)
            checked.append(band)

        return run_and_check, compiler

    monkeypatch.setattr(TimingEngine, "_band_machinery", checking)
    kernel, config = _build("hstencil", "M4", "box2d25p", 512, 512)
    engine = TimingEngine(config, SimMode(engine="compiled", steady="off"))
    engine.run(kernel, sample=False, warm=False)
    assert len(checked) == len(kernel.loop_nest().bands())


def test_sets_stay_in_lru_order_after_apply_jump(monkeypatch):
    jumps = []
    original = steady_mod.apply_jump

    def checking(pipe, static_lines, shift, m, delta):
        original(pipe, static_lines, shift, m, delta)
        assert_sets_in_lru_order(pipe.hierarchy)
        jumps.append(shift)

    monkeypatch.setattr(steady_mod, "apply_jump", checking)
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    _, stats = _full("hstencil", "LX2", "on", stencil, rows, cols)
    assert stats.engaged >= 1
    assert len(jumps) == stats.engaged


# ---------------------------------------------------------------------------
# Signature pins.  The zero-shift ``rebased_signature`` after every band,
# and every band-boundary ``rebased_signature`` (``off > 0``) the controller
# takes, along two runs, hashed in order.  Stored steady records and
# template bundles are keyed on these signatures, so a change to how cache
# state is serialized must reproduce them bit for bit.
# ---------------------------------------------------------------------------

#: (machine, stencil, size, iters) -> (trail digest, boundaries, rebased sigs)
SIGNATURE_PINS = {
    ("LX2", "box2d25p", 384, 1): (
        "1b350ead06c1b8c55259b90ff9d8c998d6638f443f7945c5129131aa11092a50",
        56,
        24,
    ),
    ("M4", "box2d9p", 64, 16): (
        "5c36f7b372b56a302b82326c6155b740c26b716761d68646000dd1e12cc2a115",
        128,
        0,
    ),
}


def _signature_trail(monkeypatch, machine_name, stencil, size, iters):
    trail = hashlib.sha256()
    counts = [0, 0]
    original_rebased = steady_mod.rebased_signature

    def recording_rebased(pipe, static_lines, off):
        sig = original_rebased(pipe, static_lines, off)
        if off > 0:
            trail.update(repr(("rebased", off, sig)).encode())
            counts[1] += 1
        return sig

    original_machinery = TimingEngine._band_machinery

    def recording(self, kernel, pipe, nest):
        run_band, compiler = original_machinery(self, kernel, pipe, nest)

        def run_and_record(band):
            run_band(band)
            band_sig = original_rebased(pipe, frozenset(), 0)
            trail.update(repr(("band", band_sig)).encode())
            counts[0] += 1

        return run_and_record, compiler

    monkeypatch.setattr(steady_mod, "rebased_signature", recording_rebased)
    monkeypatch.setattr(TimingEngine, "_band_machinery", recording)
    kernel, config = _build("hstencil", machine_name, stencil, size, size)
    engine = TimingEngine(config, SimMode(engine="compiled", steady="on"))
    engine.run(kernel, sample=False, iters=iters)
    return (trail.hexdigest(), *counts)


@pytest.mark.parametrize(
    "machine_name,stencil,size,iters", sorted(SIGNATURE_PINS), ids=str
)
def test_signature_trail_pinned(monkeypatch, machine_name, stencil, size, iters):
    got = _signature_trail(monkeypatch, machine_name, stencil, size, iters)
    assert got == SIGNATURE_PINS[machine_name, stencil, size, iters]


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
        assert SimMode.resolve().steady == "on"
        assert TimingEngine(LX2()).steady == "on"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_STEADY", "off")
        assert SimMode.resolve().steady == "off"
        assert TimingEngine(LX2()).steady == "off"
        # An explicit value beats the environment.
        assert SimMode.resolve(steady="on").steady == "on"

    def test_unknown_steady_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown steady"):
            SimMode(steady="fast")
        monkeypatch.setenv("REPRO_STEADY", "fast")
        with pytest.raises(ValueError, match="unknown steady"):
            SimMode.resolve()

    def test_modes_are_exactly_the_documented_pair(self):
        assert STEADY_MODES == ("on", "off")

    def test_iters_under_sampling_names_the_fix(self):
        kernel, config = _build("hstencil", "LX2", "star2d9p", 33, 48)
        engine = TimingEngine(config, SimMode(engine="compiled"))
        with pytest.raises(ValueError, match=r"sample=False \(or --no-sample\)"):
            engine.run(kernel, sample=True, iters=2)


# ---------------------------------------------------------------------------
# Certificate cost: refusals before static lines, keys only when needed
# ---------------------------------------------------------------------------

#: The perfbench cells: the 21 in-cache cells (64², Fig. 12/17) and the 6
#: out-of-cache cells (512², Fig. 15/18), which that benchmark runs both
#: exact and band-sampled.
INCACHE_CELLS = [
    (machine, method, stencil)
    for machine, methods in (
        ("LX2", ("vector-only", "matrix-only", "hstencil", "auto")),
        ("M4", ("matrix-only", "hstencil", "auto")),
    )
    for stencil in ("star2d9p", "box2d9p", "box2d25p")
    for method in methods
]
OOC_CELLS = [
    (machine, method, "box2d25p")
    for machine, methods in (
        ("LX2", ("matrix-only", "hstencil-noprefetch", "hstencil-prefetch")),
        ("M4", ("hstencil-nosched", "hstencil-noprefetch", "hstencil-prefetch")),
    )
    for method in methods
]


def _operand_walk_certificate(compiler, bands, config):
    """The certificate computed operand by operand over every block of
    the representative band: the oracle ``build_certificate`` must equal."""
    from repro.kernels.template import operand_extents
    from repro.machine.prefetcher import LINES_PER_PAGE

    edge = compiler.edge
    B = len(bands)
    if B < steady_mod.MIN_BANDS or B <= 2 * edge + 2:
        return None, "too-few-bands"
    keys = []
    for band in bands:
        k0s = {b.key[0] for b in band}
        if len(k0s) != 1:
            return None, "mixed-band-keys"
        keys.append(k0s.pop())
    step = keys[1] - keys[0]
    if step <= 0 or any(keys[i + 1] - keys[i] != step for i in range(B - 1)):
        return None, "nonuniform-band-keys"
    line_words = config.l1.line_bytes // 8
    d_words = None
    static_lines = set()
    moving_lo = moving_hi = None
    for block in bands[edge]:
        entry = compiler.lookup(block)
        if entry is None:
            return None, "untemplated-block"
        template, addrs = entry
        if not template.two_frame_clean:
            return None, "nonuniform-template"
        delta0 = next((delta for d, delta in template.deltas if d == 0), None)
        for aidx, lo, hi, writes in operand_extents(template.trace, addrs):
            v = 0 if delta0 is None else int(delta0[aidx])
            first, last = lo // line_words, (hi - 1) // line_words
            if v == 0:
                if writes:
                    return None, "static-store"
                static_lines.update(range(first, last + 1))
            else:
                if d_words is None:
                    d_words = v * step
                elif v * step != d_words:
                    return None, "mixed-strides"
                moving_lo = first if moving_lo is None else min(moving_lo, first)
                moving_hi = last if moving_hi is None else max(moving_hi, last)
    if compiler.edge != edge:
        return None, "edge-widened"
    if d_words is None or d_words <= 0:
        return None, "no-band-motion"
    if d_words % line_words:
        return None, "unaligned-stride"
    d_lines = d_words // line_words
    span_hi = moving_hi + (B - 1 - 2 * edge) * d_lines
    span_lines = span_hi - moving_lo + 1
    if span_lines <= steady_mod.SPAN_L2_FACTOR * config.l2.num_sets * config.l2.associativity:
        return None, "in-cache"
    page_lo = moving_lo // LINES_PER_PAGE - steady_mod.PAGE_MARGIN
    page_hi = span_hi // LINES_PER_PAGE + steady_mod.PAGE_MARGIN
    if any(page_lo <= ln // LINES_PER_PAGE <= page_hi for ln in static_lines):
        return None, "static-overlaps-moving"
    n1 = config.l1.num_sets
    a1 = n1 // math.gcd(d_lines, n1)
    ap = LINES_PER_PAGE // math.gcd(d_lines, LINES_PER_PAGE)
    align = a1 * ap // math.gcd(a1, ap)
    return steady_mod.BandCertificate(
        edge, d_lines, align, frozenset(static_lines), span_lines
    ), ""


def _perfbench_kernel(machine_name, method, stencil, size):
    spec = benchmark(stencil)
    config = MACHINES[machine_name]()
    mem = MemorySpace()
    src = Grid2D(mem, size, size, spec.radius, "A")
    dst = Grid2D(mem, size, size, spec.radius, "B")
    return make_kernel(method, spec, src, dst, config, KernelOptions()), config


@pytest.mark.parametrize(
    "cell,size",
    [(c, 64) for c in INCACHE_CELLS] + [(c, 512) for c in OOC_CELLS],
    ids=[f"{'-'.join(c)}-64" for c in INCACHE_CELLS] + [f"{'-'.join(c)}-512" for c in OOC_CELLS],
)
def test_certificate_equals_the_operand_walk(cell, size):
    from repro.kernels.template import TraceCompiler

    kernel, config = _perfbench_kernel(*cell, size)
    nest = kernel.loop_nest()
    compiler = TraceCompiler(kernel, nest=nest, config=config)
    bands = nest.bands()
    for band in bands[: compiler.edge + 2]:
        for block in band:
            compiler.lookup(block)
    expected = _operand_walk_certificate(compiler, bands, config)
    assert steady_mod.build_certificate(compiler, bands, config) == expected
    assert expected[1] == ("in-cache" if size == 64 else "")


@pytest.mark.parametrize("cell", INCACHE_CELLS + OOC_CELLS, ids="-".join)
def test_steady_stats_equal_the_operand_walk(monkeypatch, cell):
    """The whole exact run, not just the first certificate: verdict
    reasons and every ``SteadyStats`` field match the operand-walk oracle
    (band-sampled runs take no certificate)."""
    size, iters = (64, 16) if cell in INCACHE_CELLS else (512, 1)
    runs = []
    for certify in (steady_mod.build_certificate, _operand_walk_certificate):
        monkeypatch.setattr(steady_mod, "build_certificate", certify)
        kernel, config = _perfbench_kernel(*cell, size)
        engine = TimingEngine(config, SimMode(steady="on"))
        counters = engine.run(kernel, sample=False, warm=size == 64, iters=iters)
        runs.append((counters.to_dict(), engine.steady_stats))
    assert runs[0] == runs[1]


def test_in_cache_cell_takes_no_record_key(monkeypatch):
    """The steady record key is a digest of the whole bundle identity; a
    cell whose certificate is refused never reads a record, so it must
    not take the key either."""
    calls = []
    real = steady_mod.steady_record_key

    def counting(compiler):
        calls.append(compiler)
        return real(compiler)

    monkeypatch.setattr(steady_mod, "steady_record_key", counting)
    kernel, config = _perfbench_kernel("M4", "hstencil", "box2d9p", 64)
    engine = TimingEngine(config, SimMode(steady="on"))
    engine.run(kernel, sample=False, iters=16)
    assert engine.steady_stats.disabled == "in-cache"
    assert calls == []


def test_out_of_cache_record_round_trips_with_a_lazy_key(monkeypatch):
    """An engaging LX2 cell still stores its record under the key and a
    second run of the same engine serves it, with identical counters."""
    calls = []
    real = steady_mod.steady_record_key

    def counting(compiler):
        calls.append(compiler)
        return real(compiler)

    monkeypatch.setattr(steady_mod, "steady_record_key", counting)
    stencil, rows, cols = ENGAGE_GRIDS["LX2"]
    engine = TimingEngine(LX2(), SimMode(steady="on"))
    results = []
    for _ in range(2):
        kernel, _ = _build("hstencil", "LX2", stencil, rows, cols)
        counters = engine.run(kernel, sample=False, warm=False)
        results.append((counters.to_dict(), engine.steady_stats))
    (first, cold), (second, warm) = results
    assert cold.engaged >= 1 and not cold.record_mode
    assert warm.record_mode and warm.detect_sigs == 0 and warm.engaged >= 1
    assert second == first
    # One key per run: taken at the record store, then at the lookup.
    assert len(calls) == 2
