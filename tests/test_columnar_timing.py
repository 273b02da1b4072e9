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

import dataclasses

import numpy as np
import pytest

from repro.kernels.base import KernelOptions
from repro.kernels.registry import METHODS, make_kernel
from repro.machine import columnar
from repro.machine.cache import OutsideNarrowedClone
from repro.machine.columnar import ColumnarReplayer
from repro.machine.config import LX2, M4, CacheGeometry
from repro.machine.memory import MemorySpace
from repro.machine.pipeline import PipelineModel
from repro.machine.timing import SamplePlan, SimMode, TimingEngine
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
    return TimingEngine(config, SimMode(engine=engine)).run(kernel, sample=True, plan=PLAN)


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


def test_second_run_replays_from_the_scoreboard_memo(monkeypatch):
    """A repeat run on one engine meets only recorded block contexts: it
    adds no memo entry, walks no program, and its counters still equal
    the reference walk, so the memo's hit path is exact across runs."""
    reference = _sampled("hstencil", "LX2", "box2d9p", 37, 29, "reference")
    kernel, config = _build("hstencil", "LX2", "box2d9p", 37, 29)
    engine = TimingEngine(config, SimMode(engine="compiled"))
    calls = {"phase": 0, "walk": 0}

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    for name, attr in (("phase", "_phase_scoreboard"), ("walk", "_scoreboard_walk")):
        monkeypatch.setattr(
            ColumnarReplayer, attr, counted(name, getattr(ColumnarReplayer, attr))
        )

    def memo_entries():
        return sum(len(table) for table in engine._columnar_share().memo.values())

    first = engine.run(kernel, sample=True, plan=PLAN)
    recorded = memo_entries()
    assert recorded == calls["walk"] > 0
    calls.update(phase=0, walk=0)
    second = engine.run(kernel, sample=True, plan=PLAN)
    assert calls["phase"] > 0 and calls["walk"] == 0
    assert memo_entries() == recorded
    assert first.to_dict() == reference.to_dict()
    assert second.to_dict() == reference.to_dict()


def test_probe_compares_static_watch_hits():
    """Steady verification windows engage on the watch count, so a
    columnar miscount of it must fail the probe like any other counter."""
    kernel, config = _build("hstencil", "LX2", "box2d9p", 37, 29)
    pipe = PipelineModel(config)
    pipe.process_trace(kernel.emit(next(iter(kernel.loop_nest().bands()[0]))))
    clone = pipe.clone()
    assert ColumnarReplayer._columnar_matches(clone, pipe)
    clone.hierarchy.static_watch_hits += 1
    assert not ColumnarReplayer._columnar_matches(clone, pipe)


# -- narrowed probes ------------------------------------------------------------


def _small_config():
    """LX2 with small caches: blocks evict, write dirty victims back and
    fill L2 from memory, so every channel a probe's reach covers is used."""
    return dataclasses.replace(
        LX2(), l1=CacheGeometry(4 * 1024, 64, 4), l2=CacheGeometry(32 * 1024, 64, 4)
    )


def _lines_of(replayer, program, addrs):
    """First and last line of every memop of one block, as the probe sees them."""
    plan = columnar._MemPlan(program)
    line_words = replayer.config.l1.line_bytes // 8
    starts = np.asarray(addrs, dtype=np.int64)[plan.m_ai] + plan.m_off
    return starts // line_words, (starts + plan.m_nw - 1) // line_words


def _walk_within_reach(replayer, program, addrs):
    """Run the scalar walk for one block; assert it left every set out of
    the block's reach untouched, and return how many such sets there were."""
    pipe = replayer.pipe
    levels = (pipe.hierarchy.l1, pipe.hierarchy.l2)
    reach = replayer._reach(*_lines_of(replayer, program, addrs))
    before = [[dict(ways) for ways in level._sets] for level in levels]
    pipe.process_template(program, addrs)
    outside_sets = 0
    for level, held, old in zip(levels, reach, before):
        outside = set(range(level.num_sets)) - set(held)
        assert all(level._sets[s] == old[s] for s in outside)
        outside_sets += len(outside)
    return outside_sets


@pytest.mark.parametrize("method", ["hstencil", "vector-only", "matrix-only", "auto"])
def test_probe_reach_covers_every_set_the_scalar_walk_touches(monkeypatch, method):
    """The narrowed probe copies and compares only the sets in reach, so
    the scalar walk must leave every other set exactly as it was."""
    monkeypatch.setattr(columnar, "NARROW_MAX_FRACTION", 1.0)
    config = _small_config()
    spec = benchmark("box2d9p")
    mem = MemorySpace()
    src = Grid2D(mem, 40, 64, spec.radius, "A", fill="random", seed=3)
    dst = Grid2D(mem, 40, 64, spec.radius, "B")
    kernel = make_kernel(method, spec, src, dst, config, KernelOptions(unroll_j=2))
    pipe = PipelineModel(config)
    replayer = ColumnarReplayer(kernel, config, pipe)
    outside = 0
    for block in kernel.loop_nest():
        entry = replayer.compiler.lookup(block)
        program = None if entry is None else entry[0].timing_program(config)
        if program is None:
            pipe.process_trace(kernel.emit(block))
            continue
        outside += _walk_within_reach(replayer, program, entry[1])
    assert outside > 0


def test_probe_reach_covers_dirty_victims(monkeypatch):
    """A fill may write back a dirty L1 victim that L2 no longer holds, into
    an L2 set none of the block's own lines maps to; the reach holds it."""
    monkeypatch.setattr(columnar, "NARROW_MAX_FRACTION", 1.0)
    kernel, config = _build("hstencil", "LX2", "box2d9p", 37, 29)
    pipe = PipelineModel(config)
    replayer = ColumnarReplayer(kernel, config, pipe)
    block = next(iter(kernel.loop_nest()))
    template, addrs = replayer.compiler.lookup(block)
    program = template.timing_program(config)
    l1, l2 = pipe.hierarchy.l1, pipe.hierarchy.l2
    firsts, lasts = _lines_of(replayer, program, addrs)
    own = {
        line % l2.num_sets
        for first, last in zip(firsts.tolist(), lasts.tolist())
        for line in range(first, last + 1)
    }
    # Fill every L1 set the block touches with dirty lines far from the
    # grids, each mapping to an L2 set the block's lines miss.
    far = 4096 * l2.num_sets
    spare = [s for s in range(l2.num_sets) if s not in own]
    victims = set()
    for s in sorted({f % l1.num_sets for f in firsts.tolist()}):
        free = [t for t in spare if t % l1.num_sets == s][: l1.assoc]
        for t in free:
            l1.install(far + t, dirty=True)
            victims.add(t)
    _walk_within_reach(replayer, program, addrs)
    written_back = {t for t in victims if (far + t) in l2._sets[t]}
    assert written_back


def test_narrowed_clone_refuses_sets_out_of_reach():
    config = LX2()
    pipe = PipelineModel(config)
    clone = pipe.clone([0, 3], [5])
    l1, l2 = clone.hierarchy.l1, clone.hierarchy.l2
    assert l1.held == [0, 3] and l2.held == [5]
    l2.install(5 + l2.num_sets)  # in reach
    with pytest.raises(OutsideNarrowedClone):
        l1.lookup(1)
    with pytest.raises(OutsideNarrowedClone):
        clone.hierarchy.demand_access(6 * (config.l1.line_bytes // 8), 1, write=False)
    assert pipe.clone().hierarchy.l2.held is None


def _held_sets(level):
    return level.held if level.held is not None else range(level.num_sets)


def _flip_dirty_bit(clone):
    l1 = clone.hierarchy.l1
    for s in _held_sets(l1):
        if l1._sets[s]:
            l1._dirty ^= {next(iter(l1._sets[s]))}
            return True
    return False


def _tick_off_by_one(clone):
    l2 = clone.hierarchy.l2
    for s in _held_sets(l2):
        ways = l2._sets[s]
        if ways:
            ways[next(reversed(ways))] += 1  # still ascending: LRU order kept
            return True
    return False


def _swap_stream_order(clone):
    streams = clone.prefetcher._streams
    if len(streams) < 2:
        return False
    items = list(streams.items())
    items[0], items[1] = items[1], items[0]
    streams.clear()
    streams.update(items)
    return True


@pytest.mark.parametrize(
    "mutate", [_flip_dirty_bit, _tick_off_by_one, _swap_stream_order],
    ids=["dirty-bit", "tick", "stream-order"],
)
def test_narrowed_probe_catches_state_mutations(monkeypatch, mutate):
    """A columnar replay that leaves a flipped dirty bit, an off-by-one
    LRU tick or a reordered stream table must fail the narrowed probe, and
    the demoted classes must keep counters identical to the reference."""
    reference = _sampled("hstencil", "LX2", "box2d9p", 37, 29, "reference")
    real = ColumnarReplayer._columnar_matches
    mutated = []

    def matches_after_mutation(clone, pipe):
        mutated.append(mutate(clone))
        return real(clone, pipe)

    monkeypatch.setattr(
        ColumnarReplayer, "_columnar_matches", staticmethod(matches_after_mutation)
    )
    demotions = _count_demotions(monkeypatch)
    columnar_run = _sampled("hstencil", "LX2", "box2d9p", 37, 29, "compiled")
    assert any(mutated)
    assert len(demotions) >= sum(mutated)
    assert columnar_run.to_dict() == reference.to_dict()


def test_narrowed_probe_catches_a_line_out_of_reach(monkeypatch):
    """A columnar memory phase that miscounts a line in an L2 set the block
    cannot touch fails its probe: the narrowed clone refuses the set."""
    reference = _sampled("hstencil", "LX2", "box2d9p", 37, 29, "reference")
    real = ColumnarReplayer._phase_memory
    escapes = []

    def phase_memory(self, plan, S_row, F_row, L_row, pipe):
        levels = real(self, plan, S_row, F_row, L_row, pipe)
        l2 = pipe.hierarchy.l2
        if l2.held is not None:
            outside = next(s for s in range(l2.num_sets) if s not in set(l2.held))
            escapes.append(outside)
            l2.install(outside + 7 * l2.num_sets)
        return levels

    monkeypatch.setattr(ColumnarReplayer, "_phase_memory", phase_memory)
    demotions = _count_demotions(monkeypatch)
    columnar_run = _sampled("hstencil", "LX2", "box2d9p", 37, 29, "compiled")
    assert escapes
    assert len(demotions) >= len(escapes)
    assert columnar_run.to_dict() == reference.to_dict()


def _count_demotions(monkeypatch):
    demotions = []
    original = ColumnarReplayer._demote

    def counting_demote(self, template, state):
        original(self, template, state)
        demotions.append(template)

    monkeypatch.setattr(ColumnarReplayer, "_demote", counting_demote)
    return demotions
