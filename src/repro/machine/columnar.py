"""Columnar timing replay: the compiled engine's only band runner.

Out-of-cache grids are where the simulator spends its time: cache state
never recurs, so the pass-boundary jump never fires and every
instruction of every sampled band takes a scalar Python trip through the
scoreboard, the cache hierarchy and the prefetcher.  This
module reorganizes that walk the same way the vectorization literature
reorganizes stencil loops — hoist the regular part out and batch it:

* **Address-stream precomputation.**  Template replay already proves a
  per-class affine address model (:mod:`repro.kernels.template`), so for a
  *run* of consecutive same-template blocks the full word-address stream —
  every memop's start address and first/last cache line — is computed as
  one NumPy expression over the whole run instead of per-instruction
  integer arithmetic inside the walk.

* **Phase split.**  The memory subsystem (caches + stream prefetcher)
  never reads scoreboard state, and the scoreboard reads memory behaviour
  only through one number per load step (the worst level reached).  Each
  block therefore splits exactly into a *memory phase* — a tight loop over
  just the precomputed memory operations, mirroring the scalar template
  walk's cache/prefetcher handling operation-for-operation and emitting
  the per-load level vector — and a *scoreboard phase* consuming that
  vector.

* **Scoreboard memoization.**  The scoreboard recurrence is a pure,
  translation-invariant function of its relative entry context (live-in
  slot offsets past the frontier, port-pipe offsets/rank order, issue-slot
  state) and the level vector.  Each program keeps one table keyed by a
  block's context and level vector.  In the steady state of a band the same
  context recurs block after block, so phase two collapses to a dictionary
  hit that applies the recorded relative outputs — the same exact-key
  discipline as the pass-boundary jump, needing no verification; a miss
  walks the whole program once and records it.

* **Probe-verify / demote.**  Although both phases are constructed to be
  bit-identical to the scalar template walk, the replay still follows the
  established safety pattern: per shape class it replays a representative
  block, a steady-state (mid-run) block and a band-boundary block — plus a
  periodic re-probe — on a *cloned* pipeline, runs the scalar template
  walk on the real one, and compares counters, cache/prefetcher/scoreboard
  state signatures and absolute issue state.  Any mismatch permanently
  demotes the class to the scalar template walk (whose result is already
  in place, so a failed probe costs nothing but the clone).

The scalar template walk is this module's private oracle and fallback,
not a mode anyone selects: :meth:`ColumnarReplayer._probe` and
:meth:`ColumnarReplayer._run_scalar_template` are its only callers.  It
stays, rather than probing against ``process_trace(kernel.emit(block))``,
because emit is the dearer oracle: probing that way cost about 3x the
probe time per 128² cell (LX2 hstencil box2d25p 0.038 → 0.113 s of a
0.18 s cell) and 21-57% on the perfbench end-to-end metrics.

This replay serves every band the compiled engine walks: the
band-sampled path *and* full simulations' passes (the in-cache first
pass that the pass-boundary jump cannot skip).
:class:`~repro.machine.timing.TimingEngine` drives one
:class:`ColumnarReplayer` per run, but all runs of one engine share a
:class:`ColumnarShare`: memory plans and the scoreboard memo are
keyed on (pooled) program identity and relative context only, so a
multicore sweep evaluates each distinct slice height against the same
warmed state instead of rebuilding it per height.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.program import Kernel, KernelBlock
from repro.kernels.template import RowTemplate, TraceCompiler
from repro.machine.batched import template_runs
from repro.machine.compiled import (
    K_LOAD,
    K_PRFM,
    K_STORE,
    N_SLOTS,
    SCOREBOARD_KEYS,
    SLOT_OF,
    TimingProgram,
)
from repro.machine.cache import CacheLevel, OutsideNarrowedClone
from repro.machine.config import MachineConfig
from repro.machine.pipeline import PipelineModel
from repro.machine.prefetcher import LINES_PER_PAGE, _Stream

#: Columnar-replayed blocks of a class between defensive periodic re-probes
#: (on top of the representative / steady-state / band-boundary probes).
REPROBE_INTERVAL = 256

#: A probe clones (and compares) a cache level whole once more than this
#: share of its sets is in the probed block's reach: copying set by set
#: then costs more than the bulk copy saves.  Both are equally strict.
NARROW_MAX_FRACTION = 0.5


def _pipes_key(vals: List[int], f0: int) -> Tuple[int, ...]:
    """Port-pipe context: exact offsets past the frontier, rank order below.

    Pipes still busy past the entry frontier matter exactly (they can stall
    issue), so they key by offset.  Pipes at or before the frontier can
    never stall, but their *relative order* (including ties) still decides
    which pipe the least-loaded choice picks, so they key by dense rank,
    encoded negatively to stay disjoint from the offsets.
    """
    n = len(vals)
    if n == 1:
        p = vals[0]
        return ((p - f0) if p > f0 else -1,)
    stale = sorted({p for p in vals if p <= f0})
    return tuple((p - f0) if p > f0 else stale.index(p) - n for p in vals)


def _held_sets_match(clone: CacheLevel, level: CacheLevel) -> bool:
    """Whether ``clone`` holds the same sets as ``level`` wherever it holds one."""
    held = clone.held
    if held is None:
        return clone._sets == level._sets
    if not held:
        return True
    pick = itemgetter(*held)
    return pick(clone._sets) == pick(level._sets)


class _MemPlan:
    """Per-program memory plan: flattened memops + step-level op list.

    ``m_ai``/``m_off``/``m_nw`` are parallel arrays over every memory
    operand of the program (loads, stores and prefetches), so a run's full
    address stream is ``addrs[:, m_ai] + m_off`` — one vectorized int64
    expression.  ``ops`` keeps the step structure the walk needs: which
    flattened range belongs to which load/store step (levels aggregate per
    step) and each prefetch's length/write flag.

    ``live_in`` and ``write_union`` frame the scoreboard phase: the slots
    read before written anywhere in the program (the only entry values
    the walk can observe, and so the only ones its memo key holds) and
    the slots written anywhere (the only ones a memo entry records).
    """

    __slots__ = (
        "m_ai",
        "m_off",
        "m_nw",
        "ops",
        "live_in",
        "write_union",
    )

    def __init__(self, program: TimingProgram) -> None:
        m_ai: List[int] = []
        m_off: List[int] = []
        m_nw: List[int] = []
        ops: List[Tuple] = []
        for _dep, _wr, _port, _lat, _ii, kind, memops in program.steps:
            if not kind:
                continue
            if kind == K_PRFM:
                addr_idx, length, wr = memops
                ops.append((K_PRFM, len(m_ai), length, wr))
                m_ai.append(addr_idx)
                m_off.append(0)
                m_nw.append(length)
            else:
                lo = len(m_ai)
                for addr_idx, offset, nwords in memops:
                    m_ai.append(addr_idx)
                    m_off.append(offset)
                    m_nw.append(nwords)
                # Uniform 4-tuples so the memory phase unpacks every op in
                # one UNPACK_SEQUENCE (the trailing 0 pads load/store ops).
                ops.append((kind, lo, len(m_ai), 0))
        self.m_ai = np.asarray(m_ai, dtype=np.int64)
        self.m_off = np.asarray(m_off, dtype=np.int64)
        self.m_nw = np.asarray(m_nw, dtype=np.int64)
        self.ops = tuple(ops)

        written: set = set()
        live: set = set()
        for dep_slots, write_slots, _port, _lat, _ii, _kind, _memops in program.steps:
            for s in dep_slots:
                if s not in written:
                    live.add(s)
            written.update(write_slots)
        self.live_in = tuple(sorted(live))
        self.write_union = tuple(sorted(written))


class ColumnarShare:
    """Cross-run columnar state: memory plans and one scoreboard memo per program.

    Everything here is keyed on :class:`TimingProgram` identity, and
    programs are pooled per ``(config, structural signature)``
    (:func:`repro.machine.compiled.pooled_timing_program`); the memo keys
    themselves are purely relative (translation-invariant contexts).  One
    share is therefore sound across kernels, passes, runs and multicore
    slice heights *of the same config* — which is exactly the lifetime of a
    :class:`~repro.machine.timing.TimingEngine`, the object that owns one.
    Replayers constructed without an explicit share get a private one.
    """

    __slots__ = ("plans", "memo")

    def __init__(self) -> None:
        #: program -> flattened memory plan.
        self.plans: Dict[TimingProgram, _MemPlan] = {}
        #: program -> {relative block entry context -> relative outputs}.
        self.memo: Dict[TimingProgram, Dict[Tuple, Tuple]] = {}

    def drop(self, program: TimingProgram) -> None:
        """Forget everything recorded for ``program`` (demotion path)."""
        self.plans.pop(program, None)
        self.memo.pop(program, None)


class _ClassState:
    """Probe/demotion lifecycle of one shape class (one template)."""

    __slots__ = ("demoted", "probed", "first_band", "since_probe")

    def __init__(self, first_band: int) -> None:
        self.demoted = False
        #: Probe kinds already passed: "rep", "steady", "band".
        self.probed: set = set()
        self.first_band = first_band
        self.since_probe = 0


class ColumnarReplayer:
    """Band-at-a-time columnar replay driver for one kernel run.

    Owns the kernel's :class:`~repro.kernels.template.TraceCompiler` and
    (a view of) a :class:`ColumnarShare`; mutates the supplied pipe exactly
    as the scalar per-block walk would (bit-identical counters and state,
    enforced by the probe lifecycle and ``tests/test_columnar_timing.py``).
    """

    def __init__(
        self,
        kernel: Kernel,
        config: MachineConfig,
        pipe: PipelineModel,
        nest=None,
        compiler: Optional[TraceCompiler] = None,
        share: Optional[ColumnarShare] = None,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.pipe = pipe
        self.compiler = compiler or TraceCompiler(kernel, nest=nest, config=config)
        self.share = share if share is not None else ColumnarShare()
        self._plans = self.share.plans
        self._memo = self.share.memo
        self._classes: Dict[RowTemplate, _ClassState] = {}
        self._band_no = 0
        self._line_words = config.l1.line_bytes // 8
        pf = pipe.prefetcher
        #: Line offsets a demand line's stream may fill (see :meth:`_reach`).
        self._ahead = np.arange(pf.depth + 1 if pf.enabled and pf.num_streams > 0 else 1)
        self._penalty = (
            0,
            0,
            config.l2_load_latency - config.l1_load_latency,
            config.mem_load_latency - config.l1_load_latency,
        )
        #: Persistent scoreboard slot array, synchronized with the pipe's
        #: ``_ready`` dict lazily (``_slots_stale`` marks which side wins).
        self._slots = [0] * N_SLOTS
        self._slots_stale = True

        # Lifecycle statistics (exposed for tests and diagnostics).
        self.columnar_blocks = 0
        self.scalar_blocks = 0
        self.verifications = 0
        self.demotions = 0

    # -- scoreboard slot synchronization -------------------------------------

    def _sync_slots(self) -> None:
        """Refresh the slot array from the pipe's ready dict if stale."""
        if not self._slots_stale:
            return
        slots = self._slots
        for i in range(N_SLOTS):
            slots[i] = 0
        slot_of_get = SLOT_OF.get
        for key, val in self.pipe._ready.items():
            idx = slot_of_get(key)
            if idx is not None:
                slots[idx] = val
        self._slots_stale = False

    def _writeback_slots(self) -> None:
        """Flush the slot array into the ready dict (scalar walk entry)."""
        if self._slots_stale:
            return
        ready = self.pipe._ready
        slots = self._slots
        for i in range(N_SLOTS):
            v = slots[i]
            if v:
                ready[SCOREBOARD_KEYS[i]] = v

    # -- band driver ----------------------------------------------------------

    def process_band(self, band: Sequence[KernelBlock]) -> None:
        """Process one outer-loop band, bit-identically to the scalar walk."""
        band_no = self._band_no
        self._band_no += 1
        compiler = self.compiler
        config = self.config
        # Lookups are pipe-independent, so resolving the whole band up
        # front (same order as the scalar walk) lets runs of consecutive
        # same-template blocks share one vectorized address computation.
        entries = [compiler.lookup(block) for block in band]
        for template, i, j in template_runs(entries):
            program = None if template is None else template.timing_program(config)
            if program is None:
                for k in range(i, j):
                    self._run_scalar_trace(band[k])
                continue
            state = self._classes.get(template)
            if state is None:
                state = _ClassState(band_no)
                self._classes[template] = state
            if state.demoted:
                for k in range(i, j):
                    self._run_scalar_template(program, entries[k][1])
                continue
            self._run_columnar(template, program, state, entries, i, j, band_no)
        # Leave the pipe fully consistent at band boundaries (snapshots and
        # state signatures are taken between bands).
        self._writeback_slots()

    # -- scalar fallbacks ------------------------------------------------------

    def _run_scalar_trace(self, block: KernelBlock) -> None:
        self._writeback_slots()
        self._slots_stale = True
        self.pipe.process_trace(self.kernel.emit(block))
        self.scalar_blocks += 1

    def _run_scalar_template(self, program: TimingProgram, addrs: Sequence[int]) -> None:
        self._writeback_slots()
        self._slots_stale = True
        self.pipe.process_template(program, addrs)
        self.scalar_blocks += 1

    # -- columnar run ----------------------------------------------------------

    def _run_columnar(
        self,
        template: RowTemplate,
        program: TimingProgram,
        state: _ClassState,
        entries: List,
        i: int,
        j: int,
        band_no: int,
    ) -> int:
        """Replay run ``entries[i:j]`` columnar; returns the next index."""
        plan = self._plans.get(program)
        if plan is None:
            plan = self._plans[program] = _MemPlan(program)

        # Vectorized address-stream precomputation for the whole run: the
        # start word address, first line and last line of every memop of
        # every block, as plain nested lists for the interpreter loop.
        nb = j - i
        addr_mat = np.asarray([entries[k][1] for k in range(i, j)], dtype=np.int64)
        starts = addr_mat[:, plan.m_ai] + plan.m_off
        firsts = starts // self._line_words
        lasts = (starts + (plan.m_nw - 1)) // self._line_words
        starts_l = starts.tolist()
        firsts_l = firsts.tolist()
        lasts_l = lasts.tolist()

        pipe = self.pipe
        for k in range(nb):
            probe = self._due_probe(state, band_no, k, nb)
            if probe is not None:
                ok = self._probe(
                    template, program, plan, state, probe,
                    entries[i + k][1], starts_l[k], firsts_l[k], lasts_l[k],
                    self._reach(firsts[k], lasts[k]),
                )
                if not ok:
                    # Demoted: the scalar walk already advanced the real
                    # pipe past the probed block; finish the run scalar.
                    for kk in range(k + 1, nb):
                        self._run_scalar_template(program, entries[i + kk][1])
                    return j
                continue
            state.since_probe += 1
            self._sync_slots()
            levels = self._phase_memory(plan, starts_l[k], firsts_l[k], lasts_l[k], pipe)
            self._phase_scoreboard(program, plan, levels, pipe, self._slots)
            self.columnar_blocks += 1
        return j

    def _due_probe(self, state: _ClassState, band_no: int, k: int, nb: int) -> Optional[str]:
        probed = state.probed
        if "rep" not in probed:
            return "rep"  # representative: first block of the class
        if "steady" not in probed and nb >= 3 and k == nb // 2:
            return "steady"  # steady state: middle of an interior run
        if "band" not in probed and band_no != state.first_band:
            return "band"  # band boundary: first block in a later band
        if state.since_probe >= REPROBE_INTERVAL:
            return "periodic"
        return None

    # -- probe-verify / demote -------------------------------------------------

    def _probe(
        self,
        template: RowTemplate,
        program: TimingProgram,
        plan: _MemPlan,
        state: _ClassState,
        kind: str,
        addrs: Sequence[int],
        S_row: List[int],
        F_row: List[int],
        L_row: List[int],
        reach: Tuple[List[int], List[int]],
    ) -> bool:
        """Columnar on a clone vs scalar on the real pipe; demote on mismatch.

        Running the scalar walk on the *real* pipe means its (trusted)
        result is already in place whichever way the comparison goes; on a
        match the clone is byte-for-byte the same state, so continuing
        columnar afterwards is seamless.

        The clone is *narrowed* to ``reach``, the L1 and L2 sets the block
        can touch (:meth:`_reach`): only those are copied and compared.
        The scalar walk touches no other set, and the columnar walk cannot
        touch one either: every other set of the clone is
        :data:`~repro.machine.cache.UNTOUCHABLE`, so an access outside the
        prediction fails the probe instead of passing unseen.
        """
        self.verifications += 1
        pipe = self.pipe
        self._writeback_slots()
        self._slots_stale = True

        clone = pipe.clone(*reach)
        clone_slots = [0] * N_SLOTS
        slot_of_get = SLOT_OF.get
        for key, val in clone._ready.items():
            idx = slot_of_get(key)
            if idx is not None:
                clone_slots[idx] = val
        try:
            levels = self._phase_memory(plan, S_row, F_row, L_row, clone)
        except OutsideNarrowedClone:
            escaped = True
        else:
            escaped = False
            self._phase_scoreboard(program, plan, levels, clone, clone_slots)
            ready = clone._ready
            for i in range(N_SLOTS):
                v = clone_slots[i]
                if v:
                    ready[SCOREBOARD_KEYS[i]] = v

        pipe.process_template(program, addrs)
        self.scalar_blocks += 1

        if not escaped and self._columnar_matches(clone, pipe):
            state.probed.add(kind)
            state.since_probe = 0
            return True
        self._demote(template, state)
        return False

    def _reach(
        self, firsts: np.ndarray, lasts: np.ndarray
    ) -> Tuple[Optional[List[int]], Optional[List[int]]]:
        """The L1 and L2 sets one block can touch, as probe clone bounds.

        ``firsts``/``lasts`` bound the lines of each of the block's memops
        (demand accesses and software prefetches).  The scalar walk reaches
        a cache set through exactly these channels:

        * the memops' own lines, in both levels;
        * hardware-prefetch fills: a demand line advances at most one
          stream, which fills at most ``depth`` lines ahead of it;
        * dirty L1 victims: a fill of an L1 set may write back any dirty
          line resident in it, into that line's L2 set.  Lines the block
          dirties itself are its own memop lines.

        An L2 eviction stays inside the set being filled.  Per level the
        result is the ascending set indices, or ``None`` (clone and compare
        the whole level) when more than :data:`NARROW_MAX_FRACTION` of its
        sets are in reach and narrowing would cost more than it saves.
        """
        hierarchy = self.pipe.hierarchy
        l1 = hierarchy.l1
        n1 = l1.num_sets
        n2 = hierarchy.l2.num_sets
        lines = np.concatenate((firsts, lasts))
        if int((lasts - firsts).max()) > 1:
            wide = np.flatnonzero(lasts - firsts > 1)
            spans = [np.arange(firsts[i], lasts[i] + 1) for i in wide.tolist()]
            lines = np.concatenate([lines] + spans)
        lines = (lines[:, None] + self._ahead).ravel()
        in_l1 = np.zeros(n1, dtype=bool)
        in_l1[lines % n1] = True
        in_l2 = np.zeros(n2, dtype=bool)
        in_l2[lines % n2] = True
        dirty = l1._dirty
        if dirty:
            victims = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
            in_l2[victims[in_l1[victims % n1]] % n2] = True
        held = []
        for mask, n in ((in_l1, n1), (in_l2, n2)):
            sets = np.flatnonzero(mask)
            held.append(None if len(sets) > NARROW_MAX_FRACTION * n else sets.tolist())
        return held[0], held[1]

    @staticmethod
    def _columnar_matches(clone: PipelineModel, pipe: PipelineModel) -> bool:
        """Full structural state comparison of the columnar and scalar pipes.

        Because the clone starts as an exact copy (including absolute LRU
        ticks) and both sides then process the same block, a correct replay
        leaves *identical* absolute state — so this compares raw structures
        directly, which is both stricter and much cheaper than building the
        normalized ``rebased_signature`` tuples.  Cache sets compare with dict
        ``==``, which ignores key order; that is still order-exact because
        every set keeps its keys in ascending-tick (LRU) order and ticks are
        unique, so equal line->tick maps have equal orders.  A narrowed
        clone's sets are compared where it holds them (see
        :meth:`_probe`); ticks, dirty sets and statistics always whole.
        Stream-table order matters (LRU eviction) and carries no ticks,
        hence the item-list comparison.  ``static_watch_hits`` decides
        whether a steady verification window engages, so it is compared
        like every other counter.
        """
        ch, ph = clone.hierarchy, pipe.hierarchy
        cf, pf = clone.prefetcher, pipe.prefetcher
        return (
            clone._frontier == pipe._frontier
            and clone._cycle == pipe._cycle
            and clone._issued_this_cycle == pipe._issued_this_cycle
            and clone.makespan == pipe.makespan
            and clone._port_free == pipe._port_free
            and clone._ready == pipe._ready
            and clone.instructions_retired == pipe.instructions_retired
            and clone.instructions_by_port == pipe.instructions_by_port
            and clone.flops == pipe.flops
            and clone.useful_flops == pipe.useful_flops
            and clone.sw_prefetches == pipe.sw_prefetches
            and ch.static_watch_hits == ph.static_watch_hits
            and ch.mem_lines_read == ph.mem_lines_read
            and ch.mem_lines_written == ph.mem_lines_written
            and ch.l1._tick == ph.l1._tick
            and _held_sets_match(ch.l1, ph.l1)
            and ch.l1._dirty == ph.l1._dirty
            and ch.l1.stats == ph.l1.stats
            and ch.l2._tick == ph.l2._tick
            and _held_sets_match(ch.l2, ph.l2)
            and ch.l2._dirty == ph.l2._dirty
            and ch.l2.stats == ph.l2.stats
            and list(cf._streams.items()) == list(pf._streams.items())
            and cf.prefetches_issued == pf.prefetches_issued
            and cf.streams_confirmed == pf.streams_confirmed
            and cf.streams_allocated == pf.streams_allocated
        )

    def _demote(self, template: RowTemplate, state: _ClassState) -> None:
        state.demoted = True
        self.demotions += 1
        program = template.timing_program(self.config)
        # Drop shared state too: other replayers on the same share rebuild
        # plans/memos on demand, so discarding is always safe.
        self.share.drop(program)

    # -- phase one: memory ----------------------------------------------------

    def _phase_memory(
        self,
        plan: _MemPlan,
        S_row: List[int],
        F_row: List[int],
        L_row: List[int],
        pipe: PipelineModel,
    ) -> bytes:
        """Drive the block's memory operations; return per-load-step levels.

        Operation-for-operation identical to the memory handling inside
        the scalar template walk (same inlined L1 probe, same
        shared miss path, same inlined prefetcher training in the same
        order) — only the scoreboard arithmetic is absent, which is sound
        because nothing in the cache or prefetcher ever reads it.

        Every inlined cache write keeps the set-order invariant of
        :class:`~repro.machine.cache.CacheLevel`: a hit deletes its line and
        re-inserts it with a fresh tick (moving it to the end of its set), a
        fill appends, and an overflowing set evicts its first key, the LRU
        line — O(1), with no scan of the set.
        """
        hierarchy = pipe.hierarchy
        l1 = hierarchy.l1
        l1_stats = l1.stats
        l1_num_sets = l1.num_sets
        l1_assoc = l1.assoc
        l1_sets = l1._sets
        l1_dirty = l1._dirty
        l2 = hierarchy.l2
        l2_stats = l2.stats
        l2_num_sets = l2.num_sets
        l2_assoc = l2.assoc
        l2_sets = l2._sets
        l2_dirty = l2._dirty
        pf = pipe.prefetcher
        pf_on = pf.enabled and pf.num_streams > 0
        pf_streams = pf._streams
        pf_move = pf_streams.move_to_end
        pf_confirm = pf.confirm_advances
        pf_max = pf.num_streams
        pf_depth = pf.depth
        watch = hierarchy.static_watch
        watch_hits = 0
        demand_accesses = 0
        demand_hits = 0
        l2_demand_accesses = 0
        l2_demand_hits = 0
        mem_reads = 0
        mem_writes = 0
        prefetch_fills = 0
        prefetches_issued = 0
        pf_probes = 0
        pf_probe_hits = 0
        # Both cache ticks run in locals and resynchronize around the one
        # remaining method call (software prefetch) — everything else, the
        # full miss path and the stream fills included, is inlined below
        # and touches no attributes at all.
        l1_tick = l1._tick
        l2_tick = l2._tick
        levels_out: List[int] = []
        append_level = levels_out.append

        lpp_minus1 = LINES_PER_PAGE - 1

        pf_pop = pf_streams.pop

        def advance_stream(line: int, stream) -> None:
            # Inlined stream advance + _issue_ahead/hardware_prefetch (the
            # fill code mirrors the demand path's install/writeback chain).
            # Shared by the L1-hit fast paths and the general training loop
            # below; the caller has already popped ``line - 1``'s stream
            # (one hash probe doubles as the membership test).  Targets
            # ascend, so _issue_ahead's per-target page check is equivalent
            # to clipping the range at the page's last line up front —
            # which also turns the issue counter into one bulk add.
            nonlocal l1_tick, l2_tick, mem_reads, mem_writes
            nonlocal prefetch_fills, prefetches_issued, watch_hits
            stream.advances += 1
            stream.tail_line = line
            pf_streams[line] = stream
            if stream.advances == pf_confirm:
                pf.streams_confirmed += 1
            if stream.advances >= pf_confirm:
                stop = line + pf_depth
                page_end = line - line % LINES_PER_PAGE + lpp_minus1
                if stop > page_end:
                    stop = page_end
                prefetches_issued += stop - line
                for target in range(line + 1, stop + 1):
                    ways = l1_sets[target % l1_num_sets]
                    if target not in ways:
                        if watch is not None and target in watch:
                            watch_hits += 1
                        ways2 = l2_sets[target % l2_num_sets]
                        if target in ways2:
                            del ways2[target]
                            l2_tick += 1
                            ways2[target] = l2_tick
                        else:
                            mem_reads += 1
                            l2_tick += 1
                            ways2[target] = l2_tick
                            if len(ways2) > l2_assoc:
                                v2 = next(iter(ways2))
                                del ways2[v2]
                                if v2 in l2_dirty:
                                    l2_dirty.discard(v2)
                                    l2_stats.writebacks += 1
                                    mem_writes += 1
                        l1_tick += 1
                        ways[target] = l1_tick
                        if len(ways) > l1_assoc:
                            victim = next(iter(ways))
                            del ways[victim]
                            if victim in l1_dirty:
                                if watch is not None and victim in watch:
                                    watch_hits += 1
                                l1_dirty.discard(victim)
                                l1_stats.writebacks += 1
                                wv = l2_sets[victim % l2_num_sets]
                                if victim in wv:
                                    l2_dirty.add(victim)
                                else:
                                    l2_tick += 1
                                    wv[victim] = l2_tick
                                    l2_dirty.add(victim)
                                    if len(wv) > l2_assoc:
                                        v2 = next(iter(wv))
                                        del wv[v2]
                                        if v2 in l2_dirty:
                                            l2_dirty.discard(v2)
                                            l2_stats.writebacks += 1
                                            mem_writes += 1
                        prefetch_fills += 1

        # L1-hit fast paths.  Vector loads and stores are narrower than a
        # cache line, so most operations touch exactly one line or
        # straddle two — and out of cache the prefetcher keeps the demand
        # stream hitting in L1.  Probing all touched lines up front (peeks
        # only, no state change) proves the demand pass reduces to LRU
        # promotions with ``level == 1``, so the allocation branch of the
        # training pass is dead and training collapses to the per-line
        # move/advance checks spelled out inline below — the exact
        # ``_observe_line`` sequence the general walk runs, minus its
        # loops.  Misses, wider spans, and multi-memop groups fall through
        # to the general walk untouched.
        for kind, a, b, c in plan.ops:
            if kind == K_PRFM:
                # Inlined CacheHierarchy.software_prefetch: the probe is
                # counted in L1 PMU stats, misses pull the line through L2
                # into L1 with the same install/writeback chain as the
                # demand path — and no demand counters.  The plan records
                # the PRFM's address operand like any other memop, so its
                # line range is F_row/L_row like the rest.
                first = F_row[a]
                last = L_row[a]
                pf_probes += last - first + 1
                for line in range(first, last + 1):
                    ways = l1_sets[line % l1_num_sets]
                    if line in ways:
                        del ways[line]
                        l1_tick += 1
                        ways[line] = l1_tick
                        pf_probe_hits += 1
                        continue
                    if watch is not None and line in watch:
                        watch_hits += 1
                    ways2 = l2_sets[line % l2_num_sets]
                    if line in ways2:
                        del ways2[line]
                        l2_tick += 1
                        ways2[line] = l2_tick
                    else:
                        mem_reads += 1
                        l2_tick += 1
                        ways2[line] = l2_tick
                        if len(ways2) > l2_assoc:
                            v2 = next(iter(ways2))
                            del ways2[v2]
                            if v2 in l2_dirty:
                                l2_dirty.discard(v2)
                                l2_stats.writebacks += 1
                                mem_writes += 1
                    l1_tick += 1
                    ways[line] = l1_tick
                    if c:
                        l1_dirty.add(line)
                    if len(ways) > l1_assoc:
                        victim = next(iter(ways))
                        del ways[victim]
                        if victim in l1_dirty:
                            if watch is not None and victim in watch:
                                watch_hits += 1
                            l1_dirty.discard(victim)
                            l1_stats.writebacks += 1
                            wv = l2_sets[victim % l2_num_sets]
                            if victim in wv:
                                l2_dirty.add(victim)
                            else:
                                l2_tick += 1
                                wv[victim] = l2_tick
                                l2_dirty.add(victim)
                                if len(wv) > l2_assoc:
                                    v2 = next(iter(wv))
                                    del wv[v2]
                                    if v2 in l2_dirty:
                                        l2_dirty.discard(v2)
                                        l2_stats.writebacks += 1
                                        mem_writes += 1
                    prefetch_fills += 1
                continue
            if b - a == 1:
                first = F_row[a]
                last = L_row[a]
                if first == last:
                    ways = l1_sets[first % l1_num_sets]
                    if first in ways:
                        del ways[first]
                        l1_tick += 1
                        ways[first] = l1_tick
                        demand_accesses += 1
                        demand_hits += 1
                        if kind == K_STORE:
                            l1_dirty.add(first)
                        else:
                            append_level(1)
                        if pf_on:
                            if first in pf_streams:
                                pf_move(first)
                            else:
                                stream = pf_pop(first - 1, None)
                                if stream is not None:
                                    advance_stream(first, stream)
                        continue
                elif last == first + 1:
                    ways = l1_sets[first % l1_num_sets]
                    if first in ways:
                        waysb = l1_sets[last % l1_num_sets]
                        if last in waysb:
                            del ways[first]
                            l1_tick += 1
                            ways[first] = l1_tick
                            del waysb[last]
                            l1_tick += 1
                            waysb[last] = l1_tick
                            demand_accesses += 2
                            demand_hits += 2
                            if kind == K_STORE:
                                l1_dirty.add(first)
                                l1_dirty.add(last)
                            else:
                                append_level(1)
                            if pf_on:
                                if first in pf_streams:
                                    pf_move(first)
                                else:
                                    stream = pf_pop(first - 1, None)
                                    if stream is not None:
                                        advance_stream(first, stream)
                                if last in pf_streams:
                                    pf_move(last)
                                else:
                                    stream = pf_pop(first, None)
                                    if stream is not None:
                                        advance_stream(last, stream)
                            continue
            is_store = kind == K_STORE
            worst = 1  # L1
            for m in range(a, b):
                first = F_row[m]
                last = L_row[m]
                level = 1
                # Demand pass: inlined CacheHierarchy._access_line, miss
                # continuation included — L2 probe-with-promotion, clean L2
                # fill, L1 install with the dirty-victim L1 -> L2 -> DRAM
                # writeback chain (mirrors _access_line_miss/_fill_l1/_fill_l2
                # plus CacheLevel.install; the lines installed here are never
                # resident, so install's already-present branch is dead).
                demand_accesses += last - first + 1
                for line in range(first, last + 1):
                    ways = l1_sets[line % l1_num_sets]
                    if line in ways:
                        del ways[line]
                        l1_tick += 1
                        ways[line] = l1_tick
                        demand_hits += 1
                        if is_store:
                            l1_dirty.add(line)
                    else:
                        if watch is not None and line in watch:
                            watch_hits += 1
                        l2_demand_accesses += 1
                        ways2 = l2_sets[line % l2_num_sets]
                        if line in ways2:
                            del ways2[line]
                            l2_tick += 1
                            ways2[line] = l2_tick
                            l2_demand_hits += 1
                            lv = 2
                        else:
                            mem_reads += 1
                            l2_tick += 1
                            ways2[line] = l2_tick
                            if len(ways2) > l2_assoc:
                                v2 = next(iter(ways2))
                                del ways2[v2]
                                if v2 in l2_dirty:
                                    l2_dirty.discard(v2)
                                    l2_stats.writebacks += 1
                                    mem_writes += 1
                            lv = 3
                        l1_tick += 1
                        ways[line] = l1_tick
                        if is_store:
                            l1_dirty.add(line)
                        if len(ways) > l1_assoc:
                            victim = next(iter(ways))
                            del ways[victim]
                            if victim in l1_dirty:
                                if watch is not None and victim in watch:
                                    watch_hits += 1
                                l1_dirty.discard(victim)
                                l1_stats.writebacks += 1
                                wv = l2_sets[victim % l2_num_sets]
                                if victim in wv:
                                    l2_dirty.add(victim)
                                else:
                                    l2_tick += 1
                                    wv[victim] = l2_tick
                                    l2_dirty.add(victim)
                                    if len(wv) > l2_assoc:
                                        v2 = next(iter(wv))
                                        del wv[v2]
                                        if v2 in l2_dirty:
                                            l2_dirty.discard(v2)
                                            l2_stats.writebacks += 1
                                            mem_writes += 1
                        if lv > level:
                            level = lv
                if pf_on:
                    # Training pass: inlined StreamPrefetcher._observe_line.
                    # Membership tests replace ``.get`` calls — the dominant
                    # steady-state case (line neither a stream tail nor one
                    # past a tail) then costs two C-level containment checks.
                    hit = level == 1
                    for line in range(first, last + 1):
                        if line in pf_streams:
                            pf_move(line)
                            continue
                        stream = pf_pop(line - 1, None)
                        if stream is not None:
                            advance_stream(line, stream)
                        elif not hit:
                            pf_streams[line] = _Stream(tail_line=line)
                            pf.streams_allocated += 1
                            if len(pf_streams) > pf_max:
                                pf_streams.popitem(last=False)
                if level > worst:
                    worst = level
            if not is_store:
                append_level(worst)

        l1._tick = l1_tick
        l2._tick = l2_tick
        l1_stats.demand_accesses += demand_accesses
        l1_stats.demand_hits += demand_hits
        l1_stats.prefetch_fills += prefetch_fills
        l1_stats.prefetch_probes += pf_probes
        l1_stats.prefetch_probe_hits += pf_probe_hits
        l2_stats.demand_accesses += l2_demand_accesses
        l2_stats.demand_hits += l2_demand_hits
        hierarchy.mem_lines_read += mem_reads
        hierarchy.mem_lines_written += mem_writes
        pf.prefetches_issued += prefetches_issued
        if watch_hits:
            hierarchy.static_watch_hits += watch_hits
        return bytes(levels_out)

    # -- phase two: scoreboard -------------------------------------------------

    def _phase_scoreboard(
        self,
        program: TimingProgram,
        plan: _MemPlan,
        levels: bytes,
        pipe: PipelineModel,
        slots: List[int],
    ) -> None:
        """Advance the scoreboard through the program, memoized per block.

        The max-plus issue recurrence is translation-invariant: shifting
        every entry value (frontier, live slots, busy pipes, cycle) by a
        constant shifts every output by the same constant.  A block is
        keyed on its *complete* relative entry state — live-in slot offsets
        clamped at the frontier (values at or below it can never raise an
        issue cycle), pipe offsets with rank-order for stale pipes (rank
        decides the least-loaded choice), the cycle lag and issue count, and
        the level vector that sets the load penalties — so a hit is exact by
        construction and needs no verification.  In a band's steady state
        the entire entry context recurs block after block; a miss walks the
        whole program once and records the outcome.
        """
        port_free = pipe._port_free
        pipes_by_id = [port_free[p] for p in program.ports]
        cycle = pipe._cycle
        issued = pipe._issued_this_cycle
        f0 = pipe._frontier

        sb = tuple([(v - f0) if (v := slots[s]) > f0 else 0 for s in plan.live_in])
        # Inline the 1- and 2-pipe encodings of _pipes_key (fresh pipes by
        # offset, stale pipes by rank); the generic helper only runs for
        # wider port classes.
        sig = []
        for pipes in pipes_by_id:
            if len(pipes) == 1:
                p = pipes[0]
                sig.append((p - f0) if p > f0 else -1)
            elif len(pipes) == 2:
                p0, p1 = pipes
                if p0 > f0:
                    sig.append((p0 - f0, p1 - f0) if p1 > f0 else (p0 - f0, -2))
                elif p1 > f0:
                    sig.append((-2, p1 - f0))
                elif p0 == p1:
                    sig.append((-2, -2))
                else:
                    sig.append((-2, -1) if p0 < p1 else (-1, -2))
            else:
                sig.append(_pipes_key(pipes, f0))
        table = self._memo.get(program)
        if table is None:
            table = self._memo[program] = {}
        key = (sb, tuple(sig), f0 - cycle, issued, levels)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = self._scoreboard_walk(
                program.steps, plan.write_union, levels, f0, cycle, issued,
                slots, pipes_by_id, pipe.config.issue_width,
            )

        slots_out, pipes_out, frontier_rel, cycle_lag, issued, done_rel = entry
        for s, rel in slots_out:
            slots[s] = f0 + rel
        for pid, jj, rel in pipes_out:
            pipes_by_id[pid][jj] = f0 + rel
        frontier = f0 + frontier_rel
        pipe._frontier = frontier
        pipe._cycle = frontier - cycle_lag
        pipe._issued_this_cycle = issued
        done = f0 + done_rel
        if done > pipe.makespan:
            pipe.makespan = done
        pipe.instructions_retired += program.count
        by_port = pipe.instructions_by_port
        for port, count in program.port_counts.items():
            by_port[port] += count
        pipe.flops += program.flops
        pipe.useful_flops += program.useful_flops
        pipe.sw_prefetches += program.n_prfm

    def _scoreboard_walk(
        self,
        steps: Tuple,
        write_out: Tuple[int, ...],
        levels: bytes,
        f0: int,
        cycle: int,
        issued: int,
        slots: List[int],
        pipes_by_id: List[List[int]],
        issue_width: int,
    ) -> Tuple:
        """Scoreboard-only program walk (memo miss); returns the memo entry.

        Only ``slots`` and ``pipes_by_id`` advance here; the frontier,
        cycle and counters are left to the caller, which applies the
        returned entry, so hit and miss share one code path.
        """
        penalty = self._penalty
        frontier = f0
        max_done = 0
        li = 0
        pipes_assigned: set = set()

        for dep_slots, write_slots, port_id, base_latency, ii, kind, _memops in steps:
            t = frontier
            for s in dep_slots:
                r = slots[s]
                if r > t:
                    t = r

            pipes = pipes_by_id[port_id]
            if len(pipes) == 1:
                pipe_idx = 0
            elif len(pipes) == 2:
                pipe_idx = 0 if pipes[0] <= pipes[1] else 1
            else:
                pipe_idx = min(range(len(pipes)), key=pipes.__getitem__)
            if pipes[pipe_idx] > t:
                t = pipes[pipe_idx]

            if t > cycle:
                cycle = t
                issued = 0
            if issued >= issue_width:
                t = cycle + 1
                cycle = t
                issued = 0

            latency = base_latency
            if kind == K_LOAD:
                latency += penalty[levels[li]]
                li += 1

            pipes[pipe_idx] = t + ii
            pipes_assigned.add((port_id, pipe_idx))
            frontier = t
            issued += 1
            done = t + latency
            for s in write_slots:
                slots[s] = done
            if done > max_done:
                max_done = done

        return (
            tuple((s, slots[s] - f0) for s in write_out),
            # Only pipes the walk assigned are recorded: stale pipes keep
            # their (possibly sub-frontier) absolute values, which no
            # relative encoding could restore.
            tuple(
                (pid, jj, pipes_by_id[pid][jj] - f0)
                for pid, jj in sorted(pipes_assigned)
            ),
            frontier - f0,
            frontier - cycle,
            issued,
            max_done - f0,
        )
