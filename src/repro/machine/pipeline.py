"""Event-scoreboard timing model of the in-order superscalar core.

The model is the piece that makes the paper's instruction-scheduling story
observable in Python: instructions issue **in program order**, stalling on

* operand readiness (register/tile-slice scoreboard, no renaming),
* execution-port availability (per-class pipe count and per-instruction
  initiation interval), and
* the per-cycle issue-width ceiling,

so a kernel whose loads, outer products, MLAs and stores are interleaved by
the scheduling pass genuinely retires more instructions per cycle than the
same multiset of instructions in naive order.  Loads resolve their latency
through the cache hierarchy at issue time (stall-on-use, so independent
loads pipeline behind misses and software prefetch actually hides latency).

The walk is O(trace length): each instruction computes its issue cycle as a
max over a handful of scoreboard entries — no cycle-by-cycle loop.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.isa.instructions import (
    Instruction,
    LD1D,
    LD1D_STRIDED,
    PortClass,
    PRFM,
    ST1D,
    ST1D_SLICE,
)
from repro.machine.cache import L1, L2, MEM, CacheHierarchy
from repro.machine.compiled import (
    K_LOAD,
    K_PRFM,
    K_STORE,
    N_SLOTS,
    SCOREBOARD_KEYS,
    SLOT_OF,
    TimingProgram,
)
from repro.machine.config import MachineConfig
from repro.machine.perf import PerfCounters
from repro.machine.prefetcher import LINES_PER_PAGE, StreamPrefetcher, _Stream


class PipelineModel:
    """In-order multi-issue pipeline with a register scoreboard."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy: Optional[CacheHierarchy] = None,
        prefetcher: Optional[StreamPrefetcher] = None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy if hierarchy is not None else CacheHierarchy(config)
        if prefetcher is None:
            prefetcher = StreamPrefetcher(
                self.hierarchy,
                num_streams=config.hw_prefetch_streams,
                depth=config.hw_prefetch_depth,
                enabled=config.hw_prefetch_enabled,
            )
        self.prefetcher = prefetcher

        #: Next-free cycle per pipe, per port class.
        self._port_free: Dict[PortClass, List[int]] = {
            port: [0] * count for port, count in config.ports.items()
        }
        #: Scoreboard: dependence key -> cycle the value becomes available.
        self._ready: Dict[object, int] = {}
        #: In-order frontier: issue cycles are non-decreasing.
        self._frontier = 0
        #: Issue-width bookkeeping for the frontier cycle.
        self._cycle = 0
        self._issued_this_cycle = 0
        #: Completion time of the latest-finishing instruction.
        self.makespan = 0

        self.instructions_retired = 0
        self.instructions_by_port: Dict[PortClass, int] = Counter()
        self.flops = 0
        self.useful_flops = 0
        self.sw_prefetches = 0

        #: Hoisted mnemonic -> LatencySpec table (configs are immutable).
        self._latency_table = dict(config.latencies)

    # ------------------------------------------------------------------

    def process(self, ins: Instruction) -> int:
        """Advance the model by one instruction; return its issue cycle."""
        spec = self._latency_table.get(ins.mnemonic)
        if spec is None:
            spec = self.config.latency_for(ins)  # raises the canonical KeyError

        # Earliest cycle with operands ready (reads) and no WAW overtaking
        # of an in-flight write to the same key (no renaming).
        t = self._frontier
        for key in ins.reads():
            r = self._ready.get(key, 0)
            if r > t:
                t = r
        for key in ins.writes():
            r = self._ready.get(key, 0)
            if r > t:
                t = r

        # Port availability: take the least-loaded pipe of the class.
        pipes = self._port_free.get(ins.port)
        if not pipes:
            raise RuntimeError(
                f"{self.config.name}: no {ins.port} pipe for {ins.mnemonic}"
            )
        pipe_idx = min(range(len(pipes)), key=pipes.__getitem__)
        if pipes[pipe_idx] > t:
            t = pipes[pipe_idx]

        # Per-cycle issue-width ceiling.
        if t > self._cycle:
            self._cycle = t
            self._issued_this_cycle = 0
        if self._issued_this_cycle >= self.config.issue_width:
            t = self._cycle + 1
            self._cycle = t
            self._issued_this_cycle = 0

        # Memory behaviour resolves at issue: the cache level reached
        # determines the load latency; prefetches fill without stalling.
        latency = spec.latency
        if isinstance(ins, (LD1D, LD1D_STRIDED)):
            worst = L1
            for addr, nwords in ins.mem_reads():
                level = self.hierarchy.demand_access(addr, nwords, write=False)
                self.prefetcher.observe(addr, nwords, hit=level == L1)
                worst = max(worst, level)
            latency += self._miss_penalty(worst)
        elif isinstance(ins, (ST1D, ST1D_SLICE)):
            for addr, nwords in ins.mem_writes():
                level = self.hierarchy.demand_access(addr, nwords, write=True)
                self.prefetcher.observe(addr, nwords, hit=level == L1)
        elif isinstance(ins, PRFM):
            self.hierarchy.software_prefetch(ins.addr, ins.length, write=ins.write)
            self.sw_prefetches += 1

        # Commit the issue.
        pipes[pipe_idx] = t + spec.initiation_interval
        self._frontier = t
        self._issued_this_cycle += 1
        done = t + latency
        for key in ins.writes():
            self._ready[key] = done
        if done > self.makespan:
            self.makespan = done

        self.instructions_retired += 1
        self.instructions_by_port[ins.port] += 1
        self.flops += ins.flops
        self.useful_flops += ins.useful_flops
        return t

    def process_trace(self, trace: Iterable[Instruction]) -> None:
        """Process a straight-line sequence of instructions."""
        for ins in trace:
            self.process(ins)

    def process_template(self, program: TimingProgram, addrs: Sequence[int]) -> None:
        """Replay a precompiled template with rebased addresses.

        Bit-identical to calling :meth:`process` on the template's
        instructions carrying the given addresses: the same scoreboard
        arithmetic, the same first-least-loaded pipe choice, the same
        cache/prefetcher operations in the same order.  Readiness runs in
        a flat slot array (synchronized with the reference ``_ready`` dict
        at entry/exit), the per-line L1 probe and the stream-table
        training are inlined operation-for-operation, and per-instruction
        counter updates are applied in bulk from the program's aggregates.
        Miss and prefetch-fill paths go through the same
        hierarchy/prefetcher methods the reference walk uses.

        This is the columnar replay's private oracle and fallback, not a
        replay mode: its only callers are the columnar probe and the
        demoted-class walk in :mod:`repro.machine.columnar`.  It survives
        because checking columnar against a live emit instead tripled the
        probe cost (see that module's docstring).
        """
        cfg = self.config
        ready = self._ready
        slot_of_get = SLOT_OF.get
        slots = [0] * N_SLOTS
        for key, val in ready.items():
            idx = slot_of_get(key)
            if idx is not None:
                slots[idx] = val
        pipes_by_id = [self._port_free[p] for p in program.ports]
        hierarchy = self.hierarchy
        access_line_miss = hierarchy._access_line_miss
        fill_l1 = hierarchy._fill_l1
        fill_l2 = hierarchy._fill_l2
        watch = hierarchy.static_watch
        line_words = hierarchy.line_words
        l1 = hierarchy.l1
        l1_stats = l1.stats
        l1_num_sets = l1.num_sets
        l1_sets = l1._sets
        l1_dirty = l1._dirty
        l2 = hierarchy.l2
        l2_num_sets = l2.num_sets
        l2_sets = l2._sets
        pf = self.prefetcher
        pf_on = pf.enabled and pf.num_streams > 0
        pf_streams = pf._streams
        pf_move = pf_streams.move_to_end
        pf_get = pf_streams.get
        pf_confirm = pf.confirm_advances
        pf_max = pf.num_streams
        pf_depth = pf.depth
        issue_width = cfg.issue_width
        penalty = (
            0,
            0,
            cfg.l2_load_latency - cfg.l1_load_latency,
            cfg.mem_load_latency - cfg.l1_load_latency,
        )
        frontier = self._frontier
        cycle = self._cycle
        issued = self._issued_this_cycle
        makespan = self.makespan
        # L1 demand counters accumulate locally and flush once at exit;
        # nothing reads them mid-replay (the miss path only touches L2 and
        # fill statistics).
        demand_accesses = 0
        demand_hits = 0

        for dep_slots, write_slots, port_id, base_latency, ii, kind, memops in program.steps:
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
            if kind:
                if kind == K_PRFM:
                    addr_idx, length, wr = memops
                    hierarchy.software_prefetch(addrs[addr_idx], length, write=wr)
                else:
                    # Loads and stores share one inlined walk; the reference
                    # order per memop is: every covered line's demand access,
                    # then every covered line's prefetcher training with the
                    # memop's overall hit flag.
                    is_store = kind == K_STORE
                    worst = L1
                    for addr_idx, offset, nwords in memops:
                        addr = addrs[addr_idx] + offset
                        first = addr // line_words
                        last = (addr + nwords - 1) // line_words
                        level = L1
                        line = first
                        while True:
                            # Inlined CacheHierarchy._access_line L1 probe.
                            demand_accesses += 1
                            ways = l1_sets[line % l1_num_sets]
                            if line in ways:
                                del ways[line]
                                l1._tick += 1
                                ways[line] = l1._tick
                                demand_hits += 1
                                if is_store:
                                    l1_dirty.add(line)
                            else:
                                lv = access_line_miss(line, is_store)
                                if lv > level:
                                    level = lv
                            if line == last:
                                break
                            line += 1
                        if pf_on:
                            # Inlined StreamPrefetcher._observe_line.
                            hit = level == L1
                            line = first
                            while True:
                                stream = pf_get(line)
                                if stream is not None:
                                    pf_move(line)
                                else:
                                    stream = pf_get(line - 1)
                                    if stream is not None:
                                        del pf_streams[line - 1]
                                        stream.advances += 1
                                        stream.tail_line = line
                                        pf_streams[line] = stream
                                        if stream.advances == pf_confirm:
                                            pf.streams_confirmed += 1
                                        if stream.advances >= pf_confirm:
                                            # Inlined _issue_ahead +
                                            # hardware_prefetch probes.
                                            page = line // LINES_PER_PAGE
                                            for target in range(
                                                line + 1, line + pf_depth + 1
                                            ):
                                                if target // LINES_PER_PAGE != page:
                                                    break
                                                if (
                                                    target
                                                    not in l1_sets[target % l1_num_sets]
                                                ):
                                                    if (
                                                        watch is not None
                                                        and target in watch
                                                    ):
                                                        hierarchy.static_watch_hits += 1
                                                    ways2 = l2_sets[
                                                        target % l2_num_sets
                                                    ]
                                                    if target in ways2:
                                                        del ways2[target]
                                                        l2._tick += 1
                                                        ways2[target] = l2._tick
                                                    else:
                                                        hierarchy.mem_lines_read += 1
                                                        fill_l2(target)
                                                    fill_l1(target, False)
                                                    l1_stats.prefetch_fills += 1
                                                pf.prefetches_issued += 1
                                    elif not hit:
                                        pf_streams[line] = _Stream(tail_line=line)
                                        pf.streams_allocated += 1
                                        if len(pf_streams) > pf_max:
                                            pf_streams.popitem(last=False)
                                if line == last:
                                    break
                                line += 1
                        if level > worst:
                            worst = level
                    if not is_store:
                        latency += penalty[worst]

            pipes[pipe_idx] = t + ii
            frontier = t
            issued += 1
            done = t + latency
            for s in write_slots:
                slots[s] = done
            if done > makespan:
                makespan = done

        l1_stats.demand_accesses += demand_accesses
        l1_stats.demand_hits += demand_hits
        for i in range(N_SLOTS):
            v = slots[i]
            if v:
                ready[SCOREBOARD_KEYS[i]] = v
        self._frontier = frontier
        self._cycle = cycle
        self._issued_this_cycle = issued
        self.makespan = makespan
        self.instructions_retired += program.count
        by_port = self.instructions_by_port
        for port, n in program.port_counts.items():
            by_port[port] += n
        self.flops += program.flops
        self.useful_flops += program.useful_flops
        self.sw_prefetches += program.n_prfm

    def clone(
        self,
        l1_held: Optional[Sequence[int]] = None,
        l2_held: Optional[Sequence[int]] = None,
    ) -> "PipelineModel":
        """Independent deep copy of all behavioural state and counters.

        The clone shares nothing mutable with the original: the columnar
        replay's probe verification advances a clone down the candidate
        path while the original takes the scalar walk, then compares.
        ``l1_held``/``l2_held`` narrow the cache copy to those sets
        (:meth:`~repro.machine.cache.CacheLevel.clone`).
        """
        hierarchy = self.hierarchy.clone(l1_held, l2_held)
        out = PipelineModel(self.config, hierarchy, self.prefetcher.clone(hierarchy))
        out._port_free = {port: list(pipes) for port, pipes in self._port_free.items()}
        out._ready = dict(self._ready)
        out._frontier = self._frontier
        out._cycle = self._cycle
        out._issued_this_cycle = self._issued_this_cycle
        out.makespan = self.makespan
        out.instructions_retired = self.instructions_retired
        out.instructions_by_port = Counter(self.instructions_by_port)
        out.flops = self.flops
        out.useful_flops = self.useful_flops
        out.sw_prefetches = self.sw_prefetches
        return out

    def _core_signature(self) -> tuple:
        """Frontier-relative pipeline core state (no cache/prefetcher parts).

        The core part of :func:`repro.machine.steady.rebased_signature`,
        normalized so that states reached at different absolute cycles
        compare equal:

        * scoreboard entries and port frontiers relative to the in-order
          frontier (values at or below it are dead — they can never raise a
          future issue cycle — and are dropped/clamped);
        * per-class port pipes as a sorted multiset (pipes within a class
          are interchangeable: the argmin pipe choice always picks the same
          *value* under permutation and preserves the multiset);
        * issue-width bookkeeping and the makespan overhang.
        """
        f = self._frontier
        ports = tuple(
            (str(port), tuple(sorted(max(v - f, 0) for v in pipes)))
            for port, pipes in sorted(
                self._port_free.items(), key=lambda kv: str(kv[0])
            )
        )
        ready = tuple(
            sorted((str(k), v - f) for k, v in self._ready.items() if v > f)
        )
        return (
            ports,
            ready,
            self._cycle - f,
            self._issued_this_cycle,
            max(self.makespan - f, 0),
        )

    def _miss_penalty(self, level: int) -> int:
        cfg = self.config
        if level == L1:
            return 0
        if level == L2:
            return cfg.l2_load_latency - cfg.l1_load_latency
        if level == MEM:
            return cfg.mem_load_latency - cfg.l1_load_latency
        raise ValueError(f"unknown memory level {level}")

    # ------------------------------------------------------------------

    def snapshot(self) -> PerfCounters:
        """Current cumulative counters as a :class:`PerfCounters`."""
        h = self.hierarchy
        pc = PerfCounters()
        pc.cycles = float(self.makespan)
        pc.instructions = self.instructions_retired
        pc.instructions_by_port = dict(self.instructions_by_port)
        pc.flops = self.flops
        pc.useful_flops = self.useful_flops
        pc.l1_accesses = h.l1.stats.perf_accesses
        pc.l1_hits = h.l1.stats.perf_hits
        pc.l1_demand_accesses = h.l1.stats.demand_accesses
        pc.l1_demand_hits = h.l1.stats.demand_hits
        pc.l1_prefetch_fills = h.l1.stats.prefetch_fills
        pc.l2_accesses = h.l2.stats.demand_accesses
        pc.l2_hits = h.l2.stats.demand_hits
        pc.dram_lines_read = h.mem_lines_read
        pc.dram_lines_written = h.mem_lines_written
        pc.sw_prefetches = self.sw_prefetches
        pc.hw_prefetches = self.prefetcher.prefetches_issued
        pc.line_bytes = self.config.l1.line_bytes
        return pc

    @staticmethod
    def delta(after: PerfCounters, before: PerfCounters) -> PerfCounters:
        """Counter difference between two snapshots (for band sampling)."""
        out = PerfCounters()
        out.cycles = after.cycles - before.cycles
        out.instructions = after.instructions - before.instructions
        out.instructions_by_port = {
            k: after.instructions_by_port.get(k, 0) - before.instructions_by_port.get(k, 0)
            for k in set(after.instructions_by_port) | set(before.instructions_by_port)
        }
        out.flops = after.flops - before.flops
        out.useful_flops = after.useful_flops - before.useful_flops
        out.l1_accesses = after.l1_accesses - before.l1_accesses
        out.l1_hits = after.l1_hits - before.l1_hits
        out.l1_demand_accesses = after.l1_demand_accesses - before.l1_demand_accesses
        out.l1_demand_hits = after.l1_demand_hits - before.l1_demand_hits
        out.l1_prefetch_fills = after.l1_prefetch_fills - before.l1_prefetch_fills
        out.l2_accesses = after.l2_accesses - before.l2_accesses
        out.l2_hits = after.l2_hits - before.l2_hits
        out.dram_lines_read = after.dram_lines_read - before.dram_lines_read
        out.dram_lines_written = after.dram_lines_written - before.dram_lines_written
        out.sw_prefetches = after.sw_prefetches - before.sw_prefetches
        out.hw_prefetches = after.hw_prefetches - before.hw_prefetches
        out.line_bytes = after.line_bytes
        return out
