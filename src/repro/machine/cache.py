"""Set-associative write-back cache hierarchy with LRU replacement.

Two levels (L1D, L2) plus DRAM.  Addresses arrive as *word* (FP64)
addresses from the instruction stream and are converted to byte addresses
here.  Every demand access is resolved at line granularity; a vector load
that straddles a line boundary counts as two line-accesses, which is the
mechanism behind the shifted-load spatial reuse the matrix kernels rely on.

Statistics follow the paper's ``perf``-based methodology:

* *demand* accesses/hits per level (``L1-dcache-loads`` and friends);
* software-prefetch probes are counted in the L1 access/hit totals exactly
  as the PMU counts them — this is why Table 7 reports the spatial-prefetch
  version with ~3x more L1 hit *times* as well as a higher hit rate;
* hardware-prefetch fills are tracked separately and do not inflate demand
  statistics;
* DRAM line reads/writes are tracked for the multicore bandwidth model.
  Writeback traffic counts *every* dirty line that leaves L2, whichever
  path evicted it: a demand/prefetch fill of L2, or the L2 install
  performed on behalf of a dirty L1 eviction (the L1 -> L2 -> DRAM chain).
  The latter path was historically dropped, undercounting DRAM writes and
  weakening the Figure 16 bandwidth-contention bound.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.machine.config import CacheGeometry, MachineConfig

#: Memory access levels, in increasing latency order.
L1, L2, MEM = 1, 2, 3


class OutsideNarrowedClone(Exception):
    """A narrowed clone was asked for a cache set it does not hold."""


class _Untouchable:
    """Stands in for every cache set a narrowed clone leaves out.

    Membership, item access, length and iteration all raise
    :class:`OutsideNarrowedClone`, so an access its owner did not predict
    fails loudly instead of reading an empty set.
    """

    __slots__ = ()

    def _refuse(self, *_args):
        raise OutsideNarrowedClone

    __contains__ = __getitem__ = __setitem__ = __delitem__ = __len__ = __iter__ = _refuse


UNTOUCHABLE = _Untouchable()


@dataclass
class CacheStats:
    """Per-level counters (demand and prefetch separated)."""

    demand_accesses: int = 0
    demand_hits: int = 0
    prefetch_probes: int = 0
    prefetch_probe_hits: int = 0
    prefetch_fills: int = 0
    writebacks: int = 0

    @property
    def demand_hit_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    @property
    def perf_accesses(self) -> int:
        """Accesses as a PMU would count them (demand + SW-prefetch probes)."""
        return self.demand_accesses + self.prefetch_probes

    @property
    def perf_hits(self) -> int:
        """Hits as a PMU would count them (demand + SW-prefetch probe hits)."""
        return self.demand_hits + self.prefetch_probe_hits

    @property
    def perf_hit_rate(self) -> float:
        if self.perf_accesses == 0:
            return 0.0
        return self.perf_hits / self.perf_accesses

    def copy(self) -> "CacheStats":
        return dataclasses.replace(self)

    def merge(self, other: "CacheStats") -> None:
        self.demand_accesses += other.demand_accesses
        self.demand_hits += other.demand_hits
        self.prefetch_probes += other.prefetch_probes
        self.prefetch_probe_hits += other.prefetch_probe_hits
        self.prefetch_fills += other.prefetch_fills
        self.writebacks += other.writebacks


class CacheLevel:
    """One set-associative, write-back, write-allocate cache level.

    Replacement state is one dict per set, ``line -> last-use tick`` from a
    monotonic counter, whose key order *is* the LRU order, oldest first.
    Every writer keeps it so: a hit deletes its line and re-inserts it with
    a fresh tick (moving it to the end), a new line is appended, and the
    eviction victim is simply the first key.  Hits, installs and evictions
    are all O(1) dict operations, and decisions are identical to a textbook
    LRU list.  Ticks therefore ascend along each set; they are kept because
    equal dicts with unique ascending ticks are equal *in order* too (the
    columnar probe compares sets with ``==``).
    """

    def __init__(self, geometry: CacheGeometry, name: str) -> None:
        self.geometry = geometry
        self.name = name
        self.num_sets = geometry.num_sets
        self.assoc = geometry.associativity
        # Per set: {line tag -> last-use tick}, in LRU order (oldest first).
        self._sets: List[Dict[int, int]] = [{} for _ in range(self.num_sets)]
        self._tick = 0
        self._dirty: set = set()
        self.stats = CacheStats()
        #: Indices of the sets a narrowed clone holds; ``None``: all of them.
        self.held: Optional[Sequence[int]] = None

    def _set_index(self, line: int) -> int:
        return line % self.num_sets

    def lookup(self, line: int, update_lru: bool = True) -> bool:
        """Probe for a line; on hit optionally promote to MRU."""
        ways = self._sets[line % self.num_sets]
        if line not in ways:
            return False
        if update_lru:
            del ways[line]
            self._tick += 1
            ways[line] = self._tick
        return True

    def install(self, line: int, dirty: bool = False) -> Optional[int]:
        """Insert a line at MRU; return the evicted *dirty* line, if any.

        Clean evictions are silent (no writeback traffic).
        """
        ways = self._sets[line % self.num_sets]
        self._tick += 1
        if line in ways:
            del ways[line]
            ways[line] = self._tick
            if dirty:
                self._dirty.add(line)
            return None
        ways[line] = self._tick
        if dirty:
            self._dirty.add(line)
        if len(ways) > self.assoc:
            victim = next(iter(ways))
            del ways[victim]
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.stats.writebacks += 1
                return victim
        return None

    def mark_dirty(self, line: int) -> None:
        self._dirty.add(line)

    def contains(self, line: int) -> bool:
        """Non-destructive membership check (no LRU update)."""
        return line in self._sets[line % self.num_sets]

    def clone(self, held: Optional[Sequence[int]] = None) -> "CacheLevel":
        """Independent copy of all replacement state and statistics.

        The columnar replay's probe verification runs a candidate block on
        a cloned hierarchy so a mismatch never corrupts the real one.  With
        ``held``, only those sets are copied (a *narrowed* clone); every
        other set is :data:`UNTOUCHABLE`.  Tick, dirty set and statistics
        are always copied whole.
        """
        out = CacheLevel.__new__(CacheLevel)
        out.geometry = self.geometry
        out.name = self.name
        out.num_sets = self.num_sets
        out.assoc = self.assoc
        if held is None:
            out._sets = [dict(ways) for ways in self._sets]
        else:
            sets = self._sets
            out._sets = narrowed = [UNTOUCHABLE] * self.num_sets
            for s in held:
                narrowed[s] = dict(sets[s])
        out.held = held
        out._tick = self._tick
        out._dirty = set(self._dirty)
        out.stats = self.stats.copy()
        return out

    def resident_lines(self) -> int:
        return sum(len(w) for w in self._sets)

    def flush(self) -> int:
        """Drop all lines; return number of dirty lines written back."""
        dirty = len(self._dirty)
        self.stats.writebacks += dirty
        for ways in self._sets:
            ways.clear()
        self._dirty.clear()
        return dirty


class CacheHierarchy:
    """L1 + L2 + DRAM, with inclusive-style fills (L2 then L1).

    The hierarchy is the single point through which all memory traffic
    flows: demand loads/stores from the timing engine, software prefetch
    probes, and hardware-prefetcher fills.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.line_words = config.l1.line_bytes // 8
        self.l1 = CacheLevel(config.l1, "L1D")
        self.l2 = CacheLevel(config.l2, "L2")
        self.mem_lines_read = 0
        self.mem_lines_written = 0
        #: Steady-state verification watch (:mod:`repro.machine.steady`):
        #: while armed (a frozenset of static lines), every channel through
        #: which one of those lines could reach L2 — an L1 demand miss, a
        #: software-prefetch fill, a hardware-prefetch fill, or a dirty L1
        #: victim written back — bumps ``static_watch_hits``.  Any hit
        #: invalidates the steady window's L2-rotation argument.
        self.static_watch: Optional[frozenset] = None
        self.static_watch_hits = 0

    # -- address helpers ------------------------------------------------------

    def lines_for(self, word_addr: int, nwords: int) -> range:
        """Cache lines covered by a word-addressed access."""
        first = word_addr // self.line_words
        last = (word_addr + nwords - 1) // self.line_words
        return range(first, last + 1)

    # -- demand path ----------------------------------------------------------

    def demand_access(self, word_addr: int, nwords: int, write: bool) -> int:
        """Resolve a demand access; return the deepest level touched.

        Every covered line is looked up in L1 then L2 and installed on the
        way back (write-allocate for stores).  The returned level (L1, L2 or
        MEM) is the slowest line's source and determines load latency.
        """
        first = word_addr // self.line_words
        last = (word_addr + nwords - 1) // self.line_words
        if first == last:
            return self._access_line(first, write)
        worst = L1
        for line in range(first, last + 1):
            level = self._access_line(line, write)
            if level > worst:
                worst = level
        return worst

    def _access_line(self, line: int, write: bool) -> int:
        # L1-hit fast path: one set resolution serves the probe, the LRU
        # promotion (move to the end) and the dirty marking (the
        # overwhelmingly common case).
        l1 = self.l1
        l1.stats.demand_accesses += 1
        ways = l1._sets[line % l1.num_sets]
        if line in ways:
            del ways[line]
            l1._tick += 1
            ways[line] = l1._tick
            l1.stats.demand_hits += 1
            if write:
                l1._dirty.add(line)
            return L1
        return self._access_line_miss(line, write)

    def _access_line_miss(self, line: int, write: bool) -> int:
        """L1-miss continuation of a demand access (L1 stats already counted).

        Split out so the compiled replay loop can inline the L1-hit probe
        and share this exact slow path.
        """
        if self.static_watch is not None and line in self.static_watch:
            self.static_watch_hits += 1
        self.l2.stats.demand_accesses += 1
        if self.l2.lookup(line):
            self.l2.stats.demand_hits += 1
            self._fill_l1(line, dirty=write)
            return L2
        self.mem_lines_read += 1
        self._fill_l2(line)
        self._fill_l1(line, dirty=write)
        return MEM

    # -- prefetch paths ---------------------------------------------------------

    def software_prefetch(self, word_addr: int, nwords: int, write: bool) -> None:
        """Execute a PRFM: probe L1 (PMU-visible) and fill on miss.

        The probe is counted in L1 perf statistics (see module docstring);
        misses pull the line through L2 into L1 without any demand-miss
        accounting, exactly like a non-faulting prefetch.
        """
        for line in self.lines_for(word_addr, nwords):
            self.l1.stats.prefetch_probes += 1
            if self.l1.lookup(line):
                self.l1.stats.prefetch_probe_hits += 1
                continue
            if self.static_watch is not None and line in self.static_watch:
                self.static_watch_hits += 1
            if not self.l2.lookup(line):
                self.mem_lines_read += 1
                self._fill_l2(line)
            self._fill_l1(line, dirty=write)
            self.l1.stats.prefetch_fills += 1

    def hardware_prefetch(self, line: int) -> None:
        """Fill a line on behalf of the hardware stream prefetcher."""
        if self.l1.contains(line):
            return
        if self.static_watch is not None and line in self.static_watch:
            self.static_watch_hits += 1
        if not self.l2.lookup(line):
            self.mem_lines_read += 1
            self._fill_l2(line)
        self._fill_l1(line, dirty=False)
        self.l1.stats.prefetch_fills += 1

    # -- fills ------------------------------------------------------------------

    def _fill_l1(self, line: int, dirty: bool) -> None:
        victim = self.l1.install(line, dirty=dirty)
        if victim is not None:
            # Dirty L1 eviction: write back into L2.
            if self.static_watch is not None and victim in self.static_watch:
                self.static_watch_hits += 1
            if not self.l2.lookup(victim, update_lru=False):
                l2_victim = self.l2.install(victim, dirty=True)
                if l2_victim is not None:
                    # The install displaced a dirty L2 line: that line goes
                    # all the way to DRAM (the L1 -> L2 -> DRAM chain).
                    self.mem_lines_written += 1
            else:
                self.l2.mark_dirty(victim)

    def _fill_l2(self, line: int) -> None:
        victim = self.l2.install(line, dirty=False)
        if victim is not None:
            self.mem_lines_written += 1

    # -- maintenance --------------------------------------------------------------

    def clone(
        self,
        l1_held: Optional[Sequence[int]] = None,
        l2_held: Optional[Sequence[int]] = None,
    ) -> "CacheHierarchy":
        """Independent copy of both levels and the DRAM traffic counters
        (narrowed to the given sets per level, see :meth:`CacheLevel.clone`)."""
        out = CacheHierarchy.__new__(CacheHierarchy)
        out.config = self.config
        out.line_words = self.line_words
        out.l1 = self.l1.clone(l1_held)
        out.l2 = self.l2.clone(l2_held)
        out.mem_lines_read = self.mem_lines_read
        out.mem_lines_written = self.mem_lines_written
        out.static_watch = self.static_watch
        out.static_watch_hits = self.static_watch_hits
        return out

    def reset_stats(self) -> None:
        """Zero all counters while keeping cache contents (warm state)."""
        self.l1.stats = CacheStats()
        self.l2.stats = CacheStats()
        self.mem_lines_read = 0
        self.mem_lines_written = 0

    def dram_bytes(self) -> int:
        """Total DRAM traffic in bytes (reads + writebacks)."""
        return (self.mem_lines_read + self.mem_lines_written) * self.config.l1.line_bytes
