"""Cache hierarchy: lookup/install, LRU, write-back, statistics."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.cache import CacheHierarchy, CacheLevel, CacheStats, L1, L2, MEM
from repro.machine.config import CacheGeometry, LX2

from tests.helpers import assert_sets_in_lru_order


def tiny_level(sets=4, assoc=2):
    return CacheLevel(CacheGeometry(sets * assoc * 64, 64, assoc), "T")


class TestCacheLevel:
    def test_miss_then_hit(self):
        c = tiny_level()
        assert not c.lookup(10)
        c.install(10)
        assert c.lookup(10)

    def test_lru_eviction_order(self):
        c = tiny_level(sets=1, assoc=2)
        c.install(0)
        c.install(1)
        c.lookup(0)  # promote 0 to MRU
        c.install(2)  # evicts 1 (LRU)
        assert c.contains(0)
        assert not c.contains(1)
        assert c.contains(2)

    def test_clean_eviction_silent(self):
        c = tiny_level(sets=1, assoc=1)
        c.install(0, dirty=False)
        victim = c.install(1)
        assert victim is None
        assert c.stats.writebacks == 0

    def test_dirty_eviction_reported(self):
        c = tiny_level(sets=1, assoc=1)
        c.install(0, dirty=True)
        victim = c.install(1)
        assert victim == 0
        assert c.stats.writebacks == 1

    def test_reinstall_promotes_without_eviction(self):
        c = tiny_level(sets=1, assoc=2)
        c.install(0)
        c.install(1)
        c.install(0)  # already present
        assert c.resident_lines() == 2

    def test_set_mapping(self):
        c = tiny_level(sets=4, assoc=1)
        c.install(0)
        c.install(4)  # same set (4 mod 4 == 0)
        assert not c.contains(0)
        c.install(1)  # different set
        assert c.contains(4) and c.contains(1)

    def test_flush_counts_dirty(self):
        c = tiny_level()
        c.install(0, dirty=True)
        c.install(1, dirty=False)
        assert c.flush() == 1
        assert not c.contains(0)

    def test_contains_does_not_touch_lru(self):
        c = tiny_level(sets=1, assoc=2)
        c.install(0)
        c.install(1)
        c.contains(0)  # must NOT promote
        c.install(2)  # evicts 0 (still LRU)
        assert not c.contains(0)


class TestHierarchy:
    def make(self):
        return CacheHierarchy(LX2())

    def test_lines_for_alignment(self):
        h = self.make()
        assert list(h.lines_for(0, 8)) == [0]
        assert list(h.lines_for(4, 8)) == [0, 1]  # straddles
        assert list(h.lines_for(8, 8)) == [1]

    def test_first_touch_goes_to_memory(self):
        h = self.make()
        assert h.demand_access(1000, 8, write=False) == MEM
        assert h.mem_lines_read == 1

    def test_second_touch_hits_l1(self):
        h = self.make()
        h.demand_access(1000, 8, write=False)
        assert h.demand_access(1000, 8, write=False) == L1
        assert h.l1.stats.demand_hits == 1

    def test_l2_hit_after_l1_eviction(self):
        h = self.make()
        geom = h.config.l1
        lines_to_thrash = geom.num_sets * geom.associativity + geom.num_sets
        h.demand_access(0 * 8, 8, write=False)
        for i in range(1, lines_to_thrash + 1):
            # walk addresses mapping to all sets repeatedly
            h.demand_access(i * 8, 8, write=False)
        level = h.demand_access(0, 8, write=False)
        assert level == L2

    def test_write_allocate_marks_dirty(self):
        h = self.make()
        h.demand_access(2000, 8, write=True)
        assert h.l1._dirty  # some line dirty

    def test_software_prefetch_fills_l1(self):
        h = self.make()
        h.software_prefetch(3000, 8, write=False)
        assert h.l1.stats.prefetch_fills == 1
        assert h.demand_access(3000, 8, write=False) == L1

    def test_software_prefetch_probe_statistics(self):
        h = self.make()
        h.software_prefetch(3000, 8, write=False)  # probe miss + fill
        h.software_prefetch(3000, 8, write=False)  # probe hit
        assert h.l1.stats.prefetch_probes == 2
        assert h.l1.stats.prefetch_probe_hits == 1
        # perf-style accounting includes probes
        assert h.l1.stats.perf_accesses == 2
        assert h.l1.stats.perf_hits == 1

    def test_prefetch_does_not_inflate_demand_stats(self):
        h = self.make()
        h.software_prefetch(3000, 8, write=False)
        assert h.l1.stats.demand_accesses == 0

    def test_hardware_prefetch_fills_without_stats(self):
        h = self.make()
        h.hardware_prefetch(77)
        assert h.l1.stats.demand_accesses == 0
        assert h.l1.stats.prefetch_fills == 1
        assert h.l1.contains(77)

    def test_hardware_prefetch_idempotent(self):
        h = self.make()
        h.hardware_prefetch(77)
        h.hardware_prefetch(77)
        assert h.l1.stats.prefetch_fills == 1

    def test_dram_byte_accounting(self):
        h = self.make()
        h.demand_access(1000, 8, write=False)
        assert h.dram_bytes() == 64

    def test_l1_writeback_chain_counts_dram_write(self):
        """Regression: a dirty L2 line displaced by an L1 writeback install
        must count as DRAM write traffic (the L1 -> L2 -> DRAM chain).

        Tiny single-set 2-way L1 and L2; dirty-writing four distinct
        same-set lines drives exactly one writeback through the previously
        uncounted path: D's fill evicts dirty B from L1, B is no longer in
        L2, and installing B displaces dirty A from L2 to DRAM.
        """
        tiny = CacheGeometry(128, 64, 2)  # 1 set, 2 ways
        config = dataclasses.replace(LX2(), l1=tiny, l2=tiny)
        h = CacheHierarchy(config)
        for line in range(4):  # word addresses of lines A, B, C, D
            h.demand_access(line * 8, 1, write=True)
        assert h.mem_lines_written == 1
        # Both DRAM directions appear in the byte total.
        assert h.dram_bytes() == (h.mem_lines_read + 1) * 64

    def test_dirty_l1_eviction_into_clean_l2_marks_dirty(self):
        """The mark-dirty path (victim still in L2) defers the DRAM write
        until the line actually leaves L2."""
        l1 = CacheGeometry(64, 64, 1)  # 1 set, 1 way
        l2 = CacheGeometry(256, 64, 4)  # 1 set, 4 ways
        config = dataclasses.replace(LX2(), l1=l1, l2=l2)
        h = CacheHierarchy(config)
        h.demand_access(0, 1, write=True)  # line 0 dirty in L1
        h.demand_access(8, 1, write=True)  # evicts line 0 into L2 (dirty)
        assert h.mem_lines_written == 0
        # Thrash L2 until dirty line 0 is displaced to DRAM.
        for line in range(2, 6):
            h.demand_access(line * 8, 1, write=False)
        assert h.mem_lines_written >= 1

    def test_reset_stats_keeps_contents(self):
        h = self.make()
        h.demand_access(1000, 8, write=False)
        h.reset_stats()
        assert h.l1.stats.demand_accesses == 0
        assert h.demand_access(1000, 8, write=False) == L1  # still warm


class TestCacheStats:
    def test_hit_rates(self):
        s = CacheStats(demand_accesses=10, demand_hits=7)
        assert s.demand_hit_rate == pytest.approx(0.7)
        assert CacheStats().demand_hit_rate == 0.0

    def test_merge(self):
        a = CacheStats(demand_accesses=5, demand_hits=3, prefetch_probes=2)
        b = CacheStats(demand_accesses=1, demand_hits=1, prefetch_probe_hits=1)
        a.merge(b)
        assert a.demand_accesses == 6
        assert a.demand_hits == 4
        assert a.prefetch_probes == 2
        assert a.prefetch_probe_hits == 1


# ---------------------------------------------------------------------------
# Textbook LRU reference: each set an explicit recency list, MRU last.  The
# hierarchy keeps the same order in its dicts' key order and evicts the
# first key, so victims, writebacks, counters and per-set order must agree
# with the list model after every operation.
# ---------------------------------------------------------------------------


class _ListLevel:
    def __init__(self, geometry: CacheGeometry) -> None:
        self.num_sets = geometry.num_sets
        self.assoc = geometry.associativity
        self.sets = [[] for _ in range(self.num_sets)]
        self.dirty = set()
        self.stats = CacheStats()
        self.victims = []

    def lookup(self, line, promote=True):
        ways = self.sets[line % self.num_sets]
        if line not in ways:
            return False
        if promote:
            ways.remove(line)
            ways.append(line)
        return True

    def install(self, line, dirty):
        ways = self.sets[line % self.num_sets]
        if line in ways:
            ways.remove(line)
        ways.append(line)
        if dirty:
            self.dirty.add(line)
        if len(ways) > self.assoc:
            victim = ways.pop(0)
            self.victims.append(victim)
            if victim in self.dirty:
                self.dirty.discard(victim)
                self.stats.writebacks += 1
                return victim
        return None


class _ListHierarchy:
    def __init__(self, config) -> None:
        self.line_words = config.l1.line_bytes // 8
        self.l1 = _ListLevel(config.l1)
        self.l2 = _ListLevel(config.l2)
        self.mem_lines_read = 0
        self.mem_lines_written = 0

    def _lines(self, addr, words):
        return range(addr // self.line_words, (addr + words - 1) // self.line_words + 1)

    def demand_access(self, addr, words, write):
        for line in self._lines(addr, words):
            self.l1.stats.demand_accesses += 1
            if self.l1.lookup(line):
                self.l1.stats.demand_hits += 1
                if write:
                    self.l1.dirty.add(line)
                continue
            self.l2.stats.demand_accesses += 1
            if self.l2.lookup(line):
                self.l2.stats.demand_hits += 1
            else:
                self.mem_lines_read += 1
                self._fill_l2(line)
            self._fill_l1(line, write)

    def software_prefetch(self, addr, words, write):
        for line in self._lines(addr, words):
            self.l1.stats.prefetch_probes += 1
            if self.l1.lookup(line):
                self.l1.stats.prefetch_probe_hits += 1
                continue
            if not self.l2.lookup(line):
                self.mem_lines_read += 1
                self._fill_l2(line)
            self._fill_l1(line, write)
            self.l1.stats.prefetch_fills += 1

    def hardware_prefetch(self, line):
        if line in self.l1.sets[line % self.l1.num_sets]:
            return
        if not self.l2.lookup(line):
            self.mem_lines_read += 1
            self._fill_l2(line)
        self._fill_l1(line, False)
        self.l1.stats.prefetch_fills += 1

    def _fill_l1(self, line, dirty):
        victim = self.l1.install(line, dirty)
        if victim is None:
            return
        if self.l2.lookup(victim, promote=False):
            self.l2.dirty.add(victim)
        elif self.l2.install(victim, True) is not None:
            self.mem_lines_written += 1

    def _fill_l2(self, line):
        if self.l2.install(line, False) is not None:
            self.mem_lines_written += 1


def _record_victims(level: CacheLevel) -> list:
    """Wrap ``level.install`` to log every line it evicts, clean or dirty."""
    victims = []
    install = level.install

    def recording(line, dirty=False):
        ways = level._sets[line % level.num_sets]
        before = list(ways)
        dirty_victim = install(line, dirty=dirty)
        victims.extend(x for x in before if x not in ways)
        return dirty_victim

    level.install = recording
    return victims


LRU_OPS = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "sw-prefetch", "sw-prefetch-store", "hw-prefetch"]),
        st.integers(0, 40 * 8),  # word address: 40 lines over a few sets
        st.integers(1, 16),  # words: up to three lines per access
    ),
    min_size=1,
    max_size=150,
)


@settings(max_examples=200, deadline=None)
@given(
    ops=LRU_OPS,
    l1_sets=st.sampled_from([1, 2, 4]),
    l1_ways=st.integers(1, 4),
    l2_sets=st.sampled_from([1, 2, 4, 8]),
    l2_ways=st.integers(1, 4),
)
def test_hierarchy_matches_list_lru(ops, l1_sets, l1_ways, l2_sets, l2_ways):
    config = dataclasses.replace(
        LX2(),
        l1=CacheGeometry(l1_sets * l1_ways * 64, 64, l1_ways),
        l2=CacheGeometry(l2_sets * l2_ways * 64, 64, l2_ways),
    )
    h = CacheHierarchy(config)
    ref = _ListHierarchy(config)
    victims = (_record_victims(h.l1), _record_victims(h.l2))
    for kind, addr, words in ops:
        if kind == "hw-prefetch":
            h.hardware_prefetch(addr // 8)
            ref.hardware_prefetch(addr // 8)
        elif kind.startswith("sw-prefetch"):
            write = kind == "sw-prefetch-store"
            h.software_prefetch(addr, words, write=write)
            ref.software_prefetch(addr, words, write=write)
        else:
            write = kind == "store"
            h.demand_access(addr, words, write=write)
            ref.demand_access(addr, words, write=write)
        op = (kind, addr, words)
        assert_sets_in_lru_order(h)
        for level, ref_level, got_victims in zip((h.l1, h.l2), (ref.l1, ref.l2), victims):
            assert [list(ways) for ways in level._sets] == ref_level.sets, op
            assert got_victims == ref_level.victims, op
            assert level._dirty == ref_level.dirty, op
            assert level.stats == ref_level.stats, op
        assert (h.mem_lines_read, h.mem_lines_written) == (
            ref.mem_lines_read,
            ref.mem_lines_written,
        ), op
