"""Hardware stream prefetcher: confirmation, table capacity, page stops."""

from hypothesis import given, settings, strategies as st

from repro.machine.cache import L1, CacheHierarchy
from repro.machine.config import LX2
from repro.machine.pipeline import PipelineModel
from repro.machine.prefetcher import LINES_PER_PAGE, StreamPrefetcher
from repro.machine.steady import rebased_signature


def make(num_streams=8, depth=4, confirm=2):
    h = CacheHierarchy(LX2())
    pf = StreamPrefetcher(h, num_streams=num_streams, depth=depth, confirm_advances=confirm)
    return h, pf


def touch_line(pf, line):
    pf.observe(line * 8, 8)


class TestConfirmation:
    def test_single_access_does_not_prefetch(self):
        h, pf = make()
        touch_line(pf, 10)
        assert pf.prefetches_issued == 0

    def test_one_advance_not_confirmed(self):
        h, pf = make(confirm=2)
        touch_line(pf, 10)
        touch_line(pf, 11)
        assert pf.prefetches_issued == 0
        assert pf.streams_confirmed == 0

    def test_two_advances_confirm_and_prefetch(self):
        h, pf = make(confirm=2, depth=4)
        touch_line(pf, 10)
        touch_line(pf, 11)
        touch_line(pf, 12)
        assert pf.streams_confirmed == 1
        assert pf.prefetches_issued == 4
        assert h.l1.contains(13) and h.l1.contains(16)

    def test_confirmed_stream_keeps_prefetching(self):
        h, pf = make(depth=2)
        for line in range(10, 16):
            touch_line(pf, line)
        assert h.l1.contains(17)

    def test_tail_reaccess_is_not_advance(self):
        h, pf = make()
        touch_line(pf, 10)
        touch_line(pf, 10)
        touch_line(pf, 10)
        assert pf.streams_confirmed == 0

    def test_non_sequential_accesses_allocate_new_streams(self):
        h, pf = make()
        touch_line(pf, 10)
        touch_line(pf, 50)
        touch_line(pf, 90)
        assert pf.streams_allocated == 3
        assert pf.prefetches_issued == 0


class TestTableCapacity:
    def test_few_streams_fully_covered(self):
        """A vector-method pattern (6 interleaved rows) stays covered."""
        h, pf = make(num_streams=8)
        base_lines = [1000 * r for r in range(6)]
        for step in range(8):
            for b in base_lines:
                touch_line(pf, b + step)
        # all six streams confirmed and prefetching
        assert pf.streams_confirmed == 6
        assert pf.prefetches_issued > 0

    def test_many_streams_thrash(self):
        """A matrix-method pattern (20 interleaved rows) thrashes the table."""
        h, pf = make(num_streams=8)
        base_lines = [1000 * r for r in range(20)]
        for step in range(8):
            for b in base_lines:
                touch_line(pf, b + step)
        # LRU evicts every stream before its next access: nothing confirms.
        assert pf.streams_confirmed == 0
        assert pf.prefetches_issued == 0

    def test_lru_eviction_bounds_table(self):
        h, pf = make(num_streams=4)
        for line in [10, 20, 30, 40, 50]:
            touch_line(pf, line)
        assert pf.active_streams() == 4


class TestPageBoundary:
    def test_prefetch_stops_at_page_edge(self):
        h, pf = make(depth=4)
        edge = LINES_PER_PAGE - 2  # prefetch would cross into next page
        touch_line(pf, edge - 2)
        touch_line(pf, edge - 1)
        touch_line(pf, edge)  # confirmed here; depth-4 would reach edge+4
        assert h.l1.contains(edge + 1)
        assert not h.l1.contains(LINES_PER_PAGE)  # next page untouched

    def test_stream_retrains_after_page(self):
        h, pf = make(depth=2)
        # Walk an entire page: stream stays confirmed within it.
        for line in range(0, LINES_PER_PAGE + 4):
            touch_line(pf, line)
        # Crossing into the new page keeps advancing the same stream
        # (table-wise), so lines keep being covered; the *prefetcher*
        # just never issued across the boundary ahead of time.
        assert h.l1.contains(LINES_PER_PAGE + 5)


class TestDisabled:
    def test_disabled_prefetcher_does_nothing(self):
        h = CacheHierarchy(LX2())
        pf = StreamPrefetcher(h, num_streams=8, depth=2, enabled=False)
        for line in range(10):
            pf.observe(line * 8, 8)
        assert pf.prefetches_issued == 0
        assert pf.active_streams() == 0

    def test_reset_stats(self):
        h, pf = make()
        for line in range(5):
            touch_line(pf, line)
        pf.reset_stats()
        assert pf.prefetches_issued == 0
        assert pf.streams_allocated == 0


# ---------------------------------------------------------------------------
# Signature saturation: advance counts past confirmation are one state.
# ---------------------------------------------------------------------------

#: Sequential runs ``(first line, length)``: runs train and advance streams,
#: jumps between them allocate, evict and re-access tails.
_runs = st.lists(
    st.tuples(st.integers(0, 3 * LINES_PER_PAGE), st.integers(1, 12)),
    min_size=1,
    max_size=12,
)


def _drive(h, pf, runs):
    """Demand-load every line of ``runs`` and train on it, as the core does."""
    lw = h.line_words
    for first, length in runs:
        for line in range(first, first + length):
            level = h.demand_access(line * lw, 1, write=False)
            pf.observe(line * lw, 1, hit=level == L1)


def _clone_pair(h, pf):
    h2 = h.clone()
    return h2, pf.clone(h2)


def _signature(h, pf):
    """Zero-shift signature of a fresh core over ``h`` and ``pf``."""
    return rebased_signature(PipelineModel(LX2(), h, pf), frozenset(), 0)


def _streams(pf):
    """The stream-table part of the signature."""
    return _signature(pf.hierarchy, pf)[3]


def _observable(h, pf):
    return (
        pf.prefetches_issued,
        pf.streams_confirmed,
        pf.streams_allocated,
        _signature(h, pf),
    )


@settings(max_examples=60, deadline=None)
@given(
    confirm=st.integers(1, 4),
    depth=st.integers(1, 4),
    num_streams=st.integers(1, 8),
    train=_runs,
    pick=st.integers(0, 63),
    extra=st.tuples(st.integers(0, 20), st.integers(0, 20)),
    follow=st.integers(0, 8),
    then=_runs,
)
def test_counts_past_confirmation_are_one_state(
    confirm, depth, num_streams, train, pick, extra, follow, then
):
    h, pf = make(num_streams=num_streams, depth=depth, confirm=confirm)
    _drive(h, pf, train)
    lines = list(pf._streams)
    line = lines[pick % len(lines)]

    ha, pa = _clone_pair(h, pf)
    hb, pb = _clone_pair(h, pf)
    pa._streams[line].advances = confirm + extra[0]
    pb._streams[line].advances = confirm + extra[1]
    assert _streams(pa) == _streams(pb)
    assert repr(_streams(pa)) == repr(_streams(pb))
    # Continue the edited stream first, then wander.
    then = [(line + 1, follow)] + then
    _drive(ha, pa, then)
    _drive(hb, pb, then)
    assert _observable(ha, pa) == _observable(hb, pb)

    # One short of confirmation is a different state: the next advance
    # confirms (and prefetches) only there.
    hc, pc = _clone_pair(h, pf)
    pc._streams[line].advances = confirm - 1
    assert _streams(pc) != _streams(pa)
