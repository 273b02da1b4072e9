"""Hardware stream prefetcher (next-line, stream-table based).

Models the commodity 1-D spatial prefetcher the paper contrasts with its
software spatial prefetch (Sections 2.3.3 / 3.3), with the three
limitations that shape real behaviour:

* a small LRU **stream table** — the vector method's ``2r + 2`` row
  streams fit; the matrix method's ``2r + 16`` concurrent input/output row
  streams thrash it, so matrix-method streams are repeatedly evicted and
  must retrain;
* **miss-based allocation, any-access advance** — new streams are only
  allocated on L1 demand misses (hits carry no training information for
  an untracked stream), but a *resident* stream advances and prefetches
  on every sequential access.  A stream that stays resident (vector
  kernels) therefore sustains full coverage, while one that is evicted
  between touches (matrix kernels) must re-pay the allocation+confirm
  misses every few lines;
* **two-advance confirmation** — a stream only starts prefetching after
  two consecutive line advances, so every retrain costs misses;
* **page-boundary stops** — streams never cross a 4 KiB page, the
  standard safety restriction; long rows retrain once per page.

Together these reproduce the paper's observation that the "complex memory
access pattern of outer-product computation hinders the utilization of
such hardware features" while row-streaming vector kernels stay covered.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.machine.cache import CacheHierarchy

#: Lines per 4 KiB page (64-byte lines).
LINES_PER_PAGE = 64


@dataclass(slots=True)
class _Stream:
    tail_line: int
    advances: int = 0


class StreamPrefetcher:
    """LRU stream table issuing next-line prefetches into L1."""

    def __init__(
        self,
        hierarchy: CacheHierarchy,
        num_streams: int,
        depth: int,
        enabled: bool = True,
        confirm_advances: int = 2,
    ) -> None:
        self.hierarchy = hierarchy
        self.num_streams = num_streams
        self.depth = depth
        self.enabled = enabled
        self.confirm_advances = confirm_advances
        # Stream table keyed by tail line, least-recently-used first.  Tail
        # lines are unique (a stream only ever advances to — and is only
        # ever allocated at — a line no other stream currently tails), so
        # the key doubles as stream identity and every probe is O(1).
        self._streams: "OrderedDict[int, _Stream]" = OrderedDict()
        self.prefetches_issued = 0
        self.streams_confirmed = 0
        self.streams_allocated = 0

    def observe(self, word_addr: int, nwords: int, hit: bool = False) -> None:
        """Train on a demand access (loads and stores both train).

        ``hit`` marks an L1 demand hit: hits advance *resident* streams
        but never allocate new ones.
        """
        if not self.enabled or self.num_streams <= 0:
            return
        for line in self.hierarchy.lines_for(word_addr, nwords):
            self._observe_line(line, hit)

    def _observe_line(self, line: int, hit: bool) -> None:
        streams = self._streams
        stream = streams.get(line)
        if stream is not None:
            # Re-access of the tail: refresh recency only.
            streams.move_to_end(line)
            return
        stream = streams.get(line - 1)
        if stream is not None:
            del streams[line - 1]
            stream.advances += 1
            stream.tail_line = line
            streams[line] = stream
            if stream.advances == self.confirm_advances:
                self.streams_confirmed += 1
            if stream.advances >= self.confirm_advances:
                self._issue_ahead(line)
            return
        if hit:
            return  # hits never allocate a stream
        # New candidate stream (unconfirmed); evict LRU if full.
        streams[line] = _Stream(tail_line=line)
        self.streams_allocated += 1
        if len(streams) > self.num_streams:
            streams.popitem(last=False)

    def _issue_ahead(self, line: int) -> None:
        """Prefetch up to ``depth`` lines ahead, stopping at the page edge."""
        page = line // LINES_PER_PAGE
        for ahead in range(1, self.depth + 1):
            target = line + ahead
            if target // LINES_PER_PAGE != page:
                break
            self.hierarchy.hardware_prefetch(target)
            self.prefetches_issued += 1

    def clone(self, hierarchy: CacheHierarchy) -> "StreamPrefetcher":
        """Independent copy of the stream table, bound to ``hierarchy``.

        The caller supplies the (cloned) hierarchy so prefetch fills issued
        by the copy land in the copied caches, not the originals.
        """
        out = StreamPrefetcher(
            hierarchy,
            num_streams=self.num_streams,
            depth=self.depth,
            enabled=self.enabled,
            confirm_advances=self.confirm_advances,
        )
        for line, stream in self._streams.items():
            out._streams[line] = _Stream(
                tail_line=stream.tail_line, advances=stream.advances
            )
        out.prefetches_issued = self.prefetches_issued
        out.streams_confirmed = self.streams_confirmed
        out.streams_allocated = self.streams_allocated
        return out

    def active_streams(self) -> int:
        return len(self._streams)

    def reset_stats(self) -> None:
        self.prefetches_issued = 0
        self.streams_confirmed = 0
        self.streams_allocated = 0
