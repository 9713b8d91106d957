"""Page cache model.

Both the host kernel and every guest kernel own a page cache.  The cache
tracks which (object, page) pairs are resident; it does not store bytes
(bytes live in the filesystem's content sources) — residency is what
determines whether a read pays device time.

Residency has two representations, chosen by capacity:

* **Unbounded caches** (the default for ``Host.page_cache`` and
  ``VirtualMachine.guest_cache``) never evict, so only *which* pages are
  resident is observable.  Each object key maps to a sorted flat list of
  disjoint, non-adjacent half-open page runs ``[start0, end0, start1,
  end1, ...]``, searched with :mod:`bisect`.  A sequential TestDFSIO pass
  over a file therefore leaves one run per key instead of one dict entry
  per 4 KiB page.  :meth:`PageCache.missing_bytes` and
  :meth:`PageCache.contains` cost ``O(log R + k)`` for ``R`` runs of the
  key and ``k`` runs overlapping the span; :meth:`PageCache.insert` costs
  the same plus one list splice that merges every run the span overlaps
  or touches; :meth:`PageCache.invalidate` and :meth:`PageCache.drop`
  discard whole lists.
* **Bounded caches** (``ablation-cache-size`` and tests) keep one
  ``OrderedDict`` entry per page in LRU order.  Which page is evicted next
  is observable through every later hit/miss count, and a run cannot
  carry a per-page recency, so these caches stay page-exact.

Hit and miss counters are per page in both representations.

"Read without cache" experiments call :meth:`PageCache.drop` (the paper
clears the guest disk buffer and disables the hypervisor's virtual-disk
cache); "re-read" experiments leave the cache warm.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Dict, Hashable, List, Tuple

PAGE_SIZE = 4096


class PageCache:
    """Page cache of 4 KiB pages keyed by (object key, page index)."""

    def __init__(self, capacity_bytes: float = float("inf"),
                 name: str = "pagecache"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_pages = (float("inf") if capacity_bytes == float("inf")
                               else max(1, int(capacity_bytes // PAGE_SIZE)))
        self._bounded = self.capacity_pages != float("inf")
        #: Bounded caches: one entry per resident page, LRU first.
        self._pages: "OrderedDict[Tuple[Hashable, int], None]" = OrderedDict()
        #: Unbounded caches: per key, flat sorted ``[start, end, ...]`` runs.
        self._runs: Dict[Hashable, List[int]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ---------------------------------------------------------------- sizing
    @property
    def resident_pages(self) -> int:
        if self._bounded:
            return len(self._pages)
        return sum(sum(runs[1::2]) - sum(runs[::2])
                   for runs in self._runs.values())

    @property
    def resident_bytes(self) -> int:
        return self.resident_pages * PAGE_SIZE

    def resident(self) -> List[Tuple[Hashable, int]]:
        """Every resident ``(key, page)`` pair, each once.

        Bounded caches list them in LRU order (least recently used first);
        unbounded caches per key, in ascending page order.
        """
        if self._bounded:
            return list(self._pages)
        return [(key, page) for key, runs in self._runs.items()
                for i in range(0, len(runs), 2)
                for page in range(runs[i], runs[i + 1])]

    # ----------------------------------------------------------------- pages
    @staticmethod
    def page_span(offset: int, length: int) -> range:
        """Page indices covering [offset, offset+length)."""
        if length <= 0:
            return range(0)
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        return range(first, last + 1)

    def missing_bytes(self, key: Hashable, offset: int, length: int) -> int:
        """Bytes in the range whose pages are NOT resident (device I/O need).

        Also counts hits/misses and, when bounded, refreshes the LRU
        position of resident pages.
        """
        if length <= 0:
            return 0
        first = offset // PAGE_SIZE
        end = (offset + length - 1) // PAGE_SIZE + 1
        if self._bounded:
            pages = self._pages
            move_to_end = pages.move_to_end
            missing_pages = 0
            for page in range(first, end):
                entry = (key, page)
                if entry in pages:
                    move_to_end(entry)
                else:
                    missing_pages += 1
        else:
            missing_pages = end - first
            runs = self._runs.get(key)
            if runs:
                # Start at the run holding ``first`` or the next one after.
                i = bisect_right(runs, first) & ~1
                n = len(runs)
                while i < n:
                    start = runs[i]
                    if start >= end:
                        break
                    stop = runs[i + 1]
                    missing_pages -= ((stop if stop < end else end)
                                      - (start if start > first else first))
                    i += 2
        self.hits += end - first - missing_pages
        self.misses += missing_pages
        return missing_pages * PAGE_SIZE

    def contains(self, key: Hashable, offset: int, length: int) -> bool:
        """True if every page of the range is resident (no LRU side effects)."""
        if self._bounded:
            return all((key, page) in self._pages
                       for page in self.page_span(offset, length))
        if length <= 0:
            return True
        runs = self._runs.get(key)
        if not runs:
            return False
        first = offset // PAGE_SIZE
        i = bisect_right(runs, first)
        # Odd: ``first`` lies inside run i // 2, which must reach the end.
        return bool(i & 1) and runs[i] > (offset + length - 1) // PAGE_SIZE

    def insert(self, key: Hashable, offset: int, length: int) -> None:
        """Mark the pages of the range resident, evicting LRU pages if needed."""
        if length <= 0:
            return
        first = offset // PAGE_SIZE
        end = (offset + length - 1) // PAGE_SIZE + 1
        if not self._bounded:
            runs = self._runs.get(key)
            if runs is None:
                self._runs[key] = [first, end]
                return
            # Merge with every run that overlaps or touches [first, end).
            lo = bisect_left(runs, first)
            if lo & 1:   # some run ends at or after ``first``: extend it
                lo -= 1
                first = runs[lo]
            hi = bisect_right(runs, end)
            if hi & 1:   # some run starts at or before ``end``: absorb it
                end = runs[hi]
                hi += 1
            runs[lo:hi] = (first, end)
            return
        pages = self._pages
        capacity = self.capacity_pages
        move_to_end = pages.move_to_end
        popitem = pages.popitem
        for page in range(first, end):
            entry = (key, page)
            if entry in pages:
                move_to_end(entry)
            else:
                pages[entry] = None
                if len(pages) > capacity:
                    popitem(last=False)
                    self.evictions += 1

    def invalidate(self, key: Hashable) -> int:
        """Drop all pages of one object; returns pages dropped."""
        if not self._bounded:
            runs = self._runs.pop(key, None)
            return sum(runs[1::2]) - sum(runs[::2]) if runs else 0
        stale = [entry for entry in self._pages if entry[0] == key]
        for entry in stale:
            del self._pages[entry]
        return len(stale)

    def drop(self) -> None:
        """Drop everything (echo 3 > /proc/sys/vm/drop_caches)."""
        self._pages.clear()
        self._runs.clear()

    def __repr__(self) -> str:
        return (f"<PageCache {self.name} pages={self.resident_pages} "
                f"hits={self.hits} misses={self.misses}>")
