"""Property tests: the zero-copy buffer plane equals the legacy bytes plane.

PR 3 replaced the hot-path bytes slicing/joining in the content sources and
the filesystem with ``readinto`` into reusable buffers, plus memoized
checksums.  ``REPRO_LEGACY_BUFFERS`` (here via the ``legacy_buffers``
context manager) keeps the original implementation alive as a reference:
these tests drive both planes with randomized source shapes and random
offset/length windows — including page- and pattern-block-aligned
boundaries — and require byte-for-byte and digest-for-digest agreement.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.content import (
    ConcatSource,
    LiteralSource,
    PatternSource,
    SliceSource,
    ZeroSource,
    legacy_buffers,
)
from repro.storage.filesystem import Inode, InodeRangeSource
from repro.storage.pagecache import PAGE_SIZE, PageCache

# Offsets/lengths are drawn around the implementation's interesting edges:
# the 32-byte pattern block, the 4 KiB page, and the 1 MiB streaming chunk.
_EDGES = (0, 1, 31, 32, 33, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1)


def _windows(size):
    values = [v for v in _EDGES if v <= size] + [size, max(0, size - 7)]
    return st.tuples(st.sampled_from(values), st.sampled_from(values))


@st.composite
def source_and_window(draw):
    kind = draw(st.sampled_from(
        ["literal", "pattern", "zero", "concat", "slice", "chunked"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    size = draw(st.integers(min_value=1, max_value=3 * PAGE_SIZE))
    if kind == "literal":
        data = bytes((seed + i * 13) % 256 for i in range(size))
        source = LiteralSource(data)
    elif kind == "pattern":
        source = PatternSource(size, seed=seed)
    elif kind == "zero":
        source = ZeroSource(size)
    elif kind == "concat":
        third = max(1, size // 3)
        source = ConcatSource([
            PatternSource(third, seed=seed),
            LiteralSource(bytes((seed + i) % 256 for i in range(third))),
            ZeroSource(size - 2 * third) if size > 2 * third
            else PatternSource(1, seed=seed + 1),
        ])
    elif kind == "slice":
        base = PatternSource(size + 64, seed=seed)
        source = SliceSource(base, draw(st.integers(0, 64)), size)
    else:
        # Adjacent slices of (a window of) one base — the shape a ring
        # read streams — exercises ConcatSource's transitive coalescing.
        base = SliceSource(PatternSource(size + 64, seed=seed),
                           draw(st.integers(0, 64)), size)
        chunk = draw(st.sampled_from([1, 7, 32, PAGE_SIZE]))
        source = ConcatSource([
            SliceSource(base, pos, min(chunk, size - pos))
            for pos in range(0, size, chunk)])
    offset, length = draw(_windows(source.size))
    return source, offset, length


@given(case=source_and_window())
@settings(max_examples=60, deadline=None)
def test_fast_read_equals_legacy_read(case):
    source, offset, length = case
    fast = source.read(offset, length)
    with legacy_buffers():
        legacy = source.read(offset, length)
    assert fast == legacy


@given(case=source_and_window(),
       chunk=st.sampled_from([7, 32, 100, PAGE_SIZE, 1 << 20]))
@settings(max_examples=60, deadline=None)
def test_fast_checksum_equals_legacy_checksum(case, chunk):
    source, _, _ = case
    # Fast plane memoizes; compute it first so a stale memo would be caught
    # by the legacy reference, which always streams from scratch.
    fast = source.checksum(chunk)
    with legacy_buffers():
        legacy = source.checksum(chunk)
    assert fast == legacy
    assert source.checksum(chunk) == legacy  # memo stays right


@given(case=source_and_window())
@settings(max_examples=60, deadline=None)
def test_readinto_matches_read(case):
    source, offset, length = case
    expected = source.read(offset, length)
    buf = bytearray(len(expected))
    wrote = source.readinto(offset, buf)
    assert wrote == len(expected)
    assert bytes(buf) == expected


@st.composite
def inode_and_window(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    n_parts = draw(st.integers(min_value=1, max_value=4))
    inode = Inode("file")
    for i in range(n_parts):
        part_size = draw(st.integers(min_value=1, max_value=PAGE_SIZE + 33))
        style = draw(st.sampled_from(["pattern", "literal", "zero"]))
        if style == "pattern":
            inode.append(PatternSource(part_size, seed=seed + i))
        elif style == "literal":
            inode.append(bytes((seed + i + j * 7) % 256
                               for j in range(part_size)))
        else:
            inode.append(ZeroSource(part_size))
    offset, length = draw(_windows(inode.size))
    return inode, offset, length


@given(case=inode_and_window())
@settings(max_examples=40, deadline=None)
def test_inode_read_across_parts_equals_legacy(case):
    inode, offset, length = case
    fast = inode.read(offset, length)
    with legacy_buffers():
        legacy = inode.read(offset, length)
    assert fast == legacy

    view = InodeRangeSource(inode)
    fast_sum = view.checksum()
    with legacy_buffers():
        legacy_sum = view.checksum()
    assert fast_sum == legacy_sum


@given(case=inode_and_window())
@settings(max_examples=40, deadline=None)
def test_inode_range_source_window_reads(case):
    inode, offset, length = case
    n = max(0, min(length, inode.size - offset))
    if inode.size - offset <= 0:
        return
    view = InodeRangeSource(inode, offset, inode.size - offset)
    assert view.read(0, length) == inode.read(offset, n)


# --------------------------------------------------------------- page cache
class _ReferenceLru:
    """The page-exact LRU PageCache accounting, kept as an oracle."""

    def __init__(self, capacity_pages):
        from collections import OrderedDict
        self.capacity_pages = capacity_pages
        self.pages = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def missing_bytes(self, key, offset, length):
        missing = 0
        for page in PageCache.page_span(offset, length):
            if (key, page) in self.pages:
                self.hits += 1
                self.pages.move_to_end((key, page))
            else:
                self.misses += 1
                missing += 1
        return missing * PAGE_SIZE

    def insert(self, key, offset, length):
        for page in PageCache.page_span(offset, length):
            entry = (key, page)
            if entry in self.pages:
                self.pages.move_to_end(entry)
            else:
                self.pages[entry] = None
                if len(self.pages) > self.capacity_pages:
                    self.pages.popitem(last=False)
                    self.evictions += 1

    def contains(self, key, offset, length):
        return all((key, page) in self.pages
                   for page in PageCache.page_span(offset, length))

    def invalidate(self, key):
        stale = [entry for entry in self.pages if entry[0] == key]
        for entry in stale:
            del self.pages[entry]
        return len(stale)

    def drop(self):
        self.pages.clear()


#: Span edges around pages 0-16: spans abut, overlap, nest inside and
#: bridge several existing runs of the unbounded cache's representation.
_CACHE_OFFSETS = st.one_of(
    st.integers(min_value=0, max_value=16).map(lambda page: page * PAGE_SIZE),
    st.integers(min_value=0, max_value=16 * PAGE_SIZE))
_CACHE_LENGTHS = st.one_of(
    st.integers(min_value=0, max_value=8).map(lambda pages: pages * PAGE_SIZE),
    st.integers(min_value=1, max_value=8 * PAGE_SIZE))


@st.composite
def cache_workload(draw):
    capacity_pages = draw(st.sampled_from([1, 2, 3, 8, float("inf")]))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        ops.append((
            draw(st.sampled_from(["miss_then_insert", "insert", "probe",
                                  "contains", "invalidate", "drop"])),
            draw(st.sampled_from(["a", "b", "c"])),
            draw(_CACHE_OFFSETS),
            draw(_CACHE_LENGTHS),
        ))
    return capacity_pages, ops


@given(workload=cache_workload())
@settings(max_examples=100, deadline=None)
def test_pagecache_accounting_matches_reference_lru(workload):
    """Both residency representations match the page-exact LRU oracle.

    Capacities of a few pages force evictions right at the LRU boundary —
    the regime where a recency-bookkeeping bug changes which page gets
    evicted and therefore every later hit/miss count.  Unbounded caches
    keep page runs instead of pages; spans that abut, overlap, nest and
    bridge runs exercise every merge case.
    """
    capacity_pages, ops = workload
    capacity_bytes = (float("inf") if capacity_pages == float("inf")
                      else capacity_pages * PAGE_SIZE)
    cache = PageCache(capacity_bytes=capacity_bytes)
    oracle = _ReferenceLru(capacity_pages)
    for op, key, offset, length in ops:
        if op == "contains":
            assert (cache.contains(key, offset, length)
                    == oracle.contains(key, offset, length))
        elif op == "invalidate":
            assert cache.invalidate(key) == oracle.invalidate(key)
        elif op == "drop":
            cache.drop()
            oracle.drop()
        elif op == "insert":
            cache.insert(key, offset, length)
            oracle.insert(key, offset, length)
        else:
            missing = cache.missing_bytes(key, offset, length)
            assert missing == oracle.missing_bytes(key, offset, length)
            if op == "miss_then_insert":
                cache.insert(key, offset, length)
                oracle.insert(key, offset, length)
        assert cache.resident_pages == len(oracle.pages)
        assert cache.resident_bytes == len(oracle.pages) * PAGE_SIZE
        # Probe whole-page spans around the touched key's runs: spans that
        # end exactly at, or one page past, a run edge.
        for first in range(18):
            for npages in (1, 2, 3):
                span = (key, first * PAGE_SIZE, npages * PAGE_SIZE)
                assert cache.contains(*span) == oracle.contains(*span)
    assert (cache.hits, cache.misses, cache.evictions) == \
        (oracle.hits, oracle.misses, oracle.evictions)
    resident = cache.resident()
    if capacity_pages != float("inf"):
        # LRU order is only observable (and only maintained) when bounded.
        assert resident == list(oracle.pages)
    else:
        assert len(resident) == len(set(resident))
        assert set(resident) == set(oracle.pages)
