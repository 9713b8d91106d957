"""Property tests: the zero-copy buffer plane equals the legacy bytes plane.

PR 3 replaced the hot-path bytes slicing/joining in the content sources and
the filesystem with ``readinto`` into reusable buffers, plus memoized
checksums.  ``REPRO_LEGACY_BUFFERS`` (here via the ``legacy_buffers``
context manager) keeps the original implementation alive as a reference:
these tests drive both planes with randomized source shapes and random
offset/length windows — including page- and pattern-block-aligned
boundaries — and require byte-for-byte and digest-for-digest agreement.
Random trees of slice, concat and inode-range views also check the view
resolver (``ByteSource._window``) against the byte provenance of each view.
"""

import hashlib

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


# ---------------------------------------------------------- view resolver
def _merge(segments):
    """Coalesce ``(leaf, start, length)`` runs that continue one another."""
    merged = []
    for leaf, start, length in segments:
        if merged and merged[-1][0] is leaf \
                and merged[-1][1] + merged[-1][2] == start:
            merged[-1] = (leaf, merged[-1][1], merged[-1][2] + length)
        else:
            merged.append((leaf, start, length))
    return merged


def _cut(segments, offset, size):
    """The runs covering bytes [offset, offset+size) of ``segments``."""
    out = []
    pos = 0
    for leaf, start, length in segments:
        lo = max(offset, pos)
        hi = min(offset + size, pos + length)
        if lo < hi:
            out.append((leaf, start + lo - pos, hi - lo))
        pos += length
    return _merge(out)


def _range(draw, size):
    """A non-empty ``(offset, size)`` range of ``size`` bytes; half the
    time all of them."""
    if draw(st.booleans()):
        return 0, size
    offset = draw(st.integers(0, size - 1))
    return offset, draw(st.integers(1, size - offset))


def _view_tree(draw, leaves, depth):
    """A random view over ``leaves`` plus its byte provenance: the merged
    ``(leaf, leaf_offset, length)`` runs its bytes come from."""
    kinds = ["leaf"] if depth == 0 else \
        ["leaf", "slice", "pieces", "concat", "inode"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        leaf = draw(st.sampled_from(leaves))
        return leaf, [(leaf, 0, leaf.size)]
    if kind == "concat":
        # Nested concats of independent subtrees: windows span leaves.
        children = [_view_tree(draw, leaves, depth - 1)
                    for _ in range(draw(st.integers(1, 3)))]
        return (ConcatSource([child for child, _ in children]),
                _merge([run for _, runs in children for run in runs]))
    base, runs = _view_tree(draw, leaves, depth - 1)
    if kind == "slice":
        offset, size = _range(draw, base.size)
        return SliceSource(base, offset, size), _cut(runs, offset, size)
    # Adjacent slices of one subtree (a read streamed chunk by chunk, or
    # a block file written packet by packet), sometimes with a piece
    # dropped or two swapped so the pieces stop being adjacent.
    cuts = sorted(set(draw(st.lists(
        st.integers(1, max(1, base.size - 1)), max_size=4))) - {base.size})
    bounds = [0] + cuts + [base.size]
    pieces = [(bounds[i], bounds[i + 1] - bounds[i])
              for i in range(len(bounds) - 1)]
    shuffle = draw(st.sampled_from(["adjacent", "drop", "swap"]))
    if shuffle == "drop" and len(pieces) > 1:
        del pieces[draw(st.integers(0, len(pieces) - 1))]
    elif shuffle == "swap" and len(pieces) > 1:
        i = draw(st.integers(0, len(pieces) - 2))
        pieces[i], pieces[i + 1] = pieces[i + 1], pieces[i]
    # A piece may come from another leaf of the same size instead.  The
    # two PatternSources are twins with equal content: bytes match, but a
    # window never continues from one leaf into another.
    other = draw(st.sampled_from(leaves))
    parts = []
    piece_runs = []
    for offset, size in pieces:
        source, source_runs = base, runs
        if other.size == base.size and draw(st.booleans()):
            source, source_runs = other, [(other, 0, other.size)]
        parts.append(SliceSource(source, offset, size))
        piece_runs.extend(_cut(source_runs, offset, size))
    runs = _merge(piece_runs)
    if kind == "pieces":
        return ConcatSource(parts), runs
    inode = Inode("file")
    for part in parts:
        inode.append(part)
    offset, size = _range(draw, inode.size)
    view = InodeRangeSource(inode, offset, size)
    if draw(st.booleans()):
        # Appends after the view was made must not change what it covers.
        inode.append(draw(st.sampled_from(leaves)))
    return view, _cut(runs, offset, size)


@st.composite
def view_tree(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    sizes = [draw(st.integers(min_value=1, max_value=2 * PAGE_SIZE + 33))
             for _ in range(3)]
    leaves = [
        PatternSource(sizes[0], seed=seed),
        PatternSource(sizes[0], seed=seed),
        LiteralSource(bytes((seed + i * 7) % 256 for i in range(sizes[1]))),
        ZeroSource(sizes[2]),
    ]
    return _view_tree(draw, leaves, draw(st.integers(1, 3)))


def _expected_window(runs):
    return (runs[0][0], runs[0][1]) if len(runs) == 1 else None


def _same_window(got, expected):
    if got is None or expected is None:
        return got is expected
    return got[0] is expected[0] and got[1] == expected[1]


@given(tree=view_tree(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_window_resolves_exactly_the_single_leaf_windows(tree, data):
    """``_window`` names a leaf exactly when the bytes are one contiguous
    window of it, for the whole view and for random sub-windows."""
    source, runs = tree
    assert sum(length for _, _, length in runs) == source.size
    assert _same_window(source._window(0, source.size),
                        _expected_window(runs))
    offset = data.draw(st.integers(0, source.size - 1))
    size = data.draw(st.integers(1, source.size - offset))
    assert _same_window(source._window(offset, size),
                        _expected_window(_cut(runs, offset, size)))


@given(tree=view_tree())
@settings(max_examples=150, deadline=None)
def test_resolved_checksum_equals_streamed_content(tree):
    """The fast checksum (resolved to a leaf's digest or streamed) equals
    the legacy plane's and the digest of the bytes actually read."""
    source, _ = tree
    fast = source.checksum()
    with legacy_buffers():
        legacy = source.checksum()
    assert fast == legacy
    assert fast == hashlib.sha256(source.read(0, source.size)).hexdigest()
    assert source.checksum() == legacy  # memo stays right


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
