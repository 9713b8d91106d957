"""Byte-content sources: real or lazily generated file contents.

The simulation moves *actual data* so correctness is testable end to end.
Small test files use :class:`LiteralSource` (real bytes in memory);
benchmark files of hundreds of megabytes use :class:`PatternSource`, which
generates any requested range deterministically from a seed — two reads of
the same range always return identical bytes, and the full file never needs
to be materialized.

Two access styles exist on every source:

* :meth:`ByteSource.read` — returns ``bytes`` (the historical API);
* :meth:`ByteSource.readinto` — fills a caller-supplied buffer
  (``bytearray``/``memoryview``) and returns the byte count.

``readinto`` is the zero-copy data plane: a 64 MB block moves through the
host Python process with one buffer allocation instead of a
join-and-reslice per hop, and :meth:`ByteSource.checksum` streams through a
single reusable buffer (the incremental checksum).  The *simulated* copy
costs are untouched — they are the paper's subject; this is purely about
the wall-clock of the simulator process.

``use_legacy_buffers(True)`` (or ``REPRO_LEGACY_BUFFERS=1``) routes
``read``/``checksum`` through the original ``bytes``-slicing
implementations; the property tests and the PR 3 benchmark harness use the
toggle to prove the two planes are byte-identical and to measure the
speedup honestly.
"""

from __future__ import annotations

import hashlib
import os
from typing import Union

#: Streaming granularity for checksums and fallback readinto paths.
_CHUNK = 1 << 20

_legacy_buffers = os.environ.get("REPRO_LEGACY_BUFFERS", "") not in ("", "0")


def use_legacy_buffers(enabled: bool) -> None:
    """Route read/checksum through the pre-PR3 bytes-slicing code paths."""
    global _legacy_buffers
    _legacy_buffers = bool(enabled)


def legacy_buffers_enabled() -> bool:
    """True when the legacy (join-and-slice) data plane is selected."""
    return _legacy_buffers


class legacy_buffers:
    """Context manager: temporarily select the legacy data plane."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._previous = None

    def __enter__(self) -> "legacy_buffers":
        self._previous = _legacy_buffers
        use_legacy_buffers(self._enabled)
        return self

    def __exit__(self, *exc) -> None:
        use_legacy_buffers(self._previous)


class ByteSource:
    """Abstract offset-addressable, immutable byte content."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"negative size {size}")
        self.size = size
        #: Memoized full-content checksum (contents are immutable).
        self._checksum_hex = None

    def read(self, offset: int, length: int) -> bytes:
        """Bytes at [offset, offset+length), clamped to the source size."""
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        buf = bytearray(n)
        self.readinto(offset, buf)
        return bytes(buf)

    def readinto(self, offset: int, buf) -> int:
        """Fill ``buf`` with bytes at [offset, offset+len(buf)).

        Returns the number of bytes written (clamped at the source size).
        Subclasses override this with a no-intermediate-allocation
        implementation; the base fallback goes through :meth:`read`.
        """
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n:
            view[:n] = self.read(offset, n)
        return n

    def _clamp(self, offset: int, length: int) -> int:
        if offset < 0 or length < 0:
            raise ValueError(f"negative offset/length ({offset}, {length})")
        return max(0, min(length, self.size - offset))

    # ------------------------------------------------------- view coalescing
    def _view_key(self):
        """``(backing store, absolute offset)`` when this source is a
        contiguous window into another store, else ``None``.

        View sources resolve transitively, so a slice of a slice of an
        inode range all map to the same backing store.
        :class:`ConcatSource` uses this to recognise a run of adjacent
        windows (e.g. the per-chunk slices a vRead daemon streams through
        the ring) as one region of the backing store, so a checksum over
        the concat can reuse the backing store's memoized digest instead
        of regenerating every byte.
        """
        return None

    def _make_range(self, offset: int, size: int) -> "ByteSource":
        """A source covering ``size`` bytes of this store at ``offset``
        (coalescing support; backing stores implement this)."""
        if offset == 0 and size == self.size:
            return self
        return SliceSource(self, offset, size)

    def checksum(self, chunk: int = _CHUNK) -> str:
        """SHA-256 of the whole content (streamed; safe for lazy sources).

        The fast plane streams through one reusable buffer (an incremental
        checksum: no per-chunk bytes objects); results are memoized because
        sources are immutable.
        """
        digest = hashlib.sha256()
        if _legacy_buffers:
            offset = 0
            while offset < self.size:
                piece = self.read(offset, min(chunk, self.size - offset))
                digest.update(piece)
                offset += len(piece)
            return digest.hexdigest()
        if self._checksum_hex is not None:
            return self._checksum_hex
        buf = bytearray(min(chunk, max(1, self.size)))
        view = memoryview(buf)
        offset = 0
        while offset < self.size:
            n = self.readinto(offset, view[:min(chunk, self.size - offset)])
            digest.update(view[:n])
            offset += n
        self._checksum_hex = digest.hexdigest()
        return self._checksum_hex


class LiteralSource(ByteSource):
    """Content backed by real bytes in memory."""

    def __init__(self, data: Union[bytes, bytearray, memoryview]):
        super().__init__(len(data))
        self._data = bytes(data)

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        return self._data[offset:offset + n]

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        view[:n] = memoryview(self._data)[offset:offset + n]
        return n

    @property
    def data(self) -> bytes:
        return self._data


class PatternSource(ByteSource):
    """Deterministic pseudo-random content generated on demand.

    The byte at absolute position ``i`` depends only on ``(seed, i)``, so any
    sub-range can be generated independently: block ``i`` of 32 bytes is
    SHA-256(seed, i).

    Synthesis is pure sha256, which dominates the wall-clock of any
    workload that streams the same payload more than once (a write pass
    plus checksum-verified read passes).  Sources up to
    ``_MATERIALIZE_CAP`` therefore materialize their content once on
    first fast-plane access and serve every later range as a memcpy; the
    buffer is shared across instances through a per-process cache keyed
    by ``(seed, size)`` (two sweep points with the same payload spec
    synthesize once).  Content is identical either way — the cache holds
    exactly the bytes the streaming synthesis produces — and the legacy
    plane (``REPRO_LEGACY_BUFFERS``) never materializes, so the PR 3
    equivalence harness keeps proving byte-identity.  Larger sources keep
    the original promise: any range on demand, never the whole file.
    """

    _BLOCK = 32  # sha256 digest size

    #: Sources at or under this size serve reads from materialized bytes.
    _MATERIALIZE_CAP = 32 << 20

    #: Per-process cache budget for shared materialized content.
    _CACHE_BUDGET = 256 << 20

    _cache: "dict" = {}          # (seed, size) -> memoryview, insertion-ordered
    _cache_bytes = 0

    def __init__(self, size: int, seed: int = 0):
        super().__init__(size)
        self.seed = seed
        self._prefix = f"pattern:{seed}:".encode()
        self._data = None

    def _block(self, index: int) -> bytes:
        return hashlib.sha256(self._prefix + b"%d" % index).digest()

    def _materialize(self) -> memoryview:
        """Full content as one shared read-only view (synthesized once)."""
        data = self._data
        if data is not None:
            return data
        cls = PatternSource
        key = (self.seed, self.size)
        data = cls._cache.get(key)
        if data is None:
            # Synthesize straight into the one buffer a chunk at a time (no
            # per-block digest list for the whole source), then publish it
            # through a read-only view instead of copying it into bytes.
            buf = bytearray(self.size)
            view = memoryview(buf)
            for start in range(0, self.size, _CHUNK):
                self._synthesize(start, view[start:start + _CHUNK])
            data = view.toreadonly()
            cls._cache[key] = data
            cls._cache_bytes += len(data)
            while cls._cache_bytes > cls._CACHE_BUDGET and len(cls._cache) > 1:
                oldest = next(iter(cls._cache))
                cls._cache_bytes -= len(cls._cache.pop(oldest))
        self._data = data
        return data

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        if _legacy_buffers:
            first = offset // self._BLOCK
            last = (offset + n - 1) // self._BLOCK
            raw = b"".join(self._block(i) for i in range(first, last + 1))
            start = offset - first * self._BLOCK
            return raw[start:start + n]
        buf = bytearray(n)
        self.readinto(offset, buf)
        return bytes(buf)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n == 0:
            return 0
        if not _legacy_buffers and self.size <= self._MATERIALIZE_CAP:
            view[:n] = self._materialize()[offset:offset + n]
            return n
        return self._synthesize(offset, view[:n])

    def _synthesize(self, offset: int, view) -> int:
        """Generate bytes at [offset, offset+len(view)) into ``view``."""
        n = len(view)
        sha = hashlib.sha256
        prefix = self._prefix
        block_size = self._BLOCK
        index = offset // block_size
        skip = offset - index * block_size
        pos = 0
        if skip:
            # Leading partial block.
            block = sha(prefix + b"%d" % index).digest()
            take = min(block_size - skip, n)
            view[:take] = block[skip:skip + take]
            pos = take
            index += 1
        whole = (n - pos) // block_size
        if whole:
            # Bulk of the range: C-speed join of whole digests, one copy.
            end = pos + whole * block_size
            view[pos:end] = b"".join(
                sha(prefix + b"%d" % i).digest()
                for i in range(index, index + whole))
            pos = end
            index += whole
        if pos < n:
            # Trailing partial block.
            view[pos:n] = sha(prefix + b"%d" % index).digest()[:n - pos]
        return n

    def checksum(self, chunk: int = _CHUNK) -> str:
        """Stream digests straight into the checksum (no staging buffer)."""
        if _legacy_buffers:
            return super().checksum(chunk)
        if self._checksum_hex is not None:
            return self._checksum_hex
        if self.size <= self._MATERIALIZE_CAP:
            digest = hashlib.sha256(self._materialize())
            self._checksum_hex = digest.hexdigest()
            return self._checksum_hex
        digest = hashlib.sha256()
        sha = hashlib.sha256
        prefix = self._prefix
        blocks_per_chunk = max(1, chunk // self._BLOCK)
        full_blocks = self.size // self._BLOCK
        for start in range(0, full_blocks, blocks_per_chunk):
            stop = min(start + blocks_per_chunk, full_blocks)
            digest.update(b"".join(sha(prefix + b"%d" % i).digest()
                                   for i in range(start, stop)))
        remainder = self.size - full_blocks * self._BLOCK
        if remainder:
            digest.update(
                sha(prefix + b"%d" % full_blocks).digest()[:remainder])
        self._checksum_hex = digest.hexdigest()
        return self._checksum_hex


class ZeroSource(ByteSource):
    """All-zero content (sparse files, quick benchmark filler)."""

    _ZEROS = bytes(_CHUNK)

    def read(self, offset: int, length: int) -> bytes:
        return b"\x00" * self._clamp(offset, length)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        zeros = self._ZEROS
        pos = 0
        while pos < n:
            take = min(len(zeros), n - pos)
            view[pos:pos + take] = zeros[:take]
            pos += take
        return n


class ConcatSource(ByteSource):
    """Concatenation of sources (used to build files from appended writes)."""

    def __init__(self, parts):
        parts = [p for p in parts if p.size > 0]
        super().__init__(sum(p.size for p in parts))
        self._parts = parts

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        if _legacy_buffers:
            out = []
            pos = 0
            remaining = n
            cursor = offset
            for part in self._parts:
                if remaining == 0:
                    break
                if cursor < pos + part.size:
                    inner = cursor - pos
                    take = min(remaining, part.size - inner)
                    out.append(part.read(inner, take))
                    cursor += take
                    remaining -= take
                pos += part.size
            return b"".join(out)
        buf = bytearray(n)
        self.readinto(offset, buf)
        return bytes(buf)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n == 0:
            return 0
        written = 0
        pos = 0
        cursor = offset
        for part in self._parts:
            if written == n:
                break
            part_size = part.size
            if cursor < pos + part_size:
                inner = cursor - pos
                take = min(n - written, part_size - inner)
                part.readinto(inner, view[written:written + take])
                cursor += take
                written += take
            pos += part_size
        return n

    def _coalesced(self):
        """The parts merged into one window when they are adjacent views
        of the same backing store (``None`` otherwise)."""
        first = self._parts[0]
        key = first._view_key()
        if key is None:
            return None
        backing, start = key
        cursor = start + first.size
        for part in self._parts[1:]:
            part_key = part._view_key()
            if part_key is None or part_key[0] is not backing \
                    or part_key[1] != cursor:
                return None
            cursor += part.size
        return backing._make_range(start, self.size)

    def checksum(self, chunk: int = _CHUNK) -> str:
        # A single-part concat has the part's exact content; reuse (and
        # populate) that source's memoized digest.  Multi-part concats of
        # adjacent windows (a block streamed chunk-by-chunk through a ring)
        # coalesce back into one window of the backing store first.
        if not _legacy_buffers:
            if self._checksum_hex is not None:
                return self._checksum_hex
            if len(self._parts) == 1:
                self._checksum_hex = self._parts[0].checksum(chunk)
                return self._checksum_hex
            merged = self._coalesced() if self._parts else None
            if merged is not None:
                self._checksum_hex = merged.checksum(chunk)
                return self._checksum_hex
        return super().checksum(chunk)


class SliceSource(ByteSource):
    """A window into another source (used for HDFS block carving)."""

    def __init__(self, base: ByteSource, offset: int, size: int):
        if offset < 0 or offset + size > base.size:
            raise ValueError("slice out of range")
        super().__init__(size)
        self._base = base
        self._offset = offset

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        return self._base.read(self._offset + offset, n)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        return self._base.readinto(self._offset + offset, view[:n])

    def checksum(self, chunk: int = _CHUNK) -> str:
        # A whole-source window has the base's exact content.
        if self._offset == 0 and self.size == self._base.size \
                and not _legacy_buffers:
            return self._base.checksum(chunk)
        return super().checksum(chunk)

    def _view_key(self):
        base_key = self._base._view_key()
        if base_key is not None:
            backing, base_offset = base_key
            return (backing, base_offset + self._offset)
        return (self._base, self._offset)
