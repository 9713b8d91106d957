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
join-and-reslice per hop.  :meth:`ByteSource.checksum` resolves a view
(a slice, a concat of pieces, an inode range) through
:meth:`ByteSource._window` to the one leaf source it covers, when it
covers a whole leaf, and returns that leaf's memoized digest; only other
shapes stream through a single reusable buffer.  The *simulated* copy
costs are untouched — they are the paper's subject; this is purely about
the wall-clock of the simulator process.

``use_legacy_buffers(True)`` (or ``REPRO_LEGACY_BUFFERS=1``) routes
``read``/``checksum`` through the original ``bytes``-slicing
implementations; the property tests and the PR 3 benchmark harness use the
toggle to prove the two planes are byte-identical and to measure the
speedup honestly.
"""

from __future__ import annotations

import functools
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

    def _window(self, offset: int, size: int):
        """``(leaf, leaf_offset)`` when bytes [offset, offset+size) are one
        contiguous window of a single leaf source, else ``None``.

        A leaf holds or generates its own bytes, so it is its own window;
        view sources override this to resolve through what they view.
        """
        return self, offset

    def checksum(self, chunk: int = _CHUNK) -> str:
        """SHA-256 of the whole content (streamed; safe for lazy sources).

        A view whose bytes are exactly one whole leaf (a block read back
        piece by piece, or spliced from several replicas' block files)
        returns that leaf's memoized digest — the HDFS stored-checksum
        analogue.  Any other content streams through one reusable buffer
        (an incremental checksum: no per-chunk bytes objects), and the
        result is memoized because sources are immutable.
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
        window = self._window(0, self.size)
        if window is not None:
            leaf, leaf_offset = window
            if leaf is not self and leaf_offset == 0 \
                    and leaf.size == self.size:
                return leaf.checksum(chunk)
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
    SHA-256(seed, i).  Reads synthesize exactly the requested range; the
    whole content is never held in memory.

    :meth:`checksum` streams the synthesis through :func:`_pattern_digest`,
    a pure function of ``(seed, size)`` memoized as 64-character digests,
    so payloads with equal specs (several writers, several sweep points)
    synthesize once for verification.
    """

    _BLOCK = 32  # sha256 digest size

    def __init__(self, size: int, seed: int = 0):
        super().__init__(size)
        self.seed = seed
        self._prefix = _pattern_prefix(seed)

    def _block(self, index: int) -> bytes:
        return hashlib.sha256(self._prefix + b"%d" % index).digest()

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
        """Generate bytes at [offset, offset+len(buf)) into ``buf``."""
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n == 0:
            return 0
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
            view[pos:end] = _pattern_blocks(prefix, index, index + whole)
            pos = end
            index += whole
        if pos < n:
            # Trailing partial block.
            view[pos:n] = sha(prefix + b"%d" % index).digest()[:n - pos]
        return n

    def checksum(self, chunk: int = _CHUNK) -> str:
        if _legacy_buffers:
            return super().checksum(chunk)
        return _pattern_digest(self.seed, self.size)


def _pattern_prefix(seed: int) -> bytes:
    return f"pattern:{seed}:".encode()


def _pattern_blocks(prefix: bytes, start: int, stop: int) -> bytes:
    """Pattern blocks ``start`` to ``stop - 1``, joined."""
    sha = hashlib.sha256
    return b"".join(sha(prefix + b"%d" % i).digest()
                    for i in range(start, stop))


@functools.lru_cache(maxsize=256)
def _pattern_digest(seed: int, size: int) -> str:
    """SHA-256 hex of ``PatternSource(size, seed)``'s content, streamed
    one chunk of blocks at a time."""
    prefix = _pattern_prefix(seed)
    block_size = PatternSource._BLOCK
    digest = hashlib.sha256()
    full_blocks = size // block_size
    per_chunk = _CHUNK // block_size
    for start in range(0, full_blocks, per_chunk):
        digest.update(_pattern_blocks(
            prefix, start, min(start + per_chunk, full_blocks)))
    remainder = size - full_blocks * block_size
    if remainder:
        digest.update(_pattern_blocks(
            prefix, full_blocks, full_blocks + 1)[:remainder])
    return digest.hexdigest()


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

    def _window(self, offset: int, size: int):
        return parts_window(self._parts, offset, size)


def parts_window(parts, offset: int, size: int):
    """:meth:`ByteSource._window` over the concatenation of ``parts``.

    Every part overlapping [offset, offset+size) must resolve to the same
    leaf, each at the leaf offset where the previous one ended.
    """
    end = offset + size
    found = None
    pos = 0
    for part in parts:
        part_end = pos + part.size
        if part_end > offset:
            inner = max(0, offset - pos)
            take = min(end, part_end) - pos - inner
            window = part._window(inner, take)
            if window is None:
                return None
            if found is None:
                found = window
                cursor = window[1] + take
            elif window[0] is not found[0] or window[1] != cursor:
                return None
            else:
                cursor += take
        pos = part_end
        if pos >= end:
            return found
    return None


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

    def _window(self, offset: int, size: int):
        return self._base._window(self._offset + offset, size)
