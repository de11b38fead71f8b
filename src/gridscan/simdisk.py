"""Simulated external memory: block-addressed files with transfer accounting.

All algorithm modules move their bulk data through a :class:`SimDisk`.  The
disk carves every file into blocks of ``block_bytes`` and counts block
transfers, split into sequential and random ones under one head per file: a
transfer is sequential when its block follows the block of the previous
counted transfer of the same file, or is the file's first, whatever other
files were touched in between.  Two access regimes exist:

* ``FileStack`` and ``access_block`` / ``read`` / ``write`` / ``flush`` go
  through an LRU cache of ``memory_bytes // block_bytes`` blocks, the
  ideal-cache stand-in for cache-oblivious code.  One miss rule holds for
  all of them: a miss counts a read only when the block holds live bytes
  that the access does not overwrite (a file's live bytes are those below
  its content length, a stack's those below its top); a written block turns
  dirty; a dirty block counts one write when it is evicted or flushed.  A
  stack block that a pop leaves wholly above the top is dead: it leaves the
  cache, or never enters it, without a write.  A pop counts its record's
  top block first, since it holds the length, and then the record's other
  missed blocks bottom up, so they form one sequential run, as a ranged
  read of the record would on a real device.  Stacks call the private
  ``_touch``; no algorithm calls the four public methods, which stay for
  tests and because the benchmark's per-layer timers wrap them by name.
* ``read_direct`` / ``write_direct``, the stream helpers and
  ``BlockBuffer`` model explicitly managed buffers: every block touched is
  counted, the LRU cache is bypassed.  Cache-aware algorithms use these.  A
  direct write counts each block it touches once per call, as a write, and
  fetches none.  A ``BlockBuffer`` holds blocks of one file: it loads them
  by direct reads and writes each dirty one back by a direct write.
  The one exception is the held block, one resident block per file: the
  block the file's last ``read_direct`` ended in.  A ``read_direct`` that
  starts in it does not count it again, and any write of bytes into it
  drops it (in Aggarwal & Vitter's I/O model a block already in memory
  costs nothing).

One range check guards every byte-range access: a negative offset or
length, or a read past a file's end, is a ``SimDiskError`` that leaves the
file and the counters as they were.  No real I/O happens; file contents
live in bytearrays and the counters are the product.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


class SimDiskError(Exception):
    pass


@dataclass(frozen=True)
class SimConfig:
    """Machine model parameters: block size B and memory size M, in bytes."""

    block_bytes: int
    memory_bytes: int

    def __post_init__(self):
        b, m = self.block_bytes, self.memory_bytes
        if b <= 0 or (b & (b - 1)) != 0:
            raise SimDiskError("block_bytes must be a positive power of two")
        if m < b * b:
            raise SimDiskError(
                "tall-cache violation: memory_bytes %d < block_bytes^2 %d" % (m, b * b)
            )

    @property
    def cache_blocks(self) -> int:
        return self.memory_bytes // self.block_bytes


@dataclass
class IoCounters:
    blocks_read: int = 0
    blocks_written: int = 0
    sequential_blocks: int = 0
    random_blocks: int = 0
    bytes_transferred: int = 0         # (blocks read + written) * block size


class FileHandle:
    """Opaque reference to a simulated file."""

    __slots__ = ("file_id", "name", "disk")

    def __init__(self, file_id: int, name: str, disk: "SimDisk"):
        self.file_id = file_id
        self.name = name
        self.disk = disk

    @property
    def length_bytes(self) -> int:
        return len(self.disk._data[self.file_id])

    def __repr__(self):
        return "FileHandle(%r, %d bytes)" % (self.name, self.length_bytes)


class _FileStats:
    __slots__ = ("reads", "writes", "sequential", "random", "last_block",
                 "held")

    def __init__(self):
        self.reads = 0
        self.writes = 0
        self.sequential = 0
        self.random = 0
        self.last_block = None  # block index of the previous counted transfer
        self.held = None        # block the last read_direct ended in


class SimDisk:
    """A set of block-padded files plus an LRU block cache and counters."""

    def __init__(self, config: SimConfig):
        self.config = config
        self._data: list[bytearray] = []
        # bytes written to or loaded into each file, before block padding
        self._ends: list[int] = []
        self._names: dict[str, int] = {}
        self._stats: list[_FileStats] = []
        # cache maps (file_id, block_index) -> dirty flag, in LRU order
        self._cache: OrderedDict[tuple[int, int], bool] = OrderedDict()

    # -- file management ---------------------------------------------------

    def open_file(self, name: str) -> FileHandle:
        if name in self._names:
            raise SimDiskError("duplicate file name %r" % name)
        fid = len(self._data)
        self._names[name] = fid
        self._data.append(bytearray())
        self._ends.append(0)
        self._stats.append(_FileStats())
        return FileHandle(fid, name, self)

    def _check(self, handle: FileHandle, offset: int, nbytes: int,
               read: bool = False):
        """The range check of every byte-range access: a negative offset or
        length, or a read past the end of the file, is a ``SimDiskError``.
        An append stream is checked where it opens, as it only moves on, and
        a stack's top never falls below 0."""
        if offset < 0 or nbytes < 0:
            raise SimDiskError("negative offset or length in %r" % handle.name)
        if read and offset + nbytes > len(self._data[handle.file_id]):
            raise SimDiskError("read past end of %r" % handle.name)

    def _prepare_write(self, fid: int, start: int, end: int):
        """Prepare a write of bytes [start, end): drop the held block if the
        write lands in it, note ``end`` as the file's content length if it is
        past it, and grow (zero-pad) the file so it covers byte ``end - 1``."""
        st, b = self._stats[fid], self.config.block_bytes
        if st.held is not None and start // b <= st.held <= (end - 1) // b:
            st.held = None
        if end > self._ends[fid]:
            self._ends[fid] = end
            data = self._data[fid]
            if end > len(data):
                padded = -(-end // b) * b
                data.extend(b"\0" * (padded - len(data)))

    # -- counting helpers --------------------------------------------------

    def _count(self, fid: int, block: int, write: bool):
        st = self._stats[fid]
        if write:
            st.writes += 1
        else:
            st.reads += 1
        if st.last_block is None or block == st.last_block + 1:
            st.sequential += 1
        else:
            st.random += 1
        st.last_block = block

    # -- cached (LRU) access ----------------------------------------------

    def _touch(self, fid: int, block: int, write: bool, fetch: bool):
        """One block access under the miss rule; ``fetch`` says whether the
        block holds live bytes the access does not overwrite."""
        key, cache = (fid, block), self._cache
        if key in cache:
            cache.move_to_end(key)
            if write:
                cache[key] = True
            return
        if fetch:
            self._count(fid, block, write=False)
        cache[key] = write
        if len(cache) > self.config.cache_blocks:
            old, dirty = cache.popitem(last=False)
            if dirty:
                self._count(*old, write=True)

    def access_block(self, handle: FileHandle, block_index: int, mode: str,
                     payload: bytes | None = None) -> bytes:
        """Read or write one whole block through the LRU cache."""
        b = self.config.block_bytes
        fid = handle.file_id
        self._check(handle, block_index * b, b, read=mode == "read")
        if mode == "read":
            self._touch(fid, block_index, False, True)
            off = block_index * b
            return bytes(self._data[fid][off:off + b])
        elif mode == "write":
            payload = payload if payload is not None else b"\0" * b
            if len(payload) > b:
                raise SimDiskError("payload exceeds block size")
            self._prepare_write(fid, block_index * b, (block_index + 1) * b)
            self._touch(fid, block_index, True, False)
            off = block_index * b
            self._data[fid][off:off + len(payload)] = payload
            return b""
        raise SimDiskError("mode must be 'read' or 'write'")

    def read(self, handle: FileHandle, offset: int, nbytes: int) -> bytes:
        """Byte-range read through the LRU cache."""
        b = self.config.block_bytes
        fid = handle.file_id
        self._check(handle, offset, nbytes, read=True)
        for block in range(offset // b, -(-(offset + nbytes) // b) if nbytes else offset // b):
            self._touch(fid, block, False, True)
        return bytes(self._data[fid][offset:offset + nbytes])

    def write(self, handle: FileHandle, offset: int, data: bytes):
        """Byte-range write through the LRU cache; a missed block is fetched
        only if some of its live bytes lie outside the write."""
        b = self.config.block_bytes
        fid = handle.file_id
        end, live = offset + len(data), self._ends[fid]
        self._check(handle, offset, len(data))
        self._prepare_write(fid, offset, end)
        if data:
            for block in range(offset // b, -(-end // b)):
                lo, hi = block * b, min((block + 1) * b, live)
                self._touch(fid, block, True,
                            lo < min(offset, hi) or max(end, lo) < hi)
        self._data[fid][offset:end] = data

    def flush(self):
        """Write back all dirty cached blocks (counted), keep them cached clean."""
        for key, dirty in list(self._cache.items()):
            if dirty:
                self._count(key[0], key[1], write=True)
                self._cache[key] = False

    # -- explicitly buffered access ---------------------------------------

    def read_direct(self, handle: FileHandle, offset: int, nbytes: int) -> bytes:
        """Counted read bypassing the cache: every touched block is a
        transfer, except a first block that is the file's held block.

        The block a read ends in stays held, one resident block per file,
        until a later read ends elsewhere or a write lands in it.
        """
        b = self.config.block_bytes
        fid = handle.file_id
        self._check(handle, offset, nbytes, read=True)
        if nbytes:
            st = self._stats[fid]
            first, last = offset // b, (offset + nbytes - 1) // b
            for block in range(first + (first == st.held), last + 1):
                self._count(fid, block, write=False)
            st.held = last
        return bytes(self._data[fid][offset:offset + nbytes])

    def write_direct(self, handle: FileHandle, offset: int, data: bytes):
        """Counted write bypassing the cache: every touched block is one."""
        b = self.config.block_bytes
        fid = handle.file_id
        self._check(handle, offset, len(data))
        self._prepare_write(fid, offset, offset + len(data))
        if data:
            first = offset // b
            last = (offset + len(data) - 1) // b
            for block in range(first, last + 1):
                self._count(fid, block, write=True)
                self._cache.pop((fid, block), None)
        self._data[fid][offset:offset + len(data)] = data

    def buffer(self, handle: FileHandle) -> "BlockBuffer":
        return BlockBuffer(self, handle)

    def scan_reader(self, handle: FileHandle, offset: int = 0) -> "ScanReader":
        return ScanReader(self, handle, offset)

    def append_stream(self, handle: FileHandle, offset: int | None = None) -> "AppendStream":
        if offset is None:
            offset = len(self._data[handle.file_id])
        self._check(handle, offset, 0)
        return AppendStream(self, handle, offset)

    def files(self) -> list[FileHandle]:
        """A handle to every file, in name order."""
        return [FileHandle(fid, name, self)
                for name, fid in sorted(self._names.items())]

    # -- counters ----------------------------------------------------------

    def counters_snapshot(self) -> IoCounters:
        c = IoCounters()
        for st in self._stats:
            c.blocks_read += st.reads
            c.blocks_written += st.writes
            c.sequential_blocks += st.sequential
            c.random_blocks += st.random
        c.bytes_transferred = ((c.blocks_read + c.blocks_written)
                               * self.config.block_bytes)
        return c

    def file_counters(self, handle: FileHandle) -> IoCounters:
        st = self._stats[handle.file_id]
        return IoCounters(st.reads, st.writes, st.sequential, st.random,
                          (st.reads + st.writes) * self.config.block_bytes)

    def reset_counters(self):
        for i in range(len(self._stats)):
            self._stats[i] = _FileStats()

    # -- uncounted raw access (oracles, tests, host export) ----------------

    def raw_bytes(self, handle: FileHandle) -> bytes:
        return bytes(self._data[handle.file_id])

    def content_length(self, handle: FileHandle) -> int:
        """Bytes written to or loaded into a file, not counting the zero
        padding up to the next block boundary."""
        return self._ends[handle.file_id]

    def load_raw(self, handle: FileHandle, data: bytes):
        """Preload file contents without counting (host import)."""
        b = self.config.block_bytes
        buf = bytearray(data)
        if len(buf) % b:
            buf.extend(b"\0" * (b - len(buf) % b))
        self._data[handle.file_id] = buf
        self._ends[handle.file_id] = len(data)
        self._stats[handle.file_id].held = None


class ScanReader:
    """Sequential reader with an explicit one-block buffer.

    Each block of the scanned range is counted exactly once, regardless of the
    LRU cache state.
    """

    def __init__(self, disk: SimDisk, handle: FileHandle, offset: int):
        self.disk = disk
        self.handle = handle
        self.pos = offset
        self._counted_until = offset // disk.config.block_bytes - 1

    def read(self, nbytes: int) -> bytes:
        disk, b = self.disk, self.disk.config.block_bytes
        fid = self.handle.file_id
        disk._check(self.handle, self.pos, nbytes, read=True)
        if nbytes:
            last = (self.pos + nbytes - 1) // b
            for block in range(self._counted_until + 1, last + 1):
                disk._count(fid, block, write=False)
            self._counted_until = max(self._counted_until, last)
        out = bytes(disk._data[fid][self.pos:self.pos + nbytes])
        self.pos += nbytes
        return out


class AppendStream:
    """Sequential writer with an explicit one-block buffer.

    A block is counted as written when the stream moves past it; ``close``
    flushes the final partial block.
    """

    def __init__(self, disk: SimDisk, handle: FileHandle, offset: int):
        self.disk = disk
        self.handle = handle
        self.pos = offset
        self._counted_until = offset // disk.config.block_bytes - 1
        self._open = True

    def write(self, data: bytes):
        disk, b = self.disk, self.disk.config.block_bytes
        fid = self.handle.file_id
        disk._prepare_write(fid, self.pos, self.pos + len(data))
        disk._data[fid][self.pos:self.pos + len(data)] = data
        self.pos += len(data)
        # count all blocks that are now completely behind the write position
        last_full = self.pos // b - 1
        for block in range(self._counted_until + 1, last_full + 1):
            disk._count(fid, block, write=True)
            disk._cache.pop((fid, block), None)
        self._counted_until = max(self._counted_until, last_full)

    def close(self):
        if not self._open:
            return
        disk, b = self.disk, self.disk.config.block_bytes
        fid = self.handle.file_id
        if self.pos % b:
            block = self.pos // b
            if block > self._counted_until:
                disk._count(fid, block, write=True)
                disk._cache.pop((fid, block), None)
                self._counted_until = block
        self._open = False


def _runs(blocks):
    """Maximal runs of consecutive block indices, as (first, last) pairs,
    of an ascending sequence."""
    runs = []
    for k in blocks:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return runs


class BlockBuffer:
    """Blocks of one file held in memory, moved by counted direct access.

    ``load`` reads the blocks it lacks, one ``read_direct`` per maximal run.
    ``write`` puts bytes into their blocks; a block it lacks joins without
    a counted fetch, with the file's current bytes (zeros past its end).  A
    written block turns dirty unless it was resident and its bytes did not
    change.  ``keep`` and ``flush`` drop the blocks that leave, and write
    the dirty ones back, one whole-block ``write_direct`` per maximal run.
    """

    def __init__(self, disk: SimDisk, handle: FileHandle):
        self.disk = disk
        self.handle = handle
        self.block = disk.config.block_bytes
        self.resident: dict[int, bytearray] = {}   # block -> bytes
        self.dirty: set[int] = set()               # resident, not written

    def load(self, blocks):
        """Make the ascending ``blocks`` resident."""
        b, resident = self.block, self.resident
        for first, last in _runs([k for k in blocks if k not in resident]):
            raw = self.disk.read_direct(self.handle, first * b,
                                        (last - first + 1) * b)
            for i, k in enumerate(range(first, last + 1)):
                resident[k] = bytearray(raw[i * b:(i + 1) * b])

    def write(self, offset: int, data: bytes):
        self.disk._check(self.handle, offset, len(data))
        b, resident, pos = self.block, self.resident, 0
        while pos < len(data):
            k, lo = divmod(offset + pos, b)
            new = data[pos:pos + b - lo]
            pos += len(new)
            block = resident.get(k)
            if block is None:
                # the file is block-padded: a block past its end is empty
                block = resident[k] = (self.disk._data[self.handle.file_id]
                                       [k * b:(k + 1) * b] or bytearray(b))
            elif block[lo:lo + len(new)] == new:
                continue
            block[lo:lo + len(new)] = new
            self.dirty.add(k)

    def keep(self, blocks: set[int]):
        """Drop every resident block not in ``blocks``."""
        gone = self.resident.keys() - blocks
        dirty, resident = gone & self.dirty, self.resident
        if dirty:
            self.dirty -= dirty
            b = self.block
            for first, last in _runs(sorted(dirty)):
                self.disk.write_direct(self.handle, first * b, b"".join(
                    [resident[k] for k in range(first, last + 1)]))
        for k in gone:
            del resident[k]

    def flush(self):
        """Drop every resident block."""
        self.keep(set())


class FileStack:
    """LIFO of byte records on a simulated file, held in the disk's LRU
    cache under the module's miss rule and pop order: a push fetches only a
    first block with live bytes below the top.
    Records are framed as ``payload || length:u32`` so the most recent
    record can be popped without an index.
    """

    def __init__(self, disk: SimDisk, handle: FileHandle):
        self.disk = disk
        self.handle = handle
        self.top = 0          # one past the last stacked byte
        self.count = 0

    def push(self, record: bytes):
        disk, b = self.disk, self.disk.config.block_bytes
        fid = self.handle.file_id
        top, end = self.top, self.top + len(record) + 4
        disk._prepare_write(fid, top, end)
        data = disk._data[fid]
        data[top:end - 4] = record
        data[end - 4:end] = len(record).to_bytes(4, "little")
        for block in range(top // b, (end - 1) // b + 1):
            disk._touch(fid, block, True, block * b < top)
        self.top = end
        self.count += 1

    def pop(self) -> bytes:
        if self.count == 0:
            raise SimDiskError("pop on empty stack")
        disk, b = self.disk, self.disk.config.block_bytes
        fid = self.handle.file_id
        data = disk._data[fid]
        top = self.top
        length = int.from_bytes(data[top - 4:top], "little")
        start = top - 4 - length
        dead = -(-start // b)       # first block wholly above the new top
        last = (top - 1) // b       # the top block, counted first
        cache = disk._cache
        if last >= dead and cache.pop((fid, last), None) is None:
            disk._count(fid, last, write=False)
        # dead blocks leave the cache before the new top's block is touched,
        # which may evict, and are counted after it, bottom up
        missing = []
        for block in range(dead, last):
            if cache.pop((fid, block), None) is None:
                missing.append(block)
        if dead > start // b:
            disk._touch(fid, start // b, False, True)
        for block in missing:
            disk._count(fid, block, write=False)
        record = bytes(data[start:start + length])
        self.top = start
        self.count -= 1
        return record

    def __len__(self):
        return self.count
