from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from gridscan.simdisk import (
    SimConfig, SimDisk, SimDiskError, FileStack,
)


def small_disk(block=16, blocks_in_mem=16):
    return SimDisk(SimConfig(block_bytes=block, memory_bytes=block * max(blocks_in_mem, block)))


def test_config_rejects_short_cache():
    with pytest.raises(SimDiskError):
        SimConfig(block_bytes=256, memory_bytes=256 * 255)


def test_config_rejects_non_power_of_two_block():
    with pytest.raises(SimDiskError):
        SimConfig(block_bytes=100, memory_bytes=100 * 100)


def test_open_empty_and_duplicate():
    d = small_disk()
    h = d.open_file("input")
    assert h.length_bytes == 0
    with pytest.raises(SimDiskError):
        d.open_file("input")


def test_one_byte_write_pads_to_block():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write(h, 0, b"x")
    assert h.length_bytes == 16


def test_cold_scan_three_sequential_reads():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(48))
    d.reset_counters()
    for i in range(3):
        d.access_block(h, i, "read")
    c = d.counters_snapshot()
    assert c.blocks_read == 3
    assert c.sequential_blocks == 3
    assert c.random_blocks == 0


def test_cache_hit_not_counted():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(16))
    d.reset_counters()
    d.access_block(h, 0, "read")
    d.access_block(h, 0, "read")
    assert d.counters_snapshot().blocks_read == 1


def test_lru_two_block_cache_trace():
    # blocks 0,1,2,0 against a 2-block LRU cache: every access misses
    d = SimDisk(SimConfig(block_bytes=2, memory_bytes=4))
    h = d.open_file("f")
    d.write(h, 0, bytes(6))
    d.flush()
    d._cache.clear()
    d.reset_counters()
    for i in (0, 1, 2, 0):
        d.access_block(h, i, "read")
    assert d.counters_snapshot().blocks_read == 4


def test_read_past_end_errors():
    d = small_disk()
    h = d.open_file("f")
    with pytest.raises(SimDiskError):
        d.access_block(h, 0, "read")


def test_scan_reader_counts_every_block_despite_cache():
    d = small_disk(block=16)
    h = d.open_file("f")
    payload = bytes(range(16)) * 5
    d.write(h, 0, payload)
    d.flush()
    d.reset_counters()
    r = d.scan_reader(h)
    got = r.read(len(payload))
    assert got == payload
    c = d.counters_snapshot()
    assert c.blocks_read == 5
    assert c.random_blocks == 0


def test_counters_snapshot_identity_and_json():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write(h, 0, bytes(100))
    d.flush()
    d.access_block(h, 3, "read")
    c = d.counters_snapshot()
    assert c.bytes_transferred == 16 * (c.blocks_read + c.blocks_written)
    assert c.sequential_blocks + c.random_blocks == c.blocks_read + c.blocks_written
    # the CLI reports exactly these five fields
    assert set(asdict(c)) == {"blocks_read", "blocks_written",
                              "sequential_blocks", "random_blocks",
                              "bytes_transferred"}
    f = d.file_counters(h)
    assert f.bytes_transferred == 16 * (f.blocks_read + f.blocks_written)


def test_direct_write_counts_every_block():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.reset_counters()
    d.write_direct(h, 0, bytes(40))
    c = d.counters_snapshot()
    assert c.blocks_written == 3


def write_trace(d, h, pieces):
    """The blocks of file ``h`` that writing ``pieces``, (offset, bytes)
    pairs, into a fresh block buffer and flushing it counts, in order, each
    with True when it is sequential."""
    before = d.file_counters(h)
    trace = []
    real_count = d._count

    def count(fid, block, write):
        st = d._stats[fid]
        trace.append((block, st.last_block is None
                      or block == st.last_block + 1))
        return real_count(fid, block, write)

    d._count = count
    try:
        buf = d.buffer(h)
        for offset, piece in pieces:
            buf.write(offset, piece)
        buf.flush()
    finally:
        del d._count
    after = d.file_counters(h)
    assert after.blocks_written - before.blocks_written == len(trace)
    assert after.blocks_read == before.blocks_read
    assert not buf.resident and not buf.dirty
    return trace


def direct_calls(monkeypatch, d):
    """Every ``read_direct`` and ``write_direct`` call on ``d``, as
    (operation, offset, length)."""
    calls = []
    real_read, real_write = d.read_direct, d.write_direct

    def read_direct(handle, offset, nbytes):
        calls.append(("read", offset, nbytes))
        return real_read(handle, offset, nbytes)

    def write_direct(handle, offset, data):
        calls.append(("write", offset, len(data)))
        return real_write(handle, offset, data)

    monkeypatch.setattr(d, "read_direct", read_direct)
    monkeypatch.setattr(d, "write_direct", write_direct)
    return calls


def test_write_pieces_in_one_block_count_one_write():
    d = small_disk(block=16)
    h = d.open_file("f")
    assert write_trace(d, h, [(0, b"ab"), (4, b"cd"), (14, b"ef")]) == [
        (0, True)]
    assert d.raw_bytes(h)[:16] == b"ab\0\0cd" + bytes(8) + b"ef"


def test_write_piece_straddling_a_boundary_counts_two_ascending_writes():
    d = small_disk(block=16)
    h = d.open_file("f")
    assert write_trace(d, h, [(2, b"x"), (12, bytes(8))]) == [
        (0, True), (1, True)]
    c = d.file_counters(h)
    assert (c.sequential_blocks, c.random_blocks) == (2, 0)


def test_write_pieces_in_non_adjacent_blocks_jump_at_random():
    d = small_disk(block=16)
    h = d.open_file("f")
    assert write_trace(d, h, [(0, b"a"), (5, b"b"), (40, b"c")]) == [
        (0, True), (2, False)]


def test_buffer_writes_back_in_ascending_order(monkeypatch):
    d = small_disk(block=16)
    h = d.open_file("f")
    calls = direct_calls(monkeypatch, d)
    assert write_trace(d, h, [(40, b"c"), (18, b"b"), (3, b"a")]) == [
        (0, True), (1, True), (2, True)]
    assert calls == [("write", 0, 48)]
    assert d.raw_bytes(h)[:48] == (bytes(3) + b"a" + bytes(14) + b"b"
                                   + bytes(21) + b"c" + bytes(7))


def test_write_piece_into_held_block_drops_it():
    d, h = held_disk()
    write_trace(d, h, [(2, b"x"), (18, b"y")])
    before = d.counters_snapshot().blocks_read
    d.read_direct(h, 20, 4)
    assert d.counters_snapshot().blocks_read == before + 1


def test_write_pieces_of_no_piece_count_nothing():
    d, h = held_disk()
    before = d.counters_snapshot()
    assert write_trace(d, h, []) == []
    assert d.counters_snapshot() == before


def test_second_write_pieces_call_counts_its_block_again():
    d = small_disk(block=16)
    h = d.open_file("f")
    assert write_trace(d, h, [(0, b"a")]) == [(0, True)]
    assert write_trace(d, h, [(8, b"b")]) == [(0, False)]
    assert d.file_counters(h).blocks_written == 2


def test_buffer_zero_length_write_dirties_no_block():
    d, h = held_disk()
    before = d.counters_snapshot()
    buf = d.buffer(h)
    buf.write(5, b"")
    buf.write(16, b"")
    assert not buf.resident and not buf.dirty
    buf.flush()
    assert d.counters_snapshot() == before
    # the held block stays held
    d.read_direct(h, 16, 4)
    assert d.counters_snapshot() == before


def test_buffer_write_past_end_of_empty_file_lands_in_place():
    d = small_disk(block=16)
    h = d.open_file("f")
    assert write_trace(d, h, [(37, b"xyz")]) == [(2, True)]
    assert d.raw_bytes(h) == bytes(37) + b"xyz" + bytes(8)


def test_buffer_resident_block_rewritten_unchanged_stays_clean(monkeypatch):
    d, h = held_disk()
    calls = direct_calls(monkeypatch, d)
    buf = d.buffer(h)
    buf.load(range(2, 4))
    buf.write(36, bytes(range(36, 52)))     # blocks 2 and 3, unchanged
    buf.write(54, b"!")                     # block 3, changed
    assert buf.dirty == {3}
    buf.flush()
    assert calls == [("read", 32, 32), ("write", 48, 16)]
    assert d.raw_bytes(h) == bytes(range(54)) + b"!" + bytes(range(55, 64))


def test_buffer_joins_a_missing_block_dirty_without_a_read():
    d, h = held_disk()
    before = d.counters_snapshot()
    buf = d.buffer(h)
    buf.write(50, b"yz")
    assert set(buf.resident) == buf.dirty == {3}
    assert d.counters_snapshot() == before
    buf.flush()
    after = d.counters_snapshot()
    assert (after.blocks_read, after.blocks_written) == (
        before.blocks_read, before.blocks_written + 1)
    # the block keeps the file's other bytes
    assert d.raw_bytes(h) == bytes(range(50)) + b"yz" + bytes(range(52, 64))


def test_buffer_load_reads_only_missing_blocks_as_runs(monkeypatch):
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(range(128)))
    calls = direct_calls(monkeypatch, d)
    buf = d.buffer(h)
    buf.load([2])
    d.reset_counters()
    buf.load(range(0, 6))
    assert calls == [("read", 32, 16), ("read", 0, 32), ("read", 48, 48)]
    assert d.counters_snapshot().blocks_read == 5
    assert set(buf.resident) == set(range(6)) and not buf.dirty
    assert bytes(buf.resident[4]) == bytes(range(64, 80))


def test_buffer_keep_writes_back_the_dirty_blocks_that_leave(monkeypatch):
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(96))
    calls = direct_calls(monkeypatch, d)
    buf = d.buffer(h)
    buf.load(range(6))
    for k in (0, 1, 3, 4):
        buf.write(16 * k, b"x")
    buf.keep({1, 2})
    assert calls[1:] == [("write", 0, 16), ("write", 48, 32)]
    assert set(buf.resident) == {1, 2} and buf.dirty == {1}
    buf.flush()
    assert calls[3:] == [("write", 16, 16)]
    assert not buf.resident


def test_append_stream_one_write_per_block():
    d = small_disk(block=16)
    h = d.open_file("f")
    s = d.append_stream(h)
    for _ in range(10):
        s.write(bytes(8))
    s.close()
    c = d.counters_snapshot()
    assert c.blocks_written == 5
    assert c.random_blocks == 0
    assert d.raw_bytes(h) == bytes(80)


def test_stack_lifo_round_trip():
    d = small_disk(block=16)
    st_ = FileStack(d, d.open_file("stack"))
    st_.push(b"a")
    st_.push(b"bb")
    assert st_.pop() == b"bb"
    st_.push(b"ccc")
    assert st_.pop() == b"ccc"
    assert st_.pop() == b"a"
    with pytest.raises(SimDiskError):
        st_.pop()


def test_stack_block_transfer_bound():
    # k records of B/4 payload: framed size B/4+4; pushing k then popping all
    # moves at most ceil(k*(B/4+4)/B)+1 blocks each way
    d = small_disk(block=64)
    st_ = FileStack(d, d.open_file("stack"))
    k = 40
    rec = bytes(16 - 4)
    for _ in range(k):
        st_.push(rec)
    for _ in range(k):
        st_.pop()
    c = d.counters_snapshot()
    bound = (k * 16 + 63) // 64 + 1
    assert c.blocks_written <= bound
    assert c.blocks_read <= bound


def test_stack_buffer_keeps_small_stack_free():
    d = small_disk(block=16)
    st_ = FileStack(d, d.open_file("stack"))
    for i in range(20):
        st_.push(bytes([i]))
    for _ in range(20):
        st_.pop()
    c = d.counters_snapshot()
    assert c.blocks_read == 0 and c.blocks_written == 0


def test_fresh_push_is_not_fetched():
    d = small_disk(block=16)
    st_ = FileStack(d, d.open_file("stack"))
    st_.push(bytes(40))                     # blocks 0..2, nothing live yet
    st_.push(b"x")                          # into cached block 2
    c = d.counters_snapshot()
    assert (c.blocks_read, c.blocks_written) == (0, 0)


def test_stack_block_popped_dead_is_never_written():
    d = small_disk(block=16)
    st_ = FileStack(d, d.open_file("stack"))
    st_.push(bytes(12))                     # block 0
    st_.push(bytes(60))                     # blocks 1..4
    assert st_.pop() == bytes(60)           # blocks 1..4 now wholly dead
    d.flush()
    c = d.counters_snapshot()
    assert (c.blocks_read, c.blocks_written) == (0, 1)


def test_stack_record_longer_than_the_cache():
    # a 2-block cache: pushing blocks 0..3 evicts blocks 0 and 1 dirty
    d = SimDisk(SimConfig(block_bytes=2, memory_bytes=4))
    st_ = FileStack(d, d.open_file("stack"))
    st_.push(bytes(4))                      # bytes 0..7, blocks 0..3
    assert d.counters_snapshot().blocks_written == 2
    # the pop fetches blocks 0 and 1 back; blocks 2 and 3 die unwritten
    assert st_.pop() == bytes(4)
    c = d.counters_snapshot()
    assert (c.blocks_read, c.blocks_written) == (2, 2)
    assert d._cache == {}


def counted_reads(d, fid):
    """Spy on ``d._count``: the list of blocks of file ``fid`` counted as
    reads from now on."""
    order, count = [], d._count

    def spy(f, block, write):
        if f == fid and not write:
            order.append(block)
        count(f, block, write)

    d._count = spy
    return order


def test_pop_with_cached_top_reads_the_rest_as_one_run():
    d = SimDisk(SimConfig(block_bytes=4, memory_bytes=16))  # 4-block cache
    h = d.open_file("stack")
    st_ = FileStack(d, h)
    st_.push(bytes(16))                     # bytes 0..19: a 5-block record
    d.read(h, 16, 4)                        # the top block turns most recent
    d.write(d.open_file("f"), 0, bytes(12))   # evicts blocks 1..3 dirty
    before = d.file_counters(h)
    order = counted_reads(d, h.file_id)
    assert st_.pop() == bytes(16)
    after = d.file_counters(h)
    assert order == [0, 1, 2, 3]            # k - 1 reads, bottom up
    assert after.random_blocks - before.random_blocks == 1
    assert after.sequential_blocks - before.sequential_blocks == 3


def test_pop_with_evicted_top_reads_it_first_then_bottom_up():
    d = SimDisk(SimConfig(block_bytes=4, memory_bytes=16))
    h = d.open_file("stack")
    st_ = FileStack(d, h)
    st_.push(b"xy")                         # bytes 0..5, blocks 0 and 1
    st_.push(bytes(18))                     # bytes 6..27, blocks 1..6
    d.write(d.open_file("f"), 0, bytes(16))   # evicts every stack block
    before = d.file_counters(h)
    order = counted_reads(d, h.file_id)
    assert st_.pop() == bytes(18)
    after = d.file_counters(h)
    # the top block, then the new top's block and the dead blocks above it
    assert order == [6, 1, 2, 3, 4, 5]
    assert after.random_blocks - before.random_blocks == 2
    assert st_.pop() == b"xy"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.integers(min_value=0, max_value=30),
                          st.just("pop"), st.just("evict")),
                max_size=40))
def test_pop_reads_its_uncached_blocks_with_at_most_two_random(ops):
    d = SimDisk(SimConfig(block_bytes=4, memory_bytes=16))
    h, f = d.open_file("stack"), d.open_file("f")
    st_, b = FileStack(d, h), 4
    for i, op in enumerate(ops):
        if op == "evict":                   # two blocks of another file
            d.write(f, 8 * i, bytes(8))
        elif isinstance(op, int):
            st_.push(bytes(op))
        elif len(st_):
            top = st_.top
            start = top - 4 - int.from_bytes(d._data[h.file_id][top - 4:top],
                                             "little")
            uncached = sum((h.file_id, block) not in d._cache
                           for block in range(start // b, (top - 1) // b + 1))
            before = d.file_counters(h)
            st_.pop()
            after = d.file_counters(h)
            assert after.blocks_read - before.blocks_read == uncached
            assert after.random_blocks - before.random_blocks <= 2


def test_partial_write_miss_fetches_and_whole_block_write_does_not():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(48))         # three live blocks, uncached
    d.reset_counters()
    d.write(h, 4, b"abcd")                  # block 0 keeps 12 live bytes
    assert d.counters_snapshot().blocks_read == 1
    d.write(h, 16, bytes(16))               # block 1 wholly overwritten
    d.access_block(h, 2, "write", b"x")     # a whole-block write
    d.write(h, 48, b"tail")                 # past the live bytes
    c = d.counters_snapshot()
    assert (c.blocks_read, c.blocks_written) == (1, 0)


def test_dirty_block_counts_one_write_on_eviction_and_one_on_flush():
    d = SimDisk(SimConfig(block_bytes=2, memory_bytes=4))   # 2-block cache
    h = d.open_file("f")
    d.write(h, 0, b"ab")
    d.write(h, 0, b"cd")                    # a hit: still one dirty block
    d.flush()
    d.flush()                               # clean now, nothing to write
    assert d.counters_snapshot().blocks_written == 1
    d.write(h, 0, b"ef")                    # block 0 dirty again
    d.write(h, 2, b"gh")
    d.write(h, 4, b"ij")                    # evicts block 0
    c = d.counters_snapshot()
    assert (c.blocks_read, c.blocks_written) == (0, 2)
    d.flush()                               # blocks 1 and 2
    assert d.counters_snapshot().blocks_written == 4


def test_determinism_replay():
    def trace():
        d = small_disk(block=16)
        h = d.open_file("f")
        d.write(h, 0, bytes(160))
        for i in (0, 5, 2, 2, 9, 0):
            d.access_block(h, i, "read")
        return d.counters_snapshot()

    a, b = trace(), trace()
    assert (a.blocks_read, a.blocks_written, a.sequential_blocks, a.random_blocks) == \
           (b.blocks_read, b.blocks_written, b.sequential_blocks, b.random_blocks)


@given(st.lists(st.binary(min_size=0, max_size=40), max_size=30))
def test_stack_round_trip_property(records):
    d = small_disk(block=16)
    st_ = FileStack(d, d.open_file("stack"))
    for r in records:
        st_.push(r)
    out = [st_.pop() for _ in records]
    assert out == list(reversed(records))


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=50))
def test_counter_identity_property(blocks):
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write(h, 0, bytes(160))
    d.flush()
    for i in blocks:
        d.access_block(h, i, "read")
    c = d.counters_snapshot()
    assert c.bytes_transferred == 16 * (c.blocks_read + c.blocks_written)
    assert c.sequential_blocks + c.random_blocks == c.blocks_read + c.blocks_written


def held_disk():
    """A 16-byte-block disk with a 64-byte file ``f`` whose counters start
    after one direct read that ended in block 1."""
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(range(64)))
    d.reset_counters()
    d.read_direct(h, 0, 20)
    return d, h


def test_adjacent_direct_reads_count_shared_block_once():
    d, h = held_disk()
    assert d.read_direct(h, 20, 20) == bytes(range(20, 40))
    c = d.counters_snapshot()
    assert (c.blocks_read, c.sequential_blocks, c.random_blocks) == (3, 3, 0)
    d.read_direct(h, 40, 2)                 # starts and ends in block 2
    d.read_direct(h, 42, 2)
    assert d.counters_snapshot().blocks_read == 3


@pytest.mark.parametrize("write", [
    lambda d, h: d.write_direct(h, 18, b"x"),
    lambda d, h: d.append_stream(h, 30).write(b"x"),   # not yet counted
    lambda d, h: d.write(h, 16, b"x"),
    lambda d, h: d.access_block(h, 1, "write", b"x"),
    lambda d, h: d.load_raw(h, bytes(64)),
])
def test_write_into_held_block_counts_it_again(write):
    d, h = held_disk()
    write(d, h)
    before = d.counters_snapshot().blocks_read
    d.read_direct(h, 20, 4)
    assert d.counters_snapshot().blocks_read == before + 1


def test_stack_push_into_held_block_counts_it_again():
    d = small_disk(block=16)
    h = d.open_file("stack")
    s = FileStack(d, h)
    s.push(bytes(2))
    d.reset_counters()
    d.read_direct(h, 0, 6)
    d.read_direct(h, 0, 6)
    assert d.counters_snapshot().blocks_read == 1
    s.push(b"z")                            # lands in block 0, uncounted
    assert d.counters_snapshot().blocks_written == 0
    d.read_direct(h, 0, 6)
    assert d.counters_snapshot().blocks_read == 2


def test_write_elsewhere_keeps_held_block():
    d, h = held_disk()
    other = d.open_file("g")
    d.write_direct(h, 0, bytes(16))         # block 0 of the same file
    d.write_direct(h, 32, bytes(8))         # block 2
    d.write_direct(other, 16, bytes(16))    # block 1 of another file
    s = d.append_stream(other, 16)
    s.write(bytes(40))
    s.close()
    before = d.counters_snapshot().blocks_read
    d.read_direct(h, 20, 4)
    assert d.counters_snapshot().blocks_read == before


def test_reset_counters_clears_held_block():
    d, h = held_disk()
    d.reset_counters()
    d.read_direct(h, 20, 4)
    assert d.counters_snapshot().blocks_read == 1


def test_zero_byte_read_keeps_held_block():
    d, h = held_disk()
    assert d.read_direct(h, 48, 0) == b""
    d.read_direct(h, 20, 4)
    assert d.counters_snapshot().blocks_read == 2


def test_scan_reader_counts_unchanged_by_held_block():
    d, h = held_disk()
    r = d.scan_reader(h, 16)
    assert r.read(20) == bytes(range(16, 36))
    r.read(8)
    c = d.counters_snapshot()
    assert (c.blocks_read, c.sequential_blocks, c.random_blocks) == (4, 3, 1)
    d.read_direct(h, 20, 4)                 # still held: not counted
    assert d.counters_snapshot().blocks_read == 4


def file_state(d, h):
    """Everything a byte-range access may change: the file's bytes, its
    content length and the disk's and the file's counters."""
    return (d.raw_bytes(h), d.content_length(h), d.counters_snapshot(),
            d.file_counters(h))


def buffered_write(d, h, offset):
    buf = d.buffer(h)
    try:
        buf.write(offset, bytes(8))
    finally:
        buf.flush()


@pytest.mark.parametrize("access", [
    lambda d, h: d.read_direct(h, 0, -4),
    lambda d, h: d.read_direct(h, -8, 8),
    lambda d, h: d.write_direct(h, -8, bytes(8)),
    lambda d, h: d.read(h, 0, -4),
    lambda d, h: d.read(h, -8, 8),
    lambda d, h: d.write(h, -8, bytes(8)),
    lambda d, h: d.scan_reader(h).read(-4),
    lambda d, h: d.scan_reader(h, -8).read(8),
    lambda d, h: d.append_stream(h, -8).write(bytes(4)),
    lambda d, h: buffered_write(d, h, -8),
], ids=["read_direct-length", "read_direct-offset", "write_direct-offset",
        "read-length", "read-offset", "write-offset", "scan-length",
        "scan-offset", "append-offset", "buffer-offset"])
def test_negative_range_raises_and_changes_nothing(access):
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(range(32)))
    before = file_state(d, h)
    with pytest.raises(SimDiskError, match="negative"):
        access(d, h)
    assert file_state(d, h) == before


def test_scan_reader_keeps_its_position_after_a_negative_read():
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(range(32)))
    r = d.scan_reader(h, 4)
    with pytest.raises(SimDiskError):
        r.read(-4)
    assert (r.pos, r.read(4)) == (4, bytes(range(4, 8)))


@pytest.mark.parametrize("access", [
    lambda d, h: d.read_direct(h, 24, 16),
    lambda d, h: d.read(h, 24, 16),
    lambda d, h: d.access_block(h, -1, "read"),
    lambda d, h: d.access_block(h, -1, "write"),
    lambda d, h: d.scan_reader(h, 24).read(16),
], ids=["read_direct", "read", "access_block-negative-read",
        "access_block-negative-write", "scan"])
def test_bad_block_or_read_past_end_raises_and_changes_nothing(access):
    d = small_disk(block=16)
    h = d.open_file("f")
    d.write_direct(h, 0, bytes(range(32)))
    before = file_state(d, h)
    with pytest.raises(SimDiskError):
        access(d, h)
    assert file_state(d, h) == before
