import itertools

import pytest

from gridscan import gridfmt as gf, clusters as cl, oracle, tfp
from gridscan import costmodel as cm
from gridscan.simdisk import AppendStream, SimConfig, SimDisk

from conftest import coord_to_index, make_disk, make_graph

MOD = 1 << 64


def compare(d, g, name, h):
    stats = tfp.TfpStats()
    out = tfp.tfp_run(g, oracle.TFP_ORACLES[name], h,
                      out_name="%s.out" % name, stats=stats)
    got = tfp.read_labels(d, out)
    expect = oracle.tfp_labels(g, oracle.TFP_ORACLES[name])
    for (r, c), want in expect.items():
        z = coord_to_index(g.rows, g.cols, r + 1, c + 1)
        assert got[z] == want % MOD, (r, c)
    return stats


@pytest.mark.parametrize("name", ["indegree", "longest_path", "path_count"])
@pytest.mark.parametrize("seed,h", [(0, 1), (1, 2), (2, 3)])
def test_labels_match_oracle(name, seed, h):
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=seed, density=0.65)
    compare(d, g, name, h)


def test_indegree_row_path():
    d = make_disk()
    g = make_graph(d, 1, 6, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(5)})
    out = tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)
    got = tfp.read_labels(d, out)
    z_of = gf.z_tables(1, 6)[0]
    assert got[int(z_of[0])] == 0
    for c in range(1, 6):
        assert got[int(z_of[c])] == 1


def test_longest_path_row():
    d = make_disk()
    g = make_graph(d, 1, 8, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(7)})
    out = tfp.tfp_run(g, oracle.TFP_ORACLES["longest_path"], 1)
    got = tfp.read_labels(d, out)
    z_of = gf.z_tables(1, 8)[0]
    assert [got[int(z_of[c])] for c in range(8)] == list(range(8))


def test_slots_written_and_read_at_most_once():
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=5, density=0.7)
    stats = compare(d, g, "longest_path", 2)
    assert stats.slot_writes and max(stats.slot_writes.values()) == 1
    assert stats.slot_reads and max(stats.slot_reads.values()) == 1
    assert set(stats.slot_reads) == set(stats.slot_writes)
    assert max(stats.slot_writes) < stats.inter_slots


def test_chunk_pair_bound():
    d = make_disk()
    g = gf.generate(d, 64, 64, "planar_dag", seed=6, density=0.7)
    stats = compare(d, g, "indegree", 2)
    assert len(stats.chunk_pairs) <= 30 * stats.chunk_count


def test_inter_slots_unique_per_edge():
    scheme = cl.ClusterScheme(16, 16, 2)
    seen = {}
    for r in range(16):
        for c in range(16):
            for d in range(8):
                dr, dc = gf.DIR_OFFSETS[d]
                nr, nc = r + dr, c + dc
                if not (0 <= nr < 16 and 0 <= nc < 16):
                    continue
                if scheme.rank_of(r, c) == scheme.rank_of(nr, nc):
                    continue
                slot = tfp._inter_slot(scheme, (r, c), (nr, nc))
                assert 0 <= slot < tfp._inter_slot_count(scheme)
                key = (min((r, c), (nr, nc)), max((r, c), (nr, nc)))
                square = (min(r, nr), min(c, nc))
                if d in (gf.N, gf.E, gf.S, gf.W):
                    group = key
                else:
                    # both diagonals of one square share a slot by design
                    group = square
                prev = seen.setdefault(slot, group)
                assert prev == group, (slot, prev, group)


def test_nonplanar_rejected():
    d = make_disk()
    g = make_graph(d, 2, 2, "unweighted",
                   {(0, 0): {gf.SE: 1}, (0, 1): {gf.SW: 1}})
    with pytest.raises(tfp.TfpError):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)


def test_nonplanar_cross_cluster_rejected():
    d = make_disk()
    g = make_graph(d, 2, 4, "unweighted",
                   {(0, 1): {gf.SE: 1}, (0, 2): {gf.SW: 1}})
    with pytest.raises(tfp.TfpError):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)


@pytest.mark.parametrize("h,square,upward", [
    (1, (2, 2), False),         # inside one cluster
    (1, (1, 1), False),         # across four clusters
    (2, (3, 3), False),
    (2, (3, 3), True),          # the diagonals' arcs point north
])
def test_nonplanar_square_named_by_global_coordinates(h, square, upward):
    r, c = square
    if upward:
        edges = {(r + 1, c + 1): {gf.NW: 1}, (r + 1, c): {gf.NE: 1}}
    else:
        edges = {(r, c): {gf.SE: 1}, (r, c + 1): {gf.SW: 1}}
    d = make_disk()
    g = make_graph(d, 6, 6, "unweighted", edges)
    with pytest.raises(tfp.TfpError, match=r"not planar: both diagonals in "
                       r"square \(%d, %d\)$" % square):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], h)


@pytest.mark.parametrize("h", [2, 3])
def test_first_nonplanar_square_in_storage_order_is_named(h):
    # two squares with both diagonals in one cluster: (0,2)'s arcs come
    # first by tail (row-major, then direction), (1,0)'s by local Z rank
    edges = {(0, 2): {gf.SE: 1}, (0, 3): {gf.SW: 1},
             (1, 0): {gf.SE: 1}, (1, 1): {gf.SW: 1}}
    g = make_graph(make_disk(), 8, 8, "unweighted", edges)
    with pytest.raises(tfp.TfpError, match=r"square \(0, 2\)$"):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], h)


def test_cross_cluster_cycle_rejected():
    d = make_disk()
    g = make_graph(d, 2, 4, "unweighted",
                   {(0, 1): {gf.E: 1}, (0, 2): {gf.W: 1}})
    with pytest.raises(tfp.TfpError):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_message_addresses_point_into_own_cluster_regions(h):
    # an intra-cluster message address is an absolute offset in the chunk
    # file: an 8-byte slot of the region of a chunk of the sender's cluster
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=1, density=0.6)
    plan = tfp.plan_messages(g, h)
    raw = d.raw_bytes(plan.chunks.handle)
    regions, addrs = {}, []
    for _, crank, off, size in plan.chunks.entries:
        (cnt,) = tfp.CHUNK_HDR.unpack_from(raw, off)
        pos = off + tfp.CHUNK_HDR.size
        for _ in range(cnt):
            _, _, _, na = tfp.VERTEX_HDR.unpack_from(raw, pos)
            pos += tfp.VERTEX_HDR.size
            for _ in range(na):
                (addr,) = tfp.ADDR.unpack_from(raw, pos)
                addrs.append((crank, addr))
                pos += tfp.ADDR.size
        # the region follows the vertex records and ends the record
        regions.setdefault(crank, []).append((pos, off + size))
    assert addrs
    for crank, addr in addrs:
        assert any(lo <= addr < hi and (addr - lo) % 8 == 0
                   for lo, hi in regions[crank]), (crank, addr)
    # a region holds one slot per message addressed into it
    for lo, hi in itertools.chain(*regions.values()):
        region = 8 * sum(lo <= addr < hi for _, addr in addrs)
        assert lo == hi - region


def test_path_count_diamond():
    d = make_disk()
    g = make_graph(d, 2, 2, "unweighted",
                   {(0, 0): {gf.E: 1, gf.S: 1},
                    (0, 1): {gf.S: 1}, (1, 0): {gf.E: 1}})
    out = tfp.tfp_run(g, oracle.TFP_ORACLES["path_count"], 1)
    got = tfp.read_labels(d, out)
    z = coord_to_index(2, 2, 2, 2)
    assert got[z] == 2


def test_custom_callback():
    d = make_disk()
    g = gf.generate(d, 16, 16, "planar_dag", seed=9, density=0.6)

    def fn(v, ins):
        return (v[0] * 131 + v[1] * 17 + sum(ins) * 3 + len(ins)) % MOD

    out = tfp.tfp_run(g, fn, 2)
    got = tfp.read_labels(d, out)
    expect = oracle.tfp_labels(g, fn)
    for (r, c), want in expect.items():
        z = coord_to_index(16, 16, r + 1, c + 1)
        assert got[z] == want % MOD


def test_io_volume_per_vertex_bounded():
    ratios = []
    for side in (16, 32, 64):
        d = make_disk(block=64, mem_blocks=4096)
        g = gf.generate(d, side, side, "planar_dag", seed=1, density=0.65)
        d.reset_counters()
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 2)
        snap = d.counters_snapshot()
        ratios.append(snap.bytes_transferred / (side * side))
    assert max(ratios) <= 3 * min(ratios)


def test_volume_within_model_on_desk_machine():
    # 256x256 at h = 5 with B = 2^8 and M = 2^16: every byte tfp_run moves,
    # input scan to final rewrite, stays within the cost model's volume
    disk = SimDisk(SimConfig(block_bytes=2 ** 8, memory_bytes=2 ** 16))
    g = gf.generate(disk, 256, 256, "planar_dag", seed=1, density=0.6)
    disk.reset_counters()
    tfp.tfp_run(g, oracle.oracle_indegree, 5)
    moved = disk.counters_snapshot().bytes_transferred
    model = cm.volume_model("tfp", g.n, 2 ** 16, 2 ** 8, 5)
    assert moved <= model.predicted_bytes, (moved / g.n, float(model.total))


# 32x32 and 13x7, seeds 1 and 2, h = 1..3, at B = 64 and at B = 16, where
# 12-byte label records and 8-byte slots straddle block boundaries
RUN_CASES = [(rows, cols, seed, h, block)
             for rows, cols in ((32, 32), (13, 7)) for seed in (1, 2)
             for h in (1, 2, 3) for block in (64, 16)]


def run_with_plan(monkeypatch, rows, cols, seed, h, block):
    """Run path counts (checked against the oracle) and return the disk and
    the message plan that ``tfp_run`` used."""
    d = make_disk(block=block)
    g = gf.generate(d, rows, cols, "planar_dag", seed=seed, density=0.6)
    plans = []
    real_plan = tfp.plan_messages

    def capture(*args, **kwargs):
        plans.append(real_plan(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(tfp, "plan_messages", capture)
    d.reset_counters()
    compare(d, g, "path_count", h)
    return d, plans[0]


@pytest.mark.parametrize("rows,cols,seed,h,block", RUN_CASES)
def test_label_writes_merge_adjacent_ranges(monkeypatch, rows, cols, seed, h,
                                            block):
    # every chunk's label range starts where the previous chunk's ended, so
    # one stream writes each label block once; the final pass gathers each
    # cluster's labels by one direct read per chunk, which reads again at
    # most the first block of its range
    streams = []
    real_append = SimDisk.append_stream

    def append_stream(self, handle, offset=None):
        streams.append(handle.name)
        return real_append(self, handle, offset)

    monkeypatch.setattr(SimDisk, "append_stream", append_stream)
    d, plan = run_with_plan(monkeypatch, rows, cols, seed, h, block)
    blocks = -(-tfp.LABEL.itemsize * rows * cols // block)
    (labels,) = [f for f in d.files() if f.name.endswith(".plan.labels")]
    c = d.file_counters(labels)
    assert c.blocks_written == blocks
    assert c.blocks_read <= blocks + len(plan.chunks.entries)
    assert streams.count(labels.name) == 1


@pytest.mark.parametrize("rows,cols,seed,h,block", RUN_CASES)
def test_message_writes_are_runs(monkeypatch, rows, cols, seed, h, block):
    # every write to the chunk file after planning, split into chunks at the
    # reads of chunk records (8-byte reads are inter-cluster slots): each
    # chunk's writes are whole-block runs, ascending and apart, so no block
    # is written twice within one chunk
    chunks = []
    real_read, real_write = SimDisk.read_direct, SimDisk.write_direct
    real_append = AppendStream.write

    def is_chunks(handle):
        return handle.name.endswith(".plan.chunks")

    def read_direct(self, handle, offset, nbytes):
        if is_chunks(handle) and nbytes > 8:
            chunks.append([])
        return real_read(self, handle, offset, nbytes)

    def write_direct(self, handle, offset, data):
        if is_chunks(handle) and chunks:
            chunks[-1].append((offset, offset + len(data)))
        return real_write(self, handle, offset, data)

    def append_write(self, data):
        if is_chunks(self.handle) and chunks:
            chunks[-1].append((self.pos, self.pos + len(data)))
        return real_append(self, data)

    monkeypatch.setattr(SimDisk, "read_direct", read_direct)
    monkeypatch.setattr(SimDisk, "write_direct", write_direct)
    monkeypatch.setattr(AppendStream, "write", append_write)
    d, plan = run_with_plan(monkeypatch, rows, cols, seed, h, block)

    assert len(chunks) == len(plan.chunks.entries)
    assert any(chunks)
    for writes in chunks:
        assert all(lo % block == 0 and hi % block == 0 for lo, hi in writes)
        for (_, prev_hi), (lo, _) in zip(writes, writes[1:]):
            assert prev_hi < lo, writes


@pytest.mark.parametrize("rows,cols,seed,h,block", RUN_CASES)
def test_message_blocks_written_once_per_chunk(monkeypatch, rows, cols, seed,
                                               h, block):
    # the counted writes of chunk-file blocks between two chunk-record reads
    # (and after the last one), once planning is done
    chunks, started = [], []
    real_read, real_count = SimDisk.read_direct, SimDisk._count

    def read_direct(self, handle, offset, nbytes):
        if handle.name.endswith(".plan.chunks") and nbytes > 8:
            started.append(handle.file_id)
            chunks.append([])
        return real_read(self, handle, offset, nbytes)

    def count(self, fid, block, write):
        if write and started and fid == started[0]:
            chunks[-1].append(block)
        return real_count(self, fid, block, write)

    monkeypatch.setattr(SimDisk, "read_direct", read_direct)
    monkeypatch.setattr(SimDisk, "_count", count)
    d, plan = run_with_plan(monkeypatch, rows, cols, seed, h, block)

    assert len(chunks) == len(plan.chunks.entries)
    assert any(chunks)
    for blocks in chunks:
        assert blocks == sorted(set(blocks)), blocks
