"""The phase-2 access pattern on the distance file ``D`` and its bound.

* Layout: every cluster's range in ``D`` touches exactly ceil(8 * size / B)
  blocks, and no two ranges overlap.
* Per step: phase 2 reads a block of ``D`` only when it is not resident
  and belongs to a cluster the step touches; after the step the resident
  set is within those clusters' blocks; every write is a whole-block run
  of dirty blocks leaving the buffer, or the final write-back.  Outside
  phase 2, ``D`` is read only by phase 3, once per cluster.
* Buffer contract: within a step ``records`` returns one list per cluster,
  and what the caller sets in it reaches ``D`` through ``end_step`` and
  ``flush`` alone; only blocks whose bytes changed are written.
* Model bound: from a source that reaches at least half of the grid, SSSP
  and BFS move at most the bytes per vertex that ``costmodel.volume_model``
  predicts, on the desk machine at n = 2^10, 2^12 and 2^14, h = 2 and 3;
  BFS also at h = 4, and at the paper's proviso M = B^2 (B = 2^6) at its
  default h = 2.
"""

import random
from collections import Counter

import pytest

from gridscan import bfs, oracle, sssp
from gridscan import clusters as cl
from gridscan import costmodel as cm
from gridscan import gridfmt as gf
from gridscan.simdisk import SimConfig, SimDisk

from conftest import (dense_digraph, index_to_coord, make_disk, make_graph,
                      phase3_by_z)

DESK = SimConfig(block_bytes=2 ** 8, memory_bytes=2 ** 16)
# the paper's proviso M = B^2 at the smallest block the simulator takes
PROVISO = SimConfig(block_bytes=2 ** 6, memory_bytes=2 ** 12)


@pytest.mark.parametrize("block", [64, 256])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("rows,cols", [(32, 32), (13, 7), (9, 1)])
def test_cluster_ranges_touch_fewest_blocks(rows, cols, h, block):
    disk = make_disk(block=block)
    scheme = cl.ClusterScheme(rows, cols, h)
    dfile = sssp.DistanceFile(disk, scheme, "D")
    ranges = []
    for rank in range(scheme.crows * scheme.ccols):
        size = 8 * (scheme.bases[rank + 1] - scheme.bases[rank])
        off = dfile.offsets[rank]
        first, last = off // block, (off + size - 1) // block
        assert last - first + 1 == -(-size // block), (rank, off, size)
        ranges.append((off, off + size))
    ranges.sort()
    assert all(a[1] <= b[0] for a, b in zip(ranges, ranges[1:]))
    assert ranges[-1][1] <= disk.content_length(dfile.handle)
    assert dfile.read(0) == [sssp.INF_D | sssp.TENTATIVE] * (
        scheme.bases[1] - scheme.bases[0])


def spy_writes(monkeypatch, disk):
    """The (offset, length) of every direct write, in order."""
    writes, write_direct = [], disk.write_direct

    def spy(handle, offset, data):
        writes.append((offset, len(data)))
        return write_direct(handle, offset, data)

    monkeypatch.setattr(disk, "write_direct", spy)
    return writes


def test_step_records_reach_d_without_other_calls():
    # the list ``records`` returns is the step's only copy: a value set in
    # it is encoded when the step ends and written back by ``flush``
    scheme = cl.ClusterScheme(13, 7, 1)
    dfile = sssp.DistanceFile(make_disk(), scheme, "D")
    dfile.records(3)[1] = 42
    dfile.end_step()
    dfile.flush()
    assert dfile.read(3)[1] == 42


def test_step_records_are_one_list_per_step():
    scheme = cl.ClusterScheme(13, 7, 1)
    dfile = sssp.DistanceFile(make_disk(), scheme, "D")
    vals = dfile.records(2)
    assert dfile.records(2) is vals
    dfile.end_step()
    assert dfile.records(2) is not vals


def test_unchanged_step_writes_nothing(monkeypatch):
    disk = make_disk()
    scheme = cl.ClusterScheme(32, 32, 2)
    dfile = sssp.DistanceFile(disk, scheme, "D")
    writes = spy_writes(monkeypatch, disk)
    for rank in range(6):
        dfile.records(rank)
        dfile.records(rank + 1)
        dfile.end_step()
    dfile.flush()
    assert writes == []


def test_change_in_one_block_writes_only_that_block(monkeypatch):
    block = 64
    disk = make_disk(block=block)
    scheme = cl.ClusterScheme(32, 32, 4)
    dfile = sssp.DistanceFile(disk, scheme, "D")
    span = dfile.spans[0]
    assert len(span) > 2
    writes = spy_writes(monkeypatch, disk)
    # the first record that lies in the range's second block
    i = (span[1] * block - dfile.offsets[0]) // 8
    dfile.records(0)[i] = 7
    dfile.end_step()
    dfile.records(1)
    dfile.end_step()
    assert writes == [(span[1] * block, block)]
    dfile.flush()
    assert writes == [(span[1] * block, block)]
    assert dfile.read(0)[i] == 7


def reaching_source(g, reach_fn, seed):
    """The first cell of a seed-derived cell list whose oracle reach covers
    at least half of the grid."""
    rng = random.Random(seed)
    for _ in range(64):
        s = (rng.randrange(g.rows), rng.randrange(g.cols))
        dist = reach_fn(g, s)
        if 2 * sum(1 for d in dist.values() if d != oracle.INF) >= g.n:
            return s
    raise AssertionError("no source reaches half of the grid")


def blocks_of(dfile, rank, block):
    """The blocks of a cluster's range in ``D``."""
    off = dfile.offsets[rank]
    size = 8 * (dfile.bases[rank + 1] - dfile.bases[rank])
    return set(range(off // block, (off + size - 1) // block + 1))


def spy_distance_file(monkeypatch, disk, h):
    """Check every transfer of ``D`` against the step buffer's rule while a
    solver runs: phase 2 reads a block only when it is not resident and
    belongs to a cluster of the current step, and writes only whole-block
    runs of dirty blocks that leave the buffer at the end of a step or at
    the final write-back.  Returns the spy's state: "steps" counts the
    steps, "phase3" the offsets phase 3 reads."""
    b = disk.config.block_bytes
    bound = 9 * -(-32 * ((1 << h) - 1) // b)
    state = {"resident": set(), "step": set(), "ranks": set(),
             "writing": None, "flushed": False, "steps": 0,
             "phase3": Counter()}
    read_direct, write_direct = disk.read_direct, disk.write_direct
    records = sssp.DistanceFile.records
    end_step, flush = sssp.DistanceFile.end_step, sssp.DistanceFile.flush

    def blocks(offset, nbytes):
        assert offset % b == 0 and nbytes % b == 0, (offset, nbytes)
        return set(range(offset // b, (offset + nbytes) // b))

    def spy_read(handle, offset, nbytes):
        if handle.name.endswith(".D"):
            if state["flushed"]:
                state["phase3"][offset] += 1
            else:
                got = blocks(offset, nbytes)
                assert got <= state["step"], "read outside the step"
                assert not got & state["resident"], "resident block read"
                state["resident"] |= got
        return read_direct(handle, offset, nbytes)

    def spy_write(handle, offset, data):
        if handle.name.endswith(".D"):
            assert state["writing"] is not None, "write outside write-back"
            got = blocks(offset, len(data))
            assert got <= state["resident"]
            if state["writing"] == "step":
                assert not got & state["step"], "write of a staying block"
            for k in got:
                new = data[(k - offset // b) * b:(k - offset // b + 1) * b]
                assert new != disk._data[handle.file_id][k * b:(k + 1) * b], \
                    ("clean block written", k)
        return write_direct(handle, offset, data)

    def spy_records(self, rank):
        assert not state["flushed"]
        state["ranks"].add(rank)
        state["step"] |= blocks_of(self, rank, b)
        out = records(self, rank)
        assert blocks_of(self, rank, b) <= state["resident"]
        return out

    def spy_end_step(self):
        state["writing"] = "step"
        end_step(self)
        state["writing"] = None
        state["resident"] &= state["step"]
        assert set(self.buffer.resident) == state["resident"]
        assert len(state["ranks"]) <= 9 and len(state["resident"]) <= bound
        state["step"], state["ranks"] = set(), set()
        state["steps"] += 1

    def spy_flush(self):
        assert not state["flushed"] and not state["step"]
        state["writing"] = "flush"
        flush(self)
        state["writing"], state["flushed"] = None, True
        state["resident"] = set()
        assert not self.buffer.resident

    monkeypatch.setattr(disk, "read_direct", spy_read)
    monkeypatch.setattr(disk, "write_direct", spy_write)
    monkeypatch.setattr(sssp.DistanceFile, "records", spy_records)
    monkeypatch.setattr(sssp.DistanceFile, "end_step", spy_end_step)
    monkeypatch.setattr(sssp.DistanceFile, "flush", spy_flush)
    return state


@pytest.mark.parametrize("solver", ["sssp_simple", "sssp_hierarchical",
                                    "bfs_distances"])
@pytest.mark.parametrize("block", [64, 256])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_phase2_steps_keep_only_their_blocks(monkeypatch, h, block, solver):
    side = 32
    disk = make_disk(block=block)
    if solver == "bfs_distances":
        g = gf.generate(disk, side, side, "unit_directed", seed=3,
                        density=0.6)
    else:
        g = dense_digraph(disk, side, side, 3)
    state = spy_distance_file(monkeypatch, disk, h)
    s = (side // 2, side // 3)
    if solver == "sssp_simple":
        got = sssp.read_distances(disk, sssp.sssp_simple(g, s, h))
        want = oracle.dijkstra(g, s)
    elif solver == "sssp_hierarchical":
        got = sssp.read_distances(disk, sssp.sssp_hierarchical(
            g, s, sssp.build_hierarchy(h, side, side)))
        want = oracle.dijkstra(g, s)
    else:
        got = phase3_by_z(g, bfs.bfs_distances(g, s, h))
        want = oracle.bfs_distances(g, s)
    assert state["steps"] > 50 and state["flushed"]
    # phase 3 reads every cluster's range once, and D is read nowhere else
    scheme = cl.ClusterScheme(side, side, h)
    dfile = sssp.DistanceFile(make_disk(block=block), scheme, "D")
    assert state["phase3"] == Counter(dfile.offsets)
    for z in range(side * side):
        r, c = index_to_coord(side, side, z)
        e = want[(r - 1, c - 1)]
        assert got[z] == (gf.ABSENT if e == oracle.INF else e), z


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("side", [32, 64, 128])
def test_phase2_within_model(side, h):
    n = side * side
    disk = SimDisk(DESK)
    g = dense_digraph(disk, side, side, 1)
    s = reaching_source(g, oracle.dijkstra, 1)
    model = cm.volume_model("sssp", n, DESK.memory_bytes, DESK.block_bytes, h)
    for levels in (None, sssp.build_hierarchy(h, side, side)):
        disk.reset_counters()
        if levels is None:
            sssp.sssp_simple(g, s, h, out_name="simple")
        else:
            sssp.sssp_hierarchical(g, s, levels, out_name="hier")
        moved = disk.counters_snapshot().bytes_transferred
        assert moved <= model.predicted_bytes, (levels, moved / n,
                                                float(model.total))

    assert_bfs_within_model(side, h)


def assert_bfs_within_model(side, h, config=DESK):
    n = side * side
    disk = SimDisk(config)
    g = gf.generate(disk, side, side, "unit_directed", seed=1, density=0.6)
    s = reaching_source(g, oracle.bfs_distances, 2)
    disk.reset_counters()
    bfs.bfs_order(g, s, h)
    moved = disk.counters_snapshot().bytes_transferred
    model = cm.volume_model("bfs", n, config.memory_bytes,
                            config.block_bytes, h)
    assert moved <= model.predicted_bytes, (moved / n, float(model.total))


@pytest.mark.parametrize("side", [32, 64, 128])
def test_bfs_within_model_at_h4(side):
    # SSSP at h = 4 is still above its model (ROADMAP item 10)
    assert_bfs_within_model(side, 4)


@pytest.mark.parametrize("side", [32, 64, 128])
def test_bfs_within_model_at_m_equal_b_squared(side):
    # at the default h; SSSP on this machine measures 0.92-0.98 of its
    # model at these sides, and is not gated here (ROADMAP item 10)
    h = cm.default_h("bfs", PROVISO.memory_bytes)
    assert h == 2
    assert_bfs_within_model(side, h, PROVISO)
