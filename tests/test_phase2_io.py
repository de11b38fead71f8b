"""The phase-2 access pattern on the distance file ``D`` and its bound.

* Layout: every cluster's range in ``D`` touches exactly ceil(8 * size / B)
  blocks, and no two ranges overlap.
* Per settle: ``sssp._settle`` reads each touched cluster's records at most
  once and writes them at most once, and outside the settles ``D`` is read
  only to seed the source's cluster and once per cluster by phase 3.
* Model bound: from a source that reaches at least half of the grid, SSSP
  and BFS move at most the bytes per vertex that ``costmodel.volume_model``
  predicts, on the desk machine at n = 2^10, 2^12 and 2^14, h = 2 and 3;
  BFS also at h = 4.
"""

import random
from collections import Counter

import pytest

from gridscan import bfs, oracle, sssp
from gridscan import clusters as cl
from gridscan import costmodel as cm
from gridscan import gridfmt as gf
from gridscan.simdisk import SimConfig, SimDisk

from conftest import make_disk, make_graph

DESK = SimConfig(block_bytes=2 ** 8, memory_bytes=2 ** 16)


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


def dense_digraph(disk, side, seed):
    """Each of the 8 neighbour arcs present with probability 0.6, weight
    uniform in [1, 2^20)."""
    rng = random.Random(seed)
    edges = {}
    for r in range(side):
        for c in range(side):
            spec = {}
            for d, (dr, dc) in enumerate(gf.DIR_OFFSETS):
                if (0 <= r + dr < side and 0 <= c + dc < side
                        and rng.random() < 0.6):
                    spec[d] = rng.randrange(1, 2 ** 20)
            edges[(r, c)] = spec
    return make_graph(disk, side, side, "weighted_directed", edges)


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


def spy_settles(monkeypatch, disk):
    """Record the D offsets read and written inside and outside each
    ``_settle``; returns (per-settle [(reads, writes)], reads outside)."""
    settles, outside = [], Counter()
    current = []
    read_direct, write_direct = disk.read_direct, disk.write_direct
    settle = sssp._settle

    def spy_read(handle, offset, nbytes):
        if handle.name.endswith(".D"):
            (current[-1][0] if current else outside)[offset] += 1
        return read_direct(handle, offset, nbytes)

    def spy_write(handle, offset, data):
        if handle.name.endswith(".D") and current:
            current[-1][1][offset] += 1
        return write_direct(handle, offset, data)

    def spy_settle(*args, **kwargs):
        current.append((Counter(), Counter()))
        try:
            return settle(*args, **kwargs)
        finally:
            settles.append(current.pop())

    monkeypatch.setattr(disk, "read_direct", spy_read)
    monkeypatch.setattr(disk, "write_direct", spy_write)
    monkeypatch.setattr(sssp, "_settle", spy_settle)
    return settles, outside


@pytest.mark.parametrize("solver", ["sssp_simple", "sssp_hierarchical",
                                    "bfs_distances"])
def test_settle_reads_and_writes_each_cluster_once(monkeypatch, solver):
    side, h = 32, 2
    disk = make_disk()
    if solver == "bfs_distances":
        g = gf.generate(disk, side, side, "unit_directed", seed=3,
                        density=0.6)
    else:
        g = dense_digraph(disk, side, 3)
    settles, outside = spy_settles(monkeypatch, disk)
    s = (side // 2, side // 3)
    if solver == "sssp_simple":
        sssp.sssp_simple(g, s, h)
    elif solver == "sssp_hierarchical":
        sssp.sssp_hierarchical(g, s, sssp.build_hierarchy(h, side, side))
    else:
        bfs.bfs_distances(g, s, h)
    assert len(settles) > 100
    for reads, writes in settles:
        assert max(reads.values()) == 1
        assert not writes or max(writes.values()) == 1
        assert set(writes) <= set(reads)
    # the seed read of the source's cluster, then phase 3 once per cluster
    clusters = cl.ClusterScheme(side, side, h).crows ** 2
    assert sum(outside.values()) == 1 + clusters


@pytest.mark.parametrize("h", [2, 3])
@pytest.mark.parametrize("side", [32, 64, 128])
def test_phase2_within_model(side, h):
    n = side * side
    disk = SimDisk(DESK)
    g = dense_digraph(disk, side, 1)
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


def assert_bfs_within_model(side, h):
    n = side * side
    disk = SimDisk(DESK)
    g = gf.generate(disk, side, side, "unit_directed", seed=1, density=0.6)
    s = reaching_source(g, oracle.bfs_distances, 2)
    disk.reset_counters()
    bfs.bfs_order(g, s, h)
    moved = disk.counters_snapshot().bytes_transferred
    model = cm.volume_model("bfs", n, DESK.memory_bytes, DESK.block_bytes, h)
    assert moved <= model.predicted_bytes, (moved / n, float(model.total))


@pytest.mark.parametrize("side", [32, 64, 128])
def test_bfs_within_model_at_h4(side):
    # SSSP at h = 4 is still above its model (ROADMAP item 10)
    assert_bfs_within_model(side, 4)
