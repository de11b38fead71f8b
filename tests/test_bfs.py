import pytest
from hypothesis import given, settings, strategies as st

from gridscan import gridfmt as gf, clusters as cl, oracle, bfs

from conftest import (index_to_coord, make_disk, make_graph,
                      phase2_pops, spy_phase2)


def snake_edges(rows, cols):
    """Directed boustrophedon path visiting every cell."""
    edges = {}
    for r in range(rows):
        for c in range(cols):
            spec = {}
            if r % 2 == 0:
                if c + 1 < cols:
                    spec[gf.E] = 1
                elif r + 1 < rows:
                    spec[gf.S] = 1
            else:
                if c > 0:
                    spec[gf.W] = 1
                elif r + 1 < rows:
                    spec[gf.S] = 1
            edges[(r, c)] = spec
    return edges


def bfs_pops(mp, rows, cols, h, seed, density):
    """``phase2_pops`` of one spied ``bfs_distances`` run, and its events."""
    events = spy_phase2(mp)
    g = gf.generate(make_disk(), rows, cols, "unit_directed", seed=seed,
                    density=density)
    list(bfs.bfs_distances(g, (rows // 2, cols // 3), h))
    return phase2_pops(events), events


def test_bucket_queue_min(monkeypatch):
    # the solver pops the least key on its heap, so hop distances are
    # settled in non-decreasing order
    pops, _ = bfs_pops(monkeypatch, 16, 16, 2, 3, 0.55)
    assert len(pops) > 20
    for (key, _, _), heap, _, _ in pops:
        assert key == min(heap)[0]
    settled = [key for (key, _, _), _, _, live in pops if live]
    assert settled == sorted(settled)


def test_bucket_queue_reinsert_fresh_first(monkeypatch):
    # a cluster whose key decreases is pushed again: the fresh entry comes
    # out first, and the stale copy, popped later, is skipped
    pops, events = bfs_pops(monkeypatch, 16, 16, 2, 3, 0.55)
    pushes = [event[1] for event in events if event[0] == "push"]
    popped_at = {entry: i for i, (entry, *_) in enumerate(pops)}
    decreased = 0
    for i, ((key, tie, rank), _, cur, live) in enumerate(pops):
        assert live == (cur == key)
        # the ties count down, so an entry's tie is minus its push index
        fresh = [e for e in pushes[-tie + 1:] if e[2] == rank and e[0] < key]
        assert all(popped_at[e] < i for e in fresh)
        decreased += bool(fresh) and not live
    assert decreased > 0


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 12), cols=st.integers(2, 12), h=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1),
       density=st.sampled_from((0.4, 0.7, 1.0)))
def test_bucket_queue_random_schedule(rows, cols, h, seed, density):
    """On random instances BFS's ties count down in push order, so each
    pushed entry comes out once, least key first and the latest pushed of
    a key first, and keys never decrease."""
    with pytest.MonkeyPatch.context() as mp:
        pops, events = bfs_pops(mp, rows, cols, h, seed, density)
    pushes = [event[1] for event in events if event[0] == "push"]
    assert [tie for _, tie, _ in pushes] == [-i for i in range(len(pushes))]
    assert sorted(entry for entry, *_ in pops) == sorted(pushes)
    for entry, heap, _, _ in pops:
        least = min(key for key, _, _ in heap)
        assert entry == min(e for e in heap if e[0] == least)
    keys = [key for (key, _, _), *_ in pops]
    assert keys == sorted(keys)


def dist_map(distances):
    """{(row, col): hop distance, None if unreachable} of phase 3's stream."""
    return {q.coord(v): None if dv == cl.INF else dv
            for q, dist in distances for v, dv in enumerate(dist)}


@pytest.mark.parametrize("seed,h", [(0, 1), (1, 2), (2, 2), (3, 3), (4, 0)])
def test_bfs_distances_match_oracle(seed, h):
    d = make_disk()
    g = gf.generate(d, 32, 32, "unit_directed", seed=seed, density=0.55)
    got = dist_map(bfs.bfs_distances(g, (3, 4), h))
    expect = oracle.bfs_distances(g, (3, 4))
    for v in expect:
        e = None if expect[v] == float("inf") else expect[v]
        assert got[v] == e


def test_bfs_distance_row_path():
    d = make_disk()
    g = make_graph(d, 1, 6, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(5)})
    got = dist_map(bfs.bfs_distances(g, (0, 0), 1))
    assert got == {(0, c): c for c in range(6)}


def test_chunks_partition_reachable():
    d = make_disk()
    g = gf.generate(d, 16, 16, "unit_directed", seed=4, density=0.6)
    c_handle, a_handle, count = bfs.build_chunks_bfs(
        g, bfs.bfs_distances(g, (0, 0), 2), 2)
    expect = oracle.bfs_distances(g, (0, 0))
    reach = {v for v in expect if expect[v] != float("inf")}
    seen = []
    raw = d.raw_bytes(c_handle)
    # the address entries are in chunk order and hold the root distances
    entries = list(bfs._ADDR.iter_unpack(
        d.raw_bytes(a_handle)[:count * bfs._ADDR.size]))
    off = 0
    for a_off, rdist in entries:
        assert a_off == off
        _, cnt = bfs.CHUNK_HDR.unpack_from(raw, off)
        rec = raw[off:off + bfs.CHUNK_HDR.size + cnt]
        depths = set()
        for z, dv in bfs.decode_chunk(g, rec, rdist):
            r, c = index_to_coord(16, 16, z)
            seen.append((r - 1, c - 1))
            assert expect[(r - 1, c - 1)] == dv
            depths.add(dv)
        assert max(depths) - min(depths) < 4     # span < 2^h
        off += bfs.CHUNK_HDR.size + cnt
    assert sorted(seen) == sorted(reach)
    assert len(seen) == len(set(seen))


def test_tall_path_is_cut():
    d = make_disk()
    g = make_graph(d, 4, 4, "unweighted", snake_edges(4, 4))
    _, _, count = bfs.build_chunks_bfs(g, bfs.bfs_distances(g, (0, 0), 2),
                                       2)
    assert count == 4              # 16-vertex path cut at depth multiples of 4


def check_order(g, s, h, name="bfs"):
    """bfs_order visits exactly the reachable cells, by oracle distance."""
    out, emitted, _ = bfs.bfs_order(g, s, h, name=name)
    order = bfs.read_order(g.disk, out)
    assert len(order) == emitted
    expect = oracle.bfs_distances(g, s)
    reach = {v for v in expect if expect[v] != float("inf")}
    coords = [tuple(x - 1 for x in index_to_coord(g.rows, g.cols, z))
              for z in order]
    assert sorted(coords) == sorted(reach)
    dists = [expect[v] for v in coords]
    assert dists == sorted(dists)


@pytest.mark.parametrize("seed", range(4))
def test_full_pipeline_order_valid(seed):
    d = make_disk()
    g = gf.generate(d, 32, 32, "unit_directed", seed=seed + 20, density=0.55)
    check_order(g, (1, 1), 2)


@pytest.mark.parametrize("rows,cols", [(13, 7), (16, 16), (32, 32), (20, 12)])
def test_full_pipeline_at_h0(rows, cols):
    # 1x1 clusters: every separator edge is a cross-cluster hop of weight 1
    for seed in (1, 2):
        g = gf.generate(make_disk(), rows, cols, "unit_directed", seed=seed,
                        density=0.6)
        check_order(g, (0, 0), 0, name="corner")
        check_order(g, (rows // 2, cols // 3), 0, name="inner")


def test_chunk_count_linear():
    for side in (16, 32):
        d = make_disk()
        g = gf.generate(d, side, side, "unit_directed", seed=1, density=0.6)
        stats = bfs.BfsStats()
        bfs.build_chunks_bfs(g, bfs.bfs_distances(g, (0, 0), 2), 2,
                             stats=stats)
        assert stats.chunk_count <= 4 * side * side / 4
