import pytest
from hypothesis import given, settings, strategies as st

from gridscan import gridfmt as gf, oracle, bfs, sssp

from conftest import make_disk, make_graph


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


def test_bucket_queue_min():
    q = bfs.BucketQueue(2)
    for k in (3, 1, 2):
        q.insert(k, "x%d" % k)
    assert q.extract_min() == (1, "x1")


def test_bucket_queue_far_redistribution():
    q = bfs.BucketQueue(1)          # span 2, band 4
    q.insert(3, "far")              # dprime = 0, lands in a far list
    assert q.far[1] == [(3, "far")]
    assert q.extract_min() == (3, "far")
    assert q.cur == 3


def test_bucket_queue_band_at_h0():
    q = bfs.BucketQueue(0)          # span 1; a cross-cluster hop weighs 1
    q.insert(0, "s")
    assert q.extract_min() == (0, "s")
    q.insert(1, "t")
    with pytest.raises(bfs.BfsError):
        q.insert(2, "u")
    assert q.extract_min() == (1, "t")


def test_bucket_queue_band_error():
    q = bfs.BucketQueue(1)
    q.insert(1, "a")
    q.extract_min()
    with pytest.raises(bfs.BfsError):
        q.insert(0, "late")
    with pytest.raises(bfs.BfsError):
        q.insert(1 + 4, "early")


def test_bucket_queue_reinsert_fresh_first():
    q = bfs.BucketQueue(2)
    q.insert(5, "c")
    q.insert(3, "c")                # decreased key, stale copy remains
    k, it = q.extract_min()
    assert (k, it) == (3, "c")
    assert q.extract_min() == (5, "c")  # stale; caller discards


@settings(max_examples=200, deadline=None)
@given(h=st.integers(0, 3),
       ops=st.lists(st.one_of(st.none(), st.floats(0, 1, exclude_max=True)),
                    max_size=80))
def test_bucket_queue_random_schedule(h, ops):
    """Random in-band inserts (a float picks the key's place in the band)
    interleaved with extractions (None): each entry comes out once, least
    key first and the latest inserted of a key first, keys never decrease,
    and no emptied key list stays behind."""
    q = bfs.BucketQueue(h)
    live, out = [], []

    def extract():
        got = q.extract_min()
        if not live:
            assert got is None
            return
        want = min(live, key=lambda e: (e[0], -e[1]))
        assert got == want
        live.remove(want)
        assert not out or out[-1] <= got[0]
        out.append(got[0])

    for i, op in enumerate(ops):
        if op is None:
            extract()
        else:
            entry = (q.cur + int(op * q.band), i)
            q.insert(*entry)
            live.append(entry)
        assert all(q.near.values())
    while live:
        extract()
        assert all(q.near.values())
    assert q.extract_min() is None


def dist_map(d, handle, g):
    vals = sssp.read_distances(d, handle)
    out = {}
    for z, v in enumerate(vals):
        r, c = gf.index_to_coord(g.rows, g.cols, z)
        out[(r - 1, c - 1)] = None if v == gf.ABSENT else v
    return out


@pytest.mark.parametrize("seed,h", [(0, 1), (1, 2), (2, 2), (3, 3), (4, 0)])
def test_bfs_distances_match_oracle(seed, h):
    d = make_disk()
    g = gf.generate(d, 32, 32, "unit_directed", seed=seed, density=0.55)
    handle, _ = bfs.bfs_distances(g, (3, 4), h)
    got = dist_map(d, handle, g)
    expect = oracle.bfs_distances(g, (3, 4))
    for v in expect:
        e = None if expect[v] == float("inf") else expect[v]
        assert got[v] == e


def test_bfs_distance_row_path():
    d = make_disk()
    g = make_graph(d, 1, 6, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(5)})
    handle, _ = bfs.bfs_distances(g, (0, 0), 1)
    got = dist_map(d, handle, g)
    assert got == {(0, c): c for c in range(6)}


def test_chunks_partition_reachable():
    d = make_disk()
    g = gf.generate(d, 16, 16, "unit_directed", seed=4, density=0.6)
    handle, _ = bfs.bfs_distances(g, (0, 0), 2, out_name="x.dist")
    c_handle, a_handle, count = bfs.build_chunks_bfs(g, handle, 2)
    expect = oracle.bfs_distances(g, (0, 0))
    reach = {v for v in expect if expect[v] != float("inf")}
    seen = []
    raw = d.raw_bytes(c_handle)
    off = 0
    for _ in range(count):
        _, rdist, cnt = bfs.CHUNK_HDR.unpack_from(raw, off)
        rec = raw[off:off + bfs.CHUNK_HDR.size + cnt]
        depths = set()
        for z, dv in bfs.decode_chunk(g, rec):
            r, c = gf.index_to_coord(16, 16, z)
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
    handle, _ = bfs.bfs_distances(g, (0, 0), 2, out_name="x.dist")
    _, _, count = bfs.build_chunks_bfs(g, handle, 2)
    assert count == 4              # 16-vertex path cut at depth multiples of 4


def check_order(g, s, h, name="bfs"):
    """bfs_order visits exactly the reachable cells, by oracle distance."""
    out, emitted, _ = bfs.bfs_order(g, s, h, name=name)
    order = bfs.read_order(g.disk, out)
    assert len(order) == emitted
    expect = oracle.bfs_distances(g, s)
    reach = {v for v in expect if expect[v] != float("inf")}
    coords = [tuple(x - 1 for x in gf.index_to_coord(g.rows, g.cols, z))
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
    # 1x1 clusters: every separator edge is a cross-cluster hop of weight 1,
    # so the bucket queue's band must still admit cur + 1
    for seed in (1, 2):
        g = gf.generate(make_disk(), rows, cols, "unit_directed", seed=seed,
                        density=0.6)
        check_order(g, (0, 0), 0, name="corner")
        check_order(g, (rows // 2, cols // 3), 0, name="inner")


def test_chunk_count_linear():
    for side in (16, 32):
        d = make_disk()
        g = gf.generate(d, side, side, "unit_directed", seed=1, density=0.6)
        handle, _ = bfs.bfs_distances(g, (0, 0), 2, out_name="x.dist")
        stats = bfs.BfsStats()
        bfs.build_chunks_bfs(g, handle, 2, stats=stats)
        assert stats.chunk_count <= 4 * side * side / 4
