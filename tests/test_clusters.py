import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridscan import gridfmt as gf, clusters as cl, oracle, sssp, cli

from conftest import make_disk, make_graph, grid4_edges


def test_h1_numbering_clockwise():
    s = cl.ClusterScheme(4, 4, 1)
    assert [s.h_number(0, 0), s.h_number(0, 1), s.h_number(1, 1),
            s.h_number(1, 0)] == [0, 1, 2, 3]


def test_h2_interior_has_no_number():
    s = cl.ClusterScheme(4, 4, 2)
    assert s.h_number(1, 1) is None


def test_boundary_sizes():
    assert len(cl.ClusterScheme(2, 2, 1).boundary_coords(0, 0)) == 4
    assert len(cl.ClusterScheme(4, 4, 2).boundary_coords(0, 0)) == 12


def test_clipped_cluster_boundary_clockwise():
    # 5x6 grid, h=2: cluster (1,1) covers rows 4, cols 4-5 -> a 1x2 strip
    s = cl.ClusterScheme(5, 6, 2)
    assert s.boundary_coords(1, 1) == [(4, 4), (4, 5)]
    # cluster (1,0) covers row 4, cols 0-3
    assert s.boundary_coords(1, 0) == [(4, 0), (4, 1), (4, 2), (4, 3)]


@pytest.mark.parametrize("rows,cols,h", [(8, 8, 1), (8, 8, 2), (7, 5, 1),
                                         (7, 5, 2), (9, 3, 3), (6, 6, 2)])
def test_h_numbers_contiguous_and_distinct(rows, cols, h):
    s = cl.ClusterScheme(rows, cols, h)
    seen = set()
    for ci in range(s.crows):
        for cj in range(s.ccols):
            nums = [s.h_number(r, c) for r, c in s.boundary_coords(ci, cj)]
            base = s.base(ci, cj)
            assert nums == list(range(base, base + len(nums)))
            assert not (set(nums) & seen)
            seen |= set(nums)
    assert seen == set(range(s.total_boundary))
    for hn in seen:
        r, c = s.coord_of_h_number(hn)
        assert s.h_number(r, c) == hn
        assert s.cluster_of_h_number(hn) == s.cluster_of(r, c)


@pytest.mark.parametrize("rows,cols,h", [(8, 8, 1), (7, 5, 2), (13, 9, 2)])
def test_z_intervals_tile_the_grid(rows, cols, h):
    s = cl.ClusterScheme(rows, cols, h)
    pos = 0
    for ci, cj in s.clusters_in_z_order():
        z0, cnt = s.z_interval(ci, cj)
        assert z0 == pos
        pos += cnt
    assert pos == rows * cols


def test_load_cluster_matches_read_vertex():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_dag", seed=11)
    s = cl.ClusterScheme(8, 8, 2)
    q = cl.load_cluster(g, s, 1, 0)
    records = gf.decode_all(g)
    for (r, c), edges in [((4 + lr, 0 + lc), q.intra[lr * q.wid + lc])
                          for lr in range(4) for lc in range(4)]:
        idx = gf.coord_to_index(8, 8, r + 1, c + 1)
        mask, ws = records[idx]
        for dd, lr2, lc2, w in edges:
            assert mask >> dd & 1
            assert ws[dd] == w


def test_iterate_clusters_sequential():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_dag", seed=1)
    d.reset_counters()
    list(cl.iterate_clusters(g, cl.ClusterScheme(8, 8, 2)))
    c = d.counters_snapshot()
    assert c.random_blocks == 0
    assert c.blocks_written == 0


def test_separator_weighted_2x2_corner_distance():
    d = make_disk()
    g = make_graph(d, 2, 2, "weighted_directed", grid4_edges(2, 2))
    gp = cl.build_separator_graph(g, 1, "weighted_distance")
    raw = gp.read_record(d, 0)
    edges = dict(gp.decode_edges(0, raw))
    s = gp.scheme
    assert edges[s.h_number(1, 1)] == 2
    assert edges[s.h_number(0, 1)] == 1
    assert edges[s.h_number(1, 0)] == 1


def test_separator_no_internal_edges_only_cross():
    d = make_disk()
    # 4x2 grid, h=1: two clusters stacked; only one edge between them
    g = make_graph(d, 4, 2, "weighted_directed", {(1, 0): {gf.S: 7}})
    gp = cl.build_separator_graph(g, 1, "weighted_distance")
    s = gp.scheme
    all_edges = []
    for hn in range(s.total_boundary):
        all_edges += [(hn, t, w) for t, w in
                      gp.decode_edges(hn, gp.read_record(d, hn))]
    assert all_edges == [(s.h_number(1, 0), s.h_number(2, 0), 7)]


def _local_oracle_distances(g, s, ci, cj):
    """Per-cluster boundary-to-boundary Dijkstra straight off adjacency."""
    adj = gf.adjacency(g)
    r0, c0, hgt, wid = s.extent(ci, cj)
    inside = lambda v: r0 <= v[0] < r0 + hgt and c0 <= v[1] < c0 + wid
    out = {}
    for src in s.boundary_coords(ci, cj):
        dist = {src: 0}
        pq = [(0, src)]
        while pq:
            dv, v = heapq.heappop(pq)
            if dv > dist.get(v, float("inf")):
                continue
            for _, nr, nc, w in adj[v]:
                u = (nr, nc)
                if not inside(u):
                    continue
                if dv + w < dist.get(u, float("inf")):
                    dist[u] = dv + w
                    heapq.heappush(pq, (dv + w, u))
        out[src] = dist
    return out


@pytest.mark.parametrize("h", [1, 2, 3])
def test_separator_distance_soundness(h):
    d = make_disk()
    g = gf.generate(d, 16, 16, "weighted_dag", seed=h)
    gp = cl.build_separator_graph(g, h, "weighted_distance")
    s = gp.scheme
    for ci in range(s.crows):
        for cj in range(s.ccols):
            local = _local_oracle_distances(g, s, ci, cj)
            base = s.base(ci, cj)
            bnd = s.boundary_coords(ci, cj)
            for i, src in enumerate(bnd):
                raw = gp.read_record(d, base + i)
                got = {}
                for t, w in gp.decode_edges(base + i, raw):
                    if s.cluster_of_h_number(t) == (ci, cj):
                        got[t] = w
                expect = {base + j: local[src][v]
                          for j, v in enumerate(bnd)
                          if j != i and v in local[src]}
                assert got == expect


@pytest.mark.parametrize("h", [1, 2])
def test_separator_cross_edge_completeness(h):
    d = make_disk()
    g = gf.generate(d, 12, 12, "weighted_dag", seed=5)
    gp = cl.build_separator_graph(g, h, "weighted_distance")
    s = gp.scheme
    got = []
    for hn in range(s.total_boundary):
        for t, w in gp.decode_edges(hn, gp.read_record(d, hn)):
            if s.cluster_of_h_number(t) != s.cluster_of_h_number(hn):
                got.append((s.coord_of_h_number(hn), s.coord_of_h_number(t), w))
    adj = gf.adjacency(g)
    expect = []
    for v in adj:
        for _, nr, nc, w in adj[v]:
            if s.cluster_of(*v) != s.cluster_of(nr, nc):
                expect.append((v, (nr, nc), w))
    assert sorted(got) == sorted(expect)


def test_reachability_through_interior():
    d = make_disk()
    # h=2 cluster, diagonal path (0,0) -> (1,1) -> (2,2) -> (3,3) with two
    # interior hops; only the endpoints are boundary vertices
    g = make_graph(d, 4, 4, "unweighted",
                   {(0, 0): {gf.SE: 1}, (1, 1): {gf.SE: 1}, (2, 2): {gf.SE: 1}})
    gp = cl.build_separator_graph(g, 2, "reachability")
    s = gp.scheme
    u = s.h_number(0, 0)
    targets, outmask = gp.decode_reach(u, gp.read_record(d, u))
    assert targets == [s.h_number(3, 3)]
    assert outmask == 0


def test_reachability_indegree_and_queue():
    d = make_disk()
    g = gf.generate(d, 8, 8, "planar_dag", seed=3, density=0.7)
    gp = cl.build_separator_graph(g, 1, "reachability")
    s = gp.scheme
    indeg = [0] * s.total_boundary
    for hn in range(s.total_boundary):
        raw = gp.read_record(d, hn)
        targets, outmask = gp.decode_reach(hn, raw)
        for t in targets:
            indeg[t] += 1
        r, c = s.coord_of_h_number(hn)
        for dd in range(8):
            if outmask >> dd & 1:
                dr, dc = gf.DIR_OFFSETS[dd]
                indeg[s.h_number(r + dr, c + dc)] += 1
    draw = d.raw_bytes(gp.d_handle)
    stored = [int.from_bytes(draw[2 * i:2 * i + 2], "little")
              for i in range(s.total_boundary)]
    assert stored == indeg
    zraw = d.raw_bytes(gp.z_handle)
    zs = [int.from_bytes(zraw[8 * i:8 * i + 8], "little")
          for i in range(gp.z_count)]
    assert zs == [i for i in range(s.total_boundary) if indeg[i] == 0]


def test_separator_mode_encoding_mismatch():
    d = make_disk()
    g = gf.generate(d, 4, 4, "tree", seed=0)
    with pytest.raises(cl.ClusterError):
        cl.build_separator_graph(g, 1, "weighted_distance")


ENCODINGS = ("unweighted", "weighted_directed", "weighted_undirected")


def _random_graph(d, rows, cols, encoding, seed):
    """A random graph with every arc inside the grid; weights include 0 and
    the largest storable weight."""
    rng = random.Random(seed)
    dirs = gf.OWNED_SLOTS if encoding == "weighted_undirected" else range(8)
    edges = {}
    for r in range(rows):
        for c in range(cols):
            spec = {}
            for dd in dirs:
                dr, dc = gf.DIR_OFFSETS[dd]
                if (0 <= r + dr < rows and 0 <= c + dc < cols
                        and rng.random() < 0.5):
                    spec[dd] = rng.choice((0, 1, rng.randrange(2 ** 20),
                                           gf.ABSENT - 1))
            edges[(r, c)] = spec
    return make_graph(d, rows, cols, encoding, edges)


def _expected_cluster(g, s, records, ci, cj):
    """(intra, out_edges, boundary) of one cluster, built record by record in
    the order the InMemoryCluster docstring documents."""
    r0, c0, hgt, wid = s.extent(ci, cj)
    inside = lambda r, c: r0 <= r < r0 + hgt and c0 <= c < c0 + wid
    intra = [[] for _ in range(hgt * wid)]
    out = []
    z0, cnt = s.z_interval(ci, cj)
    for z in range(z0, z0 + cnt):
        row, col = gf.index_to_coord(g.rows, g.cols, z)
        r, c = row - 1, col - 1
        mask, weights = records[z]
        for dd in range(8):
            if not mask >> dd & 1:
                continue
            dr, dc = gf.DIR_OFFSETS[dd]
            nr, nc = r + dr, c + dc
            w = weights.get(dd, 1)
            if inside(nr, nc):
                intra[(r - r0) * wid + c - c0].append((dd, nr - r0, nc - c0, w))
                if g.encoding == "weighted_undirected":
                    intra[(nr - r0) * wid + nc - c0].append(
                        (gf.opposite(dd), r - r0, c - c0, w))
            else:
                out.append((r - r0, c - c0, dd, nr, nc, w))
    ring = [(r, c) for r in range(r0, r0 + hgt) for c in range(c0, c0 + wid)
            if r in (r0, r0 + hgt - 1) or c in (c0, c0 + wid - 1)]
    boundary = sorted(ring, key=lambda rc: s.boundary_position(*rc))
    return intra, out, boundary


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(ENCODINGS),
       st.sampled_from([(13, 7), (1, 9), (9, 1), (1, 1), (5, 6), (8, 8)])
       | st.tuples(st.integers(1, 17), st.integers(1, 17)),
       st.integers(0, 4), st.integers(0, 10 ** 9))
def test_decode_matches_record_by_record_reference(encoding, shape, h, seed):
    rows, cols = shape
    d = make_disk()
    g = _random_graph(d, rows, cols, encoding, seed)
    s = cl.ClusterScheme(rows, cols, h)
    records = gf.decode_all(g)
    streamed = list(cl.iterate_clusters(g, s))
    assert [(q.ci, q.cj) for q in streamed] == list(s.clusters_in_z_order())
    for q in streamed:
        direct = cl.load_cluster(g, s, q.ci, q.cj)
        intra, out, boundary = _expected_cluster(g, s, records, q.ci, q.cj)
        for got in (q, direct):
            assert got.intra == intra
            assert got.out_edges == out
            assert got.boundary == boundary


# one stored arc per encoding that points off the grid: (cell, direction)
OFF_GRID = {
    "unweighted": ((2, 0), gf.W),
    "weighted_directed": ((0, 1), gf.N),
    "weighted_undirected": ((1, 3), gf.E),
}


@pytest.mark.parametrize("encoding", ENCODINGS)
@pytest.mark.parametrize("h", [1, 2])
def test_decode_rejects_arc_off_the_grid(encoding, h):
    d = make_disk()
    cell, dd = OFF_GRID[encoding]
    g = make_graph(d, 4, 4, encoding, {cell: {dd: 5}})
    s = cl.ClusterScheme(4, 4, h)
    with pytest.raises(gf.FormatError):
        list(cl.iterate_clusters(g, s))
    with pytest.raises(gf.FormatError):
        cl.load_cluster(g, s, *s.cluster_of(*cell))


def test_sssp_rejects_arc_off_the_grid_like_the_oracle():
    d = make_disk()
    g = make_graph(d, 4, 4, "weighted_directed", {(0, 1): {gf.N: 5}})
    with pytest.raises(gf.FormatError):
        oracle.dijkstra(g, (0, 0))
    with pytest.raises(gf.FormatError):
        sssp.sssp_simple(g, (0, 0), 1)


BIG = 2 ** 60 - 1                   # the largest admissible weight


def snake_graph(d, rows, cols, weight_of):
    """A directed path through every cell, east along even rows and west
    along odd ones; arc k weighs weight_of(k)."""
    cells = [(r, c) for r in range(rows)
             for c in (range(cols) if r % 2 == 0 else range(cols - 1, -1, -1))]
    edges = {}
    for k, ((r, c), (r2, c2)) in enumerate(zip(cells, cells[1:])):
        edges[(r, c)] = {gf.DIR_OFFSETS.index((r2 - r, c2 - c)): weight_of(k)}
    return make_graph(d, rows, cols, "weighted_directed", edges)


# on the 8x8 snake at h = 3 (one cluster), boundary cell (3,0) lies 31 arcs
# after (0,0): 63 arcs of BIG pass 2^64 on the way, while 16 arcs of BIG, one
# of 15 and the rest 0 put (3,0) at exactly 2^64 - 1, the no-path marker
SNAKE_WEIGHTS = {
    "past_64_bits": lambda k: BIG,
    "equal_to_marker": lambda k: BIG if k < 16 else 15 if k == 16 else 0,
}


@pytest.mark.parametrize("weights", sorted(SNAKE_WEIGHTS))
def test_separator_distance_overflow_raises(weights, monkeypatch, capsys):
    weight_of = SNAKE_WEIGHTS[weights]
    for build in (
            lambda g: cl.build_separator_graph(g, 3, "weighted_distance"),
            lambda g: sssp.sssp_simple(g, (0, 0), 3)):
        g = snake_graph(make_disk(), 8, 8, weight_of)
        with pytest.raises(cl.ClusterError):
            build(g)
    monkeypatch.setattr(gf, "generate", lambda disk, rows, cols, *a, **k:
                        snake_graph(disk, rows, cols, weight_of))
    assert cli.run(["sssp", "--rows", "8", "--cols", "8", "--h", "3"]) == 2
    assert "no-path marker" in capsys.readouterr().err
