import gc
import heapq
import random
import re
import types
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridscan import gridfmt as gf, clusters as cl, oracle, sssp, cli
from gridscan import mst
from gridscan import toposort as ts

from conftest import (arcs_by_vertex, coord_to_index, dense_digraph,
                      index_to_coord, make_disk, make_graph, grid4_edges)


def boundary_coords(s, rank):
    """Boundary cells of cluster ``rank``, clockwise from the upper-left."""
    r0, c0, _, wid = s.extents[rank]
    return [(r0 + v // wid, c0 + v % wid) for v in s.shape(rank).boundary]


def test_h1_numbering_clockwise():
    s = cl.ClusterScheme(4, 4, 1)
    assert [s.h_number(0, 0), s.h_number(0, 1), s.h_number(1, 1),
            s.h_number(1, 0)] == [0, 1, 2, 3]


def test_h2_interior_has_no_number():
    s = cl.ClusterScheme(4, 4, 2)
    assert s.h_number(1, 1) is None


def test_boundary_sizes():
    assert len(boundary_coords(cl.ClusterScheme(2, 2, 1), 0)) == 4
    assert len(boundary_coords(cl.ClusterScheme(4, 4, 2), 0)) == 12


def test_clipped_cluster_boundary_clockwise():
    # 5x6 grid, h=2: the cluster at (4,4) covers row 4, cols 4-5 -> a 1x2
    # strip
    s = cl.ClusterScheme(5, 6, 2)
    assert s.extents[s.rank_of(4, 4)] == (4, 4, 1, 2)
    assert boundary_coords(s, s.rank_of(4, 4)) == [(4, 4), (4, 5)]
    # the cluster at (4,0) covers row 4, cols 0-3
    assert boundary_coords(s, s.rank_of(4, 0)) == [(4, 0), (4, 1), (4, 2),
                                                   (4, 3)]


@pytest.mark.parametrize("rows,cols,h", [(8, 8, 1), (8, 8, 2), (7, 5, 1),
                                         (7, 5, 2), (9, 3, 3), (6, 6, 2)])
def test_h_numbers_contiguous_and_distinct(rows, cols, h):
    s = cl.ClusterScheme(rows, cols, h)
    seen = set()
    for rank in range(len(s.extents)):
        nums = [s.h_number(r, c) for r, c in boundary_coords(s, rank)]
        base = s.bases[rank]
        assert nums == list(range(base, base + len(nums)))
        assert not (set(nums) & seen)
        seen |= set(nums)
    assert seen == set(range(s.total_boundary))
    for hn in seen:
        r, c = s.coord_of_h_number(hn)
        assert s.h_number(r, c) == hn
        assert bisect_right(s.bases, hn) - 1 == s.rank_of(r, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 4))
def test_rank_tables_match_z_order(rows, cols, h):
    # each cluster starts at the Z index of its top-left cell, the extents
    # tile the grid, rank_of names the extent that holds a cell, and every
    # boundary cell's h-number leads back to it
    s = cl.ClusterScheme(rows, cols, h)
    z_of = gf.z_tables(rows, cols)[0]
    owner = {}
    for rank, (r0, c0, hgt, wid) in enumerate(s.extents):
        assert s.starts[rank] == z_of[r0 * cols + c0]
        for r in range(r0, r0 + hgt):
            for c in range(c0, c0 + wid):
                assert (r, c) not in owner
                owner[(r, c)] = rank
    assert len(owner) == rows * cols
    assert s.starts[-1] == rows * cols
    for (r, c), rank in owner.items():
        assert s.rank_of(r, c) == rank
        hn = s.h_number(r, c)
        if hn is not None:
            assert s.coord_of_h_number(hn) == (r, c)


@pytest.mark.parametrize("rows,cols", [(13, 7), (32, 32)])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_local_boundary_matches_scheme_numbering(rows, cols, h):
    # a decoded cluster's local boundary ids, its coord/local pair and the
    # scheme's (rank, position) numbering all name the same cells
    g = make_graph(make_disk(), rows, cols, "unweighted", {})
    s = cl.ClusterScheme(rows, cols, h)
    for rank, q in enumerate(cl.iterate_clusters(g, s)):
        assert q.rank == rank
        assert [q.coord(v) for v in q.boundary] == boundary_coords(s, rank)
        for v in range(q.n):
            assert q.local(*q.coord(v)) == v
        for i, v in enumerate(q.boundary):
            r, c = q.coord(v)
            assert s.locate(r, c) == (rank, i)
            assert s.h_number(r, c) == s.bases[rank] + i


@pytest.mark.parametrize("rows,cols,h", [(8, 8, 1), (7, 5, 2), (13, 9, 2)])
def test_z_intervals_tile_the_grid(rows, cols, h):
    # cluster rank's Z indices starts[rank] .. starts[rank + 1] are exactly
    # the cells of its extent, and the ranges follow one another
    s = cl.ClusterScheme(rows, cols, h)
    pos = 0
    for rank, (r0, c0, hgt, wid) in enumerate(s.extents):
        lo, hi = s.starts[rank], s.starts[rank + 1]
        assert lo == pos
        assert sorted(coord_to_index(rows, cols, r + 1, c + 1)
                      for r in range(r0, r0 + hgt)
                      for c in range(c0, c0 + wid)) == list(range(lo, hi))
        pos = hi
    assert pos == rows * cols


def test_load_cluster_matches_read_vertex():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_dag", seed=11)
    s = cl.ClusterScheme(8, 8, 2)
    q = cl.load_cluster(g, s, s.rank_of(4, 0))
    records = gf.decode_all(g)
    for v, edges in enumerate(arcs_by_vertex(q)):
        r, c = q.coord(v)
        idx = coord_to_index(8, 8, r + 1, c + 1)
        mask, ws = records[idx]
        for dd, u, w in edges:
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


@pytest.mark.parametrize("block, mem_blocks, calls", [(256, 256, 1),
                                                     (64, 64, 16)])
def test_cluster_pass_decodes_once_per_run(monkeypatch, block, mem_blocks,
                                           calls):
    # 16 clusters of side 4 are one run on the desk machine and sixteen at
    # M = 2^12, and each run is one decode_record call
    made, real = [], gf.decode_record

    def spy(*args):
        made.append(args[2])
        return real(*args)

    g = gf.generate(make_disk(block, mem_blocks), 16, 16, "weighted_dag",
                    seed=1, density=0.6)
    monkeypatch.setattr(gf, "decode_record", spy)
    assert len(list(cl.iterate_clusters(g, cl.ClusterScheme(16, 16, 2)))) \
        == 16
    assert made == [256 // calls] * calls


def _lists_reachable(obj) -> int:
    """The list objects reachable from ``obj`` through ``gc.get_referents``,
    classes, modules and functions not followed."""
    seen, stack, lists = set(), [obj], 0
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, types.ModuleType,
                                           types.FunctionType)):
            continue
        seen.add(id(x))
        lists += type(x) is list
        stack.extend(gc.get_referents(x))
    return lists


def test_cluster_holds_no_per_vertex_containers():
    # a cluster's arcs are flat columns: as many lists at h = 7 (one
    # 128x128 cluster) as at h = 2, not one per vertex
    g = gf.generate(make_disk(), 128, 128, "weighted_dag", seed=1,
                    density=0.6)
    counts = {h: _lists_reachable(next(cl.iterate_clusters(
        g, cl.ClusterScheme(128, 128, h)))) for h in (2, 7)}
    assert counts[2] == counts[7] <= 8


# a fault that a consumer of iterate_clusters finds in the cluster at (0,0),
# per algorithm: (encoding, stored arcs, run, error, message)
CONSUMER_FAULTS = {
    "toposort": ("unweighted", {(0, 0): {gf.E: 1}, (0, 1): {gf.W: 1}},
                 lambda g: ts.toposort(g, 2), ts.ToposortError,
                 "cycle inside the cluster at (0,0)"),
    "mst_cache_aware": ("weighted_undirected", {(1, 1): {gf.E: 5}},
                        lambda g: mst.mst_cache_aware(g, 2), mst.MstError,
                        "disconnected input (cluster-interior component)"),
}


@pytest.mark.parametrize("alg", sorted(CONSUMER_FAULTS))
def test_consumer_fault_comes_first_within_a_run(alg):
    # on the desk machine the 8x8 grid's four 4x4 clusters are one run, so
    # the arc off the grid in rank 1 is decoded with rank 0; it must still
    # wait until the consumer has seen rank 0, whose own fault wins
    encoding, edges, run, error, message = CONSUMER_FAULTS[alg]
    assert cl.ClusterScheme(8, 8, 2).extents[1][:2] == (0, 4)
    g = make_graph(make_disk(256), 8, 8, encoding,
                   {**edges, (1, 7): {gf.E: 1}})
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        run(g)


@settings(max_examples=60, deadline=None)
@example(16, [(5, 0, b"a" * 7), (2, 0, b"b" * 20), (5, 1, b"c" * 3),
              (0, 1, b"d" * 16), (2, 2, b"e")])
@given(st.sampled_from([4, 16, 64]),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.binary(min_size=1, max_size=40)), max_size=24))
def test_chunk_file_reads_by_key_and_counts_as_one_stream(block, puts):
    # records come back by key, equal keys in put order, by one direct read
    # each; the file counts exactly what one append stream of the same bytes
    # and the same direct reads count
    d = make_disk(block=block)
    store = cl.ChunkFile(d, "store")
    for key, rank, rec in puts:
        store.put(key, rank, rec)
    reads, real_read = [], d.read_direct

    def read_direct(handle, offset, nbytes):
        reads.append((offset, nbytes))
        return real_read(handle, offset, nbytes)

    d.read_direct = read_direct
    got = list(store.chunks())
    order = sorted(range(len(puts)), key=lambda i: puts[i][0])   # stable
    assert got == [puts[i][1:] for i in order]
    assert len(reads) == len(puts)

    ref = make_disk(block=block)
    handle = ref.open_file("store")
    stream = ref.append_stream(handle)
    stream.write(b"".join(rec for _, _, rec in puts))
    stream.close()
    for offset, nbytes in reads:
        ref.read_direct(handle, offset, nbytes)
    assert d.file_counters(store.handle) == ref.file_counters(handle)
    assert d.raw_bytes(store.handle) == ref.raw_bytes(handle)


def test_separator_weighted_2x2_corner_distance():
    d = make_disk()
    g = make_graph(d, 2, 2, "weighted_directed", grid4_edges(2, 2))
    gp = cl.build_separator_graph(g, 1)
    raw = gp.read_record(0)
    edges = {(r, p): w for r, p, w in gp.decode_edges(0, 0, raw)}
    s = gp.scheme
    assert edges[s.locate(1, 1)] == 2
    assert edges[s.locate(0, 1)] == 1
    assert edges[s.locate(1, 0)] == 1


def test_separator_no_internal_edges_only_cross():
    d = make_disk()
    # 4x2 grid, h=1: two clusters stacked; only one edge between them
    g = make_graph(d, 4, 2, "weighted_directed", {(1, 0): {gf.S: 7}})
    gp = cl.build_separator_graph(g, 1)
    s = gp.scheme
    all_edges = []
    for hn in range(s.total_boundary):
        rank, pos = s.locate(*s.coord_of_h_number(hn))
        all_edges += [(hn, s.bases[r] + p, w) for r, p, w in
                      gp.decode_edges(rank, pos, gp.read_record(hn))]
    assert all_edges == [(s.h_number(1, 0), s.h_number(2, 0), 7)]


def _local_oracle_distances(adj, s, rank):
    """Per-cluster boundary-to-boundary Dijkstra straight off adjacency."""
    r0, c0, hgt, wid = s.extents[rank]
    inside = lambda v: r0 <= v[0] < r0 + hgt and c0 <= v[1] < c0 + wid
    out = {}
    for src in boundary_coords(s, rank):
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


def assert_separator_distances_sound(g, h):
    """Every boundary-to-boundary slot of the separator graph holds the
    least in-cluster distance, and a slot is empty exactly when no
    in-cluster path exists."""
    gp = cl.build_separator_graph(g, h)
    s = gp.scheme
    adj = gf.adjacency(g)
    for rank in range(len(s.extents)):
        local = _local_oracle_distances(adj, s, rank)
        base = s.bases[rank]
        bnd = boundary_coords(s, rank)
        for i, src in enumerate(bnd):
            raw = gp.read_record(base + i)
            got = {}
            for r, p, w in gp.decode_edges(rank, i, raw):
                if r == rank:
                    got[base + p] = w
            expect = {base + j: local[src][v]
                      for j, v in enumerate(bnd)
                      if j != i and v in local[src]}
            assert got == expect


@pytest.mark.parametrize("h", [1, 2, 3])
def test_separator_distance_soundness(h):
    d = make_disk()
    assert_separator_distances_sound(
        gf.generate(d, 16, 16, "weighted_dag", seed=h), h)


@pytest.mark.parametrize("h", [0, 1, 2, 3])
@pytest.mark.parametrize("rows, cols", [(16, 16), (13, 7)])
@pytest.mark.parametrize("model", ["dense_digraph", "unit_directed"])
def test_separator_distance_soundness_cyclic(model, rows, cols, h):
    """Cyclic inputs with every neighbour pair joined.  With every arc
    present each cluster is strongly connected, so every boundary search
    reaches its whole boundary and stops before its queue runs dry; a
    weighted_dag's searches almost never do."""
    d = make_disk()
    if model == "dense_digraph":
        g = dense_digraph(d, rows, cols, h, p=1.0)
    else:
        g = gf.generate(d, rows, cols, "unit_directed", seed=h, density=1.0)
    assert_separator_distances_sound(g, h)


@pytest.mark.parametrize("h", [1, 2])
def test_separator_cross_edge_completeness(h):
    d = make_disk()
    g = gf.generate(d, 12, 12, "weighted_dag", seed=5)
    gp = cl.build_separator_graph(g, h)
    s = gp.scheme
    got = []
    for hn in range(s.total_boundary):
        rank, pos = s.locate(*s.coord_of_h_number(hn))
        for r, p, w in gp.decode_edges(rank, pos, gp.read_record(hn)):
            if r != rank:
                got.append((s.coord_of_h_number(hn),
                            s.coord_of_h_number(s.bases[r] + p), w))
    adj = gf.adjacency(g)
    expect = []
    for v in adj:
        for _, nr, nc, w in adj[v]:
            if s.rank_of(*v) != s.rank_of(nr, nc):
                expect.append((v, (nr, nc), w))
    assert sorted(got) == sorted(expect)


def test_reachability_through_interior():
    d = make_disk()
    # h=2 cluster, diagonal path (0,0) -> (1,1) -> (2,2) -> (3,3) with two
    # interior hops; only the endpoints are boundary vertices
    g = make_graph(d, 4, 4, "unweighted",
                   {(0, 0): {gf.SE: 1}, (1, 1): {gf.SE: 1}, (2, 2): {gf.SE: 1}})
    gp = ts.build_reach_graph(g, 2)
    s = gp.scheme
    u = s.h_number(0, 0)
    assert gp.decode_reach(u, gp.read_record(u)) == [s.h_number(3, 3)]


def test_reachability_indegree_and_queue():
    d = make_disk()
    g = gf.generate(d, 8, 8, "planar_dag", seed=3, density=0.7)
    gp = ts.build_reach_graph(g, 1, name="reach")
    s = gp.scheme
    indeg = [0] * s.total_boundary
    for hn in range(s.total_boundary):
        for t in gp.decode_reach(hn, gp.read_record(hn)):
            indeg[t] += 1
    assert gp.indeg.tolist() == indeg
    zero = [i for i in range(s.total_boundary) if indeg[i] == 0]
    # Kahn's queue starts with the zero-in-degree h-numbers, ascending, and
    # the numbering ranks vertices in queue order
    rtab = ts.topo_number_separator(gp)
    assert [int(rtab[u]) for u in zero] == list(range(len(zero)))


@pytest.mark.parametrize("rows,cols,seed", [(16, 16, 4), (13, 7, 9)])
@pytest.mark.parametrize("h", [1, 2])
def test_reach_and_distance_decoders_agree(rows, cols, seed, h):
    # on a DAG a boundary vertex reaches exactly the separator vertices it
    # has a finite unit distance to, inside its cluster and across
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=seed, density=0.7)
    dist = cl.build_separator_graph(g, h, name="dist")
    reach = ts.build_reach_graph(g, h)
    s = dist.scheme
    crossing = 0
    for rank in range(len(s.bases) - 1):
        for pos in range(s.bases[rank + 1] - s.bases[rank]):
            hn = s.bases[rank] + pos
            edges = list(dist.decode_edges(rank, pos,
                                           dist.read_record(hn)))
            targets = reach.decode_reach(hn, reach.read_record(hn))
            assert len(targets) == len(set(targets))
            assert set(targets) == {s.bases[r] + p for r, p, _ in edges}
            crossing += sum(1 for r, _, _ in edges if r != rank)
    assert crossing > 0


@pytest.mark.parametrize("h", [0, 1, 2])
def test_separator_width_follows_encoding(h):
    slots = 4 * (1 << h) if h > 0 else 8
    for encoding, width in (("weighted_directed", 8), ("unweighted", 4)):
        g = make_graph(make_disk(), 8, 8, encoding, {})
        assert cl.build_separator_graph(g, h).record_size == slots * width
    # reachability records take only the unweighted encoding, the last one
    assert ts.build_reach_graph(g, h).record_size == -(-slots // 8) + 1


@pytest.mark.parametrize("reach", [False, True])
def test_separator_graph_rejects_weighted_undirected(reach):
    # a cluster stores only the cross edges it owns (E, SE, S, SW), so its
    # separator records would miss the N, NE, W and NW ones
    g = gf.generate(make_disk(), 8, 8, "weighted_undirected", seed=1,
                    density=0.8)
    build, error = ((ts.build_reach_graph, ts.ToposortError) if reach
                    else (cl.build_separator_graph, cl.ClusterError))
    with pytest.raises(error, match="unweighted encoding"):
        build(g, 1)


@pytest.mark.parametrize("rows,cols,seed", [(8, 8, 1), (13, 7, 2),
                                            (16, 16, 3)])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_undirected_decode_lists_each_stored_edge_once(rows, cols, seed, h):
    g = gf.generate(make_disk(), rows, cols, "weighted_undirected", seed=seed,
                    density=0.8)
    got = []
    for q in cl.iterate_clusters(g, cl.ClusterScheme(rows, cols, h)):
        got += [(w, q.coord(v), q.coord(u))
                for v, arcs in enumerate(arcs_by_vertex(q))
                for _, u, w in arcs]
        got += [(w, q.coord(v), (nr, nc)) for v, _, nr, nc, w in q.out_edges]
    assert sorted(got) == sorted(oracle.undirected_edges(g))


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


def _expected_cluster(g, s, records, rank):
    """(intra, out_edges, boundary) of one cluster, built record by record in
    the order the InMemoryCluster docstring documents."""
    r0, c0, hgt, wid = s.extents[rank]
    inside = lambda r, c: r0 <= r < r0 + hgt and c0 <= c < c0 + wid
    local = lambda r, c: (r - r0) * wid + c - c0
    intra = [[] for _ in range(hgt * wid)]
    out = []
    for z in sorted(coord_to_index(g.rows, g.cols, r + 1, c + 1)
                    for r in range(r0, r0 + hgt)
                    for c in range(c0, c0 + wid)):
        row, col = index_to_coord(g.rows, g.cols, z)
        r, c = row - 1, col - 1
        mask, weights = records[z]
        for dd in range(8):
            if not mask >> dd & 1:
                continue
            dr, dc = gf.DIR_OFFSETS[dd]
            nr, nc = r + dr, c + dc
            w = weights.get(dd, 1)
            if inside(nr, nc):
                intra[local(r, c)].append((dd, local(nr, nc), w))
            else:
                out.append((local(r, c), dd, nr, nc, w))
    ring = [(r, c) for r in range(r0, r0 + hgt) for c in range(c0, c0 + wid)
            if r in (r0, r0 + hgt - 1) or c in (c0, c0 + wid - 1)]
    boundary = tuple(local(*rc) for rc in
                     sorted(ring, key=lambda rc: s.locate(*rc)[1]))
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
    assert [q.rank for q in streamed] == list(range(len(s.extents)))
    for q in streamed:
        direct = cl.load_cluster(g, s, q.rank)
        intra, out, boundary = _expected_cluster(g, s, records, q.rank)
        for got in (q, direct):
            assert arcs_by_vertex(got) == intra
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
        cl.load_cluster(g, s, s.rank_of(*cell))


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


# test id -> (rows, cols, h, weight of the k-th arc) of a snake on one
# cluster.  On the 8x8 snake at h = 3, boundary cell (3,0) lies 31 arcs after
# (0,0): 63 arcs of BIG pass 2^64 on the way, while 16 arcs of BIG, one of 15
# and the rest 0 put (3,0) at exactly 2^64 - 1, the no-path marker.  On the
# 4x4 snake at h = 2 fifteen arcs of BIG stay below 2^64, so its arcs, all
# inside the cluster, take weights of up to 2^64 - 2, the largest storable:
# fifteen of 2^62 pass 2^64, and one of 2^64 - 2 then one of 1 put (0,2) and
# every cell after it at exactly 2^64 - 1.
SNAKE_CASES = {
    "past_64_bits": (8, 8, 3, lambda k: BIG),
    "equal_to_marker": (8, 8, 3,
                        lambda k: BIG if k < 16 else 15 if k == 16 else 0),
    "h2-past_64_bits": (4, 4, 2, lambda k: 2 ** 62),
    "h2-equal_to_marker": (4, 4, 2,
                           lambda k: (gf.ABSENT - 1, 1)[k] if k < 2 else 0),
}


@pytest.mark.parametrize("case", sorted(SNAKE_CASES))
def test_separator_distance_overflow_raises(case, monkeypatch, capsys):
    rows, cols, h, weight_of = SNAKE_CASES[case]
    for build in (
            lambda g: cl.build_separator_graph(g, h),
            lambda g: sssp.sssp_simple(g, (0, 0), h)):
        g = snake_graph(make_disk(), rows, cols, weight_of)
        with pytest.raises(cl.ClusterError):
            build(g)
    monkeypatch.setattr(gf, "generate", lambda disk, rows, cols, *a, **k:
                        snake_graph(disk, rows, cols, weight_of))
    assert cli.run(["sssp", "--rows", str(rows), "--cols", str(cols),
                    "--h", str(h)]) == 2
    assert "no-path marker" in capsys.readouterr().err


# one cluster's faults in the order the build checks them: an arc off the
# grid, a boundary distance past the no-path marker (3 * 2^63 from (0,0)),
# then a cross edge too heavy for its slot
CLUSTER_FAULTS = (
    ("off_grid", {(0, 1): {gf.N: 5}}, gf.FormatError,
     "edge leaves the grid at (0,1)"),
    ("distance", {(0, c): {gf.E: 2 ** 63} for c in range(3)},
     cl.ClusterError, "boundary distance %d in the cluster at (0,0) does "
     "not fit" % (3 * 2 ** 63)),
    ("weight", {(1, 3): {gf.E: 2 ** 60}}, cl.ClusterError,
     "weight too large for slot encoding"),
)


@pytest.mark.parametrize("first", [name for name, *_ in CLUSTER_FAULTS])
def test_first_failing_cluster_raises_first(first):
    """The first cluster by rank raises its first fault, amid its later
    faults and with an arc off the grid in the next cluster.  At block 64
    and M = 4096 each 4x4 cluster of an 8x8 grid at h = 2 is a run of its
    own, so this checks the fault order across runs;
    ``test_first_failing_cluster_raises_first_within_a_run`` checks it
    within one run."""
    names = [name for name, *_ in CLUSTER_FAULTS]
    edges = {(0, 5): {gf.N: 5}}
    for _, faults, _, _ in CLUSTER_FAULTS[names.index(first):]:
        for cell, spec in faults.items():
            edges.setdefault(cell, {}).update(spec)
    _, _, error, message = CLUSTER_FAULTS[names.index(first)]
    g = make_graph(make_disk(), 8, 8, "weighted_directed", edges)
    with pytest.raises(error, match=re.escape(message)):
        cl.build_separator_graph(g, 2)


def _reference_separator_bytes(g, h):
    """The separator file's bytes from ``iterate_clusters`` and one
    ``local_dijkstra`` per boundary source, or the (type, message) of the
    first error: per cluster in rank order an arc off the grid, then per
    source in clockwise order a boundary distance at or past the no-path
    marker, then a cross edge too heavy for its slot."""
    slots = 4 * (1 << h) if h > 0 else 8
    dtype, absent, shift = cl._SLOT_FORMATS[g.encoding != "unweighted"]
    out = []
    try:
        for q in cl.iterate_clusters(g, cl.ClusterScheme(g.rows, g.cols, h)):
            rows = []
            for i, s in enumerate(q.boundary):
                dist = [cl.local_dijkstra(q, [(0, s)])[v] for v in q.boundary]
                top = max(x for x in dist if x != cl.INF)
                if top >= absent:
                    raise cl.ClusterError(
                        "boundary distance %d in the cluster at (%d,%d) does "
                        "not fit below the no-path marker" % (top, q.r0, q.c0))
                rows.append([absent if x == cl.INF else x
                             for j, x in enumerate(dist) if j != i])
            for v, d, _, _, w in q.out_edges:
                if w >> shift:
                    raise cl.ClusterError("weight too large for slot encoding")
                rows[q.boundary.index(v)].append((d << shift) | w)
            out += [row + [absent] * (slots - len(row)) for row in rows]
    except (cl.ClusterError, gf.FormatError) as e:
        return type(e), str(e)
    return np.array(out, dtype).tobytes()


def _random_edges(rows, cols, p, weights, seed, stray=0.0):
    """Each arc inside the grid present with probability ``p``, and each
    arc off it with probability ``stray``."""
    rng = random.Random(seed)
    return {(r, c): {dd: rng.choice(weights) for dd, (dr, dc)
                     in enumerate(gf.DIR_OFFSETS)
                     if rng.random() < (
                         p if 0 <= r + dr < rows and 0 <= c + dc < cols
                         else stray)}
            for r in range(rows) for c in range(cols)}


def _faulty_grid(first, block):
    """test_first_failing_cluster_raises_first's 8x8 grid, on a disk of
    ``block``-byte blocks, with its expected error and message."""
    names = [name for name, *_ in CLUSTER_FAULTS]
    edges = {(0, 5): {gf.N: 5}}
    for _, faults, _, _ in CLUSTER_FAULTS[names.index(first):]:
        for cell, spec in faults.items():
            edges.setdefault(cell, {}).update(spec)
    _, _, error, message = CLUSTER_FAULTS[names.index(first)]
    g = make_graph(make_disk(block), 8, 8, "weighted_directed", edges)
    return g, error, message


@pytest.mark.parametrize("first", [name for name, *_ in CLUSTER_FAULTS])
def test_first_failing_cluster_raises_first_within_a_run(first):
    # on the desk machine the grid's four 4x4 clusters are one run, so the
    # arc off the grid in the second cluster is decoded before the first
    # cluster's faults are checked
    g, error, message = _faulty_grid(first, 256)
    kind, text = _reference_separator_bytes(g, 2)
    assert kind is error and text.startswith(message)
    with pytest.raises(error, match=re.escape(message)):
        cl.build_separator_graph(g, 2)


# a cluster at (r0, c0) whose boundary positions 1 and 2 both reach past
# the no-path marker, 2^64 + 1 and 2^64 from the cells of its top row: the
# message quotes position 1's largest distance.  (dr, dc, direction, w)
FAR_CHAINS = {
    2: ((4, 4), ((0, 1, gf.E, 1), (0, 2, gf.E, 2 ** 63),
                 (0, 3, gf.S, 2 ** 63))),
    3: ((8, 8), ((0, 1, gf.E, 1), (0, 2, gf.E, 2 ** 63),
                 (0, 3, gf.E, 2 ** 63))),
}


@pytest.mark.parametrize("block", [64, 256])
@pytest.mark.parametrize("h", sorted(FAR_CHAINS))
def test_distance_fault_quotes_the_first_far_source(h, block):
    (r0, c0), chain = FAR_CHAINS[h]
    edges = {(r0 + dr, c0 + dc): {d: w} for dr, dc, d, w in chain}
    g = make_graph(make_disk(block), 16, 16, "weighted_directed", edges)
    message = ("boundary distance %d in the cluster at (%d,%d) does not "
               "fit below the no-path marker" % (2 ** 64 + 1, r0, c0))
    assert _reference_separator_bytes(g, h) == (cl.ClusterError, message)
    with pytest.raises(cl.ClusterError, match=re.escape(message)):
        cl.build_separator_graph(g, h)


# intra-cluster weights that keep the batch in int64, and ones that push it
# to Python ints; 2^60 and up fail as cross edges, and the heaviest make
# boundary distances pass the no-path marker
HEAVY = (0, 1, 2 ** 20, 2 ** 58, BIG, 2 ** 60, 2 ** 62, gf.ABSENT - 1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["weighted_directed", "unweighted"]),
       st.integers(1, 13), st.integers(1, 13), st.integers(0, 4),
       st.sampled_from([16, 64, 256]), st.floats(0.3, 1.0),
       st.lists(st.sampled_from(HEAVY), min_size=1, max_size=3),
       st.sampled_from([0.0, 0.0, 0.01]), st.integers(0, 10 ** 9))
def test_batched_condensation_matches_the_searches(encoding, rows, cols, h,
                                                   block, p, weights, stray,
                                                   seed):
    # the same bytes, or the same first error, as one search per source,
    # at M = B^2 for runs of one cluster (B = 16 and 64) and of 16 of side
    # 4 (B = 256), some with arcs off the grid
    edges = _random_edges(rows, cols, p, weights, seed, stray)
    g = make_graph(make_disk(block), rows, cols, encoding, edges)
    expect = _reference_separator_bytes(g, h)
    try:
        gp = cl.build_separator_graph(g, h)
    except (cl.ClusterError, gf.FormatError) as e:
        assert (type(e), str(e)) == expect
    else:
        size = g.disk.content_length(gp.handle)
        assert g.disk.raw_bytes(gp.handle)[:size] == expect


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["weighted_directed", "unweighted"]),
       st.integers(1, 10), st.integers(1, 10), st.integers(0, 4),
       st.floats(0.3, 1.0),
       st.lists(st.sampled_from(HEAVY), min_size=1, max_size=3),
       st.integers(0, 10 ** 9))
def test_distance_routes_agree(encoding, rows, cols, h, p, weights, seed):
    # Floyd's batch and the searches give the same boundary distances, of
    # the same dtype, on every run, the Python-int runs included
    routes = cl._all_pairs_rows, cl._searched_rows
    kinds = set()

    def both(*args):
        floyd, searched = (route(*args) for route in routes)
        assert floyd.dtype == searched.dtype
        assert floyd.shape == searched.shape
        assert (floyd == searched).all()
        kinds.add(floyd.dtype)
        return floyd

    edges = _random_edges(rows, cols, p, weights, seed)
    g = make_graph(make_disk(256), rows, cols, encoding, edges)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cl, "_all_pairs_rows", both)
        mp.setattr(cl, "_searched_rows", both)
        try:
            cl.build_separator_graph(g, h)
        except (cl.ClusterError, gf.FormatError):
            pass
    assert kinds


@pytest.mark.parametrize("block, mem_blocks", [(256, 256), (64, 64)])
@pytest.mark.parametrize("h", [0, 1, 2])
@pytest.mark.parametrize("rows, cols", [(16, 16), (100, 37)])
def test_condensation_batches_stay_within_memory(monkeypatch, rows, cols, h,
                                                 block, mem_blocks):
    # every batch of distance matrices takes at most M, and every cluster
    # is condensed in exactly one batch
    batches, real = [], cl._all_pairs

    def spy(dist):
        batches.append(dist.shape)
        real(dist)

    monkeypatch.setattr(cl, "_all_pairs", spy)
    d = make_disk(block, mem_blocks)
    g = gf.generate(d, rows, cols, "weighted_dag", seed=1, density=0.6)
    cl.build_separator_graph(g, h)
    assert all(k * m * m * 8 <= d.config.memory_bytes for k, m, _ in batches)
    assert sum(k for k, _, _ in batches) == len(cl.ClusterScheme(
        rows, cols, h).extents)


@pytest.mark.parametrize("block, mem_blocks", [(256, 256), (64, 64)])
@pytest.mark.parametrize("h", [0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("rows, cols", [(16, 16), (100, 37)])
def test_condensation_runs_hold_floyd_and_its_temporary(monkeypatch, rows,
                                                        cols, h, block,
                                                        mem_blocks):
    # a run's K distance matrices of m cells and the temporary of Floyd's
    # step, 2 * K * m^2 * 8 bytes, take at most M: 16 clusters of side 4 on
    # the desk machine and one at M = 2^12, one from side 8 on
    runs, real = [], cl._condense_run

    def spy(g, extents, *args):
        runs.append((len(extents), int(extents[0, 2] * extents[0, 3])))
        return real(g, extents, *args)

    monkeypatch.setattr(cl, "_condense_run", spy)
    d = make_disk(block, mem_blocks)
    g = gf.generate(d, rows, cols, "weighted_dag", seed=1, density=0.6)
    cl.build_separator_graph(g, h)
    mem = d.config.memory_bytes
    assert all(2 * k * m * m * 8 <= mem or k == 1 for k, m in runs)
    assert sum(k for k, _ in runs) == len(cl.ClusterScheme(
        rows, cols, h).extents)
    full = {k for k, m in runs if m == 4 ** h}
    if full and (h >= 3 or h == 2 and mem == 2 ** 12):
        assert full == {1}
    elif (h, mem, rows) == (2, 2 ** 16, 16):
        assert runs == [(16, 16)]


@pytest.mark.parametrize("h", [0, 1, 2, 3, 4, 5])
def test_cross_edges_always_fit_their_slots(h):
    # a boundary vertex's record holds bsize - 1 distances and at most one
    # cross edge per direction that leaves its cluster, so no input can
    # overflow its slots: every cluster shape, clipped ones included, fits,
    # and the full shape's corners fill every slot
    slots = 4 * (1 << h) if h > 0 else 8
    side = 1 << h
    for hgt in range(1, side + 1):
        for wid in range(1, side + 1):
            shape = cl._shape(hgt, wid)
            leaving = (shape.nbr < 0).sum(axis=1)[shape.t_of_local]
            need = [len(shape.boundary) - 1 + leaving[v]
                    for v in shape.boundary]
            assert max(need) <= slots
            if (hgt, wid) == (side, side):
                assert max(need) == slots
