import random

import pytest
from hypothesis import given, settings, strategies as st

from gridscan import gridfmt as gf, clusters as cl, oracle, sssp, bfs

from conftest import (coord_to_index, dense_digraph, index_to_coord,
                      make_disk, make_graph, grid4_edges, phase2_pops,
                      phase3_by_z, spy_phase2)


def solve_and_compare(rows, cols, seed, h, variant="simple", density=0.5):
    d = make_disk(block=64)
    g = gf.generate(d, rows, cols, "weighted_dag", seed=seed, density=density)
    rng = random.Random(seed * 31 + 7)
    s = (rng.randrange(rows), rng.randrange(cols))
    if variant == "simple":
        out = sssp.sssp_simple(g, s, h)
    else:
        levels = sssp.build_hierarchy(h, rows, cols)
        out = sssp.sssp_hierarchical(g, s, levels)
    got = sssp.read_distances(d, out)
    expect = oracle.dijkstra(g, s)
    for z in range(rows * cols):
        r, c = index_to_coord(rows, cols, z)
        e = expect[(r - 1, c - 1)]
        e = gf.ABSENT if e == float("inf") else int(e)
        assert got[z] == e, (z, (r, c), got[z], e)
    return d, g, s


def test_distance_to_source_zero():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_dag", seed=1)
    out = sssp.sssp_simple(g, (3, 3), 2)
    got = sssp.read_distances(d, out)
    z = coord_to_index(8, 8, 4, 4)
    assert got[z] == 0


def test_single_cluster_equals_plain_dijkstra():
    solve_and_compare(4, 4, 2, 2)


@pytest.mark.parametrize("seed", range(6))
def test_simple_random_32x32(seed):
    solve_and_compare(32, 32, seed, 2)


def test_simple_nonsquare_and_h_values():
    solve_and_compare(17, 9, 3, 1)
    solve_and_compare(9, 23, 4, 3)


def test_simple_finalization_soundness():
    d = make_disk()
    g = gf.generate(d, 16, 16, "weighted_dag", seed=5)
    stats = sssp.SolveStats()
    sssp.sssp_simple(g, (0, 0), 2, stats=stats)
    expect = oracle.dijkstra(g, (0, 0))
    scheme = cl.ClusterScheme(16, 16, 2)
    for hn, dist in stats.extractions:
        r, c = scheme.coord_of_h_number(hn)
        assert expect[(r, c)] == dist


def test_build_hierarchy_large_grid():
    assert sssp.build_hierarchy(12, 2 ** 20, 2 ** 20) == [12, 15, 30]


def test_build_hierarchy_small():
    assert sssp.build_hierarchy(2, 32, 32) == [2, 5]
    assert sssp.build_hierarchy(3, 8, 8) == [3]


def test_hierarchical_matches_simple_bitwise():
    d1 = make_disk()
    g1 = gf.generate(d1, 32, 32, "weighted_dag", seed=8)
    o1 = sssp.sssp_simple(g1, (5, 20), 2)
    d2 = make_disk()
    g2 = gf.generate(d2, 32, 32, "weighted_dag", seed=8)
    o2 = sssp.sssp_hierarchical(g2, (5, 20), sssp.build_hierarchy(2, 32, 32))
    assert d1.raw_bytes(o1) == d2.raw_bytes(o2)


@pytest.mark.parametrize("seed", range(5))
def test_hierarchical_random(seed):
    solve_and_compare(32, 32, seed + 50, 2, variant="hier")


def test_hierarchical_64x64():
    solve_and_compare(64, 64, 13, 2, variant="hier")
    # h0 = 0: 1x1 clusters under levels [0, 3, 6]
    solve_and_compare(64, 64, 13, 0, variant="hier")


@pytest.mark.parametrize("h0", [1, 2])
@pytest.mark.parametrize("rows, cols", [(13, 7), (5, 11), (100, 37), (32, 32)])
def test_level_clusters_are_rank_ranges(rows, cols, h0):
    # sssp_hierarchical keys a level cluster by the least key of the ranks
    # [lo, lo + cnt): lo the rank of its upper-left h0 cluster, cnt its
    # count of in-grid h0 clusters
    scheme = cl.ClusterScheme(rows, cols, h0)
    for hl in sssp.build_hierarchy(h0, rows, cols):
        s = hl - h0
        blocks = {}
        for ci in range(scheme.crows):
            for cj in range(scheme.ccols):
                blocks.setdefault((ci >> s, cj >> s), []).append(
                    scheme.rank_of(ci << h0, cj << h0))
        for (bi, bj), ranks in blocks.items():
            lo = scheme.rank_of(bi << hl, bj << hl)
            cnt = (min(1 << s, scheme.crows - (bi << s))
                   * min(1 << s, scheme.ccols - (bj << s)))
            assert sorted(ranks) == list(range(lo, lo + cnt)), (hl, bi, bj)


# (rows, cols, h, arc probability or density, seed)
@pytest.mark.parametrize("instance", [(13, 7, 1, 0.6, 1),
                                      (16, 16, 2, 0.6, 3),
                                      (16, 16, 1, 1.0, 1)])
@pytest.mark.parametrize("solver", ["sssp_simple", "sssp_hierarchical",
                                    "bfs_distances"])
def test_settle_gets_the_records_least_tentative(monkeypatch, solver,
                                                 instance):
    # the (distance, position) a driver keeps beside a cluster's key is the
    # one _min_tentative finds in the cluster's records at every step
    rows, cols, h, p, seed = instance
    real, steps = sssp._settle, []

    def spy(gp, dfile, rank, best, stats):
        # the step's first records call: it loads what the step loads
        assert best == sssp._min_tentative(dfile.records(rank))
        steps.append(best)
        return real(gp, dfile, rank, best, stats)

    def run():
        d = make_disk()
        s = (rows // 2, cols // 3)
        if solver == "bfs_distances":
            g = gf.generate(d, rows, cols, "unit_directed", seed=seed,
                            density=p)
            list(bfs.bfs_distances(g, s, h))
        else:
            g = dense_digraph(d, rows, cols, seed, p)
            if solver == "sssp_simple":
                sssp.sssp_simple(g, s, h)
            else:
                sssp.sssp_hierarchical(
                    g, s, sssp.build_hierarchy(h, rows, cols))
        return d.counters_snapshot()

    monkeypatch.setattr(sssp, "_settle", spy)
    spied = run()
    assert len(steps) > 20 and None not in steps
    monkeypatch.setattr(sssp, "_settle", real)
    assert run() == spied


def test_hierarchical_degenerate_k0():
    solve_and_compare(4, 4, 6, 2, variant="hier")


def test_source_outside_grid():
    d = make_disk()
    g = gf.generate(d, 4, 4, "weighted_dag", seed=0)
    with pytest.raises(sssp.SsspError):
        sssp.sssp_simple(g, (4, 0), 1)


def test_hierarchical_wasted_calls_bounded():
    # level-0 call count stays proportional to the separator size
    for n_side, seed in ((16, 1), (32, 2), (64, 3)):
        d = make_disk()
        g = gf.generate(d, n_side, n_side, "weighted_dag", seed=seed)
        stats = sssp.SolveStats()
        sssp.sssp_hierarchical(g, (0, 0),
                               sssp.build_hierarchy(2, n_side, n_side),
                               stats=stats)
        scheme = cl.ClusterScheme(n_side, n_side, 2)
        assert stats.level0_calls <= 6 * scheme.total_boundary


BIG = 2 ** 60 - 1                   # the largest admissible weight


def heavy_path(d):
    """1x16 path of BIG eastward edges: vertex k lies at k * BIG, which
    passes the 63-bit estimate limit from k = 9 on."""
    return make_graph(d, 1, 16, "weighted_directed",
                      {(0, c): {gf.E: BIG} for c in range(15)})


@pytest.mark.parametrize("h", [1, 2, 3, 4])
@pytest.mark.parametrize("variant", ["simple", "hier"])
def test_distance_overflow_raises(variant, h):
    # h = 1..3 overflow in the phase-2 relaxation; at h = 4 one cluster
    # covers the path and the source seeding overflows
    g = heavy_path(make_disk())
    with pytest.raises(sssp.SsspError):
        if variant == "simple":
            sssp.sssp_simple(g, (0, 0), h)
        else:
            sssp.sssp_hierarchical(g, (0, 0), sssp.build_hierarchy(h, 1, 16))


def test_distance_overflow_in_interior_raises():
    # a 6x6 grid is one h = 3 cluster with a 4x4 interior; the only path
    # leaves the source at a corner and snakes through the interior, so
    # only the phase-3 interior search sees the overflowing sums
    edges = {(0, 0): {gf.SE: BIG}}
    cells = [(r, c) for r in range(1, 5)
             for c in (range(1, 5) if r % 2 else range(4, 0, -1))]
    for (r, c), (r2, c2) in zip(cells, cells[1:]):
        d = gf.DIR_OFFSETS.index((r2 - r, c2 - c))
        edges[(r, c)] = {d: BIG}
    for solve in (lambda g: sssp.sssp_simple(g, (0, 0), 3),
                  lambda g: sssp.sssp_hierarchical(g, (0, 0), [3])):
        g = make_graph(make_disk(), 6, 6, "weighted_directed", edges)
        with pytest.raises(sssp.SsspError):
            solve(g)


def test_large_distances_below_the_limit_are_exact():
    # eight BIG hops stay just below the limit
    d = make_disk()
    g = make_graph(d, 1, 9, "weighted_directed",
                   {(0, c): {gf.E: BIG} for c in range(8)})
    got = sssp.read_distances(d, sssp.sssp_simple(g, (0, 0), 1))
    z_of = gf.z_tables(1, 9)[0]
    assert [got[int(z_of[c])] for c in range(9)] == [c * BIG for c in range(9)]


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 12), cols=st.integers(2, 12), h=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_heap_queue_ties_least_item_first(rows, cols, h, seed):
    # sssp_simple's schedule: every tie is 0, so of the entries on the heap
    # with the least key the least cluster rank comes out first, whatever
    # the push order; zero weights make equal keys common
    rng = random.Random(seed)
    edges = {(r, c): {d: rng.choice((0, 0, 1, 3))
                      for d, (dr, dc) in enumerate(gf.DIR_OFFSETS)
                      if 0 <= r + dr < rows and 0 <= c + dc < cols
                      and rng.random() < 0.5}
             for r in range(rows) for c in range(cols)}
    with pytest.MonkeyPatch.context() as mp:
        events = spy_phase2(mp)
        g = make_graph(make_disk(), rows, cols, "weighted_directed", edges)
        sssp.sssp_simple(g, (rows // 2, cols // 3), h)
    assert all(e[1][1] == 0 for e in events if e[0] == "push")
    for (key, _, rank), heap, _, _ in phase2_pops(events):
        assert (key, rank) == min((k, r) for k, _, r in heap)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(8, 16), cols=st.integers(8, 16), h=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), unit=st.booleans())
def test_key_order_never_reactivates(rows, cols, h, seed, unit):
    # every relaxation adds a non-negative weight to the estimate just
    # finalized, which is at least every estimate finalized before it
    d = make_disk()
    rng = random.Random(seed)
    s = (rng.randrange(rows), rng.randrange(cols))
    if unit:
        g = gf.generate(d, rows, cols, "unit_directed", seed=seed,
                        density=0.6)
        expect = oracle.bfs_distances(g, s)
        tie_rules = (False, True)            # sssp_simple's, BFS's
    else:
        edges = {}
        for r in range(rows):
            for c in range(cols):
                edges[(r, c)] = {
                    dd: rng.choice((0, 0, 1, 2, 7, 40))
                    for dd, (dr, dc) in enumerate(gf.DIR_OFFSETS)
                    if 0 <= r + dr < rows and 0 <= c + dc < cols
                    and rng.random() < 0.5}
        g = make_graph(d, rows, cols, "weighted_directed", edges)
        expect = oracle.dijkstra(g, s)
        tie_rules = (False,)
    for i, latest_first in enumerate(tie_rules):
        stats = sssp.SolveStats()
        got = phase3_by_z(g, sssp.solve_in_key_order(
            g, s, h, latest_first, stats, "dist%d" % i))
        assert stats.reactivations == 0
        for z in range(rows * cols):
            r, c = index_to_coord(rows, cols, z)
            e = expect[(r - 1, c - 1)]
            assert got[z] == (gf.ABSENT if e == float("inf") else e)
