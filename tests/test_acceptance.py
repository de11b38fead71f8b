"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS line on
success; a failure shows up as a normal pytest assertion.
"""

import random
import time
from fractions import Fraction

import numpy as np

from gridscan import (gridfmt as gf, clusters as cl, costmodel as cm, oracle,
                      sssp, bfs, mst, toposort as ts, tfp, euler)
from gridscan.simdisk import SimDisk, SimConfig

from conftest import (coord_to_index, index_to_coord,
                      union_contains_mst_check)

DESK = SimConfig(block_bytes=2 ** 8, memory_bytes=2 ** 16)


def make_disk():
    return SimDisk(DESK)


def coords_of(g, zs):
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    return [divmod(int(cell_of_z[z]), g.cols) for z in zs]


def z_of_map(g):
    return gf.z_tables(g.rows, g.cols)[0]


# -- criterion 1: analytic model reproduces the reference ratios exactly ----

def test_criterion_1_cost_model_exactness():
    t0 = time.perf_counter()
    N, M, B = 2 ** 40, 2 ** 31, 2 ** 17
    expect = [
        ("sssp", 12, Fraction(904, 72)),
        ("bfs", 12, Fraction(828, 9)),
        ("mst_cache_aware", 12, Fraction(992, 64)),
        ("mst_cache_oblivious", 12, Fraction(160, 64)),
        ("toposort", 14, Fraction(84, 9)),
        ("tfp", 13, Fraction(592, 9)),
        ("euler", 15, Fraction(40, 3)),
    ]
    for alg, h, ratio in expect:
        assert cm.volume_model(alg, N, M, B, h).ratio == ratio, alg
    small = cm.volume_model("mst_cache_aware", 2 ** 32, M, B, 12)
    assert small.ratio == Fraction(3, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print("criterion 1 PASS: 7 reference ratios + small-input regime exact "
          "(%.3f s)" % elapsed)


# -- criterion 2: oracle equivalence over seeded instances ------------------

def _instance_shape(rng, i):
    if i % 25 == 24:
        return rng.randint(32, 64), rng.randint(32, 64)
    return rng.randint(2, 16), rng.randint(2, 16)


def _check_sssp(i, rng, rows, cols, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "weighted_dag", seed=i)
    s = (rng.randrange(rows), rng.randrange(cols))
    want = oracle.dijkstra(g, s)
    z_of = z_of_map(g)
    for out in (sssp.sssp_simple(g, s, h, out_name="d%d" % i),
                sssp.sssp_hierarchical(g, s, sssp.build_hierarchy(
                    h, rows, cols), out_name="e%d" % i)):
        got = sssp.read_distances(d, out)
        for (r, c), dv in want.items():
            dv = gf.ABSENT if dv == float("inf") else int(dv)
            assert got[int(z_of[r * cols + c])] == dv


def _check_bfs(i, rng, rows, cols, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "unit_directed", seed=i, density=0.7)
    s = (rng.randrange(rows), rng.randrange(cols))
    out, emitted, _ = bfs.bfs_order(g, s, h)
    got = coords_of(g, bfs.read_order(d, out))
    dist = oracle.bfs_distances(g, s)
    reachable = sorted(v for v, dv in dist.items() if dv != float("inf"))
    assert sorted(got) == reachable
    ds = [dist[v] for v in got]
    assert ds == sorted(ds)


def _check_mst(i, rng, rows, cols, h):
    d = make_disk()
    distinct = i % 2 == 0
    g = gf.generate(d, rows, cols, "weighted_undirected", seed=i,
                    distinct_weights=distinct)
    total, chosen = oracle.mst(g)
    want = {(min(u, v), max(u, v), w) for w, u, v in chosen}
    for k, out in enumerate((mst.mst_cache_aware(g, h, out_name="a%d" % i),
                             mst.mst_cache_oblivious(g, out_name="o%d" % i))):
        edges = mst.mst_edge_coords(d, out)
        assert sum(w for _, _, w in edges) == total
        if distinct:
            got = {(min(u, v), max(u, v), w) for u, v, w in edges}
            assert got == want


def _check_toposort(i, rng, rows, cols, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=i, density=0.7)
    out = ts.toposort(g, h)
    got = coords_of(g, ts.read_order(d, out))
    assert sorted(got) == [(r, c) for r in range(rows) for c in range(cols)]
    pos = {v: k for k, v in enumerate(got)}
    for (r, c), targets in gf.adjacency(g).items():
        for _, nr, nc, _ in targets:
            assert pos[(r, c)] < pos[(nr, nc)]


def _check_tfp(i, rng, rows, cols, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=i, density=0.7)
    name = sorted(oracle.TFP_ORACLES)[i % 3]
    out = tfp.tfp_run(g, oracle.TFP_ORACLES[name], h)
    got = tfp.read_labels(d, out)
    z_of = z_of_map(g)
    for (r, c), lv in oracle.tfp_labels(g, oracle.TFP_ORACLES[name]).items():
        assert got[int(z_of[r * cols + c])] == lv % (1 << 64)


def _check_euler(i, rng, rows, cols, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "tree", seed=i)
    root = (rng.randrange(rows), rng.randrange(cols))
    out = euler.euler_tour(g, h, root=root)
    assert coords_of(g, euler.read_tour(d, out)) == oracle.euler_tour(g, root)


def test_criterion_2_oracle_equivalence():
    families = [("sssp", _check_sssp), ("bfs", _check_bfs),
                ("mst", _check_mst), ("toposort", _check_toposort),
                ("tfp", _check_tfp), ("euler", _check_euler)]
    per_family = 200
    for name, check in families:
        for i in range(per_family):
            rng = random.Random(10_000 * len(name) + i)
            rows, cols = _instance_shape(rng, i)
            check(i, rng, rows, cols, 1 + i % 3)
    print("criterion 2 PASS: %d seeded instances per family match the "
          "in-memory references" % per_family)


# -- criterion 3: per-cluster forests plus cross edges cover an MST ---------

def test_criterion_3_union_contains_mst():
    for i in range(500):
        rng = random.Random(77_000 + i)
        rows, cols = rng.randint(2, 32), rng.randint(2, 32)
        d = make_disk()
        g = gf.generate(d, rows, cols, "weighted_undirected", seed=i,
                        distinct_weights=i % 3 == 0)
        assert union_contains_mst_check(g, rng.randint(1, 3))
    print("criterion 3 PASS: 500 random cluster covers contain a minimum "
          "spanning tree")


# -- criterion 4: transfer volume per vertex stays flat as n grows ----------

def _full_unit_grid(d, side):
    """Deterministic all-E/all-S grid: every vertex reachable from (0,0)."""
    handle = d.open_file("input")
    g = gf.GridGraph(d, handle, gf.Z_ORDER, "unweighted", side, side,
                     side * side)
    g.write_header()
    stream = d.append_stream(handle, g.payload_offset)
    for idx in range(side * side):
        r, c = index_to_coord(side, side, idx)
        r, c = r - 1, c - 1
        mask = (1 << gf.E if c + 1 < side else 0) \
            | (1 << gf.S if r + 1 < side else 0)
        stream.write(gf.encode_record("unweighted", mask, {}))
    stream.close()
    return g


def test_criterion_4_scan_scaling_witness():
    cases = [
        ("sssp", "weighted_dag", 4,
         lambda g, h: sssp.sssp_simple(g, (0, 0), h)),
        ("bfs", None, 4,
         lambda g, h: bfs.bfs_order(g, (0, 0), h)),
        ("mst_cache_aware", "weighted_undirected", 4,
         lambda g, h: mst.mst_cache_aware(g, h)),
        ("mst_cache_oblivious", "weighted_undirected", 4,
         lambda g, h: mst.mst_cache_oblivious(g)),
        ("toposort", "planar_dag", 5, lambda g, h: ts.toposort(g, h)),
        ("tfp", "planar_dag", 5,
         lambda g, h: tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], h)),
        ("euler", "tree", 4, lambda g, h: euler.euler_tour(g, h)),
    ]
    for alg, model, h, run in cases:
        ratios = []
        for side in (32, 64, 128, 256):        # n = 2^10 .. 2^16
            d = make_disk()
            if model is None:
                g = _full_unit_grid(d, side)
            else:
                g = gf.generate(d, side, side, model, seed=1, density=0.6)
            d.reset_counters()
            run(g, h)
            ratios.append(
                d.counters_snapshot().bytes_transferred / (side * side))
        assert max(ratios) <= 2 * min(ratios), (alg, ratios)
        predicted = float(cm.volume_model(
            alg, 1, DESK.memory_bytes, DESK.block_bytes, h).total)
        assert max(ratios) <= 3 * predicted, (alg, ratios, predicted)
    print("criterion 4 PASS: bytes/vertex flat within 2x across n=2^10..2^16 "
          "and within 3x of the model for all 7 algorithms")


# -- criterion 5: the cache-oblivious MST never seeks on input or output ----

def test_criterion_5_cache_oblivious_witness():
    for side, seed in ((8, 0), (16, 1), (32, 2), (64, 3), (128, 4)):
        d = make_disk()
        g = gf.generate(d, side, side, "weighted_undirected", seed=seed)
        d.reset_counters()
        out = mst.mst_cache_oblivious(g)
        assert d.file_counters(g.handle).random_blocks == 0, side
        assert d.file_counters(out).random_blocks == 0, side
    print("criterion 5 PASS: zero random-classified accesses to input and "
          "output at 5 sizes")


# -- criterion 6: geometry invariants and contraction round trips -----------

def test_criterion_6_format_and_geometry():
    shapes = 0
    for rows in range(1, 65):
        for cols in range(1, 65):
            z_of, cell_of_z = gf.z_tables(rows, cols)
            n = rows * cols
            assert np.array_equal(np.sort(z_of), np.arange(n))
            assert np.array_equal(cell_of_z[z_of], np.arange(n))
            zgrid = z_of.reshape(rows, cols)
            hmax = max(rows - 1, cols - 1).bit_length()
            for h in range(1, hmax + 1):
                ccols = -(-cols // 2 ** h)
                rr = np.arange(rows)[:, None] >> h
                cc = np.arange(cols)[None, :] >> h
                cid = (rr * ccols + cc).ravel()
                zf = zgrid.ravel()
                lo = np.full(cid.max() + 1, n, dtype=np.int64)
                hi = np.zeros(cid.max() + 1, dtype=np.int64)
                np.minimum.at(lo, cid, zf)
                np.maximum.at(hi, cid, zf)
                cnt = np.bincount(cid)
                # contiguity: each cluster's z-range is exactly its size
                assert np.array_equal(hi - lo + 1, cnt), (rows, cols, h)
            shapes += 1
    # index conversions agree with the tables on a small exhaustive slice
    for rows, cols in ((1, 1), (5, 3), (8, 8), (16, 11)):
        z_of = gf.z_tables(rows, cols)[0]
        for r in range(rows):
            for c in range(cols):
                z = coord_to_index(rows, cols, r + 1, c + 1)
                assert z == int(z_of[r * cols + c])
                assert index_to_coord(rows, cols, z) == (r + 1, c + 1)

    for i in range(1000):
        rng = random.Random(i)
        nvert = rng.randrange(2, 65)
        ws = rng.sample(range(1, 10 * nvert + 10), nvert - 1)
        t = []
        for v in range(1, nvert):
            u = rng.randrange(v)
            t.append((min(u, v), max(u, v), ws[v - 1], False))
        keep = set(rng.sample(range(nvert), rng.randrange(1, nvert)))
        ct = mst.prune_and_contract(t, keep)
        got = mst.expand(ct)
        norm = {(min(u, v), max(u, v), w, f) for u, v, w, f in got}
        assert len(got) == len(t) and norm == set(t)
    print("criterion 6 PASS: bijection + cluster contiguity on %d shapes, "
          "1000 contraction round trips" % shapes)
