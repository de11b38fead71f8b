import numpy as np
import pytest

from gridscan import gridfmt as gf, clusters as cl, oracle, tfp, toposort as ts
from gridscan import costmodel as cm

from conftest import arcs_by_vertex, make_disk, make_graph


def positions(d, out, g):
    order = ts.read_order(d, out)
    assert sorted(order) == list(range(g.n))
    return {z: i for i, z in enumerate(order)}, order


def assert_valid(d, out, g):
    pos, _ = positions(d, out, g)
    z_of = gf.z_tables(g.rows, g.cols)[0]
    adj = gf.adjacency(g)
    for (r, c), nbrs in adj.items():
        zu = int(z_of[r * g.cols + c])
        for _, nr, nc, _ in nbrs:
            zv = int(z_of[nr * g.cols + nc])
            assert pos[zu] < pos[zv], ((r, c), (nr, nc))


def test_separator_numbering_forward():
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=0, density=0.6)
    gp = ts.build_reach_graph(g, 2)
    rtab = ts.topo_number_separator(gp)
    scheme = gp.scheme
    assert sorted(rtab) == list(range(scheme.total_boundary))
    for u in range(scheme.total_boundary):
        for t in gp.decode_reach(u, gp.read_record(u)):
            assert rtab[u] < rtab[t]


def test_numbering_single_edge():
    d = make_disk()
    g = make_graph(d, 1, 2, "unweighted", {(0, 0): {gf.E: 1}})
    gp = ts.build_reach_graph(g, 0)
    rtab = ts.topo_number_separator(gp)
    scheme = gp.scheme
    assert rtab[scheme.h_number(0, 0)] == 0
    assert rtab[scheme.h_number(0, 1)] == 1


NUMBERING_RUNS = pytest.mark.parametrize("run", [
    lambda g: ts.toposort(g, 2),
    lambda g: tfp.tfp_run(g, oracle.oracle_indegree, 2),
], ids=["toposort", "tfp_run"])


@NUMBERING_RUNS
def test_in_degrees_stay_in_memory(run):
    # the numbering counts down the table the build counted; no file holds it
    d = make_disk()
    run(gf.generate(d, 16, 16, "planar_dag", seed=1, density=0.6))
    assert [n for n in d._names if n.endswith(".indeg")] == []


@NUMBERING_RUNS
def test_kahn_queue_stays_in_memory(run):
    # the queue is the rank order the numbering returns; no file holds it
    d = make_disk()
    run(gf.generate(d, 16, 16, "planar_dag", seed=1, density=0.6))
    assert [n for n in d._names if n.endswith(".zqueue")] == []


@pytest.mark.parametrize("run", [
    lambda g, h: ts.toposort(g, h),
    lambda g, h: tfp.tfp_run(g, oracle.oracle_indegree, h),
], ids=["toposort", "tfp_run"])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("rows,cols", [(13, 7), (32, 32)])
def test_reach_pipelines_read_input_twice(run, h, rows, cols):
    # the reachability build reads the input once and the chunk pass once;
    # the cross-cluster in-arcs come from the build, not from a third scan
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=1, density=0.6)
    d.reset_counters()
    run(g, h)
    blk = d.config.block_bytes
    end = g.payload_offset + g.n * g.record_size
    k = (end - 1) // blk - g.payload_offset // blk + 1
    assert d.file_counters(g.handle).blocks_read == 2 * k


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("rows,cols,seed", [(13, 7, 1), (32, 32, 2),
                                            (20, 37, 3)])
def test_cross_in_masks(h, rows, cols, seed):
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=seed, density=0.6)
    gp = ts.build_reach_graph(g, h)
    scheme = gp.scheme
    want = [0] * scheme.total_boundary
    for (r, c), arcs in gf.adjacency(g).items():
        for d_, nr, nc, _ in arcs:
            if scheme.rank_of(r, c) != scheme.rank_of(nr, nc):
                want[scheme.h_number(nr, nc)] |= 1 << gf.opposite(d_)
    assert gp.cross_in.dtype == np.uint8
    assert gp.cross_in.tolist() == want
    assert any(want)


@pytest.mark.parametrize("side", [64, 128, 256])
def test_toposort_within_model_at_m_equal_b_squared(side):
    # make_disk's machine, B = 2^6 and M = 2^12, is the paper's proviso
    # M = B^2 at its smallest; h is the CLI's default there
    disk = make_disk()
    cfg = disk.config
    assert cfg.memory_bytes == cfg.block_bytes ** 2
    h = cm.default_h("toposort", cfg.memory_bytes)
    assert h == 5
    g = gf.generate(disk, side, side, "planar_dag", seed=1, density=0.6)
    disk.reset_counters()
    ts.toposort(g, h)
    moved = disk.counters_snapshot().bytes_transferred
    model = cm.volume_model("toposort", g.n, cfg.memory_bytes,
                            cfg.block_bytes, h)
    assert moved <= model.predicted_bytes, (moved / g.n, float(model.total))


@pytest.mark.parametrize("side", [64, 128, 256])
@pytest.mark.parametrize("mem_blocks,density", [(2 ** 6, 1.0), (2 ** 8, 0.6),
                                                (2 ** 8, 1.0)])
def test_toposort_within_model_on_small_machines(mem_blocks, density, side):
    # B = 2^6 with M = 2^12 (h = 5) or M = 2^14 (h = 6), the CLI's default
    # h; the records in the chunk file are priced at their ids alone
    disk = make_disk(mem_blocks=mem_blocks)
    cfg = disk.config
    h = cm.default_h("toposort", cfg.memory_bytes)
    assert h == {2 ** 6: 5, 2 ** 8: 6}[mem_blocks]
    g = gf.generate(disk, side, side, "planar_dag", seed=1, density=density)
    disk.reset_counters()
    ts.toposort(g, h)
    moved = disk.counters_snapshot().bytes_transferred
    model = cm.volume_model("toposort", g.n, cfg.memory_bytes,
                            cfg.block_bytes, h)
    assert moved <= model.predicted_bytes, (moved / g.n, float(model.total))


def test_chunk_rounds_examples():
    # boundary u -> interior m -> boundary v gives m the P-round value r(u)
    d = make_disk()
    g = make_graph(d, 4, 4, "unweighted",
                   {(1, 0): {gf.E: 1}, (1, 1): {gf.E: 1}})
    scheme = cl.ClusterScheme(4, 4, 2)
    q = next(cl.iterate_clusters(g, scheme))
    asg = ts.assign_chunk_numbers(q, list(range(len(q.boundary))))
    assert asg.chunk[q.local(1, 1)] == q.boundary.index(q.local(1, 0))


def test_chunk_successor_round():
    # interior (1,1) -> boundary (0,1): no numbered predecessor, S-round
    d = make_disk()
    g = make_graph(d, 4, 4, "unweighted", {(1, 1): {gf.N: 1}})
    scheme = cl.ClusterScheme(4, 4, 2)
    q = next(cl.iterate_clusters(g, scheme))
    asg = ts.assign_chunk_numbers(q, list(range(len(q.boundary))))
    assert asg.chunk[q.local(1, 1)] == q.boundary.index(q.local(0, 1))


def test_chunk_leftover_component():
    # 4x4 cluster, no edges at all: both interior cells are left-overs and
    # inherit their left neighbours' chunks
    d = make_disk()
    g = make_graph(d, 4, 4, "unweighted", {})
    scheme = cl.ClusterScheme(4, 4, 2)
    q = next(cl.iterate_clusters(g, scheme))
    asg = ts.assign_chunk_numbers(q, list(range(len(q.boundary))))
    assert asg.leftover == 4
    assert asg.chunk[q.local(1, 1)] == q.boundary.index(q.local(1, 0))


def test_chunk_monotone_along_edges():
    d = make_disk()
    g = gf.generate(d, 16, 16, "planar_dag", seed=3, density=0.7)
    gp = ts.build_reach_graph(g, 2)
    rtab = ts.topo_number_separator(gp)
    scheme = gp.scheme
    for rank, q in enumerate(cl.iterate_clusters(g, scheme)):
        asg = ts.assign_chunk_numbers(
            q, rtab[scheme.bases[rank]:scheme.bases[rank + 1]].tolist())
        for v, arcs in enumerate(arcs_by_vertex(q)):
            for _, u, _ in arcs:
                assert asg.chunk[v] <= asg.chunk[u]


def test_row_path_left_to_right():
    d = make_disk()
    g = make_graph(d, 1, 8, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(7)})
    out = ts.toposort(g, 1)
    _, order = positions(d, out, g)
    z_of = gf.z_tables(1, 8)[0]
    assert order == [int(z_of[c]) for c in range(8)]


def test_edgeless_graph_valid():
    d = make_disk()
    g = make_graph(d, 8, 8, "unweighted", {})
    out = ts.toposort(g, 2)
    assert_valid(d, out, g)


@pytest.mark.parametrize("rows,cols,seed,h", [
    (16, 16, 0, 1), (16, 16, 1, 2), (32, 32, 2, 2), (32, 32, 3, 3),
    (64, 64, 4, 1), (64, 64, 5, 2), (64, 64, 6, 3), (13, 29, 7, 2),
    (1, 17, 8, 1), (9, 3, 9, 3),
])
def test_full_edge_sweep(rows, cols, seed, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=seed, density=0.65)
    out = ts.toposort(g, h)
    assert_valid(d, out, g)


def test_matches_oracle_semantics():
    # both outputs must be valid; validate engine output against oracle adj
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=11, density=0.6)
    ref = oracle.toposort(g)
    assert sorted(ref) == sorted((r, c) for r in range(32) for c in range(32))
    out = ts.toposort(g, 2)
    assert_valid(d, out, g)


def test_cyclic_input_rejected():
    d = make_disk()
    g = make_graph(d, 2, 2, "unweighted",
                   {(0, 0): {gf.E: 1}, (0, 1): {gf.W: 1}})
    with pytest.raises(ts.ToposortError):
        ts.toposort(g, 1)


def test_cross_cluster_cycle_rejected():
    d = make_disk()
    g = make_graph(d, 2, 4, "unweighted",
                   {(0, 1): {gf.E: 1}, (0, 2): {gf.W: 1}})
    with pytest.raises(ts.ToposortError):
        ts.toposort(g, 1)


def test_stats_round_and_chunk_counts():
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=13, density=0.6)
    stats = ts.TopoStats()
    ts.toposort(g, 2, stats=stats)
    assert stats.chunk_count >= 1
    assert stats.rounds_max <= 16       # bounded by cluster vertex count


def full_rounds_reference(q, ranks):
    """Chunk assignment by full-order rounds: every half-round walks all of
    the cluster's vertices in (reverse) topological order."""
    n, wid = q.n, q.wid
    pred = [[] for _ in range(n)]
    succ = [[] for _ in range(n)]
    for v, arcs in enumerate(arcs_by_vertex(q)):
        for _, u, _ in arcs:
            succ[v].append(u)
            pred[u].append(v)
    order = ts._topo_order(q)
    chunk = [None] * n
    for v, rank in zip(q.boundary, ranks):
        chunk[v] = rank
    rounds = 0
    remaining = sum(1 for x in chunk if x is None)
    while remaining:
        progressed = False
        for v in order:
            if chunk[v] is None:
                best = [chunk[u] for u in pred[v] if chunk[u] is not None]
                if best:
                    chunk[v] = max(best)
                    remaining -= 1
                    progressed = True
        for v in reversed(order):
            if chunk[v] is None:
                best = [chunk[u] for u in succ[v] if chunk[u] is not None]
                if best:
                    chunk[v] = min(best)
                    remaining -= 1
                    progressed = True
        rounds += 1
        if not progressed:
            break
    leftover = remaining
    if remaining:
        comp, comps = {}, []
        for v in range(n):
            if chunk[v] is not None or v in comp:
                continue
            stack, cells = [v], []
            comp[v] = len(comps)
            while stack:
                x = stack.pop()
                cells.append(x)
                xr, xc = divmod(x, wid)
                for dr, dc in gf.DIR_OFFSETS:
                    yr, yc = xr + dr, xc + dc
                    if 0 <= yr < q.hgt and 0 <= yc < wid:
                        y = yr * wid + yc
                        if chunk[y] is None and y not in comp:
                            comp[y] = len(comps)
                            stack.append(y)
            comps.append(cells)
        for cells in sorted(comps, key=lambda cs: min(c % wid for c in cs)):
            v = min(cells, key=lambda c: (c % wid, c // wid))
            for x in cells:
                chunk[x] = chunk[v - 1]
    members = {}
    for v in order:
        members.setdefault(chunk[v], []).append(v)
    return chunk, members, rounds, leftover


@pytest.mark.parametrize("rows,cols,hs", [
    (16, 16, (1, 2, 3, 4)), (24, 40, (1, 2, 3, 4)), (64, 64, (1, 2, 3, 4, 5)),
])
@pytest.mark.parametrize("density", [0.3, 0.6, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frontier_rounds_match_full_rounds(rows, cols, hs, density, seed):
    # each half-round visits only its frontier, yet numbers every cluster
    # exactly as rounds over all of its vertices do
    d = make_disk()
    g = gf.generate(d, rows, cols, "planar_dag", seed=seed, density=density)
    for h in hs:
        if h == 5 and (seed, density) != (1, 0.6):
            continue
        gp = ts.build_reach_graph(g, h, "reach%d" % h)
        rtab = ts.topo_number_separator(gp)
        scheme = gp.scheme
        for q in cl.iterate_clusters(g, scheme):
            ranks = rtab[scheme.bases[q.rank]:scheme.bases[q.rank + 1]]
            asg = ts.assign_chunk_numbers(q, ranks.tolist())
            ref = full_rounds_reference(q, ranks.tolist())
            assert (asg.chunk, asg.members, asg.rounds, asg.leftover) == ref
