import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from gridscan import cli, gridfmt as gf, oracle, mst
from gridscan import costmodel as cm

from conftest import grid4_edges, make_disk, make_graph


def random_tree(rng, n):
    """Random labelled tree as (u, v, w, False) edges with distinct weights."""
    ws = rng.sample(range(1, 10 * n + 10), max(n - 1, 0))
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        a, b = min(u, v), max(u, v)
        edges.append((a, b, ws[v - 1], False))
    return edges


def norm_set(edges):
    return {(min(u, v), max(u, v), w, f) for u, v, w, f in edges}


@pytest.mark.parametrize("seed", range(10))
def test_contract_expand_round_trip(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 64)
    t = random_tree(rng, n)
    keep = set(rng.sample(range(n), rng.randrange(1, n)))
    ct = mst.prune_and_contract(t, keep)
    assert norm_set(mst.expand(ct)) == norm_set(t)
    assert len(mst.expand(ct)) == len(t)


def test_contract_path_to_single_rep():
    t = [(i, i + 1, 10 + i, False) for i in range(5)]
    ct = mst.prune_and_contract(t, {0, 5})
    assert ct.dead_ends == []
    assert len(ct.chains) == 1
    ch = ct.chains[0]
    assert ch.rep == (0, 5, 14)
    assert ch.heavy_idx == 4
    assert ct.kept_edges == [(0, 5, 14, True)]


def test_contract_dead_end_branch():
    # star at 1 with kept spine 0-1-2, dangling 1-3-4
    t = [(0, 1, 1, False), (1, 2, 2, False), (1, 3, 3, False), (3, 4, 4, False)]
    ct = mst.prune_and_contract(t, {0, 1, 2})
    assert norm_set(ct.dead_ends) == {(1, 3, 3, False), (3, 4, 4, False)}
    assert ct.dead_ends[0] == (3, 4, 4, False)      # leaf removed first
    assert ct.chains == []
    assert norm_set(ct.kept_edges) == {(0, 1, 1, False), (1, 2, 2, False)}


def test_contract_keeps_branching_interior_vertex():
    # vertex 1 has degree 3 and is not kept, so it must survive contraction
    t = [(0, 1, 1, False), (1, 2, 2, False), (1, 3, 3, False)]
    ct = mst.prune_and_contract(t, {0, 2, 3})
    assert len(ct.kept_edges) == 3
    assert ct.chains == [] and ct.dead_ends == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 40))
def test_contract_expand_round_trip_property(seed, n):
    rng = random.Random(seed)
    t = random_tree(rng, n)
    keep = set(rng.sample(range(n), rng.randrange(1, n)))
    assert norm_set(mst.expand(mst.prune_and_contract(t, keep))) == norm_set(t)


def random_forest(rng, n):
    """A random tree on n vertices with about a third of its edges cut, and
    random representative flags."""
    return [(u, v, w, rng.random() < 0.3)
            for u, v, w, _ in random_tree(rng, n) if rng.random() < 0.7]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 40))
def test_all_kept_forest_matches_general_path(seed, n):
    rng = random.Random(seed)
    forest = random_forest(rng, n)
    keep = set(range(n))
    fast = mst.prune_and_contract(forest, keep)
    # an extra edge between two new, non-kept vertices forces the general
    # path; it only adds that edge as a dead end
    extra = (n, n + 1, 1, False)
    general = mst.prune_and_contract(forest + [extra], keep)
    assert general.dead_ends == [extra]
    assert fast.kept_edges == general.kept_edges == forest
    assert fast.chains == general.chains == []
    assert fast.dead_ends == []


EDGE_REF = struct.Struct("<IIQB")


def ref_run(a, b, edges):
    """Two u32 counts, then one ``<IIQ?`` record per edge."""
    return struct.pack("<II", a, b) + b"".join(
        EDGE_REF.pack(u, v, w, 1 if f else 0) for u, v, w, f in edges)


cells = st.integers(0, 2 ** 32 - 1)
stack_edge = st.tuples(cells, cells, st.integers(0, 2 ** 64 - 2),
                       st.booleans())
stack_edges = st.lists(stack_edge, max_size=6)


@given(stack_edges, stack_edges)
def test_connection_record_bytes(tree, outs):
    raw = mst._pack_connections(tree, outs)
    assert raw == ref_run(len(tree), len(outs), tree + outs)
    assert mst._unpack_connections(raw) == (tree, outs)


@st.composite
def walk_records(draw):
    """(cols, dead ends, chains) on a rows x cols grid: every edge a step to
    a grid neighbour or a representative to any cell, each chain a walk of
    at least two edges, as contraction makes them."""
    cols = draw(st.sampled_from([1, 2, 3, 7, 256]))
    rows = draw(st.integers(1, 9))
    cell = st.integers(0, rows * cols - 1)
    weight = st.integers(0, 2 ** draw(st.integers(0, 64)) - 1)

    def edge(u):
        r, c = divmod(u, cols)
        nbrs = [(r + dr) * cols + c + dc for dr, dc in gf.DIR_OFFSETS
                if 0 <= r + dr < rows and 0 <= c + dc < cols]
        if not nbrs or draw(st.booleans()):
            return (u, draw(cell), draw(weight), True)
        return (u, draw(st.sampled_from(nbrs)), draw(weight), False)

    dead = [edge(draw(cell)) for _ in range(draw(st.integers(0, 5)))]
    chs = []
    for _ in range(draw(st.integers(0, 4))):
        walk = [edge(draw(cell))]
        for _ in range(draw(st.integers(1, 5))):
            walk.append(edge(walk[-1][1]))
        maxw = max(e[2] for e in walk)
        heavy = next(k for k, e in enumerate(walk) if e[2] == maxw)
        chs.append(mst.Chain(walk, heavy, (walk[0][0], walk[-1][1], maxw)))
    return cols, dead, chs


@settings(max_examples=300, deadline=None)
@given(walk_records())
# at two columns the id differences of E and SW are both +1, and a
# representative may join two neighbours
@example((2, [(0, 1, 5, False), (1, 2, 6, False), (2, 3, 7, True)], []))
def test_expansion_record_bytes(record):
    cols, dead, chs = record
    raw = mst._pack_expansions(mst.ContractedTree([], dead, chs), cols)
    back = mst._unpack_expansions(raw, cols)
    assert back.dead_ends == dead and back.chains == chs
    edges = dead + [e for ch in chs for e in ch.edges]
    wb = max(1, (max([e[2] for e in edges], default=0).bit_length() + 7) // 8)
    assert raw[8] == wb
    at = 9 + 4 * len(dead) + 12 * len(chs)
    assert raw[at:at + len(edges)] == bytes(
        [8 if f else gf.DIR_OFFSETS.index((v // cols - u // cols,
                                           v % cols - u % cols))
         for u, v, _, f in edges])
    assert len(raw) == (at + (1 + wb) * len(edges)
                        + 4 * sum(e[3] for e in edges))
    # never longer than the 17-byte edge layout, but for the header's
    # width byte when no edge saves one: no chain, and no dead end or only
    # representatives with an 8-byte weight
    ref = len(ref_run(len(dead), len(chs), dead)) + sum(
        len(ref_run(len(ch.edges), ch.heavy_idx, ch.edges)) for ch in chs)
    saves_none = not chs and all(f and wb == 8 for _, _, _, f in dead)
    assert len(raw) == ref + 1 if saves_none else len(raw) <= ref


def regions_by_side(rows, cols):
    """Side of every quadtree region of the padded square that meets the
    grid, the whole square included."""
    sides = []

    def visit(r0, c0, size):
        if r0 < rows and c0 < cols:
            sides.append(size)
            if size > 1:
                half = size // 2
                for r, c in ((r0, c0), (r0, c0 + half), (r0 + half, c0),
                             (r0 + half, c0 + half)):
                    visit(r, c, half)

    side = 1
    while side < max(rows, cols):
        side *= 2
    visit(0, 0, side)
    return sides


@pytest.mark.parametrize("rows,cols", [(16, 16), (13, 7)])
def test_stack_pushes_per_region(monkeypatch, rows, cols):
    events = []
    push, pop = mst.FileStack.push, mst.FileStack.pop

    def spy_push(self, record):
        events.append((self.handle.name, "push"))
        return push(self, record)

    def spy_pop(self):
        events.append((self.handle.name, "pop"))
        return pop(self)

    monkeypatch.setattr(mst.FileStack, "push", spy_push)
    monkeypatch.setattr(mst.FileStack, "pop", spy_pop)
    d = make_disk()
    g = gf.generate(d, rows, cols, "weighted_undirected", seed=3,
                    density=0.6)
    mst.mst_cache_oblivious(g)
    # the top-down pass pops the root's expansions record before any push
    upward = events[:events.index(("mst.out.expn", "pop"))]
    sides = regions_by_side(rows, cols)
    assert events.count(("mst.out.expn", "push")) == sum(
        s >= 4 for s in sides)
    assert upward.count(("mst.out.conn", "push")) == sum(
        s >= 2 for s in sides)


def two_by_two(weights):
    d = make_disk()
    g = make_graph(d, 2, 2, "weighted_undirected",
                   {(0, 0): {gf.E: weights[0], gf.S: weights[2]},
                    (0, 1): {gf.S: weights[1]},
                    (1, 0): {gf.E: weights[3]}})
    return d, g


def test_two_by_two_aware():
    d, g = two_by_two([1, 2, 3, 4])
    out = mst.mst_cache_aware(g, 1)
    got = mst.read_mst(d, out)
    assert len(got) == 3
    assert sum(w for _, _, w in got) == 6


def test_two_by_two_oblivious():
    d, g = two_by_two([1, 2, 3, 4])
    out = mst.mst_cache_oblivious(g)
    got = mst.read_mst(d, out)
    assert len(got) == 3
    assert sum(w for _, _, w in got) == 6


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("side", [32, 64, 128])
def test_oblivious_within_model_at_m_equal_b_squared(side, seed):
    # make_disk's machine, B = 2^6 and M = 2^12, is the paper's proviso
    # M = B^2 at its smallest
    disk = make_disk()
    cfg = disk.config
    assert cfg.memory_bytes == cfg.block_bytes ** 2
    g = gf.generate(disk, side, side, "weighted_undirected", seed=seed,
                    density=0.6)
    disk.reset_counters()
    mst.mst_cache_oblivious(g)
    moved = disk.counters_snapshot().bytes_transferred
    model = cm.volume_model("mst_cache_oblivious", g.n, cfg.memory_bytes,
                            cfg.block_bytes, 0)
    assert moved <= model.predicted_bytes, (moved / g.n, float(model.total))


def oblivious_moved_and_model(disk, side, max_weight):
    """Bytes a seed-1 ``mst_cache_oblivious`` run moves on ``disk``, and the
    bytes its model predicts there."""
    g = gf.generate(disk, side, side, "weighted_undirected", seed=1,
                    density=0.6, max_weight=max_weight)
    disk.reset_counters()
    mst.mst_cache_oblivious(g)
    cfg = disk.config
    model = cm.volume_model("mst_cache_oblivious", g.n, cfg.memory_bytes,
                            cfg.block_bytes, 0)
    return disk.counters_snapshot().bytes_transferred, model.predicted_bytes


def test_oblivious_within_model_with_full_width_weights():
    # weights up to 2^62 take 8 bytes each in every expansions record; on
    # make_disk's machine, M = B^2, this is the heaviest stack traffic
    moved, model = oblivious_moved_and_model(make_disk(), 256, 2 ** 62)
    assert moved <= model, moved / 256 ** 2


@pytest.mark.parametrize("c", [1, 4, 16])
def test_oblivious_within_model_across_tall_caches(c):
    # M = c * B^2 at B = 2^6; the stacks take whatever the LRU cache holds
    moved, model = oblivious_moved_and_model(make_disk(64, c * 64), 128,
                                             2 ** 62)
    assert moved <= model, moved / model


def test_oblivious_stack_requests_do_not_depend_on_m_or_b(monkeypatch):
    events = []
    push, pop = mst.FileStack.push, mst.FileStack.pop

    def spy_push(self, record):
        events.append((self.handle.name, "push", len(record)))
        return push(self, record)

    def spy_pop(self):
        record = pop(self)
        events.append((self.handle.name, "pop", len(record)))
        return record

    monkeypatch.setattr(mst.FileStack, "push", spy_push)
    monkeypatch.setattr(mst.FileStack, "pop", spy_pop)
    runs = []
    for block in (2 ** 6, 2 ** 8):          # M = B^2: 2^12, then 2^16
        events.clear()
        d = make_disk(block)
        g = gf.generate(d, 64, 64, "weighted_undirected", seed=1,
                        density=0.6)
        mst.mst_cache_oblivious(g)
        runs.append(list(events))
    assert runs[0] and runs[0] == runs[1]


def oracle_edge_set(g):
    _, chosen = oracle.mst(g)
    return {(min(u, v), max(u, v), w) for w, u, v in chosen}


def engine_edge_set(d, handle):
    return {(min(u, v), max(u, v), w)
            for u, v, w in mst.mst_edge_coords(d, handle)}


@pytest.mark.parametrize("rows,cols,seed,h", [
    (8, 8, 0, 1), (16, 16, 1, 2), (32, 32, 2, 2), (64, 64, 3, 3),
    (13, 21, 4, 2), (1, 17, 5, 1), (9, 3, 6, 3),
])
def test_aware_matches_oracle_distinct_weights(rows, cols, seed, h):
    d = make_disk()
    g = gf.generate(d, rows, cols, "weighted_undirected", seed=seed,
                    distinct_weights=True)
    out = mst.mst_cache_aware(g, h)
    assert engine_edge_set(d, out) == oracle_edge_set(g)


@pytest.mark.parametrize("rows,cols,seed", [
    (8, 8, 10), (16, 16, 11), (32, 32, 12), (64, 64, 13),
    (13, 21, 14), (1, 17, 15), (9, 3, 16), (5, 5, 17),
])
def test_oblivious_matches_oracle_distinct_weights(rows, cols, seed):
    d = make_disk()
    g = gf.generate(d, rows, cols, "weighted_undirected", seed=seed,
                    distinct_weights=True)
    out = mst.mst_cache_oblivious(g)
    assert engine_edge_set(d, out) == oracle_edge_set(g)


@pytest.mark.parametrize("seed", range(8))
def test_variants_agree_on_weight_with_ties(seed):
    d = make_disk()
    g = gf.generate(d, 16, 16, "weighted_undirected", seed=seed + 40,
                    max_weight=4)
    w_oracle, _ = oracle.mst(g)
    out_a = mst.mst_cache_aware(g, 2, out_name="a.mst")
    out_o = mst.mst_cache_oblivious(g, out_name="o.mst")
    wa = sum(w for _, _, w in mst.read_mst(d, out_a))
    wo = sum(w for _, _, w in mst.read_mst(d, out_o))
    assert wa == w_oracle == wo
    for out in (out_a, out_o):
        uf = oracle.UnionFind()
        joins = sum(uf.union(u, v)
                    for u, v, _ in mst.mst_edge_coords(d, out))
        assert joins == g.n - 1


def test_oblivious_no_random_input_output_access():
    d = make_disk()
    g = gf.generate(d, 32, 32, "weighted_undirected", seed=3,
                    distinct_weights=True)
    d.reset_counters()
    out = mst.mst_cache_oblivious(g)
    for handle in (g.handle, out):
        fc = d.file_counters(handle)
        assert fc.random_blocks == 0, handle.name


def test_aware_single_cluster_cover():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_undirected", seed=7,
                    distinct_weights=True)
    out = mst.mst_cache_aware(g, 3)       # one cluster spans the whole grid
    assert engine_edge_set(d, out) == oracle_edge_set(g)


def test_disconnected_rejected():
    d = make_disk()
    # two cells, no edge between them
    g = make_graph(d, 1, 2, "weighted_undirected", {})
    with pytest.raises(mst.MstError):
        mst.mst_cache_aware(g, 1)
    d2 = make_disk()
    g2 = make_graph(d2, 1, 2, "weighted_undirected", {})
    with pytest.raises(mst.MstError):
        mst.mst_cache_oblivious(g2)


@pytest.mark.parametrize("h", [2, 3])
def test_cluster_interior_component_rejected(h):
    # a 4x4 grid is one cluster at h = 2 and at h = 3: a connected ring and a
    # connected 2x2 interior with no edge between them
    ring = {(0, c): {gf.E: 1 + c} for c in range(3)}
    ring.update({(3, c): {gf.E: 4 + c} for c in range(3)})
    for r in range(3):
        ring.setdefault((r, 0), {})[gf.S] = 7 + r
        ring.setdefault((r, 3), {})[gf.S] = 10 + r
    inner = {(1, 1): {gf.E: 13, gf.S: 14}, (1, 2): {gf.S: 15},
             (2, 1): {gf.E: 16}}
    d = make_disk()
    g = make_graph(d, 4, 4, "weighted_undirected", {**ring, **inner})
    with pytest.raises(mst.MstError, match="interior component"):
        mst.mst_cache_aware(g, h)


def test_single_vertex():
    d = make_disk()
    g = make_graph(d, 1, 1, "weighted_undirected", {})
    out = mst.mst_cache_oblivious(g)
    assert mst.read_mst(d, out) == []


@pytest.mark.parametrize("seed,h", [(0, 1), (1, 2), (2, 3), (3, 1), (4, 2)])
def test_union_contains_mst(seed, h):
    d = make_disk()
    g = gf.generate(d, 24, 24, "weighted_undirected", seed=seed + 70)
    assert mst.union_contains_mst_check(g, h)


def test_union_contains_mst_trivial_cover():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_undirected", seed=2)
    assert mst.union_contains_mst_check(g, 3)


def with_off_grid_arc(disk, rows, cols, cell, d):
    """A connected ``weighted_undirected`` grid (every E and S edge) whose
    ``cell`` also stores an arc in direction ``d`` that leaves the grid."""
    edges = grid4_edges(rows, cols, both_dirs=False)
    edges[cell] = {**edges[cell], d: 5}
    return make_graph(disk, rows, cols, "weighted_undirected", edges)


@pytest.mark.parametrize("rows,cols,cell,d", [
    (4, 4, (0, 0), gf.SW), (3, 3, (2, 0), gf.S), (3, 3, (2, 0), gf.SE),
    (3, 3, (0, 2), gf.E), (4, 4, (0, 3), gf.E),
])
def test_off_grid_arc_rejected(rows, cols, cell, d):
    message = r"edge leaves the grid at \(%d,%d\)" % cell
    g = with_off_grid_arc(make_disk(), rows, cols, cell, d)
    with pytest.raises(gf.FormatError, match=message):
        mst.mst_cache_oblivious(g)
    g = with_off_grid_arc(make_disk(), rows, cols, cell, d)
    with pytest.raises(gf.FormatError, match=message):
        mst.mst_cache_aware(g, 1)


def test_cli_off_grid_arc_exits_2(monkeypatch, capsys):
    def off_grid(disk, rows, cols, *args, **kwargs):
        return with_off_grid_arc(disk, rows, cols, (0, 3), gf.E)

    monkeypatch.setattr(gf, "generate", off_grid)
    assert cli.run(["mst", "--variant", "oblivious",
                    "--rows", "4", "--cols", "4"]) == 2
    assert "edge leaves the grid at (0,3)" in capsys.readouterr().err
