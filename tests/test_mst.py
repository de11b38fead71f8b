import hashlib
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from gridscan import cli, gridfmt as gf, oracle, mst
from gridscan import costmodel as cm

from conftest import (grid4_edges, make_disk, make_graph,
                      union_contains_mst_check)


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
    split = events.index(("mst.out.expn", "pop"))
    upward, downward = events[:split], events[split:]
    sides = regions_by_side(rows, cols)
    assert events.count(("mst.out.expn", "push")) == sum(
        s >= 4 for s in sides)
    # regions of side 4 are the base case: smaller ones push nothing
    assert upward.count(("mst.out.conn", "push")) == sum(
        s >= 4 for s in sides)
    # top-down, a region of side 8 or more pushes one part per child
    # quadrant; sides[0] is the root, the only region that is no child
    assert downward.count(("mst.out.conn", "push")) == sum(
        s >= 4 for s in sides[1:])


# (rows, cols, seed): (sha256 of the output file, sha256 of the records
#     pushed to the expansions stack, in push order, each preceded by its
#     u32 length), recorded from the code whose base case was side 2
OBLIVIOUS_PINS = {
    (1, 1, 1): (
        "43d4d8440019f009f4e6e99d5f430e7c38cb83520e7e77d1cb5e7bf88ee1645a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 1, 2): (
        "43d4d8440019f009f4e6e99d5f430e7c38cb83520e7e77d1cb5e7bf88ee1645a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (1, 9, 1): (
        "2a0c581f73ce0562aca7a2d35a9067c8fd4c8357bfe44447e658143917c83b42",
        "0c3730b708364b33b93b6f32370126aa4e1c0933b2c19e2b8cf29a796f852648"),
    (1, 9, 2): (
        "1260c7591c6a194f19441d5d17842448a20b9da59bc9b54b89463fc0897183df",
        "0c3730b708364b33b93b6f32370126aa4e1c0933b2c19e2b8cf29a796f852648"),
    (9, 1, 1): (
        "0443d3068f92ec33c85478e8a1f0627f22cdf5ea7dbc8cd8d84512e982685521",
        "0c3730b708364b33b93b6f32370126aa4e1c0933b2c19e2b8cf29a796f852648"),
    (9, 1, 2): (
        "4ff95daccd36e447e508ed08f98a3aa6313f3e5e862ba3a915b373b7977a0308",
        "0c3730b708364b33b93b6f32370126aa4e1c0933b2c19e2b8cf29a796f852648"),
    (2, 2, 1): (
        "acbf619f36ab726a48858c5d95753c0d4c9996188724b25089e165e027b71d31",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (2, 2, 2): (
        "2697d8537e0998f2c73df305a9a0de76cda215e3189286fc759c0988fc06797e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (3, 3, 1): (
        "8b105e73ce851ae5cedb8aa4f37641af28d21b637bfd9045007a05c42f6ee0aa",
        "4cfa52ab8c7767d4cc5284f09f30495ad698da10ee0f95316acb37351319b71d"),
    (3, 3, 2): (
        "8f36b030a70c205ef0f1c8d3405bd0313cbf850bb5d0b4203178d74237176474",
        "64f9c3c4e559a7a94139a50c1498a7f424b87a9199ae3b26e1fbef84de67e92f"),
    (4, 4, 1): (
        "683c1581c1042ed848e80ea97ebe544a2dc28dd09f2bd608948de7b4cd51a29e",
        "d7679c97a44f533e281a6c49e18c9944a1b598e692d162f593da478e38f06981"),
    (4, 4, 2): (
        "bc7eeacb6da87245e65b4ccf07215245b65d286de65deef1fc20d7747418bfab",
        "482845b569a09589b7271320c32ee01dea8109b47d75223cddf82bf68a191a73"),
    (5, 11, 1): (
        "93d2bbf47137b3e79aaedf23210542c15f97c3c2ba38ffe342854e0e563f7fdb",
        "5ee2bb076ff4e77eb87ae4021dcf7104a6cfa238a627bfa9fde9ad8c0d5e918d"),
    (5, 11, 2): (
        "37d2af5fb11763daf50d532303f3621e5462a1624e739238175fcf101786cebb",
        "79710387b8dd72ca524ff37b3259a3f1ba52197743c17ce7c8c7c5c14f1cd36a"),
    (6, 6, 1): (
        "59db3289862fbdf8bdf7c73cee6e25b2f3fd0289a1965eaa913dbc884ec602d9",
        "4327240456d95a12e32c27936ab0e920f6f0d5770cce1fc7cadf25a5d6857aef"),
    (6, 6, 2): (
        "6eba50c75ffcb4ce485299718a0348b2acc0ac621b7fd5b2887c2cea7b2f1c0a",
        "7ce6076496832a0492e39250d7f51b75dd95a23179e5f31d71b44ee75eb36fce"),
    (13, 7, 1): (
        "73cb160a236ebcf19650297c3eaaaf64f8b5ce71bc16d9685d6bc1c70dac625e",
        "561ceecae906b824b485af6bed1156881163c86de9ccb9eb140bc61713fb9f66"),
    (13, 7, 2): (
        "88831eaa98ca5f51c0f7b0d029858c2070f78f32dbd357e4bdbe70aec65a5ea5",
        "3262e6b41e7f6795cf38f0195351636f1669d4f5ef5c5e5d2995da0d7ec2734b"),
    (32, 32, 1): (
        "25a9103573a804bf4a8a46ec0d7483634544ab86f7bbcf17c3f94fb75c3923d2",
        "1b7178a0162abe77c6adecf099aa292302bd3e874135e54acded4883887bdf8c"),
    (32, 32, 2): (
        "b7d08a0be4eb34fb62e715af71ca346ca64d81a81c3a3d25b2065b9e8e494ece",
        "77444066c4d12c3ba0dd2c27a3e99559d8421465582ca8540d4ed6b299dabb8a"),
    (64, 64, 1): (
        "9624a500095a5315e05decd286f4e1c7f6146171dd1fa523f2bae6de0b6e40df",
        "c7a713845a2d51a4034acf9de5721fa146b0ca1afb69ece847302a69e472d090"),
    (64, 64, 2): (
        "ea5be3b0c83efaca4e43c82a6e3036525c3ac5956c1e7fa8da6156c4abf3c303",
        "bffb96d9f69dbb2294f362a9ab721a4f4d9967d72eecec2cb612c6b5aa6e3aaa"),
}


@pytest.mark.parametrize("case", sorted(OBLIVIOUS_PINS))
def test_oblivious_output_and_expansions_unchanged(monkeypatch, case):
    rows, cols, seed = case
    pushed = hashlib.sha256()
    push = mst.FileStack.push

    def spy_push(self, record):
        if self.handle.name == "mst.out.expn":
            pushed.update(len(record).to_bytes(4, "little") + record)
        return push(self, record)

    monkeypatch.setattr(mst.FileStack, "push", spy_push)
    d = make_disk()
    g = gf.generate(d, rows, cols, "weighted_undirected", seed=seed,
                    density=0.6)
    out = mst.mst_cache_oblivious(g)
    assert (hashlib.sha256(d.raw_bytes(out)).hexdigest(),
            pushed.hexdigest()) == OBLIVIOUS_PINS[case]


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


@pytest.mark.parametrize("block, max_weight, bound", [
    (2 ** 6, 2 ** 20, 6000),            # M = B^2
    (2 ** 6, 2 ** 62, 6700),            # M = B^2, full-width weights
    (2 ** 8, 2 ** 20, 2100),            # the desk machine
])
def test_oblivious_stack_pops_read_records_as_runs(block, max_weight, bound):
    # a pop reads its top block, then the rest of the record bottom up, so a
    # multi-block record costs at most two random blocks, not one per block
    disk = make_disk(block)
    g = gf.generate(disk, 256, 256, "weighted_undirected", seed=1,
                    density=0.6, max_weight=max_weight)
    disk.reset_counters()
    mst.mst_cache_oblivious(g)
    assert disk.counters_snapshot().random_blocks <= bound


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
    assert union_contains_mst_check(g, h)


def test_union_contains_mst_trivial_cover():
    d = make_disk()
    g = gf.generate(d, 8, 8, "weighted_undirected", seed=2)
    assert union_contains_mst_check(g, 3)


def with_off_grid_arc(disk, rows, cols, cell, d):
    """A connected ``weighted_undirected`` grid (every E and S edge) whose
    ``cell`` also stores an arc in direction ``d`` that leaves the grid."""
    edges = grid4_edges(rows, cols, both_dirs=False)
    edges[cell] = {**edges[cell], d: 5}
    return make_graph(disk, rows, cols, "weighted_undirected", edges)


@pytest.mark.parametrize("rows,cols,cell,d", [
    (4, 4, (0, 0), gf.SW), (3, 3, (2, 0), gf.S), (3, 3, (2, 0), gf.SE),
    (3, 3, (0, 2), gf.E), (4, 4, (0, 3), gf.E),
    # in a side-4 region below the root, whole or clipped by the grid
    (8, 8, (7, 5), gf.S), (6, 6, (2, 5), gf.E), (6, 6, (5, 0), gf.SW),
    (8, 8, (7, 3), gf.SE), (7, 10, (6, 9), gf.SE),
    # a one-cell grid, read and checked like any other region
    (1, 1, (0, 0), gf.E), (1, 1, (0, 0), gf.SW),
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


@pytest.mark.parametrize("variant", ["aware", "oblivious"])
def test_cli_off_grid_arc_on_one_cell_exits_2(monkeypatch, capsys, variant):
    monkeypatch.setattr(gf, "generate", lambda disk, rows, cols, *args,
                        **kwargs: with_off_grid_arc(disk, 1, 1, (0, 0), gf.S))
    assert cli.run(["mst", "--variant", variant,
                    "--rows", "1", "--cols", "1"]) == 2
    assert "edge leaves the grid at (0,0)" in capsys.readouterr().err
