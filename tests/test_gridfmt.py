import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from gridscan.simdisk import SimConfig, SimDisk
from gridscan import cli, gridfmt as gf

from conftest import coord_to_index, index_to_coord


def disk(block=64):
    return SimDisk(SimConfig(block_bytes=block, memory_bytes=block * block))


def z_order_oracle(rows, cols):
    """Recursive quadrant enumeration: TL, TR, BL, BR, skipping padding."""
    k = 1
    while k < max(rows, cols):
        k *= 2
    out = []

    def rec(r0, c0, size):
        if r0 >= rows or c0 >= cols:
            return
        if size == 1:
            out.append((r0, c0))
            return
        half = size // 2
        rec(r0, c0, half)
        rec(r0, c0 + half, half)
        rec(r0 + half, c0, half)
        rec(r0 + half, c0 + half, half)

    rec(0, 0, k)
    return out


def test_z_order_2x2():
    assert [coord_to_index(2, 2, r, c)
            for r in (1, 2) for c in (1, 2)] == [0, 1, 2, 3]


def test_1x1_all_orders():
    assert coord_to_index(1, 1, 1, 1) == 0
    assert index_to_coord(1, 1, 0) == (1, 1)


def test_z_order_4x4_frozen():
    assert coord_to_index(4, 4, 3, 2) == 9


def test_out_of_range_coord():
    with pytest.raises(gf.FormatError):
        coord_to_index(4, 4, 5, 1)
    with pytest.raises(gf.FormatError):
        index_to_coord(4, 4, 16)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (5, 5), (7, 3), (8, 8),
                                       (6, 9), (13, 13), (16, 5), (1, 17)])
def test_z_matches_recursive_oracle(rows, cols):
    expect = z_order_oracle(rows, cols)
    got = [tuple(x - 1 for x in index_to_coord(rows, cols, i))
           for i in range(rows * cols)]
    assert got == expect


@pytest.mark.parametrize("rows,cols", [(3, 5), (8, 8), (6, 2)])
def test_coord_index_bijection(rows, cols):
    seen = set()
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            i = coord_to_index(rows, cols, r, c)
            assert index_to_coord(rows, cols, i) == (r, c)
            seen.add(i)
    assert seen == set(range(rows * cols))


def test_header_round_trip():
    d = disk()
    g = gf.generate(d, 6, 4, "tree", seed=9)
    g2 = gf.open_grid(d, g.handle)
    assert (g2.order, g2.encoding, g2.rows, g2.cols) == (g.order, g.encoding, 6, 4)


@pytest.mark.parametrize("short", [1, 100])
def test_open_grid_rejects_truncated_payload(short):
    # a shortfall below one block is hidden by the block padding
    d = disk(256)
    g = gf.generate(d, 32, 32, "planar_dag", seed=4)
    raw = d.raw_bytes(g.handle)
    assert short < d.config.block_bytes
    d2 = disk(256)
    h = d2.open_file("input")
    d2.load_raw(h, raw[:-short])
    with pytest.raises(gf.FormatError):
        gf.open_grid(d2, h)
    d3 = disk(256)
    h3 = d3.open_file("input")
    d3.load_raw(h3, raw)
    assert gf.open_grid(d3, h3).count == 32 * 32


def recounted(g, count, records):
    """A new disk holding g's file with the header's count set to ``count``
    and the payload cut to its first ``records`` records."""
    hdr = gf.pack_header(g.encoding, g.rows, g.cols, count)
    raw = g.disk.raw_bytes(g.handle)[:g.record_offset(records)]
    d = disk(g.disk.config.block_bytes)
    h = d.open_file("input")
    d.load_raw(h, hdr + raw[len(hdr):])
    return d, h


@pytest.mark.parametrize("model", ["planar_dag", "weighted_dag",
                                   "weighted_undirected"])
@pytest.mark.parametrize("records", [32, 64])
def test_open_grid_rejects_vertex_count_other_than_n(model, records):
    g = gf.generate(disk(), 8, 8, model, seed=3)
    d, h = recounted(g, 32, records)
    with pytest.raises(gf.FormatError, match="count 32"):
        gf.open_grid(d, h)
    d, h = recounted(g, 64, 64)
    assert gf.open_grid(d, h).count == 64


def test_payload_encodings_keep_a_free_count():
    d = disk()
    h, s = gf.open_result(d, "dist", "distances", 8, 8, 3)
    s.write(bytes(24))
    s.close()
    assert gf.read_u64_payload(d, h) == [0, 0, 0]


def test_cli_vertex_count_other_than_n_exits_2(monkeypatch, capsys):
    real_generate = gf.generate

    def short_count(*args, **kwargs):
        return gf.open_grid(*recounted(real_generate(*args, **kwargs), 32, 32))

    monkeypatch.setattr(gf, "generate", short_count)
    assert cli.run(["toposort", "--rows", "8", "--cols", "8", "--h", "2"]) == 2
    assert "count 32" in capsys.readouterr().err


def reheadered(g, at, value):
    """A new disk holding g's file with header bytes ``at`` set to the
    little-endian ``value``."""
    raw = bytearray(g.disk.raw_bytes(g.handle))
    raw[at] = value.to_bytes(at.stop - at.start, "little")
    d = disk(g.disk.config.block_bytes)
    h = d.open_file("input")
    d.load_raw(h, bytes(raw))
    return d, h


def reversioned(g, version):
    """A new disk holding g's file with the header's version field set."""
    return reheadered(g, slice(4, 6), version)


def test_open_grid_rejects_other_versions():
    g = gf.generate(disk(), 8, 8, "planar_dag", seed=3)
    with pytest.raises(gf.FormatError, match="version 7"):
        gf.open_grid(*reversioned(g, 7))
    assert gf.open_grid(*reversioned(g, gf.VERSION)).count == 64


def test_grid_graph_rejects_other_orders():
    d = disk()
    with pytest.raises(gf.FormatError, match="z_order"):
        gf.GridGraph(d, d.open_file("input"), "row_major", "unweighted", 4, 4,
                     16)


@pytest.mark.parametrize("code", [0, 1])
def test_open_grid_rejects_other_order_codes(code):
    g = gf.generate(disk(), 8, 8, "planar_dag", seed=3)
    with pytest.raises(gf.FormatError, match="header codes"):
        gf.open_grid(*reheadered(g, slice(6, 7), code))
    assert gf.open_grid(*reheadered(g, slice(6, 7), 2)).order == gf.Z_ORDER


def test_cli_other_version_exits_2(monkeypatch, capsys):
    real_generate = gf.generate

    def version_7(*args, **kwargs):
        return gf.open_grid(*reversioned(real_generate(*args, **kwargs), 7))

    monkeypatch.setattr(gf, "generate", version_7)
    assert cli.run(["toposort", "--rows", "8", "--cols", "8", "--h", "2"]) == 2
    assert "version 7" in capsys.readouterr().err


def count_undirected_edges(g):
    adj = gf.adjacency(g)
    return sum(len(v) for v in adj.values()) // 2


def test_tree_model_edge_count():
    for seed in range(5):
        d = disk()
        g = gf.generate(d, 6, 7, "tree", seed=seed)
        assert count_undirected_edges(g) == g.n - 1


def has_cycle(adj):
    color = {v: 0 for v in adj}
    for start in adj:
        if color[start]:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        while stack:
            v, it = stack[-1]
            adv = next(it, None)
            if adv is None:
                color[v] = 2
                stack.pop()
                continue
            u = (adv[1], adv[2])
            if color[u] == 1:
                return True
            if color[u] == 0:
                color[u] = 1
                stack.append((u, iter(adj[u])))
    return False


def test_weighted_dag_acyclic():
    for seed in range(5):
        d = disk()
        g = gf.generate(d, 8, 8, "weighted_dag", seed=seed)
        assert not has_cycle(gf.adjacency(g))


def test_planar_dag_single_diagonal_per_cell():
    for seed in range(5):
        d = disk()
        g = gf.generate(d, 10, 10, "planar_dag", seed=seed, density=0.9)
        adj = gf.adjacency(g)
        pairs = {frozenset((v, (u[1], u[2]))) for v in adj for u in adj[v]}
        for r in range(9):
            for c in range(9):
                se = frozenset(((r, c), (r + 1, c + 1)))
                sw = frozenset(((r, c + 1), (r + 1, c)))
                assert not (se in pairs and sw in pairs)
        assert not has_cycle(adj)


def is_connected(adj):
    start = next(iter(adj))
    seen, todo = {start}, [start]
    while todo:
        for _, r, c, _ in adj[todo.pop()]:
            if (r, c) not in seen:
                seen.add((r, c))
                todo.append((r, c))
    return len(seen) == len(adj)


@pytest.mark.parametrize("model", gf.GEN_MODELS)
@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 24), cols=st.integers(1, 24),
       seed=st.integers(0, 2 ** 32), density=st.floats(0, 1),
       max_weight=st.integers(0, gf.ABSENT - 1), distinct=st.booleans())
def test_generated_instance_invariants(model, rows, cols, seed, density,
                                       max_weight, distinct):
    g = gf.generate(disk(), rows, cols, model, seed, density=density,
                    max_weight=max_weight, distinct_weights=distinct)
    adj = gf.adjacency(g)
    arcs = {((r, c), (r2, c2)) for (r, c), out in adj.items()
            for _, r2, c2, _ in out}
    if model in ("tree", "weighted_undirected"):
        assert is_connected(adj)
        assert all((b, a) in arcs for a, b in arcs)
    if model == "tree":
        assert len(arcs) == 2 * (g.n - 1)
    if model == "weighted_undirected":
        ws = [w for _, weights in gf.decode_all(g) for w in weights.values()]
        if distinct:
            assert len(set(ws)) == len(ws)
            assert all(1 <= w <= 8 * g.n for w in ws)
        else:
            assert all(0 <= w <= max_weight for w in ws)
    if model in ("weighted_dag", "planar_dag", "unit_directed"):
        # every E, S, SE or SW pair is kept in one direction at most
        assert not any((b, a) in arcs for a, b in arcs)
    if model == "weighted_dag":
        assert all(0 <= w <= max_weight
                   for out in adj.values() for _, _, _, w in out)
    if model in ("weighted_dag", "planar_dag"):
        assert not has_cycle(adj)
    if model == "planar_dag":
        pairs = {frozenset(arc) for arc in arcs}
        for r in range(rows - 1):
            for c in range(cols - 1):
                assert not (frozenset(((r, c), (r + 1, c + 1))) in pairs
                            and frozenset(((r, c + 1), (r + 1, c))) in pairs)


def test_generate_deterministic():
    a = gf.generate(disk(), 9, 9, "weighted_undirected", seed=42)
    b = gf.generate(disk(), 9, 9, "weighted_undirected", seed=42)
    assert a.disk.raw_bytes(a.handle) == b.disk.raw_bytes(b.handle)


# The instances generate draws, pinned on a grid of shapes.  A row hashes the
# concatenated files of PIN_SEEDS x PIN_DENSITIES, generated in that order
# onto one disk of the row's block size, and holds that disk's counters.
# Recorded from the per-cell generator that the column one replaced.
PIN_SHAPES = ((1, 1), (1, 7), (7, 1), (13, 7), (32, 32), (100, 37))
PIN_SEEDS = (0, 1, 668)
PIN_DENSITIES = (0.0, 0.3, 0.6, 1.0)
PIN_VARIANTS = {model: (model, {}) for model in gf.GEN_MODELS}
PIN_VARIANTS.update({
    "weighted_undirected max_weight=3": ("weighted_undirected",
                                         {"max_weight": 3}),
    "weighted_undirected distinct": ("weighted_undirected",
                                     {"distinct_weights": True}),
    "weighted_dag max_weight=3": ("weighted_dag", {"max_weight": 3}),
})


def generated_grid(variant, rows, cols, block):
    """((blocks_read, blocks_written, sequential_blocks, random_blocks,
    bytes_transferred), sha256) of one ``RECORDED_INSTANCES`` row."""
    model, kwargs = PIN_VARIANTS[variant]
    d = disk(block)
    digest = hashlib.sha256()
    for seed in PIN_SEEDS:
        for density in PIN_DENSITIES:
            g = gf.generate(d, rows, cols, model, seed,
                            name="%d-%r" % (seed, density), density=density,
                            **kwargs)
            digest.update(d.raw_bytes(g.handle))
    c = d.counters_snapshot()
    return ((c.blocks_read, c.blocks_written, c.sequential_blocks,
             c.random_blocks, c.bytes_transferred), digest.hexdigest())


# (variant, rows, cols, block): generated_grid's (counters, sha256)
RECORDED_INSTANCES = {
    ("weighted_dag", 1, 1, 16): ((0, 72, 72, 0, 1152),
        "6e17e9e1212421dc16278bcb937be2ce22e947c6ed45801e38c0662112ac88a6"),
    ("weighted_dag", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "4646312fb3e3802e992352f787d9370d1264a9ef483977e3844edf83cd3f89b4"),
    ("weighted_dag", 1, 7, 16): ((0, 360, 360, 0, 5760),
        "95476baf03dd719a37b438551f473f3279ae3e30d0ede481e82a19185e159dd6"),
    ("weighted_dag", 1, 7, 256): ((0, 36, 36, 0, 9216),
        "7bf83cd1e1b4e662c3f58ecffc8d8ec340385a77ff834f4842051a5b9412ad00"),
    ("weighted_dag", 7, 1, 16): ((0, 360, 360, 0, 5760),
        "8b6582a81202c3ffc356e35dfc033f1367f5d8212a04c286549fc8e981e324d8"),
    ("weighted_dag", 7, 1, 256): ((0, 36, 36, 0, 9216),
        "efdf08bbec4a06c218dda670c3db418880e1f2cd08a2957733fe4cf44b8699ae"),
    ("weighted_dag", 13, 7, 16): ((0, 4392, 4392, 0, 70272),
        "cbdb17fccb397c67a5c962990ad19c489eb2ae1fd1ef3ad6deb5b245cb575994"),
    ("weighted_dag", 13, 7, 256): ((0, 288, 288, 0, 73728),
        "d7b2c89efa41a809b12e583ea6395cdebf4b8779fed81b4730c61aa9ce2e06bf"),
    ("weighted_dag", 32, 32, 16): ((0, 49176, 49176, 0, 786816),
        "b7c85a656b25a8d30b36d8103b7823c0cf63076a1bf8805a9b4e86f2b3ac0646"),
    ("weighted_dag", 32, 32, 256): ((0, 3084, 3084, 0, 789504),
        "a10c62e7366a5df7ffe0057995fca8c8a7028982b90fc66f4724dbc20ed12738"),
    ("weighted_dag", 100, 37, 16): ((0, 177624, 177624, 0, 2841984),
        "2f7fb259b4d373adb316951e34b82b1b9fd3958d3a70f82a881dc45a39900913"),
    ("weighted_dag", 100, 37, 256): ((0, 11112, 11112, 0, 2844672),
        "38cb5be67394934eeeb300a4a7e5ecbf550414f6b4711eef5e691fe430e0664e"),
    ("weighted_undirected", 1, 1, 16): ((0, 48, 48, 0, 768),
        "a4bf92fa86d15ff59a45ab1a05cc3040660532c36d7bdd52d353dfc15ac3284c"),
    ("weighted_undirected", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "a7d391ae96cae5be19db83802c3bbf0a23a62d2e84f0419b6e6e0a726c12b65c"),
    ("weighted_undirected", 1, 7, 16): ((0, 192, 192, 0, 3072),
        "a312191b4d15140c3e7b1e5e2ab19d38d383f646f70df6469edfe3b8b670cd1e"),
    ("weighted_undirected", 1, 7, 256): ((0, 24, 24, 0, 6144),
        "c3735f9b4371792bf70fe445d800c969dc2c5a102e6ea3f343b1f49fe0a083fb"),
    ("weighted_undirected", 7, 1, 16): ((0, 192, 192, 0, 3072),
        "e81b0b05c609b93f49b4e9592c5f4df5d3fa1de9499e225213433bdce5777c6e"),
    ("weighted_undirected", 7, 1, 256): ((0, 24, 24, 0, 6144),
        "8f7c99e5bb8adb779e3c4f45386da4f965f7663fbda3f034bfb146c139157199"),
    ("weighted_undirected", 13, 7, 16): ((0, 2208, 2208, 0, 35328),
        "ac2d0d259aa8bdb485a372c7507ec9164f44d6c41e6a17f8960101263101623d"),
    ("weighted_undirected", 13, 7, 256): ((0, 156, 156, 0, 39936),
        "f83d1ca31828a3b46a3e2e60d7f1b4bcb74a490ac9bf094ef24419abb5b95810"),
    ("weighted_undirected", 32, 32, 16): ((0, 24600, 24600, 0, 393600),
        "6e0ec8b543743203187f4ce7841963215e4b39113cee9a635ec7b17fa6e50f77"),
    ("weighted_undirected", 32, 32, 256): ((0, 1548, 1548, 0, 396288),
        "4f4af0e938fcfecb5273c3521a352fc56f287868c3c73ee795710089072b9389"),
    ("weighted_undirected", 100, 37, 16): ((0, 88824, 88824, 0, 1421184),
        "c534dcb02181c251c62d01b215f452f89743e23bccb1ed4d77451fa33f5b64b0"),
    ("weighted_undirected", 100, 37, 256): ((0, 5568, 5568, 0, 1425408),
        "ee42be093f0235de726ceb08648f451197834679efa976794e3574235cb45958"),
    ("unit_directed", 1, 1, 16): ((0, 36, 36, 0, 576),
        "cb947bd4c3d9fedb3516513611a4fc62f8b277058c27fba5ddbf21e37e1c20cc"),
    ("unit_directed", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "e9e0cba52e150a5e2089ec34ab388d1252c1910fbad3d6ad27cf6bec2a5a0db8"),
    ("unit_directed", 1, 7, 16): ((0, 36, 36, 0, 576),
        "bf3e6cc12d11e1bb3d30990da37377d894fbe2edae72d5a73f5ad60c64cd00bf"),
    ("unit_directed", 1, 7, 256): ((0, 24, 24, 0, 6144),
        "e0082e9b4eac81ce7fa9f5f50ed5b19a5a2bf4a3ad69ad87efc2455d920b6a63"),
    ("unit_directed", 7, 1, 16): ((0, 36, 36, 0, 576),
        "7c93858e801b47a7beb228cf9a0ceecfe933fa3f4dde85eb238ff8d1f0613ce0"),
    ("unit_directed", 7, 1, 256): ((0, 24, 24, 0, 6144),
        "5e27fb4635bbd00a76e53c7ae4580300b8988bb50eb847373f2f50e475e088a4"),
    ("unit_directed", 13, 7, 16): ((0, 96, 96, 0, 1536),
        "b811f1b6bd300ee55621561b8424829513051b8daaf5cda0fa562e9090bceaa4"),
    ("unit_directed", 13, 7, 256): ((0, 24, 24, 0, 6144),
        "3d039c9aa2663c1d289e41cef07ae0a7241beffd41bc0b9a980d17a84f51acfb"),
    ("unit_directed", 32, 32, 16): ((0, 792, 792, 0, 12672),
        "14d032e8d694a78a9b1e19d6898aa95630469b9e4aca347934c7e970024bc777"),
    ("unit_directed", 32, 32, 256): ((0, 60, 60, 0, 15360),
        "65e4cd4dcf5c32759b50a52e77f4eeb2a03b74dbd999afc4f614e6147fd2f219"),
    ("unit_directed", 100, 37, 16): ((0, 2808, 2808, 0, 44928),
        "bc366f50b53eeaa13657279d32d095fac05f64bd3098860341f19800b063efec"),
    ("unit_directed", 100, 37, 256): ((0, 192, 192, 0, 49152),
        "01bd502e5633e89b12f8dc74fc2dcacef2eceeee00dc89f0b9563a06c800e553"),
    ("tree", 1, 1, 16): ((0, 36, 36, 0, 576),
        "cb947bd4c3d9fedb3516513611a4fc62f8b277058c27fba5ddbf21e37e1c20cc"),
    ("tree", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "e9e0cba52e150a5e2089ec34ab388d1252c1910fbad3d6ad27cf6bec2a5a0db8"),
    ("tree", 1, 7, 16): ((0, 36, 36, 0, 576),
        "45dfc5a964e40086bd0c4eb72234ddf9f740138f5bbda56a75ffd52499eb58f2"),
    ("tree", 1, 7, 256): ((0, 24, 24, 0, 6144),
        "b6718c2e15405610b45a6d0071b0164234205ee82ca43b92b79294482ad40cd1"),
    ("tree", 7, 1, 16): ((0, 36, 36, 0, 576),
        "3d2dd0dba52efafafbf85be738458232079a198e3a579be42a862cef91fd9468"),
    ("tree", 7, 1, 256): ((0, 24, 24, 0, 6144),
        "34e0fa138675b61d25cb0219a2783d9d5310c31c439524364a6c7a8e58d6ccab"),
    ("tree", 13, 7, 16): ((0, 96, 96, 0, 1536),
        "a1aaa5de7d8903bdfd46e8d764503ad8687c2a97ca30ea6608a29419c714d394"),
    ("tree", 13, 7, 256): ((0, 24, 24, 0, 6144),
        "bd558e9e2781ae6ced8bffc57e1c5fb6b1a8c8e77813fa840e791a462e63620e"),
    ("tree", 32, 32, 16): ((0, 792, 792, 0, 12672),
        "7d916a8e394a2ff8cf79d0af08a19a3a121f3b57d37accd39da67422346c0620"),
    ("tree", 32, 32, 256): ((0, 60, 60, 0, 15360),
        "8d0ee0862e5cad716594301202e9ce17e9bbc01a8338b195d3634e5c41f9ed1a"),
    ("tree", 100, 37, 16): ((0, 2808, 2808, 0, 44928),
        "933b1aba6328dca8996addc225d5f450ea645ab5af4596acfb98fb36a9cb5d86"),
    ("tree", 100, 37, 256): ((0, 192, 192, 0, 49152),
        "17ab308ae5e54d4fd454dca32653bcdf41f747c08c9313ef2aa28e3acf2e15d9"),
    ("planar_dag", 1, 1, 16): ((0, 36, 36, 0, 576),
        "cb947bd4c3d9fedb3516513611a4fc62f8b277058c27fba5ddbf21e37e1c20cc"),
    ("planar_dag", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "e9e0cba52e150a5e2089ec34ab388d1252c1910fbad3d6ad27cf6bec2a5a0db8"),
    ("planar_dag", 1, 7, 16): ((0, 36, 36, 0, 576),
        "94a2b6c1237a08d339046172ca04e7088bab50da0f3c7fda6729db27e938d557"),
    ("planar_dag", 1, 7, 256): ((0, 24, 24, 0, 6144),
        "f36eee6f8d5b4dab65e62a7a6b3f218e00011c2d492d76512ad19664c13b908b"),
    ("planar_dag", 7, 1, 16): ((0, 36, 36, 0, 576),
        "df98ff47eb887485efb37b3f65e8795d01183c27c8c562471ff4909f45a3c51a"),
    ("planar_dag", 7, 1, 256): ((0, 24, 24, 0, 6144),
        "efa38589da331b961ac4692478de7f269e8b94ddd91d57900458a99e2f1d4e6b"),
    ("planar_dag", 13, 7, 16): ((0, 96, 96, 0, 1536),
        "b35b318782d4f8ce9e3a2f902f1aa0893324c473e4f96148e460ac8dbb0ba55d"),
    ("planar_dag", 13, 7, 256): ((0, 24, 24, 0, 6144),
        "81ab3a9a18d892864b136c55b5f0e90f5f0c5e01e24d252546353084ff4012db"),
    ("planar_dag", 32, 32, 16): ((0, 792, 792, 0, 12672),
        "8fc521c4676e1e38216d7fc85450f2c8f2b1366db76ded782f52d1fad3259414"),
    ("planar_dag", 32, 32, 256): ((0, 60, 60, 0, 15360),
        "3fcb1f5c8d79258e1dc09cd3708595f30ed7cfe0520d92d35823ba7f36e6b0ce"),
    ("planar_dag", 100, 37, 16): ((0, 2808, 2808, 0, 44928),
        "37b05224fe8cf8febec22fcef884107f62dfcd881c133326780fd83417e5ed9c"),
    ("planar_dag", 100, 37, 256): ((0, 192, 192, 0, 49152),
        "871469254cccb50e253e49d7aef18c5faab1e32a21eddc00878b7447113856e5"),
    ("weighted_undirected max_weight=3", 1, 1, 16): ((0, 48, 48, 0, 768),
        "a4bf92fa86d15ff59a45ab1a05cc3040660532c36d7bdd52d353dfc15ac3284c"),
    ("weighted_undirected max_weight=3", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "a7d391ae96cae5be19db83802c3bbf0a23a62d2e84f0419b6e6e0a726c12b65c"),
    ("weighted_undirected max_weight=3", 1, 7, 16): ((0, 192, 192, 0, 3072),
        "b20cd9bb483cdb43c178de624599a15ec96f262dc708d68badcf352ea000efd5"),
    ("weighted_undirected max_weight=3", 1, 7, 256): ((0, 24, 24, 0, 6144),
        "da928547ceb7c92fe504372d353f64e4b50f19772f87965264c72d946a2d4cb3"),
    ("weighted_undirected max_weight=3", 7, 1, 16): ((0, 192, 192, 0, 3072),
        "eaf550ec19848d8eb4d3482fe7a3067827864fac502b4b111fa50612b336add8"),
    ("weighted_undirected max_weight=3", 7, 1, 256): ((0, 24, 24, 0, 6144),
        "59adabdeef831fc50919bd594f142102e96f9c14d3b5ef8b36f45eff0a2ce586"),
    ("weighted_undirected max_weight=3", 13, 7, 16): ((0, 2208, 2208, 0, 35328),
        "49634a759f82d6774cd360d380eef1d467438a4e160877c858e13555962c8784"),
    ("weighted_undirected max_weight=3", 13, 7, 256): ((0, 156, 156, 0, 39936),
        "586eee65b0e4d64d9a9270f8b064e2e84e749f15b62fb1f36a5e916e2a2391fc"),
    ("weighted_undirected max_weight=3", 32, 32, 16): ((0, 24600, 24600, 0, 393600),
        "6d3cef8de77a140e80392622e184a943b58912c88784502fad3f9e882c54faf6"),
    ("weighted_undirected max_weight=3", 32, 32, 256): ((0, 1548, 1548, 0, 396288),
        "a972bc43a235e7a6af1fad2d98dfb494ad7f51925aa9c5d531cefd94a04e051b"),
    ("weighted_undirected max_weight=3", 100, 37, 16): ((0, 88824, 88824, 0, 1421184),
        "d94a76bb8bf0f67fbdfd2273aad0b022dd2ce0699de16be5363e74747cdc0182"),
    ("weighted_undirected max_weight=3", 100, 37, 256): ((0, 5568, 5568, 0, 1425408),
        "5da9824a9451ed5e27da35aa1be2801e35900ba4ce12187c76d8db0604cb33e3"),
    ("weighted_undirected distinct", 1, 1, 16): ((0, 48, 48, 0, 768),
        "a4bf92fa86d15ff59a45ab1a05cc3040660532c36d7bdd52d353dfc15ac3284c"),
    ("weighted_undirected distinct", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "a7d391ae96cae5be19db83802c3bbf0a23a62d2e84f0419b6e6e0a726c12b65c"),
    ("weighted_undirected distinct", 1, 7, 16): ((0, 192, 192, 0, 3072),
        "15af37abb20982b2fe56fee2a21341bce80f106b5c36c1d990a89e79dab55e19"),
    ("weighted_undirected distinct", 1, 7, 256): ((0, 24, 24, 0, 6144),
        "7548cacf3d418b9a03298bba5c8e9a7ec9ce1eec57a814f36d763474ab493698"),
    ("weighted_undirected distinct", 7, 1, 16): ((0, 192, 192, 0, 3072),
        "935ad192043649448922e0395deb6e266d9382ce2f9d115daca31f3ef507ec9f"),
    ("weighted_undirected distinct", 7, 1, 256): ((0, 24, 24, 0, 6144),
        "cbd4858053fb1379f49cf40d13b13a4d0f5f1d5ce36e47383b13116416a9d30f"),
    ("weighted_undirected distinct", 13, 7, 16): ((0, 2208, 2208, 0, 35328),
        "b3156327bdf58bc84b5f26dd9d7ee7ef9e2e99cd96e1d11aa25ab0b6005392bb"),
    ("weighted_undirected distinct", 13, 7, 256): ((0, 156, 156, 0, 39936),
        "29778337d0b0c37eeb2b9853c5ccaeaf628fe6202765905c4fe15c093e0c35d4"),
    ("weighted_undirected distinct", 32, 32, 16): ((0, 24600, 24600, 0, 393600),
        "f685c0db5e352d007059c013b3a706b9c7a7ee3cbbbc548c5c233e4cc85d9ec7"),
    ("weighted_undirected distinct", 32, 32, 256): ((0, 1548, 1548, 0, 396288),
        "418fd749ccc29b7777b0ffdb610450eb0ef0cfe292001ac4463596e80fb06720"),
    ("weighted_undirected distinct", 100, 37, 16): ((0, 88824, 88824, 0, 1421184),
        "b364455d14b21a0663b4dcc77a9a7dfecc3d63056a1c45c04920950831b078cc"),
    ("weighted_undirected distinct", 100, 37, 256): ((0, 5568, 5568, 0, 1425408),
        "6838cf15aa6445a706402c5ee679ee0ec169d7c78015e5e9cb3773495df86efb"),
    ("weighted_dag max_weight=3", 1, 1, 16): ((0, 72, 72, 0, 1152),
        "6e17e9e1212421dc16278bcb937be2ce22e947c6ed45801e38c0662112ac88a6"),
    ("weighted_dag max_weight=3", 1, 1, 256): ((0, 24, 24, 0, 6144),
        "4646312fb3e3802e992352f787d9370d1264a9ef483977e3844edf83cd3f89b4"),
    ("weighted_dag max_weight=3", 1, 7, 16): ((0, 360, 360, 0, 5760),
        "73c548dda1cef5790ab2930ddeba5b50591be0bd9899b1a33519f8002942a168"),
    ("weighted_dag max_weight=3", 1, 7, 256): ((0, 36, 36, 0, 9216),
        "6cc55c9d106a4827c02582f865056ff65eb7ca4843ba7a6a3771a0ac9bf86d24"),
    ("weighted_dag max_weight=3", 7, 1, 16): ((0, 360, 360, 0, 5760),
        "158c58a7ba2727c95aeaeee07aef84e4fa334a8680ffecd4bdfeccaaffcd0791"),
    ("weighted_dag max_weight=3", 7, 1, 256): ((0, 36, 36, 0, 9216),
        "8d9913932f2e897b16c9735b09606d44cbe797a4a6d07cf89f94ab8738e21d08"),
    ("weighted_dag max_weight=3", 13, 7, 16): ((0, 4392, 4392, 0, 70272),
        "0d3e3fb03e477524b0abf5efd0a36fb5e7cc53ea135ae45c987dce2038c66c3d"),
    ("weighted_dag max_weight=3", 13, 7, 256): ((0, 288, 288, 0, 73728),
        "ca98cced67b1de1b27a226fdede313d94351e8a5e4a8ef10899a31156edd55c6"),
    ("weighted_dag max_weight=3", 32, 32, 16): ((0, 49176, 49176, 0, 786816),
        "cbc6603d848b7363cb8aa3c0fe758ff69f9dab445569de9482e92b41852f3b3f"),
    ("weighted_dag max_weight=3", 32, 32, 256): ((0, 3084, 3084, 0, 789504),
        "fb3f6ff2ef096c35331e935cee6e5c2ac103b5d5d70f8ff9a6f1236866b89594"),
    ("weighted_dag max_weight=3", 100, 37, 16): ((0, 177624, 177624, 0, 2841984),
        "b3abbc13de1bb0cd0b23be6377efe1e8fad46f872d2dd29a087c5d1bdba275a7"),
    ("weighted_dag max_weight=3", 100, 37, 256): ((0, 11112, 11112, 0, 2844672),
        "64e52c8e36f31ed853e2d92e63d6fa19b185fcf53b6f580d4900221cf6327765"),
}


@pytest.mark.parametrize("case", sorted(RECORDED_INSTANCES))
def test_generated_instances_unchanged(case):
    assert generated_grid(*case) == RECORDED_INSTANCES[case]


def test_generate_rejects_empty():
    with pytest.raises(gf.FormatError):
        gf.generate(disk(), 0, 3, "tree", seed=0)


@pytest.mark.parametrize("model", ["weighted_undirected", "weighted_dag",
                                   "tree"])
@pytest.mark.parametrize("max_weight", [-1, gf.ABSENT, 2 ** 70])
def test_generate_rejects_max_weight_out_of_range(model, max_weight):
    d = disk()
    with pytest.raises(gf.FormatError, match="max_weight"):
        gf.generate(d, 4, 4, model, seed=1, max_weight=max_weight)
    assert d.files() == []


@pytest.mark.parametrize("model", ["weighted_undirected", "weighted_dag"])
def test_generate_takes_the_largest_max_weight(model):
    g = gf.generate(disk(), 8, 8, model, seed=1, density=1.0,
                    max_weight=gf.ABSENT - 1)
    ws = [w for _, weights in gf.decode_all(g) for w in weights.values()]
    assert max(ws) > 2 ** 63
    if model == "weighted_dag":        # density 1 keeps every pair
        assert len(ws) == 2 * 8 * 7 + 2 * 7 * 7
    else:
        assert is_connected(gf.adjacency(g))


def test_read_vertex_no_edges():
    d = disk()
    g = gf.generate(d, 3, 3, "unit_directed", seed=0, density=0.0)
    records = gf.decode_all(g)
    for i in range(9):
        mask, w = records[i]
        assert mask == 0 and w == {}


def test_weighted_undirected_owner_storage():
    d = disk()
    g = gf.generate(d, 4, 4, "weighted_undirected", seed=2)
    adj = gf.adjacency(g)
    records = gf.decode_all(g)
    # pick any horizontal edge; it must be decodable from the left endpoint
    # record only
    found = False
    for (r, c), edges in adj.items():
        for dd, nr, nc, w in edges:
            if dd == gf.E:
                i = coord_to_index(4, 4, r + 1, c + 1)
                mask, ws = records[i]
                assert ws[gf.E] == w
                j = coord_to_index(4, 4, nr + 1, nc + 1)
                _, wsj = records[j]
                assert gf.W not in wsj
                found = True
    assert found


@given(st.integers(0, 255),
       st.dictionaries(st.integers(0, 7), st.integers(0, 2 ** 63), max_size=8))
def test_record_round_trip_weighted_directed(mask, weights):
    mask &= sum(1 << d for d in weights)
    raw = gf.encode_record("weighted_directed", mask, weights)
    t, d, w = (a.tolist() for a in gf.decode_record("weighted_directed",
                                                    raw, 1))
    assert t == [0] * len(d)
    assert sum(1 << x for x in d) == mask
    assert dict(zip(d, w)) == {k: v for k, v in weights.items()
                               if mask >> k & 1}


@pytest.mark.parametrize("encoding", gf.VERTEX_ENCODINGS)
@pytest.mark.parametrize("delta", [-1, 1])
def test_decode_record_wrong_length(encoding, delta):
    for count in (1, 3):
        raw = bytes(count * gf.ENCODINGS[encoding] + delta)
        with pytest.raises(gf.FormatError, match="run of %d bytes" % len(raw)):
            gf.decode_record(encoding, raw, count)


def test_decode_record_rejects_other_encodings():
    with pytest.raises(gf.FormatError, match="not a vertex encoding"):
        gf.decode_record("distances", bytes(8), 1)


def record_bytes(encoding):
    """One vertex record of the encoding, each weight slot absent or not."""
    if encoding == "unweighted":
        return st.binary(min_size=1, max_size=1)
    slot = st.one_of(st.just(gf.ABSENT), st.integers(0, gf.ABSENT - 1))
    k = gf.ENCODINGS[encoding] // 8
    return st.lists(slot, min_size=k, max_size=k).map(
        lambda ws: b"".join(w.to_bytes(8, "little") for w in ws))


@pytest.mark.parametrize("encoding", gf.VERTEX_ENCODINGS)
@given(data=st.data())
def test_decode_record_agrees_with_decode_all(encoding, data):
    """The algorithms' run reader and the oracle's per-record decode are
    written apart; on any run of records they list the same arcs, in
    (record, direction) order."""
    records = data.draw(st.lists(record_bytes(encoding), min_size=1,
                                 max_size=16))
    count = len(records)
    d = disk()
    g = gf.GridGraph(d, d.open_file("input"), gf.Z_ORDER, encoding, 1, count,
                     count)
    header = gf.pack_header(encoding, 1, count, count)
    d.load_raw(g.handle, header.ljust(g.payload_offset, b"\0")
               + b"".join(records))
    want = [(i, dd, weights.get(dd, 1))
            for i, (mask, weights) in enumerate(gf.decode_all(g))
            for dd in range(8) if mask >> dd & 1]
    got = gf.decode_record(encoding, b"".join(records), count)
    assert list(zip(*(a.tolist() for a in got))) == want
