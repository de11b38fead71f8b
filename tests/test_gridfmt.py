import pytest
from hypothesis import given, strategies as st

from gridscan.simdisk import SimConfig, SimDisk
from gridscan import cli, gridfmt as gf


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
    assert [gf.coord_to_index(2, 2, r, c)
            for r in (1, 2) for c in (1, 2)] == [0, 1, 2, 3]


def test_1x1_all_orders():
    assert gf.coord_to_index(1, 1, 1, 1) == 0
    assert gf.index_to_coord(1, 1, 0) == (1, 1)


def test_z_order_4x4_frozen():
    assert gf.coord_to_index(4, 4, 3, 2) == 9


def test_out_of_range_coord():
    with pytest.raises(gf.FormatError):
        gf.coord_to_index(4, 4, 5, 1)
    with pytest.raises(gf.FormatError):
        gf.index_to_coord(4, 4, 16)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (5, 5), (7, 3), (8, 8),
                                       (6, 9), (13, 13), (16, 5), (1, 17)])
def test_z_matches_recursive_oracle(rows, cols):
    expect = z_order_oracle(rows, cols)
    got = [tuple(x - 1 for x in gf.index_to_coord(rows, cols, i))
           for i in range(rows * cols)]
    assert got == expect


@pytest.mark.parametrize("rows,cols", [(3, 5), (8, 8), (6, 2)])
def test_coord_index_bijection(rows, cols):
    seen = set()
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            i = gf.coord_to_index(rows, cols, r, c)
            assert gf.index_to_coord(rows, cols, i) == (r, c)
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
    h = d.open_file("dist")
    s = d.append_stream(h)
    gf.write_header_via(s, d, "distances", 8, 8, 3)
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


def test_generate_deterministic():
    a = gf.generate(disk(), 9, 9, "weighted_undirected", seed=42)
    b = gf.generate(disk(), 9, 9, "weighted_undirected", seed=42)
    assert a.disk.raw_bytes(a.handle) == b.disk.raw_bytes(b.handle)


def test_generate_rejects_empty():
    with pytest.raises(gf.FormatError):
        gf.generate(disk(), 0, 3, "tree", seed=0)


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
                i = gf.coord_to_index(4, 4, r + 1, c + 1)
                mask, ws = records[i]
                assert ws[gf.E] == w
                j = gf.coord_to_index(4, 4, nr + 1, nc + 1)
                _, wsj = records[j]
                assert gf.W not in wsj
                found = True
    assert found


@given(st.integers(0, 255),
       st.dictionaries(st.integers(0, 7), st.integers(0, 2 ** 63), max_size=8))
def test_record_round_trip_weighted_directed(mask, weights):
    weights = {d: w for d, w in weights.items()}
    mask &= sum(1 << d for d in weights) if weights else 0
    raw = gf.encode_record("weighted_directed", mask, weights)
    m2, w2 = gf.decode_record("weighted_directed", raw)
    assert m2 == mask
    assert w2 == {d: w for d, w in weights.items() if mask >> d & 1}
