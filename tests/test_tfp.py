import pytest

from gridscan import gridfmt as gf, clusters as cl, oracle, tfp

from conftest import make_disk, make_graph

MOD = 1 << 64


def compare(d, g, name, h):
    stats = tfp.TfpStats()
    out = tfp.tfp_run(g, oracle.TFP_ORACLES[name], h,
                      out_name="%s.out" % name, stats=stats)
    got = tfp.read_labels(d, out)
    expect = oracle.tfp_labels(g, oracle.TFP_ORACLES[name])
    for (r, c), want in expect.items():
        z = gf.coord_to_index(g.rows, g.cols, r + 1, c + 1)
        assert got[z] == want % MOD, (r, c)
    return stats


@pytest.mark.parametrize("name", ["indegree", "longest_path", "path_count"])
@pytest.mark.parametrize("seed,h", [(0, 1), (1, 2), (2, 3)])
def test_labels_match_oracle(name, seed, h):
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=seed, density=0.65)
    compare(d, g, name, h)


def test_indegree_row_path():
    d = make_disk()
    g = make_graph(d, 1, 6, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(5)})
    out = tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)
    got = tfp.read_labels(d, out)
    z_of = gf.z_tables(1, 6)[0]
    assert got[int(z_of[0])] == 0
    for c in range(1, 6):
        assert got[int(z_of[c])] == 1


def test_longest_path_row():
    d = make_disk()
    g = make_graph(d, 1, 8, "unweighted",
                   {(0, c): {gf.E: 1} for c in range(7)})
    out = tfp.tfp_run(g, oracle.TFP_ORACLES["longest_path"], 1)
    got = tfp.read_labels(d, out)
    z_of = gf.z_tables(1, 8)[0]
    assert [got[int(z_of[c])] for c in range(8)] == list(range(8))


def test_slots_written_and_read_at_most_once():
    d = make_disk()
    g = gf.generate(d, 32, 32, "planar_dag", seed=5, density=0.7)
    stats = compare(d, g, "longest_path", 2)
    assert stats.slot_writes and max(stats.slot_writes.values()) == 1
    assert stats.slot_reads and max(stats.slot_reads.values()) == 1
    assert set(stats.slot_reads) == set(stats.slot_writes)
    assert max(stats.slot_writes) < stats.inter_slots


def test_chunk_pair_bound():
    d = make_disk()
    g = gf.generate(d, 64, 64, "planar_dag", seed=6, density=0.7)
    stats = compare(d, g, "indegree", 2)
    assert len(stats.chunk_pairs) <= 30 * stats.chunk_count


def test_inter_slots_unique_per_edge():
    scheme = cl.ClusterScheme(16, 16, 2)
    seen = {}
    for r in range(16):
        for c in range(16):
            for d in range(8):
                dr, dc = gf.DIR_OFFSETS[d]
                nr, nc = r + dr, c + dc
                if not (0 <= nr < 16 and 0 <= nc < 16):
                    continue
                if scheme.cluster_of(r, c) == scheme.cluster_of(nr, nc):
                    continue
                slot = tfp._inter_slot(scheme, (r, c), (nr, nc))
                assert 0 <= slot < tfp._inter_slot_count(scheme)
                key = (min((r, c), (nr, nc)), max((r, c), (nr, nc)))
                square = (min(r, nr), min(c, nc))
                if d in (gf.N, gf.E, gf.S, gf.W):
                    group = key
                else:
                    # both diagonals of one square share a slot by design
                    group = square
                prev = seen.setdefault(slot, group)
                assert prev == group, (slot, prev, group)


def test_nonplanar_rejected():
    d = make_disk()
    g = make_graph(d, 2, 2, "unweighted",
                   {(0, 0): {gf.SE: 1}, (0, 1): {gf.SW: 1}})
    with pytest.raises(tfp.TfpError):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)


def test_nonplanar_cross_cluster_rejected():
    d = make_disk()
    g = make_graph(d, 2, 4, "unweighted",
                   {(0, 1): {gf.SE: 1}, (0, 2): {gf.SW: 1}})
    with pytest.raises(tfp.TfpError):
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 1)


def test_path_count_diamond():
    d = make_disk()
    g = make_graph(d, 2, 2, "unweighted",
                   {(0, 0): {gf.E: 1, gf.S: 1},
                    (0, 1): {gf.S: 1}, (1, 0): {gf.E: 1}})
    out = tfp.tfp_run(g, oracle.TFP_ORACLES["path_count"], 1)
    got = tfp.read_labels(d, out)
    z = gf.coord_to_index(2, 2, 2, 2)
    assert got[z] == 2


def test_custom_callback():
    d = make_disk()
    g = gf.generate(d, 16, 16, "planar_dag", seed=9, density=0.6)

    def fn(v, ins):
        return (v[0] * 131 + v[1] * 17 + sum(ins) * 3 + len(ins)) % MOD

    out = tfp.tfp_run(g, fn, 2)
    got = tfp.read_labels(d, out)
    expect = oracle.tfp_labels(g, fn)
    for (r, c), want in expect.items():
        z = gf.coord_to_index(16, 16, r + 1, c + 1)
        assert got[z] == want % MOD


def test_io_volume_per_vertex_bounded():
    ratios = []
    for side in (16, 32, 64):
        d = make_disk(block=64, mem_blocks=4096)
        g = gf.generate(d, side, side, "planar_dag", seed=1, density=0.65)
        d.reset_counters()
        tfp.tfp_run(g, oracle.TFP_ORACLES["indegree"], 2)
        snap = d.counters_snapshot()
        ratios.append(snap.bytes_transferred / (side * side))
    assert max(ratios) <= 3 * min(ratios)
