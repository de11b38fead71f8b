import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from gridscan import gridfmt as gf, clusters as cl, oracle, euler

from conftest import make_disk, make_graph


def tour_coords(d, out, g):
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    tour = []
    for z in euler.read_tour(d, out):
        cell = int(cell_of_z[z])
        tour.append((cell // g.cols, cell % g.cols))
    return tour


def check_closure(tour, root, n):
    assert tour[0] == tour[-1] == root
    assert len(tour) == 2 * (n - 1) + 1
    counts = {}
    for a, b in zip(tour, tour[1:]):
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1
        counts[(a, b)] = counts.get((a, b), 0) + 1
    assert all(v == 1 for v in counts.values())
    assert all((b, a) in counts for a, b in counts)


def tree_graph(d, rows, cols, edges):
    """An unweighted graph with each edge ((r, c), direction) of ``edges``
    stored at both ends, as symmetric storage requires."""
    spec = {}
    for (r, c), dir_ in edges:
        dr, dc = gf.DIR_OFFSETS[dir_]
        spec.setdefault((r, c), {})[dir_] = 1
        spec.setdefault((r + dr, c + dc), {})[gf.opposite(dir_)] = 1
    return make_graph(d, rows, cols, "unweighted", spec)


def test_two_vertex_tree():
    d = make_disk()
    g = tree_graph(d, 1, 2, [((0, 0), gf.E)])
    out = euler.euler_tour(g, 1, root=(0, 0))
    assert tour_coords(d, out, g) == [(0, 0), (0, 1), (0, 0)]


def test_star_tour():
    d = make_disk()
    # center (1,1) joined to all 8 neighbours
    g = tree_graph(d, 3, 3, [((1, 1), dir_) for dir_ in range(8)])
    out = euler.euler_tour(g, 2, root=(1, 1))
    tour = tour_coords(d, out, g)
    assert len(tour) == 17
    assert tour[0] == tour[-1] == (1, 1)
    assert tour[::2] == [(1, 1)] * 9          # back at the center every step
    leaves = [t for t in tour if t != (1, 1)]
    assert sorted(leaves) == sorted(set(leaves))
    # leaves appear clockwise, starting just after the reverse of the
    # fictitious northwest arrival
    assert leaves == [(2, 1), (2, 0), (1, 0), (0, 0),
                      (0, 1), (0, 2), (1, 2), (2, 2)]
    assert oracle.euler_tour(g, (1, 1)) == tour


def test_single_vertex():
    d = make_disk()
    g = tree_graph(d, 1, 1, [])
    d.reset_counters()
    out = euler.euler_tour(g, 1)
    assert tour_coords(d, out, g) == [(0, 0)]
    assert "euler.out.segs" not in d._names
    # no segment, but still the one scan of the input, which checks it
    c = d.counters_snapshot()
    assert (c.blocks_read, c.random_blocks) == (1, 0)


TOUR_CASES = [
    (8, 8, 0, 1), (16, 16, 1, 2), (32, 32, 2, 2), (32, 32, 3, 3),
    (64, 64, 4, 2), (13, 21, 5, 2), (1, 16, 6, 1), (7, 3, 7, 3),
]


def check_oracle_tour(g, h):
    d, rows, cols = g.disk, g.rows, g.cols
    root = (rows // 2, cols // 3)
    out = euler.euler_tour(g, h, root=root)
    got = tour_coords(d, out, g)
    assert got == oracle.euler_tour(g, root)
    check_closure(got, root, g.n)


@pytest.mark.parametrize("rows,cols,seed,h", TOUR_CASES)
def test_matches_oracle_tour(rows, cols, seed, h):
    check_oracle_tour(gf.generate(make_disk(), rows, cols, "tree", seed=seed),
                      h)


def entry_exit(g, h, root):
    """Entry-to-exit maps by cluster rank: {(entry vertex, arrival
    direction): (exit vertex, exit direction) or None for the terminal
    entry}, from Euler's segment scan."""
    maps = {}
    segments = euler._cluster_segments(g, cl.ClusterScheme(g.rows, g.cols, h),
                                       root)
    for rank, entry, arrival, _, exit_edge in segments:
        maps.setdefault(rank, {})[(entry, arrival)] = exit_edge
    return maps


def test_default_root_is_smallest_z():
    d = make_disk()
    g = gf.generate(d, 8, 8, "tree", seed=9)
    out = euler.euler_tour(g, 2)
    assert tour_coords(d, out, g)[0] == (0, 0)


def test_entry_exit_injective():
    d = make_disk()
    g = gf.generate(d, 16, 16, "tree", seed=3)
    maps = entry_exit(g, 2, root=(0, 0))
    for ckey, m in maps.items():
        exits = [e for e in m.values() if e is not None]
        assert len(exits) == len(set(exits)), ckey
        assert len(m) <= 12 * (1 << 2)


def test_leaf_bounce():
    # entering the far cluster, the walk sweeps its whole subtree (out to the
    # leaf and back) before exiting by the reverse of the entry edge
    d = make_disk()
    g = tree_graph(d, 1, 4, [((0, c), gf.E) for c in range(3)])
    maps = entry_exit(g, 1, root=(0, 0))
    m = maps[cl.ClusterScheme(1, 4, 1).rank_of(0, 2)]
    assert m[((0, 2), gf.E)] == ((0, 2), gf.W)


def test_terminal_only_in_root_cluster():
    d = make_disk()
    g = gf.generate(d, 16, 16, "tree", seed=5)
    root = (7, 7)
    maps = entry_exit(g, 2, root=root)
    terminals = [(ckey, k) for ckey, m in maps.items()
                 for k, v in m.items() if v is None]
    assert len(terminals) == 1
    assert terminals[0][0] == cl.ClusterScheme(16, 16, 2).rank_of(*root)


def test_non_tree_rejected():
    d = make_disk()
    g = tree_graph(d, 2, 2, [((0, 0), gf.E), ((0, 0), gf.S),
                             ((0, 1), gf.S), ((1, 0), gf.E)])
    with pytest.raises(euler.EulerError, match="4 edges for 4 vertices"):
        euler.euler_tour(g, 1)


def test_disconnected_rejected():
    d = make_disk()
    g = tree_graph(d, 1, 4, [((0, 0), gf.E), ((0, 2), gf.E)])
    with pytest.raises(euler.EulerError, match="2 edges for 4 vertices"):
        euler.euler_tour(g, 1)


def test_encoding_round_trip():
    d = make_disk()
    g = gf.generate(d, 32, 32, "tree", seed=11)
    stats = euler.EulerStats()
    out = euler.euler_tour(g, 2, root=(0, 0), stats=stats)
    tour = tour_coords(d, out, g)
    check_closure(tour, (0, 0), g.n)
    assert stats.segments >= 1


@contextmanager
def time_limit(seconds=10):
    # a walk that never returns fails the test instead of stalling the suite
    def expire(signum, frame):
        raise TimeoutError("no result within %d s" % seconds)
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def without_arc(t, drop):
    """The unweighted tree ``t`` rebuilt without the arc ``drop``, so its
    reverse is stored one way only."""
    edges = {v: {d: 1 for d, nr, nc, _ in arcs if (v, (nr, nc)) != drop}
             for v, arcs in gf.adjacency(t).items()}
    return make_graph(make_disk(), t.rows, t.cols, "unweighted", edges)


@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_one_way_arc_rejected(h):
    # (0,1) -> (0,2) stored without its reverse: at h = 1 it crosses a
    # cluster boundary, at h = 2 and 3 it lies inside one cluster
    t = gf.generate(make_disk(), 4, 4, "tree", seed=3)
    g = without_arc(t, ((0, 2), (0, 1)))
    assert (0, 2) in [(nr, nc) for _, nr, nc, _ in gf.adjacency(g)[(0, 1)]]
    with time_limit(), pytest.raises(euler.EulerError, match="one-way arc"):
        euler.euler_tour(g, h)


@pytest.mark.parametrize("h", [0, 1, 2, 3])
def test_one_way_pair_rejected(h):
    g = make_graph(make_disk(), 1, 2, "unweighted", {(0, 0): {gf.E: 1}})
    with time_limit(), pytest.raises(euler.EulerError, match="one-way arc"):
        euler.euler_tour(g, h)


@pytest.mark.parametrize("h", [2, 3])
def test_first_one_way_arc_is_named(h):
    # two one-way arcs in one cluster, named by their heads: (0,2) comes
    # first by local id (row-major), (1,0) by local Z rank
    g = make_graph(make_disk(), 8, 8, "unweighted",
                   {(0, 3): {gf.W: 1}, (1, 1): {gf.W: 1}})
    with time_limit(), pytest.raises(euler.EulerError,
                                     match=r"one-way arc at \(0,2\)$"):
        euler.euler_tour(g, h)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.integers(4, 12), st.integers(0, 2 ** 16),
       st.integers(0, 3), st.data())
def test_tree_missing_one_reverse_arc_rejected(rows, cols, seed, h, data):
    t = gf.generate(make_disk(), rows, cols, "tree", seed=seed)
    arcs = sorted((v, (nr, nc)) for v, nbrs in gf.adjacency(t).items()
                  for _, nr, nc, _ in nbrs)
    g = without_arc(t, data.draw(st.sampled_from(arcs)))
    with time_limit(), pytest.raises(euler.EulerError,
                                     match="input is not a tree"):
        euler.euler_tour(g, h)


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("rows,cols", [(13, 7), (32, 32)])
def test_euler_reads_input_once(rows, cols, seed, h):
    # one scan builds every cluster's entries and checks the tree, as the
    # cost model prices it: no pre-pass collects the cross-cluster edges
    d = make_disk()
    g = gf.generate(d, rows, cols, "tree", seed=seed, density=0.6)
    d.reset_counters()
    euler.euler_tour(g, h)
    blk = d.config.block_bytes
    end = g.payload_offset + g.n * g.record_size
    k = (end - 1) // blk - g.payload_offset // blk + 1
    assert d.file_counters(g.handle).blocks_read == k


def test_successor_table_matches_clockwise_search():
    # every (presence mask, arrival) pair against the search the table
    # replaces: first direction clockwise strictly after the reverse
    for dirs in range(256):
        for arrival in range(8):
            back = gf.opposite(arrival)
            want = next(((back + k) % 8 for k in range(1, 9)
                         if dirs >> (back + k) % 8 & 1), None)
            if want is None:
                with pytest.raises(euler.EulerError,
                                   match="isolated vertex on tour"):
                    euler._successor(dirs, arrival)
            else:
                assert euler._successor(dirs, arrival) == want
