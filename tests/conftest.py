import heapq
import random
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).parent))

from gridscan.simdisk import SimConfig, SimDisk
from gridscan import gridfmt as gf
from gridscan import clusters as cl
from gridscan import mst, oracle, sssp


def coord_to_index(rows: int, cols: int, row: int, col: int) -> int:
    """Z-order vertex index of 1-based (row, col)."""
    if not (1 <= row <= rows and 1 <= col <= cols):
        raise gf.FormatError("coordinate (%d,%d) outside %dx%d grid"
                             % (row, col, rows, cols))
    return int(gf.z_tables(rows, cols)[0][(row - 1) * cols + col - 1])


def index_to_coord(rows: int, cols: int, index: int) -> tuple[int, int]:
    """1-based (row, col) of a Z-order vertex index."""
    if not (0 <= index < rows * cols):
        raise gf.FormatError("index %d outside grid" % index)
    cell = int(gf.z_tables(rows, cols)[1][index])
    return cell // cols + 1, cell % cols + 1


def arcs_by_vertex(q) -> list:
    """Per local cell of the cluster ``q``, its intra-cluster arcs as
    (dir, head, weight), rebuilt from the cluster's arc columns."""
    return [list(zip(q.dirs[a:b], q.head[a:b], q.weight[a:b]))
            for a, b in zip(q.first, q.first[1:])]


def cluster_undirected_edges(q) -> list:
    """Intra-cluster edges of the cluster ``q`` once each, as stored at
    their owners, endpoints as cluster-local ids."""
    return [(v, q.head[i], q.weight[i], False)
            for v in range(q.n) for i in range(q.first[v], q.first[v + 1])]


def union_contains_mst_check(g: gf.GridGraph, h: int) -> bool:
    """True iff the union of all per-cluster minimum spanning forests and the
    cross-cluster edges still contains a minimum spanning tree of the grid."""
    gf.check_input(g, ("weighted_undirected",), mst.MstError)
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    union = []
    for q in cl.iterate_clusters(g, scheme):
        for u, v, w, f in mst._forest(cluster_undirected_edges(q)):
            union.append((w, q.coord(u), q.coord(v)))
        union += [(w, q.coord(v), (nr, nc))
                  for v, _, nr, nc, w in q.out_edges]
    cells = [(r, c) for r in range(g.rows) for c in range(g.cols)]
    total_u, _ = oracle.kruskal(union, vertices=cells)
    total_g, _ = oracle.mst(g)
    return total_u == total_g


def make_disk(block=64, mem_blocks=None):
    mem = block * (mem_blocks if mem_blocks else block)
    return SimDisk(SimConfig(block_bytes=block, memory_bytes=mem))


def make_graph(disk, rows, cols, encoding, edges, name="input"):
    """Build a graph file from {(r,c): {direction: weight}} (0-based cells)."""
    handle = disk.open_file(name)
    g = gf.GridGraph(disk, handle, gf.Z_ORDER, encoding, rows, cols,
                     rows * cols)
    g.write_header()
    stream = disk.append_stream(handle, g.payload_offset)
    for idx in range(rows * cols):
        row, col = index_to_coord(rows, cols, idx)
        spec = edges.get((row - 1, col - 1), {})
        mask = sum(1 << d for d in spec)
        stream.write(gf.encode_record(encoding, mask, dict(spec)))
    stream.close()
    return g


def dense_digraph(disk, rows, cols, seed, p=0.6):
    """Each of the 8 neighbour arcs present with probability ``p``, weight
    uniform in [1, 2^20)."""
    rng = random.Random(seed)
    edges = {}
    for r in range(rows):
        for c in range(cols):
            spec = {}
            for d, (dr, dc) in enumerate(gf.DIR_OFFSETS):
                if (0 <= r + dr < rows and 0 <= c + dc < cols
                        and rng.random() < p):
                    spec[d] = rng.randrange(1, 2 ** 20)
            edges[(r, c)] = spec
    return make_graph(disk, rows, cols, "weighted_directed", edges)


def phase3_by_z(g, distances):
    """Phase 3's stream of (cluster, distances) as one list in Z-order,
    ABSENT where unreachable."""
    z_of = gf.z_tables(g.rows, g.cols)[0]
    out = [None] * g.n
    for q, dist in distances:
        for v, dv in enumerate(dist):
            r, c = q.coord(v)
            out[z_of[r * g.cols + c]] = gf.ABSENT if dv == cl.INF else dv
    return out


def spy_phase2(mp):
    """Record, through the ``pytest.MonkeyPatch`` ``mp``, what
    ``sssp.solve_in_key_order`` pushes on its heap, pops off it and settles.
    Returns the event list the solver fills as it runs: ("push", entry),
    ("pop", entry) and ("settle", rank, least), an entry being (key, tie,
    rank) and ``least`` mapping each cluster the step hands back for
    refreshing to its least tentative distance, None if it holds none."""
    events, settle = [], sssp._settle

    def push(heap, entry):
        events.append(("push", entry))
        heapq.heappush(heap, entry)

    def pop(heap):
        entry = heapq.heappop(heap)
        events.append(("pop", entry))
        return entry

    def spy(gp, dfile, rank, best, stats):
        touched = settle(gp, dfile, rank, best, stats)
        least = {r: sssp._min_tentative(vals) for r, vals in touched.items()}
        events.append(("settle", rank, {r: None if b is None else b[0]
                                        for r, b in least.items()}))
        return touched

    mp.setattr(sssp, "heapq", SimpleNamespace(heappush=push, heappop=pop))
    mp.setattr(sssp, "_settle", spy)
    return events


def phase2_pops(events):
    """Per pop of ``spy_phase2``'s events, in order: (entry, the entries on
    the heap just before it, the popped cluster's least tentative distance
    as its last refresh left it, None if none, and whether the solver
    settled the cluster next)."""
    heap, keys, pops = [], {}, []
    for i, event in enumerate(events):
        if event[0] == "push":
            heap.append(event[1])
            keys[event[1][2]] = event[1][0]
        elif event[0] == "pop":
            entry = event[1]
            nxt = events[i + 1] if i + 1 < len(events) else ("end",)
            settled = nxt[0] == "settle"
            assert not settled or nxt[1] == entry[2]
            pops.append((entry, list(heap), keys.get(entry[2]), settled))
            heap.remove(entry)
        else:
            keys.update(event[2])
    assert heap == []
    return pops


def grid4_edges(rows, cols, weight=1, both_dirs=True):
    """All horizontal/vertical edges; directed both ways if both_dirs."""
    edges = {}
    for r in range(rows):
        for c in range(cols):
            spec = {}
            for d in (gf.N, gf.E, gf.S, gf.W) if both_dirs else (gf.E, gf.S):
                dr, dc = gf.DIR_OFFSETS[d]
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    spec[d] = weight
            edges[(r, c)] = spec
    return edges
