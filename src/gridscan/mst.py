"""Minimum spanning trees with bounded-memory cluster processing.

Two variants share the pruning/contraction toolkit:

* ``mst_cache_aware`` builds per-cluster spanning forests in memory, contracts
  them onto the cluster boundaries, solves the contracted union plus the
  cross-cluster edges globally, and re-expands cluster by cluster.
* ``mst_cache_oblivious`` runs the same idea over the quadtree of the padded
  square, bottom-up then top-down, touching only a sequential input scan, a
  sequential output stream, and two stacks; it never inspects the block or
  memory size.

Contraction replaces every maximal chain of non-kept degree-2 vertices by a
representative edge carrying the chain's maximum weight, and strips branches
("dead ends") that contain no kept vertex.  Both moves are reversible: a
representative that survives upstream selection expands to its whole chain, a
representative that loses expands to the chain minus one heaviest edge, and
dead ends are bridges, so they are reinstated unconditionally.

Stack records of ``mst_cache_oblivious`` are little-endian and unpadded.  An
edge is ``<IIIIQB``: r1, c1, r2, c2 (0-based), weight, and a flag that is 1
for a representative.  A connections record is ``<II`` (tree edge count,
outgoing edge count), then the tree edges, then the outgoing edges.  An
expansions record is ``<II`` (dead-end count, chain count), then the dead
ends, then per chain ``<II`` (length, index of its first heaviest edge) and
its edges in walk order.  ``FileStack`` frames each record with a trailing
u32 length.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from operator import itemgetter

from . import gridfmt as gf
from . import clusters as cl
from . import oracle
from .simdisk import SimDisk, FileStack


class MstError(Exception):
    pass


# ---------------------------------------------------------------------------
# Pruning and contraction
#
# Edges everywhere below are (u, v, weight, rep_flag) with comparable,
# hashable vertex ids ((row, col) pairs in the solvers).


@dataclass
class Chain:
    edges: list                     # oriented u0 -> um along the walk
    heavy_idx: int                  # first position of the maximal weight
    rep: tuple                      # (u0, um, max weight)


@dataclass
class ContractedTree:
    kept_edges: list = field(default_factory=list)   # incl. representatives
    dead_ends: list = field(default_factory=list)    # leaf-first removal order
    chains: list = field(default_factory=list)


_BY_WEIGHT = itemgetter(2, 0, 1, 3)       # (w, u, v, flag)


def _norm(u, v):
    return (u, v) if u <= v else (v, u)


def _flip(e):
    return (e[1], e[0], e[2], e[3])


def prune_and_contract(edges: list, keep: set) -> ContractedTree:
    """Contract a forest onto ``keep``: strip keep-free branches, replace
    maximal paths of non-kept degree-2 vertices by one representative edge."""
    if all(u in keep and v in keep for u, v, _, _ in edges):
        return ContractedTree(list(edges))
    ct = ContractedTree()
    nbrs: dict = {}                 # vertex -> {edge index: other endpoint}
    for i, (u, v, _, _) in enumerate(edges):
        nbrs.setdefault(u, {})[i] = v
        nbrs.setdefault(v, {})[i] = u
    alive = [True] * len(edges)     # neither stripped nor in a chain

    # peel non-kept leaves, smallest vertex first for determinism
    heap = [v for v, nb in nbrs.items() if len(nb) == 1 and v not in keep]
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        if v not in nbrs or len(nbrs[v]) != 1:
            continue
        (i, u), = nbrs.pop(v).items()
        ct.dead_ends.append(edges[i])
        alive[i] = False
        nu = nbrs[u]
        del nu[i]
        if not nu:
            del nbrs[u]
        elif len(nu) == 1 and u not in keep:
            heapq.heappush(heap, u)

    interior = {v for v, nb in nbrs.items() if len(nb) == 2 and v not in keep}
    anchors = {x for v in interior for x in nbrs[v].values()} - interior
    for a in sorted(anchors):
        for i in sorted(nbrs[a]):
            cur = nbrs[a][i]
            if not alive[i] or cur not in interior:
                continue
            # walk the chain starting at anchor a; since anchors are visited
            # in sorted order the chain is oriented from its smaller anchor
            chain = [edges[i] if edges[i][0] == a else _flip(edges[i])]
            alive[i] = False
            while cur in interior:
                j, k = nbrs[cur]
                if j == i:
                    j = k
                chain.append(edges[j] if edges[j][0] == cur else _flip(edges[j]))
                alive[j] = False
                i, cur = j, nbrs[cur][j]
            maxw = max(e[2] for e in chain)
            heavy = next(k for k, e in enumerate(chain) if e[2] == maxw)
            ct.chains.append(Chain(chain, heavy, (a, cur, maxw)))

    # a forest has no parallel edges, so an edge left alive is in no chain
    ct.kept_edges = [e for e, live in zip(edges, alive) if live]
    for ch in ct.chains:
        a, b, maxw = ch.rep
        ct.kept_edges.append((a, b, maxw, True))
    return ct


def _rep_keys(ct: ContractedTree) -> set:
    return {(_norm(ch.rep[0], ch.rep[1]), ch.rep[2]) for ch in ct.chains}


def expand(ct: ContractedTree) -> list:
    """Inverse of prune_and_contract: the original edge multiset."""
    reps = _rep_keys(ct)
    out = []
    for e in ct.kept_edges:
        u, v, w, f = e
        if f and (_norm(u, v), w) in reps:
            continue
        out.append(e)
    for ch in ct.chains:
        out.extend(ch.edges)
    out.extend(ct.dead_ends)
    return out


def _find(parent: dict, x):
    """Root of ``x`` in a union-find forest kept as child -> parent links
    (a root has no entry); compresses the path it walks."""
    root = x
    while root in parent:
        root = parent[root]
    while x != root:
        parent[x], x = root, parent[x]
    return root


def _union(parent: dict, u, v) -> bool:
    """Join the sets of ``u`` and ``v``; False if they were one set."""
    a, b = _find(parent, u), _find(parent, v)
    if a == b:
        return False
    parent[a] = b
    return True


def _forest(edge_iter) -> list:
    """Deterministic minimum spanning forest (Kruskal on sorted tuples)."""
    parent = {}
    return [e for e in sorted(edge_iter, key=_BY_WEIGHT)
            if _union(parent, e[0], e[1])]


# ---------------------------------------------------------------------------
# Cache-aware variant


def _cluster_undirected_edges(q: cl.InMemoryCluster) -> list:
    """Intra-cluster edges once each, endpoints as 0-based global coords."""
    seen = set()
    out = []
    for v in range(q.n):
        vr, vc = divmod(v, q.wid)
        for d, lr, lc, w in q.intra[v]:
            a, b = _norm((vr + q.r0, vc + q.c0), (lr + q.r0, lc + q.c0))
            if (a, b) in seen:
                continue
            seen.add((a, b))
            out.append((a, b, w, False))
    return out


def _contract_cluster(q: cl.InMemoryCluster) -> ContractedTree:
    forest = _forest(_cluster_undirected_edges(q))
    keep = set(q.boundary)
    # an intra-cluster component that misses the boundary ring has no edge to
    # the rest of the grid at all
    parent = {}
    for u, v, w, f in forest:
        _union(parent, u, v)
    with_keep = {_find(parent, b) for b in keep}
    for u, v, w, f in forest:
        if _find(parent, u) not in with_keep:
            raise MstError("disconnected input (cluster-interior component)")
    return prune_and_contract(forest, keep)


_UEDGE = struct.Struct("<QQQB")     # coded endpoint, coded endpoint, w, flag
_OUT = struct.Struct("<QQQ")        # output record: z, z, weight


def mst_cache_aware(g: gf.GridGraph, h: int, out_name: str = "mst.out"):
    """Cluster-contracted MST.

    Output records are (z, z, weight) in the order clusters are rescanned for
    re-expansion, with the chosen cross-cluster edges appended last.
    """
    gf.check_input(g, ("weighted_undirected",), MstError)
    disk = g.disk
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    z_of, cell_of_z = gf.z_tables(g.rows, g.cols)

    def zi(v):
        return int(z_of[v[0] * g.cols + v[1]])

    # phase 1: contract every cluster; stream trees plus the cross-cluster
    # edges (owner side once) to the contracted-union file.  Flag bit 0 marks
    # representative edges, bit 1 intra-cluster edges.
    u_handle = disk.open_file(out_name + ".union")
    u_stream = disk.append_stream(u_handle)
    u_count = 0
    for q in cl.iterate_clusters(g, scheme):
        ct = _contract_cluster(q)
        for u, v, w, f in ct.kept_edges:
            u_stream.write(_UEDGE.pack(zi(u), zi(v), w, 2 | (1 if f else 0)))
            u_count += 1
        for lr, lc, d, nr, nc, w in q.out_edges:
            a = (lr + q.r0, lc + q.c0)
            u_stream.write(_UEDGE.pack(zi(a), zi((nr, nc)), w, 0))
            u_count += 1
    u_stream.close()

    # phase 2: minimum spanning forest of the contracted union, in memory
    raw = disk.read_direct(u_handle, 0, u_count * _UEDGE.size)
    uedges = []
    for i in range(u_count):
        a, b, w, f = _UEDGE.unpack_from(raw, i * _UEDGE.size)
        uedges.append((min(a, b), max(a, b), w, f))
    chosen_intra = set()
    chosen_cross = []
    for a, b, w, f in _forest(uedges):
        if f & 2:
            chosen_intra.add((a, b, w, bool(f & 1)))
        else:
            chosen_cross.append((a, b, w))

    # phase 3: rescan, recompute each cluster's contraction, re-expand
    handle = disk.open_file(out_name)
    stream = disk.append_stream(handle)
    gf.write_header_via(stream, disk, "edges", g.rows, g.cols, g.n - 1)
    count = 0

    def emit(u, v, w):
        nonlocal count
        stream.write(_OUT.pack(zi(u), zi(v), w))
        count += 1

    def zkey(u, v, w, f):
        a, b = zi(u), zi(v)
        return (min(a, b), max(a, b), w, f)

    for q in cl.iterate_clusters(g, scheme):
        ct = _contract_cluster(q)
        reps = _rep_keys(ct)
        for u, v, w, f in ct.dead_ends:
            emit(u, v, w)
        for u, v, w, f in ct.kept_edges:
            if f and (_norm(u, v), w) in reps:
                continue
            if zkey(u, v, w, f) in chosen_intra:
                emit(u, v, w)
        for ch in ct.chains:
            a, b, maxw = ch.rep
            if zkey(a, b, maxw, True) in chosen_intra:
                for u, v, w, f in ch.edges:
                    emit(u, v, w)
            else:
                for k, (u, v, w, f) in enumerate(ch.edges):
                    if k != ch.heavy_idx:
                        emit(u, v, w)
    for a, b, w in chosen_cross:
        ca, cb = int(cell_of_z[a]), int(cell_of_z[b])
        emit(divmod(ca, g.cols), divmod(cb, g.cols), w)
    stream.close()
    if count != g.n - 1:
        raise MstError("disconnected input: %d tree edges for %d vertices"
                       % (count, g.n))
    return handle


# ---------------------------------------------------------------------------
# Cache-oblivious variant

_EDGE = struct.Struct("<IIIIQB")    # r1, c1, r2, c2, w, flag
_CNT2 = struct.Struct("<II")


def _pack_run(a: int, b: int, edges) -> bytes:
    """Two u32 counts, then the edges."""
    pack = _EDGE.pack
    return _CNT2.pack(a, b) + b"".join(
        [pack(r1, c1, r2, c2, w, f) for (r1, c1), (r2, c2), w, f in edges])


def _unpack_run(raw, offset: int, k: int):
    """The ``k`` edges after the two counts at ``offset``, and the offset
    past them."""
    start = offset + _CNT2.size
    end = start + k * _EDGE.size
    return ([((r1, c1), (r2, c2), w, f != 0)
             for r1, c1, r2, c2, w, f in _EDGE.iter_unpack(raw[start:end])],
            end)


def _pack_connections(tree, out_edges) -> bytes:
    return _pack_run(len(tree), len(out_edges), tree + out_edges)


def _unpack_connections(raw):
    # the edge count follows from the record's length
    ntree = _CNT2.unpack_from(raw)[0]
    edges, _ = _unpack_run(raw, 0, (len(raw) - _CNT2.size) // _EDGE.size)
    return edges[:ntree], edges[ntree:]


def _pack_expansions(ct: ContractedTree) -> bytes:
    out = [_pack_run(len(ct.dead_ends), len(ct.chains), ct.dead_ends)]
    for ch in ct.chains:
        out.append(_pack_run(len(ch.edges), ch.heavy_idx, ch.edges))
    return b"".join(out)


def _unpack_expansions(raw):
    ndead, nchain = _CNT2.unpack_from(raw)
    dead, off = _unpack_run(raw, 0, ndead)
    chains = []
    for _ in range(nchain):
        nedges, heavy = _CNT2.unpack_from(raw, off)
        edges, off = _unpack_run(raw, off, nedges)
        chains.append(Chain(edges, heavy, (edges[0][0], edges[-1][1],
                                           max(e[2] for e in edges))))
    return ContractedTree([], dead, chains)


def _quadrants(r0, c0, size, rows, cols):
    """(index, row, col) of the child quadrants that meet the grid; index 0..3
    is top left, top right, bottom left, bottom right."""
    half = size // 2
    return [(k, r, c) for k, (r, c) in enumerate(
                ((r0, c0), (r0, c0 + half), (r0 + half, c0),
                 (r0 + half, c0 + half)))
            if r < rows and c < cols]


def _region_ring(r0, c0, size, rows, cols) -> set:
    ring = set()
    for c in range(c0, min(c0 + size, cols)):
        for r in (r0, r0 + size - 1):
            if r < rows:
                ring.add((r, c))
    for r in range(r0, min(r0 + size, rows)):
        for c in (c0, c0 + size - 1):
            if c < cols:
                ring.add((r, c))
    return ring


def _split(part, r0, c0, size) -> list:
    """Distribute a region's tree part among its four child quadrants.

    An edge goes to the child that holds its owner: its lexicographically
    smaller endpoint, or its other one if the smaller lies outside the region
    (an edge that leaves the region)."""
    half = size // 2
    rm, cm, r1, c1 = r0 + half, c0 + half, r0 + size, c0 + size
    parts = [[], [], [], []]
    for e in part:
        u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
        if not (r0 <= u[0] < r1 and c0 <= u[1] < c1):
            u = v
        parts[(2 if u[0] >= rm else 0) + (1 if u[1] >= cm else 0)].append(e)
    return parts


def mst_cache_oblivious(g: gf.GridGraph, out_name: str = "mst.out"):
    """Two-stack quadtree MST over the padded square.

    Bottom-up, each region pushes its contracted spanning forest plus its
    outgoing edges onto the connections stack and the pruned structure onto
    the expansions stack.  Top-down, each region pops its expansions record,
    re-expands its part of the tree, splits it among its children via the
    connections stack, and the leaves append their owned edges to the output.
    The input is consumed by one sequential scan in leaf order.
    """
    gf.check_input(g, ("weighted_undirected",), MstError)
    disk = g.disk
    rows, cols = g.rows, g.cols
    side = 1
    while side < max(rows, cols):
        side *= 2
    cfg = disk.config
    conn = FileStack(disk, disk.open_file(out_name + ".conn"),
                     max(1, cfg.memory_bytes // (2 * cfg.block_bytes)))
    expn = FileStack(disk, disk.open_file(out_name + ".expn"),
                     max(1, cfg.memory_bytes // (4 * cfg.block_bytes)))
    reader = disk.scan_reader(g.handle, g.payload_offset)
    rs = g.record_size
    owned = [(d, *gf.DIR_OFFSETS[d]) for d in gf.OWNED_SLOTS]

    def upward(r0, c0, size):
        if size == 1:
            mask, weights = gf.decode_record("weighted_undirected",
                                             reader.read(rs))
            out_edges = []
            for d, dr, dc in owned:
                if mask >> d & 1:
                    r, c = r0 + dr, c0 + dc
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise gf.FormatError("edge leaves the grid at (%d,%d)"
                                             % (r0, c0))
                    out_edges.append(((r0, c0), (r, c), weights[d], False))
            conn.push(_pack_connections([], out_edges))
            return
        quads = _quadrants(r0, c0, size, rows, cols)
        for _, qr, qc in quads:
            upward(qr, qc, size // 2)
        candidates = []
        out_edges = []
        r1, c1 = r0 + size, c0 + size
        for _ in quads:
            tree, outs = _unpack_connections(conn.pop())
            candidates.extend(tree)
            for e in outs:
                vr, vc = e[1]
                if r0 <= vr < r1 and c0 <= vc < c1:
                    candidates.append(e)
                else:
                    out_edges.append(e)
        forest = _forest(candidates)
        ct = prune_and_contract(forest,
                                _region_ring(r0, c0, size, rows, cols))
        conn.push(_pack_connections(ct.kept_edges, out_edges))
        expn.push(_pack_expansions(ct))

    emitted = 0
    z_of = gf.z_tables(rows, cols)[0].tolist()
    handle = disk.open_file(out_name)
    stream = disk.append_stream(handle)
    gf.write_header_via(stream, disk, "edges", rows, cols, g.n - 1)

    def downward(part, r0, c0, size):
        nonlocal emitted
        if size == 1:
            stream.write(b"".join([_OUT.pack(z_of[u[0] * cols + u[1]],
                                             z_of[v[0] * cols + v[1]], w)
                                   for u, v, w, f in part]))
            emitted += len(part)
            return
        ct = _unpack_expansions(expn.pop())
        reps = {(_norm(ch.rep[0], ch.rep[1]), ch.rep[2]): ch
                for ch in ct.chains}
        won = set()
        edges = list(ct.dead_ends)
        for e in part:
            u, v, w, f = e
            if f:
                key = (_norm(u, v), w)
                if key in reps:
                    edges.extend(reps[key].edges)
                    won.add(key)
                    continue
            edges.append(e)
        for key, ch in reps.items():
            if key in won:
                continue
            edges.extend(e for k, e in enumerate(ch.edges)
                         if k != ch.heavy_idx)
        parts = _split(edges, r0, c0, size)
        quads = _quadrants(r0, c0, size, rows, cols)
        for k, _, _ in quads:
            conn.push(_pack_connections(parts[k], []))
        for _, qr, qc in reversed(quads):
            sub, _ = _unpack_connections(conn.pop())
            downward(sub, qr, qc, size // 2)

    if side == 1:
        # single-cell grid: empty tree, header only
        reader.read(rs)
        stream.close()
        if g.n != 1:
            raise MstError("internal: padded side 1 for multi-cell grid")
        return handle

    upward(0, 0, side)
    tree, _ = _unpack_connections(conn.pop())
    downward(tree, 0, 0, side)
    stream.close()
    if conn.count or expn.count:
        raise MstError("internal: stacks not drained")
    if emitted != g.n - 1:
        raise MstError("disconnected input: %d tree edges for %d vertices"
                       % (emitted, g.n))
    return handle


def read_mst(disk: SimDisk, handle) -> list:
    g = gf.open_grid(disk, handle)
    raw = disk.raw_bytes(handle)
    off = g.payload_offset
    out = []
    for i in range(g.count):
        a, b, w = _OUT.unpack_from(raw, off + _OUT.size * i)
        out.append((a, b, w))
    return out


def mst_edge_coords(disk: SimDisk, handle) -> list:
    """Output edges as ((r1,c1), (r2,c2), w) with 0-based coordinates."""
    g = gf.open_grid(disk, handle)
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    out = []
    for a, b, w in read_mst(disk, handle):
        ca, cb = int(cell_of_z[a]), int(cell_of_z[b])
        out.append((divmod(ca, g.cols), divmod(cb, g.cols), w))
    return out


# ---------------------------------------------------------------------------
# Property harness


def union_contains_mst_check(g: gf.GridGraph, h: int) -> bool:
    """True iff the union of all per-cluster minimum spanning forests and the
    cross-cluster edges still contains a minimum spanning tree of the grid."""
    gf.check_input(g, ("weighted_undirected",), MstError)
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    union = []
    for q in cl.iterate_clusters(g, scheme):
        for u, v, w, f in _forest(_cluster_undirected_edges(q)):
            union.append((w, u, v))
        for lr, lc, d, nr, nc, w in q.out_edges:
            a = (lr + q.r0, lc + q.c0)
            if a < (nr, nc):
                union.append((w, a, (nr, nc)))
    cells = [(r, c) for r in range(g.rows) for c in range(g.cols)]
    total_u, _ = oracle.kruskal(union, vertices=cells)
    total_g, _ = oracle.mst(g)
    return total_u == total_g
