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
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field

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


def _norm(u, v):
    return (u, v) if u <= v else (v, u)


def _flip(e):
    return (e[1], e[0], e[2], e[3])


def prune_and_contract(edges: list, keep: set) -> ContractedTree:
    """Contract a forest onto ``keep``: strip keep-free branches, replace
    maximal paths of non-kept degree-2 vertices by one representative edge."""
    ct = ContractedTree()
    adj: dict = {}
    alive = [True] * len(edges)
    for i, (u, v, w, f) in enumerate(edges):
        adj.setdefault(u, set()).add(i)
        adj.setdefault(v, set()).add(i)

    def other(i, x):
        u, v, _, _ = edges[i]
        return v if x == u else u

    # peel non-kept leaves, smallest vertex first for determinism
    heap = [v for v in adj if len(adj[v]) == 1 and v not in keep]
    heapq.heapify(heap)
    while heap:
        v = heapq.heappop(heap)
        if v not in adj or len(adj[v]) != 1 or v in keep:
            continue
        i = next(iter(adj[v]))
        u = other(i, v)
        ct.dead_ends.append(edges[i])
        alive[i] = False
        del adj[v]
        adj[u].discard(i)
        if not adj[u]:
            del adj[u]
        elif len(adj[u]) == 1 and u not in keep:
            heapq.heappush(heap, u)

    def interior(v):
        return v in adj and len(adj[v]) == 2 and v not in keep

    used = set()
    for a in sorted(adj):
        if interior(a):
            continue
        for i in sorted(adj[a]):
            if i in used or not alive[i]:
                continue
            if not interior(other(i, a)):
                continue
            # walk the chain starting at anchor a; since anchors are visited
            # in sorted order the chain is oriented from its smaller anchor
            chain = [edges[i] if edges[i][0] == a else _flip(edges[i])]
            used.add(i)
            cur = other(i, a)
            while interior(cur):
                j = next(k for k in adj[cur] if k != i)
                chain.append(edges[j] if edges[j][0] == cur else _flip(edges[j]))
                used.add(j)
                i, cur = j, other(j, cur)
            maxw = max(e[2] for e in chain)
            heavy = next(k for k, e in enumerate(chain) if e[2] == maxw)
            ct.chains.append(Chain(chain, heavy, (a, cur, maxw)))

    in_chain = {(_norm(u, v), w, f)
                for ch in ct.chains for (u, v, w, f) in ch.edges}
    for i, e in enumerate(edges):
        if not alive[i]:
            continue
        u, v, w, f = e
        if (_norm(u, v), w, f) in in_chain:
            continue
        ct.kept_edges.append(e)
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


def _forest(edge_iter) -> list:
    """Deterministic minimum spanning forest (Kruskal on sorted tuples)."""
    uf = oracle.UnionFind()
    out = []
    for e in sorted(edge_iter, key=lambda e: (e[2], e[0], e[1], e[3])):
        if uf.union(e[0], e[1]):
            out.append(e)
    return out


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
    uf = oracle.UnionFind()
    for u, v, w, f in forest:
        uf.union(u, v)
    with_keep = {uf.find(b) for b in keep if b in uf.p}
    for u, v, w, f in forest:
        if uf.find(u) not in with_keep:
            raise MstError("disconnected input (cluster-interior component)")
    return prune_and_contract(forest, keep)


_UEDGE = struct.Struct("<QQQB")     # coded endpoint, coded endpoint, w, flag


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
    gf.write_header_via(stream, disk, gf.Z_ORDER, "edges",
                        g.rows, g.cols, g.n - 1)
    count = 0

    def emit(u, v, w):
        nonlocal count
        stream.write(struct.pack("<QQQ", zi(u), zi(v), w))
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


def _pack_edges(edges) -> bytes:
    out = bytearray()
    for u, v, w, f in edges:
        out += _EDGE.pack(u[0], u[1], v[0], v[1], w, 1 if f else 0)
    return bytes(out)


def _unpack_edges(raw, offset, count):
    out = []
    for i in range(count):
        r1, c1, r2, c2, w, f = _EDGE.unpack_from(raw, offset + i * _EDGE.size)
        out.append(((r1, c1), (r2, c2), w, bool(f)))
    return out, offset + count * _EDGE.size


def _pack_connections(tree, out_edges) -> bytes:
    return _CNT2.pack(len(tree), len(out_edges)) + _pack_edges(tree) \
        + _pack_edges(out_edges)


def _unpack_connections(raw):
    ntree, nout = _CNT2.unpack_from(raw, 0)
    tree, off = _unpack_edges(raw, _CNT2.size, ntree)
    out_edges, _ = _unpack_edges(raw, off, nout)
    return tree, out_edges


def _pack_expansions(ct: ContractedTree) -> bytes:
    out = bytearray(_CNT2.pack(len(ct.dead_ends), len(ct.chains)))
    out += _pack_edges(ct.dead_ends)
    for ch in ct.chains:
        out += _CNT2.pack(len(ch.edges), ch.heavy_idx)
        out += _pack_edges(ch.edges)
    return bytes(out)


def _unpack_expansions(raw):
    ndead, nchain = _CNT2.unpack_from(raw, 0)
    dead, off = _unpack_edges(raw, _CNT2.size, ndead)
    chains = []
    for _ in range(nchain):
        nedges, heavy = _CNT2.unpack_from(raw, off)
        edges, off = _unpack_edges(raw, off + _CNT2.size, nedges)
        chains.append(Chain(edges, heavy, (edges[0][0], edges[-1][1],
                                           max(e[2] for e in edges))))
    return ContractedTree([], dead, chains)


def _quadrants(r0, c0, size):
    half = size // 2
    yield r0, c0, half                    # top left
    yield r0, c0 + half, half             # top right
    yield r0 + half, c0, half             # bottom left
    yield r0 + half, c0 + half, half      # bottom right


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

    def in_grid(r0, c0):
        return r0 < rows and c0 < cols

    def upward(r0, c0, size):
        if size == 1:
            mask, weights = gf.decode_record("weighted_undirected",
                                             reader.read(rs))
            out_edges = []
            for d in gf.OWNED_SLOTS:
                if mask >> d & 1:
                    dr, dc = gf.DIR_OFFSETS[d]
                    out_edges.append(((r0, c0), (r0 + dr, c0 + dc),
                                      weights[d], False))
            conn.push(_pack_connections([], out_edges))
            return
        for qr, qc, qs in _quadrants(r0, c0, size):
            if in_grid(qr, qc):
                upward(qr, qc, qs)
        records = [_unpack_connections(conn.pop())
                   for _ in range(sum(1 for qr, qc, _ in
                                      _quadrants(r0, c0, size)
                                      if in_grid(qr, qc)))]
        candidates = []
        out_edges = []
        r1, c1 = r0 + size, c0 + size
        for tree, outs in records:
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

    def split(part, r0, c0, size):
        """Distribute a region's tree part among its child quadrants."""
        quads = list(_quadrants(r0, c0, size))

        def quad_of(v):
            for k, (qr, qc, qs) in enumerate(quads):
                if qr <= v[0] < qr + qs and qc <= v[1] < qc + qs:
                    return k
            return None

        parts = [[], [], [], []]
        for e in part:
            qu, qv = quad_of(e[0]), quad_of(e[1])
            if qu is not None and qv is not None and qu != qv:
                # a cross-child edge is a real grid edge; its owner is the
                # lexicographically smaller endpoint
                qu, qv = (qu, qv) if e[0] < e[1] else (qv, qu)
            parts[qu if qu is not None else qv].append(e)
        return quads, parts

    emitted = 0
    z_of = gf.z_tables(rows, cols)[0]
    handle = disk.open_file(out_name)
    stream = disk.append_stream(handle)
    gf.write_header_via(stream, disk, gf.Z_ORDER, "edges",
                        rows, cols, g.n - 1)

    def downward(part, r0, c0, size):
        nonlocal emitted
        if size == 1:
            for u, v, w, f in part:
                stream.write(struct.pack(
                    "<QQQ", int(z_of[u[0] * cols + u[1]]),
                    int(z_of[v[0] * cols + v[1]]), w))
                emitted += 1
            return
        ct = _unpack_expansions(expn.pop())
        reps = {(_norm(ch.rep[0], ch.rep[1]), ch.rep[2]): ch
                for ch in ct.chains}
        won = set()
        edges = list(ct.dead_ends)
        for e in part:
            u, v, w, f = e
            key = (_norm(u, v), w)
            if f and key in reps:
                edges.extend(reps[key].edges)
                won.add(key)
                continue
            edges.append(e)
        for key, ch in reps.items():
            if key in won:
                continue
            edges.extend(e for k, e in enumerate(ch.edges)
                         if k != ch.heavy_idx)
        quads, parts = split(edges, r0, c0, size)
        for (qr, qc, qs), sub in zip(quads, parts):
            if in_grid(qr, qc):
                conn.push(_pack_connections(sub, []))
        for (qr, qc, qs), _ in reversed(list(zip(quads, parts))):
            if in_grid(qr, qc):
                sub, _ = _unpack_connections(conn.pop())
                downward(sub, qr, qc, qs)

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
        a, b, w = struct.unpack_from("<QQQ", raw, off + 24 * i)
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
