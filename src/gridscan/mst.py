"""Minimum spanning trees with bounded-memory cluster processing.

Two variants share the pruning/contraction toolkit:

* ``mst_cache_aware`` builds per-cluster spanning forests in memory, contracts
  them onto the cluster boundaries, solves the contracted union plus the
  cross-cluster edges globally, and re-expands cluster by cluster.
* ``mst_cache_oblivious`` runs the same idea over the quadtree of the padded
  square, bottom-up then top-down, touching only a sequential input scan, a
  sequential output stream, and two stacks, which the disk's LRU cache
  holds; it never inspects the block or memory size.

Contraction replaces every maximal chain of non-kept degree-2 vertices by a
representative edge carrying the chain's maximum weight, and strips branches
("dead ends") that contain no kept vertex.  Both moves are reversible: a
representative that survives upstream selection expands to its whole chain, a
representative that loses expands to the chain minus one heaviest edge, and
dead ends are bridges, so they are reinstated unconditionally.

Stack records of ``mst_cache_oblivious`` are little-endian and unpadded.
Vertices are row-major cell ids ``r * cols + c``, which order exactly like
``(r, c)`` pairs, so weight ties, edge owners and chain orientation resolve
as they would with coordinates.  A u32 id bounds the grid to rows * cols <=
2^32 cells; ``gf.open_grid`` wants the whole payload, 32 bytes a cell, on
the simulated disk, so no file it opens comes near.  A connections record
is ``<II`` (tree edge count, outgoing edge count), then the tree edges,
then the outgoing edges, each edge ``<IIQ?``, 17 bytes: two cell ids, the
weight, and a flag byte that is 1 for a representative.  An expansions
record stores its edges as grid walks, in arrays: the header ``<IIB``
(dead-end count, chain count, ``wb``, the byte width of the record's
largest weight, 1..8); a u32 first end per dead end; ``<III`` per chain
(length, index of its first heaviest edge, first end); one step code byte
per edge, dead ends first, then the chains' edges in walk order, where
0..7 indexes ``gf.DIR_OFFSETS`` and 8 marks a representative; each weight
in ``wb`` bytes, in the same order; and a u32 far end per representative.
A chain edge starts where the one before it ends.  ``FileStack`` frames
each record with a trailing u32 length.  Regions of side 4 or less are the
base case: the quadrants below them touch neither stack, and a region of
side 2, only ever the root of a grid of at most 2x2, pushes no expansions
record.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from .simdisk import SimDisk, FileStack


class MstError(Exception):
    pass


# ---------------------------------------------------------------------------
# Pruning and contraction
#
# Edges everywhere below are (u, v, weight, rep_flag) with integer vertex
# ids that order like (row, col) pairs: cluster-local ids lr * wid + lc in the
# cache-aware solver, row-major cell ids r * cols + c in the cache-oblivious
# one.  Weight ties, leaf peeling and chain orientation so resolve as they
# would with coordinates.


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


def expand(ct: ContractedTree, part=None) -> list:
    """Inverse of prune_and_contract on ``part``, a subset of the kept edges
    (all of them by default, which gives back the original edge multiset).

    Dead ends come first, then ``part`` with each chosen representative
    replaced by its whole chain, in its place, then every chain whose
    representative was not chosen, without its first heaviest edge.
    """
    reps = {(_norm(ch.rep[0], ch.rep[1]), ch.rep[2]): ch for ch in ct.chains}
    out = list(ct.dead_ends)
    for e in ct.kept_edges if part is None else part:
        u, v, w, f = e
        ch = reps.pop((_norm(u, v), w), None) if f else None
        out.extend(ch.edges if ch else [e])
    for ch in reps.values():
        out.extend(e for k, e in enumerate(ch.edges) if k != ch.heavy_idx)
    return out


def _forest(edge_iter) -> list:
    """Deterministic minimum spanning forest (Kruskal on sorted tuples).

    The union-find forest is a dict of child -> parent links, a root having
    no entry; each find points the path it walked at the root.  Which edges
    Kruskal keeps depends only on the sort order."""
    parent = {}
    forest = []
    for e in sorted(edge_iter, key=_BY_WEIGHT):
        u, v = e[0], e[1]
        a = u
        while a in parent:
            a = parent[a]
        while u != a:
            parent[u], u = a, parent[u]
        b = v
        while b in parent:
            b = parent[b]
        while v != b:
            parent[v], v = b, parent[v]
        if a != b:
            parent[a] = b
            forest.append(e)
    return forest


# ---------------------------------------------------------------------------
# Cache-aware variant


def _contracted_clusters(g: gf.GridGraph, scheme: cl.ClusterScheme):
    """Each cluster, in Z-rank order, with its contraction.

    Kruskal's order, (weight, tail, head), comes from one ``np.lexsort``
    per run of ``cl.iterate_runs``, the cluster as the first key, so a
    cluster's edges are one slice of it."""
    for qs in cl.iterate_runs(g, scheme):
        if not qs:
            continue
        m = qs[0].n
        tail = np.repeat(np.arange(len(qs) * m),
                         np.diff(np.array([q.first for q in qs])).ravel())
        head = np.fromiter(chain.from_iterable(q.head for q in qs), np.int64)
        weight = np.fromiter(chain.from_iterable(q.weight for q in qs),
                             np.uint64)
        order = np.lexsort((head, tail, weight, tail // m))
        cuts = np.searchsorted(tail[order], np.arange(len(qs) + 1) * m)
        edges = zip((tail[order] % m).tolist(), head[order].tolist(),
                    weight[order].tolist())
        for q, a, b in zip(qs, cuts.tolist(), cuts[1:].tolist()):
            yield q, _contract_cluster(q, islice(edges, b - a))


def _contract_cluster(q: cl.InMemoryCluster, edges) -> ContractedTree:
    """The cluster's minimum spanning forest, from its (tail, head, weight)
    ``edges`` in Kruskal's order, contracted onto its boundary.

    Kruskal runs on a list union-find over the dense local ids, a root being
    its own parent, with path halving; that forest also shows an
    intra-cluster component that misses the boundary ring: it has no edge
    to the rest of the grid at all.
    """
    parent = list(range(q.n))
    forest = []
    for u, v, w in edges:
        a, b = u, v
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            forest.append((u, v, w, False))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    with_keep = {find(b) for b in q.boundary}
    if any(find(u) not in with_keep for u, _, _, _ in forest):
        raise MstError("disconnected input (cluster-interior component)")
    return prune_and_contract(forest, set(q.boundary))


_UEDGE = struct.Struct("<QQQB")     # union record: z, z, weight, flag
_OUT = struct.Struct("<QQQ")        # output record: z, z, weight


def mst_cache_aware(g: gf.GridGraph, h: int, out_name: str = "mst.out"):
    """Cluster-contracted MST.

    Output records are (z, z, weight) in the order clusters are rescanned for
    re-expansion, with the chosen cross-cluster edges appended last.  Each
    cluster is contracted on its local ids; a local id becomes a Z index
    only when a record is packed.
    """
    gf.check_input(g, ("weighted_undirected",), MstError)
    disk = g.disk
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    z_of = gf.z_tables(g.rows, g.cols)[0]

    def z_of_local(q):
        # a cluster's records start at Z index starts[rank], in the local
        # Z order of its shape
        return (scheme.starts[q.rank]
                + scheme.shape(q.rank).t_of_local).tolist()

    # phase 1: contract every cluster; stream its surviving forest edges,
    # then one representative per chain, then its cross-cluster edges (owner
    # side once) to the contracted-union file, one write per cluster.  Flag
    # bit 0 marks representative edges, bit 1 intra-cluster edges.
    u_handle = disk.open_file(out_name + ".union")
    u_stream = disk.append_stream(u_handle)
    u_count = 0
    for q, ct in _contracted_clusters(g, scheme):
        zl = z_of_local(q)
        recs = [_UEDGE.pack(zl[u], zl[v], w, 2 | f)
                for u, v, w, f in ct.kept_edges]
        recs += [_UEDGE.pack(zl[v], int(z_of[nr * g.cols + nc]), w, 0)
                 for v, _, nr, nc, w in q.out_edges]
        u_stream.write(b"".join(recs))
        u_count += len(recs)
    u_stream.close()

    # phase 2: minimum spanning forest of the contracted union, in memory;
    # a chosen intra-cluster edge is remembered by its union record index
    raw = disk.read_direct(u_handle, 0, u_count * _UEDGE.size)
    uedges = [(min(a, b), max(a, b), w, f, i)
              for i, (a, b, w, f) in enumerate(_UEDGE.iter_unpack(raw))]
    chosen_intra = set()
    chosen_cross = []
    for a, b, w, f, i in _forest(uedges):
        if f & 2:
            chosen_intra.add(i)
        else:
            chosen_cross.append((a, b, w))

    # phase 3: rescan and recompute each cluster's contraction, whose kept
    # edges come in the order phase 1 wrote them, so record ``rec + k`` is
    # kept edge k; re-expand, one output write per cluster, then one for
    # the chosen cross edges
    handle, stream = gf.open_result(disk, out_name, "edges", g.rows, g.cols,
                                    g.n - 1)
    count = 0
    rec = 0
    for q, ct in _contracted_clusters(g, scheme):
        nforest = len(ct.kept_edges) - len(ct.chains)
        kept = enumerate(ct.kept_edges[:nforest], rec)
        edges = ct.dead_ends + [e for k, e in kept if k in chosen_intra]
        for k, ch in enumerate(ct.chains, rec + nforest):
            if k in chosen_intra:
                edges += ch.edges
            else:
                edges += [e for j, e in enumerate(ch.edges)
                          if j != ch.heavy_idx]
        rec += len(ct.kept_edges) + len(q.out_edges)
        zl = z_of_local(q)
        stream.write(b"".join([_OUT.pack(zl[u], zl[v], w)
                               for u, v, w, _ in edges]))
        count += len(edges)
    stream.write(b"".join([_OUT.pack(a, b, w) for a, b, w in chosen_cross]))
    count += len(chosen_cross)
    stream.close()
    if count != g.n - 1:
        raise MstError("disconnected input: %d tree edges for %d vertices"
                       % (count, g.n))
    return handle


# ---------------------------------------------------------------------------
# Cache-oblivious variant

_EDGE = struct.Struct("<IIQ?")      # cell, cell, weight, representative
_CNT2 = struct.Struct("<II")


def _pack_connections(tree, out_edges) -> bytes:
    pack = _EDGE.pack
    return _CNT2.pack(len(tree), len(out_edges)) + b"".join(
        [pack(*e) for e in tree + out_edges])


def _unpack_connections(raw):
    # the edge count follows from the record's length
    ntree = _CNT2.unpack_from(raw)[0]
    edges = list(_EDGE.iter_unpack(raw[_CNT2.size:]))
    return edges[:ntree], edges[ntree:]


_EXPN_HEAD = struct.Struct("<IIB")  # dead ends, chains, weight width
_REP = 8                            # step code of a representative edge
# step code of a move by (dr, dc), at index 3 * dr + dc + 4; taken from rows
# and columns, since at two columns E and SW both add 1 to the cell id
_STEP_CODE = [gf.DIR_OFFSETS.index((k // 3 - 1, k % 3 - 1)) if k != 4
              else _REP for k in range(9)]


def _pack_expansions(ct: ContractedTree, cols: int) -> bytes:
    edges = list(ct.dead_ends)
    ints = [u for u, _, _, _ in edges]
    for ch in ct.chains:
        ints += (len(ch.edges), ch.heavy_idx, ch.edges[0][0])
        edges += ch.edges
    # a representative's ends need not be neighbours, and neighbours may
    # be joined by a representative, so its flag decides its code
    codes = bytes([_REP if f else _STEP_CODE[
        3 * (v // cols - u // cols) + v % cols - u % cols + 4]
        for u, v, _, f in edges])
    ws = [e[2] for e in edges]
    wb = max(1, (max(ws, default=0).bit_length() + 7) // 8)
    fars = [v for _, v, _, f in edges if f]
    return b"".join([
        _EXPN_HEAD.pack(len(ct.dead_ends), len(ct.chains), wb),
        struct.pack("<%dI" % len(ints), *ints), codes,
        b"".join([w.to_bytes(wb, "little") for w in ws]),
        struct.pack("<%dI" % len(fars), *fars)])


def _unpack_expansions(raw, cols: int) -> ContractedTree:
    ndead, nchain, wb = _EXPN_HEAD.unpack_from(raw)
    nints = ndead + 3 * nchain
    ints = struct.unpack_from("<%dI" % nints, raw, _EXPN_HEAD.size)
    at = _EXPN_HEAD.size + 4 * nints
    nedges = ndead + sum(ints[ndead::3])
    codes = raw[at:at + nedges]
    at += nedges
    ws = [int.from_bytes(raw[k:k + wb], "little")
          for k in range(at, at + nedges * wb, wb)]
    at += nedges * wb
    fars = iter(struct.unpack_from("<%dI" % codes.count(_REP), raw, at))
    step = [dr * cols + dc for dr, dc in gf.DIR_OFFSETS]
    dead = [(u, next(fars) if c == _REP else u + step[c], w, c == _REP)
            for u, c, w in zip(ints[:ndead], codes, ws)]
    chains = []
    k = ndead
    for j in range(ndead, nints, 3):
        length, heavy, u = ints[j:j + 3]
        start, end = u, k + length
        edges = []
        for c, w in zip(codes[k:end], ws[k:end]):
            v = next(fars) if c == _REP else u + step[c]
            edges.append((u, v, w, c == _REP))
            u = v
        chains.append(Chain(edges, heavy, (start, u, edges[heavy][2])))
        k = end
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
    """Cell ids of the region's border cells that lie in the grid."""
    r1, c1 = min(r0 + size, rows), min(c0 + size, cols)
    ring = set()
    for r in (r0, r0 + size - 1):
        if r < rows:
            ring.update(range(r * cols + c0, r * cols + c1))
    for c in (c0, c0 + size - 1):
        if c < cols:
            ring.update(range(r0 * cols + c, r1 * cols + c, cols))
    return ring


# Z index of the cell (dr, dc) of a 4x4 square at 4 * dr + dc, and the
# (dr, dc) of each Z index; the first four are a 2x2 square's
_Z16 = gf.z_tables(4, 4)[0].tolist()
_CELL16 = [divmod(k, 4) for k in gf.z_tables(4, 4)[1].tolist()]


def _split(part, r0, c0, size, cols, unit) -> list:
    """Distribute a region's tree part among its sub-squares of side
    ``unit``, two or four to a side, listed in Z order.

    An edge goes to the sub-square that holds its owner: its smaller
    endpoint, or its other one if the smaller lies outside the region (an
    edge that leaves the region)."""
    r1, c1 = r0 + size, c0 + size
    parts = [[] for _ in range(16)]
    for e in part:
        u, v = (e[0], e[1]) if e[0] < e[1] else (e[1], e[0])
        r, c = divmod(u, cols)
        if not (r0 <= r < r1 and c0 <= c < c1):
            r, c = divmod(v, cols)
        parts[_Z16[4 * ((r - r0) // unit) + (c - c0) // unit]].append(e)
    return parts


def mst_cache_oblivious(g: gf.GridGraph, out_name: str = "mst.out"):
    """Two-stack quadtree MST over the padded square.

    Bottom-up, each region pushes its contracted spanning forest plus its
    outgoing edges onto the connections stack and the pruned structure onto
    the expansions stack.  Top-down, each region pops its expansions record,
    re-expands its part of the tree, and splits it among its children via
    the connections stack.  The input is consumed by one sequential scan in
    leaf order.

    A region of side 4 or less is the base case, held in memory.  Upward it
    reads its cells with one read and decodes them in Z order, so its
    connections and expansions records are those its side-2 children's
    records would give; a region of side 2 or 1, only ever the root,
    pushes only its connections record, since every cell lies on its ring.
    Downward it pops and expands its expansions record, if it pushed one,
    and appends to the output the edges each cell owns, last cell in Z
    order first; an edge's owner is its smaller endpoint, or its other one
    if the smaller lies outside the region.  The module docstring gives the
    stack record layouts.
    """
    gf.check_input(g, ("weighted_undirected",), MstError)
    disk = g.disk
    rows, cols = g.rows, g.cols
    side = 1
    while side < max(rows, cols):
        side *= 2
    conn = FileStack(disk, disk.open_file(out_name + ".conn"))
    expn = FileStack(disk, disk.open_file(out_name + ".expn"))
    reader = disk.scan_reader(g.handle, g.payload_offset)
    rs = g.record_size

    def upward(r0, c0, size):
        r1, c1 = r0 + size, c0 + size
        candidates = []
        out_edges = []
        if size <= 4:
            cells = [(z, r0 + dr, c0 + dc)
                     for z, (dr, dc) in enumerate(_CELL16[:size * size])
                     if r0 + dr < rows and c0 + dc < cols]
            arcs = gf.decode_record(g.encoding, reader.read(len(cells) * rs),
                                    len(cells))
            # out-edges by quadrant, listed last quadrant first, as a
            # larger region lists its children's
            outs = [[], [], [], []]
            for i, d, w in zip(*(a.tolist() for a in arcs)):
                z, r, c = cells[i]
                dr, dc = gf.DIR_OFFSETS[d]
                vr, vc = r + dr, c + dc
                if not (0 <= vr < rows and 0 <= vc < cols):
                    raise gf.FormatError(
                        "edge leaves the grid at (%d,%d)" % (r, c))
                e = (r * cols + c, vr * cols + vc, w, False)
                if r0 <= vr < r1 and c0 <= vc < c1:
                    candidates.append(e)
                else:
                    outs[z // 4].append(e)
            out_edges = outs[3] + outs[2] + outs[1] + outs[0]
        else:
            quads = _quadrants(r0, c0, size, rows, cols)
            for _, qr, qc in quads:
                upward(qr, qc, size // 2)
            for _ in quads:
                tree, outs = _unpack_connections(conn.pop())
                candidates.extend(tree)
                for e in outs:
                    vr, vc = divmod(e[1], cols)
                    if r0 <= vr < r1 and c0 <= vc < c1:
                        candidates.append(e)
                    else:
                        out_edges.append(e)
        forest = _forest(candidates)
        if size <= 2:
            # the root of a grid of at most 2x2: every cell is on its ring
            conn.push(_pack_connections(forest, out_edges))
            return
        ct = prune_and_contract(forest,
                                _region_ring(r0, c0, size, rows, cols))
        conn.push(_pack_connections(ct.kept_edges, out_edges))
        expn.push(_pack_expansions(ct, cols))

    emitted = 0
    z_of = gf.z_tables(rows, cols)[0].tolist()
    handle, stream = gf.open_result(disk, out_name, "edges", rows, cols,
                                    g.n - 1)

    def downward(part, r0, c0, size):
        nonlocal emitted
        if size > 2:
            part = expand(_unpack_expansions(expn.pop(), cols), part)
        if size <= 4:
            parts = _split(part, r0, c0, size, cols, 1)
            stream.write(b"".join([_OUT.pack(z_of[u], z_of[v], w)
                                   for p in reversed(parts)
                                   for u, v, w, _ in p]))
            emitted += len(part)
            return
        parts = _split(part, r0, c0, size, cols, size // 2)
        quads = _quadrants(r0, c0, size, rows, cols)
        for k, _, _ in quads:
            conn.push(_pack_connections(parts[k], []))
        for _, qr, qc in reversed(quads):
            sub, _ = _unpack_connections(conn.pop())
            downward(sub, qr, qc, size // 2)

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
    off = g.payload_offset
    raw = disk.raw_bytes(handle)[off:off + g.count * _OUT.size]
    return list(_OUT.iter_unpack(raw))


def mst_edge_coords(disk: SimDisk, handle) -> list:
    """Output edges as ((r1,c1), (r2,c2), w) with 0-based coordinates."""
    g = gf.open_grid(disk, handle)
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    out = []
    for a, b, w in read_mst(disk, handle):
        ca, cb = int(cell_of_z[a]), int(cell_of_z[b])
        out.append((divmod(ca, g.cols), divmod(cb, g.cols), w))
    return out
