"""Canonical square clusters, boundary numbering, and the separator graph.

The grid is tiled by aligned 2^h x 2^h clusters (clipped at the grid edge).
Boundary vertices of each cluster get consecutive numbers, clockwise from the
upper-left corner; clusters are ordered by the Z-rank of the cluster grid, so
the numbering is global and arithmetic.

``build_separator_graph`` condenses each cluster to its boundary: per
boundary vertex one fixed-size record holding intra-cluster
boundary-to-boundary payload (shortest distances, hop distances, or a
reachability bit set) plus that vertex's edges into neighbouring clusters.
Fixed record sizes make every record addressable by its number alone.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import gridfmt as gf
from .simdisk import SimDisk

ABSENT32 = 2 ** 32 - 1
INF = float("inf")


class ClusterError(Exception):
    pass


class ClusterScheme:
    """Geometry of the 2^h tiling of an r x c grid."""

    def __init__(self, rows: int, cols: int, h: int):
        self.rows, self.cols, self.h = rows, cols, h
        self.size = 1 << h
        self.crows = -(-rows // self.size)
        self.ccols = -(-cols // self.size)
        # plain lists: the phase-2 lookups index them one value at a time
        self.cluster_z, self.cluster_cell = (
            a.tolist() for a in gf.z_tables(self.crows, self.ccols))
        # boundary-size prefix sums in cluster-Z order -> h-number bases
        self.bases = [0, *accumulate(
            self.boundary_size(*self.cluster_at_rank(rank))
            for rank in range(len(self.cluster_cell)))]
        self.total_boundary = self.bases[-1]

    # -- geometry ----------------------------------------------------------

    def cluster_of(self, r: int, c: int) -> tuple[int, int]:
        return r >> self.h, c >> self.h

    def extent(self, ci: int, cj: int) -> tuple[int, int, int, int]:
        """(r0, c0, height, width) of a cluster, clipped to the grid."""
        r0, c0 = ci * self.size, cj * self.size
        return (r0, c0, min(self.size, self.rows - r0),
                min(self.size, self.cols - c0))

    def rank(self, ci: int, cj: int) -> int:
        return self.cluster_z[ci * self.ccols + cj]

    def cluster_at_rank(self, rank: int) -> tuple[int, int]:
        return divmod(self.cluster_cell[rank], self.ccols)

    def clusters_in_z_order(self):
        for rank in range(self.crows * self.ccols):
            yield self.cluster_at_rank(rank)

    def boundary_size(self, ci: int, cj: int) -> int:
        return len(self.shape(ci, cj).boundary)

    def base(self, ci: int, cj: int) -> int:
        return self.bases[self.rank(ci, cj)]

    def boundary_coords(self, ci: int, cj: int) -> list[tuple[int, int]]:
        """Boundary cells clockwise from the upper-left corner, 0-based."""
        return _clockwise(*self.extent(ci, cj))

    def boundary_position(self, r: int, c: int) -> int | None:
        """Clockwise position of (r, c) on its cluster's boundary, or None."""
        r0, c0, hgt, wid = self.extent(*self.cluster_of(r, c))
        pos = _shape(hgt, wid).bpos[(r - r0) * wid + c - c0]
        return None if pos < 0 else pos

    def h_number(self, r: int, c: int) -> int | None:
        pos = self.boundary_position(r, c)
        if pos is None:
            return None
        return self.base(*self.cluster_of(r, c)) + pos

    def coord_of_h_number(self, hnum: int) -> tuple[int, int]:
        ci, cj = self.cluster_of_h_number(hnum)
        r0, c0, hgt, wid = self.extent(ci, cj)
        lr, lc = divmod(_shape(hgt, wid).boundary[hnum - self.base(ci, cj)],
                        wid)
        return r0 + lr, c0 + lc

    def rank_of_h_number(self, hnum: int) -> int:
        return bisect_right(self.bases, hnum) - 1

    def cluster_of_h_number(self, hnum: int) -> tuple[int, int]:
        return self.cluster_at_rank(self.rank_of_h_number(hnum))

    def z_interval(self, ci: int, cj: int) -> tuple[int, int]:
        """(first z-index, vertex count) of a cluster's contiguous range."""
        r0, c0, hgt, wid = self.extent(ci, cj)
        z0 = gf.coord_to_index(self.rows, self.cols, r0 + 1, c0 + 1)
        return z0, hgt * wid

    def cluster_at_z(self, z: int) -> tuple[int, int]:
        """The cluster whose Z range holds z-index z."""
        cell = int(gf.z_tables(self.rows, self.cols)[1][z])
        return self.cluster_of(*divmod(cell, self.cols))

    def shape(self, ci: int, cj: int) -> _Shape:
        """Geometry tables of a cluster's (height, width)."""
        return _shape(*self.extent(ci, cj)[2:])


def _clockwise(r0: int, c0: int, hgt: int, wid: int) -> list[tuple[int, int]]:
    """Boundary cells of an hgt x wid block at (r0, c0), clockwise from its
    upper-left corner."""
    out = [(r0, c0 + lc) for lc in range(wid)]
    out += [(r0 + lr, c0 + wid - 1) for lr in range(1, hgt)]
    if hgt > 1:
        out += [(r0 + hgt - 1, c0 + lc) for lc in range(wid - 2, -1, -1)]
    if wid > 1:
        out += [(r0 + lr, c0) for lr in range(hgt - 2, 0, -1)]
    return out


# ---------------------------------------------------------------------------
# In-memory clusters


@dataclass
class InMemoryCluster:
    """One decoded cluster.

    ``intra[v]`` lists the arcs leaving local cell v = lr*wid+lc that stay
    inside the cluster, as (dir, lr2, lc2, w).  ``out_edges`` lists the arcs
    that leave the cluster, as (lr, lc, dir, r2, c2, w) with (r2, c2) 0-based
    global coordinates.  Unweighted arcs have w = 1.

    Both lists follow the records in storage order: arcs are visited by the
    cluster's local Z rank and, per vertex, by ascending direction.  In the
    weighted_undirected encoding an intra-cluster arc is stored once, at its
    owning endpoint; its reverse copy (opposite direction, same weight) is
    visited right after it and appended to the other endpoint's list.
    ``intra[v]`` holds v's visited arcs in visiting order.  Algorithms break
    ties by list position, so their outputs and transfer counts are
    reproducible only while this order holds.
    """

    scheme: ClusterScheme
    ci: int
    cj: int
    r0: int
    c0: int
    hgt: int
    wid: int
    intra: list = field(default_factory=list)
    out_edges: list = field(default_factory=list)
    boundary: list = field(default_factory=list)   # 0-based coords, h order

    def local(self, r: int, c: int) -> int:
        return (r - self.r0) * self.wid + (c - self.c0)

    @property
    def n(self) -> int:
        return self.hgt * self.wid


_DR = np.array([dr for dr, _ in gf.DIR_OFFSETS], dtype=np.int64)
_DC = np.array([dc for _, dc in gf.DIR_OFFSETS], dtype=np.int64)
_OPPOSITE = (np.arange(8, dtype=np.int64) + 4) % 8
_OWNED = np.array(gf.OWNED_SLOTS, dtype=np.int64)


class _Shape(NamedTuple):
    """Geometry shared by every cluster of one (height, width)."""

    local_of_t: np.ndarray   # local cell of each local Z rank
    t_of_local: np.ndarray   # local Z rank of each local cell
    nbr: np.ndarray          # (n, 8): local cell of the neighbour of Z rank
                             # t in direction d; -1 outside the cluster
    boundary: tuple          # boundary local cells, clockwise
    bpos: tuple              # clockwise boundary position per local cell, -1
                             # for interior cells


@lru_cache(maxsize=256)
def _shape(hgt: int, wid: int) -> _Shape:
    # an aligned cluster's cells keep their relative Z order, so the local
    # order is the Z order of an hgt x wid grid, clipped clusters included
    t_of_local, local_of_t = gf.z_tables(hgt, wid)
    lr, lc = np.divmod(local_of_t, wid)
    nr = lr[:, None] + _DR
    nc = lc[:, None] + _DC
    inside = (nr >= 0) & (nr < hgt) & (nc >= 0) & (nc < wid)
    nbr = np.where(inside, nr * wid + nc, -1)
    t_of_local, local_of_t = t_of_local.view(), local_of_t.view()
    for a in (local_of_t, t_of_local, nbr):
        a.setflags(write=False)
    boundary = tuple(r * wid + c for r, c in _clockwise(0, 0, hgt, wid))
    bpos = [-1] * (hgt * wid)
    for i, v in enumerate(boundary):
        bpos[v] = i
    return _Shape(local_of_t, t_of_local, nbr, boundary, tuple(bpos))


def _stored_arcs(encoding: str, raw: bytes, cnt: int):
    """(t, d, w) arrays of the arcs stored in cnt records, in (Z rank,
    direction) order; unweighted arcs get w = 1."""
    if encoding == "unweighted":
        masks = np.frombuffer(raw, dtype=np.uint8).reshape(cnt, 1)
        t, d = np.nonzero(np.unpackbits(masks, axis=1, bitorder="little"))
        return t, d, np.ones(len(t), dtype=np.int64)
    if encoding == "weighted_directed":
        ws = np.frombuffer(raw, dtype="<u8").reshape(cnt, 8)
        t, d = np.nonzero(ws != gf.ABSENT)
        return t, d, ws[t, d]
    if encoding == "weighted_undirected":
        ws = np.frombuffer(raw, dtype="<u8").reshape(cnt, len(_OWNED))
        t, slot = np.nonzero(ws != gf.ABSENT)
        return t, _OWNED[slot], ws[t, slot]
    raise gf.FormatError("not a vertex encoding: %r" % encoding)


def _arc_columns(g: gf.GridGraph, r0: int, c0: int, hgt: int, wid: int,
                 raw: bytes):
    """Columns of a cluster's out_edges and intra arcs as lists, and the end
    of each local cell's run of intra arcs, in InMemoryCluster's order.

    The numpy temporaries die on return, before the caller builds tuples.
    """
    shape = _shape(hgt, wid)
    t, d, w = _stored_arcs(g.encoding, raw, hgt * wid)
    src = shape.local_of_t[t]
    dst = shape.nbr[t, d]
    inside = dst >= 0

    out = ~inside
    lr, lc = np.divmod(src[out], wid)
    od = d[out]
    nr = lr + (_DR[od] + r0)
    nc = lc + (_DC[od] + c0)
    off = (nr < 0) | (nr >= g.rows) | (nc < 0) | (nc >= g.cols)
    if off.any():
        k = int(np.argmax(off))
        raise gf.FormatError("edge leaves the grid at (%d,%d)"
                             % (r0 + lr[k], c0 + lc[k]))
    out_cols = [a.tolist() for a in (lr, lc, od, nr, nc, w[out])]

    owner, other, ed, iw = src[inside], dst[inside], d[inside], w[inside]
    if g.encoding == "weighted_undirected":
        # interleave each stored arc with its reverse copy
        owner, other = (np.column_stack((owner, other)).ravel(),
                        np.column_stack((other, owner)).ravel())
        ed = np.column_stack((ed, _OPPOSITE[ed])).ravel()
        iw = np.repeat(iw, 2)
    order = np.argsort(owner, kind="stable")
    lr2, lc2 = np.divmod(other[order], wid)
    intra_cols = [a.tolist() for a in (ed[order], lr2, lc2, iw[order])]
    ends = np.cumsum(np.bincount(owner, minlength=hgt * wid)).tolist()
    return out_cols, intra_cols, ends


def _decode_cluster(g: gf.GridGraph, scheme: ClusterScheme, ci: int, cj: int,
                    raw: bytes) -> InMemoryCluster:
    r0, c0, hgt, wid = scheme.extent(ci, cj)
    q = InMemoryCluster(scheme, ci, cj, r0, c0, hgt, wid)
    q.boundary = scheme.boundary_coords(ci, cj)
    out_cols, intra_cols, ends = _arc_columns(g, r0, c0, hgt, wid, raw)
    q.out_edges = list(zip(*out_cols))
    arcs = list(zip(*intra_cols))
    q.intra = [arcs[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return q


def load_cluster(g: gf.GridGraph, scheme: ClusterScheme, ci: int, cj: int) -> InMemoryCluster:
    """One cluster via a counted direct read of its contiguous byte range."""
    z0, cnt = scheme.z_interval(ci, cj)
    rs = g.record_size
    raw = g.disk.read_direct(g.handle, g.payload_offset + z0 * rs, cnt * rs)
    return _decode_cluster(g, scheme, ci, cj, raw)


def iterate_clusters(g: gf.GridGraph, scheme: ClusterScheme):
    """All clusters in Z-rank order through one sequential scan of the input."""
    rs = g.record_size
    reader = g.disk.scan_reader(g.handle, g.payload_offset)
    for ci, cj in scheme.clusters_in_z_order():
        _, cnt = scheme.z_interval(ci, cj)
        raw = reader.read(cnt * rs)
        yield _decode_cluster(g, scheme, ci, cj, raw)


# ---------------------------------------------------------------------------
# Separator graph construction


@dataclass
class SeparatorGraph:
    scheme: ClusterScheme
    mode: str                     # weighted_distance | unit_distance | reachability
    handle: object                # G' record file
    record_size: int
    slots: int                    # per-record slot count (distance modes)
    d_handle: object = None       # 16-bit in-degree file (reachability)
    z_handle: object = None       # zero-in-degree queue file (reachability)
    z_count: int = 0

    def read_record(self, disk: SimDisk, hnum: int) -> bytes:
        return disk.read_direct(self.handle, hnum * self.record_size,
                                self.record_size)

    def decode_edges(self, hnum: int, raw: bytes):
        """Yield (target h-number, weight) for one record (distance modes)."""
        scheme = self.scheme
        ci, cj = scheme.cluster_of_h_number(hnum)
        base = scheme.base(ci, cj)
        r0, c0, hgt, wid = scheme.extent(ci, cj)
        boundary = _shape(hgt, wid).boundary
        pos = hnum - base
        lr, lc = divmod(boundary[pos], wid)
        wide = self.mode == "weighted_distance"
        absent, shift = (gf.ABSENT, 60) if wide else (ABSENT32, 28)
        vals = np.frombuffer(raw, "<u8" if wide else "<u4").tolist()
        # the first bsize - 1 slots: the other boundary vertices, in order
        cut = len(boundary) - 1
        for slot, v in enumerate(vals[:cut]):
            if v != absent:
                yield base + slot + (slot >= pos), v
        # the rest: (direction << shift) | weight of an edge out of the cluster
        for v in vals[cut:]:
            if v != absent:
                dr, dc = gf.DIR_OFFSETS[v >> shift]
                yield (scheme.h_number(r0 + lr + dr, c0 + lc + dc),
                       v & ((1 << shift) - 1))

    def decode_reach(self, hnum: int, raw: bytes):
        """(intra target h-numbers, outgoing direction mask) of one record."""
        base = self.scheme.base(*self.scheme.cluster_of_h_number(hnum))
        m = int.from_bytes(raw[:-1], "little")
        targets = []
        while m:                       # set bits, lowest first
            low = m & -m
            targets.append(base + low.bit_length() - 1)
            m ^= low
        return targets, raw[-1]


def topo_order(q: InMemoryCluster) -> list | None:
    """Topological order of the intra-cluster subgraph, or None if it has a
    cycle.  Of the cells ready at each step the smallest row-major local id
    comes first, so the order is deterministic."""
    wid = q.wid
    indeg = [0] * q.n
    for arcs in q.intra:
        for _, lr, lc, _ in arcs:
            indeg[lr * wid + lc] += 1
    heap = [v for v in range(q.n) if indeg[v] == 0]    # ascending: a heap
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for _, lr, lc, _ in q.intra[v]:
            u = lr * wid + lc
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(heap, u)
    return order if len(order) == q.n else None


def local_dijkstra(q: InMemoryCluster, seeds) -> list:
    """Least distances over intra-cluster arcs from the (distance, local
    cell) pairs in ``seeds`` to every local cell; INF where none reaches."""
    dist = [INF] * q.n
    pq = []
    for d, v in seeds:
        if d < dist[v]:
            dist[v] = d
            pq.append((d, v))
    heapq.heapify(pq)
    wid = q.wid
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        for _, lr, lc, w in q.intra[v]:
            u = lr * wid + lc
            nd = dv + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def build_separator_graph(g: gf.GridGraph, h: int, mode: str,
                          name: str = "gprime") -> SeparatorGraph:
    """Condense every cluster to boundary-to-boundary payload plus cross edges.

    Written sequentially in h-number order.  In reachability mode an
    in-degree file (16-bit per separator vertex) and a queue file of
    zero-in-degree vertices are produced as well.
    """
    if mode == "weighted_distance" and g.encoding not in (
            "weighted_directed", "weighted_undirected"):
        raise ClusterError("weighted mode needs a weighted encoding")
    if mode in ("unit_distance", "reachability") and g.encoding != "unweighted":
        raise ClusterError("%s mode needs the unweighted encoding" % mode)
    disk = g.disk
    scheme = ClusterScheme(g.rows, g.cols, h)
    # h = 0 degenerates to 1x1 clusters whose single vertex can have up to 8
    # cross-cluster edges; widen the record so the slot budget still holds
    slots = 4 * (1 << h) if h > 0 else 8
    if mode == "weighted_distance":
        dtype, absent, shift = np.dtype("<u8"), gf.ABSENT, 60
        rec_size = slots * dtype.itemsize
    elif mode == "unit_distance":
        dtype, absent, shift = np.dtype("<u4"), ABSENT32, 28
        rec_size = slots * dtype.itemsize
    elif mode == "reachability":
        rec_size = -(-slots // 8) + 1
    else:
        raise ClusterError("unknown mode %r" % mode)

    handle = disk.open_file(name)
    out = disk.append_stream(handle)
    indeg = (np.zeros(scheme.total_boundary, dtype=np.int64)
             if mode == "reachability" else None)

    for q in iterate_clusters(g, scheme):
        shape = _shape(q.hgt, q.wid)
        bpos, wid = shape.bpos, q.wid
        bsize = len(shape.boundary)
        base = scheme.base(q.ci, q.cj)
        if mode == "reachability":
            order = topo_order(q)
            if order is None:
                raise ClusterError("cycle inside cluster (%d,%d)" % (q.ci, q.cj))
            reach = [0] * q.n
            for v in reversed(order):
                acc = 0
                for _, lr, lc, w in q.intra[v]:
                    u = lr * wid + lc
                    if bpos[u] >= 0:
                        acc |= 1 << bpos[u]
                    acc |= reach[u]
                reach[v] = acc
            out_masks = [0] * bsize
            for lr, lc, d, nr, nc, w in q.out_edges:
                out_masks[bpos[lr * wid + lc]] |= 1 << d
                indeg[scheme.h_number(nr, nc)] += 1
            recs = b"".join(reach[v].to_bytes(rec_size - 1, "little")
                            + bytes([m])
                            for v, m in zip(shape.boundary, out_masks))
            masks = np.frombuffer(recs, dtype=np.uint8).reshape(bsize, rec_size)
            bits = np.unpackbits(masks[:, :-1], axis=1, bitorder="little")
            indeg[base:base + bsize] += bits[:, :bsize].sum(axis=0,
                                                            dtype=np.int64)
            out.write(recs)
        else:
            recs = np.full((bsize, slots), absent, dtype=dtype)
            # slots 0 .. bsize-2: distances to the other boundary vertices
            dists = np.empty((bsize, bsize), dtype=dtype)
            for i, li in enumerate(shape.boundary):
                dist = local_dijkstra(q, [(0, li)])
                row = [dist[v] for v in shape.boundary]
                top = max([d for d in row if d != INF])
                if top >= absent:
                    raise ClusterError(
                        "boundary distance %d in cluster (%d,%d) does not "
                        "fit below the no-path marker" % (top, q.ci, q.cj))
                dists[i] = [absent if d == INF else d for d in row]
            recs[:, :bsize - 1] = dists[~np.eye(bsize, dtype=bool)].reshape(
                bsize, bsize - 1)
            # then the vertex's edges into other clusters
            fill = [bsize - 1] * bsize
            for lr, lc, d, nr, nc, w in q.out_edges:
                if w >> shift:
                    raise ClusterError("weight too large for slot encoding")
                i = bpos[lr * wid + lc]
                if fill[i] == slots:
                    raise ClusterError("cross-cluster slot overflow")
                recs[i, fill[i]] = (d << shift) | w
                fill[i] += 1
            out.write(recs.tobytes())
    out.close()

    gp = SeparatorGraph(scheme, mode, handle, rec_size, slots)
    if mode == "reachability":
        if indeg.max(initial=0) >= 2 ** 16:
            raise ClusterError("in-degree exceeds 16 bits")
        d_handle = disk.open_file(name + ".indeg")
        ds = disk.append_stream(d_handle)
        ds.write(indeg.astype("<u2").tobytes())
        ds.close()
        z_handle = disk.open_file(name + ".zqueue")
        zs = disk.append_stream(z_handle)
        zero = np.flatnonzero(indeg == 0)
        zs.write(zero.astype("<u8").tobytes())
        zcount = len(zero)
        zs.close()
        gp.d_handle, gp.z_handle, gp.z_count = d_handle, z_handle, zcount
    return gp
