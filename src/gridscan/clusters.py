"""Canonical square clusters, boundary numbering, and the separator graph.

The grid is tiled by aligned 2^h x 2^h clusters (clipped at the grid edge).
In Z-order each cluster is one contiguous range of the file, and the clusters
follow one another in the Z order of the cluster grid, so a cluster has one
address: its rank in that order.  Boundary vertices of each cluster get
consecutive numbers, clockwise from the upper-left corner, cluster after
cluster in rank order, so the numbering is global and arithmetic.

``build_separator_graph`` condenses each cluster to its boundary for SSSP
and BFS: per boundary vertex one fixed-size record holding the shortest
distances (or hop distances) to the other boundary vertices of its cluster
plus that vertex's edges into neighbouring clusters.  Fixed record sizes
make every record addressable by its number alone.  This module owns that
record file; ``toposort`` owns the reachability graph and its record file,
and numbers it with its Kahn queue in memory.  ``ChunkFile`` holds
toposort's and TFP's chunk records.

The condensation is one pass over runs of same-shape clusters, with one
record writer and one fault check; the boundary distances come from Floyd's
recurrence over a run (up to 16 cells a cluster) or one search per source.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import gridfmt as gf

ABSENT32 = 2 ** 32 - 1
INF = float("inf")
# a distance graph's slot: (dtype, no-path marker, direction shift), by
# SeparatorGraph.wide: u64 for weighted_directed, u32 for unweighted
_SLOT_FORMATS = {True: (np.dtype("<u8"), gf.ABSENT, 60),
                 False: (np.dtype("<u4"), ABSENT32, 28)}
# the separator build's int64 no path: above every finite distance it
# meets, and a sum of two of it still fits
_NO_PATH = 2 ** 62 - 1


class ClusterError(Exception):
    pass


class ClusterScheme:
    """Geometry of the 2^h tiling of an r x c grid.

    A cluster's one address is its rank: its place in the Z order of the
    cluster grid.  Three tables are indexed by it.  ``extents[rank]`` is
    (r0, c0, height, width), clipped to the grid.  A cell's Morton code is
    its cluster's code followed by its local code, so the in-grid clusters
    fill the Z-ordered file in rank order and cluster ``rank`` holds the
    records at Z indices ``starts[rank]`` up to ``starts[rank + 1]``.
    ``bases`` are the prefix sums of the boundary sizes: the separator
    vertex at boundary position p of cluster ``rank`` has h-number
    ``bases[rank] + p``.
    """

    def __init__(self, rows: int, cols: int, h: int):
        self.rows, self.cols, self.h = rows, cols, h
        size = 1 << h
        self.crows = -(-rows // size)
        self.ccols = -(-cols // size)
        # plain lists: the phase-2 lookups index them one value at a time
        rank_of_cluster, cluster_of_rank = gf.z_tables(self.crows, self.ccols)
        self._rank = rank_of_cluster.tolist()
        self.extents = []
        for cell in cluster_of_rank.tolist():
            r0, c0 = (cell // self.ccols) * size, (cell % self.ccols) * size
            self.extents.append((r0, c0, min(size, rows - r0),
                                 min(size, cols - c0)))
        self.starts = [0, *accumulate(hgt * wid
                                      for _, _, hgt, wid in self.extents)]
        self.bases = [0, *accumulate(len(_shape(hgt, wid).boundary)
                                     for _, _, hgt, wid in self.extents)]
        self.total_boundary = self.bases[-1]

    def rank_of(self, r: int, c: int) -> int:
        """Rank of the cluster holding the cell (r, c)."""
        return self._rank[(r >> self.h) * self.ccols + (c >> self.h)]

    def shape(self, rank: int) -> _Shape:
        """Geometry tables of a cluster's (height, width)."""
        return _shape(*self.extents[rank][2:])

    def locate(self, r: int, c: int) -> tuple[int, int] | None:
        """(cluster rank, clockwise boundary position) of the separator
        vertex at (r, c), or None for an interior cell."""
        rank = self.rank_of(r, c)
        r0, c0, hgt, wid = self.extents[rank]
        pos = _shape(hgt, wid).bpos[(r - r0) * wid + c - c0]
        return None if pos < 0 else (rank, pos)

    def h_number(self, r: int, c: int) -> int | None:
        loc = self.locate(r, c)
        return None if loc is None else self.bases[loc[0]] + loc[1]

    def coord_of_h_number(self, hnum: int) -> tuple[int, int]:
        rank = bisect_right(self.bases, hnum) - 1
        r0, c0, hgt, wid = self.extents[rank]
        lr, lc = divmod(_shape(hgt, wid).boundary[hnum - self.bases[rank]],
                        wid)
        return r0 + lr, c0 + lc


def _clockwise(hgt: int, wid: int) -> tuple:
    """Local ids of the boundary cells of an hgt x wid block, clockwise from
    its upper-left corner."""
    out = list(range(wid))
    out += [lr * wid + wid - 1 for lr in range(1, hgt)]
    if hgt > 1:
        out += [(hgt - 1) * wid + lc for lc in range(wid - 2, -1, -1)]
    if wid > 1:
        out += [lr * wid for lr in range(hgt - 2, 0, -1)]
    return tuple(out)


# ---------------------------------------------------------------------------
# In-memory clusters


@dataclass
class InMemoryCluster:
    """One decoded cluster, the cluster of Z rank ``rank``, its cells
    addressed by local id.

    The local id of the cell at (r0 + lr, c0 + lc) is lr * wid + lc.
    ``intra[v]`` lists the arcs leaving local cell v that stay inside the
    cluster, as (dir, u, w) with u the local id of the head.  ``out_edges``
    lists the arcs that leave the cluster, as (v, dir, r2, c2, w) with v the
    local id of the tail and (r2, c2) the 0-based global coordinates of the
    head.  Unweighted arcs have w = 1.  ``boundary`` holds the local ids of
    the boundary cells in h order (clockwise from the upper-left corner), so
    the i-th is the separator vertex at position i of the cluster.
    ``coord(v)`` maps a local id back to global coordinates.

    Both arc lists hold exactly the stored arcs, in storage order: by the
    cluster's local Z rank and, per vertex, by ascending direction.  A
    weighted_undirected edge is stored once, at its owning endpoint, so it
    appears once, in that endpoint's list.  Algorithms break ties by list
    position, so their outputs and transfer counts are reproducible only
    while this order holds.
    """

    rank: int
    r0: int
    c0: int
    hgt: int
    wid: int
    intra: list = field(default_factory=list)
    out_edges: list = field(default_factory=list)
    boundary: tuple = ()

    def local(self, r: int, c: int) -> int:
        return (r - self.r0) * self.wid + (c - self.c0)

    def coord(self, v: int) -> tuple[int, int]:
        lr, lc = divmod(v, self.wid)
        return self.r0 + lr, self.c0 + lc

    @property
    def n(self) -> int:
        return self.hgt * self.wid


_DR = np.array([dr for dr, _ in gf.DIR_OFFSETS], dtype=np.int64)
_DC = np.array([dc for _, dc in gf.DIR_OFFSETS], dtype=np.int64)


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
    boundary = _clockwise(hgt, wid)
    bpos = [-1] * (hgt * wid)
    for i, v in enumerate(boundary):
        bpos[v] = i
    return _Shape(local_of_t, t_of_local, nbr, boundary, tuple(bpos))


def _heads(g: gf.GridGraph, tr, tc, d):
    """Heads (rows, columns) of arcs from cells (tr, tc) in directions
    ``d``; a FormatError names the tail of the first that leaves the grid."""
    nr, nc = tr + _DR[d], tc + _DC[d]
    off = (nr < 0) | (nr >= g.rows) | (nc < 0) | (nc >= g.cols)
    if off.any():
        k = int(np.argmax(off))
        raise gf.FormatError("edge leaves the grid at (%d,%d)"
                             % (tr[k], tc[k]))
    return nr, nc


def _arc_columns(g: gf.GridGraph, r0: int, c0: int, hgt: int, wid: int,
                 raw: bytes):
    """Columns of a cluster's out_edges and intra arcs as lists, and the end
    of each local cell's run of intra arcs, in InMemoryCluster's order.

    The numpy temporaries die on return, before the caller builds tuples.
    """
    shape = _shape(hgt, wid)
    t, d, w = gf.decode_record(g.encoding, raw, hgt * wid)
    src = shape.local_of_t[t]
    dst = shape.nbr[t, d]
    inside = dst >= 0

    out = ~inside
    lr, lc = np.divmod(src[out], wid)
    od = d[out]
    nr, nc = _heads(g, lr + r0, lc + c0, od)
    out_cols = [a.tolist() for a in (src[out], od, nr, nc, w[out])]

    owner = src[inside]
    order = np.argsort(owner, kind="stable")
    intra_cols = [a[inside][order].tolist() for a in (d, dst, w)]
    ends = np.cumsum(np.bincount(owner, minlength=hgt * wid)).tolist()
    return out_cols, intra_cols, ends


def _decode_cluster(g: gf.GridGraph, scheme: ClusterScheme, rank: int,
                    raw: bytes) -> InMemoryCluster:
    r0, c0, hgt, wid = scheme.extents[rank]
    q = InMemoryCluster(rank, r0, c0, hgt, wid,
                        boundary=_shape(hgt, wid).boundary)
    out_cols, intra_cols, ends = _arc_columns(g, r0, c0, hgt, wid, raw)
    q.out_edges = list(zip(*out_cols))
    arcs = list(zip(*intra_cols))
    q.intra = [arcs[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return q


def load_cluster(g: gf.GridGraph, scheme: ClusterScheme,
                 rank: int) -> InMemoryCluster:
    """One cluster via a counted direct read of its contiguous byte range."""
    lo, hi = scheme.starts[rank], scheme.starts[rank + 1]
    rs = g.record_size
    raw = g.disk.read_direct(g.handle, g.payload_offset + lo * rs,
                             (hi - lo) * rs)
    return _decode_cluster(g, scheme, rank, raw)


def iterate_clusters(g: gf.GridGraph, scheme: ClusterScheme):
    """All clusters in Z-rank order through one sequential scan of the input."""
    rs = g.record_size
    reader = g.disk.scan_reader(g.handle, g.payload_offset)
    starts = scheme.starts
    for rank in range(len(starts) - 1):
        raw = reader.read((starts[rank + 1] - starts[rank]) * rs)
        yield _decode_cluster(g, scheme, rank, raw)


class ChunkFile:
    """Chunk records appended in cluster order, read back in key order.

    ``put`` appends a record and keeps its entry ``(key, cluster rank,
    offset, size)`` in memory.  ``chunks`` sorts them, in memory for want of
    an external sort, by key and then offset, so equal keys keep put order,
    and yields ``(cluster rank, record)``, one ``read_direct`` each.
    """

    def __init__(self, disk, name: str):
        self.disk = disk
        self.handle = disk.open_file(name)
        self.stream = disk.append_stream(self.handle)
        self.entries = []

    def put(self, key, rank: int, record: bytes):
        self.entries.append((key, rank, self.stream.pos, len(record)))
        self.stream.write(record)

    def chunks(self):
        self.stream.close()
        self.entries.sort(key=itemgetter(0, 2))
        for _, rank, off, size in self.entries:
            yield rank, self.disk.read_direct(self.handle, off, size)


# ---------------------------------------------------------------------------
# Separator graph construction


@dataclass
class SeparatorGraph:
    """Separator vertex ``hnum``'s record is ``record_size`` bytes at offset
    ``hnum * record_size`` of ``handle``.  Its slots are u64 distances when
    ``wide`` (weighted_directed) and u32 hop counts otherwise."""

    scheme: ClusterScheme
    handle: object                # G' record file
    record_size: int
    wide: bool

    def read_record(self, hnum: int) -> bytes:
        return self.handle.disk.read_direct(
            self.handle, hnum * self.record_size, self.record_size)

    def decode_edges(self, rank: int, pos: int, raw: bytes):
        """Yield (cluster rank, boundary position, weight) of every edge of
        ``raw``, the record of the separator vertex at position ``pos`` of
        cluster ``rank``.

        The first bsize - 1 slots of a record hold the distances to the
        other boundary vertices of its cluster, in position order; the rest
        hold (direction << shift) | weight of an edge out of the cluster.
        Edges are yielded in slot order, so the targets in the record's own
        cluster come first.
        """
        scheme = self.scheme
        r0, c0, hgt, wid = scheme.extents[rank]
        boundary = _shape(hgt, wid).boundary
        dtype, absent, shift = _SLOT_FORMATS[self.wide]
        vals = np.frombuffer(raw, dtype).tolist()
        cut = len(boundary) - 1
        for slot, v in enumerate(vals[:cut]):
            if v != absent:
                yield rank, slot + (slot >= pos), v
        lr, lc = divmod(boundary[pos], wid)
        for v in vals[cut:]:
            if v != absent:
                dr, dc = gf.DIR_OFFSETS[v >> shift]
                yield (*scheme.locate(r0 + lr + dr, c0 + lc + dc),
                       v & ((1 << shift) - 1))


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
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        for _, u, w in q.intra[v]:
            nd = dv + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def build_separator_graph(g: gf.GridGraph, h: int,
                          name: str = "gprime") -> SeparatorGraph:
    """Condense every cluster to boundary-to-boundary distances plus cross
    edges.

    Written sequentially in h-number order.  The slots are u64 distances for
    the weighted_directed encoding and u32 hop counts for the unweighted one.

    One scan reads the input in runs, each condensed by ``_condense_run``:
    a run is a longest stretch of consecutive clusters of one shape, K of m
    cells, with 2 * K * m^2 * 8 bytes at most M, room for Floyd's (K, m, m)
    matrices and the temporary of its step (one cluster when one does not
    fit).  On the desk machine (B = 2^8, M = 2^16) that is 16 clusters of
    side 4, and one from side 8 on.  Floyd's pass, m^3 a cluster, serves
    m <= 16; from side 8 on per-source heap searches win (ROADMAP item 4).
    """
    gf.check_input(g, ("weighted_directed", "unweighted"), ClusterError)
    scheme = ClusterScheme(g.rows, g.cols, h)
    # h = 0 degenerates to 1x1 clusters whose single vertex can have up to 8
    # cross-cluster edges; widen the record so the slot budget still holds
    slots = 4 * (1 << h) if h > 0 else 8
    wide = g.encoding != "unweighted"

    handle = g.disk.open_file(name)
    out = g.disk.append_stream(handle)
    reader = g.disk.scan_reader(g.handle, g.payload_offset)
    rs, mem = g.record_size, g.disk.config.memory_bytes
    extents, starts = scheme.extents, scheme.starts
    origins = np.array(extents)
    lo = 0
    while lo < len(extents):
        hgt, wid = extents[lo][2:]
        end = min(len(extents), lo + max(1, mem // (16 * (hgt * wid) ** 2)))
        hi = lo + 1
        while hi < end and extents[hi][2:] == (hgt, wid):
            hi += 1
        raw = reader.read((starts[hi] - starts[lo]) * rs)
        out.write(_condense_run(g, origins[lo:hi], raw, slots, wide).tobytes())
        lo = hi
    out.close()
    return SeparatorGraph(scheme, handle,
                          slots * _SLOT_FORMATS[wide][0].itemsize, wide)


def _condense_run(g, extents, raw, slots, wide):
    """A run's records as one (clusters, boundary, slots) array, from its
    input bytes; ``extents`` holds its clusters' ``ClusterScheme.extents``.

    Distances are exact: int64 with ``_NO_PATH`` for no path while m - 1
    arcs of the run's heaviest intra-cluster weight stay below it, Python
    ints otherwise.  The first failing cluster raises its first fault: an
    arc off the grid, then, per source in clockwise order, a boundary
    distance at or past the no-path marker, then a cross edge too heavy.
    """
    dtype, absent, shift = _SLOT_FORMATS[wide]
    hgt, wid = extents[0, 2:].tolist()
    shape = _shape(hgt, wid)
    k, m, bsize = len(extents), hgt * wid, len(shape.boundary)
    t, d, w = gf.decode_record(g.encoding, raw, k * m)
    b, lt = np.divmod(t, m)
    src, dst = shape.local_of_t[lt], shape.nbr[lt, d]
    inside = dst >= 0

    iw = w[inside]
    longest = (m - 1) * int(iw.max(initial=0))
    inf, kind = ((_NO_PATH, np.int64) if longest < _NO_PATH
                 else (longest + 1, object))
    rows = (_all_pairs_rows if m <= 16 else _searched_rows)(
        shape, k, b[inside], src[inside], dst[inside], iw.astype(kind), inf)
    found = rows < inf
    rows = np.where(found, rows, 0)
    top = rows.max(axis=2)                  # per source, in clockwise order

    # the first cluster with a source whose boundary distances reach the
    # marker or with a cross edge too heavy; an arc off the grid there or
    # before it raises first
    out = ~inside
    ob, osrc, od, ow, ot = b[out], src[out], d[out], w[out], t[out]
    far = top >= absent
    bad = far.any(axis=1)
    bad[ob[ow >> shift != 0]] = True
    first = int(bad.argmax()) if bad.any() else k
    cut = np.searchsorted(ob, first, "right")
    lr, lc = np.divmod(osrc[:cut], wid)
    _heads(g, lr + extents[ob[:cut], 0], lc + extents[ob[:cut], 1], od[:cut])
    if first < k:
        if far[first].any():
            i = int(np.argmax(far[first]))
            raise ClusterError(
                "boundary distance %d in the cluster at (%d,%d) does not "
                "fit below the no-path marker"
                % (top[first, i], *extents[first, :2]))
        raise ClusterError("weight too large for slot encoding")

    rec = np.full((k, bsize, slots), absent, dtype)
    # each source's distances to the others, in position order
    rows = np.where(found, rows.astype(dtype), dtype.type(absent))
    rec[:, :, :bsize - 1] = rows[:, ~np.eye(bsize, dtype=bool)].reshape(
        k, bsize, bsize - 1)
    # then its cross edges, in storage order: the arcs of a record are
    # adjacent and the records ascend, so an arc's place among its tail's
    # cross edges is its distance from its record's first one
    slot = bsize - 1 + np.arange(len(ot)) - np.searchsorted(ot, ot)
    rec[ob, np.array(shape.bpos)[osrc], slot] = (
        od.astype(np.uint64) << np.uint64(shift)) | ow.astype(np.uint64)
    return rec


def _all_pairs(dist: np.ndarray):
    """Floyd's recurrence, in place, on a (clusters, m, m) batch of
    distance matrices."""
    for v in range(dist.shape[1]):
        np.minimum(dist, dist[:, :, v, None] + dist[:, None, v, :], out=dist)


def _all_pairs_rows(shape, k, b, src, dst, w, inf):
    """A run's (clusters, boundary, boundary) distances, ``inf`` for no
    path, by Floyd's recurrence; cluster ``b`` has arcs ``src`` -> ``dst``
    of weight ``w``."""
    m = len(shape.bpos)
    dist = np.full((k, m, m), inf, w.dtype)
    dist[:, np.arange(m), np.arange(m)] = 0
    dist[b, src, dst] = w
    _all_pairs(dist)
    bnd = np.array(shape.boundary)
    return dist[:, bnd[:, None], bnd]


def _searched_rows(shape, k, b, src, dst, w, inf):
    """``_all_pairs_rows``' distances by one heap search per boundary
    source, which stops once every boundary vertex is popped (a popped
    distance is final); ``local_dijkstra`` per source measured slower."""
    bpos, bnd = shape.bpos, shape.boundary
    m = len(bpos)
    key = b * m + src
    order = np.argsort(key, kind="stable")
    arcs = list(zip(dst[order].tolist(), w[order].tolist()))
    ends = np.cumsum(np.bincount(key, minlength=k * m)).tolist()
    adj = [arcs[a:e] for a, e in zip([0, *ends], ends)]
    row_of, rows = itemgetter(*bnd), []
    for base in range(0, k * m, m):
        nbrs = adj[base:base + m]
        for s in bnd:
            dist = [inf] * m
            dist[s] = 0
            pq, left = [(0, s)], len(bnd)
            while pq:
                dv, v = heapq.heappop(pq)
                if dv > dist[v]:
                    continue
                if bpos[v] >= 0:
                    left -= 1
                    if not left:
                        break
                for u, wt in nbrs[v]:
                    nd = dv + wt
                    if nd < dist[u]:
                        dist[u] = nd
                        heapq.heappush(pq, (nd, u))
            rows.append(row_of(dist))
    return np.array(rows, w.dtype).reshape(k, len(bnd), len(bnd))
