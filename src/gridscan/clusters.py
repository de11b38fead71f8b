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
make every record addressable by its number alone, and ``SeparatorRecords``
reads them all.  This module owns ``SeparatorGraph``'s file; ``toposort``
owns the reachability graph, its ``ReachGraph``, numbered with a Kahn queue
in memory.  ``ChunkFile`` holds toposort's and TFP's chunk records.

One reader, ``_runs``, reads the input for every cluster pass, in runs of
same-shape clusters, and states the run rule: ``iterate_runs`` builds the
clusters of a run, ``iterate_clusters`` yields them one at a time, and the
separator build condenses a run at once.  A built cluster keeps its arcs
inside the cluster as flat columns in CSR form (compressed sparse rows: one
offset list by tail, then the heads, directions and weights), made with a
few ``tolist`` calls per run and no Python object per arc or per vertex;
the heap searches of the separator build read the same CSR.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
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
    The arcs that stay inside the cluster are four flat columns in CSR
    form: the arcs leaving local cell v are the positions ``first[v]`` up
    to ``first[v + 1]`` (``first`` has n + 1 offsets), and the arc at
    position i has local head ``head[i]``, direction ``dirs[i]`` and weight
    ``weight[i]``.  ``out_edges`` lists the arcs that leave the cluster, as
    (v, dir, r2, c2, w) with v the local id of the tail and (r2, c2) the
    0-based global coordinates of the head.  Unweighted arcs have w = 1.
    ``boundary`` holds the local ids of the boundary cells in h order
    (clockwise from the upper-left corner), so the i-th is the separator
    vertex at position i of the cluster.  ``coord(v)`` maps a local id back
    to global coordinates.

    Both arc sets hold exactly the stored arcs.  The columns run by tail
    local id and, per tail, in storage order, by ascending direction;
    ``out_edges`` runs in storage order: by the cluster's local Z rank and,
    per vertex, by ascending direction.  A weighted_undirected edge is
    stored once, at its owning endpoint, so it appears once, as an arc of
    that endpoint.  Algorithms break ties by position, so their outputs and
    transfer counts are reproducible only while this order holds.
    """

    rank: int
    r0: int
    c0: int
    hgt: int
    wid: int
    first: list
    head: list
    dirs: list
    weight: list
    out_edges: list
    boundary: tuple

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
    nbr: np.ndarray          # (n, 8): local neighbour of Z rank t, -1 off
    boundary: tuple          # boundary local cells, clockwise
    bpos: tuple              # clockwise position per local cell, -1 inside
    shift: np.ndarray        # local cell minus local Z rank, per Z rank


@lru_cache(maxsize=256)
def _shape(hgt: int, wid: int) -> _Shape:
    # an aligned cluster's cells keep their relative Z order, so the local
    # order is the Z order of an hgt x wid grid, clipped clusters included
    t_of_local, local_of_t = gf.z_tables(hgt, wid)
    lr, lc = np.divmod(local_of_t, wid)
    nr, nc = lr[:, None] + _DR, lc[:, None] + _DC
    inside = (nr >= 0) & (nr < hgt) & (nc >= 0) & (nc < wid)
    nbr = np.where(inside, nr * wid + nc, -1)
    t_of_local, local_of_t = t_of_local.view(), local_of_t.view()
    shift = local_of_t - np.arange(hgt * wid)
    for a in (local_of_t, t_of_local, nbr, shift):
        a.setflags(write=False)
    boundary = _clockwise(hgt, wid)
    bpos = [-1] * (hgt * wid)
    for i, v in enumerate(boundary):
        bpos[v] = i
    return _Shape(local_of_t, t_of_local, nbr, boundary, tuple(bpos), shift)


def _decode(g: gf.GridGraph, hgt: int, wid: int, k: int, raw: bytes):
    """The arcs of a run of k hgt x wid clusters from its input bytes: the
    shape and, per arc in storage order, its record ``t`` in the run, its
    tail ``cell`` across the run (cluster in the run * m + local cell), its
    direction ``d``, local head ``dst`` (-1 off the cluster) and weight."""
    shape = _shape(hgt, wid)
    t, d, w = gf.decode_record(g.encoding, raw, k * hgt * wid)
    # record t is local Z rank t mod m of its cluster
    cell = t + shape.shift.take(t, mode="wrap")
    return shape, t, cell, d, shape.nbr.take(t * 8 + d, mode="wrap"), w


def _runs(g: gf.GridGraph, scheme: ClusterScheme):
    """``(first rank, extents, arcs)`` of each run, in Z-rank order: the one
    reader of a cluster pass, one sequential scan of the input.

    A run is a longest stretch of consecutive clusters of one shape, K of m
    cells, with 2 * K * m^2 * 8 bytes at most M, room for the separator
    build's (K, m, m) Floyd matrices and the temporary of its step (one
    cluster when one does not fit): 16 clusters of side 4 on the desk
    machine (B = 2^8, M = 2^16), one from side 8 on.  Each run is one
    ``ScanReader.read`` and one ``gf.decode_record`` call.
    """
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
        yield lo, origins[lo:hi], _decode(g, hgt, wid, hi - lo, raw)
        lo = hi


def _heads(g: gf.GridGraph, extents, ob, osrc, od):
    """Heads (rows, columns) of arcs ``od`` from cells ``osrc`` of clusters
    ``ob`` of a run, then the first with an arc off the grid and its error."""
    lr, lc = np.divmod(osrc, int(extents[0, 3]))
    tr, tc = lr + extents[:, 0][ob], lc + extents[:, 1][ob]
    nr, nc = tr + _DR[od], tc + _DC[od]
    # as unsigned, a negative row or column is past the grid too
    off = (nr.view(np.uint64) >= g.rows) | (nc.view(np.uint64) >= g.cols)
    if not off.any():
        return nr, nc, len(extents), None
    i = int(np.argmax(off))
    return nr, nc, int(ob[i]), gf.FormatError(
        "edge leaves the grid at (%d,%d)" % (tr[i], tc[i]))


def csr(key, n: int, *cols):
    """The CSR form of ``cols`` by ``key`` in 0..n-1: the n + 1 offsets and
    each column in key order, entries of one key in their given order."""
    first = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(key, minlength=n), out=first[1:])
    order = np.argsort(key, kind="stable")
    return first, [c[order] for c in cols]


def _clusters(g: gf.GridGraph, lo: int, extents, arcs):
    """The InMemoryCluster of each cluster of a run, rank ``lo`` first, up
    to the first with an arc off the grid, and that arc's error or None."""
    shape, _, cell, d, dst, w = arcs
    k, m = len(extents), len(shape.bpos)
    inside, out = dst >= 0, dst < 0
    (ob, osrc), od = np.divmod(cell[out], m), d[out]
    nr, nc, bad, fault = _heads(g, extents, ob, osrc, od)
    outs = list(zip(*[a.tolist() for a in (osrc, od, nr, nc, w[out])]))
    ocuts = [0, *np.bincount(ob, minlength=k).cumsum().tolist()]
    first, cols = csr(cell[inside], k * m, dst[inside], d[inside], w[inside])
    # per cluster, its m + 1 offsets counted from its own first arc
    at = (np.arange(k) * m)[:, None] + np.arange(m + 1)
    firsts = (first[at] - first[at[:, :1]]).tolist()
    cuts = first[::m].tolist()
    head, dirs, weight = [c.tolist() for c in cols]
    return [InMemoryCluster(lo + j, *ext, firsts[j], head[a:b], dirs[a:b],
                            weight[a:b], outs[ocuts[j]:ocuts[j + 1]],
                            shape.boundary)
            for j, (ext, a, b) in enumerate(zip(extents[:bad].tolist(),
                                                cuts, cuts[1:]))], fault


def load_cluster(g: gf.GridGraph, scheme: ClusterScheme,
                 rank: int) -> InMemoryCluster:
    """One cluster via a counted direct read of its contiguous byte range."""
    rs, (lo, hi) = g.record_size, scheme.starts[rank:rank + 2]
    raw = g.disk.read_direct(g.handle, g.payload_offset + lo * rs,
                             (hi - lo) * rs)
    arcs = _decode(g, *scheme.extents[rank][2:], 1, raw)
    qs, fault = _clusters(g, rank, np.array([scheme.extents[rank]]), arcs)
    if fault:
        raise fault
    return qs[0]


def iterate_runs(g: gf.GridGraph, scheme: ClusterScheme):
    """The clusters of each run of the one reader ``_runs``, as one list
    per run, in Z-rank order; an arc off the grid is raised after the list
    of the clusters before it."""
    # map holds no run: a run's arrays die before its clusters go out
    for qs, fault in map(lambda run: _clusters(g, *run), _runs(g, scheme)):
        yield qs
        if fault:
            raise fault


def iterate_clusters(g: gf.GridGraph, scheme: ClusterScheme):
    """All clusters in Z-rank order, from the one reader ``_runs``."""
    for qs in iterate_runs(g, scheme):
        yield from qs


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
class SeparatorRecords:
    """Fixed-size separator vertex records: vertex ``hnum``'s is the
    ``record_size`` bytes at ``hnum * record_size`` of ``handle``."""

    scheme: ClusterScheme
    handle: object
    record_size: int

    def read_record(self, hnum: int) -> bytes:
        return self.handle.disk.read_direct(
            self.handle, hnum * self.record_size, self.record_size)


@dataclass
class SeparatorGraph(SeparatorRecords):
    """SSSP's and BFS's distance records (G'): u64 slots when ``wide``
    (weighted_directed), u32 hop counts otherwise."""

    wide: bool

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
    first, head, weight = q.first, q.head, q.weight
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
        for i in range(first[v], first[v + 1]):
            u, nd = head[i], dv + weight[i]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return dist


def build_separator_graph(g: gf.GridGraph, h: int,
                          name: str = "gprime") -> SeparatorGraph:
    """Condense every cluster to boundary-to-boundary distances plus cross
    edges, written in h-number order a run of ``_runs`` at a time by
    ``_condense_run``.  Floyd's pass, m^3 a cluster, serves m <= 16; from
    side 8 on per-source heap searches win (ROADMAP item 4).
    """
    gf.check_input(g, ("weighted_directed", "unweighted"), ClusterError)
    scheme = ClusterScheme(g.rows, g.cols, h)
    # h = 0 degenerates to 1x1 clusters whose single vertex can have up to 8
    # cross-cluster edges; widen the record so the slot budget still holds
    slots = 4 * (1 << h) if h > 0 else 8
    wide = g.encoding != "unweighted"

    handle = g.disk.open_file(name)
    out = g.disk.append_stream(handle)
    for _, extents, arcs in _runs(g, scheme):
        out.write(_condense_run(g, extents, arcs, slots, wide).tobytes())
    out.close()
    return SeparatorGraph(scheme, handle,
                          slots * _SLOT_FORMATS[wide][0].itemsize, wide)


def _condense_run(g, extents, arcs, slots, wide):
    """A run's records as one (clusters, boundary, slots) array, from its
    arcs; ``extents`` holds its clusters' ``ClusterScheme.extents``.

    Distances are exact: int64 with ``_NO_PATH`` for no path while m - 1
    arcs of the run's heaviest intra-cluster weight stay below it, Python
    ints otherwise.  The first failing cluster raises its first fault: an
    arc off the grid, then, per source in clockwise order, a boundary
    distance at or past the no-path marker, then a cross edge too heavy.
    """
    dtype, absent, shift = _SLOT_FORMATS[wide]
    shape, t, cell, d, dst, w = arcs
    k, m, bsize = len(extents), len(shape.bpos), len(shape.boundary)
    inside, out = dst >= 0, dst < 0

    iw = w[inside]
    longest = (m - 1) * int(iw.max(initial=0))
    inf, kind = ((_NO_PATH, np.int64) if longest < _NO_PATH
                 else (longest + 1, object))
    rows = (_all_pairs_rows if m <= 16 else _searched_rows)(
        shape, k, cell[inside], dst[inside], iw.astype(kind), inf)
    found = rows < inf
    rows = np.where(found, rows, 0)
    top = rows.max(axis=2)                  # per source, in clockwise order

    # the first cluster with a source whose boundary distances reach the
    # marker or with a cross edge too heavy; an arc off the grid there or
    # before it raises first
    (ob, osrc), od, ow, ot = np.divmod(cell[out], m), d[out], w[out], t[out]
    far = top >= absent
    bad = far.any(axis=1)
    bad[ob[ow >> shift != 0]] = True
    first = int(bad.argmax()) if bad.any() else k
    off, fault = _heads(g, extents, ob, osrc, od)[2:]
    if fault and off <= first:
        raise fault
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


def _all_pairs_rows(shape, k, cell, dst, w, inf):
    """A run's (clusters, boundary, boundary) distances, ``inf`` for no
    path, by Floyd's recurrence, over arcs from ``cell`` (see ``_decode``)
    to local ``dst`` of weight ``w``."""
    m = len(shape.bpos)
    dist = np.full((k, m, m), inf, w.dtype)
    dist[:, np.arange(m), np.arange(m)] = 0
    dist.reshape(k * m, m)[cell, dst] = w
    _all_pairs(dist)
    bnd = np.array(shape.boundary)
    return dist[:, bnd[:, None], bnd]


def _searched_rows(shape, k, cell, dst, w, inf):
    """``_all_pairs_rows``' distances by one heap search per boundary
    source, which stops once every boundary vertex is popped (a popped
    distance is final); ``local_dijkstra`` per source measured slower."""
    bpos, bnd = shape.bpos, shape.boundary
    m = len(bpos)
    first, cols = csr(cell, k * m, dst, w)
    first, (head, weight) = first.tolist(), [c.tolist() for c in cols]
    row_of, rows = itemgetter(*bnd), []
    for base in range(0, k * m, m):
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
                for i in range(first[base + v], first[base + v + 1]):
                    u, nd = head[i], dv + weight[i]
                    if nd < dist[u]:
                        dist[u] = nd
                        heapq.heappush(pq, (nd, u))
            rows.append(row_of(dist))
    return np.array(rows, w.dtype).reshape(k, len(bnd), len(bnd))
