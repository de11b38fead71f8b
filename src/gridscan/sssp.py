"""Single-source shortest paths over the separator graph.

Two solvers share the same three-phase skeleton:

1. condense every cluster to boundary-to-boundary distances (the separator
   graph), 2. run a cluster-keyed Dijkstra over the condensed graph while the
   per-vertex distance estimates live in a file ``D``, 3. rescan the clusters
   and finalize interior vertices from the boundary distances.

Phase 2 is one step, ``_settle``, repeated: finalize the least tentative
estimate of a cluster and relax that vertex's separator edges.  Only the
order of the steps differs.  ``solve_in_key_order`` takes the step in strict
global key order from a min-queue: a binary heap for ``sssp_simple``, the
bucket queue for ``bfs.bfs_distances``.  ``sssp_hierarchical`` nests
clusters into levels and spends a fixed budget of steps per visit to a
level; a level cluster's key is the minimum of its slice of one array of
h0-cluster keys.  A finalized vertex whose estimate later improves is
reactivated, which keeps the result exact under the budgeted order.

A step reads the records of every cluster it touches once and writes each
at most once: the settled cluster's records stay in memory from the
finalization through the relaxations into the same cluster and are written
last, and the queues are refreshed from the records in memory, never from
``D``.  In ``D`` a cluster's records form one range that touches as few
blocks as its length allows (see ``DistanceFile``).  While a range fits one
block, a step that reaches one other cluster touches the four blocks the
cost model prices per separator vertex.

An estimate that would reach ``INF_D`` raises ``SsspError``: the 63 bits
beside the tentative flag cannot hold it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from .simdisk import SimDisk

INF_D = (1 << 63) - 1          # distance payload of the all-ones record
TENTATIVE = 1 << 63            # sign bit: estimate not yet final


class SsspError(Exception):
    pass


class DistanceFile:
    """Per-separator-vertex 64-bit records: bit 63 tentative flag, rest the
    distance estimate.  All-ones (tentative infinity) initially.

    Each cluster's records form one range, the clusters in Z-rank order.  A
    range of at most B bytes never crosses a block boundary and a longer one
    starts on one, so a range of k bytes touches exactly ceil(k / B) blocks.
    The gaps this leaves are written once, with the file, and never read.
    H-numbers stay packed: only the offsets in ``D`` are padded.
    """

    def __init__(self, disk: SimDisk, scheme: cl.ClusterScheme, name: str):
        self.disk = disk
        self.bases = scheme.bases
        b = disk.config.block_bytes
        self.offsets = []
        end = 0
        for lo, hi in zip(self.bases, self.bases[1:]):
            if end % b + 8 * (hi - lo) > b:
                end = -(-end // b) * b
            self.offsets.append(end)
            end += 8 * (hi - lo)
        self.handle = disk.open_file(name)
        stream = disk.append_stream(self.handle)
        stream.write(b"\xff" * end)
        stream.close()

    def read(self, rank: int) -> list[int]:
        """The records of the cluster of Z-rank ``rank``; one counted read."""
        size = self.bases[rank + 1] - self.bases[rank]
        raw = self.disk.read_direct(self.handle, self.offsets[rank], 8 * size)
        return np.frombuffer(raw, "<u8").tolist()

    def write(self, rank: int, vals: list[int]):
        self.disk.write_direct(self.handle, self.offsets[rank],
                               np.array(vals, "<u8").tobytes())


def _min_tentative(vals: list[int]):
    """(distance, position) of the best tentative record, or None."""
    best = None
    for i, v in enumerate(vals):
        if v & TENTATIVE and v != (TENTATIVE | INF_D):
            d = v & INF_D
            if best is None or d < best[0]:
                best = (d, i)
    return best


@dataclass
class SolveStats:
    extractions: list = field(default_factory=list)  # (h-number, distance)
    level0_calls: int = 0
    wasted_calls: int = 0
    reactivations: int = 0


class HeapQueue:
    """Binary-heap min-queue of (key, item) entries, ties broken by item.  A
    decreased key is reinserted and the stale copy discarded by the caller."""

    def __init__(self):
        self.heap: list = []

    def insert(self, key: int, item):
        heapq.heappush(self.heap, (key, item))

    def extract_min(self):
        """(key, item) with minimal key, or None when empty."""
        return heapq.heappop(self.heap) if self.heap else None


def _too_long(d: int) -> SsspError:
    return SsspError("distance %d does not fit below the 63-bit limit %d"
                     % (d, INF_D))


def check_source(g, s_cell, encoding: str, error=SsspError):
    """Reject, with the caller's error, an input the solvers cannot take: the
    wrong encoding or order, or a source outside the grid."""
    gf.check_input(g, (encoding,), error)
    r, c = s_cell
    if not (0 <= r < g.rows and 0 <= c < g.cols):
        raise error("source outside grid")


def _condense_and_seed(g, s_cell, h: int, mode: str, out_name: str):
    """Phase 1: the separator graph, a fresh distance file, and tentative
    boundary estimates of the source's cluster from a local in-memory
    search.  Returns (separator graph, distance file, source cluster rank,
    its records as written)."""
    gp = cl.build_separator_graph(g, h, mode, name=out_name + ".gp")
    scheme = gp.scheme
    dfile = DistanceFile(g.disk, scheme, out_name + ".D")
    ci, cj = scheme.cluster_of(*s_cell)
    srank = scheme.rank(ci, cj)
    q = cl.load_cluster(g, scheme, ci, cj)
    dist = cl.local_dijkstra(q, [(0, q.local(*s_cell))])
    vals = dfile.read(srank)
    for i, (r, c) in enumerate(q.boundary):
        dv = dist[q.local(r, c)]
        if dv != cl.INF:
            if dv >= INF_D:
                raise _too_long(dv)
            vals[i] = TENTATIVE | int(dv)
    dfile.write(srank, vals)
    return gp, dfile, srank, vals


def _relax_targets(dfile, scheme, rank, held, dist_u, targets, reactivate,
                   stats):
    """Apply dist_u + w relaxations grouped per target cluster.

    Targets in cluster ``rank`` go to its records ``held``, which the caller
    writes; every other target cluster is read once and, if changed, written
    once.  Returns {rank: records} of the clusters whose least tentative
    estimate may have changed, ``rank`` always among them.  A final estimate
    improves (and turns tentative again) only when ``reactivate`` is set.
    """
    base, end = scheme.bases[rank], scheme.bases[rank + 1]
    # rank -> [(position in the cluster, weight)]; a record lists the targets
    # in its own cluster first, and those need no cluster lookup
    by_cluster: dict[int, list] = {rank: []}
    for t, w in targets:
        r = rank if base <= t < end else scheme.rank_of_h_number(t)
        by_cluster.setdefault(r, []).append((t - scheme.bases[r], w))
    records, touched = {}, set()
    for r, lst in by_cluster.items():
        vals = records[r] = held if r == rank else dfile.read(r)
        changed = False
        for i, w in lst:
            nd = dist_u + w
            cur = vals[i]
            if nd < (cur & INF_D) and (cur & TENTATIVE or reactivate):
                if not cur & TENTATIVE:
                    stats.reactivations += 1
                vals[i] = TENTATIVE | nd
                changed = True
            elif nd >= INF_D and cur == TENTATIVE | INF_D:
                raise _too_long(nd)
        if changed:
            if r != rank:
                dfile.write(r, vals)
            touched.add(r)
    touched.add(rank)
    # the queues are refreshed in the set's order; BFS's bucket queue breaks
    # key ties by insertion, so this order is part of the schedule
    return {r: records[r] for r in touched}


def _settle(gp, dfile, rank, stats, reactivate):
    """The phase-2 step: finalize the least tentative estimate of one cluster
    and relax that vertex's separator edges.

    The settled cluster's records are read once, finalized and relaxed in
    memory, and written once, last.  Returns {rank: records} of the clusters
    whose least tentative estimate may have changed, or None when the
    cluster holds no tentative estimate.
    """
    vals = dfile.read(rank)
    best = _min_tentative(vals)
    if best is None:
        return None
    dist_u, pos = best
    vals[pos] &= ~TENTATIVE            # make final
    u = gp.scheme.bases[rank] + pos
    stats.extractions.append((u, dist_u))
    touched = _relax_targets(dfile, gp.scheme, rank, vals, dist_u,
                             gp.decode_edges(u, gp.read_record(dfile.disk, u)),
                             reactivate, stats)
    dfile.write(rank, vals)
    return touched


def _finalize_interiors(g, scheme, dfile, s_cell, out_name):
    """Phase 3: per cluster, a search seeded from the final boundary
    estimates (and the source itself); distances written in Z-order."""
    disk = g.disk
    handle = disk.open_file(out_name)
    stream = disk.append_stream(handle)
    gf.write_header_via(stream, disk, "distances", g.rows, g.cols, g.n)
    s_cluster = scheme.cluster_of(*s_cell)
    for rank, q in enumerate(cl.iterate_clusters(g, scheme)):
        vals = dfile.read(rank)
        seeds = [(v & INF_D, q.local(r, c))
                 for v, (r, c) in zip(vals, q.boundary) if v & INF_D != INF_D]
        if (q.ci, q.cj) == s_cluster:
            seeds.append((0, q.local(*s_cell)))
        dist = cl.local_dijkstra(q, seeds)
        top = max([d for d in dist if d != cl.INF], default=0)
        if top >= INF_D:
            raise _too_long(top)
        dist = [gf.ABSENT if d == cl.INF else d for d in dist]
        local_of_t = scheme.shape(q.ci, q.cj).local_of_t
        stream.write(np.array(dist, "<u8")[local_of_t].tobytes())
    stream.close()
    return handle


def solve_in_key_order(g, s_cell, h: int, mode: str, queue, stats: SolveStats,
                       out_name: str):
    """The three phases with phase 2 in strict global key order.

    ``queue`` is any min-queue with ``insert(key, rank)`` and
    ``extract_min()``; ``mode`` is the separator-graph mode.  Returns (output
    handle, cluster scheme).
    """
    gp, dfile, srank, svals = _condense_and_seed(g, s_cell, h, mode, out_name)
    scheme = gp.scheme
    # least tentative (distance, position) per cluster, or None; it mirrors
    # the distance file, so a queue entry whose key matches it is live
    cur_min = [None] * (scheme.crows * scheme.ccols)

    def refresh(rank, vals):
        cur_min[rank] = _min_tentative(vals)
        if cur_min[rank] is not None:
            queue.insert(cur_min[rank][0], rank)

    refresh(srank, svals)
    while (entry := queue.extract_min()) is not None:
        key, rank = entry
        if cur_min[rank] is not None and key == cur_min[rank][0]:
            for tr, vals in _settle(gp, dfile, rank, stats,
                                    reactivate=False).items():
                refresh(tr, vals)
    return _finalize_interiors(g, scheme, dfile, s_cell, out_name), scheme


def sssp_simple(g: gf.GridGraph, s_cell: tuple[int, int], h: int,
                out_name: str = "dist.out", stats: SolveStats | None = None):
    """Exact distances from s to every vertex; strict global key order."""
    check_source(g, s_cell, "weighted_directed")
    stats = stats if stats is not None else SolveStats()
    return solve_in_key_order(g, s_cell, h, "weighted_distance", HeapQueue(),
                              stats, out_name)[0]


# ---------------------------------------------------------------------------
# Hierarchical solver


def build_hierarchy(h0: int, rows: int, cols: int) -> list[int]:
    """Level sequence h_0 < h_1 < ... truncated once one cluster covers the
    grid: h_1 = h_0 + 3, then h_i = 2^(h_{i-1} - h_{i-2} - 2) * h_{i-1}."""
    if h0 < 1:
        raise SsspError("h0 must be at least 1")
    side = max(rows, cols)
    levels = [h0]
    while (1 << levels[-1]) < side:
        if len(levels) == 1:
            levels.append(h0 + 3)
        else:
            levels.append((1 << (levels[-1] - levels[-2] - 2)) * levels[-1])
    return levels


def sssp_hierarchical(g: gf.GridGraph, s_cell: tuple[int, int],
                      levels: list[int], out_name: str = "dist.out",
                      stats: SolveStats | None = None):
    """Same output as sssp_simple, via budgeted nested cluster queues."""
    check_source(g, s_cell, "weighted_directed")
    stats = stats if stats is not None else SolveStats()
    h0 = levels[0]
    gp, dfile, srank, svals = _condense_and_seed(
        g, s_cell, h0, "weighted_distance", out_name)
    scheme = gp.scheme

    k = len(levels) - 1
    # least tentative estimate per h0 cluster, INF_D when it holds none
    keys = np.full((scheme.crows, scheme.ccols), INF_D, dtype=np.int64)

    def ancestor(coord, level):
        """Coords of the level-`level` cluster containing an h0 cluster."""
        shift = levels[level] - h0
        return coord[0] >> shift, coord[1] >> shift

    def child_key(level, coord):
        """Exact key of a level-`level` cluster: min over its h0 clusters."""
        ci, cj = coord
        s = levels[level] - h0
        return int(keys[ci << s:(ci + 1) << s, cj << s:(cj + 1) << s].min())

    # per (level, parent coord): lazy heap over level-1 children
    heaps: dict[tuple[int, tuple[int, int]], list] = {}

    def refresh(rank, vals):
        """Set an h0 cluster's key from its records and advertise it, if any,
        to every ancestor queue on its chain."""
        coord = scheme.cluster_at_rank(rank)
        best = _min_tentative(vals)
        keys[coord] = INF_D if best is None else best[0]
        if best is None:
            return
        for lv in range(1, k + 1):
            heapq.heappush(heaps.setdefault((lv, ancestor(coord, lv)), []),
                           (best[0], ancestor(coord, lv - 1)))

    def level0_step(rank) -> bool:
        """One extraction inside an h0 cluster; False when nothing tentative."""
        stats.level0_calls += 1
        touched = _settle(gp, dfile, rank, stats, reactivate=True)
        if touched is None:
            keys[scheme.cluster_at_rank(rank)] = INF_D
            stats.wasted_calls += 1
            return False
        for tr, vals in touched.items():
            refresh(tr, vals)
        return True

    def process(level, coord):
        if level == 0:
            level0_step(scheme.rank(*coord))
            return
        budget = 1 << (levels[level] - levels[level - 1] - 1)
        heap = heaps.setdefault((level, coord), [])
        for _ in range(budget):
            entry = None
            while heap:
                key, child = heapq.heappop(heap)
                if child_key(level - 1, child) == key and key < INF_D:
                    entry = (key, child)
                    break
            if entry is None:
                return
            process(level - 1, entry[1])
            nk = child_key(level - 1, entry[1])
            if nk < INF_D:
                heapq.heappush(heap, (nk, entry[1]))

    refresh(srank, svals)
    if k == 0:
        while level0_step(0):
            pass
    else:
        while child_key(k, (0, 0)) < INF_D:
            process(k, (0, 0))
    return _finalize_interiors(g, scheme, dfile, s_cell, out_name)


read_distances = gf.read_u64_payload
