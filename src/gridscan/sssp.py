"""Single-source shortest paths over the separator graph.

Two solvers share the same three-phase skeleton:

1. condense every cluster to boundary-to-boundary distances (the separator
   graph), 2. run a cluster-keyed Dijkstra over the condensed graph while the
   per-vertex distance estimates live in a file ``D``, 3. rescan the clusters
   and finalize interior vertices from the boundary distances: a stream of
   clusters with their distances, which both solvers write in Z-order and
   ``bfs`` cuts into chunks as they arrive, writing no final distances.

Phase 2 is one step, ``_settle``, repeated: finalize the least tentative
estimate of a cluster and relax that vertex's separator edges.  Only the
order of the steps differs.  ``solve_in_key_order`` takes the step in strict
global key order from a heap of its own, whose tie rule settles equal keys
least cluster first for ``sssp_simple`` and latest pushed first for
``bfs.bfs_distances``.  ``sssp_hierarchical`` nests clusters into levels and
spends a fixed budget of steps per visit to a level; a level cluster's key
is the minimum of the h0-cluster keys of one range of Z ranks.  A finalized
vertex whose estimate later improves turns tentative again (it is
reactivated), which keeps the result exact under the budgeted order.
Strict key order never reactivates: every relaxation adds a non-negative
weight to the estimate just finalized, which is at least every estimate
finalized before it.

A step touches its own cluster and the clusters the settled vertex's edges
reach, at most the cluster and its 8 grid neighbours.  It changes their
records through the block buffer of ``DistanceFile``, which between steps
holds only the blocks of ``D`` of the previous step's clusters.  The heaps
are refreshed from the step's records, never from ``D``.  In ``D`` a
cluster's records form one range that touches as few blocks as its length
allows.  While a range fits one block, a step that reaches one other cluster
touches at most the four blocks the cost model prices per separator vertex.

An estimate that would reach ``INF_D`` raises ``SsspError``: the 63 bits
beside the tentative flag cannot hold it.
"""

from __future__ import annotations

import heapq
import itertools
import struct
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
    The gaps this leaves keep their initial bytes: whole-block transfers
    carry them, and nothing decodes them.  H-numbers stay packed: only the
    offsets in ``D`` are padded.

    Phase 2 changes records through a ``simdisk.BlockBuffer`` of ``D``,
    whose rule decides what is read and written back.  ``records`` loads a
    cluster's blocks and decodes the cluster once per step; the caller
    changes the returned list in place.  ``end_step`` writes every cluster
    the step loaded back into the buffer and keeps exactly the step's
    blocks; ``flush`` empties it.  A step loads its own cluster and the
    clusters its edges reach, at most 9, so the buffer holds at most
    9 * ceil(32 (2^h - 1) / B) blocks.  Residency is per block, as a long
    range's last block can hold the next short range.  ``read`` is phase
    3's counted read of one range.
    """

    def __init__(self, disk: SimDisk, scheme: cl.ClusterScheme, name: str):
        self.disk = disk
        self.bases = scheme.bases
        b = disk.config.block_bytes
        # per rank: byte offset, blocks and record codec
        self.offsets, self.spans, self.codecs = [], [], []
        codecs: dict[int, struct.Struct] = {}
        end = 0
        for lo, hi in zip(self.bases, self.bases[1:]):
            if end % b + 8 * (hi - lo) > b:
                end = -(-end // b) * b
            self.offsets.append(end)
            self.spans.append(range(end // b, (end + 8 * (hi - lo) - 1) // b
                                    + 1))
            self.codecs.append(codecs.setdefault(
                hi - lo, struct.Struct("<%dQ" % (hi - lo))))
            end += 8 * (hi - lo)
        self.handle = disk.open_file(name)
        stream = disk.append_stream(self.handle)
        stream.write(b"\xff" * end)
        stream.close()
        self.buffer = disk.buffer(self.handle)
        self._step: dict[int, list] = {}           # rank -> records this step

    def records(self, rank: int) -> list[int]:
        """The records of the cluster of Z-rank ``rank``, its blocks loaded
        into the buffer for this step; the same list until the step ends."""
        vals = self._step.get(rank)
        if vals is None:
            span, buf = self.spans[rank], self.buffer
            buf.load(span)
            raw = b"".join([buf.resident[k] for k in span])
            vals = self._step[rank] = list(self.codecs[rank].unpack_from(
                raw, self.offsets[rank] % buf.block))
        return vals

    def end_step(self):
        """Encode the step's clusters into the buffer and keep exactly
        their blocks."""
        step, self._step = self._step, {}
        keep = set()
        for rank, vals in step.items():
            keep.update(self.spans[rank])
            self.buffer.write(self.offsets[rank],
                              self.codecs[rank].pack(*vals))
        self.buffer.keep(keep)

    def flush(self):
        """Write back every dirty block and empty the buffer."""
        self.buffer.flush()

    def read(self, rank: int) -> list[int]:
        """The records of the cluster of Z-rank ``rank``; one counted read."""
        size = self.bases[rank + 1] - self.bases[rank]
        raw = self.disk.read_direct(self.handle, self.offsets[rank], 8 * size)
        return np.frombuffer(raw, "<u8").tolist()


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
    # steps on a cluster with no tentative estimate; no driver takes
    # one, so it stays 0, and perfbench reports it
    wasted_calls: int = 0
    reactivations: int = 0


def _too_long(d: int) -> SsspError:
    return SsspError("distance %d does not fit below the 63-bit limit %d"
                     % (d, INF_D))


def check_source(g, s_cell, encoding: str, error=SsspError):
    """Reject, with the caller's error, an input the solvers cannot take: the
    wrong encoding, or a source outside the grid."""
    gf.check_input(g, (encoding,), error)
    r, c = s_cell
    if not (0 <= r < g.rows and 0 <= c < g.cols):
        raise error("source outside grid")


def _condense_and_seed(g, s_cell, h: int, out_name: str):
    """Phase 1: the separator graph, a fresh distance file, and tentative
    boundary estimates of the source's cluster from a local in-memory
    search, set in the source cluster's records as one step of the distance
    file's buffer.  Returns (separator graph, distance file, source cluster
    rank, its records)."""
    gp = cl.build_separator_graph(g, h, name=out_name + ".gp")
    scheme = gp.scheme
    dfile = DistanceFile(g.disk, scheme, out_name + ".D")
    srank = scheme.rank_of(*s_cell)
    q = cl.load_cluster(g, scheme, srank)
    dist = cl.local_dijkstra(q, [(0, q.local(*s_cell))])
    vals = dfile.records(srank)
    for i, v in enumerate(q.boundary):
        dv = dist[v]
        if dv != cl.INF:
            if dv >= INF_D:
                raise _too_long(dv)
            vals[i] = TENTATIVE | int(dv)
    dfile.end_step()
    return gp, dfile, srank, vals


def _relax_targets(dfile, rank, dist_u, targets, stats):
    """Apply dist_u + w relaxations to the records of the target clusters.

    ``targets`` yields (cluster rank, boundary position, weight); each is
    applied to its cluster's ``dfile.records``, which loads the cluster into
    the step at its first target.  Returns {rank: records} of the clusters
    whose least tentative estimate may have changed, ``rank`` always among
    them.  An improved final estimate turns tentative again.
    """
    # rank -> records, clusters in order of first appearance
    records, changed = {rank: dfile.records(rank)}, set()
    for r, i, w in targets:
        vals = records.get(r)
        if vals is None:
            vals = records[r] = dfile.records(r)
        nd = dist_u + w
        cur = vals[i]
        if nd < (cur & INF_D):
            if not cur & TENTATIVE:
                stats.reactivations += 1
            vals[i] = TENTATIVE | nd
            changed.add(r)
        elif nd >= INF_D and cur == TENTATIVE | INF_D:
            raise _too_long(nd)
    # the heaps are refreshed in the set's order, and BFS's tie rule settles
    # equal keys latest pushed first, so the set is filled in the clusters'
    # order of first appearance, then ``rank``
    touched = {r for r in records if r in changed}
    touched.add(rank)
    return {r: records[r] for r in touched}


def _settle(gp, dfile, rank, best, stats):
    """The phase-2 step: finalize the least tentative estimate of one cluster
    and relax that vertex's separator edges.

    ``best`` is the cluster's least tentative (distance, position), as
    ``_min_tentative`` finds it in the cluster's records, which the driver
    keeps beside the cluster's key; both drivers step only a cluster that
    holds one.  Every cluster the step touches is changed in its records
    from ``dfile``, which encodes them and keeps exactly their blocks when
    the step ends.  Returns {rank: records} of the clusters whose least
    tentative estimate may have changed.
    """
    vals = dfile.records(rank)
    dist_u, pos = best
    vals[pos] &= ~TENTATIVE            # make final
    u = gp.scheme.bases[rank] + pos
    stats.extractions.append((u, dist_u))
    touched = _relax_targets(
        dfile, rank, dist_u, gp.decode_edges(rank, pos, gp.read_record(u)),
        stats)
    dfile.end_step()
    return touched


def _finalize_interiors(g, scheme, dfile, s_cell):
    """Phase 3, a stream: per cluster in rank order, the cluster and its
    distances from a search seeded from the final boundary estimates (and
    the source itself), INF where none reaches."""
    dfile.flush()
    srank = scheme.rank_of(*s_cell)
    for q in cl.iterate_clusters(g, scheme):
        vals = dfile.read(q.rank)
        seeds = [(d & INF_D, v)
                 for d, v in zip(vals, q.boundary) if d & INF_D != INF_D]
        if q.rank == srank:
            seeds.append((0, q.local(*s_cell)))
        dist = cl.local_dijkstra(q, seeds)
        top = max([d for d in dist if d != cl.INF], default=0)
        if top >= INF_D:
            raise _too_long(top)
        yield q, dist


def _write_distances(g, scheme, phase3, out_name):
    """Write phase 3's distances in Z-order (ABSENT unreachable); returns
    the output handle."""
    handle, stream = gf.open_result(g.disk, out_name, "distances", g.rows,
                                    g.cols, g.n)
    for q, dist in phase3:
        dist = [gf.ABSENT if d == cl.INF else d for d in dist]
        local_of_t = scheme.shape(q.rank).local_of_t
        stream.write(np.array(dist, "<u8")[local_of_t].tobytes())
    stream.close()
    return handle


def solve_in_key_order(g, s_cell, h: int, latest_first: bool,
                       stats: SolveStats, out_name: str):
    """Phases 1 and 2 with phase 2 in strict global key order.

    The heap holds (key, tie, rank) entries, one pushed whenever a step may
    have changed a cluster's least tentative estimate.  The ties are all 0,
    so equal keys come out least rank first, or with ``latest_first`` they
    count down, so equal keys come out the latest pushed first.  An entry
    whose key no longer matches its cluster's least tentative estimate is a
    stale copy and is skipped.  ``out_name`` prefixes the separator graph
    and distance file.  Returns phase 3's stream of (cluster, distances).
    """
    gp, dfile, srank, svals = _condense_and_seed(g, s_cell, h, out_name)
    scheme = gp.scheme
    # least tentative (distance, position) per cluster, or None; it mirrors
    # the distance file, so a heap entry whose key matches it is live
    cur_min = [None] * len(scheme.extents)
    heap, ties = [], itertools.count(0, -1 if latest_first else 0)

    def refresh(rank, vals):
        best = cur_min[rank] = _min_tentative(vals)
        if best is not None:
            heapq.heappush(heap, (best[0], next(ties), rank))

    refresh(srank, svals)
    while heap:
        key, _, rank = heapq.heappop(heap)
        best = cur_min[rank]
        if best is not None and key == best[0]:
            for tr, vals in _settle(gp, dfile, rank, best, stats).items():
                refresh(tr, vals)
    return _finalize_interiors(g, scheme, dfile, s_cell)


def sssp_simple(g: gf.GridGraph, s_cell: tuple[int, int], h: int,
                out_name: str = "dist.out", stats: SolveStats | None = None):
    """Exact distances from s to every vertex; strict global key order."""
    check_source(g, s_cell, "weighted_directed")
    stats = stats if stats is not None else SolveStats()
    phase3 = solve_in_key_order(g, s_cell, h, latest_first=False,
                                stats=stats, out_name=out_name)
    return _write_distances(g, cl.ClusterScheme(g.rows, g.cols, h), phase3,
                            out_name)


# ---------------------------------------------------------------------------
# Hierarchical solver


def build_hierarchy(h0: int, rows: int, cols: int) -> list[int]:
    """Level sequence h_0 < h_1 < ... truncated once one cluster covers the
    grid: h_1 = h_0 + 3, then h_i = 2^(h_{i-1} - h_{i-2} - 2) * h_{i-1}."""
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
    gp, dfile, srank, svals = _condense_and_seed(g, s_cell, h0, out_name)
    scheme = gp.scheme

    k = len(levels) - 1
    # level slicing and heap ties are 2-D: (row, column) of each h0 cluster
    # in the cluster grid, by rank
    coords = [(r0 >> h0, c0 >> h0) for r0, c0, _, _ in scheme.extents]
    # per h0 cluster, by rank: least tentative estimate, INF_D when it holds
    # none, and that estimate's (distance, position), None when none
    keys = [INF_D] * len(coords)
    cur_min = [None] * len(coords)

    def ancestor(coord, level):
        """Coords of the level-`level` cluster containing an h0 cluster."""
        shift = levels[level] - h0
        return coord[0] >> shift, coord[1] >> shift

    def child_key(level, coord):
        """Exact key of a level-`level` cluster: min over its h0 clusters.
        In Z order an aligned level cluster's in-grid h0 clusters are the
        ranks lo, lo + 1, ..., from the rank of its upper-left one."""
        ci, cj = coord
        s = levels[level] - h0
        lo = scheme.rank_of(ci << levels[level], cj << levels[level])
        if not s:
            return keys[lo]
        cnt = (min(1 << s, scheme.crows - (ci << s))
               * min(1 << s, scheme.ccols - (cj << s)))
        return min(keys[lo:lo + cnt])

    # per (level, parent coord): lazy heap over level-1 children
    heaps: dict[tuple[int, tuple[int, int]], list] = {}

    def refresh(rank, vals):
        """Set an h0 cluster's key from its records and advertise it, if any,
        to every ancestor queue on its chain."""
        coord = coords[rank]
        best = cur_min[rank] = _min_tentative(vals)
        keys[rank] = INF_D if best is None else best[0]
        if best is None:
            return
        for lv in range(1, k + 1):
            heapq.heappush(heaps.setdefault((lv, ancestor(coord, lv)), []),
                           (best[0], ancestor(coord, lv - 1)))

    def level0_step(rank):
        """One extraction inside an h0 cluster, which holds a tentative
        estimate: a child's key is below INF_D only then."""
        stats.level0_calls += 1
        for tr, vals in _settle(gp, dfile, rank, cur_min[rank],
                                stats).items():
            refresh(tr, vals)

    def process(level, coord):
        if level == 0:
            level0_step(scheme.rank_of(coord[0] << h0, coord[1] << h0))
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
    while child_key(k, (0, 0)) < INF_D:
        process(k, (0, 0))
    phase3 = _finalize_interiors(g, scheme, dfile, s_cell)
    return _write_distances(g, scheme, phase3, out_name)


read_distances = gf.read_u64_payload
