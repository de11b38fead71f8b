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
h0-cluster keys.  A finalized vertex whose estimate later improves turns
tentative again (it is reactivated), which keeps the result exact under the
budgeted order.  Strict key order never reactivates: every relaxation adds
a non-negative weight to the estimate just finalized, which is at least
every estimate finalized before it.

A step touches its own cluster and the clusters the settled vertex's edges
reach, at most the cluster and its 8 grid neighbours.  Their blocks of ``D``
stay in memory until the next step ends (see ``DistanceFile``): a step reads
only the blocks it touches that are not resident, after it the resident set
is exactly its clusters' blocks, at most 9 * ceil(32 (2^h - 1) / B), and a
dirty block is written back when it leaves.  The queues are refreshed from
the records in memory, never from ``D``.  In ``D`` a cluster's records form
one range that touches as few blocks as its length allows.  While a range
fits one block, a step that reaches one other cluster touches at most the
four blocks the cost model prices per separator vertex.

An estimate that would reach ``INF_D`` raises ``SsspError``: the 63 bits
beside the tentative flag cannot hold it.
"""

from __future__ import annotations

import heapq
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

    Phase 2 goes through a step-scoped block buffer.  ``records`` loads the
    blocks of a cluster's range, reading only those not resident, each
    maximal run of missing blocks as one direct read, and returns the
    cluster's records for the caller to change and ``mark``.  ``end_step``
    makes the resident set exactly the blocks of the clusters loaded since
    the previous step, and writes back each maximal run of dirty blocks
    that leave as one whole-block write; ``flush`` writes back the rest and
    empties the buffer.  A step loads its own cluster and the clusters its
    edges reach, at most 9, so the buffer holds at most
    9 * ceil(32 (2^h - 1) / B) blocks.  Residency is per block, as a long
    range's last block can hold the next short range.  A cluster's records
    stay decoded while all of its blocks are resident, and are encoded into
    them when one leaves; only a block whose bytes change turns dirty.
    ``read`` is phase 3's counted read of one range.
    """

    def __init__(self, disk: SimDisk, scheme: cl.ClusterScheme, name: str):
        self.disk = disk
        self.bases = scheme.bases
        b = self.block = disk.config.block_bytes
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
        # per rank, its block if its range fits one
        self.single = [span[0] if len(span) == 1 else None
                       for span in self.spans]
        # per block, the ranks whose range touches it
        self.ranks_of: list[list[int]] = [[] for _ in range(-(-end // b))]
        for rank, span in enumerate(self.spans):
            for k in span:
                self.ranks_of[k].append(rank)
        self.handle = disk.open_file(name)
        stream = disk.append_stream(self.handle)
        stream.write(b"\xff" * end)
        stream.close()
        self.resident: dict[int, bytearray] = {}   # block -> bytes
        self._decoded: dict[int, list] = {}        # rank -> records
        self._dirty_ranks: set[int] = set()        # decoded, not yet encoded
        self._dirty_blocks: set[int] = set()       # resident, not yet written
        self._step: set[int] = set()               # blocks loaded this step

    def records(self, rank: int) -> list[int]:
        """The records of the cluster of Z-rank ``rank``, its blocks loaded
        into the buffer for this step."""
        vals = self._decoded.get(rank)
        k = self.single[rank]
        if k is not None:
            self._step.add(k)
            if vals is not None:
                return vals
            raw = self.resident.get(k)
            if raw is None:
                raw = self.resident[k] = bytearray(self.disk.read_direct(
                    self.handle, k * self.block, self.block))
        else:
            span = self.spans[rank]
            self._step.update(span)
            if vals is not None:
                return vals
            self._load(span)
            raw = b"".join([self.resident[k] for k in span])
        vals = self._decoded[rank] = list(self.codecs[rank].unpack_from(
            raw, self.offsets[rank] % self.block))
        return vals

    def mark(self, rank: int):
        """The records ``records`` returned for ``rank`` have changed."""
        self._dirty_ranks.add(rank)

    def _load(self, span: range):
        """Read the blocks of ``span`` not resident, one read per run."""
        b, resident = self.block, self.resident
        for first, last in _runs([k for k in span if k not in resident]):
            raw = self.disk.read_direct(self.handle, first * b,
                                        (last - first + 1) * b)
            for k in range(first, last + 1):
                resident[k] = bytearray(raw[(k - first) * b:
                                            (k - first + 1) * b])

    def _encode(self, rank: int, vals: list[int]):
        """Copy a dirty cluster's records into its resident blocks; a block
        turns dirty only if its bytes change."""
        raw = self.codecs[rank].pack(*vals)
        k, resident = self.single[rank], self.resident
        if k is not None:
            i = self.offsets[rank] % self.block
            resident[k][i:i + len(raw)] = raw
            self._dirty_blocks.add(k)
        else:
            b, pos = self.block, self.offsets[rank]
            for k in self.spans[rank]:
                lo = max(pos, k * b) - k * b
                hi = min(pos + len(raw), (k + 1) * b) - k * b
                new = raw[k * b + lo - pos:k * b + hi - pos]
                if resident[k][lo:hi] != new:
                    resident[k][lo:hi] = new
                    self._dirty_blocks.add(k)
        self._dirty_ranks.discard(rank)

    def _evict(self, gone: set[int]):
        """Write back the dirty blocks of ``gone``, one whole-block write
        per run, and drop them and the clusters they held."""
        decoded, dirty_ranks = self._decoded, self._dirty_ranks
        for k in gone:
            for rank in self.ranks_of[k]:
                if rank in dirty_ranks:
                    self._encode(rank, decoded.pop(rank))
                else:
                    decoded.pop(rank, None)
        dirty, resident = gone & self._dirty_blocks, self.resident
        if dirty:
            self._dirty_blocks -= dirty
            b = self.block
            for first, last in _runs(sorted(dirty)):
                self.disk.write_direct(self.handle, first * b, b"".join(
                    [resident[k] for k in range(first, last + 1)]))
        for k in gone:
            del resident[k]

    def end_step(self):
        """Keep exactly the blocks of the clusters loaded in this step."""
        step, self._step = self._step, set()
        gone = self.resident.keys() - step
        if gone:
            self._evict(gone)

    def flush(self):
        """Write back every dirty block and empty the buffer."""
        self._evict(set(self.resident))

    def read(self, rank: int) -> list[int]:
        """The records of the cluster of Z-rank ``rank``; one counted read."""
        size = self.bases[rank + 1] - self.bases[rank]
        raw = self.disk.read_direct(self.handle, self.offsets[rank], 8 * size)
        return np.frombuffer(raw, "<u8").tolist()


def _runs(blocks):
    """Maximal runs of consecutive block indices, as (first, last) pairs,
    of an ascending sequence."""
    runs = []
    for k in blocks:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return runs


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
    wrong encoding, or a source outside the grid."""
    gf.check_input(g, (encoding,), error)
    r, c = s_cell
    if not (0 <= r < g.rows and 0 <= c < g.cols):
        raise error("source outside grid")


def _condense_and_seed(g, s_cell, h: int, out_name: str):
    """Phase 1: the separator graph, a fresh distance file, and tentative
    boundary estimates of the source's cluster from a local in-memory
    search, set in the distance file's buffer as one step.  Returns
    (separator graph, distance file, source cluster rank, its records)."""
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
            dfile.mark(srank)
    dfile.end_step()
    return gp, dfile, srank, vals


def _relax_targets(dfile, rank, held, dist_u, targets, stats):
    """Apply dist_u + w relaxations grouped per target cluster.

    ``targets`` yields (cluster rank, boundary position, weight).  Targets in
    cluster ``rank`` go to its records ``held``, which the caller marks;
    every other target cluster is loaded into the step and marked if
    changed.  Returns {rank: records} of the clusters whose least tentative
    estimate may have changed, ``rank`` always among them.  An improved
    final estimate turns tentative again.
    """
    # rank -> [(position in the cluster, weight)]
    by_cluster: dict[int, list] = {rank: []}
    for r, p, w in targets:
        by_cluster.setdefault(r, []).append((p, w))
    records, touched = {}, set()
    for r, lst in by_cluster.items():
        vals = records[r] = held if r == rank else dfile.records(r)
        changed = False
        for i, w in lst:
            nd = dist_u + w
            cur = vals[i]
            if nd < (cur & INF_D):
                if not cur & TENTATIVE:
                    stats.reactivations += 1
                vals[i] = TENTATIVE | nd
                changed = True
            elif nd >= INF_D and cur == TENTATIVE | INF_D:
                raise _too_long(nd)
        if changed:
            dfile.mark(r)
            touched.add(r)
    touched.add(rank)
    # the queues are refreshed in the set's order; BFS's bucket queue breaks
    # key ties by insertion, so this order is part of the schedule
    return {r: records[r] for r in touched}


def _settle(gp, dfile, rank, stats):
    """The phase-2 step: finalize the least tentative estimate of one cluster
    and relax that vertex's separator edges.

    Every cluster the step touches is loaded into ``dfile``'s block buffer,
    which keeps exactly their blocks once the step ends.  Returns {rank:
    records} of the clusters whose least tentative estimate may have
    changed, or None when the cluster holds no tentative estimate.
    """
    vals = dfile.records(rank)
    best = _min_tentative(vals)
    if best is None:
        dfile.end_step()
        return None
    dist_u, pos = best
    vals[pos] &= ~TENTATIVE            # make final
    dfile.mark(rank)
    u = gp.scheme.bases[rank] + pos
    stats.extractions.append((u, dist_u))
    touched = _relax_targets(
        dfile, rank, vals, dist_u,
        gp.decode_edges(rank, pos, gp.read_record(u)), stats)
    dfile.end_step()
    return touched


def _finalize_interiors(g, scheme, dfile, s_cell, out_name):
    """Phase 3: per cluster, a search seeded from the final boundary
    estimates (and the source itself); distances written in Z-order."""
    dfile.flush()
    disk = g.disk
    handle = disk.open_file(out_name)
    stream = disk.append_stream(handle)
    gf.write_header_via(stream, disk, "distances", g.rows, g.cols, g.n)
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
        dist = [gf.ABSENT if d == cl.INF else d for d in dist]
        local_of_t = scheme.shape(q.rank).local_of_t
        stream.write(np.array(dist, "<u8")[local_of_t].tobytes())
    stream.close()
    return handle


def solve_in_key_order(g, s_cell, h: int, queue, stats: SolveStats,
                       out_name: str):
    """The three phases with phase 2 in strict global key order.

    ``queue`` is any min-queue with ``insert(key, rank)`` and
    ``extract_min()``.  Returns the output handle.
    """
    gp, dfile, srank, svals = _condense_and_seed(g, s_cell, h, out_name)
    scheme = gp.scheme
    # least tentative (distance, position) per cluster, or None; it mirrors
    # the distance file, so a queue entry whose key matches it is live
    cur_min = [None] * len(scheme.extents)

    def refresh(rank, vals):
        cur_min[rank] = _min_tentative(vals)
        if cur_min[rank] is not None:
            queue.insert(cur_min[rank][0], rank)

    refresh(srank, svals)
    while (entry := queue.extract_min()) is not None:
        key, rank = entry
        if cur_min[rank] is not None and key == cur_min[rank][0]:
            for tr, vals in _settle(gp, dfile, rank, stats).items():
                refresh(tr, vals)
    return _finalize_interiors(g, scheme, dfile, s_cell, out_name)


def sssp_simple(g: gf.GridGraph, s_cell: tuple[int, int], h: int,
                out_name: str = "dist.out", stats: SolveStats | None = None):
    """Exact distances from s to every vertex; strict global key order."""
    check_source(g, s_cell, "weighted_directed")
    stats = stats if stats is not None else SolveStats()
    return solve_in_key_order(g, s_cell, h, HeapQueue(), stats, out_name)


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
    gp, dfile, srank, svals = _condense_and_seed(g, s_cell, h0, out_name)
    scheme = gp.scheme

    k = len(levels) - 1
    # level slicing and heap ties are 2-D: (row, column) of each h0 cluster
    # in the cluster grid, by rank
    coords = [(r0 >> h0, c0 >> h0) for r0, c0, _, _ in scheme.extents]
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
        coord = coords[rank]
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
        touched = _settle(gp, dfile, rank, stats)
        if touched is None:
            keys[coords[rank]] = INF_D
            stats.wasted_calls += 1
            return False
        for tr, vals in touched.items():
            refresh(tr, vals)
        return True

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
    if k == 0:
        while level0_step(0):
            pass
    else:
        while child_key(k, (0, 0)) < INF_D:
            process(k, (0, 0))
    return _finalize_interiors(g, scheme, dfile, s_cell, out_name)


read_distances = gf.read_u64_payload
