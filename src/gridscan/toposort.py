"""Topological sorting of DAG grid graphs with cluster-sized memory.

Pipeline: condense the grid to its reachability separator graph, run
Kahn's algorithm over it with the in-degree table and the queue in memory,
then number the interior of each cluster into chunks keyed by separator
ranks.  Alternating predecessor/successor rounds assign most interior
vertices; the rest form weakly-connected left-over components that inherit
the chunk of a numbered left neighbour.  A half-round visits only its
frontier: the unnumbered vertices reachable (forward in a predecessor
half-round, backward in a successor one) from those numbered since the last
half-round of its kind, or from every numbered vertex the first time.  No
other vertex can change, because a predecessor half-round leaves no
unnumbered vertex with a numbered predecessor, and a successor half-round
none with a numbered successor.  Chunks are emitted in rank order, each
internally topologically sorted.

This module owns the reachability graph, which ``tfp`` numbers too:
``build_reach_graph`` writes its record file ``*.gp``, a
``clusters.SeparatorRecords``, and keeps the in-degree table in memory, and
``topo_number_separator`` keeps Kahn's queue in memory as the rank order,
so ``*.gp`` is the numbering's only file.  The build also keeps each
separator vertex's directions in from other clusters, ``cross_in``, for
``tfp``'s message plan.  ``toposort`` writes ``*.chunks``, a
``clusters.ChunkFile`` keyed by rank, and the output.  A ``*.chunks``
record is only its chunk's topologically sorted 32-bit local ids: the
store's entry already holds the chunk's rank, cluster rank, offset and
size, so the file is exactly 4 bytes per vertex.  ``clusters`` supplies the
cluster scheme, decode and chunk store.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import gridfmt as gf
from . import clusters as cl


class ToposortError(Exception):
    pass


# IN_BIT[d]: the bit, in its head's in-mask, of an arc leaving in direction d
IN_BIT = tuple(1 << gf.opposite(d) for d in range(8))


@dataclass
class ChunkAssignment:
    chunk: list                 # per local vertex id, the chunk rank
    members: dict               # rank -> topologically sorted local ids
    rounds: int = 0
    leftover: int = 0


@dataclass
class TopoStats:
    rounds_max: int = 0
    chunk_count: int = 0


def _topo_order(q: cl.InMemoryCluster, error=ToposortError) -> list:
    """Topological order of the intra-cluster subgraph; a cycle is raised as
    ``error``.  Of the cells ready at each step the smallest row-major local
    id comes first, so the order is deterministic."""
    first, head = q.first, q.head
    indeg = np.bincount(np.array(head, np.int64), minlength=q.n)
    heap = np.flatnonzero(indeg == 0).tolist()         # ascending: a heap
    indeg = indeg.tolist()
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for u in head[first[v]:first[v + 1]]:
            indeg[u] -= 1
            if indeg[u] == 0:
                heapq.heappush(heap, u)
    if len(order) != q.n:
        raise error("cycle inside the cluster at (%d,%d)" % (q.r0, q.c0))
    return order


@dataclass
class ReachGraph(cl.SeparatorRecords):
    """The reachability records.  ``indeg`` holds the in-degree of every
    separator vertex, in memory from the build to the numbering.
    ``cross_in`` holds, one byte per separator vertex, the in-mask bits of
    its arcs from other clusters, as TFP's vertex record stores them; only
    ``tfp.plan_messages`` reads it, toposort does not.
    ``error`` is the exception the build raises, and the numbering too."""

    indeg: np.ndarray
    cross_in: np.ndarray
    error: type

    def decode_reach(self, hnum: int, raw: bytes) -> list[int]:
        """H-numbers of every target of separator vertex ``hnum`` from its
        record ``raw``.

        A record is a bit set over the boundary positions of its own cluster
        (the boundary vertices it reaches inside the cluster) and one byte of
        directions of its edges out of the cluster.  The targets inside the
        cluster come first, by position, then those across, by direction.
        """
        scheme = self.scheme
        base = scheme.bases[bisect_right(scheme.bases, hnum) - 1]
        m = int.from_bytes(raw[:-1], "little")
        targets = []
        while m:                       # set bits, lowest first
            low = m & -m
            targets.append(base + low.bit_length() - 1)
            m ^= low
        out_mask = raw[-1]
        if out_mask:
            r, c = scheme.coord_of_h_number(hnum)
            for d, (dr, dc) in enumerate(gf.DIR_OFFSETS):
                if out_mask >> d & 1:
                    targets.append(scheme.h_number(r + dr, c + dc))
        return targets


def build_reach_graph(g: gf.GridGraph, h: int, name: str = "reach",
                      error=ToposortError) -> ReachGraph:
    """Condense every cluster of an unweighted DAG to the reachability
    records of its boundary, written sequentially in h-number order, and
    count each separator vertex's in-degree and the directions of its
    cross-cluster in-arcs.  Another encoding, or a cycle inside a cluster,
    is raised as ``error``."""
    gf.check_input(g, ("unweighted",), error)
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    # one bit per boundary position, fewer than 4 * 2^h of them, then the
    # byte of out-directions
    rec_size = -(-(4 << h) // 8) + 1
    handle = g.disk.open_file(name)
    out = g.disk.append_stream(handle)
    indeg = np.zeros(scheme.total_boundary, dtype=np.int64)
    cross_in = np.zeros(scheme.total_boundary, dtype=np.uint8)
    for q in cl.iterate_clusters(g, scheme):
        first, head = q.first, q.head
        bpos = scheme.shape(q.rank).bpos
        bsize = len(q.boundary)
        base = scheme.bases[q.rank]
        # per cell, the boundary positions it reaches, its own included; in
        # a DAG no cell reaches itself, so a record is its set less its own
        reach = [0] * q.n
        for i, v in enumerate(q.boundary):
            reach[v] = 1 << i
        for v in reversed(_topo_order(q, error)):
            acc = reach[v]
            for u in head[first[v]:first[v + 1]]:
                acc |= reach[u]
            reach[v] = acc
        out_masks = [0] * bsize
        for v, d, nr, nc, _ in q.out_edges:
            out_masks[bpos[v]] |= 1 << d
            t = scheme.h_number(nr, nc)
            indeg[t] += 1
            cross_in[t] |= IN_BIT[d]
        recs = b"".join((reach[v] ^ 1 << i).to_bytes(rec_size - 1, "little")
                        + bytes([m])
                        for i, (v, m) in enumerate(zip(q.boundary, out_masks)))
        masks = np.frombuffer(recs, dtype=np.uint8).reshape(bsize, rec_size)
        bits = np.unpackbits(masks[:, :-1], axis=1, bitorder="little")
        indeg[base:base + bsize] += bits[:, :bsize].sum(axis=0,
                                                        dtype=np.int64)
        out.write(recs)
    out.close()
    return ReachGraph(scheme, handle, rec_size, indeg, cross_in, error)


def topo_number_separator(gp: ReachGraph) -> np.ndarray:
    """Kahn's algorithm over the reachability separator graph; returns the
    topological rank of every separator vertex, indexed by h-number.

    It counts ``gp.indeg`` down in place.  The FIFO of ready vertices is
    the h-numbers in rank order: the zero-in-degree vertices, ascending,
    then each vertex as it becomes ready.  That list and ``indeg`` live in
    memory, one entry per separator vertex each, and the rank table is the
    list's inverse.  A cycle is raised as the error the graph was built
    with.
    """
    indeg = gp.indeg
    order = np.flatnonzero(indeg == 0).tolist()
    for u in order:                    # the list grows as vertices get ready
        for t in gp.decode_reach(u, gp.read_record(u)):
            indeg[t] -= 1
            if indeg[t] == 0:
                order.append(t)
    if len(order) != len(indeg):
        raise gp.error("separator graph cyclic")
    r = np.empty(len(order), dtype=np.int64)
    r[order] = np.arange(len(order))
    return r


def _half_round(seeds, follow, inputs, chunk, pos, pick, backward):
    """Number every unnumbered vertex reachable along ``follow`` from
    ``seeds`` through unnumbered vertices, in ascending topological position
    (descending if ``backward``), each by ``pick`` over its numbered
    ``inputs``.  ``follow`` and ``inputs`` are (offsets, vertices) pairs in
    CSR form.  Returns the vertices it numbered, in that order."""
    (ff, fv), (inf, inv) = follow, inputs
    found, stack = set(), list(seeds)
    while stack:
        x = stack.pop()
        for u in fv[ff[x]:ff[x + 1]]:
            if chunk[u] is None and u not in found:
                found.add(u)
                stack.append(u)
    fresh = sorted(found, key=pos.__getitem__, reverse=backward)
    for v in fresh:
        chunk[v] = pick([chunk[u] for u in inv[inf[v]:inf[v + 1]]
                         if chunk[u] is not None])
    return fresh


def assign_chunk_numbers(q: cl.InMemoryCluster, ranks) -> ChunkAssignment:
    """Chunk every vertex of one cluster.

    ``ranks[i]`` is the separator rank of boundary cell ``q.boundary[i]``:
    the cluster's slice of the rank table.  Boundary vertices seed their own
    rank; the interior is filled by alternating rounds.  A predecessor
    half-round gives an unnumbered vertex the maximum over its numbered
    predecessors, a successor half-round the minimum over its numbered
    successors, in (reverse) topological order, so a vertex numbered earlier
    in the half-round counts.  A half-round visits only the unnumbered
    vertices reachable forward (backward) from those numbered since the last
    half-round of its kind, or from every numbered vertex the first time.
    No other vertex can take a number, since the last half-round of its kind
    left no unnumbered vertex with a numbered predecessor (successor).
    """
    n, wid = q.n, q.wid
    succ = q.first, q.head
    # the predecessors are the CSR of the transpose
    tail = np.repeat(np.arange(n), np.diff(q.first))
    head = np.array(q.head, np.int64)
    pfirst, (ptail,) = cl.csr(head, n, tail)
    pred = pfirst.tolist(), ptail.tolist()
    order = _topo_order(q)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    chunk = [None] * n
    for v, rank in zip(q.boundary, ranks):
        chunk[v] = rank

    rounds = 0
    remaining = sum(1 for x in chunk if x is None)
    # vertices numbered since the last half-round of each kind
    since_pred = since_succ = list(q.boundary)
    while remaining:
        fwd = _half_round(since_pred, succ, pred, chunk, pos, max, False)
        back = _half_round(since_succ + fwd, pred, succ, chunk, pos, min, True)
        since_pred, since_succ = back, []
        remaining -= len(fwd) + len(back)
        rounds += 1
        if not (fwd or back):
            break

    # left-over components, by weak 8-neighbour connectivity: a row-major
    # sweep settles each with the chunk of the cell left of its leftmost,
    # topmost cell, numbered before the sweep (an unnumbered one would be
    # 8-adjacent, so in the component), so no component waits on another.
    leftover = remaining
    for v in range(n if remaining else 0):
        if chunk[v] is not None:
            continue
        cells, stack = {v}, [v]
        while stack:
            xr, xc = divmod(stack.pop(), wid)
            for dr, dc in gf.DIR_OFFSETS:
                yr, yc = xr + dr, xc + dc
                y = yr * wid + yc
                if (0 <= yr < q.hgt and 0 <= yc < wid and chunk[y] is None
                        and y not in cells):
                    cells.add(y)
                    stack.append(y)
        lead = min(cells, key=lambda c: (c % wid, c // wid))
        if lead % wid == 0 or chunk[lead - 1] is None:
            raise ToposortError("left-over component has no numbered "
                                "left neighbour")
        for x in cells:
            chunk[x] = chunk[lead - 1]

    ranked = np.array(chunk)
    if (ranked[tail] > ranked[head]).any():
        raise ToposortError("chunk numbers decrease along an edge")

    members: dict = {}
    for v in order:                           # already topologically sorted
        members.setdefault(chunk[v], []).append(v)
    return ChunkAssignment(chunk, members, rounds, leftover)


def toposort(g: gf.GridGraph, h: int, out_name: str = "topo.out",
             stats: TopoStats | None = None):
    """Full pipeline; returns the handle of the ordered vertex file."""
    disk = g.disk
    gp = build_reach_graph(g, h, out_name + ".gp")
    scheme, rtab = gp.scheme, topo_number_separator(gp)

    chunks = cl.ChunkFile(disk, out_name + ".chunks")
    for q in cl.iterate_clusters(g, scheme):
        asg = assign_chunk_numbers(
            q, rtab[scheme.bases[q.rank]:scheme.bases[q.rank + 1]].tolist())
        if stats is not None:
            stats.rounds_max = max(stats.rounds_max, asg.rounds)
            stats.chunk_count += len(asg.members)
        for rank, ids in sorted(asg.members.items()):
            chunks.put(rank, q.rank, np.array(ids, "<u4").tobytes())

    out, stream = gf.open_result(disk, out_name, "vertex_seq", g.rows, g.cols,
                                 g.n)
    emitted = 0
    for crank, rec in chunks.chunks():
        ids = np.frombuffer(rec, "<u4")
        t_of_local = scheme.shape(crank).t_of_local
        stream.write((scheme.starts[crank] + t_of_local[ids])
                     .astype("<u8").tobytes())
        emitted += len(ids)
    stream.close()
    if emitted != g.n:
        raise ToposortError("internal: emitted %d of %d vertices"
                            % (emitted, g.n))
    return out


read_order = gf.read_u64_payload
