"""Topological sorting of DAG grid graphs with cluster-sized memory.

Pipeline: condense the grid to its separator graph in reachability mode, run
Kahn's algorithm over it with the in-degree table resident in memory, then
number the interior of each cluster into chunks keyed by separator ranks.
Alternating predecessor/successor rounds assign most interior vertices; the
rest form weakly-connected left-over components that inherit the chunk of a
numbered left neighbour.  Chunks are emitted in rank order, each internally
topologically sorted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from .simdisk import SimDisk


class ToposortError(Exception):
    pass


@dataclass
class TopoNumbering:
    t_handle: object            # separator vertices (h-numbers) in topo order
    r_handle: object            # rank indexed by h-number
    r: np.ndarray               # in-memory copy of the rank table
    count: int


@dataclass
class ChunkAssignment:
    chunk: list                 # per local vertex id, the chunk rank
    members: dict               # rank -> topologically sorted local ids
    rounds: int = 0
    leftover: int = 0


@dataclass
class TopoStats:
    rounds_max: int = 0
    leftover_vertices: int = 0
    chunk_count: int = 0


def topo_number_separator(gp: cl.SeparatorGraph, disk: SimDisk,
                          name: str = "topo") -> TopoNumbering:
    """Kahn's algorithm over the reachability separator graph.

    The in-degree table lives in memory (2 bytes per separator vertex); the
    zero-in-degree queue is consumed as a FIFO file and extended in place.
    """
    if gp.mode != "reachability":
        raise ToposortError("separator graph must be in reachability mode")
    scheme = gp.scheme
    total = scheme.total_boundary
    indeg = np.frombuffer(
        disk.read_direct(gp.d_handle, 0, 2 * total), dtype="<u2").astype(
        np.int64).copy()

    t_handle = disk.open_file(name + ".tprime")
    t_stream = disk.append_stream(t_handle)
    z_reader = disk.scan_reader(gp.z_handle, 0)
    # continue the queue at its logical end (the file itself is block padded)
    z_stream = disk.append_stream(gp.z_handle, 8 * gp.z_count)
    z_avail = gp.z_count
    z_read = 0

    r = np.full(total, -1, dtype=np.int64)
    numbered = 0
    while z_read < z_avail:
        u = int.from_bytes(z_reader.read(8), "little")
        z_read += 1
        t_stream.write(u.to_bytes(8, "little"))
        r[u] = numbered
        numbered += 1
        raw = gp.read_record(disk, u)
        targets, out_mask = gp.decode_reach(u, raw)
        ur, uc = scheme.coord_of_h_number(u)
        for d in range(8):
            if out_mask >> d & 1:
                dr, dc = gf.DIR_OFFSETS[d]
                targets.append(scheme.h_number(ur + dr, uc + dc))
        for t in targets:
            indeg[t] -= 1
            if indeg[t] == 0:
                z_stream.write(int(t).to_bytes(8, "little"))
                z_avail += 1
    t_stream.close()
    z_stream.close()
    if numbered != total:
        raise ToposortError("separator graph cyclic")

    r_handle = disk.open_file(name + ".rank")
    rs = disk.append_stream(r_handle)
    rs.write(r.astype("<u8").tobytes())
    rs.close()
    return TopoNumbering(t_handle, r_handle, r, total)


def number_separator(g: gf.GridGraph, h: int, name: str, error):
    """Check a DAG input, condense it to its reachability separator graph and
    number that topologically; a ClusterError is raised as ``error``.
    Returns (cluster scheme, numbering)."""
    gf.check_input(g, ("unweighted",), error)
    try:
        gp = cl.build_separator_graph(g, h, "reachability", name=name + ".gp")
    except cl.ClusterError as e:
        raise error(str(e)) from e
    return gp.scheme, topo_number_separator(gp, g.disk, name=name)


def assign_chunk_numbers(q: cl.InMemoryCluster, rank_of) -> ChunkAssignment:
    """Chunk every vertex of one cluster.

    ``rank_of`` maps the cluster's boundary coordinates to separator ranks.
    Boundary vertices seed their own rank; the interior is filled by
    alternating rounds that take the maximum over numbered predecessors, then
    the minimum over numbered successors, with same-round visibility in
    (reverse) topological order.
    """
    n, wid = q.n, q.wid
    pred = [[] for _ in range(n)]
    succ = [[] for _ in range(n)]
    for v in range(n):
        for d, lr, lc, w in q.intra[v]:
            u = lr * wid + lc
            succ[v].append(u)
            pred[u].append(v)
    order = cl.topo_order(q)
    if order is None:
        raise ToposortError("cycle inside cluster (%d,%d)" % (q.ci, q.cj))
    chunk = [None] * n
    for rc in q.boundary:
        chunk[q.local(*rc)] = rank_of(rc)

    rounds = 0
    remaining = sum(1 for x in chunk if x is None)
    while remaining:
        progressed = False
        for v in order:                       # predecessor round
            if chunk[v] is None:
                best = [chunk[u] for u in pred[v] if chunk[u] is not None]
                if best:
                    chunk[v] = max(best)
                    remaining -= 1
                    progressed = True
        for v in reversed(order):             # successor round
            if chunk[v] is None:
                best = [chunk[u] for u in succ[v] if chunk[u] is not None]
                if best:
                    chunk[v] = min(best)
                    remaining -= 1
                    progressed = True
        rounds += 1
        if not progressed:
            break

    # left-over components: weak 8-neighbour connectivity, each attached to
    # the chunk of a numbered in-cluster left neighbour; resolvable left to
    # right because the leftmost column is boundary
    leftover = remaining
    if remaining:
        comp = {}
        comps = []
        for v in range(n):
            if chunk[v] is not None or v in comp:
                continue
            stack, cells = [v], []
            comp[v] = len(comps)
            while stack:
                x = stack.pop()
                cells.append(x)
                xr, xc = divmod(x, wid)
                for d in range(8):
                    dr, dc = gf.DIR_OFFSETS[d]
                    yr, yc = xr + dr, xc + dc
                    if 0 <= yr < q.hgt and 0 <= yc < wid:
                        y = yr * wid + yc
                        if chunk[y] is None and y not in comp:
                            comp[y] = len(comps)
                            stack.append(y)
            comps.append(cells)
        for cells in sorted(comps, key=lambda cs: min(c % wid for c in cs)):
            v = min(cells, key=lambda c: (c % wid, c // wid))
            left = v - 1
            if v % wid == 0 or chunk[left] is None:
                raise ToposortError("left-over component has no numbered "
                                    "left neighbour")
            for x in cells:
                chunk[x] = chunk[left]

    for v in range(n):
        for u in succ[v]:
            if chunk[v] > chunk[u]:
                raise ToposortError("chunk numbers decrease along an edge")

    members: dict = {}
    for v in order:                           # already topologically sorted
        members.setdefault(chunk[v], []).append(v)
    return ChunkAssignment(chunk, members, rounds, leftover)


# chunk record: cluster first-z, chunk rank, vertex count, then 32-bit local ids
CHUNK_HDR = struct.Struct("<QQI")


def toposort(g: gf.GridGraph, h: int, out_name: str = "topo.out",
             stats: TopoStats | None = None):
    """Full pipeline; returns the handle of the ordered vertex file."""
    disk = g.disk
    scheme, numbering = number_separator(g, h, out_name, ToposortError)
    rtab = numbering.r

    c_handle = disk.open_file(out_name + ".chunks")
    c_stream = disk.append_stream(c_handle)
    a_entries = []                # (rank, byte offset in C, record bytes)
    c_off = 0
    for q in cl.iterate_clusters(g, scheme):
        asg = assign_chunk_numbers(
            q, lambda rc: int(rtab[scheme.h_number(*rc)]))
        if stats is not None:
            stats.rounds_max = max(stats.rounds_max, asg.rounds)
            stats.leftover_vertices += asg.leftover
            stats.chunk_count += len(asg.members)
        z0, _ = scheme.z_interval(q.ci, q.cj)
        for rank in sorted(asg.members):
            ids = asg.members[rank]
            rec = CHUNK_HDR.pack(z0, rank, len(ids))
            rec += np.array(ids, "<u4").tobytes()
            c_stream.write(rec)
            a_entries.append((rank, c_off, len(rec)))
            c_off += len(rec)
    c_stream.close()

    # sort the address table by rank; stand-in for an external merge sort
    a_entries.sort()

    out = disk.open_file(out_name)
    stream = disk.append_stream(out)
    gf.write_header_via(stream, disk, "vertex_seq", g.rows, g.cols, g.n)
    emitted = 0
    for rank, off, size in a_entries:
        rec = disk.read_direct(c_handle, off, size)
        z0, _, cnt = CHUNK_HDR.unpack_from(rec, 0)
        ids = np.frombuffer(rec, "<u4", cnt, CHUNK_HDR.size)
        t_of_local = scheme.shape(*scheme.cluster_at_z(z0)).t_of_local
        stream.write((z0 + t_of_local[ids]).astype("<u8").tobytes())
        emitted += cnt
    stream.close()
    if emitted != g.n:
        raise ToposortError("internal: emitted %d of %d vertices"
                            % (emitted, g.n))
    return out


read_order = gf.read_u64_payload
