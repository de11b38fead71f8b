"""Planar time-forward processing with chunked message passing.

The DAG is cut into chunks exactly as for topological sorting.  The input is
read twice: by the reachability build, which also collects each separator
vertex's cross-cluster in-directions, and by the message plan's one pass.
Labels travel between chunks as 8-byte messages: cross-cluster edges get slots
in an arithmetic address table at the head of the chunk file (one per
horizontal grid edge on a cluster boundary, one per vertical, one per diagonal
square, since a planar instance uses at most one diagonal per square), while
cross-chunk edges inside a cluster get slots in a message region stored right
after the receiving chunk's record, addressed by absolute offset.  A chunk's
header is its vertex count and label file offset; its address entry gives the
rest.  Chunks are then evaluated in rank order; each reads its record plus
intra region sequentially, fetches inter-cluster slots arithmetically, asks
the label callback for each vertex in turn, and writes its outgoing messages
as one gathered write, so each block of the chunk file they touch is written
once per chunk, in ascending order.  Its labels go through one stream, so a
block shared by adjacent label ranges is written once.  A final scan rewrites
the cluster-ordered label file into Z-order.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from . import toposort as ts


class TfpError(Exception):
    pass


MASK64 = (1 << 64) - 1

CHUNK_HDR = struct.Struct("<IQ")        # vertex count, label file offset
VERTEX_HDR = struct.Struct("<IBBB")     # local id, in mask, out mask, n addr
ADDR = struct.Struct("<Q")              # absolute offset of the slot in C
LABEL = np.dtype([("v", "<u4"), ("label", "<u8")])   # label file record

_DIAG_A = (gf.SE, gf.NW)                # top-left to bottom-right diagonal


@dataclass
class TfpStats:
    chunk_count: int = 0
    chunk_pairs: set = field(default_factory=set)
    slot_writes: dict = field(default_factory=dict)
    slot_reads: dict = field(default_factory=dict)
    inter_slots: int = 0


@dataclass
class MessagePlan:
    scheme: cl.ClusterScheme
    c_handle: object
    l_handle: object
    a_entries: list            # (rank, cluster rank, chunk offset,
                               # chunk+region bytes)


def _inter_slot(scheme: cl.ClusterScheme, u, v) -> int:
    """Address of the slot carrying a message along cross-cluster edge u->v.

    One slot per horizontal boundary edge, per vertical boundary edge, and
    per unit square on a boundary (shared by the square's two possible
    diagonals; row-crossing squares take the row table, others the column
    table).
    """
    cs = 1 << scheme.h
    rows, cols = scheme.rows, scheme.cols
    hcnt = rows * (scheme.ccols - 1)
    vcnt = (scheme.crows - 1) * cols
    drow = (scheme.crows - 1) * (cols - 1)
    (ur, uc), (vr, vc) = u, v
    if ur == vr:
        kc = (min(uc, vc) + 1) // cs - 1
        return ur * (scheme.ccols - 1) + kc
    if uc == vc:
        kr = (min(ur, vr) + 1) // cs - 1
        return hcnt + kr * cols + uc
    r0, c0 = min(ur, vr), min(uc, vc)
    if (r0 + 1) % cs == 0:
        kr = (r0 + 1) // cs - 1
        return hcnt + vcnt + kr * (cols - 1) + c0
    kc = (c0 + 1) // cs - 1
    return hcnt + vcnt + drow + kc * (rows - 1) + r0


def _inter_slot_count(scheme: cl.ClusterScheme) -> int:
    rows, cols = scheme.rows, scheme.cols
    return (rows * (scheme.ccols - 1) + (scheme.crows - 1) * cols
            + (scheme.crows - 1) * (cols - 1)
            + (scheme.ccols - 1) * (rows - 1))


def _check_square(square_classes: dict, square, cls):
    prev = square_classes.setdefault(square, cls)
    if prev != cls:
        raise TfpError("not planar: both diagonals in square %r" % (square,))


def plan_messages(g: gf.GridGraph, h: int, name: str = "tfp",
                  stats: TfpStats | None = None) -> MessagePlan:
    """Build the chunk file with message addressing annotations.

    Layout of the chunk file: the inter-cluster slot table, then per chunk a
    header (vertex count and label file offset), per-vertex records (id, in
    mask, out mask, and the absolute addresses of outgoing intra-cluster
    cross-chunk messages), and the chunk's incoming intra-cluster message
    region, which runs to the end of the record its address entry sizes.

    One pass over the clusters: a cell's in-arcs from other clusters come
    from the reachability graph's ``cross_in``, so the plan reads the input
    once, after the build's own read.
    """
    disk = g.disk
    stats = stats if stats is not None else TfpStats()
    gp = ts.build_reach_graph(g, h, name + ".gp", TfpError)
    scheme, rtab = gp.scheme, ts.topo_number_separator(gp)

    # one global table: a square's two cells may sit in different clusters,
    # and at most one diagonal crosses it
    cross_squares: dict = {}
    inter_slots = _inter_slot_count(scheme)
    stats.inter_slots = inter_slots
    c_handle = disk.open_file(name + ".chunks")
    c_stream = disk.append_stream(c_handle)
    c_stream.write(b"\0" * (inter_slots * 8))
    c_off = inter_slots * 8
    a_entries = []
    l_off = 0

    for q in cl.iterate_clusters(g, scheme):
        local_squares: dict = {}
        in_mask = [0] * q.n
        out_mask = [0] * q.n
        for v in range(q.n):
            for d, u, w in q.intra[v]:
                out_mask[v] |= 1 << d
                in_mask[u] |= 1 << gf.opposite(d)
                if d not in (gf.N, gf.E, gf.S, gf.W):
                    (vr, vc), (ur, uc) = q.coord(v), q.coord(u)
                    _check_square(local_squares, (min(vr, ur), min(vc, uc)),
                                  d in _DIAG_A)
        sep = slice(scheme.bases[q.rank], scheme.bases[q.rank + 1])
        for v, m in zip(q.boundary, gp.cross_in[sep].tolist()):
            in_mask[v] |= m
        for v, d, nr, nc, w in q.out_edges:
            out_mask[v] |= 1 << d
            u = q.coord(v)
            stats.chunk_pairs.add((int(rtab[scheme.h_number(*u)]),
                                   int(rtab[scheme.h_number(nr, nc)])))
            if d not in (gf.N, gf.E, gf.S, gf.W):
                _check_square(cross_squares, (min(u[0], nr), min(u[1], nc)),
                              d in _DIAG_A)

        asg = ts.assign_chunk_numbers(q, rtab[sep].tolist())
        ranks = sorted(asg.members)

        # receive-side slot assignment: vertices in record order, incoming
        # directions clockwise from north, cross-chunk intra edges only
        send_addr: dict = {}            # (sender, direction) -> (rank, slot)
        region_slots = {}
        for rank in ranks:
            slots = 0
            for v in asg.members[rank]:
                vr, vc = divmod(v, q.wid)
                for d in range(8):
                    if not (in_mask[v] >> d & 1):
                        continue
                    dr, dc = gf.DIR_OFFSETS[d]
                    ur, uc = vr + dr, vc + dc
                    if not (0 <= ur < q.hgt and 0 <= uc < q.wid):
                        continue
                    u = ur * q.wid + uc
                    if asg.chunk[u] == rank:
                        continue
                    send_addr[(u, gf.opposite(d))] = (rank, slots)
                    stats.chunk_pairs.add((asg.chunk[u], rank))
                    slots += 1
            region_slots[rank] = slots

        # each chunk's region offset in C, from its record's size: a header,
        # the vertex records, and one address per message it sends
        sent = Counter(asg.chunk[u] for u, _ in send_addr)
        region_offset = {}
        off = c_off
        for rank in ranks:
            off += (CHUNK_HDR.size + VERTEX_HDR.size * len(asg.members[rank])
                    + ADDR.size * sent[rank])
            region_offset[rank] = off
            off += region_slots[rank] * 8

        recs = bytearray()
        for rank in ranks:
            body = bytearray()
            cnt = len(asg.members[rank])
            for v in asg.members[rank]:
                addrs = [send_addr[(v, d)] for d in range(8)
                         if out_mask[v] >> d & 1 and (v, d) in send_addr]
                body += VERTEX_HDR.pack(v, in_mask[v], out_mask[v], len(addrs))
                for to, slot in addrs:
                    body += ADDR.pack(region_offset[to] + slot * 8)
            region = region_slots[rank] * 8
            recs += CHUNK_HDR.pack(cnt, l_off)
            recs += body + bytes(region)
            a_entries.append((rank, q.rank, c_off,
                              CHUNK_HDR.size + len(body) + region))
            c_off += CHUNK_HDR.size + len(body) + region
            l_off += cnt * LABEL.itemsize
            stats.chunk_count += 1
        c_stream.write(recs)
    c_stream.close()

    # tfp_run writes every label record once; its label stream grows the file
    l_handle = disk.open_file(name + ".labels")
    return MessagePlan(scheme, c_handle, l_handle, sorted(a_entries))


def tfp_run(g: gf.GridGraph, fn, h: int, out_name: str = "tfp.out",
            stats: TfpStats | None = None):
    """Evaluate ``fn(cell, in-labels clockwise from north)`` for every vertex
    and return the handle of the Z-ordered 64-bit label file.

    A chunk's messages, sorted by address, go out as one ``write_pieces``
    call before the next chunk reads its record: each block they touch is
    written once per chunk, as the chunk holds all of them in memory.
    The label records go through one stream, reopened only where a chunk's
    label range does not start at the stream's position, and closed before
    the final pass reads them back.
    """
    stats = stats if stats is not None else TfpStats()
    plan = plan_messages(g, h, name=out_name + ".plan", stats=stats)
    disk = g.disk
    scheme = plan.scheme

    l_stream = disk.append_stream(plan.l_handle, 0)
    for _, crank, off, size in plan.a_entries:
        raw = disk.read_direct(plan.c_handle, off, size)
        cnt, l_addr = CHUNK_HDR.unpack_from(raw, 0)
        r0, c0, hgt, wid = scheme.extents[crank]
        pos = CHUNK_HDR.size
        vertices = []
        for _ in range(cnt):
            v, im, om, na = VERTEX_HDR.unpack_from(raw, pos)
            pos += VERTEX_HDR.size
            vertices.append((v, im, om,
                             np.frombuffer(raw, "<u8", na, pos).tolist()))
            pos += ADDR.size * na
        # the region's messages, in the order the chunk's vertices read them
        region = iter(np.frombuffer(raw, "<u8", offset=pos).tolist())

        labels_mem = {}         # this chunk's labels so far
        pending = []            # (absolute address in C, label bytes)
        for v, im, om, addrs in vertices:
            vr, vc = divmod(v, wid)
            ins = []
            for d in range(8):
                if not (im >> d & 1):
                    continue
                dr, dc = gf.DIR_OFFSETS[d]
                ur, uc = vr + dr, vc + dc
                if 0 <= ur < hgt and 0 <= uc < wid:
                    # members are in topological order: a tail in this
                    # chunk is labelled already, any other sent a message
                    u = ur * wid + uc
                    ins.append(labels_mem[u] if u in labels_mem
                               else next(region))
                else:
                    sender = (r0 + vr + dr, c0 + vc + dc)
                    slot = _inter_slot(scheme, sender, (r0 + vr, c0 + vc))
                    val = disk.read_direct(plan.c_handle, slot * 8, 8)
                    stats.slot_reads[slot] = stats.slot_reads.get(slot, 0) + 1
                    ins.append(int.from_bytes(val, "little"))
            label = fn((r0 + vr, c0 + vc), ins) & MASK64
            labels_mem[v] = label

            lb = label.to_bytes(8, "little")
            pending.extend((addr, lb) for addr in addrs)
            for d in range(8):
                if not (om >> d & 1):
                    continue
                dr, dc = gf.DIR_OFFSETS[d]
                ur, uc = vr + dr, vc + dc
                if 0 <= ur < hgt and 0 <= uc < wid:
                    continue
                slot = _inter_slot(scheme, (r0 + vr, c0 + vc),
                                   (r0 + ur, c0 + uc))
                pending.append((slot * 8, lb))
                stats.slot_writes[slot] = stats.slot_writes.get(slot, 0) + 1

        lrecs = np.array([(v, labels_mem[v]) for v, _, _, _ in vertices],
                         LABEL)
        if l_stream.pos != l_addr:
            l_stream.close()
            l_stream = disk.append_stream(plan.l_handle, l_addr)
        l_stream.write(lrecs.tobytes())
        disk.write_pieces(plan.c_handle, sorted(pending))
    l_stream.close()

    # final pass: cluster-ordered label file -> Z-order output
    out = disk.open_file(out_name)
    stream = disk.append_stream(out)
    gf.write_header_via(stream, disk, "labels", g.rows, g.cols, g.n)
    reader = disk.scan_reader(plan.l_handle, 0)
    for rank, (lo, hi) in enumerate(zip(scheme.starts, scheme.starts[1:])):
        recs = np.frombuffer(reader.read((hi - lo) * LABEL.itemsize), LABEL)
        labels = np.empty(hi - lo, "<u8")
        labels[recs["v"]] = recs["label"]
        stream.write(labels[scheme.shape(rank).local_of_t].tobytes())
    stream.close()
    return out


read_labels = gf.read_u64_payload
