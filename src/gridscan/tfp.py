"""Planar time-forward processing with chunked message passing.

The DAG is cut into chunks exactly as for topological sorting.  The input is
read twice: by the reachability build, which also collects each separator
vertex's cross-cluster in-directions, and by the message plan's one pass.
Labels travel between chunks as 8-byte messages: cross-cluster edges get slots
in an arithmetic address table at the head of the chunk file (one per
horizontal grid edge on a cluster boundary, one per vertical, one per diagonal
square, since a planar instance uses at most one diagonal per square), while
cross-chunk edges inside a cluster get slots in a message region stored right
after the receiving chunk's record, addressed by absolute offset.  The
chunk file is a ``clusters.ChunkFile`` keyed by rank; a chunk's header is
its vertex count.  Chunks are evaluated in rank order; each reads its record
plus intra region sequentially, fetches inter-cluster slots arithmetically,
asks the label callback for each vertex in turn, and writes its outgoing
messages into a block buffer of the chunk file that it flushes when the
chunk ends.  Its labels go to a ``ChunkFile`` keyed by cluster rank, so each
label block is written once, and a final pass rewrites them into Z-order.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from . import toposort as ts


class TfpError(Exception):
    pass


MASK64 = (1 << 64) - 1

CHUNK_HDR = struct.Struct("<I")         # vertex count
VERTEX_HDR = struct.Struct("<IBBB")     # local id, in mask, out mask, n addr
ADDR = struct.Struct("<Q")              # absolute offset of the slot in C
ADDRS = tuple(struct.Struct("<%dQ" % k) for k in range(9))   # by count
LABEL = np.dtype([("v", "<u4"), ("label", "<u8")])   # label file record

_DIAG_A = (gf.SE, gf.NW)                # top-left to bottom-right diagonal
# _DIRS[mask]: the directions of the set bits of an in- or out-mask, ascending
_DIRS = tuple(tuple(d for d in range(8) if m >> d & 1) for m in range(256))


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
    chunks: cl.ChunkFile       # keyed by rank: a chunk and its region


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


def _check_squares(q: cl.InMemoryCluster, tail, head, d):
    """``_check_square`` over the cluster's diagonal arcs, from ``tail`` to
    ``head`` in direction ``d`` in column order: the first arc whose unit
    square came earlier with the other diagonal is raised."""
    (tr, tc), (hr, hc) = np.divmod(tail, q.wid), np.divmod(head, q.wid)
    rows, cols = np.minimum(tr, hr), np.minimum(tc, hc)
    cls = (d == _DIAG_A[0]) | (d == _DIAG_A[1])
    _, at, of = np.unique(rows * q.wid + cols, return_index=True,
                          return_inverse=True)
    clash = cls != cls[at][of.ravel()]
    if clash.any():
        i = int(clash.argmax())
        raise TfpError("not planar: both diagonals in square %r"
                       % ((q.r0 + int(rows[i]), q.c0 + int(cols[i])),))


def plan_messages(g: gf.GridGraph, h: int, name: str = "tfp",
                  stats: TfpStats | None = None) -> MessagePlan:
    """Build the chunk file with message addressing annotations.

    Layout of the chunk file: the inter-cluster slot table, then per chunk a
    header (its vertex count), per-vertex records (id, in mask, out mask,
    and the absolute addresses of outgoing intra-cluster cross-chunk
    messages), and the chunk's incoming intra-cluster message region, which
    runs to the end of the record the store's entry sizes.

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
    chunks = cl.ChunkFile(disk, name + ".chunks")
    chunks.stream.write(b"\0" * (inter_slots * 8))

    for q in cl.iterate_clusters(g, scheme):
        tail = np.repeat(np.arange(q.n), np.diff(q.first))
        head, d = np.array(q.head, np.int64), np.array(q.dirs, np.int64)
        diag = d % 2 == 1
        _check_squares(q, tail[diag], head[diag], d[diag])
        # a cell has one arc per direction, so the sums are the masks
        out_mask = np.bincount(tail, 1 << d, q.n).astype(np.int64)
        in_mask = np.bincount(head, 1 << (d + 4) % 8, q.n).astype(np.int64)
        sep = slice(scheme.bases[q.rank], scheme.bases[q.rank + 1])
        in_mask[list(q.boundary)] |= gp.cross_in[sep]
        out_mask, in_mask = out_mask.tolist(), in_mask.tolist()
        sep_ranks = rtab[sep].tolist()
        bpos = scheme.shape(q.rank).bpos
        for v, d, nr, nc, w in q.out_edges:
            out_mask[v] |= 1 << d
            stats.chunk_pairs.add((sep_ranks[bpos[v]],
                                   int(rtab[scheme.h_number(nr, nc)])))
            if d & 1:                               # a diagonal
                vr, vc = q.coord(v)
                _check_square(cross_squares, (min(vr, nr), min(vc, nc)),
                              d in _DIAG_A)

        asg = ts.assign_chunk_numbers(q, sep_ranks)
        ranks = sorted(asg.members)

        # receive-side slot assignment: vertices in record order, incoming
        # directions clockwise from north, cross-chunk intra edges only
        send_addr: dict = {}            # (sender, direction) -> (rank, slot)
        region_slots = {}
        for rank in ranks:
            slots = 0
            for v in asg.members[rank]:
                vr, vc = divmod(v, q.wid)
                for d in _DIRS[in_mask[v]]:
                    dr, dc = gf.DIR_OFFSETS[d]
                    ur, uc = vr + dr, vc + dc
                    if not (0 <= ur < q.hgt and 0 <= uc < q.wid):
                        continue
                    u = ur * q.wid + uc
                    if asg.chunk[u] == rank:
                        continue
                    # d ^ 4 is the opposite of d: the arc's direction at u
                    send_addr[(u, d ^ 4)] = (rank, slots)
                    stats.chunk_pairs.add((asg.chunk[u], rank))
                    slots += 1
            region_slots[rank] = slots

        # each chunk's region offset in C, from its record's size: a header,
        # the vertex records, and one address per message it sends
        sent = Counter(asg.chunk[u] for u, _ in send_addr)
        region_offset = {}
        off = chunks.stream.pos
        for rank in ranks:
            off += (CHUNK_HDR.size + VERTEX_HDR.size * len(asg.members[rank])
                    + ADDR.size * sent[rank])
            region_offset[rank] = off
            off += region_slots[rank] * 8

        for rank in ranks:
            body = bytearray()
            for v in asg.members[rank]:
                addrs = [send_addr[(v, d)] for d in _DIRS[out_mask[v]]
                         if (v, d) in send_addr]
                body += VERTEX_HDR.pack(v, in_mask[v], out_mask[v], len(addrs))
                for to, slot in addrs:
                    body += ADDR.pack(region_offset[to] + slot * 8)
            chunks.put(rank, q.rank,
                       CHUNK_HDR.pack(len(asg.members[rank])) + body
                       + bytes(region_slots[rank] * 8))
            stats.chunk_count += 1
    return MessagePlan(scheme, chunks)


def tfp_run(g: gf.GridGraph, fn, h: int, out_name: str = "tfp.out",
            stats: TfpStats | None = None):
    """Evaluate ``fn(cell, in-labels clockwise from north)`` for every vertex
    and return the handle of the Z-ordered 64-bit label file.

    A chunk's messages go into a fresh ``simdisk.BlockBuffer``, flushed
    before the next chunk reads its record, so each block they touch is
    written once per chunk.  Each chunk puts its label records in a
    ``ChunkFile`` keyed by its cluster's rank.  The final pass reads a
    cluster's records back in put order, one ``read_direct`` each, so a
    block shared by neighbouring records is held, not read again; one
    cluster's labels are resident at a time.
    """
    stats = stats if stats is not None else TfpStats()
    plan = plan_messages(g, h, name=out_name + ".plan", stats=stats)
    disk = g.disk
    scheme, c_handle = plan.scheme, plan.chunks.handle

    labels = cl.ChunkFile(disk, out_name + ".plan.labels")
    for crank, raw in plan.chunks.chunks():
        (cnt,) = CHUNK_HDR.unpack_from(raw, 0)
        r0, c0, hgt, wid = scheme.extents[crank]
        pos = CHUNK_HDR.size
        vertices = []
        for _ in range(cnt):
            v, im, om, na = VERTEX_HDR.unpack_from(raw, pos)
            pos += VERTEX_HDR.size
            vertices.append((v, im, om, ADDRS[na].unpack_from(raw, pos)))
            pos += ADDR.size * na
        # the region's messages, in the order the chunk's vertices read them
        region = iter(np.frombuffer(raw, "<u8", offset=pos).tolist())

        labels_mem = {}         # this chunk's labels so far
        messages = disk.buffer(c_handle)   # slots this chunk never reads
        for v, im, om, addrs in vertices:
            vr, vc = divmod(v, wid)
            ins = []
            for d in _DIRS[im]:
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
                    val = disk.read_direct(c_handle, slot * 8, 8)
                    stats.slot_reads[slot] = stats.slot_reads.get(slot, 0) + 1
                    ins.append(int.from_bytes(val, "little"))
            label = fn((r0 + vr, c0 + vc), ins) & MASK64
            labels_mem[v] = label

            lb = label.to_bytes(8, "little")
            for addr in addrs:
                messages.write(addr, lb)
            for d in _DIRS[om]:
                dr, dc = gf.DIR_OFFSETS[d]
                ur, uc = vr + dr, vc + dc
                if 0 <= ur < hgt and 0 <= uc < wid:
                    continue
                slot = _inter_slot(scheme, (r0 + vr, c0 + vc),
                                   (r0 + ur, c0 + uc))
                messages.write(slot * 8, lb)
                stats.slot_writes[slot] = stats.slot_writes.get(slot, 0) + 1

        labels.put(crank, crank, np.array(
            [(v, labels_mem[v]) for v, _, _, _ in vertices], LABEL).tobytes())
        messages.flush()

    # final pass: evaluation-ordered label file -> Z-order output
    out, stream = gf.open_result(disk, out_name, "labels", g.rows, g.cols, g.n)
    for crank, group in groupby(labels.chunks(), key=itemgetter(0)):
        recs = np.frombuffer(b"".join(rec for _, rec in group), LABEL)
        by_local = np.empty(len(recs), "<u8")
        by_local[recs["v"]] = recs["label"]
        stream.write(by_local[scheme.shape(crank).local_of_t].tobytes())
    stream.close()
    return out


read_labels = gf.read_u64_payload
