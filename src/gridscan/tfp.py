"""Planar time-forward processing with chunked message passing.

The DAG is cut into chunks exactly as for topological sorting.  Labels travel
between chunks as 8-byte messages: cross-cluster edges get slots in an
arithmetic address table at the head of the chunk file (one per horizontal
grid edge on a cluster boundary, one per vertical, one per diagonal square,
since a planar instance uses at most one diagonal per square), while
cross-chunk edges inside a cluster get slots in a message region stored right
after the receiving chunk's record.  Chunks are then evaluated in rank order;
each reads its record plus intra region sequentially, fetches inter-cluster
slots arithmetically, asks the label callback for each vertex in turn, and
writes its labels and outgoing messages grouped by destination.  A final scan
rewrites the cluster-ordered label file into Z-order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from . import toposort as ts


class TfpError(Exception):
    pass


MASK64 = (1 << 64) - 1

CHUNK_HDR = struct.Struct("<QQIQI")     # z0, rank, count, l_addr, region bytes
VERTEX_HDR = struct.Struct("<IBBB")     # local id, in mask, out mask, n addr
ADDR = struct.Struct("<II")             # receiving chunk ordinal, slot index
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
    a_entries: list            # (rank, chunk offset, chunk+region bytes)
    region_offsets: dict       # (cluster rank, chunk ordinal) -> absolute offset


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
    header, per-vertex records (id, in mask, out mask, and the addresses of
    outgoing intra-cluster cross-chunk messages), and the chunk's incoming
    intra-cluster message region.
    """
    disk = g.disk
    stats = stats if stats is not None else TfpStats()
    scheme, numbering = ts.number_separator(g, h, name, TfpError)
    rtab = numbering.r

    # collect cross-cluster edges per receiving cluster; their volume is
    # bounded by the separator size, so the table stays memory resident
    incoming: dict = {}
    cross_squares: dict = {}
    for q in cl.iterate_clusters(g, scheme):
        for lr, lc, d, nr, nc, w in q.out_edges:
            u = (lr + q.r0, lc + q.c0)
            incoming.setdefault(scheme.cluster_of(nr, nc), []).append(
                (u, d, (nr, nc)))
            if d not in (gf.N, gf.E, gf.S, gf.W):
                _check_square(cross_squares,
                              (min(u[0], nr), min(u[1], nc)),
                              d in _DIAG_A)

    for edges in incoming.values():
        for u, d, rc in edges:
            stats.chunk_pairs.add((int(rtab[scheme.h_number(*u)]),
                                   int(rtab[scheme.h_number(*rc)])))

    inter_slots = _inter_slot_count(scheme)
    stats.inter_slots = inter_slots
    c_handle = disk.open_file(name + ".chunks")
    c_stream = disk.append_stream(c_handle)
    c_stream.write(b"\0" * (inter_slots * 8))
    c_off = inter_slots * 8
    a_entries = []
    region_offsets = {}
    l_off = 0

    for q in cl.iterate_clusters(g, scheme):
        crank = scheme.rank(q.ci, q.cj)
        local_squares: dict = {}
        in_mask = [0] * q.n
        out_mask = [0] * q.n
        for v in range(q.n):
            for d, lr, lc, w in q.intra[v]:
                u = lr * q.wid + lc
                out_mask[v] |= 1 << d
                in_mask[u] |= 1 << gf.opposite(d)
                if d not in (gf.N, gf.E, gf.S, gf.W):
                    vr, vc = divmod(v, q.wid)
                    _check_square(local_squares,
                                  (min(vr, lr) + q.r0, min(vc, lc) + q.c0),
                                  d in _DIAG_A)
        for lr, lc, d, nr, nc, w in q.out_edges:
            out_mask[lr * q.wid + lc] |= 1 << d
        for u, d, rc in incoming.get((q.ci, q.cj), ()):
            in_mask[q.local(*rc)] |= 1 << gf.opposite(d)

        asg = ts.assign_chunk_numbers(
            q, lambda rc: int(rtab[scheme.h_number(*rc)]))
        ranks = sorted(asg.members)
        ordinal = {rank: i for i, rank in enumerate(ranks)}
        z0, _ = scheme.z_interval(q.ci, q.cj)

        # receive-side slot assignment: vertices in record order, incoming
        # directions clockwise from north, cross-chunk intra edges only
        send_addr: dict = {}
        region_slots = []
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
                    send_addr[(u, gf.opposite(d))] = (ordinal[rank], slots)
                    stats.chunk_pairs.add((asg.chunk[u], rank))
                    slots += 1
            region_slots.append(slots)

        for rank in ranks:
            body = bytearray()
            cnt = len(asg.members[rank])
            for v in asg.members[rank]:
                addrs = [send_addr[(v, d)] for d in range(8)
                         if out_mask[v] >> d & 1 and (v, d) in send_addr]
                body += VERTEX_HDR.pack(v, in_mask[v], out_mask[v], len(addrs))
                for pair in addrs:
                    body += ADDR.pack(*pair)
            region = region_slots[ordinal[rank]] * 8
            rec = CHUNK_HDR.pack(z0, rank, cnt, l_off, region)
            c_stream.write(rec + bytes(body) + b"\0" * region)
            region_offsets[(crank, ordinal[rank])] = \
                c_off + CHUNK_HDR.size + len(body)
            a_entries.append((rank, c_off, CHUNK_HDR.size + len(body) + region))
            c_off += CHUNK_HDR.size + len(body) + region
            l_off += cnt * LABEL.itemsize
            stats.chunk_count += 1
    c_stream.close()

    l_handle = disk.open_file(name + ".labels")
    ls = disk.append_stream(l_handle)
    ls.write(b"\0" * l_off)
    ls.close()
    return MessagePlan(scheme, c_handle, l_handle, sorted(a_entries),
                       region_offsets)


def tfp_run(g: gf.GridGraph, fn, h: int, out_name: str = "tfp.out",
            stats: TfpStats | None = None):
    """Evaluate ``fn(cell, in-labels clockwise from north)`` for every vertex
    and return the handle of the Z-ordered 64-bit label file."""
    stats = stats if stats is not None else TfpStats()
    plan = plan_messages(g, h, name=out_name + ".plan", stats=stats)
    disk = g.disk
    scheme = plan.scheme

    for rank, off, size in plan.a_entries:
        raw = disk.read_direct(plan.c_handle, off, size)
        z0, _, cnt, l_addr, region = CHUNK_HDR.unpack_from(raw, 0)
        ci, cj = scheme.cluster_at_z(z0)
        crank = scheme.rank(ci, cj)
        r0, c0, hgt, wid = scheme.extent(ci, cj)
        pos = CHUNK_HDR.size
        vertices = []
        for _ in range(cnt):
            v, im, om, na = VERTEX_HDR.unpack_from(raw, pos)
            pos += VERTEX_HDR.size
            addrs = [ADDR.unpack_from(raw, pos + ADDR.size * i)
                     for i in range(na)]
            pos += ADDR.size * na
            vertices.append((v, im, om, addrs))
        region_base = pos
        member = {v for v, _, _, _ in vertices}

        labels_mem = {}
        pending = []            # (absolute address in C, label bytes)
        region_pos = 0
        for v, im, om, addrs in vertices:
            vr, vc = divmod(v, wid)
            ins = []
            for d in range(8):
                if not (im >> d & 1):
                    continue
                dr, dc = gf.DIR_OFFSETS[d]
                ur, uc = vr + dr, vc + dc
                if 0 <= ur < hgt and 0 <= uc < wid:
                    u = ur * wid + uc
                    if u in member:
                        ins.append(labels_mem[u])
                    else:
                        slot = int.from_bytes(
                            raw[region_base + region_pos * 8:
                                region_base + region_pos * 8 + 8], "little")
                        region_pos += 1
                        ins.append(slot)
                else:
                    sender = (r0 + vr + dr, c0 + vc + dc)
                    slot = _inter_slot(scheme, sender, (r0 + vr, c0 + vc))
                    val = disk.read_direct(plan.c_handle, slot * 8, 8)
                    stats.slot_reads[slot] = stats.slot_reads.get(slot, 0) + 1
                    ins.append(int.from_bytes(val, "little"))
            label = fn((r0 + vr, c0 + vc), ins) & MASK64
            labels_mem[v] = label

            lb = label.to_bytes(8, "little")
            for d in range(8):
                if not (om >> d & 1):
                    continue
                dr, dc = gf.DIR_OFFSETS[d]
                ur, uc = vr + dr, vc + dc
                if 0 <= ur < hgt and 0 <= uc < wid:
                    if ur * wid + uc in member:
                        continue
                    ordv, slot = addrs.pop(0)
                    addr = plan.region_offsets[(crank, ordv)] + slot * 8
                    pending.append((addr, lb))
                else:
                    slot = _inter_slot(scheme, (r0 + vr, c0 + vc),
                                       (r0 + ur, c0 + uc))
                    pending.append((slot * 8, lb))
                    stats.slot_writes[slot] = \
                        stats.slot_writes.get(slot, 0) + 1

        lrecs = np.array([(v, labels_mem[v]) for v, _, _, _ in vertices],
                         LABEL)
        disk.write_direct(plan.l_handle, l_addr, lrecs.tobytes())
        for addr, lb in sorted(pending):      # grouped by destination
            disk.write_direct(plan.c_handle, addr, lb)

    # final pass: cluster-ordered label file -> Z-order output
    out = disk.open_file(out_name)
    stream = disk.append_stream(out)
    gf.write_header_via(stream, disk, "labels", g.rows, g.cols, g.n)
    reader = disk.scan_reader(plan.l_handle, 0)
    for ci, cj in scheme.clusters_in_z_order():
        _, cnt = scheme.z_interval(ci, cj)
        recs = np.frombuffer(reader.read(cnt * LABEL.itemsize), LABEL)
        labels = np.empty(cnt, "<u8")
        labels[recs["v"]] = recs["label"]
        stream.write(labels[scheme.shape(ci, cj).local_of_t].tobytes())
    stream.close()
    return out


read_labels = gf.read_u64_payload
