"""Breadth-first traversal order via bucketed cluster keys and chunk files.

Pipeline: exact hop distances through the three-phase scheme of ``sssp``
(its key-order driver, with a bucket-of-lists phase-2 queue that exploits
the bounded key band), then per-cluster BFS forests cut into chunks of
height < 2^h, an address list sorted by root distance, and emission through
a rotating pool of distance-keyed stacks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import gridfmt as gf
from . import clusters as cl
from . import sssp
from .simdisk import SimDisk, FileStack

CHUNK_HDR = struct.Struct("<QQI")      # root z-index, root distance, count


class BfsError(Exception):
    pass


class BucketQueue:
    """Min-queue over a sliding key band [cur, cur + band - 1].

    The band covers the largest separator-edge weight: a hop distance inside
    a 2^h cluster stays below 4^h, and a hop between clusters weighs 1, the
    only weight at h = 0.  Keys up to the rounded boundary d' live in
    exact-key near lists, a key's list dropped once it empties; keys beyond
    d' live in 2^h + 1 far lists of width 2^h each, redistributed when the
    extraction point crosses d'.  Entries are (key, item), the last inserted
    of a key first; a decreased key is reinserted and the stale copy
    discarded by the caller.
    """

    def __init__(self, h: int):
        self.h = h
        self.span = 1 << h
        self.band = max(1 << (2 * h), 2)
        self.cur = 0
        self.dprime = 0            # cur rounded up to a multiple of 2^h
        self.near: dict[int, list] = {}
        self.far: list[list] = [[] for _ in range(self.span + 1)]

    def insert(self, key: int, item):
        if key < self.cur or key > self.cur + self.band - 1:
            raise BfsError("key %d outside admissible band [%d, %d]"
                           % (key, self.cur, self.cur + self.band - 1))
        if key <= self.dprime:
            self.near.setdefault(key, []).append((key, item))
        else:
            i = (key - self.dprime - 1) >> self.h
            self.far[i].append((key, item))

    def extract_min(self):
        """(key, item) with minimal key, or None when empty."""
        while True:
            if self.near:
                k = min(self.near)
                self.cur = max(self.cur, k)
                entries = self.near[k]
                if len(entries) == 1:
                    del self.near[k]
                return entries.pop()
            if not any(self.far):
                return None
            # advance the boundary by one span and pull the first far list
            batch = self.far.pop(0)
            self.far.append([])
            self.cur = max(self.cur, self.dprime + 1)
            self.dprime += self.span
            for k, item in batch:
                self.near.setdefault(k, []).append((k, item))


@dataclass
class BfsStats:
    chunk_count: int = 0


# ---------------------------------------------------------------------------
# Phase 1+2+3: hop distances


def bfs_distances(g: gf.GridGraph, s_cell: tuple[int, int], h: int,
                  out_name: str = "bfsdist.out"):
    """Exact hop distances from s, written in Z-order (ABSENT unreachable).

    Returns (output handle, cluster scheme)."""
    sssp.check_source(g, s_cell, "unweighted", BfsError)
    return sssp.solve_in_key_order(g, s_cell, h, "unit_distance",
                                   BucketQueue(h), sssp.SolveStats(), out_name)


# ---------------------------------------------------------------------------
# Chunk construction


def _cluster_forest(q, dist):
    """Local BFS forest: parent = first in-cluster in-neighbour one hop
    closer, scanning directions clockwise from north.  ``dist`` holds the
    hop distance per local cell, None if unreachable.  Returns (roots,
    children) with children listed per vertex in clockwise direction order."""
    incoming = [[] for _ in range(q.n)]
    for v in range(q.n):
        for d, lr, lc, _ in q.intra[v]:
            incoming[lr * q.wid + lc].append((gf.opposite(d), v))
    roots, children = [], [[] for _ in range(q.n)]
    for v in range(q.n):
        dv = dist[v]
        if dv is None:
            continue
        parent = None
        if dv > 0:
            for d, u in sorted(incoming[v]):
                if dist[u] == dv - 1:
                    parent = (d, u)
                    break
        if parent is None:
            roots.append(v)
        else:
            children[parent[1]].append((gf.opposite(parent[0]), v))
    for v in range(q.n):
        children[v].sort()
    return roots, children


def build_chunks_bfs(g: gf.GridGraph, dist_handle, h: int,
                     name: str = "bfs", stats: BfsStats | None = None):
    """Cut each cluster's BFS forest into chunks of height < 2^h.

    The Z-order distance file is scanned once, each cluster's range read
    as the cluster is processed.  Chunk record: root z-index (8 B), root
    distance (8 B), vertex count (4 B), then one child-direction mask byte
    per vertex in preorder.  The address list pairs each chunk's byte offset
    with its root distance.
    """
    disk = g.disk
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    dist_reader = disk.scan_reader(dist_handle, g.payload_offset)
    span = 1 << h

    c_handle = disk.open_file(name + ".C")
    a_handle = disk.open_file(name + ".A")
    c_stream = disk.append_stream(c_handle)
    a_stream = disk.append_stream(a_handle)
    offset = 0
    count = 0

    for q in cl.iterate_clusters(g, scheme):
        z0, _ = scheme.z_interval(q.ci, q.cj)
        t_of_local = scheme.shape(q.ci, q.cj).t_of_local
        zdist = np.frombuffer(dist_reader.read(8 * q.n), "<u8")
        dist = [None if dv == gf.ABSENT else dv
                for dv in zdist[t_of_local].tolist()]
        roots, children = _cluster_forest(q, dist)
        # a child at chunk depth 2^h starts a fresh chunk
        owner = [None] * q.n              # vertex -> (chunk root, chunk depth)
        chunk_roots = []
        for root in roots:
            owner[root] = (root, 0)
            chunk_roots.append(root)
            stack = [root]
            while stack:
                v = stack.pop()
                croot, cd = owner[v]
                for _, u in children[v]:
                    if cd + 1 >= span:
                        owner[u] = (u, 0)
                        chunk_roots.append(u)
                    else:
                        owner[u] = (croot, cd + 1)
                    stack.append(u)

        for croot in chunk_roots:
            # iterative preorder restricted to this chunk, clockwise children
            masks = []
            stack = [croot]
            while stack:
                v = stack.pop()
                kids = [u for _, u in children[v] if owner[u][0] == croot]
                mask = sum(1 << d for d, u in children[v]
                           if owner[u][0] == croot)
                masks.append(mask)
                stack.extend(reversed(kids))
            rz = z0 + int(t_of_local[croot])
            rdist = dist[croot]
            rec = CHUNK_HDR.pack(rz, rdist, len(masks)) + bytes(masks)
            c_stream.write(rec)
            a_stream.write(struct.pack("<QQ", offset, rdist))
            offset += len(rec)
            count += 1
    c_stream.close()
    a_stream.close()
    if stats is not None:
        stats.chunk_count = count
    return c_handle, a_handle, count


# ---------------------------------------------------------------------------
# Address sorting


def sort_addresses(disk: SimDisk, a_handle, count: int,
                   name: str = "bfs.A.sorted"):
    """Stable ascending sort of (offset, distance) pairs by distance, in
    memory."""
    raw = disk.read_direct(a_handle, 0, count * 16)
    pairs = [struct.unpack_from("<QQ", raw, i * 16) for i in range(count)]
    pairs.sort(key=lambda p: p[1])
    out = disk.open_file(name)
    stream = disk.append_stream(out)
    for off, dist in pairs:
        stream.write(struct.pack("<QQ", off, dist))
    stream.close()
    return out


# ---------------------------------------------------------------------------
# Chunk decoding and emission


def decode_chunk(g: gf.GridGraph, raw: bytes):
    """Preorder (z-index, distance) pairs of one chunk record."""
    rz, rdist, cnt = CHUNK_HDR.unpack_from(raw)
    masks = raw[CHUNK_HDR.size:CHUNK_HDR.size + cnt]
    z_of, cell_of_z = gf.z_tables(g.rows, g.cols)
    cell = int(cell_of_z[rz])
    out = []
    stack = [(cell // g.cols, cell % g.cols, rdist)]
    i = 0
    while stack:
        r, c, dv = stack.pop()
        mask = masks[i]
        i += 1
        out.append((int(z_of[r * g.cols + c]), dv))
        kids = []
        for d in range(8):
            if mask >> d & 1:
                dr, dc = gf.DIR_OFFSETS[d]
                kids.append((r + dr, c + dc, dv + 1))
        stack.extend(reversed(kids))
    return out


def emit_bfs_order(g: gf.GridGraph, c_handle, a_sorted, count: int, h: int,
                   out_name: str = "bfsorder.out"):
    """Write the traversal order: chunks arrive by root distance; vertices
    wait in a rotating pool of per-distance stacks until every chunk that
    could contribute a smaller distance has been seen."""
    disk = g.disk
    window = 2 * (1 << h) + 2
    stacks = [FileStack(disk, disk.open_file("%s.stk%d" % (out_name, i)))
              for i in range(window)]
    out = disk.open_file(out_name)
    stream = disk.append_stream(out)
    gf.write_header_via(stream, disk, "vertex_seq", g.rows, g.cols, 0)
    emitted = 0
    flushed = -1            # all distances <= flushed are already emitted

    def flush_to(d):
        nonlocal flushed, emitted
        for dd in range(flushed + 1, d + 1):
            st = stacks[dd % window]
            while len(st):
                stream.write(st.pop())
                emitted += 1
        flushed = max(flushed, d)

    reader = disk.scan_reader(a_sorted)
    max_dist = -1
    for _ in range(count):
        off, rdist = struct.unpack("<QQ", reader.read(16))
        flush_to(rdist - 1)
        hdr = disk.read_direct(c_handle, off, CHUNK_HDR.size)
        _, _, cnt = CHUNK_HDR.unpack(hdr)
        raw = hdr + disk.read_direct(c_handle, off + CHUNK_HDR.size, cnt)
        for z, dv in decode_chunk(g, raw):
            stacks[dv % window].push(z.to_bytes(8, "little"))
            max_dist = max(max_dist, dv)
    flush_to(max_dist)
    stream.close()
    # count patched afterwards; the unpadded header rewrite touches only the
    # blocks the header itself occupies
    disk.write_direct(out, 0, gf.pack_header("vertex_seq", g.rows, g.cols,
                                             emitted))
    return out, emitted


def bfs_order(g: gf.GridGraph, s_cell: tuple[int, int], h: int,
              name: str = "bfs", stats: BfsStats | None = None):
    """Full pipeline: distances, chunks, sorted addresses, emission."""
    dist_handle, _ = bfs_distances(g, s_cell, h, out_name=name + ".dist")
    c_handle, a_handle, count = build_chunks_bfs(g, dist_handle, h, name=name,
                                                 stats=stats)
    a_sorted = sort_addresses(g.disk, a_handle, count, name=name + ".A.sorted")
    out, emitted = emit_bfs_order(g, c_handle, a_sorted, count, h,
                                  out_name=name + ".order")
    return out, emitted, dist_handle


read_order = gf.read_u64_payload
