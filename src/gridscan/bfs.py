"""Breadth-first traversal order via cluster keys and chunk files.

Pipeline: exact hop distances through the three-phase scheme of ``sssp``
(``solve_in_key_order``, whose heap settles equal keys the latest pushed
first); per-cluster BFS forests cut into chunks of height < 2^h as phase 3
hands over each cluster's distances; an address list sorted by root
distance; and emission through a rotating pool of distance-keyed stacks.
No file of final hop distances is written, and the input is read twice:
once to build the separator graph and once in phase 3.  A chunk record is
its root's Z index (8 B), its vertex count (4 B) and one child-direction
mask byte per vertex in preorder; the root's distance is in the chunk's
address entry only, beside the record's byte offset.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter

from . import gridfmt as gf
from . import clusters as cl
from . import sssp
from .simdisk import SimDisk, FileStack

CHUNK_HDR = struct.Struct("<QI")       # root z-index, count
_ADDR = struct.Struct("<QQ")           # chunk byte offset, root distance


class BfsError(Exception):
    pass


@dataclass
class BfsStats:
    chunk_count: int = 0


# ---------------------------------------------------------------------------
# Phase 1+2+3: hop distances


def bfs_distances(g: gf.GridGraph, s_cell: tuple[int, int], h: int,
                  out_name: str = "bfsdist.out"):
    """Exact hop distances from s.  Runs phases 1 and 2 and returns phase
    3's stream: per cluster in rank order, (cluster, hop distance per local
    cell, ``clusters.INF`` if unreachable).  ``out_name`` prefixes the
    separator graph and distance file; nothing else is written."""
    sssp.check_source(g, s_cell, "unweighted", BfsError)
    return sssp.solve_in_key_order(g, s_cell, h, latest_first=True,
                                   stats=sssp.SolveStats(), out_name=out_name)


# ---------------------------------------------------------------------------
# Chunk construction


def _cluster_forest(q, dist):
    """Local BFS forest: parent = first in-cluster in-neighbour one hop
    closer, scanning directions clockwise from north.  ``dist`` holds the
    hop distance per local cell, ``clusters.INF`` if unreachable.  Returns
    (roots, up), ``up[v]`` the parent of v, -1 for a root or an unreached
    cell.  A vertex's children are the heads of its arcs whose parent it
    is, in column order, so clockwise."""
    first, head, dirs = q.first, q.head, q.dirs
    up, via = [-1] * q.n, [8] * q.n     # via: direction from v to up[v]
    for u in range(q.n):
        if dist[u] == cl.INF:
            continue
        du = dist[u] + 1
        for i in range(first[u], first[u + 1]):
            v, back = head[i], (dirs[i] + 4) % 8
            if dist[v] == du and back < via[v]:
                up[v], via[v] = u, back
    roots = [v for v in range(q.n) if up[v] < 0 and dist[v] != cl.INF]
    return roots, up


def build_chunks_bfs(g: gf.GridGraph, distances, h: int,
                     name: str = "bfs", stats: BfsStats | None = None):
    """Cut each cluster's BFS forest into chunks of height < 2^h.

    ``distances`` is ``bfs_distances``'s stream; each cluster is cut as it
    arrives.  Returns the chunk file, the address list and the chunk count.
    """
    disk = g.disk
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    span = 1 << h

    c_handle = disk.open_file(name + ".C")
    a_handle = disk.open_file(name + ".A")
    c_stream = disk.append_stream(c_handle)
    a_stream = disk.append_stream(a_handle)
    offset = 0
    count = 0

    for q, dist in distances:
        z0 = scheme.starts[q.rank]
        t_of_local = scheme.shape(q.rank).t_of_local
        roots, up = _cluster_forest(q, dist)
        first, head, dirs = q.first, q.head, q.dirs
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
                for u in head[first[v]:first[v + 1]]:
                    if up[u] != v:
                        continue
                    if cd + 1 >= span:
                        owner[u] = (u, 0)
                        chunk_roots.append(u)
                    else:
                        owner[u] = (croot, cd + 1)
                    stack.append(u)

        recs, addrs = [], []
        for croot in chunk_roots:
            # iterative preorder restricted to this chunk, clockwise children
            masks = []
            stack = [croot]
            while stack:
                v = stack.pop()
                kids, mask = [], 0
                for i in range(first[v], first[v + 1]):
                    u = head[i]
                    if up[u] == v and owner[u][0] == croot:
                        kids.append(u)
                        mask |= 1 << dirs[i]
                masks.append(mask)
                stack.extend(reversed(kids))
            rz = z0 + int(t_of_local[croot])
            rdist = dist[croot]
            rec = CHUNK_HDR.pack(rz, len(masks)) + bytes(masks)
            recs.append(rec)
            addrs.append(_ADDR.pack(offset, rdist))
            offset += len(rec)
        c_stream.write(b"".join(recs))
        a_stream.write(b"".join(addrs))
        count += len(recs)
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
    raw = disk.read_direct(a_handle, 0, count * _ADDR.size)
    pairs = sorted(_ADDR.iter_unpack(raw), key=itemgetter(1))
    out = disk.open_file(name)
    stream = disk.append_stream(out)
    stream.write(b"".join([_ADDR.pack(*p) for p in pairs]))
    stream.close()
    return out


# ---------------------------------------------------------------------------
# Chunk decoding and emission


def decode_chunk(g: gf.GridGraph, raw: bytes, rdist: int):
    """Preorder (z-index, distance) pairs of one chunk record whose root is
    at distance ``rdist``."""
    rz, cnt = CHUNK_HDR.unpack_from(raw)
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
    out, stream = gf.open_result(disk, out_name, "vertex_seq", g.rows, g.cols,
                                 0)
    emitted = 0
    flushed = -1            # all distances <= flushed are already emitted

    def flush_to(d):
        nonlocal flushed, emitted
        for dd in range(flushed + 1, d + 1):
            st = stacks[dd % window]
            recs = [st.pop() for _ in range(len(st))]
            stream.write(b"".join(recs))
            emitted += len(recs)
        flushed = max(flushed, d)

    reader = disk.scan_reader(a_sorted)
    max_dist = -1
    for _ in range(count):
        off, rdist = _ADDR.unpack(reader.read(_ADDR.size))
        flush_to(rdist - 1)
        hdr = disk.read_direct(c_handle, off, CHUNK_HDR.size)
        _, cnt = CHUNK_HDR.unpack(hdr)
        raw = hdr + disk.read_direct(c_handle, off + CHUNK_HDR.size, cnt)
        for z, dv in decode_chunk(g, raw, rdist):
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
    """Full pipeline: distances, chunks, sorted addresses, emission.
    Returns (output handle, vertices emitted, chunk count)."""
    c_handle, a_handle, count = build_chunks_bfs(
        g, bfs_distances(g, s_cell, h, out_name=name), h, name=name,
        stats=stats)
    a_sorted = sort_addresses(g.disk, a_handle, count, name=name + ".A.sorted")
    out, emitted = emit_bfs_order(g, c_handle, a_sorted, count, h,
                                  out_name=name + ".order")
    return out, emitted, count


read_order = gf.read_u64_payload
