"""Euler tour of a tree grid graph via per-cluster entry-to-exit maps.

The canonical tour leaves every vertex by the next existing edge clockwise
strictly after the reverse of the arrival direction, with the root entered
fictitiously from the northwest.  Each cluster is loaded once; for every way
the tour can enter it, the walk inside the cluster is simulated in memory and
stored as a segment (a run of 1-byte direction steps) together with the edge
by which the tour leaves, or a terminal mark in the root's cluster.  The tour
is then emitted by composing the maps from the root outward, which touches
one segment record per entry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import gridfmt as gf
from . import clusters as cl
from .simdisk import SimDisk


class EulerError(Exception):
    pass


SEG_HDR = struct.Struct("<QI")      # start vertex z, step count


@dataclass
class EulerStats:
    segments: int = 0
    max_entries_per_cluster: int = 0


def _successor(dirs: int, arrival: int) -> int:
    """Next existing direction clockwise strictly after the reverse of the
    direction of travel ``arrival``; ``dirs`` is a presence bitmask."""
    back = gf.opposite(arrival)
    for k in range(1, 9):
        d = (back + k) % 8
        if dirs >> d & 1:
            return d
    raise EulerError("isolated vertex on tour")


def _cross_edge_map(g: gf.GridGraph, scheme: cl.ClusterScheme):
    """Cross-cluster tree edges grouped by receiving cluster; also the total
    edge count, for the tree precondition."""
    incoming: dict = {}
    edge_count = 0
    for q in cl.iterate_clusters(g, scheme):
        seen = set()
        for v in range(q.n):
            for d, lr, lc, w in q.intra[v]:
                key = frozenset((v, lr * q.wid + lc))
                if key not in seen:
                    seen.add(key)
                    edge_count += 1
        for lr, lc, d, nr, nc, w in q.out_edges:
            u = (lr + q.r0, lc + q.c0)
            # register each undirected cross edge once, as an entry into
            # both incident clusters (symmetric unweighted storage lists it
            # on both sides; owner-side storage only on the smaller one)
            if u < (nr, nc):
                incoming.setdefault(scheme.cluster_of(nr, nc), []).append(
                    (u, d, (nr, nc)))
                incoming.setdefault(scheme.cluster_of(*u), []).append(
                    ((nr, nc), gf.opposite(d), u))
                edge_count += 1
    return incoming, edge_count


def _simulate(q: cl.InMemoryCluster, dirs: list, entry, arrival: int,
              root, first_dir: int | None, fictitious: bool):
    """Walk the tour inside one cluster from an entry point.

    Returns (steps, exit edge or None).  ``first_dir`` is the root's first
    departure; reaching the root with that successor means the tour is over.
    """
    steps = []
    v, a = entry, arrival
    started = not fictitious
    while True:
        d = _successor(dirs[q.local(*v)], a)
        if first_dir is not None and v == root and started and d == first_dir:
            return steps, None
        started = True
        dr, dc = gf.DIR_OFFSETS[d]
        nr, nc = v[0] + dr, v[1] + dc
        if not (q.r0 <= nr < q.r0 + q.hgt and q.c0 <= nc < q.c0 + q.wid):
            return steps, (v, d)
        steps.append(d)
        v, a = (nr, nc), d


def _cluster_direction_masks(q: cl.InMemoryCluster, incoming) -> list:
    dirs = [0] * q.n
    for v in range(q.n):
        for d, lr, lc, w in q.intra[v]:
            dirs[v] |= 1 << d
    for lr, lc, d, nr, nc, w in q.out_edges:
        dirs[lr * q.wid + lc] |= 1 << d
    for u, d, rc in incoming:
        dirs[q.local(*rc)] |= 1 << gf.opposite(d)
    return dirs


def build_entry_exit(g: gf.GridGraph, h: int, root=None) -> dict:
    """Entry-to-exit maps per cluster: {(entry vertex, arrival direction):
    (exit vertex, exit direction) or None for the terminal entry}."""
    maps = {}
    for ckey, entry, arrival, steps, exit_edge in _scan_segments(g, h, root)[0]:
        maps.setdefault(ckey, {})[(entry, arrival)] = exit_edge
    return maps


def _scan_segments(g: gf.GridGraph, h: int, root=None):
    """Simulate every possible cluster entry, one cluster in memory at a
    time; returns (segment list, root's first departure, resolved root)."""
    gf.check_input(g, ("weighted_undirected", "unweighted"), EulerError)
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    if root is None:
        cell = int(gf.z_tables(g.rows, g.cols)[1][0])
        root = (cell // g.cols, cell % g.cols)
    if not (0 <= root[0] < g.rows and 0 <= root[1] < g.cols):
        raise EulerError("root outside grid")
    incoming, edge_count = _cross_edge_map(g, scheme)
    if edge_count != g.n - 1:
        raise EulerError("input is not a tree: %d edges for %d vertices"
                         % (edge_count, g.n))
    root_cluster = scheme.cluster_of(*root)
    segments = []
    first_dir = None
    for q in cl.iterate_clusters(g, scheme):
        ckey = (q.ci, q.cj)
        inc = incoming.get(ckey, [])
        dirs = _cluster_direction_masks(q, inc)
        fd = None
        if ckey == root_cluster and g.n > 1:
            fd = _successor(dirs[q.local(*root)], gf.NW)
            first_dir = fd
            steps, exit_edge = _simulate(q, dirs, root, gf.NW, root, fd, True)
            segments.append((ckey, root, None, steps, exit_edge))
        for u, d, rc in inc:
            steps, exit_edge = _simulate(q, dirs, rc, d, root, fd, False)
            segments.append((ckey, rc, d, steps, exit_edge))
    return segments, first_dir, root


def euler_tour(g: gf.GridGraph, h: int, root=None, out_name: str = "euler.out",
               stats: EulerStats | None = None):
    """Write the tour as one 8-byte root id plus one direction byte per step."""
    disk = g.disk
    segments, first_dir, root = _scan_segments(g, h, root)
    z_of = gf.z_tables(g.rows, g.cols)[0]

    def zi(v):
        return int(z_of[v[0] * g.cols + v[1]])

    out = disk.open_file(out_name)
    stream = disk.append_stream(out)
    total = 2 * (g.n - 1) + 1
    gf.write_header_via(stream, disk, "tour", g.rows, g.cols, total)
    stream.write(zi(root).to_bytes(8, "little"))
    if g.n == 1:
        stream.close()
        return out

    # segment store: sequential C file plus an in-memory address map
    c_handle = disk.open_file(out_name + ".segs")
    c_stream = disk.append_stream(c_handle)
    index = {}
    per_cluster: dict = {}
    off = 0
    for ckey, entry, arrival, steps, exit_edge in segments:
        rec = SEG_HDR.pack(zi(entry), len(steps)) + bytes(steps)
        c_stream.write(rec)
        index[(entry, arrival)] = (off, len(steps), exit_edge)
        per_cluster[ckey] = per_cluster.get(ckey, 0) + 1
        off += len(rec)
    c_stream.close()
    if stats is not None:
        stats.segments = len(index)
        stats.max_entries_per_cluster = max(per_cluster.values())

    written = 0
    used = set()
    key = (root, None)
    while True:
        if key not in index or key in used:
            raise EulerError("input is not a tree: broken tour at %r" % (key,))
        used.add(key)
        soff, nsteps, exit_edge = index[key]
        rec = disk.read_direct(c_handle, soff, SEG_HDR.size + nsteps)
        stream.write(rec[SEG_HDR.size:])
        written += nsteps
        if exit_edge is None:
            break
        (w, d) = exit_edge
        stream.write(bytes([d]))
        written += 1
        dr, dc = gf.DIR_OFFSETS[d]
        key = ((w[0] + dr, w[1] + dc), d)
    stream.close()
    if written != 2 * (g.n - 1):
        raise EulerError("input is not a tree: tour has %d of %d steps"
                         % (written, 2 * (g.n - 1)))
    return out


def read_tour(disk: SimDisk, handle) -> list:
    """Decode the compact tour back into a list of z-indices."""
    g = gf.open_grid(disk, handle)
    raw = disk.raw_bytes(handle)
    off = g.payload_offset
    z = int.from_bytes(raw[off:off + 8], "little")
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    z_of = gf.z_tables(g.rows, g.cols)[0]
    cell = int(cell_of_z[z])
    r, c = cell // g.cols, cell % g.cols
    tour = [z]
    for i in range(g.count - 1):
        d = raw[off + 8 + i]
        dr, dc = gf.DIR_OFFSETS[d]
        r, c = r + dr, c + dc
        tour.append(int(z_of[r * g.cols + c]))
    return tour
