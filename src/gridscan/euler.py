"""Euler tour of a tree grid graph via per-cluster entry-to-exit maps.

The input uses the symmetric unweighted encoding, which stores every edge at
both ends.  The canonical tour leaves every vertex by the next existing edge
clockwise strictly after the reverse of the arrival direction, with the root
entered fictitiously from the northwest.  One scan of the input loads each
cluster once.  The tour can enter a cluster by the reverse of each of its own
cross-cluster arcs; these entries are taken in order of the Z index of the
edge's smaller end by (r, c), then of the direction from that end, after the
root's start in the root's cluster.  For every entry the walk inside the
cluster is simulated in memory and stored as a segment, a run of 1-byte
direction steps and nothing else: the in-memory index holds its offset, its
step count and the edge by which the tour leaves, or a terminal mark in the
root's cluster.  The segment file of a tree is thus one byte per tour step
inside a cluster, 2(n - 1) less one per cross-cluster arc.  The same scan
checks that the input is a tree: every arc has its reverse, and there are
2(n - 1) arcs.  The tour is then emitted by composing the maps from the root
outward, which touches one segment record per entry, and none for a segment
of no steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gridfmt as gf
from . import clusters as cl
from .simdisk import SimDisk


class EulerError(Exception):
    pass


@dataclass
class EulerStats:
    segments: int = 0
    max_entries_per_cluster: int = 0


# _SUCCESSOR[dirs][arrival]: the first direction of presence bitmask dirs
# clockwise strictly after the reverse of arrival, None if dirs is empty
_SUCCESSOR = tuple(
    tuple(next((d for d in ((a + 4 + k) % 8 for k in range(1, 9))
                if dirs >> d & 1), None) for a in range(8))
    for dirs in range(256))


def _successor(dirs: int, arrival: int) -> int:
    """Next existing direction clockwise strictly after the reverse of the
    direction of travel ``arrival``; ``dirs`` is a presence bitmask."""
    d = _SUCCESSOR[dirs][arrival]
    if d is None:
        raise EulerError("input is not a tree: isolated vertex on tour")
    return d


def _simulate(q: cl.InMemoryCluster, dirs: list, intra: list, entry: int,
              arrival: int, root: int | None, first_dir: int | None,
              fictitious: bool):
    """Walk the tour inside one cluster from local cell ``entry``.

    ``intra[v]`` masks the directions of v's intra-cluster edges.  Returns
    (steps, exit edge or None), the exit edge as (global coordinates,
    direction).  ``first_dir`` is the departure of the local cell ``root``;
    reaching the root with that successor means the tour is over.
    """
    step = [dr * q.wid + dc for dr, dc in gf.DIR_OFFSETS]
    steps = []
    v, a = entry, arrival
    started = not fictitious
    while True:
        d = _successor(dirs[v], a)
        if first_dir is not None and v == root and started and d == first_dir:
            return steps, None
        started = True
        if not intra[v] >> d & 1:
            return steps, (q.coord(v), d)
        steps.append(d)
        v, a = v + step[d], d


def _walk_tables(q: cl.InMemoryCluster):
    """Per local cell, bit masks of its tree directions (its stored arcs)
    and of its intra-cluster ones.  Symmetric storage lists every intra
    edge at both ends, so an arc stored one way only is rejected, at the
    least local id with an in-arc it has no arc back along, and every walk
    in the cluster ends."""
    first, head, arc_dirs = q.first, q.head, q.dirs
    intra, back = [0] * q.n, [0] * q.n
    for v in range(q.n):
        for i in range(first[v], first[v + 1]):
            intra[v] |= 1 << arc_dirs[i]
            back[head[i]] |= 1 << (arc_dirs[i] + 4) % 8
    for v in range(q.n):
        if back[v] & ~intra[v]:
            raise EulerError("input is not a tree: one-way arc at (%d,%d)"
                             % q.coord(v))
    dirs = intra[:]
    for v, d, nr, nc, w in q.out_edges:
        dirs[v] |= 1 << d
    return dirs, intra


def _scan_segments(g: gf.GridGraph, h: int, root=None):
    """Check the encoding and the root; returns the resolved root and a
    generator that simulates every possible cluster entry, one cluster in
    memory at a time, and yields each (rank, entry, arrival, steps, exit
    edge) segment as soon as it is simulated.  The generator checks that
    the input is a tree as it goes, and raises after its last segment if
    it is not."""
    gf.check_input(g, ("unweighted",), EulerError)
    scheme = cl.ClusterScheme(g.rows, g.cols, h)
    if root is None:
        root = (0, 0)               # Morton code 0, the smallest Z index
    if not (0 <= root[0] < g.rows and 0 <= root[1] < g.cols):
        raise EulerError("root outside grid")
    return root, _cluster_segments(g, scheme, root)


def _cluster_segments(g: gf.GridGraph, scheme: cl.ClusterScheme, root):
    z_of = gf.z_tables(g.rows, g.cols)[0]
    root_rank = scheme.rank_of(*root)
    # cross edges seen at one end only, keyed by (smaller end, direction
    # from it), each mapped to the end whose arc is still missing
    unpaired = {}
    arcs = 0
    for q in cl.iterate_clusters(g, scheme):
        dirs, intra = _walk_tables(q)
        arcs += len(q.head) + len(q.out_edges)
        entries = []
        for v, d, nr, nc, w in q.out_edges:
            a, b = q.coord(v), (nr, nc)
            key = (a, d) if a < b else (b, gf.opposite(d))
            if unpaired.pop(key, None) is None:
                unpaired[key] = b
            (sr, sc), sd = key
            entries.append((z_of[sr * g.cols + sc], sd, v, gf.opposite(d)))
        entries.sort()
        fd = lroot = None
        if q.rank == root_rank and g.n > 1:
            lroot = q.local(*root)
            fd = _successor(dirs[lroot], gf.NW)
            steps, exit_edge = _simulate(q, dirs, intra, lroot, gf.NW, lroot,
                                         fd, True)
            yield q.rank, root, None, steps, exit_edge
        for _, _, v, d in entries:
            steps, exit_edge = _simulate(q, dirs, intra, v, d, lroot, fd,
                                         False)
            yield q.rank, q.coord(v), d, steps, exit_edge
    if unpaired:
        raise EulerError("input is not a tree: one-way arc at (%d,%d)"
                         % next(iter(unpaired.values())))
    if arcs != 2 * (g.n - 1):
        raise EulerError("input is not a tree: %d edges for %d vertices"
                         % (arcs // 2, g.n))


def euler_tour(g: gf.GridGraph, h: int, root=None, out_name: str = "euler.out",
               stats: EulerStats | None = None):
    """Write the tour as one 8-byte root id plus one direction byte per step."""
    disk = g.disk
    root, segments = _scan_segments(g, h, root)
    z_root = int(gf.z_tables(g.rows, g.cols)[0][root[0] * g.cols + root[1]])

    out, stream = gf.open_result(disk, out_name, "tour", g.rows, g.cols,
                                 2 * (g.n - 1) + 1)
    stream.write(z_root.to_bytes(8, "little"))
    if g.n == 1:
        # no segment, but the scan still reads the input and checks it
        for _ in segments:
            pass
        stream.close()
        return out

    # segment store: sequential C file, written as simulated, plus an
    # in-memory address map
    c_handle = disk.open_file(out_name + ".segs")
    c_stream = disk.append_stream(c_handle)
    index = {}
    per_cluster: dict = {}
    off = 0
    for rank, entry, arrival, steps, exit_edge in segments:
        c_stream.write(bytes(steps))
        index[(entry, arrival)] = (off, len(steps), exit_edge)
        per_cluster[rank] = per_cluster.get(rank, 0) + 1
        off += len(steps)
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
        rec = disk.read_direct(c_handle, soff, nsteps)
        written += nsteps
        if exit_edge is None:
            stream.write(rec)
            break
        (w, d) = exit_edge
        stream.write(rec + bytes([d]))
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
