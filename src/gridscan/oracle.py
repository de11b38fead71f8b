"""In-memory reference solvers used as ground truth in tests and `verify`.

Everything here works on the uncounted decoded adjacency and uses textbook
algorithms with the same deterministic tie-breaking rules as the engine
(lowest index wins, neighbours in clockwise-from-north order), so sequences
and edge sets can be compared exactly, not just scores.
"""

from __future__ import annotations

import heapq
from collections import deque

from . import gridfmt as gf

INF = float("inf")
MAX_N = 2 ** 20


class OracleError(Exception):
    pass


def _check_size(g):
    if g.n > MAX_N:
        raise OracleError("instance too large for the reference solver")


def _cells(g):
    return [(r, c) for r in range(g.rows) for c in range(g.cols)]


def dijkstra(g: gf.GridGraph, s: tuple[int, int]) -> dict:
    """Exact distances from 0-based source cell s; INF when unreachable."""
    _check_size(g)
    adj = gf.adjacency(g)
    dist = {v: INF for v in adj}
    dist[s] = 0
    pq = [(0, s)]
    while pq:
        dv, v = heapq.heappop(pq)
        if dv > dist[v]:
            continue
        for _, nr, nc, w in adj[v]:
            nd = dv + w
            if nd < dist[(nr, nc)]:
                dist[(nr, nc)] = nd
                heapq.heappush(pq, (nd, (nr, nc)))
    return dist


def bfs_distances(g: gf.GridGraph, s: tuple[int, int]) -> dict:
    _check_size(g)
    adj = gf.adjacency(g)
    dist = {v: INF for v in adj}
    dist[s] = 0
    dq = deque([s])
    while dq:
        v = dq.popleft()
        for _, nr, nc, _ in adj[v]:
            if dist[(nr, nc)] == INF:
                dist[(nr, nc)] = dist[v] + 1
                dq.append((nr, nc))
    return dist


def undirected_edges(g: gf.GridGraph) -> list:
    """Each undirected edge once as (w, (r1,c1), (r2,c2)), owner endpoint first."""
    _check_size(g)
    records = gf.decode_all(g)
    z_of_cell = gf.z_tables(g.rows, g.cols)[0]
    out = []
    for r in range(g.rows):
        for c in range(g.cols):
            mask, weights = records[z_of_cell[r * g.cols + c]]
            for d in gf.OWNED_SLOTS:
                if mask >> d & 1:
                    dr, dc = gf.DIR_OFFSETS[d]
                    out.append((weights.get(d, 1), (r, c), (r + dr, c + dc)))
    return out


class UnionFind:
    def __init__(self):
        self.p = {}

    def find(self, x):
        p = self.p
        root = x
        while p.setdefault(root, root) != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def kruskal(edges, vertices=None):
    """(total weight, chosen edge list) of a minimum spanning forest.

    Ties resolved by sorting on the full (w, u, v) tuple, matching the fixed
    orientations the engine emits.
    """
    uf = UnionFind()
    total, chosen = 0, []
    for w, u, v in sorted(edges):
        if uf.union(u, v):
            total += w
            chosen.append((w, u, v))
    if vertices is not None:
        roots = {uf.find(v) for v in vertices}
        if len(roots) > 1:
            raise OracleError("graph is disconnected")
    return total, chosen


def mst(g: gf.GridGraph):
    return kruskal(undirected_edges(g), vertices=_cells(g))


def toposort(g: gf.GridGraph) -> list:
    """Kahn order; the ready set is a min-heap of cells (row-major ties)."""
    _check_size(g)
    adj = gf.adjacency(g)
    indeg = {v: 0 for v in adj}
    for v in adj:
        for _, nr, nc, _ in adj[v]:
            indeg[(nr, nc)] += 1
    heap = [v for v in adj if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for _, nr, nc, _ in adj[v]:
            indeg[(nr, nc)] -= 1
            if indeg[(nr, nc)] == 0:
                heapq.heappush(heap, (nr, nc))
    if len(order) != g.n:
        raise OracleError("graph is cyclic")
    return order


def tfp_labels(g: gf.GridGraph, fn) -> dict:
    """Evaluate fn(cell, in-labels clockwise from north) in topological order."""
    adj = gf.adjacency(g)
    order = toposort(g)
    preds = {v: [] for v in adj}
    for v in adj:
        for d, nr, nc, _ in adj[v]:
            preds[(nr, nc)].append((gf.opposite(d), v))
    labels = {}
    for v in order:
        ins = [labels[u] for _, u in sorted(preds[v])]
        labels[v] = fn(v, ins)
    return labels


def oracle_indegree(v, ins):
    return len(ins)


def oracle_longest_path(v, ins):
    return 1 + max(ins) if ins else 0


def oracle_path_count(v, ins):
    return sum(ins) if ins else 1


TFP_ORACLES = {
    "indegree": oracle_indegree,
    "longest_path": oracle_longest_path,
    "path_count": oracle_path_count,
}


def check_tree(g: gf.GridGraph):
    adj = gf.adjacency(g)
    m = sum(len(v) for v in adj.values())
    if m != 2 * (g.n - 1):
        raise OracleError("not a tree: edge count")
    seen = {next(iter(adj))}
    dq = deque(seen)
    while dq:
        v = dq.popleft()
        for _, nr, nc, _ in adj[v]:
            if (nr, nc) not in seen:
                seen.add((nr, nc))
                dq.append((nr, nc))
    if len(seen) != g.n:
        raise OracleError("not a tree: disconnected")


def euler_tour(g: gf.GridGraph, root: tuple[int, int]) -> list:
    """Canonical tour: from each arrival, leave by the next existing edge
    clockwise strictly after the reverse of the arrival direction.  The root
    is entered fictitiously from the northwest, so its scan starts at north.
    """
    _check_size(g)
    check_tree(g)
    adj = gf.adjacency(g)
    dirset = {v: sorted(d for d, *_ in adj[v]) for v in adj}
    if g.n == 1:
        return [root]

    def successor(v, arrival):
        back = gf.opposite(arrival)
        ds = dirset[v]
        for k in range(1, 9):
            d = (back + k) % 8
            if d in ds:
                return d
        raise OracleError("isolated vertex on tour")

    first = successor(root, gf.NW)  # fictitious arrival so scan starts at N
    tour = [root]
    v, d = root, first
    while True:
        dr, dc = gf.DIR_OFFSETS[d]
        v = (v[0] + dr, v[1] + dc)
        tour.append(v)
        if v == root and len(tour) == 2 * (g.n - 1) + 1:
            break
        d = successor(v, d)
        if v == root and d == first and len(tour) < 2 * (g.n - 1) + 1:
            raise OracleError("tour closed early")
    return tour

