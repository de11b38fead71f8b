"""Workload definitions: instance set-up, algorithm calls and output checks.

Every workload runs on the desk machine (B = 2^8, M = 2^16).  Set-up builds
the instances from the workload seed and chooses sources; it returns each
instance as the raw bytes of its simulated file, so that every algorithm
call can start from a fresh ``SimDisk`` whose counters hold that call alone.

* ``scan``:  256x256 instances, density 0.6, h chosen as the CLI chooses it.
  Streaming cluster work: cluster decode and separator-graph builds.
* ``queue``: 128x128, h = 2.  SSSP on a generated dense random
  weighted digraph and BFS on ``unit_directed``, from sources whose reach
  covers at least half of the grid, so the phase-2 queue does the work.
* ``stack``: cache-oblivious MST on 256x256 ``weighted_undirected``.  The only
  workload that spills ``FileStack`` records; it decodes no cluster.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from gridscan import bfs, euler, mst, oracle, sssp, tfp
from gridscan import costmodel as cm
from gridscan import gridfmt as gf
from gridscan import toposort as ts
from gridscan.simdisk import SimConfig, SimDisk

MACHINE = SimConfig(block_bytes=2 ** 8, memory_bytes=2 ** 16)
DENSITY = 0.6
SCAN_SIDE = 256
QUEUE_SIDE = 128
QUEUE_H = 2
STACK_SIDE = 256
QUEUE_ARC_PROBABILITY = 0.6
QUEUE_MAX_WEIGHT = 2 ** 20         # weights uniform in [1, 2^20)
SOURCE_CANDIDATES = 64
CLI_SOURCE = (0, 0)                # the CLI's default --source


class SetupError(Exception):
    pass


@dataclass
class Instance:
    rows: int
    cols: int
    raw: bytes                      # whole simulated file, header included

    @property
    def n(self) -> int:
        return self.rows * self.cols


@dataclass
class Setup:
    instances: dict                 # instance key -> Instance
    sources: dict = field(default_factory=dict)   # "sssp"/"bfs" -> (row, col)
    # time spent inside gridfmt.generate; not part of a set-up's identity
    generate_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class Call:
    """One algorithm call of a workload.

    ``run(g, setup, h)`` returns ``(output handle, stats object or None)``;
    ``check(g, out, setup)`` returns ``(ok, extra metrics)`` and reads the
    output only through the public readers.
    """
    variant: str                    # metric prefix
    instance: str                   # key into Setup.instances
    model_alg: str                  # costmodel algorithm name
    h: int                          # cluster level (model only for mst_obl)
    run: Callable
    check: Callable


def load(inst: Instance) -> gf.GridGraph:
    """A fresh simulated disk holding only the instance, counters at zero."""
    disk = SimDisk(MACHINE)
    handle = disk.open_file("input")
    disk.load_raw(handle, inst.raw)
    return gf.open_grid(disk, handle)


def cli_h(alg: str, side: int) -> int:
    """The cluster level the CLI's ``--h auto`` picks on a side x side grid,
    for a costmodel algorithm name."""
    h = cm.default_h(alg, MACHINE.memory_bytes)
    while h > 0 and 2 ** h > side:
        h -= 1
    return max(h, 1)


def solver_counts(stats) -> dict:
    """The counts a call's ``*Stats`` object collected, by metric name."""
    if isinstance(stats, sssp.SolveStats):
        return {"sssp.extractions": len(stats.extractions),
                "sssp.reactivations": stats.reactivations,
                "sssp.level0_calls": stats.level0_calls,
                "sssp.wasted_calls": stats.wasted_calls}
    if isinstance(stats, bfs.BfsStats):
        return {"bfs.chunk_count": stats.chunk_count}
    if isinstance(stats, ts.TopoStats):
        return {"toposort.chunk_count": stats.chunk_count}
    if isinstance(stats, tfp.TfpStats):
        return {"tfp.slot_reads": sum(stats.slot_reads.values()),
                "tfp.slot_writes": sum(stats.slot_writes.values())}
    if isinstance(stats, euler.EulerStats):
        return {"euler.segments": stats.segments}
    return {}


def model_bytes(call: Call, n: int) -> float:
    rep = cm.volume_model(call.model_alg, n, MACHINE.memory_bytes,
                          MACHINE.block_bytes, call.h)
    return float(rep.predicted_bytes)


# ---------------------------------------------------------------------------
# Instances


def _generate(setup: Setup, key: str, model: str, side: int, seed: int):
    disk = SimDisk(MACHINE)
    t0 = time.perf_counter()
    g = gf.generate(disk, side, side, model, seed=seed, density=DENSITY)
    setup.generate_s += time.perf_counter() - t0
    setup.instances[key] = Instance(side, side, disk.raw_bytes(g.handle))


def build_weighted_digraph(side: int, seed: int) -> Instance:
    """Each of the 8 neighbour arcs present with probability 0.6, weight
    uniform in [1, 2^20); written in Z-order with the public file API."""
    rng = random.Random(seed)
    n = side * side
    masks = [0] * n
    weights = [dict() for _ in range(n)]
    for r in range(side):
        for c in range(side):
            i = r * side + c
            for d, (dr, dc) in enumerate(gf.DIR_OFFSETS):
                if not (0 <= r + dr < side and 0 <= c + dc < side):
                    continue
                if rng.random() < QUEUE_ARC_PROBABILITY:
                    masks[i] |= 1 << d
                    weights[i][d] = rng.randrange(1, QUEUE_MAX_WEIGHT)
    disk = SimDisk(MACHINE)
    handle = disk.open_file("input")
    g = gf.GridGraph(disk, handle, gf.Z_ORDER, "weighted_directed",
                     side, side, n)
    g.write_header()
    stream = disk.append_stream(handle, g.payload_offset)
    _, cell_of_z = gf.z_tables(side, side)
    for z in range(n):
        i = int(cell_of_z[z])
        stream.write(gf.encode_record(g.encoding, masks[i], weights[i]))
    stream.close()
    return Instance(side, side, disk.raw_bytes(handle))


def choose_source(inst: Instance, reach_fn, seed: int):
    """First cell of a seed-derived cell list whose oracle reach covers at
    least half of the grid."""
    g = load(inst)
    rng = random.Random(seed)
    for _ in range(SOURCE_CANDIDATES):
        s = (rng.randrange(inst.rows), rng.randrange(inst.cols))
        dist = reach_fn(g, s)
        if 2 * sum(1 for d in dist.values() if d != oracle.INF) >= inst.n:
            return s
    raise SetupError("no source among %d candidates reaches half the grid"
                     % SOURCE_CANDIDATES)


def setup_scan(seed: int) -> Setup:
    setup = Setup({}, {"sssp": CLI_SOURCE})
    for model in ("weighted_dag", "weighted_undirected", "planar_dag", "tree"):
        _generate(setup, model, model, SCAN_SIDE, seed)
    return setup


def setup_queue(seed: int) -> Setup:
    setup = Setup({})
    setup.instances["weighted_digraph"] = build_weighted_digraph(QUEUE_SIDE, seed)
    _generate(setup, "unit_directed", "unit_directed", QUEUE_SIDE, seed)
    setup.sources["sssp"] = choose_source(
        setup.instances["weighted_digraph"], oracle.dijkstra, seed)
    setup.sources["bfs"] = choose_source(
        setup.instances["unit_directed"], oracle.bfs_distances, seed + 1)
    return setup


def setup_stack(seed: int) -> Setup:
    setup = Setup({})
    _generate(setup, "weighted_undirected", "weighted_undirected",
              STACK_SIDE, seed)
    return setup


# ---------------------------------------------------------------------------
# Output checks against the in-memory oracles


def _coords(g):
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    return [divmod(int(cell), g.cols) for cell in cell_of_z]


def check_sssp(g, out, setup):
    got = sssp.read_distances(g.disk, out)
    want = oracle.dijkstra(g, setup.sources["sssp"])
    z_of = gf.z_tables(g.rows, g.cols)[0]
    ok = len(got) == g.n and all(
        got[int(z_of[r * g.cols + c])] == (gf.ABSENT if d == oracle.INF else d)
        for (r, c), d in want.items())
    reached = sum(1 for d in got if d != gf.ABSENT) / g.n
    return ok, {"sssp.reached_share": reached}


def check_bfs(g, out, setup):
    coords = _coords(g)
    got = [coords[z] for z in bfs.read_order(g.disk, out)]
    dist = oracle.bfs_distances(g, setup.sources["bfs"])
    reachable = sorted(v for v, d in dist.items() if d != oracle.INF)
    ds = [dist[v] for v in got]
    ok = sorted(got) == reachable and ds == sorted(ds)
    return ok, {"bfs.reached_share": len(got) / g.n}


def check_mst(g, out, setup):
    got = mst.mst_edge_coords(g.disk, out)
    edges = {(u, v): w for w, u, v in oracle.undirected_edges(g)}
    want, _ = oracle.mst(g)
    uf = oracle.UnionFind()
    spanning = all(uf.union(u, v) for u, v, _ in got)
    real = all(edges.get((u, v), edges.get((v, u))) == w for u, v, w in got)
    ok = (len(got) == g.n - 1 and spanning and real
          and sum(w for _, _, w in got) == want)
    return ok, {}


def check_toposort(g, out, setup):
    coords = _coords(g)
    got = [coords[z] for z in ts.read_order(g.disk, out)]
    pos = {v: i for i, v in enumerate(got)}
    ok = len(pos) == g.n == len(got) and all(
        pos[(r, c)] < pos[(nr, nc)]
        for (r, c), arcs in gf.adjacency(g).items() for _, nr, nc, _ in arcs)
    return ok, {}


def check_tfp(g, out, setup):
    got = tfp.read_labels(g.disk, out)
    want = oracle.tfp_labels(g, oracle.oracle_indegree)
    z_of = gf.z_tables(g.rows, g.cols)[0]
    ok = len(got) == g.n and all(got[int(z_of[r * g.cols + c])] == lab
                                 for (r, c), lab in want.items())
    return ok, {}


def check_euler(g, out, setup):
    coords = _coords(g)
    got = [coords[z] for z in euler.read_tour(g.disk, out)]
    return got == oracle.euler_tour(g, coords[0]), {}


# ---------------------------------------------------------------------------
# Algorithm calls: (g, setup, h) -> (output handle, stats object or None)


def run_sssp_simple(g, setup, h):
    stats = sssp.SolveStats()
    return sssp.sssp_simple(g, setup.sources["sssp"], h, stats=stats), stats


def run_sssp_hier(g, setup, h):
    stats = sssp.SolveStats()
    levels = sssp.build_hierarchy(h, g.rows, g.cols)
    return sssp.sssp_hierarchical(g, setup.sources["sssp"], levels,
                                  stats=stats), stats


def run_bfs(g, setup, h):
    stats = bfs.BfsStats()
    out, _, _ = bfs.bfs_order(g, setup.sources["bfs"], h, stats=stats)
    return out, stats


def run_mst_aware(g, setup, h):
    return mst.mst_cache_aware(g, h), None


def run_mst_obl(g, setup, h):
    return mst.mst_cache_oblivious(g), None


def run_toposort(g, setup, h):
    stats = ts.TopoStats()
    return ts.toposort(g, h, stats=stats), stats


def run_tfp(g, setup, h):
    stats = tfp.TfpStats()
    return tfp.tfp_run(g, oracle.oracle_indegree, h, stats=stats), stats


def run_euler(g, setup, h):
    stats = euler.EulerStats()
    return euler.euler_tour(g, h, stats=stats), stats


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable                 # seed -> Setup
    calls: tuple


WORKLOADS = {
    "scan": Workload("scan", setup_scan, (
        Call("sssp_dag", "weighted_dag", "sssp", cli_h("sssp", SCAN_SIDE),
             run_sssp_simple, check_sssp),
        Call("mst_aware", "weighted_undirected", "mst_cache_aware",
             cli_h("mst_cache_aware", SCAN_SIDE), run_mst_aware, check_mst),
        Call("toposort", "planar_dag", "toposort",
             cli_h("toposort", SCAN_SIDE), run_toposort, check_toposort),
        Call("tfp", "planar_dag", "tfp", cli_h("tfp", SCAN_SIDE),
             run_tfp, check_tfp),
        Call("euler", "tree", "euler", cli_h("euler", SCAN_SIDE),
             run_euler, check_euler),
    )),
    "queue": Workload("queue", setup_queue, (
        Call("sssp_simple", "weighted_digraph", "sssp", QUEUE_H,
             run_sssp_simple, check_sssp),
        Call("sssp_hier", "weighted_digraph", "sssp", QUEUE_H,
             run_sssp_hier, check_sssp),
        Call("bfs", "unit_directed", "bfs", QUEUE_H, run_bfs, check_bfs),
    )),
    "stack": Workload("stack", setup_stack, (
        # h only feeds the cost model, which ignores it for this variant
        Call("mst_obl", "weighted_undirected", "mst_cache_oblivious", 0,
             run_mst_obl, check_mst),
    )),
}

VARIANTS = tuple(c.variant for w in WORKLOADS.values() for c in w.calls)
