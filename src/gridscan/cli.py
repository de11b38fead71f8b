"""Command-line front end: generate instances, run the algorithms on the
simulated disk, verify against the in-memory references, and print
cost-model walkthroughs.

Every run is self-contained: it builds a fresh simulated disk from --mem and
--block, generates the requested instance from its seed, runs one algorithm,
and reports the transfer counters.  Identical arguments therefore produce
byte-identical artifacts and counters.

Exit codes: 0 success, 1 usage error, 2 instance or configuration error,
3 verification mismatch.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import os
import sys
import time

from . import gridfmt as gf
from . import clusters as cl
from . import costmodel as cm
from . import oracle
from . import sssp, bfs, mst, toposort as ts, tfp, euler
from .simdisk import SimConfig, SimDisk, SimDiskError

ALG_ERRORS = (gf.FormatError, cl.ClusterError, sssp.SsspError, bfs.BfsError,
              mst.MstError, ts.ToposortError, tfp.TfpError, euler.EulerError,
              oracle.OracleError, cm.CostModelError, SimDiskError)


class UsageError(Exception):
    pass


def parse_size(text: str) -> int:
    """Byte counts as plain integers, powers like 2^17, or K/M/G suffixes."""
    t = text.strip().upper()
    try:
        if "^" in t:
            base, exp = (int(x) for x in t.split("^"))
            if exp < 0:
                raise UsageError("size %r has a negative exponent" % text)
            return base ** exp
        for suffix, mult in (("K", 2 ** 10), ("M", 2 ** 20), ("G", 2 ** 30)):
            if t.endswith(suffix):
                return int(t[:-1]) * mult
        return int(t)
    except ValueError:
        raise UsageError("cannot parse size %r" % text)


def parse_density(text: str) -> float:
    """An edge density in [0, 1]; NaN is rejected too."""
    try:
        density = float(text)
    except ValueError:
        raise UsageError("cannot parse density %r" % text)
    if not 0 <= density <= 1:
        raise UsageError("--density must lie in [0, 1]")
    return density


def parse_cell(text: str) -> tuple[int, int]:
    try:
        r, c = text.split(",")
        return int(r), int(c)
    except ValueError:
        raise UsageError("cell must be given as row,col")


# option -> (the commands that read it, its argparse keywords); verify: all
OPTIONS = {
    "--source": (("sssp", "bfs"), {"type": parse_cell, "default": (0, 0)}),
    "--oracle": (("tfp",), {"choices": sorted(oracle.TFP_ORACLES),
                            "default": "indegree"}),
    "--root": (("euler",), {"type": parse_cell}),
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=gf.GEN_MODELS)
    p.add_argument("--density", type=parse_density, default=0.5)
    p.add_argument("--mem", type=parse_size, default=str(2 ** 16))
    p.add_argument("--block", type=parse_size, default=str(2 ** 8))
    p.add_argument("--h", default="auto")
    p.add_argument("--out", help="host path for the raw output artifact")
    p.add_argument("--workspace",
                   help="host directory to dump every simulated file into")
    p.add_argument("--report", choices=("json", "table"), default="json")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gridscan")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    _add_common(g)

    for name in dict.fromkeys(c for c, _ in ALGORITHMS):
        a = sub.add_parser(name, help="run %s on a generated instance" % name)
        _add_common(a)
        variants = _variants(name)
        if variants != [None]:
            a.add_argument("--variant", choices=variants, default=variants[0])
        for flag, (commands, kwargs) in OPTIONS.items():
            if name in commands:
                a.add_argument(flag, **kwargs)

    v = sub.add_parser("verify", help="run an algorithm and check the result")
    v.add_argument("--alg", choices=sorted({c for c, _ in ALGORITHMS}),
                   required=True)
    _add_common(v)
    v.add_argument("--variant")
    for flag, (_, kwargs) in OPTIONS.items():
        v.add_argument(flag, **kwargs)

    m = sub.add_parser("costmodel", help="analytic I/O-volume walkthrough")
    m.add_argument("--alg", choices=cm.ALGORITHMS, required=True)
    m.add_argument("--n", type=parse_size, required=True)
    m.add_argument("--mem", type=parse_size, required=True)
    m.add_argument("--block", type=parse_size, required=True)
    m.add_argument("--h", default="auto")
    m.add_argument("--report", choices=("json", "table"), default="json")
    return p


def _parse_h(text: str) -> int | None:
    """An explicit --h as a non-negative integer; None for 'auto'."""
    if text == "auto":
        return None
    try:
        h = int(text)
    except ValueError:
        raise UsageError("--h must be 'auto' or an integer")
    if h < 0:
        raise UsageError("--h must not be negative")
    return h


def _resolve_h(args, alg: str) -> int:
    """The cluster level for an algorithm run on an args.rows x args.cols grid.

    An explicit --h must lie in [0, h_max], where h_max is the smallest level
    whose single cluster covers the whole grid (at least 1); a larger h only
    widens the separator records.
    """
    h = _parse_h(args.h)
    if h is not None:
        h_max = max(1, (max(args.rows, args.cols) - 1).bit_length())
        if h > h_max:
            raise UsageError("--h must lie in [0, %d] for a %dx%d grid"
                             % (h_max, args.rows, args.cols))
        return h
    h = cm.default_h(ALGORITHMS[alg, _variants(alg)[0]].cost, args.mem)
    # clip to the grid: a cluster larger than the whole grid buys nothing
    while h > 0 and 2 ** h > max(args.rows, args.cols):
        h -= 1
    return max(h, 1)


def _dump_workspace(disk: SimDisk, directory: str):
    os.makedirs(directory, exist_ok=True)
    for handle in disk.files():
        path = os.path.join(directory, handle.name.replace("/", "_"))
        with open(path, "wb") as f:
            f.write(disk.raw_bytes(handle))


def _file_report(disk: SimDisk, n: int) -> dict:
    """Each file with counted transfers: its counters and B/vertex."""
    files = {}
    for handle in disk.files():
        c = dataclasses.asdict(disk.file_counters(handle))
        if c["bytes_transferred"]:
            c["bytes_per_vertex"] = c["bytes_transferred"] / n
            files[handle.name] = c
    return files


def _cells(g, zs):
    """The (row, col) of each Z-order id; None if one is outside [0, n)."""
    if not all(0 <= z < g.n for z in zs):
        return None
    cell_of_z = gf.z_tables(g.rows, g.cols)[1]
    return [divmod(int(cell_of_z[z]), g.cols) for z in zs]


def _per_cell(g, got, want: dict) -> str:
    # n values in Z-order, each the one want gives its cell
    z_of = gf.z_tables(g.rows, g.cols)[0]
    ok = len(got) == g.n and all(got[int(z_of[r * g.cols + c])] == v
                                 for (r, c), v in want.items())
    return "exact" if ok else "mismatch"


def _check_sssp(g, out, args) -> str:
    return _per_cell(g, sssp.read_distances(g.disk, out), {
        v: gf.ABSENT if d == oracle.INF else d
        for v, d in oracle.dijkstra(g, args.source).items()})


def _check_tfp(g, out, args) -> str:
    fn = oracle.TFP_ORACLES[args.oracle]
    return _per_cell(g, tfp.read_labels(g.disk, out), {
        v: label % (1 << 64) for v, label in oracle.tfp_labels(g, fn).items()})


def _check_bfs(g, out, args) -> str:
    # the reachable cells, each once, in nondecreasing distance
    got = _cells(g, bfs.read_order(g.disk, out))
    dist = oracle.bfs_distances(g, args.source)
    reachable = sorted(v for v, d in dist.items() if d != oracle.INF)
    ds = [dist[v] for v in got or ()]
    ok = got is not None and sorted(got) == reachable and ds == sorted(ds)
    return "valid" if ok else "mismatch"


def _check_mst(g, out, args) -> str:
    # n - 1 input edges at their stored weights, no cycle among them
    # (so they span the grid), and the least total weight
    got = mst.read_mst(g.disk, out)
    ends = _cells(g, [z for a, b, _ in got for z in (a, b)])
    weight_of = {frozenset(e): w for w, *e in oracle.undirected_edges(g)}
    uf = oracle.UnionFind()
    ok = ends is not None and len(got) == g.n - 1 and all(
        weight_of.get(frozenset((u, v))) == w and uf.union(u, v)
        for u, v, (_, _, w) in zip(ends[::2], ends[1::2], got))
    total = sum(w for _, _, w in got)
    return "exact" if ok and total == oracle.mst(g)[0] else "mismatch"


def _check_toposort(g, out, args) -> str:
    # every cell once, each arc's tail before its head
    got = _cells(g, ts.read_order(g.disk, out))
    pos = {v: i for i, v in enumerate(got or ())}
    ok = got is not None and len(pos) == g.n == len(got) and all(
        pos[v] < pos[(nr, nc)]
        for v, arcs in gf.adjacency(g).items() for _, nr, nc, _ in arcs)
    return "valid" if ok else "mismatch"


def _check_euler(g, out, args) -> str:
    # the tour from the root the run was given, or euler_tour's (0, 0)
    got = _cells(g, euler.read_tour(g.disk, out))
    want = oracle.euler_tour(g, args.root or (0, 0))
    return "exact" if got == want else "mismatch"


# (command, variant) -> the default instance model, the cost-model name (h
# is taken exactly when it has a cm.WORKING_SET entry), run(g, h, args) ->
# output handle, check(g, out, args) -> "exact", "valid" (one of several
# correct answers, and it passes its validity check) or "mismatch"; variant
# None for a command of one variant, and a command's first row its default
Algorithm = collections.namedtuple("Algorithm", "model cost run check")
ALGORITHMS = {
    ("sssp", "simple"): Algorithm(
        "weighted_dag", "sssp",
        lambda g, h, a: sssp.sssp_simple(g, a.source, h), _check_sssp),
    ("sssp", "hierarchical"): Algorithm(
        "weighted_dag", "sssp", lambda g, h, a: sssp.sssp_hierarchical(
            g, a.source, sssp.build_hierarchy(h, g.rows, g.cols)),
        _check_sssp),
    ("bfs", None): Algorithm(
        "unit_directed", "bfs",
        lambda g, h, a: bfs.bfs_order(g, a.source, h)[0], _check_bfs),
    ("mst", "aware"): Algorithm(
        "weighted_undirected", "mst_cache_aware",
        lambda g, h, a: mst.mst_cache_aware(g, h), _check_mst),
    ("mst", "oblivious"): Algorithm(
        "weighted_undirected", "mst_cache_oblivious",
        lambda g, h, a: mst.mst_cache_oblivious(g), _check_mst),
    ("toposort", None): Algorithm(
        "planar_dag", "toposort", lambda g, h, a: ts.toposort(g, h),
        _check_toposort),
    ("tfp", None): Algorithm(
        "planar_dag", "tfp",
        lambda g, h, a: tfp.tfp_run(g, oracle.TFP_ORACLES[a.oracle], h),
        _check_tfp),
    ("euler", None): Algorithm(
        "tree", "euler", lambda g, h, a: euler.euler_tour(g, h, root=a.root),
        _check_euler),
}


def _variants(command: str) -> list:
    """A command's variants in table order, its default first."""
    return [v for c, v in ALGORITHMS if c == command]


def _print_report(report: dict, mode: str):
    if mode == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        print("%-18s %s" % (key, value))


def run(argv) -> int:
    parser = build_parser()
    try:
        # the size and density parsers raise UsageError inside parse_args
        return _dispatch(parser.parse_args(argv))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except ALG_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: instance does not fit in host memory", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "costmodel":
        h = _parse_h(args.h)
        if h is None:
            h = cm.default_h(args.alg, args.mem)
        rep = cm.volume_model(args.alg, args.n, args.mem, args.block, h)
        if args.report == "table":
            print(cm.format_table(rep))
        else:
            print(json.dumps(rep.as_dict(), indent=2))
        return 0

    alg = variant = row = h = None
    if args.command != "gen":
        alg = args.alg if args.command == "verify" else args.command
        variant = getattr(args, "variant", None)
        variant = _variants(alg)[0] if variant is None else variant
        row = ALGORITHMS.get((alg, variant))
        if row is None:
            raise UsageError("--alg %s has no variant %r" % (alg, variant))
        # a variant whose cost model keeps no cluster working set (the
        # cache-oblivious MST) takes no cluster level, so --h goes unread
        if row.cost in cm.WORKING_SET:
            h = _resolve_h(args, alg)
    model = args.model or (row.model if row else "weighted_dag")
    disk = SimDisk(SimConfig(block_bytes=args.block, memory_bytes=args.mem))
    g = gf.generate(disk, args.rows, args.cols, model, seed=args.seed,
                    density=args.density)

    # the clock covers the command's own work, never instance generation
    t0 = time.perf_counter()
    out = g.handle
    if row is not None:
        disk.reset_counters()
        out = row.run(g, h, args)
    wall_time_s = time.perf_counter() - t0

    verdict = row.check(g, out, args) if args.command == "verify" else None

    counters = disk.counters_snapshot()
    report = {
        "command": args.command,
        "algorithm": alg,
        "instance": {"rows": args.rows, "cols": args.cols, "model": model,
                     "seed": args.seed},
        "config": {"memory_bytes": args.mem, "block_bytes": args.block},
        "counters": dataclasses.asdict(counters),
        "files": _file_report(disk, g.n),
        "output_file": out.name,
        "wall_time_s": round(wall_time_s, 6),
    }
    if row is not None:
        # the cost model's price of this run; null where an explicit --h
        # is beyond the model's working-set bound at --mem
        try:
            price = cm.volume_model(row.cost, g.n, args.mem, args.block,
                                    h or 0)
        except cm.CostModelError:
            report["model"] = report["measured_over_model"] = None
        else:
            report["model"] = price.as_dict()
            report["measured_over_model"] = float(
                counters.bytes_transferred / price.predicted_bytes)
    for key, value in (("variant", variant), ("h", h), ("verdict", verdict)):
        if value is not None:
            report[key] = value
    if args.out:
        with open(args.out, "wb") as f:
            f.write(disk.raw_bytes(out))
        report["exported_to"] = args.out
    if args.workspace:
        _dump_workspace(disk, args.workspace)
    _print_report(report, args.report)
    return 3 if verdict == "mismatch" else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
