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
import dataclasses
import json
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

# algorithm subcommand -> (default instance model, cost-model algorithm)
COMMANDS = {
    "sssp": ("weighted_dag", "sssp"),
    "bfs": ("unit_directed", "bfs"),
    "mst": ("weighted_undirected", "mst_cache_aware"),
    "toposort": ("planar_dag", "toposort"),
    "tfp": ("planar_dag", "tfp"),
    "euler": ("tree", "euler"),
}
# --variant choices of the commands that have variants; the first is default
VARIANTS = {"sssp": ("simple", "hierarchical"), "mst": ("aware", "oblivious")}


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


def _add_common(p: argparse.ArgumentParser, with_instance: bool = True):
    if with_instance:
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

    for name in COMMANDS:
        a = sub.add_parser(name, help="run %s on a generated instance" % name)
        _add_common(a)
        if name in ("sssp", "bfs"):
            a.add_argument("--source", type=parse_cell, default=(0, 0))
        if name in VARIANTS:
            a.add_argument("--variant", choices=VARIANTS[name],
                           default=VARIANTS[name][0])
        if name == "tfp":
            a.add_argument("--oracle", choices=sorted(oracle.TFP_ORACLES),
                           default="indegree")
        if name == "euler":
            a.add_argument("--root", type=parse_cell)

    v = sub.add_parser("verify", help="run an algorithm and check the result")
    v.add_argument("--alg", choices=sorted(COMMANDS), required=True)
    _add_common(v)
    v.add_argument("--source", type=parse_cell, default=(0, 0))
    v.add_argument("--variant")
    v.add_argument("--oracle", choices=sorted(oracle.TFP_ORACLES),
                   default="indegree")
    v.add_argument("--root", type=parse_cell)

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
    h = cm.default_h(COMMANDS[alg][1], args.mem)
    # clip to the grid: a cluster larger than the whole grid buys nothing
    while h > 0 and 2 ** h > max(args.rows, args.cols):
        h -= 1
    return max(h, 1)


def _make_instance(args, alg=None):
    sim = SimConfig(block_bytes=args.block, memory_bytes=args.mem)
    disk = SimDisk(sim)
    model = args.model or (COMMANDS[alg][0] if alg else "weighted_dag")
    g = gf.generate(disk, args.rows, args.cols, model, seed=args.seed,
                    density=args.density)
    return disk, g, model


def _export(disk: SimDisk, handle, path: str):
    with open(path, "wb") as f:
        f.write(disk.raw_bytes(handle))


def _dump_workspace(disk: SimDisk, directory: str):
    import os
    os.makedirs(directory, exist_ok=True)
    for name, fid in sorted(disk._names.items()):
        safe = name.replace("/", "_")
        with open(os.path.join(directory, safe), "wb") as f:
            f.write(bytes(disk._data[fid]))


def _run_algorithm(alg: str, args, disk, g, h: int):
    """Dispatch one algorithm; returns the output handle."""
    if alg == "sssp":
        if getattr(args, "variant", None) == "hierarchical":
            levels = sssp.build_hierarchy(h, g.rows, g.cols)
            return sssp.sssp_hierarchical(g, args.source, levels)
        return sssp.sssp_simple(g, args.source, h)
    if alg == "bfs":
        out, _, _ = bfs.bfs_order(g, args.source, h)
        return out
    if alg == "mst":
        if getattr(args, "variant", None) == "oblivious":
            return mst.mst_cache_oblivious(g)
        return mst.mst_cache_aware(g, h)
    if alg == "toposort":
        return ts.toposort(g, h)
    if alg == "tfp":
        return tfp.tfp_run(g, oracle.TFP_ORACLES[args.oracle], h)
    if alg == "euler":
        return euler.euler_tour(g, h, root=getattr(args, "root", None))
    raise UsageError("unknown algorithm %r" % alg)


def _verify(alg: str, args, disk, g, out) -> str:
    """Compare an artifact against the reference solver.

    Returns "exact" for element-for-element equality, "valid" where the
    output is one of several correct answers and passes its validity check,
    or "mismatch".
    """
    z_of, cell_of_z = gf.z_tables(g.rows, g.cols)

    def coord(z):
        cell = int(cell_of_z[z])
        return cell // g.cols, cell % g.cols

    if alg == "sssp":
        got = sssp.read_distances(disk, out)
        want = oracle.dijkstra(g, args.source)
        for (r, c), dv in want.items():
            dv = gf.ABSENT if dv == float("inf") else int(dv)
            if got[int(z_of[r * g.cols + c])] != dv:
                return "mismatch"
        return "exact"
    if alg == "bfs":
        got = [coord(z) for z in bfs.read_order(disk, out)]
        dist = oracle.bfs_distances(g, args.source)
        reachable = [v for v, dv in dist.items() if dv != float("inf")]
        if sorted(got) != sorted(reachable):
            return "mismatch"
        ds = [dist[v] for v in got]
        return "valid" if ds == sorted(ds) else "mismatch"
    if alg == "mst":
        got = sum(w for _, _, w in mst.read_mst(disk, out))
        want, _ = oracle.mst(g)
        return "exact" if got == want else "mismatch"
    if alg == "toposort":
        got = [coord(z) for z in ts.read_order(disk, out)]
        pos = {v: i for i, v in enumerate(got)}
        if sorted(got) != sorted((r, c)
                                 for r in range(g.rows) for c in range(g.cols)):
            return "mismatch"
        for (r, c), targets in gf.adjacency(g).items():
            for _, nr, nc, _ in targets:
                if pos[(r, c)] >= pos[(nr, nc)]:
                    return "mismatch"
        return "valid"
    if alg == "tfp":
        got = tfp.read_labels(disk, out)
        want = oracle.tfp_labels(g, oracle.TFP_ORACLES[args.oracle])
        for (r, c), lv in want.items():
            if got[int(z_of[r * g.cols + c])] != lv % (1 << 64):
                return "mismatch"
        return "exact"
    if alg == "euler":
        root = args.root or coord(euler.read_tour(disk, out)[0])
        got = [coord(z) for z in euler.read_tour(disk, out)]
        return "exact" if got == oracle.euler_tour(g, root) else "mismatch"
    raise UsageError("unknown algorithm %r" % alg)


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

    alg = None
    variant = getattr(args, "variant", None)
    if args.command == "verify":
        alg = args.alg
        if variant is not None and variant not in VARIANTS.get(alg, ()):
            raise UsageError("--alg %s has no variant %r" % (alg, variant))
    elif args.command in COMMANDS:
        alg = args.command
    variant = variant or VARIANTS.get(alg, (None,))[0]
    h = _resolve_h(args, alg) if alg else None
    disk, g, model = _make_instance(args, alg)

    # the clock covers the command's own work, never instance generation
    t0 = time.perf_counter()
    if args.command == "gen":
        out = g.handle
    else:
        disk.reset_counters()
        out = _run_algorithm(alg, args, disk, g, h)
    wall_time_s = time.perf_counter() - t0

    verdict = None
    if args.command == "verify":
        verdict = _verify(alg, args, disk, g, out)

    report = {
        "command": args.command,
        "algorithm": alg,
        "instance": {"rows": args.rows, "cols": args.cols, "model": model,
                     "seed": args.seed},
        "config": {"memory_bytes": args.mem, "block_bytes": args.block},
        "counters": dataclasses.asdict(disk.counters_snapshot()),
        "output_file": out.name,
        "wall_time_s": round(wall_time_s, 6),
    }
    if variant is not None:
        report["variant"] = variant
    # the cache-oblivious MST takes no cluster level
    if h is not None and variant != "oblivious":
        report["h"] = h
    if verdict is not None:
        report["verdict"] = verdict
    if args.out:
        _export(disk, out, args.out)
        report["exported_to"] = args.out
    if args.workspace:
        _dump_workspace(disk, args.workspace)
    _print_report(report, args.report)
    return 3 if verdict == "mismatch" else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
