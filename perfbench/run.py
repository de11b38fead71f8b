"""gridscan benchmark: simulated bytes and host seconds per workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run builds gridscan from ``src/`` of the checkout it lives in, then repeats
rounds until ``--seconds`` would be exceeded (at least two rounds).  A round
sets the workload up from ``--seed`` (timed as ``setup_s``) and makes every
algorithm call of the workload on a fresh simulated disk (each timed alone;
``algo_s`` sums the calls' median times).  Both are given in probe
seconds (``speed.py``): while a section runs, a timer samples the shared
host's speed, and the section's time is scaled by it.  With ``--trace 1``
every second round runs with the layer spans of ``spans.py`` installed, and a final pass
runs each call once more in a fresh child process (``probe.py``), which
this one waits for, to record its peak RSS.

Outputs of the first round are checked against the in-memory oracles after
the rounds; every later call must reproduce the first round's output bytes,
transfer counters and solver counts exactly.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Exit status 2 means the package could not be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 60


@dataclass
class CallResult:
    wall_s: float = 0.0
    seconds: float = 0.0            # wall_s in probe seconds
    probe_s: float = 0.0            # mean probe time during the call
    n: int = 0
    # blocks read, blocks written, sequential blocks, random blocks, bytes
    counters: tuple = (0, 0, 0, 0, 0)
    counts: dict = field(default_factory=dict)
    digest: str = ""
    output: bytes | None = None     # kept for the first round's check
    peak_rss_mb: float = 0.0        # set by the memory pass only
    error: bool = False

    def same_as(self, other: "CallResult") -> bool:
        return (not self.error and not other.error
                and (self.counters, self.counts, self.digest)
                == (other.counters, other.counts, other.digest))


@dataclass
class Round:
    setup_s: float                  # in probe seconds
    setup_wall_s: float
    generate_s: float
    results: list
    tracer: object = None           # spans.Tracer of a traced round
    setup: object = None            # kept by the first round only
    same_setup: bool = True         # set-up identical to the first round's


def run_call(wl, call, setup, tracer=None, keep_output=False):
    """One algorithm call on a fresh disk; never raises for algorithm errors."""
    g = wl.load(setup.instances[call.instance])
    disk = g.disk
    res = CallResult(n=g.n)
    # garbage of earlier work is not collected inside the timed call
    gc.collect()
    try:
        if tracer is not None:
            with tracer.installed(), tracer.span("call." + call.variant):
                with speed.Timed() as timed:
                    out, stats = call.run(g, setup, call.h)
        else:
            with speed.Timed() as timed:
                out, stats = call.run(g, setup, call.h)
        res.wall_s, res.seconds, res.probe_s = (
            timed.wall_s, timed.seconds, timed.probe_s)
    except Exception:
        # a failed call is counted, and the run goes on to report it
        traceback.print_exc(file=sys.stderr)
        res.error = True
        return res
    c = disk.counters_snapshot()
    res.counters = (c.blocks_read, c.blocks_written, c.sequential_blocks,
                    c.random_blocks, c.bytes_transferred)
    res.counts = wl.solver_counts(stats)
    raw = disk.raw_bytes(out)
    res.digest = hashlib.sha256(raw).hexdigest()
    if keep_output:
        res.output = raw
    return res


def run_round(wl, workload, seed, tracer=None, first=None) -> Round:
    """One set-up and every call.  Only the first round (``first`` is None)
    keeps its set-up and outputs; a later round only records whether its
    set-up equals the first's, so memory does not grow with the rounds."""
    gc.collect()
    with speed.Timed() as timed:
        setup = workload.setup(seed)
    results = [run_call(wl, call, setup, tracer, keep_output=first is None)
               for call in workload.calls]
    rnd = Round(timed.seconds, timed.wall_s, setup.generate_s, results,
                tracer)
    if first is None:
        rnd.setup = setup
    else:
        rnd.same_setup = setup == first.setup
    return rnd


def vm_hwm_mb() -> float:
    """Peak RSS of this process image.  Unlike ``ru_maxrss``, VmHWM does not
    carry over the parent's resident set from before ``exec``."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def memory_pass(workload, setup) -> list:
    """Each call once more, each in a fresh ``probe.py`` process that this
    one waits for, so that the child's peak RSS belongs to that call alone.
    A child that fails or outlives ``PROBE_TIMEOUT_S`` is killed, reaped and
    counted as a failed call."""
    out = []
    for i in range(len(workload.calls)):
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py")],
                input=pickle.dumps((workload.name, i, setup)),
                stdout=subprocess.PIPE, timeout=PROBE_TIMEOUT_S, check=True)
            r = json.loads(proc.stdout.decode().splitlines()[-1])
        except (subprocess.SubprocessError, ValueError, IndexError):
            traceback.print_exc(file=sys.stderr)
            out.append(CallResult(error=True))
            continue
        out.append(CallResult(counters=tuple(r["counters"]),
                              counts=r["counts"], digest=r["digest"],
                              peak_rss_mb=r["peak_rss_mb"],
                              error=r["error"]))
    return out


def verify(wl, workload, rnd: Round):
    """Check the round's outputs through the public readers; returns
    (ok per call, extra metrics, seconds spent)."""
    t0 = time.perf_counter()
    oks, extra = [], {}
    for call, res in zip(workload.calls, rnd.results):
        if res.error:
            oks.append(False)
            continue
        g = wl.load(rnd.setup.instances[call.instance])
        handle = g.disk.open_file("output")
        g.disk.load_raw(handle, res.output)
        try:
            ok, more = call.check(g, handle, rnd.setup)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, more = False, {}
        if not ok:
            print("output of %s does not match the oracle" % call.variant,
                  file=sys.stderr)
        oks.append(ok)
        extra.update(more)
    return oks, extra, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Metrics

END_TO_END = (
    ("algo_s", "s"),
    ("setup_s", "s"),
    ("bytes_per_vertex", "B/vertex"),
    ("random_blocks_per_kvertex", "blocks/kvertex"),
    ("peak_rss_mb", "MB"),
)

SELF_S = ("simdisk.direct", "simdisk.stream", "simdisk.stack",
          "gridfmt.decode_record", "clusters.iterate_clusters",
          "clusters.build_separator_graph", "clusters.decode_edges",
          "bfs.bfs_distances", "mst.prune_and_contract",
          "mst.mst_cache_oblivious", "mst.mst_cache_aware",
          "toposort.assign_chunk_numbers", "tfp.plan_messages", "tfp.tfp_run",
          "euler.euler_tour")
CALLS = ("simdisk.direct", "simdisk.stream", "simdisk.stack", "simdisk.lru",
         "gridfmt.decode_record", "clusters.iterate_clusters",
         "clusters.decode_edges", "clusters.read_record",
         "mst.prune_and_contract")
TOTAL_S = ("bfs.build_chunks_bfs", "bfs.sort_addresses", "bfs.emit_bfs_order",
           "toposort.topo_number_separator")
# solver statistics, summed over the workload's calls
SOLVER = ("sssp.extractions", "sssp.reactivations", "bfs.chunk_count",
          "toposort.chunk_count", "tfp.slot_reads", "tfp.slot_writes",
          "euler.segments")
VARIANT_METRICS = (("s", "s"), ("bytes_per_vertex", "B/vertex"),
                   ("random_blocks_per_kvertex", "blocks/kvertex"),
                   ("model_ratio", "ratio"), ("peak_rss_mb", "MB"))


def per_layer_units(variants) -> dict:
    units = {}
    for name in CALLS:
        units[name + ".calls"] = "count"
    for name in SELF_S:
        units[name + ".self_s"] = "s"
    for name in TOTAL_S:
        units[name + ".s"] = "s"
    for kind in ("blocks_read", "blocks_written", "seq_blocks"):
        units["simdisk.%s_per_kvertex" % kind] = "blocks/kvertex"
    units["gridfmt.generate.s"] = "s"
    units["clusters.separator_vertices_per_kvertex"] = "1/kvertex"
    units["sssp.self_s"] = "s"
    units["sssp.wasted_share"] = "share"
    units["sssp.reached_share"] = "share"
    units["bfs.reached_share"] = "share"
    for name in SOLVER:
        units[name] = "count"
    units["oracle.s"] = "s"
    units["wall.algo_s"] = "s"
    units["wall.setup_s"] = "s"
    units["speed.probe_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_share"] = "share"
    units["failed_share"] = "share"
    for v in variants:
        for suffix, unit in VARIANT_METRICS:
            units["%s.%s" % (v, suffix)] = unit
    return units


def _median_of(rounds, fn):
    return statistics.median(fn(r) for r in rounds) if rounds else 0.0


def end_to_end(workload, rounds, peak_rss_mb) -> dict:
    untraced = [r for r in rounds if r.tracer is None]
    first = rounds[0].results
    n = sum(res.n for res in first)
    algo_s = sum(_median_of(untraced, lambda r, i=i: r.results[i].seconds)
                 for i in range(len(workload.calls)))
    return {
        "algo_s": algo_s,
        "setup_s": _median_of(rounds, lambda r: r.setup_s),
        "bytes_per_vertex": sum(res.counters[4] for res in first) / n,
        "random_blocks_per_kvertex":
            1000 * sum(res.counters[3] for res in first) / n,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(wl, workload, rounds, probes, extra, oracle_s, failed_share):
    traced = [r for r in rounds if r.tracer is not None]
    untraced = [r for r in rounds if r.tracer is None]
    first = rounds[0].results
    n = sum(res.n for res in first)
    m = dict.fromkeys(per_layer_units(wl.VARIANTS), 0.0)

    def tmed(fn):
        return _median_of(traced, lambda r: fn(r.tracer))

    for name in CALLS:
        m[name + ".calls"] = tmed(lambda t: t.calls(name))
    for name in SELF_S:
        m[name + ".self_s"] = tmed(lambda t: t.self_s(name))
    for name in TOTAL_S:
        m[name + ".s"] = tmed(lambda t: t.total_s(name))
    m["sssp.self_s"] = tmed(lambda t: t.self_s("sssp.sssp_simple")
                            + t.self_s("sssp.sssp_hierarchical"))
    m["clusters.separator_vertices_per_kvertex"] = tmed(
        lambda t: 1000 * t.separator_vertices / n)
    for i, kind in enumerate(("blocks_read", "blocks_written", "seq_blocks")):
        m["simdisk.%s_per_kvertex" % kind] = (
            1000 * sum(res.counters[i] for res in first) / n)
    m["gridfmt.generate.s"] = _median_of(rounds, lambda r: r.generate_s)

    counts = {}
    for res in first:
        for key, value in res.counts.items():
            counts[key] = counts.get(key, 0) + value
    for name in SOLVER:
        m[name] = counts.get(name, 0)
    if counts.get("sssp.level0_calls"):
        m["sssp.wasted_share"] = (counts["sssp.wasted_calls"]
                                  / counts["sssp.level0_calls"])
    m.update(extra)
    m["oracle.s"] = oracle_s
    m["wall.algo_s"] = sum(
        _median_of(untraced, lambda r, i=i: r.results[i].wall_s)
        for i in range(len(workload.calls)))
    m["wall.setup_s"] = _median_of(rounds, lambda r: r.setup_wall_s)
    m["speed.probe_s"] = statistics.median(
        res.probe_s for r in untraced for res in r.results)
    m["failed_share"] = failed_share

    def round_algo_s(r):
        return sum(res.seconds for res in r.results)
    base = _median_of(untraced, round_algo_s)
    m["trace.overhead_s"] = _median_of(traced, round_algo_s) - base
    m["trace.overhead_share"] = m["trace.overhead_s"] / base if base else 0.0

    for i, call in enumerate(workload.calls):
        res, v = first[i], call.variant
        m[v + ".s"] = _median_of(untraced, lambda r: r.results[i].seconds)
        m[v + ".bytes_per_vertex"] = res.counters[4] / res.n
        m[v + ".random_blocks_per_kvertex"] = 1000 * res.counters[3] / res.n
        m[v + ".model_ratio"] = res.counters[4] / wl.model_bytes(call, res.n)
        m[v + ".peak_rss_mb"] = probes[i].peak_rss_mb
    return m


def write_spans(workload, seed, tracer):
    """Dump the last traced round's spans and aggregates for offline use."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, "spans-%s-seed%d.json" % (workload.name, seed))
    with open(path, "w") as f:
        json.dump({"spans": tracer.spans,
                   "aggregates": {k: {"calls": v[0], "total_s": v[1],
                                      "self_s": v[2]}
                                  for k, v in sorted(tracer.agg.items())}}, f)
    return path


# ---------------------------------------------------------------------------
# Entry point


def measure(args, wl, spans) -> dict:
    workload = wl.WORKLOADS[args.workload]
    rounds = []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if args.trace and len(rounds) % 2 else None
        t0 = time.perf_counter()
        rounds.append(run_round(wl, workload, args.seed, tracer,
                                rounds[0] if rounds else None))
        last = time.perf_counter() - t0
        rnd = rounds[-1]
        print("round %d%s: setup %.3f s, calls %s s (wall %s s)" % (
            len(rounds), " (traced)" if tracer else "", rnd.setup_s,
            " ".join("%.3f" % res.seconds for res in rnd.results),
            " ".join("%.3f" % res.wall_s for res in rnd.results)),
            file=sys.stderr)
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start + last > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probes = memory_pass(workload, rounds[0].setup) if args.trace else []

    oks, extra, oracle_s = verify(wl, workload, rounds[0])
    first = rounds[0]
    deterministic = all(r.same_setup for r in rounds)
    if not deterministic:
        print("set-up is not deterministic", file=sys.stderr)
    calls = [(i, res) for r in rounds for i, res in enumerate(r.results)]
    calls += enumerate(probes)
    attempted = len(calls)
    failed = sum(not (deterministic and oks[i]
                      and res.same_as(first.results[i])) for i, res in calls)

    if args.trace:
        metrics = per_layer(wl, workload, rounds, probes, extra, oracle_s,
                            failed / attempted)
        units = per_layer_units(wl.VARIANTS)
        path = write_spans(workload, args.seed,
                           [r for r in rounds if r.tracer][-1].tracer)
        print("spans written to %s" % os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(workload, rounds, peak_rss_mb)
        units = dict(END_TO_END)
    print("workload %s, seed %d: %d rounds, %d calls, %d failed "
          "(failed_share %g)" % (workload.name, args.seed, len(rounds),
                                 attempted, failed, failed / attempted))
    for name in sorted(metrics):
        print("  %-44s %16.6f %s" % (name, metrics[name], units[name]))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload in its own process, one after the other."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("scan", "queue", "stack"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit("workload %s exited with %d"
                             % (name, proc.returncode))
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        out["correct"] = out["correct"] and res["correct"]
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            out["metrics"]["%s.%s" % (name, k)] = v
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scan", "queue", "stack", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and
    # reaped by ``subprocess.run`` before this process ends
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        p.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "gridscan", "__init__.py")):
        print("error: no gridscan package under %s" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, SRC)
        import spans
        import workloads as wl
        try:
            result = measure(args, wl, spans)
        except wl.SetupError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
