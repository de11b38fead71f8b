"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

Each workload is run three times at seed 1 (untraced, traced, untraced);
the simulated counters, solver counts and output bytes must agree across
all three, every output must match the oracle, and every span the benchmark
documents for a workload must fire there.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

# spans that must fire on each workload (see README.md, "Per-layer metrics")
FIRES = {
    "scan": ("simdisk.direct", "simdisk.stream", "gridfmt.decode_record",
             "clusters.iterate_clusters", "clusters.build_separator_graph",
             "sssp.sssp_simple", "mst.mst_cache_aware",
             "mst.prune_and_contract", "toposort.topo_number_separator",
             "toposort.assign_chunk_numbers", "tfp.plan_messages",
             "tfp.tfp_run", "euler.euler_tour"),
    "queue": ("simdisk.direct", "simdisk.stream", "simdisk.stack",
              "gridfmt.decode_record", "clusters.iterate_clusters",
              "clusters.build_separator_graph", "clusters.decode_edges",
              "clusters.read_record", "sssp.sssp_simple",
              "sssp.sssp_hierarchical", "bfs.bfs_distances",
              "bfs.build_chunks_bfs", "bfs.sort_addresses",
              "bfs.emit_bfs_order"),
    "stack": ("simdisk.stack", "simdisk.stream", "gridfmt.decode_record",
              "mst.mst_cache_oblivious", "mst.prune_and_contract"),
}
NEVER = {"stack": ("clusters.iterate_clusters", "clusters.build_separator_graph")}


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def rounds(request):
    workload = wl.WORKLOADS[request.param]
    first = run.run_round(wl, workload, 1)
    return workload, [
        first,
        run.run_round(wl, workload, 1, tracer=spans.Tracer(), first=first),
        run.run_round(wl, workload, 1, first=first),
    ]


def test_counters_repeat_exactly_traced_or_not(rounds):
    workload, (a, b, c) = rounds
    assert b.same_setup and c.same_setup
    for i, call in enumerate(workload.calls):
        assert not a.results[i].error, call.variant
        assert a.results[i].counters[4] > 0, call.variant
        assert a.results[i].same_as(b.results[i]), call.variant
        assert a.results[i].same_as(c.results[i]), call.variant


def test_outputs_match_oracle(rounds):
    workload, (a, _, _) = rounds
    oks, extra, _ = run.verify(wl, workload, a)
    assert all(oks)
    if workload.name == "queue":
        assert extra["sssp.reached_share"] >= 0.5
        assert extra["bfs.reached_share"] >= 0.5


def test_documented_spans_fire(rounds):
    workload, (_, b, _) = rounds
    for name in FIRES[workload.name]:
        assert b.tracer.calls(name) > 0, name
    for name in NEVER.get(workload.name, ()):
        assert b.tracer.calls(name) == 0, name
    assert b.tracer.calls("simdisk.lru") == 0


def test_memory_pass_repeats_the_rounds_and_reaps_its_children(rounds):
    workload, (a, _, _) = rounds
    if workload.name != "stack":
        pytest.skip("one workload suffices; stack has a single call")
    probes = run.memory_pass(workload, a.setup)
    for i, call in enumerate(workload.calls):
        assert a.results[i].same_as(probes[i]), call.variant
        assert probes[i].peak_rss_mb > 0, call.variant
    # no child process of this one is left, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_timed_samples_the_host_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.Timed() as timed:
        while time.perf_counter() - t0 < 0.2:
            pass
    # probes before and after the body and about one per interval inside it
    assert len(timed.samples) >= 4
    assert 0 < timed.wall_s < time.perf_counter() - t0
    assert timed.seconds == timed.wall_s * speed.NOMINAL_S / timed.probe_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_scan_uses_the_cli_choice_of_h():
    from argparse import Namespace
    from gridscan import cli
    args = Namespace(h="auto", mem=wl.MACHINE.memory_bytes,
                     rows=wl.SCAN_SIDE, cols=wl.SCAN_SIDE)
    cli_alg = {"sssp_dag": "sssp", "mst_aware": "mst", "toposort": "toposort",
               "tfp": "tfp", "euler": "euler"}
    for call in wl.WORKLOADS["scan"].calls:
        assert call.h == cli._resolve_h(args, cli_alg[call.variant]), call.variant


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    units = run.per_layer_units(wl.VARIANTS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
