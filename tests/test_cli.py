import argparse
import json
import os
import re
import subprocess
import sys
import time

import pytest

from gridscan import cli, costmodel as cm, gridfmt as gf
from gridscan import bfs, euler, mst, sssp, tfp, toposort as ts


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_size():
    assert cli.parse_size("2^17") == 131072
    assert cli.parse_size("64K") == 65536
    assert cli.parse_size("2G") == 2 ** 31
    assert cli.parse_size("1000") == 1000
    with pytest.raises(cli.UsageError):
        cli.parse_size("lots")
    with pytest.raises(cli.UsageError):
        cli.parse_size("2^-1")


def test_costmodel_reference_ratio(capsys):
    code, rep = run_json(capsys, [
        "costmodel", "--alg", "sssp", "--n", "2^40",
        "--mem", "2^31", "--block", "2^17", "--h", "12"])
    assert code == 0
    assert rep["ratio"] == "113/9"          # 904/72 reduced
    assert rep["total_over_n"] == "904"


def test_costmodel_table(capsys):
    code = cli.run(["costmodel", "--alg", "euler", "--n", "2^40",
                    "--mem", "2^31", "--block", "2^17", "--report", "table"])
    assert code == 0
    out = capsys.readouterr().out
    assert "relative I/O volume" in out


def test_costmodel_h_not_an_integer_is_a_usage_error(capsys):
    assert cli.run(["costmodel", "--alg", "sssp", "--n", "2^20",
                    "--mem", "2^16", "--block", "2^8", "--h", "foo"]) == 1
    assert "--h" in capsys.readouterr().err


@pytest.mark.parametrize("alg", cm.ALGORITHMS)
def test_costmodel_negative_h_is_a_usage_error(capsys, alg):
    assert cli.run(["costmodel", "--alg", alg, "--n", "2^20",
                    "--mem", "2^16", "--block", "2^8", "--h", "-3"]) == 1
    assert "--h" in capsys.readouterr().err


def test_gen_and_export(tmp_path, capsys):
    path = tmp_path / "instance.bin"
    code, rep = run_json(capsys, [
        "gen", "--rows", "8", "--cols", "8", "--seed", "3",
        "--model", "weighted_dag", "--out", str(path)])
    assert code == 0
    assert rep["instance"]["model"] == "weighted_dag"
    data = path.read_bytes()
    assert data[:4] == gf.MAGIC


def test_gen_deterministic(capsys, tmp_path):
    argv = ["gen", "--rows", "8", "--cols", "8", "--seed", "5",
            "--out", str(tmp_path / "a.bin")]
    cli.run(argv)
    first = (tmp_path / "a.bin").read_bytes()
    cli.run(["gen", "--rows", "8", "--cols", "8", "--seed", "5",
             "--out", str(tmp_path / "b.bin")])
    assert (tmp_path / "b.bin").read_bytes() == first


def test_single_vertex_sssp(tmp_path, capsys):
    path = tmp_path / "dist.bin"
    code, rep = run_json(capsys, [
        "sssp", "--rows", "1", "--cols", "1", "--out", str(path)])
    assert code == 0
    raw = path.read_bytes()
    off = 256                       # one block of header at block 2^8
    assert int.from_bytes(raw[off:off + 8], "little") == 0


def _variant_argv(variant):
    return [] if variant is None else ["--variant", variant]


# one case per row of the CLI's table, tfp with its non-default oracle
@pytest.mark.parametrize("alg,extra", [
    (c, _variant_argv(v) + {"tfp": ["--oracle", "longest_path"]}.get(c, []))
    for c, v in cli.ALGORITHMS])
def test_algorithms_run(capsys, alg, extra):
    code, rep = run_json(capsys, [
        alg, "--rows", "16", "--cols", "16", "--seed", "1"] + extra)
    assert code == 0
    assert rep["counters"]["bytes_transferred"] > 0


# one case per row of the CLI's table; a BFS or topological order is one of
# several correct answers. The sssp simple row goes last so every other case
# keeps the position, and so the test id, it had before that row was checked.
@pytest.mark.parametrize("alg,extra,verdict", [
    (c, _variant_argv(v), "valid" if c in ("bfs", "toposort") else "exact")
    for c, v in sorted(cli.ALGORITHMS, key=lambda r: r == ("sssp", "simple"))])
def test_verify(capsys, alg, extra, verdict):
    code, rep = run_json(capsys, [
        "verify", "--alg", alg, "--rows", "64", "--cols", "64",
        "--seed", "2"] + extra)
    assert code == 0
    assert rep["verdict"] == verdict


def _duplicate_an_edge(edges):
    # a second copy of one tree edge in place of another of equal weight
    first = {}
    for j, (_, _, w) in enumerate(edges):
        if w in first:
            edges[j] = edges[first[w]]
            return
        first[w] = j
    raise AssertionError("no two tree edges share a weight")


def _swap_two_weights(edges):
    (a, b, w), (c, d, x) = edges[0], edges[1]
    assert w != x
    edges[0], edges[1] = (a, b, x), (c, d, w)


@pytest.mark.parametrize("corrupt", [_duplicate_an_edge, _swap_two_weights])
def test_verify_mst_checks_the_tree_not_only_its_weight(capsys, monkeypatch,
                                                        corrupt):
    real_read_mst = mst.read_mst

    def read_mst(disk, handle):
        edges = real_read_mst(disk, handle)
        total = sum(w for _, _, w in edges)
        corrupt(edges)
        assert sum(w for _, _, w in edges) == total
        return edges

    monkeypatch.setattr(mst, "read_mst", read_mst)
    code, rep = run_json(capsys, [
        "verify", "--alg", "mst", "--rows", "64", "--cols", "64",
        "--seed", "2"])
    assert code == 3
    assert rep["verdict"] == "mismatch"


def _one_short(values):
    return values[:-1]


def _one_long(values):
    return values + [0]


def _an_id_outside_the_grid(ids):
    return ids + [10 ** 6]


def _an_end_outside_the_grid(edges):
    (_, b, w), *rest = edges
    return [(10 ** 6, b, w)] + rest


READERS = {"sssp": (sssp, "read_distances"), "tfp": (tfp, "read_labels"),
           "bfs": (bfs, "read_order"), "toposort": (ts, "read_order"),
           "mst": (mst, "read_mst")}


@pytest.mark.parametrize("alg,corrupt", [
    ("sssp", _one_short), ("tfp", _one_long),
    ("bfs", _an_id_outside_the_grid), ("toposort", _an_id_outside_the_grid),
    ("mst", _an_end_outside_the_grid)])
def test_verify_malformed_output_is_a_mismatch(capsys, monkeypatch, alg,
                                               corrupt):
    module, name = READERS[alg]
    real_read = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda disk, handle: corrupt(real_read(disk, handle)))
    code, rep = run_json(capsys, [
        "verify", "--alg", alg, "--rows", "8", "--cols", "8"])
    assert code == 3
    assert rep["verdict"] == "mismatch"


@pytest.mark.parametrize("root,verdict", [(None, "mismatch"),
                                          ("7,7", "exact")])
def test_verify_euler_checks_the_root_it_was_asked_for(capsys, monkeypatch,
                                                       root, verdict):
    # the run roots its tour at (7, 7) whatever it is asked for
    real_tour = euler.euler_tour
    monkeypatch.setattr(euler, "euler_tour", lambda g, h, root=None:
                        real_tour(g, h, root=(7, 7)))
    argv = ["verify", "--alg", "euler", "--rows", "8", "--cols", "8"]
    code, rep = run_json(capsys, argv + (["--root", root] if root else []))
    assert code == (3 if verdict == "mismatch" else 0)
    assert rep["verdict"] == verdict


def test_python_m_runs_the_command():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "gridscan.cli", *argv],
                              capture_output=True, text=True, env=env)

    done = run("verify", "--alg", "bfs", "--rows", "4", "--cols", "4")
    assert done.returncode == 0
    assert json.loads(done.stdout)["verdict"] == "valid"
    assert run("verify", "--alg", "bfs", "--rows", "x", "--cols", "4"
               ).returncode == 1


def _variant_option(command):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions
            if "--variant" in a.option_strings]


@pytest.mark.parametrize("command", sorted({c for c, _ in cli.ALGORITHMS}))
def test_variant_choices_are_the_table_rows(command):
    variants = [v for c, v in cli.ALGORITHMS if c == command]
    options = _variant_option(command)
    if variants == [None]:
        assert options == []
    else:
        (option,) = options
        assert list(option.choices) == variants
        assert option.default == variants[0]


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("command,variant", list(cli.ALGORITHMS))
def test_report_gives_h_exactly_for_rows_with_a_working_set(
        capsys, command, variant, verify):
    argv = [command, "--rows", "8", "--cols", "8"] + _variant_argv(variant)
    if verify:
        argv = ["verify", "--alg"] + argv
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert ("h" in rep) == (cli.ALGORITHMS[command, variant].cost
                            in cm.WORKING_SET)


@pytest.mark.parametrize("argv", [
    ["mst", "--variant", "oblivious"],
    ["verify", "--alg", "mst", "--variant", "oblivious"],
])
def test_oblivious_mst_leaves_h_unread(capsys, argv):
    # 9 is past this grid's largest level, but this variant takes no h
    code, rep = run_json(capsys, argv + ["--rows", "8", "--cols", "8",
                                         "--h", "9"])
    assert code == 0
    assert "h" not in rep
    assert rep.get("verdict", "exact") == "exact"


def test_usage_error_exit_code(capsys):
    assert cli.run(["sssp", "--rows", "4"]) == 1          # missing --cols
    assert cli.run(["frobnicate"]) == 1
    assert cli.run(["sssp", "--rows", "4", "--cols", "4",
                    "--h", "many"]) == 1


def test_instance_error_exit_code(capsys):
    # a weighted directed instance is not a tree
    code = cli.run(["euler", "--rows", "8", "--cols", "8",
                    "--model", "weighted_dag"])
    assert code == 2


WRONG_ENCODING = [
    ("sssp", "weighted_undirected"), ("sssp", "unit_directed"),
    ("bfs", "weighted_dag"), ("mst", "weighted_dag"), ("tfp", "weighted_dag"),
    ("euler", "weighted_dag"), ("euler", "weighted_undirected"),
    ("mst", "tree"),
    ("toposort", "weighted_undirected"),
]


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("alg,model", WRONG_ENCODING)
def test_model_of_the_wrong_encoding_exits_2(capsys, alg, model, verify):
    argv = [alg, "--rows", "8", "--cols", "8", "--model", model]
    if verify:
        argv = ["verify", "--alg"] + argv
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: input must use the \w+( or \w+)* encoding\n",
                        captured.err)


def test_tall_cache_rejected(capsys):
    code = cli.run(["gen", "--rows", "4", "--cols", "4",
                    "--mem", "2^10", "--block", "2^8"])
    assert code == 2


def test_workspace_dump(tmp_path, capsys):
    ws = tmp_path / "ws"
    code, rep = run_json(capsys, [
        "mst", "--rows", "8", "--cols", "8", "--workspace", str(ws)])
    assert code == 0
    names = {p.name for p in ws.iterdir()}
    assert "input" in names and "mst.out" in names


def test_counters_deterministic(capsys):
    argv = ["toposort", "--rows", "32", "--cols", "32", "--seed", "7"]
    _, rep1 = run_json(capsys, argv)
    _, rep2 = run_json(capsys, argv)
    assert rep1["counters"] == rep2["counters"]


def _no_generate(*args, **kwargs):
    raise AssertionError("instance generated before its arguments were checked")


@pytest.mark.parametrize("h", ["-1", "40", "4"])
def test_h_out_of_range_is_a_usage_error(capsys, monkeypatch, h):
    monkeypatch.setattr(gf, "generate", _no_generate)
    # on an 8x8 grid h = 3 is one cluster covering the grid, the largest h
    assert cli.run(["sssp", "--rows", "8", "--cols", "8", "--h", h]) == 1
    assert "--h" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [
    ("--block", "2^-1"), ("--mem", "2^-3"), ("--mem", "lots"),
    ("--density", "nan"), ("--density", "-0.1"), ("--density", "1.5")])
def test_bad_size_or_density_is_a_usage_error(capsys, monkeypatch, option,
                                              value):
    monkeypatch.setattr(gf, "generate", _no_generate)
    assert cli.run(["sssp", "--rows", "8", "--cols", "8",
                    option, value]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("alg,variant", [
    ("sssp", "bogus"), ("mst", "hierarchical"), ("bfs", "oblivious"),
    ("toposort", "simple")])
def test_verify_variant_the_algorithm_lacks_is_a_usage_error(
        capsys, monkeypatch, alg, variant):
    monkeypatch.setattr(gf, "generate", _no_generate)
    assert cli.run(["verify", "--alg", alg, "--rows", "8", "--cols", "8",
                    "--variant", variant]) == 1
    assert "no variant" in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("command", ["gen", "tfp"])
def test_instance_too_large_for_host_memory_exits_2(capsys, monkeypatch,
                                                    command):
    # stands in for a grid whose generation exhausts host memory
    monkeypatch.setattr(gf, "generate", _out_of_memory)
    assert cli.run([command, "--rows", "70000", "--cols", "70000"]) == 2
    err = capsys.readouterr().err
    assert err.strip() == "error: instance does not fit in host memory"


def test_bfs_at_h0_runs(capsys):
    code, rep = run_json(capsys, [
        "verify", "--alg", "bfs", "--rows", "16", "--cols", "16",
        "--seed", "1", "--h", "0"])
    assert code == 0
    assert rep["verdict"] == "valid"


def test_report_counters_keys(capsys):
    _, rep = run_json(capsys, ["bfs", "--rows", "8", "--cols", "8"])
    assert sorted(rep["counters"]) == [
        "blocks_read", "blocks_written", "bytes_transferred",
        "random_blocks", "sequential_blocks"]


def test_hierarchical_sssp_at_h0_runs(capsys):
    code, rep = run_json(capsys, [
        "verify", "--alg", "sssp", "--variant", "hierarchical",
        "--rows", "8", "--cols", "8", "--h", "0"])
    assert code == 0
    assert rep["verdict"] == "exact"


def test_h_at_the_range_ends_runs(capsys):
    for h in ("0", "3"):
        code, rep = run_json(capsys, [
            "verify", "--alg", "sssp", "--rows", "8", "--cols", "8",
            "--h", h])
        assert code == 0
        assert rep["verdict"] == "exact"
        assert rep["h"] == int(h)


@pytest.mark.parametrize("argv,variant,h", [
    (["sssp"], "simple", 2),
    (["sssp", "--variant", "hierarchical"], "hierarchical", 2),
    (["mst", "--variant", "oblivious"], "oblivious", None),
    (["verify", "--alg", "mst"], "aware", 2),
    (["verify", "--alg", "sssp", "--variant", "hierarchical"],
     "hierarchical", 2),
    (["bfs"], None, 2),
])
def test_report_names_the_variant(capsys, argv, variant, h):
    code, rep = run_json(capsys, argv + ["--rows", "8", "--cols", "8",
                                         "--h", "2"])
    assert code == 0
    assert rep.get("variant") == variant
    # the cache-oblivious MST takes no h, so the report gives none
    assert rep.get("h") == h


def test_report_gives_h_and_times_only_the_algorithm(capsys, monkeypatch):
    real_generate = gf.generate

    def slow_generate(*args, **kwargs):
        time.sleep(0.5)
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(gf, "generate", slow_generate)
    code, rep = run_json(capsys, ["toposort", "--rows", "8", "--cols", "8"])
    assert code == 0
    assert rep["h"] == 3             # --h auto, clipped to the 8x8 grid
    assert rep["wall_time_s"] < 0.5
