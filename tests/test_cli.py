import json
import re
import time

import pytest

from gridscan import cli, costmodel as cm, gridfmt as gf, mst


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


@pytest.mark.parametrize("alg,extra", [
    ("sssp", []),
    ("sssp", ["--variant", "hierarchical"]),
    ("bfs", []),
    ("mst", []),
    ("mst", ["--variant", "oblivious"]),
    ("toposort", []),
    ("tfp", ["--oracle", "longest_path"]),
    ("euler", []),
])
def test_algorithms_run(capsys, alg, extra):
    code, rep = run_json(capsys, [
        alg, "--rows", "16", "--cols", "16", "--seed", "1"] + extra)
    assert code == 0
    assert rep["counters"]["bytes_transferred"] > 0


@pytest.mark.parametrize("alg,extra,verdict", [
    ("sssp", ["--variant", "hierarchical"], "exact"),
    ("bfs", [], "valid"),
    ("mst", [], "exact"),
    ("mst", ["--variant", "oblivious"], "exact"),
    ("toposort", [], "valid"),
    ("tfp", [], "exact"),
    ("euler", [], "exact"),
])
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
    ("euler", "weighted_dag"), ("mst", "tree"),
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
