import json
import time

import pytest

from gridscan import cli, costmodel as cm, gridfmt as gf


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
