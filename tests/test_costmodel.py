from fractions import Fraction

import pytest

from gridscan import costmodel as cm
from gridscan.simdisk import SimConfig

N = 2 ** 40
M = 2 ** 31
B = 2 ** 17


@pytest.mark.parametrize("alg,h,total,ratio", [
    ("sssp", 12, 904, Fraction(904, 72)),
    ("bfs", 12, 828, Fraction(828, 9)),
    ("mst_cache_aware", 12, 992, Fraction(992, 64)),
    ("mst_cache_oblivious", 12, 160, Fraction(160, 64)),
    ("toposort", 14, 84, Fraction(84, 9)),
    ("tfp", 13, 592, Fraction(592, 9)),
    ("euler", 15, 40, Fraction(40, 3)),
])
def test_reference_ratios_exact(alg, h, total, ratio):
    rep = cm.volume_model(alg, N, M, B, h)
    assert rep.total == total
    assert rep.ratio == ratio
    assert not rep.estimate


def test_mst_cache_aware_small_input_regime():
    # once the contracted union fits in memory the middle phase vanishes
    rep = cm.volume_model("mst_cache_aware", 2 ** 32, M, B, 12)
    assert rep.total == 96
    assert rep.ratio == Fraction(96, 64) == Fraction(3, 2)


def test_pq_baseline_estimate():
    rep = cm.volume_model("tfp_pq_baseline", N, M, B, 0)
    assert rep.total == 641
    assert rep.ratio == Fraction(641, 9)
    assert rep.estimate


def test_total_is_sum_of_phases():
    for alg in cm.ALGORITHMS:
        rep = cm.volume_model(alg, N, M, B, cm.default_h(alg, M))
        assert rep.total == sum(v for _, v in rep.phases)
        assert isinstance(rep.ratio, Fraction)


def test_default_h_at_reference_parameters():
    assert cm.default_h("sssp", M) == 12
    assert cm.default_h("bfs", M) == 12
    assert cm.default_h("mst_cache_aware", M) == 12
    assert cm.default_h("toposort", M) == 14
    assert cm.default_h("tfp", M) == 13
    assert cm.default_h("euler", M) == 15


def test_default_h_desk_scale_bracketed():
    mem = 2 ** 16
    for alg, per_vertex in cm.WORKING_SET.items():
        h = cm.default_h(alg, mem)
        assert per_vertex * 4 ** h <= mem < per_vertex * 4 ** (h + 1)


def test_inadmissible_h_rejected():
    with pytest.raises(cm.CostModelError):
        cm.volume_model("sssp", N, M, B, 13)
    with pytest.raises(cm.CostModelError):
        cm.volume_model("euler", N, M, B, 16)
    for alg in cm.ALGORITHMS:
        with pytest.raises(cm.CostModelError):
            cm.volume_model(alg, N, M, B, -1)


def test_unknown_algorithm_rejected():
    with pytest.raises(cm.CostModelError):
        cm.volume_model("quicksort", N, M, B, 1)


def test_desk_scale_prediction():
    sim = SimConfig(memory_bytes=2 ** 16, block_bytes=2 ** 8)
    rep = cm.predict("sssp", 2 ** 12, sim)
    assert rep.h == 4
    assert rep.predicted_bytes == rep.total * 2 ** 12
    # random-access terms shrink with the block size
    big = cm.volume_model("sssp", 2 ** 12, 2 ** 16, 2 ** 9, 4)
    assert big.total > rep.total


def test_report_serializable():
    rep = cm.volume_model("toposort", N, M, B, 14)
    d = rep.as_dict()
    assert d["ratio"] == "28/3"
    assert d["algorithm"] == "toposort"
    assert len(d["phases"]) == len(rep.phases)
    text = cm.format_table(rep)
    assert "relative I/O volume" in text
    assert "toposort" in text
