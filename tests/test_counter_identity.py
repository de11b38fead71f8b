"""Counter-identity guard for the phase-2 solvers.

Pins, for ``sssp_simple``, ``sssp_hierarchical`` and ``bfs_order``, the
whole-disk transfer counters of the algorithm run and the sha256 of its
output file.  The values were recorded from the code before the three
solvers shared one phase-2 step, so a refactor of that step that moves a
single block transfer, or one output byte, fails here.

Instances: 32x32 and 13x7 grids, seeds 1 and 2, h = 1..3, block 64.  SSSP
runs on a weighted digraph with both arc directions of a generated
``weighted_undirected`` instance, so that its source reaches every cell;
BFS runs on ``unit_directed`` at density 0.6.  The source is
(rows // 2, cols // 3).
"""

import hashlib

import pytest

from gridscan import gridfmt as gf, sssp, bfs

from conftest import make_disk, make_graph

# (solver, rows, cols, seed, h): ((blocks_read, blocks_written,
#     sequential_blocks, random_blocks, bytes_transferred), output sha256)
RECORDED = {
    ("sssp_simple", 32, 32, 1, 1): ((8828, 3335, 4072, 8091, 778432),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_simple", 32, 32, 1, 2): ((10498, 4251, 9362, 5387, 943936),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_simple", 32, 32, 1, 3): ((11140, 4553, 12815, 2878, 1004352),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_simple", 32, 32, 2, 1): ((8798, 3297, 4047, 8048, 774080),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_simple", 32, 32, 2, 2): ((10488, 4239, 9345, 5382, 942528),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_simple", 32, 32, 2, 3): ((11200, 4597, 12889, 2908, 1011008),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_simple", 13, 7, 1, 1): ((831, 308, 439, 700, 72896),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_simple", 13, 7, 1, 2): ((1003, 395, 931, 467, 89472),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_simple", 13, 7, 1, 3): ((969, 386, 1105, 250, 86720),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_simple", 13, 7, 2, 1): ((808, 299, 433, 674, 70848),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_simple", 13, 7, 2, 2): ((971, 393, 899, 465, 87296),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_simple", 13, 7, 2, 3): ((973, 395, 1112, 256, 87552),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_hierarchical", 32, 32, 1, 1): ((8843, 3339, 4097, 8085, 779648),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_hierarchical", 32, 32, 1, 2): ((10498, 4251, 9362, 5387, 943936),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_hierarchical", 32, 32, 1, 3): ((11140, 4553, 12815, 2878, 1004352),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_hierarchical", 32, 32, 2, 1): ((8816, 3300, 4086, 8030, 775424),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_hierarchical", 32, 32, 2, 2): ((10488, 4239, 9345, 5382, 942528),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_hierarchical", 32, 32, 2, 3): ((11200, 4597, 12889, 2908, 1011008),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_hierarchical", 13, 7, 1, 1): ((831, 308, 439, 700, 72896),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_hierarchical", 13, 7, 1, 2): ((1003, 395, 931, 467, 89472),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_hierarchical", 13, 7, 1, 3): ((969, 386, 1105, 250, 86720),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_hierarchical", 13, 7, 2, 1): ((808, 299, 433, 674, 70848),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_hierarchical", 13, 7, 2, 2): ((971, 393, 899, 465, 87296),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_hierarchical", 13, 7, 2, 3): ((973, 395, 1112, 256, 87552),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("bfs_order", 32, 32, 1, 1): ((6710, 3051, 2716, 7045, 624704),
        "c0b9c5caf15108f8a7866ab847215640e93d20d3cb69d8af33104eff15badb1c"),
    ("bfs_order", 32, 32, 1, 2): ((6812, 3494, 5527, 4779, 659584),
        "e2101224b1e738797ae1e71724d39bd0ddbf8c635d118d9a6efc340764c4f4a4"),
    ("bfs_order", 32, 32, 1, 3): ((6677, 3532, 7603, 2606, 653376),
        "4a0c263d5d4b6f27cb9957286b68021dc4c7d3dc7ab35991b930d417eeff98cd"),
    ("bfs_order", 32, 32, 2, 1): ((6497, 2990, 2655, 6832, 607168),
        "f6395fc97c0de01357c048ada6b3a94dcc8a07481a4afd0fd4d973e49ed294fd"),
    ("bfs_order", 32, 32, 2, 2): ((6653, 3444, 5438, 4659, 646208),
        "7e317b802e1345c6530ee0beb9bca17d5cb204188b1dd62d7c058a2f4067069b"),
    ("bfs_order", 32, 32, 2, 3): ((6377, 3434, 7310, 2501, 627904),
        "056059c939f98fed5fe9626d2172e979b887d4f9ef1f11b27801d9315cb9062e"),
    ("bfs_order", 13, 7, 1, 1): ((427, 221, 222, 426, 41472),
        "eaae01e38ceac1441f3630d43f9fe90a602367c10a863d3ffe665cdf3e8d9688"),
    ("bfs_order", 13, 7, 1, 2): ((463, 262, 440, 285, 46400),
        "a7c391c545492ce0c4c754ee95fdaa1bfb0d7a580b202a6cee5453b91a3e4bc5"),
    ("bfs_order", 13, 7, 1, 3): ((362, 246, 458, 150, 38912),
        "3fe4594c93012055436cb3d408addfbe826516a7af9e3444d51ebec6e75fd241"),
    ("bfs_order", 13, 7, 2, 1): ((516, 243, 246, 513, 48576),
        "382c9d415fda759fbac756db3c97d459302da55b1c06e6f9820a96b79a0145a8"),
    ("bfs_order", 13, 7, 2, 2): ((534, 282, 471, 345, 52224),
        "50cc87e64b3388b416bbdd397d2befd46e0852bafcc75c477ef744a5c6116583"),
    ("bfs_order", 13, 7, 2, 3): ((426, 257, 502, 181, 43712),
        "4aa6d2298d70246207b1dd543778da352ab78a0c54c51727f390fe761724af0c"),
}


def weighted_digraph(disk, rows, cols, seed):
    u = gf.generate(make_disk(), rows, cols, "weighted_undirected",
                    seed=seed, density=0.6)
    edges = {v: {d: w for d, _, _, w in arcs}
             for v, arcs in gf.adjacency(u).items()}
    return make_graph(disk, rows, cols, "weighted_directed", edges)


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_counters_and_output_unchanged(case):
    solver, rows, cols, seed, h = case
    d = make_disk()
    s = (rows // 2, cols // 3)
    if solver == "bfs_order":
        g = gf.generate(d, rows, cols, "unit_directed", seed=seed,
                        density=0.6)
        d.reset_counters()
        out, _, _ = bfs.bfs_order(g, s, h)
    else:
        g = weighted_digraph(d, rows, cols, seed)
        d.reset_counters()
        if solver == "sssp_simple":
            out = sssp.sssp_simple(g, s, h)
        else:
            out = sssp.sssp_hierarchical(g, s,
                                         sssp.build_hierarchy(h, rows, cols))
    c = d.counters_snapshot()
    counters = (c.blocks_read, c.blocks_written, c.sequential_blocks,
                c.random_blocks, c.bytes_transferred)
    assert (counters, hashlib.sha256(d.raw_bytes(out)).hexdigest()) \
        == RECORDED[case]
