"""Counter-identity guard for the phase-2 solvers and the cluster emitters.

Pins the whole-disk transfer counters of an algorithm run and the sha256 of
its output file, so a refactor that moves a single block transfer, or one
output byte, fails here.

``RECORDED`` covers ``sssp_simple``, ``sssp_hierarchical`` and
``bfs_order``; its output hashes were recorded from the code before the
three solvers shared one phase-2 step.  Its counters were re-recorded, with
the hashes unchanged, when a phase-2 step came to read and write each
touched cluster's distance records once, from block-aligned ranges, and
when ``build_chunks_bfs`` came to count its scan of the distance file.  SSSP runs on a weighted digraph with both
arc directions of a generated ``weighted_undirected`` instance, so that its
source reaches every cell; BFS runs on ``unit_directed`` at density 0.6.
The source is (rows // 2, cols // 3).

``RECORDED_EMITTERS`` covers ``toposort``, ``tfp_run`` (path counts),
``euler_tour``, ``mst_cache_aware`` and ``mst_cache_oblivious`` (no h, so
once per grid and seed) on generated instances of their default models at
density 0.6; its values were recorded from the code before the cluster-local
topological order, interior search and Z-order emitters were shared.  The
``mst_cache_oblivious`` counters were re-recorded, with the hashes
unchanged, when its stack edges became 17-byte cell-id records and regions
of side 2 became its base case, and again when its expansions records
became grid walks (one step-code byte per edge, weights at the record's
byte width); the ``.conn`` hashes did not move then.  The ``toposort`` and ``tfp_run`` counters
were re-recorded, with the hashes and ``blocks_read`` unchanged, when the
separator numbering stopped writing its never-read ``.tprime`` and
``.rank`` files and ``plan_messages`` stopped zero-filling the label file.
The ``tfp_run`` counters were re-recorded once more, with the hashes,
``blocks_read`` and ``sequential_blocks`` unchanged, when ``tfp_run`` came to
write each run of adjacent message slots, and its label records, as one
sequential write.  The ``toposort`` and ``tfp_run`` counters were
re-recorded, with the hashes unchanged, when the separator numbering came
to keep the in-degree table it was built with in memory instead of writing
it to ``.gp.indeg`` and reading it back: each row lost exactly that file's
blocks, once read and once written, one of them random.  They were
re-recorded again, with the hashes unchanged, when Kahn's queue of the
numbering came to stay in memory as the rank order instead of going
through ``.gp.zqueue``: each row lost exactly that file's counters.  The
``tfp_run`` counters were re-recorded, with the hashes unchanged, when the
reachability build came to hand the message plan each separator vertex's
cross-cluster in-directions, so the plan no longer scans the input an extra
time to collect them: each row lost exactly one scan of ``input``.  The
``euler_tour`` counters were re-recorded, with the hashes unchanged, when
each cluster's tour entries came to be read from its own cross-cluster arcs
instead of a pre-pass over the input: each row lost exactly one scan of
``input``.  The ``bfs_order`` counters were re-recorded, with the hashes
unchanged, when phase 3 came to hand each cluster's hop distances straight
to the chunk cut instead of writing them to a ``.dist`` file that the cut
read back during a scan of its own: each row lost exactly that file's
counters and one scan of ``input``.  The ``toposort``, ``tfp_run``,
``euler_tour`` and ``bfs_order`` counters were re-recorded, with the hashes
unchanged, when their chunk and segment records came to hold only what
their readers lack: toposort's chunk records and Euler's segments lost
their headers, and TFP's and BFS's chunk headers shrank to 12 bytes.  Each
row reads and writes fewer blocks; in the three ``tfp_run`` rows at h = 1
more message runs of one chunk share a block, so ``random_blocks`` rises.
The ``tfp_run`` counters were re-recorded, with the hashes, ``blocks_read``
and ``sequential_blocks`` unchanged, when each chunk came to write its
messages as one gathered write that counts every block of the chunk file
it touches once: ``blocks_written`` and ``random_blocks`` fell by the same
amount, the repeated writes of a block shared by two runs of slots.

The ``bfs_order``, ``sssp_simple``, ``sssp_hierarchical``, ``toposort``,
``tfp_run`` and ``euler_tour`` counters were re-recorded, with the hashes
and ``blocks_written`` unchanged, when each file came to keep the block its
last ``read_direct`` ended in: a direct read that starts in that block no
longer counts it again, as nothing has written to it since.
``test_held_block_is_never_stale`` checks that last clause on every
``RECORDED`` and ``RECORDED_EMITTERS`` instance.

``test_input_read_as_priced`` checks, on the same instances, that each
algorithm reads its input as many times as its cost model prices a scan of
it, plus, for the phase-2 solvers, the one direct read of the source's
cluster.

The ``RECORDED`` counters were re-recorded once more, with the hashes
unchanged and no row reading or writing more blocks, when phase 2 came to
keep each step's blocks of the distance file in memory until the next step
ends: a step reads only the blocks it lacks, and a dirty block is written
back, in one whole-block write per run, only when it leaves or before
phase 3.

The ``bfs_order`` counters and the 32x32 ``mst_cache_oblivious`` counters
were re-recorded, with the hashes unchanged and no field rising, when
``FileStack`` came to go through the disk's LRU cache instead of a private
window of blocks: the stacks share the cache's M bytes, a fresh push is not
fetched, and a block a pop leaves dead is never written back.  The 13x7
``mst_cache_oblivious`` rows did not move.  The 32x32 ``mst_cache_oblivious``
counters were re-recorded once more, with the hashes, ``blocks_read``,
``blocks_written`` and bytes unchanged, when a ``FileStack`` pop came to
count a record's missed blocks as one bottom-up run after its top block, so
fewer of the same reads are classed random.

``RECORDED_D_TRACE`` pins, per ``RECORDED`` row, the sequence of direct
reads and writes of the distance file ``D``: operation, offset, length
and the sha256 of the bytes written.  Counter totals do not pin the
order of the calls, nor which blocks a step keeps.  Its values were
recorded from the code before the step buffer came to hold only block
bytes between steps.

``test_no_write_only_files`` runs the ``RECORDED`` and
``RECORDED_EMITTERS`` instances once more and asserts that every file with
counted writes, other than the output, also has counted reads.

``RECORDED_STATS`` pins the phase-2 schedule of ``sssp_simple`` and
``sssp_hierarchical`` on the ``RECORDED`` instances through their
``SolveStats``: the extraction count, the sha256 of ``repr`` of the
extraction list, ``level0_calls``, ``wasted_calls`` and ``reactivations``.
At 32x32 the hierarchy has nested levels (``build_hierarchy(1, 32, 32)`` is
``[1, 4, 8]``), so a change to the budgeted order fails here even when it
keeps the counters and the output.  Its values were recorded from the code
before the hierarchy keys became a numpy array.

``RECORDED_STACKS`` pins the sha256 of the final contents of the two stack
files of ``mst_cache_oblivious`` (``.conn``, connections, and ``.expn``,
expansions) on the ``RECORDED_EMITTERS`` instances, so a change to the
stack-record layout fails here even when the block counters stay the same.
Its values were re-recorded with that 17-byte edge and side-2 base case, and
its ``.expn`` hashes once more with the grid-walk expansions record.

The ``mst_cache_aware`` rows at h = 4, the level ``scan`` runs it at, were
recorded from the code before its contraction came to name vertices by
cluster-local ids and mark chosen edges by union record index.

Instances: 32x32 and 13x7 grids, seeds 1 and 2, h = 1..3, block 64, and
``mst_cache_aware`` at 32x32 also at h = 4.

Every case runs through its row of the CLI's algorithm table
(``cli.ALGORITHMS``, named in ``ROWS``), so these rows also pin the calls
the CLI makes and their arguments.
"""

import hashlib
from argparse import Namespace

import pytest

from gridscan import cli, gridfmt as gf, sssp, mst
from gridscan import clusters as cl
from gridscan.simdisk import FileHandle, SimDisk

from conftest import make_disk, make_graph

# (solver, rows, cols, seed, h): ((blocks_read, blocks_written,
#     sequential_blocks, random_blocks, bytes_transferred), output sha256)
RECORDED = {
    ("sssp_simple", 32, 32, 1, 1): ((5319, 2711, 3891, 4139, 513920),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_simple", 32, 32, 1, 2): ((6496, 2915, 6392, 3019, 602304),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_simple", 32, 32, 1, 3): ((6308, 2604, 7439, 1473, 570368),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_simple", 32, 32, 2, 1): ((5356, 2738, 3897, 4197, 518016),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_simple", 32, 32, 2, 2): ((6570, 2936, 6443, 3063, 608384),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_simple", 32, 32, 2, 3): ((6428, 2601, 7513, 1516, 577856),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_simple", 13, 7, 1, 1): ((439, 230, 359, 310, 42816),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_simple", 13, 7, 1, 2): ((527, 260, 568, 219, 50368),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_simple", 13, 7, 1, 3): ((492, 234, 649, 77, 46464),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_simple", 13, 7, 2, 1): ((433, 223, 357, 299, 41984),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_simple", 13, 7, 2, 2): ((520, 262, 571, 211, 50048),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_simple", 13, 7, 2, 3): ((508, 241, 659, 90, 47936),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_hierarchical", 32, 32, 1, 1): ((5183, 2638, 3878, 3943, 500544),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_hierarchical", 32, 32, 1, 2): ((6496, 2915, 6392, 3019, 602304),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_hierarchical", 32, 32, 1, 3): ((6308, 2604, 7439, 1473, 570368),
        "e6553ed8682cd7d2e5245f39f845714c0ca51f64bb67fecb24d33144e7694021"),
    ("sssp_hierarchical", 32, 32, 2, 1): ((5164, 2638, 3884, 3918, 499328),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_hierarchical", 32, 32, 2, 2): ((6570, 2936, 6443, 3063, 608384),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_hierarchical", 32, 32, 2, 3): ((6428, 2601, 7513, 1516, 577856),
        "90b6df5e83db78deaa840ed9a31823783235aad723de0a80b9aedf905f65730b"),
    ("sssp_hierarchical", 13, 7, 1, 1): ((439, 230, 359, 310, 42816),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_hierarchical", 13, 7, 1, 2): ((527, 260, 568, 219, 50368),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_hierarchical", 13, 7, 1, 3): ((492, 234, 649, 77, 46464),
        "4831eb6e9393e1b3d8b8ee87d95f2215a5ad2f1aeddb4db69a23e58abc380c8d"),
    ("sssp_hierarchical", 13, 7, 2, 1): ((433, 223, 357, 299, 41984),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_hierarchical", 13, 7, 2, 2): ((520, 262, 571, 211, 50048),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("sssp_hierarchical", 13, 7, 2, 3): ((508, 241, 659, 90, 47936),
        "c6db112a01b95b6bca7e62c0286c21200371b310c0c89aa6fd9fe190990a21c1"),
    ("bfs_order", 32, 32, 1, 1): ((2838, 2004, 2170, 2672, 309888),
        "c0b9c5caf15108f8a7866ab847215640e93d20d3cb69d8af33104eff15badb1c"),
    ("bfs_order", 32, 32, 1, 2): ((2592, 1906, 2668, 1830, 287872),
        "e2101224b1e738797ae1e71724d39bd0ddbf8c635d118d9a6efc340764c4f4a4"),
    ("bfs_order", 32, 32, 1, 3): ((2177, 1572, 2825, 924, 239936),
        "4a0c263d5d4b6f27cb9957286b68021dc4c7d3dc7ab35991b930d417eeff98cd"),
    ("bfs_order", 32, 32, 2, 1): ((2696, 1939, 2129, 2506, 296640),
        "f6395fc97c0de01357c048ada6b3a94dcc8a07481a4afd0fd4d973e49ed294fd"),
    ("bfs_order", 32, 32, 2, 2): ((2488, 1879, 2626, 1741, 279488),
        "7e317b802e1345c6530ee0beb9bca17d5cb204188b1dd62d7c058a2f4067069b"),
    ("bfs_order", 32, 32, 2, 3): ((2013, 1534, 2702, 845, 227008),
        "056059c939f98fed5fe9626d2172e979b887d4f9ef1f11b27801d9315cb9062e"),
    ("bfs_order", 13, 7, 1, 1): ((165, 142, 153, 154, 19648),
        "eaae01e38ceac1441f3630d43f9fe90a602367c10a863d3ffe665cdf3e8d9688"),
    ("bfs_order", 13, 7, 1, 2): ((158, 152, 214, 96, 19840),
        "a7c391c545492ce0c4c754ee95fdaa1bfb0d7a580b202a6cee5453b91a3e4bc5"),
    ("bfs_order", 13, 7, 1, 3): ((104, 132, 195, 41, 15104),
        "3fe4594c93012055436cb3d408addfbe826516a7af9e3444d51ebec6e75fd241"),
    ("bfs_order", 13, 7, 2, 1): ((181, 144, 176, 149, 20800),
        "382c9d415fda759fbac756db3c97d459302da55b1c06e6f9820a96b79a0145a8"),
    ("bfs_order", 13, 7, 2, 2): ((160, 151, 208, 103, 19904),
        "50cc87e64b3388b416bbdd397d2befd46e0852bafcc75c477ef744a5c6116583"),
    ("bfs_order", 13, 7, 2, 3): ((105, 129, 192, 42, 14976),
        "4aa6d2298d70246207b1dd543778da352ab78a0c54c51727f390fe761724af0c"),
}

# (algorithm, rows, cols, seed, h): (counters as above, output sha256)
RECORDED_EMITTERS = {
    ('toposort', 32, 32, 1, 1): ((1168, 225, 603, 790, 89152),
        "99bb4a29cf75bedca72f266e434ec15aae3b2caaf41e349b23adce622bc793e9"),
    ('toposort', 32, 32, 1, 2): ((1043, 229, 528, 744, 81408),
        "61037f77e1988e2df3c51b08cd6311d4b79a521c2030da48eb3729278a279b4b"),
    ('toposort', 32, 32, 1, 3): ((596, 228, 381, 443, 52736),
        "fbc66d1ca608b12a1c0ecc9e3d8745274d2b02a46b41e51417164a0aad7b1f71"),
    ('toposort', 32, 32, 2, 1): ((1173, 225, 610, 788, 89472),
        "a789b42cbeb2778cb647ee17b134bf806109f13b0b3964d2aedabeb73c2cb911"),
    ('toposort', 32, 32, 2, 2): ((1003, 229, 550, 682, 78848),
        "14b22f0bbb4b0bd0fb88944915ee27eff409ad91c83fcb2bbd6eeb0ac1803765"),
    ('toposort', 32, 32, 2, 3): ((566, 228, 381, 413, 50816),
        "ec4c2d6d8e54e2a1ed9a71832a56e32e29601ebdc200fccc3a35c49dd1cc8b07"),
    ('toposort', 13, 7, 1, 1): ((85, 22, 63, 44, 6848),
        "58cec4501d63a03fbf444db57d7c7455d40b286181017051d08cced3d9dc62b1"),
    ('toposort', 13, 7, 1, 2): ((72, 23, 60, 35, 6080),
        "4924827acc00e8423d2c98bc0620e9501754d093b3f040b2be0d4805841a8e0f"),
    ('toposort', 13, 7, 1, 3): ((41, 23, 44, 20, 4096),
        "54ef4a8aab08261b008e52c3cafa53907fb0a030c522612007530e4ed8968712"),
    ('toposort', 13, 7, 2, 1): ((96, 22, 68, 50, 7552),
        "d83837a2a4d74e9cd72eba897debe3782279101cf92aff47ca6532b6883facf5"),
    ('toposort', 13, 7, 2, 2): ((82, 23, 60, 45, 6720),
        "ee6b500b7503ae2e7928631f5f0021baa3ecae00f8d0e51023131aa55bc6576f"),
    ('toposort', 13, 7, 2, 3): ((45, 23, 45, 23, 4352),
        "42ec1de28615cf6f155a0c2948e6c4f49f79aa8a7155ae41ae87f4a5a1479aaf"),
    ('tfp_run', 32, 32, 1, 1): ((3351, 3855, 2315, 4891, 461184),
        "e80975e73a6f6f2efcf86b40b694e401dbb15e915bbc401093625f4425aa9a7b"),
    ('tfp_run', 32, 32, 1, 2): ((2394, 2994, 2095, 3293, 344832),
        "e80975e73a6f6f2efcf86b40b694e401dbb15e915bbc401093625f4425aa9a7b"),
    ('tfp_run', 32, 32, 1, 3): ((1494, 2063, 1722, 1835, 227648),
        "e80975e73a6f6f2efcf86b40b694e401dbb15e915bbc401093625f4425aa9a7b"),
    ('tfp_run', 32, 32, 2, 1): ((3335, 3858, 2313, 4880, 460352),
        "3d0c80a90e2acd747f53cd253dec1808246f3a220d2c21694c5d64b9a18ebc82"),
    ('tfp_run', 32, 32, 2, 2): ((2357, 3007, 2156, 3208, 343296),
        "3d0c80a90e2acd747f53cd253dec1808246f3a220d2c21694c5d64b9a18ebc82"),
    ('tfp_run', 32, 32, 2, 3): ((1471, 2044, 1712, 1803, 224960),
        "3d0c80a90e2acd747f53cd253dec1808246f3a220d2c21694c5d64b9a18ebc82"),
    ('tfp_run', 13, 7, 1, 1): ((269, 328, 208, 389, 38208),
        "8303b910d9e487e1194c468371ff50576695fb709cda62dbd8397c4e153e2cd5"),
    ('tfp_run', 13, 7, 1, 2): ((194, 260, 203, 251, 29056),
        "8303b910d9e487e1194c468371ff50576695fb709cda62dbd8397c4e153e2cd5"),
    ('tfp_run', 13, 7, 1, 3): ((104, 172, 166, 110, 17664),
        "8303b910d9e487e1194c468371ff50576695fb709cda62dbd8397c4e153e2cd5"),
    ('tfp_run', 13, 7, 2, 1): ((277, 314, 212, 379, 37824),
        "905f02d9aa0c2188f7de9c21b2fdce8b1e06166ead102052bd5cc08c0a52074e"),
    ('tfp_run', 13, 7, 2, 2): ((202, 259, 198, 263, 29504),
        "905f02d9aa0c2188f7de9c21b2fdce8b1e06166ead102052bd5cc08c0a52074e"),
    ('tfp_run', 13, 7, 2, 3): ((112, 162, 162, 112, 17536),
        "905f02d9aa0c2188f7de9c21b2fdce8b1e06166ead102052bd5cc08c0a52074e"),
    ('euler_tour', 32, 32, 1, 1): ((135, 47, 107, 75, 11648),
        "ede54a5ac13e4dc69f5b7c7056c3575599612f7eb8932c924485b0d32044a21c"),
    ('euler_tour', 32, 32, 1, 2): ((192, 56, 128, 120, 15872),
        "ede54a5ac13e4dc69f5b7c7056c3575599612f7eb8932c924485b0d32044a21c"),
    ('euler_tour', 32, 32, 1, 3): ((167, 62, 115, 114, 14656),
        "ede54a5ac13e4dc69f5b7c7056c3575599612f7eb8932c924485b0d32044a21c"),
    ('euler_tour', 32, 32, 2, 1): ((140, 47, 106, 81, 11968),
        "e5054416505c7dd29bdc3f150f72abdc0a9040b321be668fee4d6a165b6a931d"),
    ('euler_tour', 32, 32, 2, 2): ((204, 57, 133, 128, 16704),
        "e5054416505c7dd29bdc3f150f72abdc0a9040b321be668fee4d6a165b6a931d"),
    ('euler_tour', 32, 32, 2, 3): ((176, 62, 110, 128, 15232),
        "e5054416505c7dd29bdc3f150f72abdc0a9040b321be668fee4d6a165b6a931d"),
    ('euler_tour', 13, 7, 1, 1): ((5, 6, 9, 2, 704),
        "55ee1c9d486073b037e16a563880ebb4bebea04ce25d5278cceb3d7fb746f78e"),
    ('euler_tour', 13, 7, 1, 2): ((11, 6, 12, 5, 1088),
        "55ee1c9d486073b037e16a563880ebb4bebea04ce25d5278cceb3d7fb746f78e"),
    ('euler_tour', 13, 7, 1, 3): ((6, 7, 11, 2, 832),
        "55ee1c9d486073b037e16a563880ebb4bebea04ce25d5278cceb3d7fb746f78e"),
    ('euler_tour', 13, 7, 2, 1): ((5, 6, 9, 2, 704),
        "bb093a547279eccbbd7cfb02600d10cbb42a443899ee4521aea4d7e0e07c1b91"),
    ('euler_tour', 13, 7, 2, 2): ((17, 7, 16, 8, 1536),
        "bb093a547279eccbbd7cfb02600d10cbb42a443899ee4521aea4d7e0e07c1b91"),
    ('euler_tour', 13, 7, 2, 3): ((8, 7, 12, 3, 960),
        "bb093a547279eccbbd7cfb02600d10cbb42a443899ee4521aea4d7e0e07c1b91"),
    ('mst_cache_aware', 32, 32, 1, 1): ((1717, 1078, 2793, 2, 178880),
        "71d6c5e70928694abf3edd27af9f2babee02fa96cbe767b257ca65c350d6c963"),
    ('mst_cache_aware', 32, 32, 1, 2): ((1551, 912, 2461, 2, 157632),
        "fd4ad9b9c9e05a32f3f42d1387cccbe0142a4e08f619c7db3311dc3fc5390212"),
    ('mst_cache_aware', 32, 32, 1, 3): ((1340, 701, 2039, 2, 130624),
        "c51a082333ae75bc576e7fd101e288f5ac093731ff124cda12b40999a41434cc"),
    ('mst_cache_aware', 32, 32, 2, 1): ((1719, 1080, 2797, 2, 179136),
        "c02f4d1c8a2459417cb26fc1a5b55eb9bc921efb52dafe52b19a099a19c1d4b8"),
    ('mst_cache_aware', 32, 32, 2, 2): ((1547, 908, 2453, 2, 157120),
        "de0eb326b0b58ccce6104f5ff15aede9d1d870e22533ca200275a03998377596"),
    ('mst_cache_aware', 32, 32, 2, 3): ((1335, 696, 2029, 2, 129984),
        "1f6207d5a2d7ca60225af9a7689a8e3290e8b011d8c397d95a76a8d37856da55"),
    ('mst_cache_aware', 13, 7, 1, 1): ((150, 93, 241, 2, 15552),
        "893858c74b32e9640f8350faaf4717ac5bc81a64e83e7ba2fb4521efc141c673"),
    ('mst_cache_aware', 13, 7, 1, 2): ((139, 82, 219, 2, 14144),
        "87b0f961d031421187656cedee87d3df272a2e68a746ced3be781f4e7d52aa89"),
    ('mst_cache_aware', 13, 7, 1, 3): ((117, 60, 175, 2, 11328),
        "e929de7d6721f7e1a7f5479a052b5ddfc991e08f70dd66dd061e8970cd0cf1eb"),
    ('mst_cache_aware', 13, 7, 2, 1): ((148, 91, 237, 2, 15296),
        "c9640e6d5ffaac1734de1435a286a84949a42d4f5d867ec2ae90f87b75427cb8"),
    ('mst_cache_aware', 13, 7, 2, 2): ((133, 76, 207, 2, 13376),
        "1d830d9ef00f521d7ae4522f59e5d58d09c69bfc52b6ab3650c7863d325d7518"),
    ('mst_cache_aware', 13, 7, 2, 3): ((116, 59, 173, 2, 11200),
        "1d51a4fff7fb108621f5d9c1c9c4f956eedd08d6bf13d73232daf0470fe5299a"),
    ('mst_cache_aware', 32, 32, 1, 4): ((1183, 544, 1725, 2, 110528),
        "5445f9944a757ee497ef6feebe156532f1520077f3b8f5029763d4cf78358288"),
    ('mst_cache_aware', 32, 32, 2, 4): ((1183, 544, 1725, 2, 110528),
        "39f92a0b126069a5d1919bcb2822e35cca2d8d5de6e53939cd0d2010e74a1d87"),
    ('mst_cache_oblivious', 32, 32, 1, None): ((865, 738, 1524, 79, 102592),
        "25a9103573a804bf4a8a46ec0d7483634544ab86f7bbcf17c3f94fb75c3923d2"),
    ('mst_cache_oblivious', 32, 32, 2, None): ((867, 740, 1520, 87, 102848),
        "b7d08a0be4eb34fb62e715af71ca346ca64d81a81c3a3d25b2065b9e8e494ece"),
    ('mst_cache_oblivious', 13, 7, 1, None): ((46, 35, 81, 0, 5184),
        "73cb160a236ebcf19650297c3eaaaf64f8b5ce71bc16d9685d6bc1c70dac625e"),
    ('mst_cache_oblivious', 13, 7, 2, None): ((46, 35, 81, 0, 5184),
        "88831eaa98ca5f51c0f7b0d029858c2070f78f32dbd357e4bdbe70aec65a5ea5"),
}

# (solver, rows, cols, seed, h): (len(extractions), level0_calls,
#     wasted_calls, reactivations, sha256 of repr(extractions))
RECORDED_STATS = {
    ('sssp_simple', 32, 32, 1, 1): (1024, 0, 0, 0,
        "d57ac6fa348283ee1adb720144f55fc27483c1fc621c2a983ad80d5538143f75"),
    ('sssp_simple', 32, 32, 1, 2): (768, 0, 0, 0,
        "df72c5bf86b726dc9cc25fbbeb4d29610647e44b5665a4c451c59e871fcb7937"),
    ('sssp_simple', 32, 32, 1, 3): (448, 0, 0, 0,
        "16a0400fda7914c23647eec79c10e5432c88cb3f16c032573a0d0712577a5b1d"),
    ('sssp_simple', 32, 32, 2, 1): (1024, 0, 0, 0,
        "aed81b65c18002065d4718142fa3cbd10b766e3d63dac8457772eef0d8ad5f7c"),
    ('sssp_simple', 32, 32, 2, 2): (768, 0, 0, 0,
        "8b734906d1aab56f30a8a379d088203cd043c0c6c6fab9d6956ba308e184b50b"),
    ('sssp_simple', 32, 32, 2, 3): (448, 0, 0, 0,
        "c1614d6bec19cbc93be7f58753fdea73c7c4a44a7b27df309a8b9b66f9c4285f"),
    ('sssp_simple', 13, 7, 1, 1): (91, 0, 0, 0,
        "ce4c106be5fc8843a3ed95a19469a1f5a1d272d1db8f96de2dcf4b0f47b3d6ce"),
    ('sssp_simple', 13, 7, 1, 2): (73, 0, 0, 0,
        "779f70e7dad66e99fe5b4bef3f0cd55d7c4b62498b9a870c472a10e8eebfad2f"),
    ('sssp_simple', 13, 7, 1, 3): (46, 0, 0, 0,
        "fc0d763476e1081ef8b9ebf5decd2249d787ca2e2a91fade0285c5ebd135c0a8"),
    ('sssp_simple', 13, 7, 2, 1): (91, 0, 0, 0,
        "eb8dbbe6b72f29ec8829926525e3e80e55256b6917fe1d35246c28b3d1ff97c1"),
    ('sssp_simple', 13, 7, 2, 2): (73, 0, 0, 0,
        "0b93ec2e7cf3ce6d35b7d5d8d30fc9177574e3292990247e0025b204c5265941"),
    ('sssp_simple', 13, 7, 2, 3): (46, 0, 0, 0,
        "fca2772540b53e8bd1b6a1ed79dda6831fbfa2178651bf4d012ae0922851901b"),
    ('sssp_hierarchical', 32, 32, 1, 1): (1026, 1026, 0, 2,
        "ff9ed9736e6f428e10f107fad6470b1ae2da7851af7be0045121ca40d2f46428"),
    ('sssp_hierarchical', 32, 32, 1, 2): (768, 768, 0, 0,
        "df72c5bf86b726dc9cc25fbbeb4d29610647e44b5665a4c451c59e871fcb7937"),
    ('sssp_hierarchical', 32, 32, 1, 3): (448, 448, 0, 0,
        "16a0400fda7914c23647eec79c10e5432c88cb3f16c032573a0d0712577a5b1d"),
    ('sssp_hierarchical', 32, 32, 2, 1): (1027, 1027, 0, 3,
        "70f854a1f961656dcf71fc8f164a2703e4ec8dfb949db10a80558192377f43e1"),
    ('sssp_hierarchical', 32, 32, 2, 2): (768, 768, 0, 0,
        "8b734906d1aab56f30a8a379d088203cd043c0c6c6fab9d6956ba308e184b50b"),
    ('sssp_hierarchical', 32, 32, 2, 3): (448, 448, 0, 0,
        "c1614d6bec19cbc93be7f58753fdea73c7c4a44a7b27df309a8b9b66f9c4285f"),
    ('sssp_hierarchical', 13, 7, 1, 1): (91, 91, 0, 0,
        "ce4c106be5fc8843a3ed95a19469a1f5a1d272d1db8f96de2dcf4b0f47b3d6ce"),
    ('sssp_hierarchical', 13, 7, 1, 2): (73, 73, 0, 0,
        "779f70e7dad66e99fe5b4bef3f0cd55d7c4b62498b9a870c472a10e8eebfad2f"),
    ('sssp_hierarchical', 13, 7, 1, 3): (46, 46, 0, 0,
        "fc0d763476e1081ef8b9ebf5decd2249d787ca2e2a91fade0285c5ebd135c0a8"),
    ('sssp_hierarchical', 13, 7, 2, 1): (91, 91, 0, 0,
        "eb8dbbe6b72f29ec8829926525e3e80e55256b6917fe1d35246c28b3d1ff97c1"),
    ('sssp_hierarchical', 13, 7, 2, 2): (73, 73, 0, 0,
        "0b93ec2e7cf3ce6d35b7d5d8d30fc9177574e3292990247e0025b204c5265941"),
    ('sssp_hierarchical', 13, 7, 2, 3): (46, 46, 0, 0,
        "fca2772540b53e8bd1b6a1ed79dda6831fbfa2178651bf4d012ae0922851901b"),
}

# (rows, cols, seed): (sha256 of .conn, sha256 of .expn)
RECORDED_STACKS = {
    (32, 32, 1): (
        "621e17a4451309f042093242f2e784410ad0abe9a4776bc341619d60abd6775e",
        "6a3d8c73af276fd15b700b8206681b6612c7e7dbec507634721ac022ac42c20f"),
    (32, 32, 2): (
        "2570ac8796d98ea43cc374e300fb06b50a83c5b87c1315d77bcecb5c722f2731",
        "6afb19694dd6042fbf0a516fdd7e3390e01b27e0c95b8cc8ce71a9d0400968e5"),
    (13, 7, 1): (
        "9c154f944400545df411e9d1018dd732e8339835e9714d8cc52c8e19d9a980fe",
        "cb2c49b4157a2383f6be3e74ae093175e2dbab4a5461cd4f97af277a36db4313"),
    (13, 7, 2): (
        "b4a4f002dda4a711314c6b8f23bcad1b3a44678d3913561d09ec5a84c3402a0b",
        "f5c10a1d69fa3ae4ceaf5708ccb163f1d47a74c7165c0b19233c977e7b3705ac"),
}

# (solver, rows, cols, seed, h): sha256 of repr of the list of the
#     ".D" direct calls, each (operation, offset, length, sha256 of
#     the bytes written or None)
RECORDED_D_TRACE = {
    ('bfs_order', 13, 7, 1, 1):
        "353e3a7313f21d38d669b3aef3010804f11a0b574d894ba731195bf44c505132",
    ('bfs_order', 13, 7, 1, 2):
        "baf8cc7ea3014993b58a671e1e4cd0967676bdbb8b87e3034fb8306133a70629",
    ('bfs_order', 13, 7, 1, 3):
        "83038d50caac159a263cd28edfdee98d6e22dc5d9da998e25564e5940f05379c",
    ('bfs_order', 13, 7, 2, 1):
        "89b0ecb273f85f51205e38d1047888cf4d92f5e07d21ac325ff71e0b9627fb6a",
    ('bfs_order', 13, 7, 2, 2):
        "88187df0f3b8e47d208c9d6577a82dad4af68f9070e06b423f909f724abe5106",
    ('bfs_order', 13, 7, 2, 3):
        "cd87c5930760f079b4dea2a5cdbea892adcfbd3354cc48ae215913ac8a5713a8",
    ('bfs_order', 32, 32, 1, 1):
        "959bf687b43b62dec35561f0497f4e66232ea61c573799c290fff11dafebff69",
    ('bfs_order', 32, 32, 1, 2):
        "36bc98b11b798842e32230ac07ef4310b0b284e60cb2d55c710b2f58563afe65",
    ('bfs_order', 32, 32, 1, 3):
        "ba7f866f0e6406d3b6a91808b77438bb0afd643f1666107d54a366a1f4f5ff15",
    ('bfs_order', 32, 32, 2, 1):
        "e9f4071be635949acec677f5dd8d19bdd73f07e13d603029fb3176bdd23abcad",
    ('bfs_order', 32, 32, 2, 2):
        "636903a9cd376df81500461c96cb729a0706d39b896312d9808374ceff481b34",
    ('bfs_order', 32, 32, 2, 3):
        "1b1be85f569837d4eb7dd28d04fba8a62e33d7263f4a0e6e074fd733597f4c37",
    ('sssp_hierarchical', 13, 7, 1, 1):
        "e48a8631b4f816a4abcfaa64a953ad764bc9c08861d992f2e93416b7d901a7b8",
    ('sssp_hierarchical', 13, 7, 1, 2):
        "70862f3332547da4583ed93f83c3ddf50a9953287016a6f21ca744d515c179ce",
    ('sssp_hierarchical', 13, 7, 1, 3):
        "dfb113b68ec801a9c0c777377445fbdd2fdde1f377966795f5625068050202c0",
    ('sssp_hierarchical', 13, 7, 2, 1):
        "d1941be75f869e0513b404ec034b1cf173fd4f60bf259d11c8de89073e186bda",
    ('sssp_hierarchical', 13, 7, 2, 2):
        "93c087bdf16daee52a70ccab9b055a2b1823023cd474fd45e83408906ea5c024",
    ('sssp_hierarchical', 13, 7, 2, 3):
        "a14f7ed406d0549b5d53de99583f8e0761cea7f7ddac07d8709ad376b8734697",
    ('sssp_hierarchical', 32, 32, 1, 1):
        "7c1a7c80e515ba813ddb6becb74c4d0b3ab0339ea14fb7a15daf76e77098f1da",
    ('sssp_hierarchical', 32, 32, 1, 2):
        "cb248f8419512c085f798d7abf4618ecbb9385180f84d88920e7b9b280e223a2",
    ('sssp_hierarchical', 32, 32, 1, 3):
        "ec290047eef937d14a2dce384e1e29cdb1c5d2341e45e3312830dc20c5349c3c",
    ('sssp_hierarchical', 32, 32, 2, 1):
        "43a124af10204641c258bb37296358cde7154451513bedacb1d34e92c8ff1667",
    ('sssp_hierarchical', 32, 32, 2, 2):
        "b6e3cdcf6e5e2ab85b293162fcae4938697bb19c23dfab059f11d68caa7f839f",
    ('sssp_hierarchical', 32, 32, 2, 3):
        "e82a177f029dc1bc66786ae419d41c97b8ff843a3c6478a11f36cbf1f561dc93",
    ('sssp_simple', 13, 7, 1, 1):
        "e48a8631b4f816a4abcfaa64a953ad764bc9c08861d992f2e93416b7d901a7b8",
    ('sssp_simple', 13, 7, 1, 2):
        "70862f3332547da4583ed93f83c3ddf50a9953287016a6f21ca744d515c179ce",
    ('sssp_simple', 13, 7, 1, 3):
        "dfb113b68ec801a9c0c777377445fbdd2fdde1f377966795f5625068050202c0",
    ('sssp_simple', 13, 7, 2, 1):
        "d1941be75f869e0513b404ec034b1cf173fd4f60bf259d11c8de89073e186bda",
    ('sssp_simple', 13, 7, 2, 2):
        "93c087bdf16daee52a70ccab9b055a2b1823023cd474fd45e83408906ea5c024",
    ('sssp_simple', 13, 7, 2, 3):
        "a14f7ed406d0549b5d53de99583f8e0761cea7f7ddac07d8709ad376b8734697",
    ('sssp_simple', 32, 32, 1, 1):
        "53b0a71bd979a1b2029d579b2b0aff7fb5eec5bab6dc0a52a221a8a5ce0f7aed",
    ('sssp_simple', 32, 32, 1, 2):
        "cb248f8419512c085f798d7abf4618ecbb9385180f84d88920e7b9b280e223a2",
    ('sssp_simple', 32, 32, 1, 3):
        "ec290047eef937d14a2dce384e1e29cdb1c5d2341e45e3312830dc20c5349c3c",
    ('sssp_simple', 32, 32, 2, 1):
        "acf38b11499b785336b837ede864a0d0502ff6e763ff7e0f665789ee43653be5",
    ('sssp_simple', 32, 32, 2, 2):
        "b6e3cdcf6e5e2ab85b293162fcae4938697bb19c23dfab059f11d68caa7f839f",
    ('sssp_simple', 32, 32, 2, 3):
        "e82a177f029dc1bc66786ae419d41c97b8ff843a3c6478a11f36cbf1f561dc93",
}

# RECORDED* algorithm name -> its key in the CLI's table
ROWS = {
    "sssp_simple": ("sssp", "simple"),
    "sssp_hierarchical": ("sssp", "hierarchical"),
    "bfs_order": ("bfs", None),
    "toposort": ("toposort", None),
    "tfp_run": ("tfp", None),
    "euler_tour": ("euler", None),
    "mst_cache_aware": ("mst", "aware"),
    "mst_cache_oblivious": ("mst", "oblivious"),
}


def counters_and_hash(d, out):
    c = d.counters_snapshot()
    return ((c.blocks_read, c.blocks_written, c.sequential_blocks,
             c.random_blocks, c.bytes_transferred),
            hashlib.sha256(d.raw_bytes(out)).hexdigest())


def weighted_digraph(disk, rows, cols, seed):
    u = gf.generate(make_disk(), rows, cols, "weighted_undirected",
                    seed=seed, density=0.6)
    edges = {v: {d: w for d, _, _, w in arcs}
             for v, arcs in gf.adjacency(u).items()}
    return make_graph(disk, rows, cols, "weighted_directed", edges)


def run_case(case):
    """Run one RECORDED or RECORDED_EMITTERS case through its row of the
    CLI's table on a fresh disk whose counters start after the input is
    written; returns (disk, output)."""
    alg, rows, cols, seed, h = case
    row = cli.ALGORITHMS[ROWS[alg]]
    d = make_disk()
    if row.cost == "sssp":
        g = weighted_digraph(d, rows, cols, seed)
    else:
        g = gf.generate(d, rows, cols, row.model, seed=seed, density=0.6)
    d.reset_counters()
    args = Namespace(source=(rows // 2, cols // 3), oracle="path_count",
                     root=None)
    return d, row.run(g, h, args)


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_counters_and_output_unchanged(case):
    assert counters_and_hash(*run_case(case)) == RECORDED[case]


@pytest.mark.parametrize("case", sorted(RECORDED_STATS))
def test_solver_schedule_unchanged(monkeypatch, case):
    # the table's run passes no stats, so keep the one the solver makes
    made, real = [], sssp.SolveStats

    def solve_stats():
        made.append(real())
        return made[-1]

    monkeypatch.setattr(sssp, "SolveStats", solve_stats)
    run_case(case)
    (st,) = made
    assert (len(st.extractions), st.level0_calls, st.wasted_calls,
            st.reactivations,
            hashlib.sha256(repr(st.extractions).encode()).hexdigest()
            ) == RECORDED_STATS[case]


@pytest.mark.parametrize("case", sorted(RECORDED_EMITTERS, key=str))
def test_emitter_counters_and_output_unchanged(case):
    assert counters_and_hash(*run_case(case)) == RECORDED_EMITTERS[case]


@pytest.mark.parametrize("case", sorted(RECORDED_STACKS))
def test_stack_files_unchanged(case):
    rows, cols, seed = case
    d = make_disk()
    g = gf.generate(d, rows, cols, "weighted_undirected", seed=seed,
                    density=0.6)
    mst.mst_cache_oblivious(g)
    assert tuple(
        hashlib.sha256(d.raw_bytes(FileHandle(d._names[name], name, d)))
        .hexdigest() for name in ("mst.out.conn", "mst.out.expn")
    ) == RECORDED_STACKS[case]


@pytest.mark.parametrize(
    "case", sorted([*RECORDED, *RECORDED_EMITTERS], key=str))
def test_no_write_only_files(case):
    # a file an algorithm writes (counted) but never reads is transfer
    # volume that serves nothing; only the output may be write-only
    d, out = run_case(case)
    write_only = []
    for name, fid in d._names.items():
        c = d.file_counters(FileHandle(fid, name, d))
        if fid != out.file_id and c.blocks_written and not c.blocks_read:
            write_only.append(name)
    assert write_only == []


@pytest.mark.parametrize(
    "case", sorted([*RECORDED, *RECORDED_EMITTERS], key=str))
def test_held_block_is_never_stale(monkeypatch, case):
    # whenever a direct read counts fewer blocks than it touches, its first
    # block must be the one the previous direct read of that file ended in,
    # with the bytes it had then
    real_read = SimDisk.read_direct
    ended = {}

    def read_direct(self, handle, offset, nbytes):
        b, fid = self.config.block_bytes, handle.file_id
        before = self._stats[fid].reads
        out = real_read(self, handle, offset, nbytes)
        if nbytes:
            first, last = offset // b, (offset + nbytes - 1) // b
            if self._stats[fid].reads - before < last - first + 1:
                held, held_bytes = ended[id(self), fid]
                assert self._stats[fid].reads - before == last - first
                assert held == first
                assert self._data[fid][first * b:(first + 1) * b] == \
                    held_bytes, (handle.name, first)
            ended[id(self), fid] = (
                last, bytes(self._data[fid][last * b:(last + 1) * b]))
        return out

    monkeypatch.setattr(SimDisk, "read_direct", read_direct)
    run_case(case)


@pytest.mark.parametrize("case", sorted(
    c for c in RECORDED_EMITTERS if c[0] in ("toposort", "euler_tour")))
def test_record_files_are_their_priced_size(case):
    # toposort's chunk file is one 32-bit id per vertex; Euler's segment
    # file is one direction byte per tour step inside a cluster, 2(n - 1)
    # less one per cross-cluster arc; neither has a header
    d, out = run_case(case)
    alg, rows, cols, _, h = case
    name = out.name + (".chunks" if alg == "toposort" else ".segs")
    size = d.content_length(FileHandle(d._names[name], name, d))
    n = rows * cols
    if alg == "toposort":
        assert size == 4 * n
    else:
        scheme = cl.ClusterScheme(rows, cols, h)
        g = gf.open_grid(d, FileHandle(d._names["input"], "input", d))
        cross = sum(scheme.rank_of(r, c) != scheme.rank_of(nr, nc)
                    for (r, c), arcs in gf.adjacency(g).items()
                    for _, nr, nc, _ in arcs)
        assert cross and size == 2 * (n - 1) - cross


# cost-model name -> the scans of the input its model prices
PRICED_SCANS = {"sssp": 2, "bfs": 2, "mst_cache_aware": 2, "toposort": 2,
                "tfp": 2, "mst_cache_oblivious": 1, "euler": 1}


def input_blocks(g, lo, hi):
    """Blocks of the input file that hold the records of Z indices lo to
    hi - 1."""
    b, rs = g.disk.config.block_bytes, g.record_size
    return ((g.payload_offset + hi * rs - 1) // b
            - (g.payload_offset + lo * rs) // b + 1)


@pytest.mark.parametrize(
    "case", sorted([*RECORDED, *RECORDED_EMITTERS], key=str))
def test_input_read_as_priced(case):
    # k blocks per priced scan of the payload, and the phase-2 solvers' one
    # direct read of the source's cluster
    d, _ = run_case(case)
    handle = FileHandle(d._names["input"], "input", d)
    read = d.file_counters(handle).blocks_read
    g = gf.open_grid(d, handle)
    alg, rows, cols, _, h = case
    cost = cli.ALGORITHMS[ROWS[alg]].cost
    want = PRICED_SCANS[cost] * input_blocks(g, 0, g.n)
    if cost in ("sssp", "bfs"):
        scheme = cl.ClusterScheme(rows, cols, h)
        rank = scheme.rank_of(rows // 2, cols // 3)
        want += input_blocks(g, scheme.starts[rank], scheme.starts[rank + 1])
    assert read == want


def d_trace(monkeypatch, case):
    """sha256 of the ``.D`` direct calls of one ``RECORDED`` case: per call
    (operation, offset, length, sha256 of the bytes written or None)."""
    calls = []
    real_read, real_write = SimDisk.read_direct, SimDisk.write_direct

    def read_direct(self, handle, offset, nbytes):
        if handle.name.endswith(".D"):
            calls.append(("read", offset, nbytes, None))
        return real_read(self, handle, offset, nbytes)

    def write_direct(self, handle, offset, data):
        if handle.name.endswith(".D"):
            calls.append(("write", offset, len(data),
                          hashlib.sha256(data).hexdigest()))
        return real_write(self, handle, offset, data)

    monkeypatch.setattr(SimDisk, "read_direct", read_direct)
    monkeypatch.setattr(SimDisk, "write_direct", write_direct)
    run_case(case)
    return hashlib.sha256(repr(calls).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_distance_file_requests_unchanged(monkeypatch, case):
    assert d_trace(monkeypatch, case) == RECORDED_D_TRACE[case]
