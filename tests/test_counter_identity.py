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
They were re-recorded again, with the hashes unchanged, when the label
records came to be written by one stream in evaluation order and gathered
per cluster, one direct read per chunk, by the final pass, and the chunk
header shrank to its vertex count: every row moves fewer bytes, and each
writes fewer blocks; in the four rows at h = 1, where a cluster has at most
four cells, each chunk's gathered read is a random block, so
``random_blocks`` rises.

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
fewer of the same reads are classed random.  They were re-recorded again,
with the hashes and ``random_blocks`` unchanged, when regions of side 4
became the base case: regions of side 2 no longer push a connections record
that their parent pops at once, so each 32x32 row reads and writes five
fewer ``.conn`` blocks, all sequential; the 13x7 rows did not move.

``RECORDED_CHUNK_FILES`` pins, on the ``toposort`` and ``tfp_run`` rows of
``RECORDED_EMITTERS``, the counters and the sha256 of each intermediate
file that ``clusters.ChunkFile`` holds: toposort's ``.chunks``, and TFP's
``.plan.chunks`` and ``.plan.labels``.  Whole-disk counters and the output
hash do not pin how the transfers split between those files, nor their
bytes.  Its values were recorded from the code before the three files came
to share that store.

``RECORDED_SEPARATOR_FILES`` pins what ``clusters.build_separator_graph``
writes and reads on its own: the counters of the input and of the separator
file, and the sha256 of the separator file's bytes, on ``weighted_dag`` and
``unit_directed`` at density 0.6 and ``conftest.dense_digraph`` with every
arc present, seed 1, at 16x16, 13x7, 1x9, 9x1 and 100x37, h = 0..3, block
64.  The SSSP and BFS rows pin only what the solvers read back of the file.
Its values were recorded from the code before clusters of side at most 4
came to be condensed by one all-pairs pass per batch.

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
before the hierarchy keys became a numpy array, and the schedule they pin
also holds with the keys as one list in Z-rank order.

``RECORDED_STACKS`` pins the sha256 of the final contents of the two stack
files of ``mst_cache_oblivious`` (``.conn``, connections, and ``.expn``,
expansions) on the ``RECORDED_EMITTERS`` instances, so a change to the
stack-record layout fails here even when the block counters stay the same.
Its values were re-recorded with that 17-byte edge and side-2 base case, and
its ``.expn`` hashes once more with the grid-walk expansions record.  Its
``.conn`` hashes were re-recorded with the side-4 base case, since regions of
side 2 no longer push records; the ``.expn`` hashes did not move.

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

from conftest import dense_digraph, make_disk, make_graph

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
    ('tfp_run', 32, 32, 1, 1): ((4093, 2823, 1882, 5034, 442624),
        "e80975e73a6f6f2efcf86b40b694e401dbb15e915bbc401093625f4425aa9a7b"),
    ('tfp_run', 32, 32, 1, 2): ((2771, 2385, 2025, 3131, 329984),
        "e80975e73a6f6f2efcf86b40b694e401dbb15e915bbc401093625f4425aa9a7b"),
    ('tfp_run', 32, 32, 1, 3): ((1616, 1778, 1668, 1726, 217216),
        "e80975e73a6f6f2efcf86b40b694e401dbb15e915bbc401093625f4425aa9a7b"),
    ('tfp_run', 32, 32, 2, 1): ((4066, 2827, 1871, 5022, 441152),
        "3d0c80a90e2acd747f53cd253dec1808246f3a220d2c21694c5d64b9a18ebc82"),
    ('tfp_run', 32, 32, 2, 2): ((2707, 2430, 2082, 3055, 328768),
        "3d0c80a90e2acd747f53cd253dec1808246f3a220d2c21694c5d64b9a18ebc82"),
    ('tfp_run', 32, 32, 2, 3): ((1597, 1780, 1664, 1713, 216128),
        "3d0c80a90e2acd747f53cd253dec1808246f3a220d2c21694c5d64b9a18ebc82"),
    ('tfp_run', 13, 7, 1, 1): ((334, 237, 165, 406, 36544),
        "8303b910d9e487e1194c468371ff50576695fb709cda62dbd8397c4e153e2cd5"),
    ('tfp_run', 13, 7, 1, 2): ((218, 205, 194, 229, 27072),
        "8303b910d9e487e1194c468371ff50576695fb709cda62dbd8397c4e153e2cd5"),
    ('tfp_run', 13, 7, 1, 3): ((103, 153, 159, 97, 16384),
        "8303b910d9e487e1194c468371ff50576695fb709cda62dbd8397c4e153e2cd5"),
    ('tfp_run', 13, 7, 2, 1): ((336, 229, 173, 392, 36160),
        "905f02d9aa0c2188f7de9c21b2fdce8b1e06166ead102052bd5cc08c0a52074e"),
    ('tfp_run', 13, 7, 2, 2): ((226, 206, 190, 242, 27648),
        "905f02d9aa0c2188f7de9c21b2fdce8b1e06166ead102052bd5cc08c0a52074e"),
    ('tfp_run', 13, 7, 2, 3): ((113, 146, 161, 98, 16576),
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
    ('mst_cache_oblivious', 32, 32, 1, None): ((860, 733, 1514, 79, 101952),
        "25a9103573a804bf4a8a46ec0d7483634544ab86f7bbcf17c3f94fb75c3923d2"),
    ('mst_cache_oblivious', 32, 32, 2, None): ((862, 735, 1510, 87, 102208),
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
        "add0e2b34d3b91e66527e5805d09de1251374618e06f891dbfefd77601f1c23a",
        "6a3d8c73af276fd15b700b8206681b6612c7e7dbec507634721ac022ac42c20f"),
    (32, 32, 2): (
        "cf4adef2c853735bf7cc90c3e15bc67964a0e59f7982bc749758c37ffe886a99",
        "6afb19694dd6042fbf0a516fdd7e3390e01b27e0c95b8cc8ce71a9d0400968e5"),
    (13, 7, 1): (
        "7e831d5f673b31ec98f4be4dd544e8c66701304a4cdaad5098919ac8885b3b77",
        "cb2c49b4157a2383f6be3e74ae093175e2dbab4a5461cd4f97af277a36db4313"),
    (13, 7, 2): (
        "fe6a0eaa2548e56f877258297750f6e791d9f8b16db2dc64948463050a2f0743",
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

# solver -> suffixes, after its output's name, of its chunk-store files
CHUNK_FILES = {"toposort": (".chunks",),
               "tfp_run": (".plan.chunks", ".plan.labels")}

# (solver, rows, cols, seed, h): per file of CHUNK_FILES[solver],
#     ((blocks_read, blocks_written, sequential_blocks, random_blocks,
#     bytes_transferred), sha256 of its contents)
RECORDED_CHUNK_FILES = {
    ('toposort', 32, 32, 1, 1): (
        ((644, 64, 256, 452, 45312),
         "8202f2fa867d077541bcf88ff317c5e6f32bbc6aa258de5623b0b87430150a5c"),
    ),
    ('toposort', 32, 32, 1, 2): (
        ((535, 64, 195, 404, 38336),
         "c385716ef489f49891dba6f63f37c9ebc459c8b0fd7bb21b218970e2fb9d31ab"),
    ),
    ('toposort', 32, 32, 1, 3): (
        ((267, 64, 103, 228, 21184),
         "c173ce215de23c80fa3cf923ba5a152b136fcc9d9cb5175b46d7849eee7f297d"),
    ),
    ('toposort', 32, 32, 2, 1): (
        ((647, 64, 252, 459, 45504),
         "c3860c4a40cd4a6b906b0addf9c9f1fdf665693d4a3f0ff2b7f441db1f235bb5"),
    ),
    ('toposort', 32, 32, 2, 2): (
        ((516, 64, 199, 381, 37120),
         "92f4dd20c6ba4c38064a19befc643b7412dafcf2f445ca9fee7e6d10513777b6"),
    ),
    ('toposort', 32, 32, 2, 3): (
        ((251, 64, 103, 212, 20160),
         "661b5d16cddff98bae63439e6a7f391b4047b3d9f422dfa3d00845f6d1c0a1d9"),
    ),
    ('toposort', 13, 7, 1, 1): (
        ((50, 6, 28, 28, 3584),
         "7798aa347f60416bac98bcf30fa1f62b28f37c0773441559ad420f9aea505100"),
    ),
    ('toposort', 13, 7, 1, 2): (
        ((36, 6, 23, 19, 2688),
         "4e27435e9b1602ef62bc1da541540a0aaa0047ed6d7f02e919a7046cb99687ab"),
    ),
    ('toposort', 13, 7, 1, 3): (
        ((16, 6, 12, 10, 1408),
         "022030a64b08caa7431793bf2244011b7d43f0a1f6b5ad9f4ab3ca26e16a41dc"),
    ),
    ('toposort', 13, 7, 2, 1): (
        ((56, 6, 32, 30, 3968),
         "ce24e57f121320b2713532e6e4f3d7366095cb9b334c89ba1730ae910d0d18c5"),
    ),
    ('toposort', 13, 7, 2, 2): (
        ((44, 6, 22, 28, 3200),
         "74d119ce87a19074a980aa0eb49b003bbb3523ddfd59db9f0070eb6b0ad4aa0c"),
    ),
    ('toposort', 13, 7, 2, 3): (
        ((16, 6, 10, 12, 1408),
         "bdbb4c97b0cdb093e3454f51c5ebb567b508db5527e329707ed052aa1df2cd72"),
    ),
    ('tfp_run', 32, 32, 1, 1): (
        ((2518, 2470, 1191, 3797, 319232),
         "97562e6f33fb850f23d29735fa1b82eb5252ce87c23eb69765f201bf606fb548"),
        ((1051, 192, 344, 899, 79552),
         "30366862ccbc1019a26ebb5b80c1622c3214f35c2784cf9043ac2e9a721e230b"),
    ),
    ('tfp_run', 32, 32, 1, 2): (
        ((1611, 2028, 1267, 2372, 232896),
         "63cfdfe62fa4c300294ba8766b3da70f774b4b945771c465fb276a61859000ec"),
        ((652, 192, 425, 419, 54016),
         "23026b0a14921e2fe5a3f8cbb4c35fb9c029501540f592baf8b969f531764666"),
    ),
    ('tfp_run', 32, 32, 1, 3): (
        ((916, 1422, 979, 1359, 149632),
         "204bf3375eebf20fe21fd003ddb68fcffaf79fe730216132f5a0818e2143ec56"),
        ((371, 192, 411, 152, 36032),
         "0b3ff43a20f1257701f477de0a246d4bdf471f58cf3b545e7df1586f4de0b089"),
    ),
    ('tfp_run', 32, 32, 2, 1): (
        ((2502, 2474, 1178, 3798, 318464),
         "9fa8d1826653e8dcc9b6f7f4ab47284603798a792d376c076bac21df2f417b72"),
        ((1038, 192, 335, 895, 78720),
         "52fedee09f834987aa08d2b7ebe9ab60b41a5314d28602831a583ad826893a0f"),
    ),
    ('tfp_run', 32, 32, 2, 2): (
        ((1589, 2073, 1323, 2339, 234368),
         "ab944db173490fb2a98e1c30c02fb692ac2e7d13c2d94087fd0e589b40e09fd6"),
        ((631, 192, 408, 415, 52672),
         "8049d467051ad6574ee198ec3153ab1fd260d3aa9d9cb2063d194b4bcf0d162c"),
    ),
    ('tfp_run', 32, 32, 2, 3): (
        ((912, 1424, 977, 1359, 149504),
         "4ad572eb3919701415fd6bca828f8cf78c88c5182562a6fe9e6866043dea607b"),
        ((370, 192, 409, 153, 35968),
         "ed6948a2ce6488c3680583e7a7e0f7ebe179e713ea4b297ad6a5e0dbf3cbd4cc"),
    ),
    ('tfp_run', 13, 7, 1, 1): (
        ((205, 203, 97, 311, 26112),
         "9b4b8b35c97a9bfff342ad6d50e8e50a58860d6a2dc4a40cd3d88d512925d10e"),
        ((94, 18, 33, 79, 7168),
         "2103fcaea21b25a443623a03fa8de5e3c8e282ed550a3e7781ba4e690381d51d"),
    ),
    ('tfp_run', 13, 7, 1, 2): (
        ((129, 170, 111, 188, 19136),
         "fadcccc7641b7e508f88093d130d17b863b4845dcaa91be0e1d35987d481d250"),
        ((53, 18, 46, 25, 4544),
         "819d8e1b0cff6eea5169f9348e9943aaac7dfebbf982370c6c7de98fd4d657e0"),
    ),
    ('tfp_run', 13, 7, 1, 3): (
        ((55, 118, 90, 83, 11072),
         "873696d28f246a55627c915358f9ab27e033ae522ac9244c2d4a6671d876a505"),
        ((23, 18, 37, 4, 2624),
         "a7b3fae6eebd3479a0e83c9aea374ed7b34c20b0b88799bb39991691fd795d37"),
    ),
    ('tfp_run', 13, 7, 2, 1): (
        ((208, 195, 98, 305, 25792),
         "cedcd70146d6b8e589a0181768eb95e3b471ba384642e0bf53c79384169b8fe8"),
        ((88, 18, 39, 67, 6784),
         "19b76bd66a180ce558e5fd84484d8d40903728bafce1cadb64cd3e2867c80f1e"),
    ),
    ('tfp_run', 13, 7, 2, 2): (
        ((135, 171, 113, 193, 19584),
         "0d233156c3cf88e4b774d5e104751418e83a3d54e5529acb43247a2b19543c36"),
        ((53, 18, 39, 32, 4544),
         "d23e7d2e7e072e4045638c998abb2741c18167f90ed04e4a8b9d6e04d801a1c4"),
    ),
    ('tfp_run', 13, 7, 2, 3): (
        ((58, 111, 87, 82, 10816),
         "6096327d5d4c0699d9e362cda2096ca5c44e14f912839b57fc71a21168075465"),
        ((26, 18, 39, 5, 2816),
         "2729a7914684bbbcab20f4f9e68487e01011e87a74bf16e9341cf5c39dfc9354"),
    ),
}

# (model, rows, cols, h): (input counters, separator file counters,
#     separator file sha256); counters as in RECORDED
RECORDED_SEPARATOR_FILES = {
    ("dense_digraph", 16, 16, 0): (
        (256, 0, 256, 0, 16384), (0, 256, 256, 0, 16384),
        "e2c296377eea57f734f3bc800cad57f9f17ec8cc2d39143954a0ff73d6458d35"),
    ("dense_digraph", 16, 16, 1): (
        (256, 0, 256, 0, 16384), (0, 256, 256, 0, 16384),
        "b99a6f32b5abd95e8a6a7eb77a084323ed99a44e55b013fdc12ec2471bfc96bb"),
    ("dense_digraph", 16, 16, 2): (
        (256, 0, 256, 0, 16384), (0, 384, 384, 0, 24576),
        "f00818fed910118c09302bec5023a91e3ef7c100821c02239513b4d5ed96755c"),
    ("dense_digraph", 16, 16, 3): (
        (256, 0, 256, 0, 16384), (0, 448, 448, 0, 28672),
        "e73611f8286e7cdae5a30a837293edf05ec1c2543192c2bac633564de5dabe3f"),
    ("dense_digraph", 13, 7, 0): (
        (91, 0, 91, 0, 5824), (0, 91, 91, 0, 5824),
        "4d34d85600792f5788355bfa460321c76a88f4941f463649b9be0f912f2e2864"),
    ("dense_digraph", 13, 7, 1): (
        (91, 0, 91, 0, 5824), (0, 91, 91, 0, 5824),
        "b725180268843137155040ca3090e4e44a8927979399b4afe6a4c683706f8e6e"),
    ("dense_digraph", 13, 7, 2): (
        (91, 0, 91, 0, 5824), (0, 146, 146, 0, 9344),
        "4abfe7a6c897e96fc2ead42494ba5bbfbef90869c0d79f8f2a336ce5b578560b"),
    ("dense_digraph", 13, 7, 3): (
        (91, 0, 91, 0, 5824), (0, 184, 184, 0, 11776),
        "9633499233ee612ef457653d1f879263ece4af88a73bdf38323335c47ac98abc"),
    ("dense_digraph", 1, 9, 0): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "90b43512435c41608990b413b0f4935422ddcbf5a2a50b6533e5fe79099258c9"),
    ("dense_digraph", 1, 9, 1): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "64f82b0c5c28b6b9fa517d4e9c61d8e2f7bae5ebcca09a76649412a020e49971"),
    ("dense_digraph", 1, 9, 2): (
        (9, 0, 9, 0, 576), (0, 18, 18, 0, 1152),
        "3b19ce74d621749ea74b7a9f9946a2a6439c618d15fd9ee885a9889ed57fac07"),
    ("dense_digraph", 1, 9, 3): (
        (9, 0, 9, 0, 576), (0, 36, 36, 0, 2304),
        "9439ffb1c3de22173d3f76f4cdd0aaddc1a6c8f386c9847c88a7bba37aa454ef"),
    ("dense_digraph", 9, 1, 0): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "3915bc58e94fbca203f9f7818842775dabe77643f18a63af4863ebb08b21e5f4"),
    ("dense_digraph", 9, 1, 1): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "1916fec2ad5cfbd7188bce8a4873d8da49ae558cda9e6d8dd27317909e20ebc8"),
    ("dense_digraph", 9, 1, 2): (
        (9, 0, 9, 0, 576), (0, 18, 18, 0, 1152),
        "aedc2b95892ad54bd63851e802294718ddc5f224c43866e418def137b8d4d879"),
    ("dense_digraph", 9, 1, 3): (
        (9, 0, 9, 0, 576), (0, 36, 36, 0, 2304),
        "1a297efa956ac566100644cfb43bdacb8dfb591fd5ea11a94e35c47467ba4289"),
    ("dense_digraph", 100, 37, 0): (
        (3700, 0, 3700, 0, 236800), (0, 3700, 3700, 0, 236800),
        "d95f51f7102fd0dc65d832ee06d475634b7850251a40e7f20a72f8f3ceef76b5"),
    ("dense_digraph", 100, 37, 1): (
        (3700, 0, 3700, 0, 236800), (0, 3700, 3700, 0, 236800),
        "67d9591b3411d1674232c9b456a29450c292d35361405615e59752726aea0f3d"),
    ("dense_digraph", 100, 37, 2): (
        (3700, 0, 3700, 0, 236800), (0, 5600, 5600, 0, 358400),
        "96d387a6571adedab7e0b53320226eb6128e8368684e5ca5eadde90f764539be"),
    ("dense_digraph", 100, 37, 3): (
        (3700, 0, 3700, 0, 236800), (0, 6808, 6808, 0, 435712),
        "0ae29d90368fa68f2693bf9569d427479c3c6594dfa9e6959167d67623554b4c"),
    ("unit_directed", 16, 16, 0): (
        (4, 0, 4, 0, 256), (0, 128, 128, 0, 8192),
        "216d98705572466871692d29fb414f2e1b7984e979a8aade11c076b1ccbd2a64"),
    ("unit_directed", 16, 16, 1): (
        (4, 0, 4, 0, 256), (0, 128, 128, 0, 8192),
        "98dc9e978fde54619d1751423a16f55b02b019f48760d6d3996432adf0753d68"),
    ("unit_directed", 16, 16, 2): (
        (4, 0, 4, 0, 256), (0, 192, 192, 0, 12288),
        "d27a107df6a86e951e75afdfe7d4ad3ca4d8a7663e5b3fa8839096382211efa9"),
    ("unit_directed", 16, 16, 3): (
        (4, 0, 4, 0, 256), (0, 224, 224, 0, 14336),
        "b46ace077f3340bba0091e90ff5713629b39a01fcd2c551e818351c4521c0518"),
    ("unit_directed", 13, 7, 0): (
        (2, 0, 2, 0, 128), (0, 46, 46, 0, 2944),
        "761155ca5df78f6a4c820ffa4ab66107646860a90929f659c8dc0e8404349168"),
    ("unit_directed", 13, 7, 1): (
        (2, 0, 2, 0, 128), (0, 46, 46, 0, 2944),
        "4c9c0c6e6b1896f5610e43b7eee28b38fe38f89aa0a9a41dbb0e91b7f6a36312"),
    ("unit_directed", 13, 7, 2): (
        (2, 0, 2, 0, 128), (0, 73, 73, 0, 4672),
        "958d49a627dd496ab8e04acf7e8479c980e39743fc5662752735b422a52ba6af"),
    ("unit_directed", 13, 7, 3): (
        (2, 0, 2, 0, 128), (0, 92, 92, 0, 5888),
        "f4f8f52487a957a6700fa129eb7892eee12549d34337ea66a525db56a10dc67e"),
    ("unit_directed", 1, 9, 0): (
        (1, 0, 1, 0, 64), (0, 5, 5, 0, 320),
        "439a51a18bd71d302b97c166e9aefd2875e0fbf6e5f845eeeb49a29fc1fbb5ce"),
    ("unit_directed", 1, 9, 1): (
        (1, 0, 1, 0, 64), (0, 5, 5, 0, 320),
        "0ab6a0774a4f943e67370c10bf75da353702141ba5187f41204cf12c1143222c"),
    ("unit_directed", 1, 9, 2): (
        (1, 0, 1, 0, 64), (0, 9, 9, 0, 576),
        "b45e77ee82ddccf01ef78e43f39b3fcf81f6a956bd47fb49ba0d4010f4849d38"),
    ("unit_directed", 1, 9, 3): (
        (1, 0, 1, 0, 64), (0, 18, 18, 0, 1152),
        "bda57e4b50e83a236b2177231a7a33a4c8dae67d9b1b32a7f43782c88f6572a3"),
    ("unit_directed", 9, 1, 0): (
        (1, 0, 1, 0, 64), (0, 5, 5, 0, 320),
        "4f6511385059bf45dc0ffbc2f26d00a554d246662bf2b2560895fa2ec214ecb2"),
    ("unit_directed", 9, 1, 1): (
        (1, 0, 1, 0, 64), (0, 5, 5, 0, 320),
        "044ded016f2b69c2979c75b4c0f5c17db6f4db7dddcea9808ac690899c64311f"),
    ("unit_directed", 9, 1, 2): (
        (1, 0, 1, 0, 64), (0, 9, 9, 0, 576),
        "b6621068fdc6c59c771dfc78c302194b1b54741538836c82dc2c40e65b9bc3ab"),
    ("unit_directed", 9, 1, 3): (
        (1, 0, 1, 0, 64), (0, 18, 18, 0, 1152),
        "bda57e4b50e83a236b2177231a7a33a4c8dae67d9b1b32a7f43782c88f6572a3"),
    ("unit_directed", 100, 37, 0): (
        (58, 0, 58, 0, 3712), (0, 1850, 1850, 0, 118400),
        "dc2d8249d413c4d615725e15f6af4e2dfa77657b4fa2089e8d02de5624b51b90"),
    ("unit_directed", 100, 37, 1): (
        (58, 0, 58, 0, 3712), (0, 1850, 1850, 0, 118400),
        "a7206ab3e8c40b0fcbcb97d8d7567b5973161b4ab5581785bfe1d9a75085a00b"),
    ("unit_directed", 100, 37, 2): (
        (58, 0, 58, 0, 3712), (0, 2800, 2800, 0, 179200),
        "802f07c978b6aae3e99bddbaa8c5d883bc9f1f7e6d84737858eb4d68bae2fa4f"),
    ("unit_directed", 100, 37, 3): (
        (58, 0, 58, 0, 3712), (0, 3404, 3404, 0, 217856),
        "a773a8923586c86d17aa49b48e8320b8c0995b92dfbe9faa6ded4acf39febf70"),
    ("weighted_dag", 16, 16, 0): (
        (256, 0, 256, 0, 16384), (0, 256, 256, 0, 16384),
        "53c3365d3ee0ff145edc39a832cd8007b10f797a6502e078a6ce47ee5f377dd3"),
    ("weighted_dag", 16, 16, 1): (
        (256, 0, 256, 0, 16384), (0, 256, 256, 0, 16384),
        "f760ea0d89b1d05f49935f67db27b0bcbd1d7d6ca52d3ac1c7cf79fa152487a2"),
    ("weighted_dag", 16, 16, 2): (
        (256, 0, 256, 0, 16384), (0, 384, 384, 0, 24576),
        "fd98618c0055910f8ecd2c7720dac781c28debc10e23c7a2aa7ce95c0f6bd53a"),
    ("weighted_dag", 16, 16, 3): (
        (256, 0, 256, 0, 16384), (0, 448, 448, 0, 28672),
        "b9255e8ca08439b7b7acef7516d1784754d55f04714942db7026418b9ce8b902"),
    ("weighted_dag", 13, 7, 0): (
        (91, 0, 91, 0, 5824), (0, 91, 91, 0, 5824),
        "b8c5ff962b6cdd0e57a680799ded1ed0049f07fb0caa76ef5221f4eee9dff82a"),
    ("weighted_dag", 13, 7, 1): (
        (91, 0, 91, 0, 5824), (0, 91, 91, 0, 5824),
        "39b0201e721da381cac4d6805602e3370e9db3c9f65f5540a0ebec6364c215d1"),
    ("weighted_dag", 13, 7, 2): (
        (91, 0, 91, 0, 5824), (0, 146, 146, 0, 9344),
        "3a62ae32e2db7af6e52166e02ca48798c28aba7eab11bcf1443531fd69ed0e86"),
    ("weighted_dag", 13, 7, 3): (
        (91, 0, 91, 0, 5824), (0, 184, 184, 0, 11776),
        "efb388211397c792b95c829759f972bd97e816ac6b788c0927cd8fab816c9fe7"),
    ("weighted_dag", 1, 9, 0): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "831cc5d6d002398a002a2d799b44411bbda8f86a71aa0489fa2dc976aad7074f"),
    ("weighted_dag", 1, 9, 1): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "b8bad49c3098edca5d7c8d66b52afdc62448bcd12633ea9354d097244d03956a"),
    ("weighted_dag", 1, 9, 2): (
        (9, 0, 9, 0, 576), (0, 18, 18, 0, 1152),
        "e62429e361dcc5dc58a6cb417c2f04010c97f2367fc6873369f934d0c29e93ac"),
    ("weighted_dag", 1, 9, 3): (
        (9, 0, 9, 0, 576), (0, 36, 36, 0, 2304),
        "6497a58f26c021e3120e80b568a7646e94e826cfa3c54d34f61e3982b8bc06bb"),
    ("weighted_dag", 9, 1, 0): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "004f23461276a82b2b83e62d95a985f115bf3c101e5d75cd4abfbf2aa9be9bd8"),
    ("weighted_dag", 9, 1, 1): (
        (9, 0, 9, 0, 576), (0, 9, 9, 0, 576),
        "92797abadeed7d1d6c988378d39d8382c9081ab45eb09eccdd3687b9308184d5"),
    ("weighted_dag", 9, 1, 2): (
        (9, 0, 9, 0, 576), (0, 18, 18, 0, 1152),
        "d4dd00678d74a52c9b04046811450ceea0224496c2a93e8eefdbe0751a8d2eb4"),
    ("weighted_dag", 9, 1, 3): (
        (9, 0, 9, 0, 576), (0, 36, 36, 0, 2304),
        "6497a58f26c021e3120e80b568a7646e94e826cfa3c54d34f61e3982b8bc06bb"),
    ("weighted_dag", 100, 37, 0): (
        (3700, 0, 3700, 0, 236800), (0, 3700, 3700, 0, 236800),
        "5c614a4bc4ab109ac9bb70fa8a59d835fc72091c79a1979642e0038112b3c4f8"),
    ("weighted_dag", 100, 37, 1): (
        (3700, 0, 3700, 0, 236800), (0, 3700, 3700, 0, 236800),
        "e54a98f168e300bf54fc763e30cda0d08c5d0814603145d83815050e13a14c93"),
    ("weighted_dag", 100, 37, 2): (
        (3700, 0, 3700, 0, 236800), (0, 5600, 5600, 0, 358400),
        "56985f98a0e6ce8fce4a5764728a43bb99bbcad0f05a7348dbfd6e0b6664886c"),
    ("weighted_dag", 100, 37, 3): (
        (3700, 0, 3700, 0, 236800), (0, 6808, 6808, 0, 435712),
        "47542439a058b5edf15e725b44843a515fd0312bd8901915decd59be0f7a1b9f"),
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


@pytest.mark.parametrize("case", sorted(RECORDED_CHUNK_FILES))
def test_chunk_files_unchanged(case):
    d, out = run_case(case)
    got = []
    for suffix in CHUNK_FILES[case[0]]:
        name = out.name + suffix
        handle = FileHandle(d._names[name], name, d)
        c = d.file_counters(handle)
        got.append(((c.blocks_read, c.blocks_written, c.sequential_blocks,
                     c.random_blocks, c.bytes_transferred),
                    hashlib.sha256(d.raw_bytes(handle)).hexdigest()))
    assert tuple(got) == RECORDED_CHUNK_FILES[case]


def separator_input(disk, model, rows, cols):
    if model == "dense_digraph":
        return dense_digraph(disk, rows, cols, 1, p=1.0)
    return gf.generate(disk, rows, cols, model, seed=1, density=0.6)


@pytest.mark.parametrize("case", sorted(RECORDED_SEPARATOR_FILES))
def test_separator_file_unchanged(case):
    model, rows, cols, h = case
    d = make_disk()
    g = separator_input(d, model, rows, cols)
    d.reset_counters()
    gp = cl.build_separator_graph(g, h)
    got = []
    for handle in (g.handle, gp.handle):
        c = d.file_counters(handle)
        got.append((c.blocks_read, c.blocks_written, c.sequential_blocks,
                    c.random_blocks, c.bytes_transferred))
    got.append(hashlib.sha256(d.raw_bytes(gp.handle)).hexdigest())
    assert tuple(got) == RECORDED_SEPARATOR_FILES[case]
