"""Analytic I/O-volume model for the grid algorithms.

Each algorithm's transfer volume is expressed as a list of phases, each an
exact rational multiple of n bytes, parameterized in the block size B and the
cluster level h.  Random access to one record per separator vertex costs a
whole block, which contributes 4nB/2^h bytes; the remaining terms are file
sizes fixed by the encodings.  The headline figure is the relative I/O
volume: total bytes transferred divided by the combined size of the input
and output files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class CostModelError(Exception):
    pass


@dataclass
class IoCostReport:
    """Per-phase transfer volumes, all in units of n bytes."""
    algorithm: str
    n: int
    memory_bytes: int
    block_bytes: int
    h: int
    phases: list                      # (phase name, Fraction volume / n)
    io_size: Fraction                 # (input + output) / n
    estimate: bool = False            # True for back-of-envelope baselines

    @property
    def total(self) -> Fraction:
        return sum((v for _, v in self.phases), Fraction(0))

    @property
    def ratio(self) -> Fraction:
        return self.total / self.io_size

    @property
    def predicted_bytes(self) -> Fraction:
        return self.total * self.n

    def as_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "memory_bytes": self.memory_bytes,
            "block_bytes": self.block_bytes,
            "h": self.h,
            "phases": [{"phase": p, "volume_over_n": str(v)}
                       for p, v in self.phases],
            "total_over_n": str(self.total),
            "io_size_over_n": str(self.io_size),
            "ratio": str(self.ratio),
            "ratio_float": float(self.ratio),
            "estimate": self.estimate,
        }


# bytes per cluster vertex of the largest per-cluster working set each
# cluster-based algorithm keeps in memory at once (decoded cluster +
# per-boundary state + queues): a 2^h cluster needs WORKING_SET[alg] * 4^h
WORKING_SET = {
    "sssp": 128,
    "bfs": 96,
    "mst_cache_aware": 96,
    "toposort": 3,
    "tfp": 32,
    "euler": 2,
}

ALGORITHMS = ("sssp", "bfs", "mst_cache_aware", "mst_cache_oblivious",
              "toposort", "tfp", "euler", "tfp_pq_baseline")


def _random_unit(B: int, h: int) -> Fraction:
    """Bytes per n of touching one block per separator vertex: 4nB/2^h."""
    return Fraction(4 * B, 2 ** h)


def volume_model(alg: str, n: int, M: int, B: int, h: int) -> IoCostReport:
    """Phase-by-phase transfer volume of one algorithm at the given machine
    parameters; exact rational arithmetic throughout."""
    if alg not in ALGORITHMS:
        raise CostModelError("unknown algorithm %r" % (alg,))
    if n < 1 or M < 1 or B < 1:
        raise CostModelError("n, M and B must be positive")
    if h < 0 or WORKING_SET.get(alg, 0) * 4 ** h > M:
        raise CostModelError("h=%d inadmissible for %s with %d bytes of memory"
                             % (h, alg, M))
    F = Fraction
    ru = _random_unit(B, h)

    if alg == "sssp":
        # input 64n (8 weights of 8 bytes per vertex), output 8n distances,
        # condensed graph 128n; the distance table costs four block touches
        # per condensed adjacency list (read+write, two blocks each).
        # One assumption is not met at h = 4.  A settle loads the distance
        # range of its own cluster and of every other cluster its edges
        # reach, and its dirty blocks are written back when the next step
        # no longer touches them.  A range of 32 * (2^h - 1) bytes fits one
        # block up to h = 3 at B = 2^8, so the own cluster and one
        # neighbour fit the four touches.  At h = 4 the own range alone
        # takes them, and each neighbour costs up to four more, fewer when
        # consecutive steps share blocks.  Measured on dense random digraphs
        # from a source reaching half the grid, n = 2^10..2^14: 0.67-0.80x
        # this model at h = 2 and 3, and 0.81-0.99x at h = 4, rising with
        # n, with 4.4 distance-table blocks per settle at n = 2^14.
        phases = [
            ("build condensed graph: read input, write lists", F(64 + 128)),
            ("relax: read lists once, update distance table", F(128) + 4 * ru),
            ("expand: read input and distance table, write output", F(64 + 8)),
        ]
        io = F(64 + 8)

    elif alg == "bfs":
        # unit weights pack the input into n bytes and halve the condensed
        # graph to 64n; the build and the expansion each read the input
        # once, and the expansion hands its distances to the chunk cut, so
        # no file of final distances is written.  The ordering pass pays one
        # block per chunk start.  The distance table's four touches per list
        # hold as for sssp, up to h = 3.  Measured on unit_directed at
        # density 0.6 from a source reaching half the grid, n = 2^10..2^14:
        # 0.33-0.45x this model at h = 2 and 3, and 0.38-0.53x at h = 4,
        # where relaxations into neighbour clusters cost more than the four
        # touches.
        phases = [
            ("distances: build and relax condensed graph",
             F(1 + 64) + (F(64) + 4 * ru) + F(1)),
            ("cut clusters into chunks: write chunk file", F(1)),
            ("emit: chunk starts, stack traffic, output",
             F(1) + Fraction(5 * B, 2 ** h) + F(16 + 8)),
        ]
        io = F(1 + 8)

    elif alg == "mst_cache_aware":
        # the contracted union fits in memory once its 1024n/2^h bytes do;
        # then the middle phase needs no non-sequential I/O at all
        if Fraction(1024 * n, 2 ** h) <= M:
            middle = F(0)
        else:
            # per contracted vertex: one access to its record, two along
            # tree edges, one along a cross edge -> 28n/2^h block touches
            middle = Fraction(28 * B, 2 ** h)
        phases = [
            ("per-cluster forests: read input, write contracted union",
             F(32)),
            ("global tree over contracted union", middle),
            ("expand: re-read input, write tree", F(32 + 32)),
        ]
        io = F(32 + 32)

    elif alg == "mst_cache_oblivious":
        # connections stack stays resident; the expansions stack spills at
        # most two 24-byte edges per vertex, written and read once
        phases = [
            ("read input once in recursion order", F(32)),
            ("expansions stack spill (write + read)", F(96)),
            ("write output once in recursion order", F(32)),
        ]
        io = F(32 + 32)

    elif alg == "toposort":
        # the chunk file is exactly 4n bytes: one 32-bit id per vertex
        phases = [
            ("build separator reachability graph", F(1 + 2)),
            ("number separator vertices (one block each)", ru),
            ("cut clusters into chunks", F(1 + 4)),
            ("emit: chunk starts, chunk file, output", ru + F(4 + 8)),
        ]
        io = F(1 + 8)

    elif alg == "tfp":
        # the label file is written once, 12n, in evaluation order while
        # chunks are processed; the rewrite gathers each cluster's labels
        # with one read per chunk, whose at most one extra block falls under
        # the processing phase's per-chunk random unit
        phases = [
            ("build separator reachability graph", F(1 + 2)),
            ("number separator vertices (one block each)", ru),
            ("plan chunks and message addresses", F(1 + 42)),
            ("process chunks: records, labels, messages, slot blocks",
             F(42 + 12 + 24) + 6 * ru),
            ("rewrite labels into final order", F(12 + 8)),
        ]
        io = F(1 + 8)

    elif alg == "euler":
        # direction bytes make the tour output 2n; entry/exit maps are tiny;
        # one scan reads the input, builds the maps and checks the tree; the
        # segment file is one byte per tour step inside a cluster, no header
        phases = [
            ("build entry/exit maps: read input", F(1)),
            ("number segments (one block each)", ru),
            ("write segment file", F(1 + 2)),
            ("compose tour: segment starts, segments, output", ru + F(2 + 2)),
        ]
        io = F(1 + 2)

    else:                             # tfp_pq_baseline
        # rough estimate: three-pass sort to topological order, priority
        # queue traffic at three disk round trips per message, sorted output
        phases = [
            ("sort input into topological order (three passes)", F(209)),
            ("process with external priority queue", F(344)),
            ("sort labelled output (three passes)", F(88)),
        ]
        io = F(1 + 8)
        return IoCostReport(alg, n, M, B, h, phases, io, estimate=True)

    return IoCostReport(alg, n, M, B, h, phases, io)


def default_h(alg: str, memory_bytes: int) -> int:
    """Largest admissible cluster level for the algorithm's working set.

    Takes the memory size directly: the model also covers machines that do
    not satisfy the simulator's tall-cache requirement.
    """
    per_vertex = WORKING_SET.get(alg)
    if per_vertex is None:
        return 0
    h = 0
    while per_vertex * 4 ** (h + 1) <= memory_bytes:
        h += 1
    return h


def format_table(report: IoCostReport) -> str:
    """Human-readable walkthrough of one report."""
    lines = []
    lines.append("%s  (n=%d, M=%d, B=%d, h=%d)%s" % (
        report.algorithm, report.n, report.memory_bytes, report.block_bytes,
        report.h, "  [estimate]" if report.estimate else ""))
    width = max(len(p) for p, _ in report.phases)
    for p, v in report.phases:
        lines.append("  %-*s  %10s n" % (width, p, v))
    lines.append("  %-*s  %10s n" % (width, "total", report.total))
    lines.append("  %-*s  %10s n" % (width, "input + output", report.io_size))
    lines.append("  %-*s  %10s  (%.3f)" % (
        width, "relative I/O volume", report.ratio, float(report.ratio)))
    return "\n".join(lines)
