"""Grid-graph file formats, the Z-order layout, and instance generators.

A grid graph lives on an r x c lattice; every edge connects a vertex to one
of its eight neighbours.  Z-order is the one storage order: every aligned
2^h x 2^h cluster is then one contiguous byte range, which every algorithm
relies on.  ``GridGraph`` is the one place that checks the order and
rejects any other.  There are three on-disk vertex encodings:

* ``unweighted``          1 byte per vertex: a mask of outgoing directions.
* ``weighted_directed``   64 bytes per vertex: eight 64-bit weights, one per
                          direction, with all-ones meaning "no edge".
* ``weighted_undirected`` 32 bytes per vertex: four 64-bit weights for the
                          slots E, SE, S, SW; each edge is stored only at its
                          left (for vertical edges: top) endpoint.

Direction bits run clockwise from north: N, NE, E, SE, S, SW, W, NW.

Every file starts with a fixed header (padded to a block boundary):
magic ``GGIO``, version u16, order u8 (always 2, Z-order), encoding u8,
rows u32, cols u32, count u64, all little-endian.  Every algorithm opens
its result file, header written, with ``open_result``.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simdisk import SimDisk, FileHandle

# direction codes, clockwise from north
N, NE, E, SE, S, SW, W, NW = range(8)
DIR_OFFSETS = (
    (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1),
)
OWNED_SLOTS = (E, SE, S, SW)       # weighted_undirected storage slots

ABSENT = 2 ** 64 - 1               # reserved "no edge / infinity" weight

Z_ORDER = "z_order"
_Z_ORDER_CODE = 2                  # the header's order byte

ENCODINGS = {
    "unweighted": 1,
    "weighted_directed": 64,
    "weighted_undirected": 32,
    "distances": 8,
    "labels": 8,
    "vertex_seq": 8,
    "tour": 1,
    "edges": 24,
}
VERTEX_ENCODINGS = ("unweighted", "weighted_directed", "weighted_undirected")
_ENC_CODES = {name: i for i, name in enumerate(ENCODINGS)}
_ENC_NAMES = {v: k for k, v in _ENC_CODES.items()}

MAGIC = b"GGIO"
VERSION = 1
_HEADER = struct.Struct("<4sHBBIIQ")
HEADER_BYTES = 32                  # struct size 24, padded for alignment


class FormatError(Exception):
    pass


def opposite(d: int) -> int:
    return (d + 4) % 8


# ---------------------------------------------------------------------------
# Z-order tables


def _part1by1(x: np.ndarray) -> np.ndarray:
    # spread the low 16 bits of x to the even bit positions
    x = x.astype(np.uint64)
    x = (x | (x << 8)) & np.uint64(0x00FF00FF)
    x = (x | (x << 4)) & np.uint64(0x0F0F0F0F)
    x = (x | (x << 2)) & np.uint64(0x33333333)
    x = (x | (x << 1)) & np.uint64(0x55555555)
    return x


def morton_code(row, col):
    """Quadrant-recursion code: TL, TR, BL, BR order on the padded square."""
    r = _part1by1(np.asarray(row))
    c = _part1by1(np.asarray(col))
    return (r << np.uint64(1)) | c


@lru_cache(maxsize=256)
def z_tables(rows: int, cols: int):
    """(z_of_cell, cell_of_z) arrays for a grid, 0-based row-major cells.

    The Z rank of a cell is its position among in-grid cells sorted by the
    padded-square quadrant code, so padding positions are skipped and every
    aligned square cluster stays contiguous.
    """
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    codes = morton_code(rr.ravel(), cc.ravel())
    cell_of_z = np.argsort(codes, kind="stable").astype(np.int64)
    z_of_cell = np.empty(rows * cols, dtype=np.int64)
    z_of_cell[cell_of_z] = np.arange(rows * cols)
    return z_of_cell, cell_of_z


# ---------------------------------------------------------------------------
# GridGraph container


@dataclass
class GridGraph:
    disk: SimDisk
    handle: FileHandle
    order: str
    encoding: str
    rows: int
    cols: int
    count: int = 0            # payload record count (n for vertex encodings)

    def __post_init__(self):
        if self.order != Z_ORDER:
            raise FormatError("storage order must be z_order, not %r"
                              % (self.order,))

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def record_size(self) -> int:
        return ENCODINGS[self.encoding]

    @property
    def payload_offset(self) -> int:
        return _header_span(self.disk)

    def record_offset(self, index: int) -> int:
        return self.payload_offset + index * self.record_size

    def write_header(self):
        hdr = pack_header(self.encoding, self.rows, self.cols, self.count)
        self.disk.write_direct(self.handle, 0, hdr.ljust(self.payload_offset, b"\0"))


def pack_header(encoding, rows, cols, count) -> bytes:
    """The unpadded header, ``_HEADER.size`` bytes long, for offset 0."""
    return _HEADER.pack(MAGIC, VERSION, _Z_ORDER_CODE, _ENC_CODES[encoding],
                        rows, cols, count)


def _header_span(disk: SimDisk) -> int:
    """Bytes before the payload: the header padded to a block boundary."""
    b = disk.config.block_bytes
    return -(-HEADER_BYTES // b) * b


def open_result(disk: SimDisk, name: str, encoding: str, rows: int,
                cols: int, count: int):
    """``(handle, stream)`` of a new result file ``name``, whose append
    stream has written the padded header: outputs are fully sequential."""
    handle = disk.open_file(name)
    stream = disk.append_stream(handle)
    stream.write(pack_header(encoding, rows, cols, count)
                 .ljust(_header_span(disk), b"\0"))
    return handle, stream


def open_grid(disk: SimDisk, handle: FileHandle) -> GridGraph:
    raw = disk.raw_bytes(handle)
    if len(raw) < _header_span(disk):
        raise FormatError("file too short for header")
    magic, version, order_c, enc_c, rows, cols, count = _HEADER.unpack(raw[:_HEADER.size])
    if magic != MAGIC:
        raise FormatError("bad magic")
    if version != VERSION:
        raise FormatError("unsupported format version %d" % version)
    if order_c != _Z_ORDER_CODE or enc_c not in _ENC_NAMES:
        raise FormatError("bad header codes")
    g = GridGraph(disk, handle, Z_ORDER, _ENC_NAMES[enc_c], rows, cols, count)
    if g.encoding in VERTEX_ENCODINGS and count != g.n:
        raise FormatError("header count %d is not rows x cols = %d"
                          % (count, g.n))
    if g.record_offset(count) > disk.content_length(handle):
        raise FormatError("file ends before its %d records of %d bytes"
                          % (count, g.record_size))
    return g


def check_input(g: GridGraph, encodings, error=FormatError):
    """Reject, as the caller's ``error``, a graph whose encoding is not one of
    ``encodings``."""
    if g.encoding not in encodings:
        raise error("input must use the %s encoding" % " or ".join(encodings))


def read_u64_payload(disk: SimDisk, handle: FileHandle) -> list[int]:
    """The payload of an 8-byte-record file (distances, labels, vertex
    sequences) as integers; uncounted.  ABSENT marks a missing value."""
    g = open_grid(disk, handle)
    return np.frombuffer(disk.raw_bytes(handle), "<u8", g.count,
                         g.payload_offset).tolist()


# ---------------------------------------------------------------------------
# Record encoding


_WEIGHT_SLOTS = {                  # one u64 per slot, in direction order
    "weighted_directed": (struct.Struct("<8Q"), tuple(range(8))),
    "weighted_undirected": (struct.Struct("<4Q"), OWNED_SLOTS),
}
_SLOT_DIRS = {enc: np.array(dirs) for enc, (_, dirs) in _WEIGHT_SLOTS.items()}


def decode_record(encoding: str, raw: bytes, count: int):
    """``(t, d, w)`` arrays of the arcs stored in a run of ``count`` vertex
    records, in (record, direction) order: the record's index in the run,
    the arc's direction and its weight, 1 for unweighted arcs.

    The one payload reader of the algorithms.  A run that is not ``count``
    records long is a ``FormatError``.
    """
    if encoding not in VERTEX_ENCODINGS:
        raise FormatError("not a vertex encoding: %r" % encoding)
    if len(raw) != count * ENCODINGS[encoding]:
        raise FormatError("%s run of %d bytes, not %d records of %d"
                          % (encoding, len(raw), count, ENCODINGS[encoding]))
    if encoding == "unweighted":
        masks = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1)
        t, d = np.nonzero(np.unpackbits(masks, axis=1, bitorder="little"))
        return t, d, np.ones(len(t), dtype=np.int64)
    dirs = _SLOT_DIRS[encoding]
    ws = np.frombuffer(raw, dtype="<u8").reshape(count, len(dirs))
    t, slot = np.nonzero(ws != ABSENT)
    return t, dirs[slot], ws[t, slot]


def encode_record(encoding: str, mask: int, weights: dict[int, int]) -> bytes:
    if encoding == "unweighted":
        return bytes([mask])
    if encoding not in _WEIGHT_SLOTS:
        raise FormatError("not a vertex encoding: %r" % encoding)
    out = bytearray()
    for d in _WEIGHT_SLOTS[encoding][1]:
        w = weights[d] if mask >> d & 1 else ABSENT
        out += w.to_bytes(8, "little")
    return bytes(out)


# ---------------------------------------------------------------------------
# Uncounted whole-graph decoding (oracles and in-memory phases)


def decode_all(g: GridGraph):
    """``(mask, {direction: weight})`` of every record, indexed by Z index.
    Uncounted.

    It decodes one record at a time with ``struct``, apart from
    ``decode_record``, so the oracles that read it check the algorithms'
    reader instead of sharing it.
    """
    if g.encoding not in VERTEX_ENCODINGS:
        raise FormatError("not a vertex encoding: %r" % g.encoding)
    off = g.payload_offset
    payload = g.disk.raw_bytes(g.handle)[off:off + g.n * g.record_size]
    if g.encoding == "unweighted":
        return [(mask, {}) for mask in payload]
    fmt, dirs = _WEIGHT_SLOTS[g.encoding]
    return [_record(dirs, ws) for ws in fmt.iter_unpack(payload)]


def _record(dirs, ws):
    weights = {d: w for d, w in zip(dirs, ws) if w != ABSENT}
    mask = 0
    for d in weights:
        mask |= 1 << d
    return mask, weights


def adjacency(g: GridGraph):
    """Directed adjacency {(r,c): [(dir, r2, c2, weight)]}, 0-based, uncounted.

    Undirected encodings are expanded to both directions (weight kept);
    unweighted edges get weight 1.
    """
    records = decode_all(g)
    rows, cols = g.rows, g.cols
    z_of_cell = z_tables(rows, cols)[0]
    undirected = g.encoding == "weighted_undirected"
    adj: dict[tuple[int, int], list] = {(r, c): [] for r in range(rows) for c in range(cols)}
    for r in range(rows):
        for c in range(cols):
            mask, weights = records[z_of_cell[r * cols + c]]
            for d in range(8):
                if not (mask >> d & 1):
                    continue
                dr, dc = DIR_OFFSETS[d]
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols):
                    raise FormatError("edge leaves the grid at (%d,%d)" % (r, c))
                w = weights.get(d, 1)
                adj[(r, c)].append((d, nr, nc, w))
                if undirected:
                    adj[(nr, nc)].append((opposite(d), r, c, w))
    return adj


# ---------------------------------------------------------------------------
# Instance generators

GEN_MODELS = ("weighted_dag", "weighted_undirected", "unit_directed", "tree",
              "planar_dag")


class _UnionFind:
    def __init__(self, n):
        self.p = list(range(n))

    def find(self, x):
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.p[ra] = rb
        return True


def _all_undirected_pairs(rows, cols):
    """Each 8-neighbour pair once, as (r, c, direction) at the owning endpoint."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            for d in OWNED_SLOTS:
                dr, dc = DIR_OFFSETS[d]
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    pairs.append((r, c, d))
    return pairs


def generate(disk: SimDisk, rows: int, cols: int, model: str, seed: int,
             name: str = "input", max_weight: int = 2 ** 20,
             distinct_weights: bool = False, density: float = 0.5
             ) -> GridGraph:
    """Deterministic random instance of the given model, written to a new file."""
    if rows <= 0 or cols <= 0:
        raise FormatError("rows and cols must be positive")
    if model not in GEN_MODELS:
        raise FormatError("unknown model %r" % model)
    rng = random.Random(seed)
    n = rows * cols
    masks = [0] * n            # row-major cell -> direction mask
    weights: list[dict[int, int]] = [dict() for _ in range(n)]

    def cell(r, c):
        return r * cols + c

    def rand_w():
        return rng.randrange(0, max_weight + 1)

    if model in ("weighted_undirected", "tree"):
        pairs = _all_undirected_pairs(rows, cols)
        rng.shuffle(pairs)
        uf = _UnionFind(n)
        chosen = []
        for r, c, d in pairs:
            dr, dc = DIR_OFFSETS[d]
            if uf.union(cell(r, c), cell(r + dr, c + dc)):
                chosen.append((r, c, d))
        if model == "weighted_undirected":
            tree_edges = set(chosen)
            for r, c, d in pairs:
                if (r, c, d) not in tree_edges and rng.random() < density * 0.5:
                    chosen.append((r, c, d))
        if distinct_weights:
            wlist = rng.sample(range(1, 8 * n + 1), len(chosen))
        else:
            wlist = [rand_w() for _ in chosen]
        for (r, c, d), w in zip(chosen, wlist):
            i = cell(r, c)
            masks[i] |= 1 << d
            weights[i][d] = w
        if model == "tree":
            # symmetric unweighted masks
            sym = [0] * n
            for r, c, d in chosen:
                dr, dc = DIR_OFFSETS[d]
                sym[cell(r, c)] |= 1 << d
                sym[cell(r + dr, c + dc)] |= 1 << opposite(d)
            masks = sym
            weights = [dict() for _ in range(n)]
        encoding = "unweighted" if model == "tree" else "weighted_undirected"

    elif model in ("weighted_dag", "planar_dag", "unit_directed"):
        prio = list(range(n))
        rng.shuffle(prio)
        for r in range(rows):
            for c in range(cols):
                for d in (E, S, SE, SW):
                    dr, dc = DIR_OFFSETS[d]
                    nr, nc = r + dr, c + dc
                    if not (0 <= nr < rows and 0 <= nc < cols):
                        continue
                    if model == "planar_dag" and d == SW:
                        # the SW diagonal of (r,c) crosses the same grid cell
                        # as the SE diagonal of (r,c-1); keep at most one,
                        # whichever endpoint ended up storing it
                        if (masks[cell(r, c - 1)] >> SE & 1
                                or masks[cell(r + 1, c)] >> NW & 1):
                            continue
                    if rng.random() >= density:
                        continue
                    i, j = cell(r, c), cell(nr, nc)
                    if model == "unit_directed":
                        src, dst, dd = (i, j, d) if rng.random() < 0.5 else (j, i, opposite(d))
                    elif prio[i] < prio[j]:
                        src, dst, dd = i, j, d
                    else:
                        src, dst, dd = j, i, opposite(d)
                    masks[src] |= 1 << dd
                    if model == "weighted_dag":
                        weights[src][dd] = rand_w()
        encoding = "weighted_directed" if model == "weighted_dag" else "unweighted"

    handle = disk.open_file(name)
    g = GridGraph(disk, handle, Z_ORDER, encoding, rows, cols, n)
    g.write_header()
    stream = disk.append_stream(handle, g.payload_offset)
    for i in z_tables(rows, cols)[1]:
        stream.write(encode_record(encoding, masks[i], weights[i]))
    stream.close()
    return g
