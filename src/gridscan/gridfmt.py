"""Grid-graph file formats, storage orders, and instance generators.

A grid graph lives on an r x c lattice; every edge connects a vertex to one
of its eight neighbours.  Three storage orders are supported (row-major,
column-major, Z-order) and three on-disk encodings:

* ``unweighted``          1 byte per vertex: a mask of outgoing directions.
* ``weighted_directed``   64 bytes per vertex: eight 64-bit weights, one per
                          direction, with all-ones meaning "no edge".
* ``weighted_undirected`` 32 bytes per vertex: four 64-bit weights for the
                          slots E, SE, S, SW; each edge is stored only at its
                          left (for vertical edges: top) endpoint.

Direction bits run clockwise from north: N, NE, E, SE, S, SW, W, NW.

Every file starts with a fixed header (padded to a block boundary):
magic ``GGIO``, version u16, order u8, encoding u8, rows u32, cols u32,
count u64, all little-endian.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .simdisk import SimDisk, FileHandle, SimDiskError

# direction codes, clockwise from north
N, NE, E, SE, S, SW, W, NW = range(8)
DIR_OFFSETS = (
    (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1),
)
OWNED_SLOTS = (E, SE, S, SW)       # weighted_undirected storage slots

ABSENT = 2 ** 64 - 1               # reserved "no edge / infinity" weight

ROW_MAJOR, COL_MAJOR, Z_ORDER = "row_major", "col_major", "z_order"
_ORDER_CODES = {ROW_MAJOR: 0, COL_MAJOR: 1, Z_ORDER: 2}
_ORDER_NAMES = {v: k for k, v in _ORDER_CODES.items()}

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


def coord_to_index(order: str, rows: int, cols: int, row: int, col: int) -> int:
    """Vertex index of 1-based (row, col) under a storage order."""
    if not (1 <= row <= rows and 1 <= col <= cols):
        raise FormatError("coordinate (%d,%d) outside %dx%d grid" % (row, col, rows, cols))
    r, c = row - 1, col - 1
    if order == ROW_MAJOR:
        return r * cols + c
    if order == COL_MAJOR:
        return c * rows + r
    if order == Z_ORDER:
        return int(z_tables(rows, cols)[0][r * cols + c])
    raise FormatError("unknown order %r" % order)


def index_to_coord(order: str, rows: int, cols: int, index: int) -> tuple[int, int]:
    if not (0 <= index < rows * cols):
        raise FormatError("index %d outside grid" % index)
    if order == ROW_MAJOR:
        return index // cols + 1, index % cols + 1
    if order == COL_MAJOR:
        return index % rows + 1, index // rows + 1
    if order == Z_ORDER:
        cell = int(z_tables(rows, cols)[1][index])
        return cell // cols + 1, cell % cols + 1
    raise FormatError("unknown order %r" % order)


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
        hdr = pack_header(self.order, self.encoding, self.rows, self.cols,
                          self.count)
        self.disk.write_direct(self.handle, 0, hdr.ljust(self.payload_offset, b"\0"))


def pack_header(order, encoding, rows, cols, count) -> bytes:
    """The unpadded header, ``_HEADER.size`` bytes long, for offset 0."""
    return _HEADER.pack(MAGIC, VERSION, _ORDER_CODES[order],
                        _ENC_CODES[encoding], rows, cols, count)


def _header_span(disk: SimDisk) -> int:
    """Bytes before the payload: the header padded to a block boundary."""
    b = disk.config.block_bytes
    return -(-HEADER_BYTES // b) * b


def write_header_via(stream, disk, order, encoding, rows, cols, count):
    """Emit a header through an append stream (keeps output fully sequential)."""
    hdr = pack_header(order, encoding, rows, cols, count)
    stream.write(hdr.ljust(_header_span(disk), b"\0"))


def open_grid(disk: SimDisk, handle: FileHandle) -> GridGraph:
    raw = disk.raw_bytes(handle)
    if len(raw) < _header_span(disk):
        raise FormatError("file too short for header")
    magic, version, order_c, enc_c, rows, cols, count = _HEADER.unpack(raw[:_HEADER.size])
    if magic != MAGIC:
        raise FormatError("bad magic")
    if version != VERSION:
        raise FormatError("unsupported format version %d" % version)
    if order_c not in _ORDER_NAMES or enc_c not in _ENC_NAMES:
        raise FormatError("bad header codes")
    g = GridGraph(disk, handle, _ORDER_NAMES[order_c], _ENC_NAMES[enc_c],
                  rows, cols, count)
    if g.encoding in VERTEX_ENCODINGS and count != g.n:
        raise FormatError("header count %d is not rows x cols = %d"
                          % (count, g.n))
    if g.record_offset(count) > disk.content_length(handle):
        raise FormatError("file ends before its %d records of %d bytes"
                          % (count, g.record_size))
    return g


def check_input(g: GridGraph, encodings, error=FormatError):
    """Reject, as the caller's ``error``, a graph whose encoding is not one of
    ``encodings`` or that is not stored in Z-order."""
    if g.encoding not in encodings:
        raise error("input must use the %s encoding" % " or ".join(encodings))
    if g.order != Z_ORDER:
        raise error("input must be in z_order")


def read_u64_payload(disk: SimDisk, handle: FileHandle) -> list[int]:
    """The payload of an 8-byte-record file (distances, labels, vertex
    sequences) as integers; uncounted.  ABSENT marks a missing value."""
    g = open_grid(disk, handle)
    return np.frombuffer(disk.raw_bytes(handle), "<u8", g.count,
                         g.payload_offset).tolist()


# ---------------------------------------------------------------------------
# Record access


def read_vertex(g: GridGraph, index: int):
    """Decode one vertex record: (direction mask, {direction: weight}).

    For weighted_undirected only the four owned slots appear; counted via the
    block cache.
    """
    if not (0 <= index < g.n):
        raise FormatError("vertex index out of range")
    raw = g.disk.read(g.handle, g.record_offset(index), g.record_size)
    return decode_record(g.encoding, raw)


def decode_record(encoding: str, raw: bytes):
    if encoding == "unweighted":
        return raw[0], {}
    if encoding == "weighted_directed":
        weights = {}
        mask = 0
        for d in range(8):
            w = int.from_bytes(raw[d * 8:(d + 1) * 8], "little")
            if w != ABSENT:
                mask |= 1 << d
                weights[d] = w
        return mask, weights
    if encoding == "weighted_undirected":
        weights = {}
        mask = 0
        for slot, d in enumerate(OWNED_SLOTS):
            w = int.from_bytes(raw[slot * 8:(slot + 1) * 8], "little")
            if w != ABSENT:
                mask |= 1 << d
                weights[d] = w
        return mask, weights
    raise FormatError("not a vertex encoding: %r" % encoding)


def encode_record(encoding: str, mask: int, weights: dict[int, int]) -> bytes:
    if encoding == "unweighted":
        return bytes([mask])
    if encoding == "weighted_directed":
        out = bytearray()
        for d in range(8):
            w = weights[d] if mask >> d & 1 else ABSENT
            out += w.to_bytes(8, "little")
        return bytes(out)
    if encoding == "weighted_undirected":
        out = bytearray()
        for d in OWNED_SLOTS:
            w = weights[d] if mask >> d & 1 else ABSENT
            out += w.to_bytes(8, "little")
        return bytes(out)
    raise FormatError("not a vertex encoding: %r" % encoding)


def convert_order(g: GridGraph, target_order: str, name: str) -> GridGraph:
    """Permute a graph file into another storage order.

    Walks the grid in Z-order so both the source and the target positions
    have spatial locality under the block cache.
    """
    if target_order == g.order:
        raise FormatError("source and target order coincide")
    disk, rows, cols = g.disk, g.rows, g.cols
    out_handle = disk.open_file(name)
    out = GridGraph(disk, out_handle, target_order, g.encoding, rows, cols, g.count)
    out.write_header()
    rs = g.record_size
    _, cell_of_z = z_tables(rows, cols)
    for z in range(rows * cols):
        cell = int(cell_of_z[z])
        row, col = cell // cols + 1, cell % cols + 1
        si = coord_to_index(g.order, rows, cols, row, col)
        ti = coord_to_index(target_order, rows, cols, row, col)
        rec = disk.read(g.handle, g.record_offset(si), rs)
        disk.write(out_handle, out.record_offset(ti), rec)
    disk.flush()
    return out


# ---------------------------------------------------------------------------
# Uncounted whole-graph decoding (oracles and in-memory phases)


def neighbors(rows: int, cols: int, r: int, c: int):
    """Valid (direction, row, col) triples around 0-based (r, c)."""
    for d, (dr, dc) in enumerate(DIR_OFFSETS):
        nr, nc = r + dr, c + dc
        if 0 <= nr < rows and 0 <= nc < cols:
            yield d, nr, nc


def decode_all(g: GridGraph):
    """All records decoded from raw bytes, indexed by storage index. Uncounted."""
    raw = g.disk.raw_bytes(g.handle)
    rs, off = g.record_size, g.payload_offset
    return [decode_record(g.encoding, raw[off + i * rs: off + (i + 1) * rs])
            for i in range(g.n)]


def adjacency(g: GridGraph):
    """Directed adjacency {(r,c): [(dir, r2, c2, weight)]}, 0-based, uncounted.

    Undirected encodings are expanded to both directions (weight kept);
    unweighted edges get weight 1.
    """
    records = decode_all(g)
    rows, cols = g.rows, g.cols
    undirected = g.encoding == "weighted_undirected"
    adj: dict[tuple[int, int], list] = {(r, c): [] for r in range(rows) for c in range(cols)}
    for r in range(rows):
        for c in range(cols):
            idx = coord_to_index(g.order, rows, cols, r + 1, c + 1)
            mask, weights = records[idx]
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
             distinct_weights: bool = False, density: float = 0.5,
             order: str = Z_ORDER) -> GridGraph:
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
    g = GridGraph(disk, handle, order, encoding, rows, cols, n)
    g.write_header()
    stream = disk.append_stream(handle, g.payload_offset)
    for idx in range(n):
        row, col = index_to_coord(order, rows, cols, idx)
        i = cell(row - 1, col - 1)
        stream.write(encode_record(encoding, masks[i], weights[i]))
    stream.close()
    return g
