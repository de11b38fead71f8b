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
rows u32, cols u32, count u64, all little-endian.  ``generate`` and every
algorithm open their files, header written, with ``open_result``.
"""

from __future__ import annotations

import random
import struct
from array import array
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


_CHUNK = 1 << 14                   # records per payload write of generate


def _pairs(rows, cols, dirs):
    """``(tail, head, d)`` int32 columns of every pair of a cell (the tail,
    row-major ``r * cols + c``) and its in-grid neighbour (the head) in a
    direction ``d`` of ``dirs``: row-major by tail, then in ``dirs`` order."""
    r = np.arange(rows, dtype=np.int32)[:, None, None]
    c = np.arange(cols, dtype=np.int32)[None, :, None]
    dr, dc = np.array([DIR_OFFSETS[d] for d in dirs], dtype=np.int32).T
    hr, hc = r + dr, c + dc
    inside = (hr >= 0) & (hr < rows) & (hc >= 0) & (hc < cols)
    tail = np.broadcast_to(r * cols + c, inside.shape)[inside]
    d = np.broadcast_to(np.array(dirs, dtype=np.int32), inside.shape)[inside]
    return tail, (hr * cols + hc)[inside], d


def _masks(n, src, dirs):
    """The direction masks of ``n`` cells holding the arcs ``(src, dirs)``."""
    bits = np.zeros((n, 8), dtype=bool)
    bits[src, dirs] = True
    return np.packbits(bits, axis=1, bitorder="little").ravel()


def _spanning(rng, rows, cols, model, max_weight, distinct_weights, density):
    """``(encoding, records)`` of a ``weighted_undirected`` or ``tree``
    instance, records by row-major cell; see ``generate``."""
    n = rows * cols
    tail, head, d = _pairs(rows, cols, OWNED_SLOTS)
    order = list(range(len(tail)))
    rng.shuffle(order)
    order = np.array(order, dtype=np.int32)
    tail, head, d = tail[order], head[order], d[order]
    flags = bytearray(len(tail))       # 1: spanning tree, 2: extra edge
    parent = list(range(n))
    for k, (u, v) in enumerate(zip(memoryview(tail), memoryview(head))):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            flags[k] = 1
    if model == "tree":
        tree = np.frombuffer(flags, np.uint8) == 1
        tail, head, d = tail[tree], head[tree], d[tree]
        return "unweighted", _masks(n, np.concatenate((tail, head)),
                                    np.concatenate((d, opposite(d))))
    random, low = rng.random, density * 0.5
    for k, flag in enumerate(flags):
        if not flag and random() < low:
            flags[k] = 2
    flags = np.frombuffer(flags, np.uint8)
    chosen = np.concatenate((np.flatnonzero(flags == 1),
                             np.flatnonzero(flags == 2)))
    if distinct_weights:
        ws = rng.sample(range(1, 8 * n + 1), len(chosen))
    else:
        top = max_weight + 1
        ws = [rng.randrange(top) for _ in range(len(chosen))]
    records = np.full((n, len(OWNED_SLOTS)), ABSENT, dtype="<u8")
    # the slots E, SE, S, SW are the directions E..SW in order
    records[tail[chosen], d[chosen] - E] = np.array(ws, dtype=np.uint64)
    return "weighted_undirected", records


def _oriented(rng, rows, cols, model, max_weight, density):
    """``(encoding, records)`` of a ``weighted_dag``, ``planar_dag`` or
    ``unit_directed`` instance, records by row-major cell; see
    ``generate``."""
    n = rows * cols
    prio = list(range(n))
    rng.shuffle(prio)
    tail, head, d = _pairs(rows, cols, (E, S, SE, SW))
    count = len(tail)
    # lefts[k]: the pair whose keeping skips pair k, or the unkept ``count``
    lefts = np.full(count, count, dtype=np.int32)
    if model == "planar_dag":
        # the SW pair of (r, c) crosses the SE pair of (r, c - 1)
        se, sw = np.flatnonzero(d == SE), np.flatnonzero(d == SW)
        lefts[sw] = se[np.searchsorted(tail[se], tail[sw] - 1)]
    flags = bytearray(count + 1)       # 1: kept as listed, 2: kept reversed
    ws = array("Q")
    random, top = rng.random, max_weight + 1
    unit, weighted = model == "unit_directed", model == "weighted_dag"
    for k, left in enumerate(memoryview(lefts)):
        if flags[left] or random() >= density:
            continue
        if unit:
            flags[k] = 1 if random() < 0.5 else 2
        else:
            flags[k] = 1
            if weighted:
                ws.append(rng.randrange(top))
    flags = np.frombuffer(flags, np.uint8, count)
    kept = np.flatnonzero(flags)
    tail, head, d = tail[kept], head[kept], d[kept]
    if unit:
        forward = flags[kept] == 1
    else:
        prio = np.array(prio, dtype=np.int32)
        forward = prio[tail] < prio[head]
    src = np.where(forward, tail, head)
    d = np.where(forward, d, opposite(d))
    if not weighted:
        return "unweighted", _masks(n, src, d)
    records = np.full((n, 8), ABSENT, dtype="<u8")
    records[src, d] = np.frombuffer(ws, dtype=np.uint64)
    return "weighted_directed", records


def generate(disk: SimDisk, rows: int, cols: int, model: str, seed: int,
             name: str = "input", max_weight: int = 2 ** 20,
             distinct_weights: bool = False, density: float = 0.5
             ) -> GridGraph:
    """Deterministic random instance of the given model, written to a new
    file ``name``.

    The draws of ``random.Random(seed)`` define the instance: a change that
    makes the same draws in the same order writes the same bytes.  Cells are
    row-major, and a *pair* is a cell and an in-grid neighbour in one of a
    list of directions, the pairs listed row-major by that cell and then in
    the list's order.

    * ``weighted_undirected`` and ``tree`` list the pairs in the directions
      E, SE, S, SW and shuffle that list with one ``rng.shuffle``.  The
      spanning tree takes, in the shuffled order, each pair that joins two
      components (no draw).  ``weighted_undirected`` then draws one
      ``rng.random()`` for every other pair, in the shuffled order, and
      keeps the pair if the draw is below ``density * 0.5``.  Its weights
      come last, one per kept pair, the tree's pairs first and then the
      others, each in the shuffled order: ``rng.sample(range(1, 8n + 1), k)``
      under ``distinct_weights``, otherwise ``rng.randrange(max_weight + 1)``
      each.  An edge is stored at the pair's first cell, in its direction's
      slot.  ``tree`` draws no weights and sets each edge's bit in both
      endpoints' masks.
    * ``weighted_dag``, ``planar_dag`` and ``unit_directed`` first shuffle a
      priority list ``list(range(n))``, indexed by cell, with
      ``rng.shuffle`` (``unit_directed`` too, which never reads it).  They
      walk the pairs in the directions E, S, SE, SW.  ``planar_dag`` skips
      the SW pair of (r, c), without a draw, when the SE pair of (r, c - 1),
      the other diagonal of the same unit square, was kept.  Every other
      pair draws one ``rng.random()`` and is kept if the draw is below
      ``density``.  A kept pair of ``unit_directed`` draws ``rng.random()``
      once more and points from the first cell to the second if it is below
      0.5, back otherwise.  The two DAG models point each edge to the cell
      of higher priority, and ``weighted_dag`` draws its weight,
      ``rng.randrange(max_weight + 1)``, right after the pair's keep draw.

    A ``max_weight`` outside [0, ABSENT) is a ``FormatError``.
    """
    if rows <= 0 or cols <= 0:
        raise FormatError("rows and cols must be positive")
    if model not in GEN_MODELS:
        raise FormatError("unknown model %r" % model)
    if not 0 <= max_weight < ABSENT:
        raise FormatError("max_weight %d is outside [0, 2^64 - 1)"
                          % max_weight)
    rng = random.Random(seed)
    if model in ("weighted_undirected", "tree"):
        encoding, records = _spanning(rng, rows, cols, model, max_weight,
                                      distinct_weights, density)
    else:
        encoding, records = _oriented(rng, rows, cols, model, max_weight,
                                      density)
    n = rows * cols
    handle, stream = open_result(disk, name, encoding, rows, cols, n)
    cell_of_z = z_tables(rows, cols)[1]
    for a in range(0, n, _CHUNK):
        stream.write(records[cell_of_z[a:a + _CHUNK]].tobytes())
    stream.close()
    return GridGraph(disk, handle, Z_ORDER, encoding, rows, cols, n)
