import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from gridscan.simdisk import SimConfig, SimDisk
from gridscan import gridfmt as gf


def make_disk(block=64, mem_blocks=None):
    mem = block * (mem_blocks if mem_blocks else block)
    return SimDisk(SimConfig(block_bytes=block, memory_bytes=mem))


def make_graph(disk, rows, cols, encoding, edges, name="input"):
    """Build a graph file from {(r,c): {direction: weight}} (0-based cells)."""
    handle = disk.open_file(name)
    g = gf.GridGraph(disk, handle, gf.Z_ORDER, encoding, rows, cols,
                     rows * cols)
    g.write_header()
    stream = disk.append_stream(handle, g.payload_offset)
    for idx in range(rows * cols):
        row, col = gf.index_to_coord(rows, cols, idx)
        spec = edges.get((row - 1, col - 1), {})
        mask = sum(1 << d for d in spec)
        stream.write(gf.encode_record(encoding, mask, dict(spec)))
    stream.close()
    return g


def grid4_edges(rows, cols, weight=1, both_dirs=True):
    """All horizontal/vertical edges; directed both ways if both_dirs."""
    edges = {}
    for r in range(rows):
        for c in range(cols):
            spec = {}
            for d in (gf.N, gf.E, gf.S, gf.W) if both_dirs else (gf.E, gf.S):
                dr, dc = gf.DIR_OFFSETS[d]
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    spec[d] = weight
            edges[(r, c)] = spec
    return edges
