"""Span tracing of gridscan's layers from outside the package.

``Tracer.installed()`` replaces public functions and methods with timing
wrappers for the duration of a ``with`` block and restores them afterwards.
Module functions are replaced at the module attribute that callers look up
at call time (``clusters.build_separator_graph`` is found through the
``clusters`` module dictionary both by ``sssp`` and by ``clusters`` itself);
methods are replaced on their classes.

Three kinds of wrapper exist:

* ``span``: a structural call (an algorithm, a phase, a cluster decode).  It
  is pushed on the span stack, so the calls it makes count as its children,
  and it is kept in ``spans`` as ``(name, start, end, parent index)``.
* ``leaf``: a hot call that wraps nothing else (a block transfer, a record
  decode).  Only its count and time are aggregated, to keep the trace small;
  its time is charged to the enclosing span as child time.
* ``count``: only the number of calls is kept.

Self time is a span's duration minus the time its child spans and leaves
cover.  Calls that modules bind by name at import time (``bfs`` imports
``sssp._min_tentative``) cannot be seen from here and are not wrapped.
"""

from __future__ import annotations

import contextlib
import time

from gridscan import bfs, euler, mst, sssp, tfp
from gridscan import clusters as cl
from gridscan import gridfmt as gf
from gridscan import toposort as ts
from gridscan.simdisk import AppendStream, FileStack, ScanReader, SimDisk

# (owner, attribute, span name, kind); several attributes may share a name
TARGETS = (
    (SimDisk, "read_direct", "simdisk.direct", "leaf"),
    (SimDisk, "write_direct", "simdisk.direct", "leaf"),
    (ScanReader, "read", "simdisk.stream", "leaf"),
    (AppendStream, "write", "simdisk.stream", "leaf"),
    (AppendStream, "close", "simdisk.stream", "leaf"),
    (FileStack, "push", "simdisk.stack", "leaf"),
    (FileStack, "pop", "simdisk.stack", "leaf"),
    (SimDisk, "access_block", "simdisk.lru", "leaf"),
    (SimDisk, "read", "simdisk.lru", "leaf"),
    (SimDisk, "write", "simdisk.lru", "leaf"),
    (SimDisk, "flush", "simdisk.lru", "leaf"),
    (gf, "decode_record", "gridfmt.decode_record", "leaf"),
    (cl, "iterate_clusters", "clusters.iterate_clusters", "iter"),
    (cl, "build_separator_graph", "clusters.build_separator_graph", "span"),
    (cl.SeparatorGraph, "decode_edges", "clusters.decode_edges", "leaf_iter"),
    (cl.SeparatorGraph, "read_record", "clusters.read_record", "count"),
    (sssp, "sssp_simple", "sssp.sssp_simple", "span"),
    (sssp, "sssp_hierarchical", "sssp.sssp_hierarchical", "span"),
    (bfs, "bfs_distances", "bfs.bfs_distances", "span"),
    (bfs, "build_chunks_bfs", "bfs.build_chunks_bfs", "span"),
    (bfs, "sort_addresses", "bfs.sort_addresses", "span"),
    (bfs, "emit_bfs_order", "bfs.emit_bfs_order", "span"),
    (mst, "prune_and_contract", "mst.prune_and_contract", "span"),
    (mst, "mst_cache_aware", "mst.mst_cache_aware", "span"),
    (mst, "mst_cache_oblivious", "mst.mst_cache_oblivious", "span"),
    (ts, "toposort", "toposort.toposort", "span"),
    (ts, "topo_number_separator", "toposort.topo_number_separator", "span"),
    (ts, "assign_chunk_numbers", "toposort.assign_chunk_numbers", "span"),
    (tfp, "plan_messages", "tfp.plan_messages", "span"),
    (tfp, "tfp_run", "tfp.tfp_run", "span"),
    (euler, "euler_tour", "euler.euler_tour", "span"),
)


class Tracer:
    """Span stack, per-name aggregates and recorded spans of one traced round.

    ``agg[name]`` is ``[calls, total seconds, self seconds]``.
    ``separator_vertices`` sums the separator vertex counts of every
    separator graph built while tracing.
    """

    def __init__(self):
        self.agg: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.separator_vertices = 0
        # open frames: [name, start, child seconds, recorded span index]
        self._stack: list[list] = []

    def _slot(self, name):
        return self.agg.setdefault(name, [0, 0.0, 0.0])

    @contextlib.contextmanager
    def span(self, name):
        """Open a span around benchmark code (one algorithm call)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(True)

    def _enter(self, name):
        parent = self._stack[-1][3] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans) - 1])

    def _exit(self, counted):
        end = time.perf_counter()
        name, start, child, idx = self._stack.pop()
        dur = end - start
        slot = self._slot(name)
        slot[0] += counted
        slot[1] += dur
        slot[2] += dur - child
        self.spans[idx] = (name, start, end, self.spans[idx][3])
        if self._stack:
            self._stack[-1][2] += dur

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name, fn):
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(True)
            if isinstance(out, cl.SeparatorGraph):
                self.separator_vertices += out.scheme.total_boundary
            return out
        return wrapper

    def _wrap_leaf(self, name, fn, eager=False):
        slot, stack, clock = self._slot(name), self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                out = fn(*args, **kwargs)
                # a generator method does its work while consumed
                return iter(list(out)) if eager else out
            finally:
                dur = clock() - start
                slot[0] += 1
                slot[1] += dur
                slot[2] += dur
                stack[-1][2] += dur
        return wrapper

    def _wrap_count(self, name, fn):
        slot = self._slot(name)

        def wrapper(*args, **kwargs):
            slot[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_iter(self, name, fn):
        """Each ``next`` of the generator is one span; calls count items."""
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def traced():
                while True:
                    self._enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._exit(False)
                        return
                    except BaseException:
                        self._exit(False)
                        raise
                    self._exit(True)
                    yield item
            return traced()
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, kind in TARGETS:
                fn = getattr(owner, attr)
                if kind == "span":
                    new = self._wrap_span(name, fn)
                elif kind == "leaf":
                    new = self._wrap_leaf(name, fn)
                elif kind == "leaf_iter":
                    new = self._wrap_leaf(name, fn, eager=True)
                elif kind == "count":
                    new = self._wrap_count(name, fn)
                else:
                    new = self._wrap_iter(name, fn)
                saved.append((owner, attr, fn))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def calls(self, name) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]
