"""The benchmark reads package names that these tests keep resolving.

The span tracer wraps package functions and methods by name, and the
workloads call package functions and read its constants, so a name the
package no longer has would surface only when the benchmark runs.  These
tests read ``perfbench/`` and change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = ["%s.%s" % (owner.__name__, attr)
               for owner, attr, _, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert spans.TARGETS and missing == []


def package_references(source: str) -> set:
    """(module, name) of every package name a perfbench source reads: each
    name it imports from a package module, and each attribute it reads off
    a package module it imported, such as ``sssp.SolveStats``."""
    tree = ast.parse(source)
    modules, refs = {}, set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "gridscan"):
            for alias in node.names:
                if node.module == "gridscan":
                    modules[alias.asname or alias.name] = (
                        "gridscan." + alias.name)
                else:
                    refs.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            refs.add((modules[node.value.id], node.attr))
    return refs


def test_package_references_reads_imports_and_attributes():
    source = ("from gridscan import mst, sssp, gridfmt as gf\n"
              "from gridscan.simdisk import SimDisk\n"
              "def f(other):\n"
              "    from gridscan import cli\n"
              "    sssp.SolveStats().extractions, gf.Z_ORDER, other.mst\n"
              "    cli.run, mst.mst_edge_coords(SimDisk(), None)\n"
              "    sssp.made_here = 1\n")
    assert package_references(source) == {
        ("gridscan.simdisk", "SimDisk"), ("gridscan.sssp", "SolveStats"),
        ("gridscan.gridfmt", "Z_ORDER"), ("gridscan.cli", "run"),
        ("gridscan.mst", "mst_edge_coords")}


def test_every_benchmark_package_name_resolves():
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        refs |= package_references(path.read_text())
    missing = sorted("%s.%s" % ref for ref in refs
                     if not hasattr(importlib.import_module(ref[0]), ref[1]))
    assert refs
    assert missing == []
