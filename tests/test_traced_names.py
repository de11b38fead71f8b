"""The benchmark's span tracer wraps package functions and methods by name.

A name it lists that the package no longer has would make every traced call
fail, so each must still resolve to a callable.  This reads
``perfbench/spans.py`` and changes nothing there.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = ["%s.%s" % (owner.__name__, attr)
               for owner, attr, _, _ in spans.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert spans.TARGETS and missing == []
