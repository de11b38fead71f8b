"""Worker of the benchmark's memory pass: one algorithm call in this process.

Reads a pickled ``(workload name, call index, Setup)`` from stdin, runs that
call once on a fresh simulated disk and prints one JSON line: error flag,
transfer counters, solver counts, output digest and the peak RSS in MB of
this process.  ``run.py`` starts one of these per call and waits for it.
"""

import json
import os
import pickle
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    name, index, setup = pickle.load(sys.stdin.buffer)
    res = run.run_call(wl, wl.WORKLOADS[name].calls[index], setup)
    print(json.dumps({"error": res.error, "counters": res.counters,
                      "counts": res.counts, "digest": res.digest,
                      "peak_rss_mb": run.vm_hwm_mb()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
