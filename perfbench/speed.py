"""Host-speed correction for the benchmark's timed sections.

The host this benchmark runs on is shared, and its speed for one Python
thread switches between regimes (about 1.5x apart on the 2-vCPU Xeon virtual
machine where it was calibrated) every few seconds.  A timed section
therefore samples the host's speed while it runs: a timer signal interrupts
it every ``INTERVAL_S`` and times a fixed pure-Python computation (the
*probe*).  The section's time is reported in *probe seconds*:

    (wall time - time spent in probes) * NOMINAL_S / mean probe time

A host that runs the probe in ``NOMINAL_S`` gives wall seconds.  Samples are
evenly spaced in wall time, so the mean probe time is the section's mean
slow-down; a change of host speed cancels as far as it slows the probe and
gridscan alike, while a change to gridscan moves the probe seconds in full.
"""

from __future__ import annotations

import signal
import statistics
import struct
import time

# the probe's time on the calibration machine when it runs at full speed
NOMINAL_S = 0.001
INTERVAL_S = 0.025
PASSES = 4

# The probe decodes fixed-size records from a bytes buffer through a small
# function, as gridscan's record decoders do.  Its slow-down tracks
# gridscan's: over repeated calls on the shared host, log call time against
# log probe time has a slope of 0.75 to 1.12 across the variants of ``scan``
# and ``queue``, where a tight integer loop gives 1.0 to 1.8 and random
# lookups in a large dict 0.8 to 2.3 (they mostly slow less than gridscan
# when the host is loaded, so they under-correct).
_RECORD = struct.Struct("<iiqq")
_BUFFER = bytes(range(256)) * 64


def _decode(buf: bytes, offset: int) -> tuple:
    a, b, c, d = _RECORD.unpack_from(buf, offset)
    return (a, b), c + d


def probe_s() -> float:
    """Wall time of one run of the probe."""
    t0 = time.perf_counter()
    acc = 0
    for _ in range(PASSES):
        for offset in range(0, len(_BUFFER) - _RECORD.size, _RECORD.size):
            acc += _decode(_BUFFER, offset)[1]
    return time.perf_counter() - t0


class Timed:
    """Times the body of a ``with`` block and samples the host's speed while
    it runs.  After the block: ``wall_s`` (probes excluded), ``probe_s`` (the
    mean probe time) and ``seconds`` (``wall_s`` in probe seconds).  One probe
    runs just before the body and one just after it, so a body shorter than
    ``INTERVAL_S`` still has samples.  Not reentrant: it owns SIGALRM."""

    def __enter__(self) -> "Timed":
        self.samples = [probe_s()]
        self._in_probes = 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.wall_s = t1 - self._t0 - self._in_probes
        self.samples.append(probe_s())
        self.probe_s = statistics.fmean(self.samples)
        self.seconds = self.wall_s * NOMINAL_S / self.probe_s
        return False

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_s())
        self._in_probes += time.perf_counter() - t0
