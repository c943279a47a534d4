"""The host-speed probe: a fixed pure-Python loop and its reference time.

On a shared VM the host's speed swings up to twofold within a second
and can stay slow for tens of seconds (see README).  The probe's time
right before and after a piece of timed work says how fast the host
ran it; rescaling the piece by ``PROBE_REF_S`` over that time gives its
wall time at the reference host speed.
"""

from __future__ import annotations

import statistics
import time

#: steps of the probe loop (about 24 ms on the reference host)
PROBE_STEPS = 300_000
#: the probe's time on an uncontended core of the reference host: the
#: fastest of 400 back-to-back probes on the 2-core VM the bounds were
#: set on
PROBE_REF_S = 0.024
#: probes per bracket in set-up, whose few pieces would otherwise each
#: carry one probe's noise
SETUP_PROBES = 5


def probe(times: int = 1) -> float:
    """Seconds the fixed probe loop takes right now (median of ``times``)."""
    seconds = []
    for _ in range(times):
        t0 = time.perf_counter()
        total = 0
        for i in range(PROBE_STEPS):
            total += i ^ (i >> 3)
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds)


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work bracketed by two probes, at reference speed."""
    return seconds * PROBE_REF_S / ((before + after) / 2)
