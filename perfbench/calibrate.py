"""A fixed piece of CPU work, timed to scale CPU-bound timings to one speed.

The host the benchmark was sized on, a 2-vCPU virtual machine, changes
speed by about ±20 % over tens of seconds to minutes. CPU time drifts the
same way as wall time. Timing this loop next to each measurement, and
multiplying the measurement by ``REFERENCE_S`` over the loop's time, removes
most of that drift. The loop mixes the kinds of work taxsim does: Decimal
rounding, float formatting, small numpy calls and hashing. It uses no taxsim
code, so a change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
from decimal import ROUND_HALF_UP, Decimal
from time import perf_counter

import numpy as np

# Median time of reference_loop_s() on the sizing host at its usual speed.
REFERENCE_S = 0.017

_QUANTUM = Decimal("0.02")
_ONE = Decimal("1")


def reference_loop_s() -> float:
    """Run the fixed work once and return its wall time in seconds."""
    start = perf_counter()
    values = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    parts = []
    for i in range(6000):
        x = (i * 7919 % 1000) / 1000.0
        ticks = (Decimal(repr(x)) / _QUANTUM).quantize(_ONE, rounding=ROUND_HALF_UP)
        acc += float(ticks * _QUANTUM)
        parts.append(f"{acc:.6f},{x:.2f}")
        if i % 16 == 0:
            acc += float(np.sort(values * x).sum())
            hashlib.sha256(parts[-1].encode()).digest()
    return perf_counter() - start


def speed_scale() -> float:
    """REFERENCE_S over the median of three loop timings: above 1 when the
    host runs fast, below 1 when it runs slow."""
    samples = sorted(reference_loop_s() for _ in range(3))
    return REFERENCE_S / samples[1]
