"""Host-speed calibration: a fixed reference computation timed through each run.

On a shared host the speed of one core drifts by up to 2x over minutes,
with neighbours on the same physical cores, and process CPU time drifts
with it. No run length averages that out, so each timed piece of work is
scaled by the host's speed around it. reference() is a fixed computation made
of the same kinds of work as tenkit: Python float arithmetic around numpy
calls on tiny arrays (the Jacobi kernels), integer and dict work over bit
masks (the contraction planner), and float formatting and parsing (the
.ten reader and writer). It calls no tenkit code, so a change to tenkit
cannot change its time. The garbage collector is off while it runs, so
objects an operation left behind cannot lengthen it.

A calibrated time is wall time * REF_MS / reference time, the reference
time being the mean of the reference runs sampled just before and just
after the work: the time the work would take on a host where reference()
takes REF_MS. REF_MS is close to the median reference time on the shared
2-core VM (Python 3.11, numpy 2.4) the benchmark was tuned on, so
calibrated times there read close to wall times.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
from time import perf_counter

import numpy as np

REF_MS = 6.5

_RNG = np.random.default_rng(20241125)
_MATS = [_RNG.standard_normal((6, 3)) for _ in range(10)]
_VALUES = _RNG.standard_normal(400).tolist()


def _jacobi_norms(a: np.ndarray) -> float:
    """Column norms after a few one-sided Jacobi sweeps of a small matrix."""
    a = a.copy()
    n = a.shape[1]
    for _ in range(6):
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = a[:, p].copy(), a[:, q].copy()
                alpha, beta, gamma = float(ap @ ap), float(aq @ aq), float(ap @ aq)
                if abs(gamma) < 1e-300:
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                a[:, p] = c * ap - c * t * aq
                a[:, q] = c * t * ap + c * aq
    return float(np.linalg.norm(a, axis=0).sum())


def _subset_dp(n: int) -> int:
    """Cheapest split of every subset of n items, by the planner's bit-mask loops."""
    weight = [2 + (k % 3) for k in range(n)]
    best = {1 << k: 0 for k in range(n)}
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        size = 1
        rest = mask
        while rest:
            low = rest & -rest
            size *= weight[low.bit_length() - 1]
            rest ^= low
        cost = None
        sub = (mask - 1) & mask
        while sub:
            if sub < mask ^ sub:
                total = best[sub] + best[mask ^ sub] + size
                if cost is None or total < cost:
                    cost = total
            sub = (sub - 1) & mask
        best[mask] = cost
    return best[(1 << n) - 1]


def _text_round_trip() -> float:
    text = "\n".join(" ".join(format(v, ".17g") for v in _VALUES[k : k + 8]) for k in range(0, len(_VALUES), 8))
    return sum(float(t) for t in text.split())


def reference() -> float:
    total = sum(_jacobi_norms(m) for m in _MATS)
    total += _subset_dp(9)
    total += _text_round_trip()
    return total


def time_reference() -> float:
    """Seconds one reference() takes now, with the garbage collector off.

    An untimed pass first brings its code and data back into the caches
    that the work before it may have evicted.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference times sampled through a run, at most one per SAMPLE_EVERY_S of it.

    The host switches between fast and slow states within seconds, so each
    piece of work is calibrated by the samples nearest to it in time.
    """

    SAMPLE_EVERY_S = 0.1

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter() when each sample ended
        self.refs: list[float] = []  # seconds each sample took

    def sample(self, force: bool = False) -> None:
        if force or not self.ends or perf_counter() - self.ends[-1] >= self.SAMPLE_EVERY_S:
            self.refs.append(time_reference())
            self.ends.append(perf_counter())

    def calibrate(self, start: float, seconds: float) -> float:
        """Calibrated seconds of work that began at start and took seconds of wall time.

        The scale comes from the last sample before the work and the first
        one after it.
        """
        i = bisect.bisect_right(self.ends, start)
        near = self.refs[max(i - 1, 0) : i + 1]
        return seconds * REF_MS * 1e-3 / statistics.mean(near)
