"""Host-speed calibration for interpreter-bound workloads.

The benchmark's host is shared and its speed drifts: the theory round ran
at anywhere from 600 to 1200 rounds/s across 40 s runs of the same code.
A fixed kernel with the theory round's instruction mix (seed mixing on
Python ints, a counter-based stream on small uint64 arrays, polar Gaussians
and a 16-wide update) tracks that drift: timed next to the round, its speed
correlated at 0.82 with the round's, with a log-log slope of 0.88.

A workload that uses it samples the kernel once before each unit. The
median sample over a run, divided by REFERENCE_S, is the run's host factor
(above 1 on a slower host than the reference), and timings are reported at
the reference speed: throughput times the factor, durations divided by it.

The kernel depends on numpy and the interpreter only, never on cyber0, so a
change to the engine cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median kernel time on the 2-core Xeon VM the benchmark was built on
REFERENCE_S = 0.022

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _fmix(x: int) -> int:
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def kernel_seconds(n: int = 600) -> float:
    """Wall time of n stylised directions: derive a seed, draw 128 stream
    words, turn accepted polar pairs into a unit 16-vector, apply it."""
    w = np.zeros(16)
    acc = 0.0
    t0 = perf_counter()
    for i in range(n):
        h = 0
        for word in (1234, i, 7, 0, 1):
            h = _fmix(h ^ word)
        z = np.arange(1, 129, dtype=np.uint64)
        z *= _GOLDEN
        z += np.uint64(h)
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        u = (z >> _S11).astype(np.float64)
        u *= 2.0**-53
        v1 = u[0::2] * 2.0 - 1.0
        v2 = u[1::2] * 2.0 - 1.0
        s = v1 * v1 + v2 * v2
        sel = np.flatnonzero((s > 0.0) & (s < 1.0))[:8]
        f = np.sqrt(-2.0 * np.log(s[sel]) / s[sel])
        g = np.empty(16)
        g[0::2] = v1[sel] * f
        g[1::2] = v2[sel] * f
        g /= np.sqrt(float(np.dot(g, g)))
        w += 1e-3 * g
        acc += float(np.sort(w)[3:13].sum())
    return perf_counter() - t0


def host_factor() -> float:
    return kernel_seconds() / REFERENCE_S
