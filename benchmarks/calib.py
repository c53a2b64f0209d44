"""Machine-speed probe of the skg benchmark.

The benchmark's host may be a share of a machine whose speed drifts by tens
of percent within minutes, more than the bounds a change is judged by. So
the workload process runs ``probe()`` before its first op and after every
op: a fixed piece of work that uses no skg code. About half of it is a
pairwise-difference scan over a 0/1 matrix larger than a core's L2 cache,
the memory-bound shape of ``select``'s pairwise scan; the rest is a loop of
small-vector numpy steps (the shape of SGD and the weight recursion) and a
pure-Python string and dict loop (the shape of CSV ingest and output).
Memory-bound and interpreter-bound work slow down by different amounts when
the host is busy, so the probe has both.

An op's reported time is its wall time scaled by ``REFERENCE_S`` over the
mean of the probes just before and just after it: the seconds the op would
take on a host where the probe takes ``REFERENCE_S``. A change to skg moves
the op and not the probe, so it shows in full; a change of host speed moves
both and largely cancels. Raw wall times stay in the readable report.
"""

from __future__ import annotations

import time

import numpy as np

# Probe wall seconds that define the reference speed; near the median on a
# 2-vCPU Xeon VM with single-threaded OpenBLAS.
REFERENCE_S = 0.1

_RNG = np.random.default_rng(20220426)
_BLOCK = (_RNG.random((1000, 1000)) < 0.02).astype(np.float64)
_VECTOR = _RNG.random(64)


def _scan() -> float:
    total = 0.0
    for i in range(0, _BLOCK.shape[0] - 1, 40):
        diff = _BLOCK[i + 1:] - _BLOCK[i]
        total += float(np.einsum("ij,ij->i", diff, diff).max())
    return total


def _small_steps() -> float:
    weights = np.zeros_like(_VECTOR)
    for _ in range(10_000):
        weights -= 0.01 * (weights @ _VECTOR - 1.0) * _VECTOR
    return float(weights.sum())


def _python() -> float:
    table: dict = {}
    for i in range(55_000):
        key = f"{i % 997},{i % 13}"
        table[key] = table.get(key, 0.0) + float(i) * 0.5
    return sum(table.values())


def probe() -> float:
    """Wall seconds of the fixed probe work."""
    start = time.perf_counter()
    _scan()
    _small_steps()
    _python()
    return time.perf_counter() - start


def scale(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at the reference speed, from the probes that bracket it."""
    return raw_s * REFERENCE_S / (0.5 * (before_s + after_s))
