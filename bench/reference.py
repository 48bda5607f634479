"""A frozen reference loop that measures how fast the host is running right now.

The benchmark host's speed drifts: the same op can take 1.6 times as long
for several seconds at a time, and every kind of work slows together (see
README.md). The benchmark runs this loop between consecutive commands and
divides each command's wall time by the mean of the loop times on either
side of it, which cancels the drift. The loop does the four kinds of machine
work the workloads do, in roughly equal shares: Python bytecode, numpy
vector kernels over 64k-element arrays, numpy generator construction and
draws, and small numpy calls from a Python loop. It uses nothing from mflil,
so no change to the program can change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds one loop takes on the 2-vCPU host the benchmark was tuned on, in a
# fast phase. op_s = REF_S * (command time / loop time), summed over commands.
REF_S = 0.016

_U = np.random.default_rng(12345).random(1 << 16)
_CW = np.array([0.25, 1.0])
_P = np.array([[0.9, 0.1], [0.5, 0.5]])
_CP = np.cumsum(_P, axis=1)


def _bytecode() -> float:
    s = 0.0
    for i in range(50000):
        s += math.sqrt(i) * 1.0001
    return s


def _vector() -> float:
    acc = 0.0
    for _ in range(2):
        idx = np.searchsorted(_CW, _U, side="right")
        walk = np.cumsum(np.log1p(idx.astype(float)))
        acc += float(np.maximum.accumulate(walk - _U)[-1])
    return acc


def _generators() -> float:
    acc = 0
    for i in range(220):
        acc += int(np.random.Generator(np.random.Philox(key=[7, i])).binomial(1000, 0.25))
    return float(acc)


def _small_calls() -> float:
    v = np.ones(2)
    state, acc = 0, 0.0
    for i in range(550):
        state = min(int(np.searchsorted(_CP[state], (i * 0.618) % 1.0, side="right")), 1)
        acc -= math.log(_P[state, 0])
        v = _P @ v
        v /= np.linalg.norm(v)
    return acc + float(v[0])


def loop_seconds(passes: int = 1) -> float:
    """Mean wall time of one pass of the reference loop, over `passes` passes."""
    t0 = time.perf_counter()
    for _ in range(passes):
        _bytecode()
        _vector()
        _generators()
        _small_calls()
    return (time.perf_counter() - t0) / passes
