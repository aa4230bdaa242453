"""Host-speed calibration.

The hosts this benchmark runs on are shared, and their speed drifts: on the
2-core machine it was written on, a fixed piece of Python work took up to
1.8x longer for minutes at a time. Timings taken minutes apart then differ by
more than any bound a regression check could use.

A fixed kernel, independent of the library, is timed before every measured
round and every set-up. A timing is normalised to the reference host by
``REF_KERNEL_S / kernel time``, so it reads as the time the same work would
take on a host where the kernel takes ``REF_KERNEL_S``. A change to the
library moves a normalised timing exactly as it moves the raw one; the raw
timings are printed too.

The kernel has three parts of about equal time: n-gram counting over token
tuples (as GLEU does), filling a dict with fresh tuples and lists (as the
autodiff engine's node churn does), and gathering scattered elements of an
array larger than the L2 cache. They were chosen on repeated identical
rounds of every workload, timed while the host switched speed, from five
candidates; this mix tracked the rounds' slowdowns most closely in two
measurements a quarter of an hour apart. Any one part alone tracked some
workloads poorly.
"""

from __future__ import annotations

import gc
import time
from collections import Counter

import numpy as np

# the kernel's time on the reference host (2-core x86-64 Xeon, Python 3.11,
# numpy 2.4) when that host ran at its faster speed
REF_KERNEL_S = 0.0045

_TOKENS = tuple(range(12))
_BIG = np.arange(4_000_000, dtype=np.float64)  # 32 MB
_SCATTERED = np.random.default_rng(0).integers(0, len(_BIG), size=150_000)


def _ngrams():
    for _ in range(150):
        Counter(_TOKENS[i : i + m] for m in range(1, 5) for i in range(len(_TOKENS) - m + 1))


def _objects():
    table = {}
    for i in range(5_000):
        table[(i, i + 1, i % 7)] = [i, float(i)]


def _gather():
    _BIG[_SCATTERED].sum()


PARTS = (_ngrams, _objects, _gather)


def kernel_seconds(reps=3):
    """Sum over the parts of each part's fastest time over ``reps`` passes;
    the fastest, because an interrupt only ever adds time. The cyclic
    collector is off meanwhile: a collection would walk every object the
    library holds, and the library's heap must not change the calibration."""
    total = 0.0
    enabled = gc.isenabled()
    gc.disable()
    try:
        for part in PARTS:
            best = float("inf")
            for _ in range(reps):
                start = time.perf_counter()
                part()
                best = min(best, time.perf_counter() - start)
            total += best
    finally:
        if enabled:
            gc.enable()
    return total


def speed_factor(kernel_s):
    """Factor that takes a timing made while the kernel took ``kernel_s`` to
    the reference host."""
    return REF_KERNEL_S / kernel_s
