"""The speed reference that the benchmark's time metrics are scaled by.

The shared host this benchmark was written on runs all CPU work up to 1.6x
slower for tens of seconds at a time, so two runs of the same ops can
differ by a third.  The reference is a fixed piece of pure-Python integer
and dict work from the benchmark's own files; it slows with the host, and
`run.py` times it before every op.  Each time metric is then reported in
seconds at the reference speed:

    measured seconds x (REF_NOMINAL_S / the reference's time around them)
                        ** REF_ELASTICITY

REF_NOMINAL_S is the reference's median time on a 2-core x86 machine, so
the scaled numbers read as seconds on that machine.  gtutte's ops do not
slow quite as much as the reference does: on that machine their time
moved with the reference's time to a power between 0.6 (sweep and layers
ops, which touch more memory) and 1.0 (the tiny battery ops), hence
REF_ELASTICITY.  The program never
runs the reference, so a change to the program moves the scaled numbers
as much as it moves the measured ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from bisect import bisect_left, bisect_right

from checker import invariant_factors

REF_NOMINAL_S = 0.006
REF_ELASTICITY = 0.8
_rng = random.Random(1805)
REF_MATRICES = [[[_rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
                for _ in range(40)]
REF_DICT_STEPS = 3000
REF_WINDOW_S = 2.0
REF_MIN_SAMPLES = 4


def reference_seconds() -> float:
    """Time the reference once, with the collector off so that the
    program's leftover heap does not change it."""
    gc.disable()
    try:
        start = time.perf_counter()
        for rows in REF_MATRICES:
            invariant_factors(rows, 3)
        counts: dict = {}
        for i in range(REF_DICT_STEPS):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
        sorted(counts.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def at_reference_speed(results, refs):
    """Set each op's `norm`: its seconds at the reference speed.  `refs`
    holds (start, seconds) of reference timings taken between ops; the
    host's speed during an op is the median reference time from
    REF_WINDOW_S before it starts to REF_WINDOW_S after it ends, or of the
    REF_MIN_SAMPLES timings nearest to it if that window holds fewer."""
    starts = [t for t, _ in refs]
    for r in results:
        lo, hi = r["start"] - REF_WINDOW_S, r["start"] + r["seconds"] + REF_WINDOW_S
        near = [sec for t, sec in refs[bisect_left(starts, lo):bisect_right(starts, hi)]]
        if len(near) < REF_MIN_SAMPLES:
            mid = r["start"] + r["seconds"] / 2
            near = [sec for _, (t, sec) in
                    sorted((abs(t - mid), (t, sec)) for t, sec in refs)[:REF_MIN_SAMPLES]]
        r["norm"] = scaled(r["seconds"], statistics.median(near))


def scaled(seconds: float, ref: float) -> float:
    """`seconds` measured while the reference took `ref` seconds, at the
    reference speed."""
    return seconds * (REF_NOMINAL_S / ref) ** REF_ELASTICITY
