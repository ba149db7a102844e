"""The CPU speed the process gets, to scale times to one reference speed.

On a shared host the speed a process gets moves by up to two fifths
from one minute to the next and by a fifth or more between seconds,
while its CPU time stays within a few percent of its wall time: other
tenants slow the core, they do not take it away, and any work, pga's or
not, slows by about the same factor.  A fixed pure-Python job timed just before and
just after an operation measures that factor; dividing the operation's
wall time by it gives the operation's time at the reference speed, which
two runs minutes apart can compare.
"""

from __future__ import annotations

import random
from statistics import median
from time import perf_counter

# The reference speed is the one at which the reference job takes this
# long.  It fixes the unit only: the ratio of two scaled times does not
# depend on it.
REFERENCE_JOB_S = 0.0004
SAMPLES = 5

_rng = random.Random(0)
_A = tuple(_rng.sample(range(48), 48))
_B = tuple(_rng.sample(range(48), 48))


def _job() -> int:
    """150 products of two degree-48 permutations stored as tuples, each
    kept in a set: the kind of work pga's inner loops do."""
    a, b, seen = _A, _B, set()
    for _ in range(150):
        a = tuple(b[x] for x in a)
        seen.add(a)
    return len(seen)


def job_s() -> float:
    """The reference job's time now, median of SAMPLES runs."""
    times = []
    for _ in range(SAMPLES):
        t0 = perf_counter()
        _job()
        times.append(perf_counter() - t0)
    return median(times)


class Speed:
    """Scales the wall times of operations run one after the other, each
    by the mean of the reference job's times just before and just after
    it.  Create it just before the first operation."""

    def __init__(self):
        self.before = job_s()

    def scale(self, wall_s: float) -> float:
        after = job_s()
        scaled = wall_s * REFERENCE_JOB_S * 2 / (self.before + after)
        self.before = after
        return scaled
