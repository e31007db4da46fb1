"""A fixed pure-Python reference workload: the benchmark's yardstick.

The benchmark shares its host with other machines' work, and the speed
the host gives one Python process drifts by tens of per cent over
minutes.  Every experiment process times this workload just before and
just after its experiment, and the end-to-end run times are reported
as multiples of it.  The drift slows both alike and cancels; a change
to mcgwalk moves only the experiment, because this file imports
nothing from it.

The workload mixes the operations mcgwalk's hot paths are made of:
max-plus updates on growing integers (flip replay), small integer
matrix products (homology) and tuple keys in dictionaries (canonical
keys, exact-mass tables).  It is fixed: a change to it re-bases every
metric that uses it, so it belongs in a change of its own that
re-measures the baseline.
"""

from __future__ import annotations

import random
import time

_RNG = random.Random(20260601)
_SLOTS = 18
# a fixed program of (e, a, b, c, d) max-plus flips
_STEPS = tuple(_RNG.randrange(_SLOTS) for _ in range(5 * 400))
_MATRIX = tuple(tuple(_RNG.randrange(-3, 4) for _ in range(4)) for _ in range(4))


def _flips(rounds: int) -> int:
    v = [1 + i for i in range(_SLOTS)]
    steps = _STEPS
    for _ in range(rounds):
        for i in range(0, len(steps), 5):
            e = steps[i]
            s = v[steps[i + 1]] + v[steps[i + 3]]
            t = v[steps[i + 2]] + v[steps[i + 4]]
            v[e] = abs((s if s >= t else t) - v[e]) + 1
    return max(v).bit_length()


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


def _matrices(count: int) -> int:
    m = _MATRIX
    acc = 0
    for _ in range(count):
        m = _matmul(m, _MATRIX)
        m = tuple(tuple(x % 1000003 for x in row) for row in m)
        acc ^= hash(m)
    return acc


def _keys(count: int) -> int:
    table: dict = {}
    for i in range(count):
        key = tuple(sorted((i * 7919 + j * 104729) % 9973 for j in range(8)))
        table[key] = table.get(key, 0) + 1
    return len(table)


def work() -> int:
    """One fixed unit of reference work; returns a checksum."""
    return _flips(12) + _matrices(1500) + _keys(6000)


def time_work() -> float:
    """Seconds one call of ``work`` takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
