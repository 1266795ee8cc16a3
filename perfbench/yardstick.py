"""A fixed piece of pure-Python work that measures how fast the host
runs at the moment.

On a shared host the same job can take a third longer for a minute
when neighbours load the machine's caches and memory, which swamps a
change in the program.  The benchmark times this yardstick before and
after every job and scales the job's time by ``NOMINAL_S / yardstick
time``: a job that ran while the host was slow is scaled down by the
same factor the yardstick was slowed.  The kernels mirror the
program's hot loops (big-integer multiply-accumulate into lists, dicts
keyed by tuples, ``Fraction`` sums, tuple slicing and hashing) and use
nothing from ``permclass``, so a change to the program never changes
the yardstick.

Over ten runs of each workload on a shared 2-vCPU x86_64 host, scaling
cut the spread of the median pass time (quartile distance over median)
from 0.19-0.24 to 0.03-0.06.  Set-up time, mostly process start and
imports, does not follow the yardstick and is not scaled.
"""
from __future__ import annotations

import gc
import time
from fractions import Fraction

# About the yardstick's time on a quiet 2-vCPU x86_64 host under
# CPython 3.11; a scaled time is the time a job would take there.
NOMINAL_S = 0.16


def _bigint_mac() -> int:
    n = 48
    a = [(3 ** (i % 40) + i) * 1000003 for i in range(n)]
    b = [5 ** (i % 30) - i for i in range(n)]
    for _ in range(160):
        out = [0] * n
        for i, x in enumerate(a):
            for j in range(n - i):
                out[i + j] += x * b[j]
        a = [x % (1 << 200) for x in out]
    return a[-1]


def _tuple_dict() -> int:
    d: dict = {}
    for i in range(100000):
        key = (i % 97, i % 89)
        d[key] = d.get(key, 0) + i
    return len(d)


def _fraction_sum() -> Fraction:
    s = Fraction(0)
    for i in range(1, 2500):
        s += Fraction(i % 17 + 1, i * 3 + 1)
    return s


def _tuple_hash() -> int:
    seen = set()
    p = tuple(range(9))
    for i in range(40000):
        q = p[i % 9:] + p[:i % 9]
        seen.add(q[::-1] + (i % 5,))
    return len(seen)


KERNELS = (_bigint_mac, _tuple_dict, _fraction_sum, _tuple_hash)
ROUNDS = 2


def measure() -> float:
    """Seconds for ``ROUNDS`` rounds of every kernel, on a collected
    heap."""
    gc.collect()
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        for kernel in KERNELS:
            kernel()
    return time.perf_counter() - t0
