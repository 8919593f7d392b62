"""Reference work for the rootcf benchmark: a fixed pure-Python integer
loop that shares no code with rootcf.

The benchmark runs it as a child after every timed set and scales its
times by how fast this loop ran (see run.py), so that the speed of a
shared host, which drifts by tens of percent over minutes, cancels out
of the figures while a change to rootcf does not.  It prints a checksum,
CHECKSUM, that the benchmark compares.
"""
from math import isqrt

CHECKSUM = 3559465


def reference_work() -> int:
    total = 0
    # Periodic continued fractions of sqrt(k): small-integer loops.
    for k in range(2, 1500):
        a0 = isqrt(k)
        if a0 * a0 == k:
            continue
        m, d, a = 0, 1, a0
        for _ in range(200):
            m = d * a - m
            d = (k - m * m) // d
            a = (a0 + m) // d
            total += a
    # Growing integers, as in a deep expansion.
    x = 1
    for i in range(1, 20000):
        x = x * 7 + i
    return total + x % 1_000_003


if __name__ == "__main__":
    print(reference_work())
