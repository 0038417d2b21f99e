"""Host-speed reference for scaling wall times.

On a shared host the wall time of one and the same op was seen to swing by
up to 2x within a minute.  A fixed pure-Python workload, timed in the same
process just before and just after the op, slows down with it.  An op's wall
time times `scale(before, after)` is the time it would have taken at the host
speed at which REFERENCE_S was measured.
"""

from time import perf_counter

REFERENCE_S = 0.0045


def _reference_work():
    """About 5 ms of tuple-keyed dict updates with int products, the kind of
    work a sparse polynomial product does."""
    a = {(i, j): i - j for i in range(12) for j in range(12)}
    prod = {}
    for ea, ca in a.items():
        for eb, cb in a.items():
            key = (ea[0] + eb[0], ea[1] + eb[1])
            prod[key] = prod.get(key, 0) + ca * cb
    return prod


def reference_s():
    """Median of three timings, so a single stall of the host is ignored."""
    times = []
    for _ in range(3):
        started = perf_counter()
        _reference_work()
        times.append(perf_counter() - started)
    return sorted(times)[1]


def scale(before, after):
    return 2 * REFERENCE_S / (before + after)
