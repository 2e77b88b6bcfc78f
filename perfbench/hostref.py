"""Host-speed reference: a fixed pure-Python loop whose work never changes.

The benchmark runs on shared machines whose speed drifts by up to 1.7× over
tens of seconds, CPU time included, as neighbours come and go.  The loop
below does the kind of work the library does -- composing permutations held
as tuples and as ``bytes``, and dict and set inserts -- so it slows down with
the host by nearly the same factor.  ``bench`` times it between ops and
scales each op's time by ``NOMINAL_S / measured``: the result is the op's
time on a host where this loop takes ``NOMINAL_S``.  It lives in the
benchmark, never in the library, so no change to the library moves it.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

NOMINAL_S = 0.010

_rng = random.Random(20041161)


def _shuffled(n: int) -> list[int]:
    points = list(range(n))
    _rng.shuffle(points)
    return points


_TUPLES = [tuple(_shuffled(256)) for _ in range(64)]
_BYTES = [bytes(_shuffled(250)) for _ in range(64)]


def _work() -> int:
    seen: dict[tuple, int] = {}
    acc = _TUPLES[0]
    for i in range(600):
        b = _TUPLES[(i * 37) & 63]
        acc = tuple([b[x] for x in acc])
        seen.setdefault(acc[:6], i)
    keys = set()
    accb = _BYTES[0]
    for i in range(600):
        b = _BYTES[(i * 37) & 63]
        accb = bytes([b[x] for x in accb])
        keys.add(accb[:6])
    return len(seen) + len(keys)


def measure() -> float:
    """Seconds one pass of the reference loop takes now, garbage collector off
    so that the library's live objects do not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
