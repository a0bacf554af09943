"""Machine-speed probe used to put every timing on one reference speed.

On a shared core the same operation can take 1.6 times longer for minutes
at a time (other tenants, frequency changes), which swamps any change worth
measuring. Each timing is therefore divided by the duration of a fixed probe
computation taken right before and right after it, and multiplied by
``REFERENCE_S``. A normalized value reads as the wall time on a core where
the probe takes ``REFERENCE_S``.

The probe is benchmark code and calls nothing in ``moranspec``, so a change
to the library cannot move it. It mimics the workloads' hot loops: pairwise
``Fraction`` differences collected in a set, as exact verification does, and
a hash set large enough to leave the first-level caches.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 2.0e-3
REPEATS = 3
_POINTS = tuple(Fraction((i * 37) % 1009, 3 + i % 5) for i in range(24))


def probe() -> float:
    """Best of REPEATS runs of the probe, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        len({abs(a - b) for i, a in enumerate(_POINTS) for b in _POINTS[i + 1:]})
        len({(x * 2654435761) % 4000037 for x in range(8000)})
        best = min(best, time.perf_counter() - start)
    return best


def normalize(seconds: float, before: float, after: float) -> float:
    """`seconds` rescaled by the probe durations taken around it."""
    return seconds * 2 * REFERENCE_S / (before + after)
