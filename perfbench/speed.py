"""Machine speed, read from a fixed pure-Python reference kernel.

The benchmark's host shares its cores: over seconds to minutes the same
call takes up to 1.6 times longer, with CPU time equal to wall time, so the
drift is the neighbours' load on the core rather than waiting.  A short
reference kernel timed before and after each call slows down the same
way (6 s windows of the same calls vary by 11-15% raw and by about 3%
after scaling), so the benchmark reports times at reference speed:

    seconds at reference speed = wall seconds * REF_SECONDS / kernel seconds

REF_SECONDS is a constant that only sets the scale: the kernel's 10th
percentile time, run alone, on the 2-core Intel Xeon host the baseline was
measured on.  The kernel is benchmark code on the standard library and
does not touch framescale, so no framescale change can move it.
"""

from __future__ import annotations

import json
import statistics
from collections import deque
from fractions import Fraction
from time import perf_counter

REF_SECONDS = 0.0016
WINDOW = 3


def reference() -> float:
    """Seconds one run of the fixed reference kernel takes now.

    The kernel mixes what framescale spends its time on -- float dot
    products in lists, dict and tuple churn, JSON encoding and Fraction
    arithmetic -- because a plain integer loop missed part of the drift
    that slows those (its scaled times still varied 5% between 6 s windows,
    against 3% for this kernel).
    """
    start = perf_counter()
    rows = [[(i * 7 + j * 3) % 11 / 7.0 for j in range(12)] for i in range(24)]
    dots = {}
    for i, row in enumerate(rows):
        for j in range(i + 1, len(rows)):
            dots[i, j] = sum(a * b for a, b in zip(row, rows[j]))
    json.dumps({str(k): v for k, v in dots.items()})
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)
    return perf_counter() - start


class Speed:
    """Reference timings taken between calls, read as a rolling median."""

    def __init__(self):
        self._recent = deque(maxlen=WINDOW)

    def sample(self) -> None:
        self._recent.append(reference())

    def factor(self) -> float:
        """The factor that turns wall seconds into seconds at reference
        speed, from the last WINDOW samples: with one sample taken before
        and one after each call, the call sits in the middle."""
        return REF_SECONDS / statistics.median(self._recent)
