"""Host-speed probe: a fixed slice of interpreter and numpy work.

Timed between benchmark samples so a run can show how fast the host was
while it measured.  It imports nothing from ``repro``, so a change to the
program never moves it; only the machine does.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Sequence

import numpy as np

_MAT = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_VEC = np.linspace(-4.0, 4.0, 4096)


def probe() -> float:
    """Seconds taken by one fixed unit of mixed Python and numpy work."""
    t0 = perf_counter()
    acc = 0
    for i in range(2500):
        acc += (i * i) % 7
    total = float((_MAT @ _MAT).sum()) + float(np.exp(_VEC).sum())
    if acc < 0 or total != total:  # keep the work observable
        raise RuntimeError("probe arithmetic went wrong")
    return perf_counter() - t0


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation of two equal-length samples (nan below 3 points)."""
    if len(xs) != len(ys) or len(xs) < 3:
        return float("nan")
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    return sxy / (sxx * syy) ** 0.5
