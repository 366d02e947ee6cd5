"""Penalized change-in-mean detection (pruned exact linear time search)."""

from __future__ import annotations

import numpy as np


def check_penalty(penalty: float | None) -> None:
    """Raise ValueError unless penalty is None or a number >= 0."""
    if penalty is not None and not penalty >= 0:
        raise ValueError(f"penalty must be a number >= 0, got {penalty}")


def pelt_mean_changes(z: np.ndarray, penalty: float | None = None) -> list[int]:
    """Indices where the mean of z shifts, by penalized exact search.

    Segment cost is the within-segment sum of squared deviations; a change
    is added only when it lowers the total cost by more than the penalty.
    The default penalty, a tenth of the zero-change cost with a floor at
    (5% of the trace level)^2 per sample, admits a dominant level shift
    while rejecting the smooth wiggles of an interpolated trace and the
    fit wiggle on a flat one (a constant trace yields no changes). A
    negative or NaN penalty raises ValueError; a penalty of 0 is allowed.
    """
    check_penalty(penalty)
    z = np.asarray(z, dtype=float)
    n = z.size
    if n < 4:
        return []
    if penalty is None:
        level = float(np.mean(np.abs(z)))
        penalty = max(0.1 * n * float(np.var(z)), (0.05 * level) ** 2 * n)
    if penalty == 0:
        penalty = 1e-12 * max(float(np.abs(z).max()) ** 2, 1.0)

    s1 = np.concatenate([[0.0], np.cumsum(z)])
    s2 = np.concatenate([[0.0], np.cumsum(z * z)])

    def seg_cost(a: np.ndarray, b: int) -> np.ndarray:
        m = b - a
        return (s2[b] - s2[a]) - (s1[b] - s1[a]) ** 2 / m

    F = np.full(n + 1, np.inf)
    F[0] = -penalty
    last = np.zeros(n + 1, dtype=int)
    cand = np.array([0])
    for t in range(1, n + 1):
        total = F[cand] + seg_cost(cand, t) + penalty
        i = int(np.argmin(total))
        F[t] = total[i]
        last[t] = cand[i]
        keep = total <= F[t] + penalty  # PELT pruning rule
        cand = np.append(cand[keep], t)

    cps = []
    t = n
    while t > 0:
        a = int(last[t])
        if a > 0:
            cps.append(a)
        t = a
    return sorted(cps)
