"""Penalized change-in-mean detection: optimal partitioning with PELT pruning.

The search is the PELT recurrence (Killick, Fearnhead & Eckley 2012) with
K = 0: F[t] is the least penalized cost of z[:t], reached from the first
candidate s minimizing F[s] + cost(s, t) + penalty, and a candidate is
dropped once its total exceeds F[t] + penalty. On fitted HAF traces that
rule drops little: on the 9 synthetic-mix traces 1421-1868 of 2000
candidates are still alive at the last step, so the search is quadratic
in the trace length.

The recurrence is evaluated a block of _BLOCK steps at a time: the totals
of every candidate alive at the block's first step, at every step of the
block, in one array operation. The block's answer is accepted when the
per-step loop would have given the same one bit for bit: no column's
minimizing candidate was pruned at an earlier step of the block, and no
candidate born inside the block beats a column's minimum. Otherwise (at a
change: 0-1 blocks per trace on the synthetic-mix traces) the block is
walked step by step.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 64        # recurrence steps evaluated at once


def check_penalty(penalty: float | None) -> None:
    """Raise ValueError unless penalty is None or a number >= 0."""
    if penalty is not None and not penalty >= 0:
        raise ValueError(f"penalty must be a number >= 0, got {penalty}")


def _resolved_penalty(z: np.ndarray, penalty: float | None) -> float:
    """The penalty pelt_mean_changes searches with: the default rule for
    None, and a tiny positive value for 0."""
    n = z.size
    if penalty is None:
        level = float(np.mean(np.abs(z)))
        penalty = max(0.1 * n * float(np.var(z)), (0.05 * level) ** 2 * n)
    if penalty == 0:
        penalty = 1e-12 * max(float(np.abs(z).max()) ** 2, 1.0)
    return penalty


def pelt_mean_changes(z: np.ndarray, penalty: float | None = None) -> list[int]:
    """Indices where the mean of z shifts, by penalized exact search.

    Segment cost is the within-segment sum of squared deviations; a change
    is added only when it lowers the total cost by more than the penalty.
    The default penalty, a tenth of the zero-change cost with a floor at
    (5% of the trace level)^2 per sample, admits a dominant level shift
    while rejecting the smooth wiggles of an interpolated trace and the
    fit wiggle on a flat one (a constant trace yields no changes). A
    negative or NaN penalty raises ValueError; a penalty of 0 is allowed.
    z must be a 1-d trace of finite samples; anything else raises
    ValueError.
    """
    check_penalty(penalty)
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"trace must be 1-d, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("trace holds NaN or infinite samples")
    if z.size < 4:
        return []
    _, last = _optimal_partition(z, _resolved_penalty(z, penalty))

    cps = []
    t = z.size
    while t > 0:
        a = int(last[t])
        if a > 0:
            cps.append(a)
        t = a
    return sorted(cps)


def _optimal_partition(z: np.ndarray, penalty: float) -> tuple[np.ndarray, np.ndarray]:
    """F and last of the PELT recurrence over z, penalty > 0: F[t] is the
    least penalized cost of z[:t] (F[0] = -penalty) and last[t] the first
    candidate reaching it."""
    n = z.size
    s1 = np.concatenate([[0.0], np.cumsum(z)])
    s2 = np.concatenate([[0.0], np.cumsum(z * z)])
    F = np.full(n + 1, np.inf)
    F[0] = -penalty
    last = np.zeros(n + 1, dtype=int)
    cand = np.array([0])
    for t0 in range(1, n + 1, _BLOCK):
        t1 = min(t0 + _BLOCK, n + 1)
        alive = _block(F, last, cand, s1, s2, penalty, t0, t1)
        if alive is None:
            # step by step: a one-step block always passes the check
            for t in range(t0, t1):
                cand = _block(F, last, cand, s1, s2, penalty, t, t + 1)
        else:
            cand = alive
    return F, last


def _totals(F, s, t, s1, s2, penalty):
    """F[s] + cost(s, t) + penalty, one row per step t and one column per
    candidate s: the per-step loop's expression, operand for operand, with
    its temporaries reused."""
    t = t[:, None]
    total = np.subtract(s1[t], s1[s])
    np.square(total, out=total)
    np.divide(total, t - s, out=total)
    np.subtract(s2[t] - s2[s], total, out=total)
    np.add(F[s], total, out=total)
    total += penalty
    return total


def _block(F, last, cand, s1, s2, penalty, t0, t1):
    """Steps t0..t1-1 at once; returns the candidates alive at t1, or None
    (F and last then partly written) where the per-step loop could differ.

    Provisional F[t] and last[t] are each step's first minimum over the
    candidates alive at t0. By induction over the block they are the
    loop's when (a) no step's minimizing candidate failed the keep rule at
    an earlier step, so the loop still holds it, and (b) no candidate born
    in the block, which the loop would also hold and which comes later in
    index order, has a total strictly below a step's minimum.
    """
    t = np.arange(t0, t1)
    step = np.arange(t.size)
    total = _totals(F, cand, t, s1, s2, penalty)
    best = np.argmin(total, axis=1)
    F[t0:t1] = total[step, best]
    last[t0:t1] = cand[best]
    dropped = ~(total <= F[t0:t1, None] + penalty)    # the keep rule fails
    # (a): [i, j] is whether step j's minimizer was dropped at step i < j
    if np.triu(dropped[:, best], 1).any():
        return None
    # candidates born at t0..t1-2 enter at the steps after their birth
    born = t[:-1]
    before = t[1:, None] <= born
    with np.errstate(divide="ignore", invalid="ignore"):
        born_total = _totals(F, born, t[1:], s1, s2, penalty)
    if (~before & (born_total < F[t0 + 1 : t1, None])).any():     # (b)
        return None
    born_dropped = (~before & ~(born_total <= F[t0 + 1 : t1, None] + penalty)).any(axis=0)
    return np.concatenate([cand[~dropped.any(axis=0)], born[~born_dropped], [t1 - 1]])
