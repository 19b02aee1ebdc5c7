"""Monte-Carlo validation of the Section 3 probability model.

Simulates the paper's abstract setting directly — two threads, ``N``
steps, ``m`` uniformly random jointly-satisfying visits each — and
estimates hit probabilities to compare against the analytic formulas
(bench E6).  Vectorised with NumPy per the HPC guides: trials are
processed in chunks so a million-trial estimate of an ``N = 10^4`` model
stays within a few tens of megabytes.

Two estimators:

* :func:`mc_p_hit` — no BTrigger: hit iff the two visit sets intersect.
* :func:`mc_p_hit_btrigger` — BTrigger with pause ``T``: the timeline
  stretches to ``N + M*T - M`` slots, thread 1's jointly-satisfying
  visits each cover a window of ``T`` slots (the pause), and a hit is a
  thread-2 visit landing inside any window.

For tiny instances :func:`exhaustive_p_hit` enumerates all
``C(N, m)**2`` placements, giving an exact cross-check of the formula in
the property tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from repro._lazy import numpy as np

__all__ = ["mc_p_hit", "mc_p_hit_btrigger", "exhaustive_p_hit"]

_CHUNK = 4096


def _sample_distinct(rng: np.random.Generator, trials: int, N: int, m: int) -> np.ndarray:
    """``(trials, m)`` matrix of distinct uniform slots in ``[0, N)``.

    Uses argpartition over a random key matrix — a vectorised
    sample-without-replacement (each row is a uniform random m-subset).
    """
    keys = rng.random((trials, N))
    return np.argpartition(keys, m - 1, axis=1)[:, :m]


def mc_p_hit(N: int, m: int, trials: int = 100_000, seed: Optional[int] = 0) -> float:
    """Estimate ``P(visit sets intersect)`` without BTrigger."""
    if m == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        a = _sample_distinct(rng, n, N, m)
        b = _sample_distinct(rng, n, N, m)
        # Membership mask per trial: does any slot of b appear in a?
        mask = np.zeros((n, N), dtype=bool)
        np.put_along_axis(mask, a, True, axis=1)
        hits += int(np.take_along_axis(mask, b, axis=1).any(axis=1).sum())
        done += n
    return hits / trials


def mc_p_hit_btrigger(
    N: int, M: int, m: int, T: int, trials: int = 100_000, seed: Optional[int] = 0
) -> float:
    """Estimate the BTrigger-boosted hit probability.

    Model (matching the paper's counting argument): timeline of
    ``L = N + M*T - M`` slots; thread 1 places ``m`` distinct window
    starts, each window covering ``T`` slots (1 slot when ``T == 0``);
    thread 2 places ``m`` distinct visits; hit iff some visit lands in
    some window.
    """
    if m == 0:
        return 0.0
    L = N + M * T - M
    width = max(T, 1)
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        starts = _sample_distinct(rng, n, L, m)  # (n, m)
        visits = _sample_distinct(rng, n, L, m)  # (n, m)
        # visit j hits window i  iff  start_i <= visit_j < start_i + width
        diff = visits[:, None, :] - starts[:, :, None]  # (n, m, m)
        hit = (diff >= 0) & (diff < width)
        hits += int(hit.any(axis=(1, 2)).sum())
        done += n
    return hits / trials


def exhaustive_p_hit(N: int, m: int) -> float:
    """Exact intersection probability by enumerating all placements.

    Only feasible for small ``N`` (``C(N, m)**2`` pairs); used to verify
    both the closed form and the Monte-Carlo estimator.
    """
    if m == 0:
        return 0.0
    slots = range(N)
    subsets = [frozenset(c) for c in combinations(slots, m)]
    total = len(subsets) ** 2
    disjoint = 0
    for a in subsets:
        for b in subsets:
            if not (a & b):
                disjoint += 1
    return 1.0 - disjoint / total
