"""Automatic selection of the CuTS internal parameters δ and λ (Section 7.4).

Neither parameter affects correctness — only running time — but bad values
can make the filter useless (δ too large) or the clustering too frequent
(λ too small).  The paper gives data-driven guidelines; this module
implements them as :func:`compute_delta` and :func:`compute_lambda`, which
``cuts()`` calls when the caller does not pass explicit values.
"""

from __future__ import annotations

import random

from repro.checks import check_eps
from repro.simplification.dp import spatial_chord


def _largest_gap_choice(tolerances, cap):
    """Pick δs: the lower bound of the largest gap among tolerances < cap.

    Section 7.4, second step: sort the stored tolerances, restrict to those
    below the cap (the paper observed that picks above ``e`` collapse the
    filter's power), find the two adjacent values with the largest
    difference, and select the smaller of the two.
    """
    eligible = sorted(t for t in tolerances if t < cap)
    if not eligible:
        return None
    if len(eligible) == 1:
        return eligible[0]
    best_gap = -1.0
    best_value = eligible[0]
    for lower, upper in zip(eligible, eligible[1:]):
        gap = upper - lower
        if gap > best_gap:
            best_gap = gap
            best_value = lower
    return best_value


def compute_delta(database, eps, sample_fraction=0.1, min_samples=5, seed=0,
                  cap_fraction=0.5):
    """Derive the simplification tolerance δ from the data (Section 7.4).

    Replays zero-tolerance DP on a random sample of trajectories, applies
    the largest-gap selection per trajectory, and averages the picks.

    One deliberate tightening of the published guideline: the paper
    restricts the candidate tolerances to values below ``e``; here they
    are restricted to values below ``cap_fraction * e`` (default ``e/2``).
    Every pairwise filter bound is ``e + δ(l'q) + δ(l'i) <= e + 2δ``, so a
    δ approaching ``e`` triples the effective search radius and — exactly
    as the paper's own Figure 16 shows — collapses the filter's
    selectivity; capping at ``e/2`` keeps the worst-case bound at ``2e``.

    Args:
        database: the trajectory database the query will run on.
        eps: the convoy distance threshold ``e``.
        sample_fraction: fraction of trajectories to sample (the paper
            suggests "a sufficient time (e.g., 10% of N)").
        min_samples: sample at least this many trajectories (all of them
            when the database is smaller).
        seed: RNG seed for the trajectory sample, so parameter selection is
            reproducible.
        cap_fraction: upper bound on δ as a fraction of ``e``; pass 1.0 for
            the guideline exactly as published.

    Returns:
        The averaged δ.  Falls back to ``cap_fraction * eps / 2`` when
        every sampled trajectory is degenerate (straight lines produce no
        division tolerances below the cap).
    """
    check_eps(eps)
    if not (0.0 < cap_fraction <= 1.0):
        raise ValueError(f"cap_fraction must be in (0, 1], got {cap_fraction}")
    trajectories = list(database)
    if not trajectories:
        raise ValueError("cannot derive delta from an empty database")
    rng = random.Random(seed)
    sample_size = max(min_samples, int(len(trajectories) * sample_fraction))
    sample_size = min(sample_size, len(trajectories))
    sample = rng.sample(trajectories, sample_size)
    cap = eps * cap_fraction
    picks = []
    for trajectory in sample:
        # Section 7.4's zero-tolerance DP replay is the fully expanded DP
        # split tree, which later DP cuts of the trajectory share.
        tolerances = trajectory.split_tree(spatial_chord).split_deviations()
        choice = _largest_gap_choice(tolerances, cap)
        if choice is not None:
            picks.append(choice)
    if not picks:
        return cap / 2.0
    return sum(picks) / len(picks)


def compute_lambda(database, simplified_list, min_lambda=2):
    """Derive the time-partition length λ from the data (Section 7.4).

    For each object the paper estimates λ1 = |o'|/|o| · o.τ — the average
    time span a simplified segment covers — then discounts it by the
    probability that *other* objects have intermediate time points inside
    such a window:

        λ = o.τ · ( |o'|/|o| · (1 − o.τ/T) + 2/T )

    and averages over all objects.  For databases whose trajectories span
    the whole domain the formula degenerates toward its lower bound (the
    discount factor vanishes); the result is clamped to ``min_lambda``.

    Args:
        database: the trajectory database.
        simplified_list: the simplified trajectories (λ depends on the
            reduction ratio actually achieved with the chosen δ).
        min_lambda: lower clamp; λ = 1 would make the filter degenerate
            into per-time-point clustering.

    Returns:
        Integer λ >= ``min_lambda``.
    """
    if len(simplified_list) == 0:
        raise ValueError("cannot derive lambda without simplified trajectories")
    T = database.time_domain_length
    by_id = {s.object_id: s for s in simplified_list}
    values = []
    for trajectory in database:
        simplified = by_id.get(trajectory.object_id)
        if simplified is None:
            continue
        tau = trajectory.duration + 1
        ratio = len(simplified) / len(trajectory)
        values.append(tau * (ratio * (1.0 - tau / T) + 2.0 / T))
    if not values:
        raise ValueError("no simplified trajectory matches a database object")
    lam = int(round(sum(values) / len(values)))
    return max(min_lambda, lam)
