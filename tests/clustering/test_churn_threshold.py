"""The adaptive churn-threshold policy and the clusterer's threshold forms.

:class:`~repro.clustering.incremental.AdaptiveChurnThreshold` re-times
the incremental clusterer's fallback to a full pass from measured pass
costs; whatever it decides, every clustering must stay exactly
:func:`~repro.clustering.dbscan.dbscan`'s.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import (
    AdaptiveChurnThreshold,
    IncrementalSnapshotClusterer,
)
from repro.streaming import churn_stream


def churn_snapshots(churn, *, n=80, ticks=35, turnover=0.03, seed=5,
                    eps=5.0, area=None):
    return [
        snap for _t, snap in churn_stream(
            n, ticks, seed=seed, eps=eps, churn=churn, turnover=turnover,
            area=area,
        )
    ]


class TestAdaptiveChurnThreshold:
    def test_initial_threshold_until_fit_is_identifiable(self):
        policy = AdaptiveChurnThreshold(initial=0.4)
        assert policy.threshold == 0.4
        policy.observe_full(1000, 0.1)
        assert policy.threshold == 0.4  # no delta observation yet
        policy.observe_delta(100, 1000, 0.05)
        policy.observe_delta(100, 1000, 0.06)
        # Every delta pass so far ran at the same churn fraction: the
        # fixed/variable split is unidentifiable, so the threshold holds.
        assert policy.threshold == 0.4

    def test_crossover_math_on_affine_data(self):
        # Exact affine observations pin the fit regardless of EWMA
        # weights: u = 3e-5 + 2e-4 * c, full passes at 1e-4 s/point
        # -> crossover (1e-4 - 3e-5) / 2e-4 = 0.35.
        policy = AdaptiveChurnThreshold(initial=0.9, alpha=0.5)
        policy.observe_full(1000, 0.1)
        policy.observe_delta(100, 1000, 0.05)   # c=0.1, u=5e-5
        policy.observe_delta(300, 1000, 0.09)   # c=0.3, u=9e-5
        assert policy.threshold == pytest.approx(0.35)

    def test_low_churn_fixed_cost_does_not_ratchet_to_floor(self):
        """Regression: a naive seconds-per-churned-point model folds the
        O(n) fixed delta cost into the slope, so cheap low-churn passes
        looked expensive and the threshold ratcheted to the floor.  The
        affine fit must keep the true crossover instead."""
        policy = AdaptiveChurnThreshold(initial=0.35, floor=0.02)
        policy.observe_full(800, 0.08)           # phi = 1e-4
        # Delta passes at 1% and 2% churn, dominated by a fixed cost of
        # 2e-5 s/point with slope 1e-4: u(0.01)=2.1e-5, u(0.02)=2.2e-5.
        # Naive per-churned-point units would be 2.1e-3 and 1.1e-3 —
        # 10-20x the full unit, i.e. "never use delta".
        for _ in range(10):
            policy.observe_delta(8, 800, 0.0168)
            policy.observe_delta(16, 800, 0.0176)
        assert policy.threshold == pytest.approx(0.8, rel=1e-6)

    def test_zero_churn_passes_anchor_the_intercept(self):
        policy = AdaptiveChurnThreshold()
        policy.observe_full(1000, 0.1)            # phi = 1e-4
        policy.observe_delta(0, 1000, 0.02)       # c=0, u=2e-5 (intercept)
        policy.observe_delta(200, 1000, 0.06)     # c=0.2, u=6e-5 -> b=2e-4
        assert policy.threshold == pytest.approx(0.4)

    def test_clamped_to_floor_and_ceiling(self):
        policy = AdaptiveChurnThreshold(floor=0.1, ceiling=0.8)
        policy.observe_full(1000, 0.001)          # phi = 1e-6: full is free
        policy.observe_delta(0, 1000, 0.01)
        policy.observe_delta(500, 1000, 0.5)      # steep, costly delta
        assert policy.threshold == 0.1
        fast = AdaptiveChurnThreshold(floor=0.1, ceiling=0.8)
        fast.observe_full(1000, 1.0)              # phi = 1e-3: full is slow
        fast.observe_delta(0, 1000, 0.00001)
        fast.observe_delta(500, 1000, 0.00002)    # near-free delta
        assert fast.threshold == 0.8

    def test_negative_slope_is_ignored_as_noise(self):
        policy = AdaptiveChurnThreshold(initial=0.3)
        policy.observe_full(1000, 0.1)
        policy.observe_delta(100, 1000, 0.09)    # higher churn...
        policy.observe_delta(500, 1000, 0.01)    # ...measured cheaper
        assert policy.threshold == 0.3

    def test_degenerate_observations_ignored(self):
        policy = AdaptiveChurnThreshold(initial=0.3)
        policy.observe_full(0, 1.0)
        policy.observe_delta(-1, 1000, 1.0)
        policy.observe_delta(10, 0, 1.0)
        policy.observe_full(10, 0.0)
        policy.observe_delta(10, 1000, 0.0)
        assert policy.threshold == 0.3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveChurnThreshold(initial=1.5)
        with pytest.raises(ValueError):
            AdaptiveChurnThreshold(alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveChurnThreshold(floor=0.5, ceiling=0.2)

    def test_clusterer_accepts_adaptive_forms(self):
        snapshots = churn_snapshots(0.05, ticks=12)
        for form in ("adaptive", AdaptiveChurnThreshold(initial=0.5)):
            clusterer = IncrementalSnapshotClusterer(
                5.0, 3, churn_threshold=form
            )
            for snapshot in snapshots:
                assert clusterer.cluster(snapshot) == dbscan(snapshot, 5.0, 3)
            assert clusterer.counters["incremental_passes"] > 0
            assert 0.0 <= clusterer.churn_threshold <= 1.0

    def test_clusterer_rejects_bad_threshold_values(self):
        with pytest.raises(ValueError, match="adaptive"):
            IncrementalSnapshotClusterer(1.0, 2, churn_threshold=1.5)
        with pytest.raises(ValueError, match="adaptive"):
            IncrementalSnapshotClusterer(1.0, 2, churn_threshold="fast")

    @pytest.mark.parametrize("flag", [True, False])
    def test_clusterer_rejects_a_bool_threshold(self, flag):
        """Regression: ``True`` was taken as the fraction 1.0 (never fall
        back) and ``False`` as 0.0 (always fall back)."""
        with pytest.raises(ValueError, match="churn_threshold"):
            IncrementalSnapshotClusterer(1.0, 2, churn_threshold=flag)


class TestAdaptiveChurnThresholdProperties:
    """Edge-case properties: no observation sequence may crash the fit
    (division by zero) or drive the threshold outside its clamp, and
    degenerate streams must leave the policy stable, not oscillating."""

    @given(
        observations=st.lists(
            st.tuples(
                st.booleans(),                       # full pass?
                st.integers(min_value=0, max_value=2000),   # churned
                st.integers(min_value=0, max_value=2000),   # n_points
                st.floats(min_value=0.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
            ),
            max_size=60,
        )
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_observation_sequence_keeps_threshold_clamped(
        self, observations
    ):
        policy = AdaptiveChurnThreshold(floor=0.05, ceiling=0.9)
        for is_full, churned, n_points, seconds in observations:
            if is_full:
                policy.observe_full(n_points, seconds)
            else:
                policy.observe_delta(churned, n_points, seconds)
            assert 0.05 <= policy.threshold <= 0.9

    def test_zero_observed_samples(self):
        """A policy that never observes anything keeps its initial
        threshold; asking for it must not divide by zero."""
        policy = AdaptiveChurnThreshold(initial=0.42)
        for _ in range(3):
            assert policy.threshold == 0.42

    def test_all_equal_pass_costs_hold_the_threshold_steady(self):
        """Identical costs at one churn level make the slope
        unidentifiable (zero churn spread): the threshold must neither
        crash nor drift, however many samples arrive."""
        policy = AdaptiveChurnThreshold(initial=0.35)
        for _ in range(50):
            policy.observe_full(1000, 0.1)
            policy.observe_delta(200, 1000, 0.05)
        assert policy.threshold == 0.35

    def test_single_tick_stream_with_adaptive_policy(self):
        """One snapshot, then silence: the first (full) pass is the only
        observation and the policy must stay at its initial value."""
        clusterer = IncrementalSnapshotClusterer(
            5.0, 2, churn_threshold="adaptive"
        )
        snapshot = {"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (40.0, 40.0)}
        assert clusterer.cluster(snapshot) == dbscan(snapshot, 5.0, 2)
        assert clusterer.churn_threshold == pytest.approx(0.35)

    def test_consistent_costs_do_not_oscillate(self):
        """Once the fit has converged on self-consistent affine costs,
        further identical observations must not move the threshold — the
        EWMA settles instead of ringing."""
        policy = AdaptiveChurnThreshold(initial=0.9, alpha=0.5)
        def one_round():
            policy.observe_full(1000, 0.1)           # phi = 1e-4
            policy.observe_delta(100, 1000, 0.05)    # u(0.1) = 5e-5
            policy.observe_delta(300, 1000, 0.09)    # u(0.3) = 9e-5
        for _ in range(5):
            one_round()
        settled = [policy.threshold]
        for _ in range(20):
            one_round()
            settled.append(policy.threshold)
        assert max(settled) - min(settled) < 1e-9
        assert settled[0] == pytest.approx(0.35)

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(deadline=None, max_examples=15)
    def test_adaptive_clusterer_still_exact_under_any_seed(self, seed):
        """Whatever thresholds the measured costs produce, the clustering
        itself must remain exactly dbscan's."""
        rng = random.Random(seed)
        clusterer = IncrementalSnapshotClusterer(
            4.0, 2, churn_threshold="adaptive"
        )
        positions = {
            f"p{i}": (rng.uniform(0, 25), rng.uniform(0, 25))
            for i in range(20)
        }
        for _tick in range(6):
            for obj in rng.sample(sorted(positions), rng.randint(0, 6)):
                positions[obj] = (rng.uniform(0, 25), rng.uniform(0, 25))
            snapshot = dict(positions)
            assert clusterer.cluster(snapshot) == dbscan(snapshot, 4.0, 2)
