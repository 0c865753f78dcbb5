"""Cross-module property tests (hypothesis).

These pin the structural invariants that the per-module unit tests state
only by example: simplification soundness end-to-end, the CMC result
contract (validity, maximal runs, no overlapping duplicates of the same
set), and the coherence of the derived query helpers.
"""

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cmc import cmc
from repro.core.queries import (
    convoy_timeline,
    participation_totals,
    summarize,
    top_convoys,
)
from repro.core.verification import is_valid_convoy, normalize_convoys
from repro.geometry.distance import point_segment_distance
from repro.simplification import SIMPLIFIERS
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory
from tests.filter_reference import chords_covering, segment_location_at


def build_database(seed, n=8, T=25, keep=0.85):
    rng = random.Random(seed)
    trajs = []
    for i in range(n):
        a = rng.randint(0, T // 2)
        b = rng.randint(a + 3, T)
        pts = []
        x, y = rng.uniform(0, 35), rng.uniform(0, 35)
        for t in range(a, b + 1):
            x += rng.uniform(-2, 2)
            y += rng.uniform(-2, 2)
            if rng.random() < keep or t in (a, b):
                pts.append((x, y, t))
        trajs.append(Trajectory(f"o{i}", pts))
    return TrajectoryDatabase(trajs)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=5000),
    method=st.sampled_from(["dp", "dp+", "dp*"]),
    delta=st.floats(min_value=0.0, max_value=8.0),
)
def test_simplified_trajectory_stays_within_delta_at_every_time(
    seed, method, delta
):
    """End-to-end Definition 4: at every *time point* (not just samples),
    the original interpolated location is within δ of the covering
    simplified segment — the property that makes Lemmas 1-3 true for the
    virtual points CMC clusters."""
    db = build_database(seed, n=3)
    simplifier = SIMPLIFIERS[method]
    for trajectory in db:
        simplified = simplifier(trajectory, delta)
        for t in range(trajectory.start_time, trajectory.end_time + 1):
            location = trajectory.location_at(t)
            covering = chords_covering(simplified, t)
            assert covering
            best = min(
                (
                    math.dist(
                        location, segment_location_at(start, end, t1, t2, t)
                    )
                    if method == "dp*"
                    else point_segment_distance(location, start, end)
                )
                - tol
                for start, end, t1, t2, tol in covering
            )
            assert best <= 1e-6


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=5000),
    m=st.integers(min_value=2, max_value=3),
    k=st.integers(min_value=2, max_value=6),
    eps=st.floats(min_value=2.0, max_value=9.0),
)
def test_cmc_result_contract(seed, m, k, eps):
    """Every reported convoy is valid, maximal in time (cannot be extended
    one step either way for the same object set), and the normalized
    result has no dominated entries."""
    db = build_database(seed)
    convoys = cmc(db, m, k, eps)
    normalized = normalize_convoys(convoys)
    for convoy in normalized:
        assert is_valid_convoy(db, convoy, m, k, eps)
        # Not extensible: the same set is not a valid convoy over an
        # interval extended by one time point in either direction.
        from repro.core.convoy import Convoy

        if convoy.t_start > db.min_time:
            extended = Convoy(
                convoy.objects, convoy.t_start - 1, convoy.t_end
            )
            assert not is_valid_convoy(db, extended, m, k, eps)
        if convoy.t_end < db.max_time:
            extended = Convoy(
                convoy.objects, convoy.t_start, convoy.t_end + 1
            )
            assert not is_valid_convoy(db, extended, m, k, eps)
    for i, a in enumerate(normalized):
        for j, b in enumerate(normalized):
            if i != j:
                assert not (a.dominates(b))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=5000))
def test_query_helpers_are_coherent(seed):
    db = build_database(seed)
    convoys = normalize_convoys(cmc(db, 2, 3, 6.0))
    summary = summarize(convoys)
    assert summary["count"] == len(convoys)
    totals = participation_totals(convoys)
    assert sum(totals.values()) == sum(c.size * c.lifetime for c in convoys)
    timeline = convoy_timeline(convoys)
    if convoys:
        assert max(timeline.values()) <= len(convoys)
        assert sum(timeline.values()) == sum(c.lifetime for c in convoys)
        best = top_convoys(convoys, limit=1, by="mass")[0]
        assert best.size * best.lifetime == max(
            c.size * c.lifetime for c in convoys
        )
    else:
        assert timeline == {}


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    t_split=st.integers(min_value=5, max_value=20),
)
def test_cmc_time_restriction_consistency(seed, t_split):
    """Convoys wholly inside a window are found when CMC runs on just that
    window (restriction never invents or loses interior convoys)."""
    db = build_database(seed, T=25)
    # The generated database may start after t_split (every trajectory's
    # interval is random); clamp so the window is never reversed.
    t_split = max(t_split, db.min_time)
    full = normalize_convoys(cmc(db, 2, 3, 6.0))
    windowed = normalize_convoys(
        cmc(db, 2, 3, 6.0, time_range=(db.min_time, t_split))
    )
    for convoy in full:
        if convoy.t_end <= t_split:
            assert any(w.dominates(convoy) for w in windowed)
