"""Tests for the CuTS family — filter behaviour, refinement, and the
exactness guarantee (CuTS == CMC) that is the paper's headline claim."""

import math
import random

import pytest

from repro.core.cmc import cmc
from repro.core.convoy import Convoy
from repro.core.cuts import VARIANTS, CutsResult, cuts, cuts_filter, refinement_unit
from repro.core.verification import convoy_sets_equal, normalize_convoys
from repro.simplification import SIMPLIFIERS
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory
from tests.oracle import tie_eps


def random_database(seed, n_lo=4, n_hi=12, t_hi=40):
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    T = rng.randint(10, t_hi)
    trajs = []
    for i in range(n):
        a = rng.randint(0, T // 2)
        b = rng.randint(a + 3, T)
        pts = []
        x, y = rng.uniform(0, 50), rng.uniform(0, 50)
        for t in range(a, b + 1):
            x += rng.uniform(-2, 2)
            y += rng.uniform(-2, 2)
            if rng.random() < 0.85 or t in (a, b):
                pts.append((x, y, t))
        trajs.append(Trajectory(f"o{i}", pts))
    return TrajectoryDatabase(trajs), rng


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


def straight(oid, x0, y0, t0, t1):
    return (oid, [(x0 + (t - t0), y0, t) for t in range(t0, t1 + 1)])


class TestParameterValidation:
    def test_unknown_variant(self):
        db = db_of(straight("a", 0, 0, 0, 5))
        with pytest.raises(ValueError):
            cuts(db, 2, 2, 1.0, variant="cuts**")

    @pytest.mark.parametrize(
        "bad", [0, -1, math.nan, math.inf, 2.5, True, "3"],
        ids=["zero", "negative", "nan", "inf", "fraction", "bool", "str"],
    )
    def test_bad_query_params(self, bad):
        """Regression: ``m < 1`` was the only check, so NaN and inf
        answered zero convoys and 2.5 acted as 3."""
        db = db_of(straight("a", 0, 0, 0, 5), straight("b", 0, 1, 0, 5))
        with pytest.raises(ValueError, match="m must be >= 1 and an integer"):
            cuts(db, bad, 2, 1.0)
        with pytest.raises(ValueError, match="k must be >= 1 and an integer"):
            cuts(db, 2, bad, 1.0)
        with pytest.raises(ValueError):
            cuts(db, 2, 2, -1.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_is_rejected_by_name(self, eps):
        """Regression: ``eps <= 0`` let NaN through, and CuTS* then
        answered zero convoys instead of an error."""
        db = db_of(straight("a", 0, 0, 0, 5), straight("b", 0, 1, 0, 5))
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            cuts(db, 2, 2, eps, variant="cuts*")

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("kwargs, match", [
        (dict(lam=2.5), "lambda must be >= 1 and an integer, got 2.5"),
        (dict(lam=3.0), "lambda must be >= 1 and an integer, got 3.0"),
        (dict(lam=True), "lambda must be >= 1 and an integer, got True"),
        (dict(delta=math.nan), "delta must be non-negative and finite"),
        (dict(delta=math.inf), "delta must be non-negative and finite"),
        (dict(delta=True), "delta must be non-negative and finite"),
    ], ids=["lam-fraction", "lam-float", "lam-bool", "delta-nan",
            "delta-inf", "delta-bool"])
    def test_bad_lam_or_delta_is_rejected_by_name(self, variant, kwargs,
                                                  match):
        """Regression: lam=2.5 died with a TypeError from the filter,
        lam=True ran as λ=1, and a NaN, infinite or bool δ ran and was
        echoed back in the result."""
        db = db_of(straight("a", 0, 0, 0, 5), straight("b", 0, 1, 0, 5))
        with pytest.raises(ValueError, match=match):
            cuts(db, 2, 2, 1.0, variant=variant, **kwargs)

    @pytest.mark.parametrize("kwargs", [dict(lam=2.5), dict(delta=math.nan)],
                             ids=["lam", "delta"])
    def test_bad_lam_or_delta_checked_before_the_empty_shortcut(self,
                                                                kwargs):
        with pytest.raises(ValueError, match="must be"):
            cuts(TrajectoryDatabase(), 2, 2, 1.0, **kwargs)

    def test_empty_database(self):
        result = cuts(TrajectoryDatabase(), 2, 2, 1.0)
        assert result.convoys == []

    def test_variant_registry_matches_paper_table(self):
        assert VARIANTS["cuts"] == {"simplifier": "dp", "distance_mode": "dll"}
        assert VARIANTS["cuts+"] == {"simplifier": "dp+", "distance_mode": "dll"}
        assert VARIANTS["cuts*"] == {"simplifier": "dp*", "distance_mode": "cpa"}


class TestSimpleQueries:
    @pytest.mark.parametrize("variant", ["cuts", "cuts+", "cuts*"])
    def test_parallel_pair(self, variant):
        db = db_of(
            straight("a", 0, 0, 0, 9),
            straight("b", 0, 1, 0, 9),
            straight("c", 0, 200, 0, 9),
        )
        result = cuts(db, 2, 5, 2.0, variant=variant)
        assert result.convoys == [Convoy(["a", "b"], 0, 9)]

    @pytest.mark.parametrize("variant", ["cuts", "cuts+", "cuts*"])
    def test_no_convoy(self, variant):
        db = db_of(
            straight("a", 0, 0, 0, 9),
            straight("b", 0, 500, 0, 9),
        )
        result = cuts(db, 2, 5, 2.0, variant=variant)
        assert result.convoys == []

    def test_result_instrumentation(self):
        db = db_of(
            straight("a", 0, 0, 0, 9),
            straight("b", 0, 1, 0, 9),
        )
        result = cuts(db, 2, 5, 2.0, delta=0.5, lam=3)
        assert isinstance(result, CutsResult)
        assert result.delta == 0.5
        assert result.lam == 3
        assert set(result.durations) == {"simplification", "filter", "refinement"}
        assert result.total_time >= 0
        assert result.refinement_unit > 0
        assert result.simplification["original_points"] == 20

    def test_auto_parameters_derived(self):
        db, _ = random_database(0)
        result = cuts(db, 2, 3, 5.0)
        assert result.delta > 0
        assert result.lam >= 2


class TestFilterStep:
    def _simplify(self, db, delta, name="dp"):
        return [SIMPLIFIERS[name](tr, delta) for tr in db]

    def test_filter_never_dismisses_true_convoy(self):
        """Core guarantee: every CMC convoy lies inside some candidate
        (objects within the candidate's window clusters, interval within
        the candidate's window)."""
        for seed in range(25):
            db, rng = random_database(seed)
            m, k = rng.randint(2, 3), rng.randint(2, 5)
            eps = rng.uniform(3, 9)
            delta = rng.uniform(0.1, eps)
            lam = rng.randint(1, 8)
            exact = cmc(db, m, k, eps)
            simplified = self._simplify(db, delta)
            candidates, _links = cuts_filter(
                simplified, m, k, eps, lam, db.min_time, db.max_time
            )
            for convoy in exact:
                holder = [
                    c
                    for c in candidates
                    if c.t_start <= convoy.t_start
                    and convoy.t_end <= c.t_end
                    and convoy.objects <= c.union
                ]
                assert holder, f"seed={seed}: {convoy} missed by the filter"

    def test_filter_stats_populated(self):
        db, _ = random_database(3)
        stats = {}
        simplified = self._simplify(db, 1.0)
        cuts_filter(
            simplified, 2, 2, 5.0, 4, db.min_time, db.max_time,
            filter_stats=stats,
        )
        assert stats.get("pairs_considered", 0) >= stats.get("pairs_linked", 0)

    def test_lambda_one_equals_snapshot_granularity(self):
        db = db_of(
            straight("a", 0, 0, 0, 9),
            straight("b", 0, 1, 0, 9),
        )
        simplified = self._simplify(db, 0.1)
        candidates, _links = cuts_filter(simplified, 2, 5, 2.0, 1, 0, 9)
        assert any(
            c.t_start == 0 and c.t_end == 9 and c.objects == frozenset({"a", "b"})
            for c in candidates
        )

    def test_refinement_unit_formula(self):
        from repro.core.candidates import ClosedCandidate

        candidate = ClosedCandidate(
            frozenset({"a", "b"}), 0, 5,
            (
                (0, 2, frozenset({"a", "b", "c"})),   # 3^2 * 3 = 27
                (3, 5, frozenset({"a", "b"})),        # 2^2 * 3 = 12
            ),
        )
        assert refinement_unit([candidate]) == 39.0


class TestExactness:
    """CuTS/CuTS+/CuTS* return exactly CMC's answer — the paper's
    correctness claim, for random databases and adversarial parameters."""

    @pytest.mark.parametrize("variant", ["cuts", "cuts+", "cuts*"])
    def test_equals_cmc_on_random_databases(self, variant):
        for seed in range(20):
            db, rng = random_database(seed * 7 + 1)
            m, k = rng.randint(2, 3), rng.randint(2, 6)
            eps = rng.uniform(3, 10)
            exact = normalize_convoys(cmc(db, m, k, eps))
            result = cuts(
                db, m, k, eps,
                delta=rng.uniform(0.1, eps),
                lam=rng.randint(1, 2 * k),
                variant=variant,
            )
            assert convoy_sets_equal(exact, result.convoys), (
                f"seed={seed} m={m} k={k} eps={eps:.2f}"
            )

    @pytest.mark.parametrize("variant", ["cuts", "cuts+", "cuts*"])
    def test_equals_cmc_with_extreme_delta(self, variant):
        """δ larger than e is allowed (slow filter, still exact)."""
        db, _ = random_database(77)
        exact = normalize_convoys(cmc(db, 2, 3, 5.0))
        result = cuts(db, 2, 3, 5.0, delta=12.0, lam=2, variant=variant)
        assert convoy_sets_equal(exact, result.convoys)

    def test_exactness_without_actual_tolerance(self):
        """Figure 14's global-tolerance mode is slower, never wrong."""
        db, _ = random_database(78)
        exact = normalize_convoys(cmc(db, 2, 3, 5.0))
        result = cuts(
            db, 2, 3, 5.0, delta=2.0, lam=3, use_actual_tolerance=False
        )
        assert convoy_sets_equal(exact, result.convoys)

    def test_exactness_without_lemma2(self):
        db, _ = random_database(79)
        exact = normalize_convoys(cmc(db, 2, 3, 5.0))
        result = cuts(db, 2, 3, 5.0, delta=2.0, lam=3, use_lemma2=False)
        assert convoy_sets_equal(exact, result.convoys)

    def test_actual_tolerance_filters_no_worse(self):
        """Figure 14: actual tolerances can only shrink the refinement
        workload relative to the global tolerance."""
        db, _ = random_database(80)
        with_actual = cuts(db, 2, 3, 5.0, delta=3.0, lam=3)
        with_global = cuts(
            db, 2, 3, 5.0, delta=3.0, lam=3, use_actual_tolerance=False
        )
        assert with_actual.refinement_unit <= with_global.refinement_unit


def bumpy_database(rng, eps):
    """Objects on parallel lanes a little more than ``eps`` apart.

    Each lane object makes tent-shaped excursions, 0.4-1.0 lane gaps
    high, toward or away from its neighbours; only at the peaks does a
    pair come within ``eps``.  Simplifying with δ comparable to ``eps``
    drops those peaks, so the filter finds the pair only through the
    tolerance term of the Lemma 1/3 bound.
    """
    trajectories = []
    t_end = rng.randint(12, 24)
    speed = rng.uniform(0.5, 1.5)
    for lane in range(rng.randint(2, 4)):
        gap = rng.uniform(1.1, 1.8) * eps
        bumps = {}
        t = rng.randint(0, 4)
        while t < t_end:
            width = rng.randint(1, 3)
            height = rng.uniform(0.4, 1.0) * gap * rng.choice((1, -1))
            for dt in range(-width, width + 1):
                bumps[t + dt] = height * (1 - abs(dt) / (width + 1))
            t += 2 * width + rng.randint(2, 6)
        points = [(speed * t, lane * gap + bumps.get(t, 0.0), t)
                  for t in range(t_end + 1)]
        trajectories.append(Trajectory(f"lane{lane}", points))
    return TrajectoryDatabase(trajectories)


class TestToleranceTermOfTheBound:
    """Every variant needs ``δ(l_a) + δ(l_b)`` in its Lemma 1/3 bound:
    with the tolerances left out, the filter dismisses convoys whose
    closeness simplification smoothed away."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_peak_dropped_by_simplification(self, variant):
        """``a`` peaks at (5, 3) one unit below the parked ``b``; δ = 3.5
        simplifies ``a`` to its base chord, 4 units from ``b``, with
        actual tolerance 3."""
        db = db_of(
            ("a", [(t, 0.6 * min(t, 10 - t), t) for t in range(11)]),
            ("b", [(5, 4, t) for t in range(3, 8)]),
        )
        want = [Convoy({"a", "b"}, 5, 5)]
        assert normalize_convoys(cmc(db, 2, 1, 1.5)) == want
        result = cuts(db, 2, 1, 1.5, delta=3.5, lam=2, variant=variant)
        assert result.simplification["kept_points"] == 4
        assert result.convoys == want

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_equals_cmc_where_simplification_drops_close_points(
        self, variant
    ):
        dropped = 0
        for seed in range(20):
            rng = random.Random(seed)
            eps = rng.uniform(1.0, 4.0)
            db = bumpy_database(rng, eps)
            k = rng.randint(1, 2)
            exact = normalize_convoys(cmc(db, 2, k, eps))
            result = cuts(
                db, 2, k, eps, delta=eps * rng.uniform(0.8, 1.6),
                lam=rng.randint(1, 5), variant=variant,
            )
            report = result.simplification
            dropped += report["original_points"] - report["kept_points"]
            assert convoy_sets_equal(exact, result.convoys), f"seed={seed}"
        assert dropped > 0


class TestRefinementOverLinks:
    """The refinement re-clusters each covered time point over the
    filter's links and must still give CMC's answer exactly."""

    def test_tie_at_eps_is_kept_by_every_variant(self):
        """Regression: the D* kernel computed ``p + v·t`` from t=0
        anchors and rounded this pair above the bound, so CuTS* answered
        nothing where CMC finds ``{a, b}`` at t=9."""
        db = db_of(
            ("a", [(89.55112570963837, 73.0985766095911, 0),
                   (-3.45591736596036, 77.20319698531108, 9)]),
            ("b", [(-40.543672335192824, 96.09169432820414, 0),
                   (-35.42906840417844, 84.86821258077458, 9)]),
        )
        eps = 32.8790944429953
        want = [Convoy({"a", "b"}, 9, 9)]
        assert normalize_convoys(cmc(db, 2, 1, eps)) == want
        for variant in sorted(VARIANTS):
            assert cuts(db, 2, 1, eps, variant=variant).convoys == want

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_ties_at_virtual_points_equal_cmc(self, variant):
        """Two sparsely sampled objects with eps tied at a tick between
        samples: the refinement's cursor must interpolate bit for bit as
        CMC's ``location_at`` does, or the tie lands on the other side."""
        rng = random.Random(variant)
        for trial in range(60):
            tracks = []
            for name in "ab":
                times = sorted(rng.sample(range(12), 3))
                tracks.append((name, [
                    (rng.uniform(-50, 50), rng.uniform(-50, 50), t)
                    for t in times
                ]))
            db = db_of(*tracks)
            a, b = db["a"], db["b"]
            lo = max(a.start_time, b.start_time)
            hi = min(a.end_time, b.end_time)
            virtual = [t for t in range(lo, hi + 1)
                       if not a.has_sample_at(t) or not b.has_sample_at(t)]
            if not virtual:
                continue
            t = rng.choice(virtual)
            pa, pb = a.location_at(t), b.location_at(t)
            if pa == pb:
                continue
            eps = tie_eps(pa, pb)
            exact = normalize_convoys(cmc(db, 2, 1, eps))
            result = cuts(db, 2, 1, eps, delta=rng.uniform(0.0, eps),
                          lam=rng.randint(1, 4), variant=variant)
            assert result.convoys == exact, (trial, t, eps)

    @pytest.mark.parametrize("case", [
        "left-listed-first", "right-listed-first", "right-starts-first",
    ])
    def test_border_object_goes_where_cmc_puts_it(self, case):
        """Object 13 is a border object within e of a core object of
        either group, so it joins whichever group's cluster a snapshot
        scan reaches first, and with m=4 the left group is a convoy only
        with 13 in it.  CMC scans in database order stable-sorted by
        start time, and so must the refinement, whatever order a set of
        the ids iterates in (ascending for these small ints)."""
        left = [(10, -0.9), (11, -0.5), (12, 0.0)]
        right = [(1, 2.0), (2, 2.3), (3, 2.6), (4, 2.9)]

        def track(oid, x, early):
            points = [(x, 0.0, 5)]
            if early:  # alive from t=4, far from every other object
                points.insert(0, (100.0 * oid, 50.0, 4))
            return oid, points

        listed = right + left if case == "right-listed-first" else left + right
        early = case == "right-starts-first"
        db = db_of(
            *[track(oid, x, early and oid < 10) for oid, x in listed],
            (13, [(1.0, 0.0, 5)]),
        )
        if case == "left-listed-first":
            want = [Convoy({1, 2, 3, 4}, 5, 5), Convoy({10, 11, 12, 13}, 5, 5)]
        else:
            want = [Convoy({1, 2, 3, 4, 13}, 5, 5)]
        assert normalize_convoys(cmc(db, 4, 1, 1.0)) == want
        for variant in sorted(VARIANTS):
            result = cuts(db, 4, 1, 1.0, delta=0.0, lam=1, variant=variant)
            assert result.convoys == want

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_single_objects_equal_cmc_at_m_1(self, variant):
        """With m = 1 an alive object with no neighbour is a cluster of
        its own, so the refinement clusters the covered objects that
        have no link too."""
        for seed in range(12):
            db, rng = random_database(seed * 5 + 3)
            k = rng.randint(1, 6)
            eps = rng.uniform(1, 10)
            exact = normalize_convoys(cmc(db, 1, k, eps))
            result = cuts(
                db, 1, k, eps, delta=rng.uniform(0.1, eps),
                lam=rng.randint(1, 2 * k), variant=variant,
            )
            assert convoy_sets_equal(exact, result.convoys), f"seed={seed}"

    def test_filter_keeps_the_links_of_every_clustered_window(self):
        db = db_of(
            straight("a", 0, 0, 0, 9),
            straight("b", 0, 1, 0, 9),
            straight("c", 0, 200, 0, 9),
        )
        simplified = [SIMPLIFIERS["dp"](tr, 0.1) for tr in db]
        candidates, links = cuts_filter(simplified, 2, 2, 2.0, 4, 0, 9)
        assert sorted(links) == [0, 4, 8]
        assert all(sorted(pairs) == [0, 1] for pairs in links.values())
        assert {(c.t_start, c.t_end) for c in candidates} == {(0, 9)}
