"""``eps`` and ``delta`` are each checked once, by
:func:`repro.checks.check_eps` and :func:`repro.checks.check_delta`, on
every surface that takes them; ``time_range`` is checked once, by
:func:`repro.streaming.source.replay_database`, which every offline
driver reads its snapshots from."""

import math

import pytest

from repro.baselines import discover_flocks, mc2
from repro.baselines.moving_clusters import mc2_convoy_answers
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.core.cmc import cmc
from repro.core.cuts import cuts
from repro.core.params import compute_delta
from repro.service import ProtocolError, build_miner
from repro.simplification import SIMPLIFIERS
from repro.io import save_trajectories_csv
from repro.streaming import StreamingConvoyMiner, replay_csv, replay_database
from repro.trajectory import Trajectory, TrajectoryDatabase
from tests.oracle import dbscan_brute_force

POINTS = {"a": (0.0, 0.0), "b": (1.0, 0.0)}
DB = TrajectoryDatabase([
    Trajectory("a", [(t, 0.0, t) for t in range(6)]),
    Trajectory("b", [(t, 1.0, t) for t in range(6)]),
])

SURFACES = {
    "dbscan": lambda eps: dbscan(POINTS, eps, 2),
    "dbscan-empty": lambda eps: dbscan({}, eps, 2),
    "dbscan_brute_force": lambda eps: dbscan_brute_force(POINTS, eps, 1),
    "incremental": lambda eps: IncrementalSnapshotClusterer(eps, 2),
    "miner": lambda eps: StreamingConvoyMiner(2, 2, eps),
    "cmc": lambda eps: cmc(DB, 2, 2, eps),
    "mc2": lambda eps: mc2(DB, eps, 2, 0.5),
    "cuts": lambda eps: cuts(DB, 2, 2, eps, variant="cuts*"),
    "compute_delta": lambda eps: compute_delta(DB, eps),
}

BAD = {
    "true": True,
    "false": False,
    "str": "3",
    "none": None,
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -math.inf,
    "zero": 0,
    "negative": -1.0,
    "huge-int": 10**400,
}


@pytest.mark.parametrize("bad", sorted(BAD))
@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_bad_eps_is_refused_by_name(surface, bad):
    """Regression: ``True`` ran as eps 1.0 (cmc, cuts and dbscan mined),
    a string died with a TypeError from a comparison, a NaN made
    ``dbscan_brute_force`` answer ``[]``, and 10**400 raised
    OverflowError."""
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        SURFACES[surface](BAD[bad])


@pytest.mark.parametrize("surface", sorted(SURFACES))
@pytest.mark.parametrize("eps", [2, 2.5], ids=["int", "float"])
def test_positive_finite_eps_is_accepted(surface, eps):
    SURFACES[surface](eps)


@pytest.mark.parametrize("bad", ["true", "str", "nan"])
def test_hello_with_a_bad_eps_is_a_protocol_error(bad):
    """Regression: a ``hello`` with ``"eps": true`` opened a tenant that
    mined at eps 1.0."""
    with pytest.raises(ProtocolError, match="eps must be positive"):
        build_miner({"m": 2, "k": 2, "eps": BAD[bad]})


#: Every surface that takes a simplification tolerance δ.  DP and DP* cut
#: a split tree (``SplitTree.cut``); DP+ runs the ``Simplifier`` engine.
DELTA_SURFACES = {
    "cuts": lambda delta: cuts(DB, 2, 2, 1.5, delta=delta, variant="cuts*"),
    "dp": lambda delta: SIMPLIFIERS["dp"](DB["a"], delta),
    "dp+": lambda delta: SIMPLIFIERS["dp+"](DB["a"], delta),
    "dp*": lambda delta: SIMPLIFIERS["dp*"](DB["a"], delta),
}

BAD_DELTA = {
    "true": True,
    "false": False,
    "str": "0.5",
    "nan": math.nan,
    "inf": math.inf,
    "minus-inf": -math.inf,
    "negative": -1.0,
    "huge-int": 10**400,
}


@pytest.mark.parametrize("bad", sorted(BAD_DELTA))
@pytest.mark.parametrize("surface", sorted(DELTA_SURFACES))
def test_bad_delta_is_refused_by_name(surface, bad):
    """Regression: the simplifiers accepted a NaN δ (DP and DP* kept only
    the end samples, DP+ every sample) and 10**400, refused a negative δ
    without saying "finite", and died with a TypeError on a string."""
    with pytest.raises(ValueError, match="delta must be non-negative and finite"):
        DELTA_SURFACES[surface](BAD_DELTA[bad])


@pytest.mark.parametrize("surface", sorted(DELTA_SURFACES))
@pytest.mark.parametrize("delta", [0, 0.0, 2.5], ids=["int-zero", "zero", "float"])
def test_non_negative_finite_delta_is_accepted(surface, delta):
    DELTA_SURFACES[surface](delta)


#: Every surface that takes a ``time_range``, run on a database given as
#: a TrajectoryDatabase (``replay_csv`` reads it from a CSV).
TIME_RANGE_SURFACES = {
    "cmc": lambda db, tr: cmc(db, 2, 2, 1.5, time_range=tr),
    "replay_database": lambda db, tr: list(replay_database(db, tr)),
    "replay_csv": lambda path, tr: list(replay_csv(path, tr)),
    "mc2": lambda db, tr: mc2(db, 1.5, 2, 0.5, time_range=tr),
    "mc2_convoy_answers": lambda db, tr: mc2_convoy_answers(
        db, 1.5, 2, 0.5, time_range=tr
    ),
    "discover_flocks": lambda db, tr: discover_flocks(
        db, 2, 2, 1.5, time_range=tr
    ),
}

#: Ranges that are not a ``(t_lo, t_hi)`` pair of ints.
BAD_TIME_RANGE = {
    "float": (0, 2.5),
    "str": ("0", "3"),
    "bool": (False, True),
    "triple": (0, 1, 2),
    "single": (3,),
    "scalar": 3,
    "none-bound": (0, None),
}


def run_time_range_surface(surface, db, time_range, tmp_path):
    if surface == "replay_csv":
        path = tmp_path / "db.csv"
        save_trajectories_csv(db, path)
        db = path
    return TIME_RANGE_SURFACES[surface](db, time_range)


@pytest.mark.parametrize("bad", sorted(BAD_TIME_RANGE))
@pytest.mark.parametrize("surface", sorted(TIME_RANGE_SURFACES))
def test_bad_time_range_is_refused_by_name(surface, bad, tmp_path):
    """Regression: a float or string bound died with a TypeError from
    ``range``, ``(False, True)`` ran as ticks 0-1, and a 3-tuple died
    with an unpack message."""
    with pytest.raises(ValueError, match="time_range must be a"):
        run_time_range_surface(surface, DB, BAD_TIME_RANGE[bad], tmp_path)


@pytest.mark.parametrize("bad", sorted(BAD_TIME_RANGE) + ["reversed"])
@pytest.mark.parametrize("surface", sorted(TIME_RANGE_SURFACES))
def test_empty_database_refuses_a_bad_time_range(surface, bad, tmp_path):
    """Regression: every surface answered ``[]`` on an empty database
    before it looked at the range."""
    time_range = BAD_TIME_RANGE.get(bad, (5, 2))
    with pytest.raises(ValueError, match="time_range"):
        run_time_range_surface(
            surface, TrajectoryDatabase(), time_range, tmp_path
        )


@pytest.mark.parametrize(
    "surface", ["discover_flocks", "mc2", "mc2_convoy_answers"]
)
def test_baselines_refuse_a_reversed_time_range(surface, tmp_path):
    """Regression: the baselines answered ``[]`` where cmc refused."""
    with pytest.raises(ValueError, match="time_range reversed"):
        run_time_range_surface(surface, DB, (5, 2), tmp_path)


@pytest.mark.parametrize("surface", sorted(TIME_RANGE_SURFACES))
@pytest.mark.parametrize("time_range", [(1, 4), (3, 3), (-2, 9)],
                         ids=["inside", "one-tick", "past-both-ends"])
def test_int_pair_time_range_is_accepted(surface, time_range, tmp_path):
    run_time_range_surface(surface, DB, time_range, tmp_path)
