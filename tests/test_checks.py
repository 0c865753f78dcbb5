"""``eps`` is checked once, by :func:`repro.checks.check_eps`, on every
surface that takes it."""

import math

import pytest

from repro.clustering.dbscan import dbscan, dbscan_brute_force
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.clustering.range_search import PolylineRangeSearcher
from repro.core.cmc import cmc
from repro.core.cuts import cuts
from repro.core.params import compute_delta
from repro.service import ProtocolError, build_miner
from repro.streaming import StreamingConvoyMiner
from repro.trajectory import Trajectory, TrajectoryDatabase

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
    "cuts": lambda eps: cuts(DB, 2, 2, eps, variant="cuts*"),
    "compute_delta": lambda eps: compute_delta(DB, eps),
    "range_search": lambda eps: PolylineRangeSearcher([], eps),
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
