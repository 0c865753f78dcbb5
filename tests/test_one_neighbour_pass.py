"""Snapshot clustering has one implementation and no knob to pick one.

The grid pass (:meth:`GridIndex.all_neighbors`) is the only neighbour
pass, so no surface takes a ``backend`` argument any more: a caller
still passing one gets a ``TypeError`` (not a silently ignored
keyword), ``stream --backend`` is an argparse error, and a ``hello``
carrying ``"backend"`` is rejected as an unknown config key (see
``tests/service/test_service.py``).
"""

import io

import pytest

from repro.cli import main
from repro.clustering.dbscan import dbscan
from repro.clustering.incremental import IncrementalSnapshotClusterer
from repro.core.cmc import cmc
from repro.streaming import StreamingConvoyMiner, mine_stream
from repro.streaming.pipeline import ClusterStage
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory

PAIR = {"a": (0.0, 0.0), "b": (1.0, 0.0)}


def pair_database():
    return TrajectoryDatabase([
        Trajectory("a", [(0.0, 0.0, t) for t in range(4)]),
        Trajectory("b", [(1.0, 0.0, t) for t in range(4)]),
    ])


SURFACES = {
    "dbscan": lambda **kw: dbscan(PAIR, 2.0, 2, **kw),
    "incremental-clusterer": (
        lambda **kw: IncrementalSnapshotClusterer(2.0, 2, **kw)
    ),
    "cluster-stage": lambda **kw: ClusterStage(None, 2.0, 2, {}, **kw),
    "streaming-miner": lambda **kw: StreamingConvoyMiner(2, 2, 2.0, **kw),
    "mine-stream": (
        lambda **kw: mine_stream(iter([(0, PAIR), (1, PAIR)]), 2, 2, 2.0,
                                 **kw)
    ),
    "cmc": lambda **kw: cmc(pair_database(), 2, 2, 2.0, **kw),
}


@pytest.mark.parametrize("surface", sorted(SURFACES))
def test_backend_keyword_is_a_type_error(surface):
    call = SURFACES[surface]
    call()  # the surface itself works without it
    for value in ("python", "vector"):
        with pytest.raises(TypeError, match="backend"):
            call(backend=value)


def test_miner_has_no_backend_attribute():
    with StreamingConvoyMiner(2, 2, 2.0, clusterer="incremental") as miner:
        assert not hasattr(miner, "backend")
        assert not hasattr(miner.clusterer, "backend")


def test_stream_backend_flag_is_an_argparse_error(capsys):
    out = io.StringIO()
    argv = ["stream", "--synthetic", "10x5", "-m", "2", "-k", "2",
            "-e", "5", "--quiet"]
    assert main(argv, out=out) == 0
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--backend", "python"], out=io.StringIO())
    assert excinfo.value.code == 2
    assert "--backend" in capsys.readouterr().err
