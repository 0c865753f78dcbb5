"""repro — convoy discovery in trajectory databases.

A from-scratch Python reproduction of *"Discovery of Convoys in Trajectory
Databases"* (Jeung, Yiu, Zhou, Jensen, Shen — VLDB 2008): the convoy query
(density-connected groups of >= m objects over >= k consecutive time
points), the exact CMC algorithm, and the CuTS / CuTS+ / CuTS* filter-and-
refinement family built on trajectory line simplification with provable
distance bounds.

Quickstart::

    from repro import TrajectoryDatabase, Trajectory, cmc, cuts

    db = TrajectoryDatabase([
        Trajectory("a", [(0, 0, t) for t in range(10)]),
        Trajectory("b", [(0, 1, t) for t in range(10)]),
        Trajectory("c", [(9, 9, t) for t in range(10)]),
    ])
    convoys = cmc(db, m=2, k=5, eps=2.0)          # exact baseline
    result = cuts(db, m=2, k=5, eps=2.0, variant="cuts*")
    assert result.convoys == convoys

See the README for the system inventory, and its "Benches → paper
figures" section for the bench that regenerates each table and figure.
"""

from repro.baselines import discover_flocks, mc2
from repro.clustering import IncrementalSnapshotClusterer
from repro.core import (
    Convoy,
    CutsResult,
    cmc,
    co_travel_totals,
    compute_delta,
    compute_lambda,
    convoy_sets_equal,
    convoy_timeline,
    convoys_during,
    convoys_of_object,
    cuts,
    false_negative_rate,
    false_positive_rate,
    is_valid_convoy,
    longest_convoy,
    normalize_convoys,
    participation_totals,
    summarize,
    top_convoys,
)
from repro.datasets import (
    DATASETS,
    DatasetSpec,
    car_dataset,
    cattle_dataset,
    synthetic_dataset,
    taxi_dataset,
    truck_dataset,
)
from repro.io import load_trajectories_csv, save_trajectories_csv
from repro.simplification import (
    douglas_peucker,
    douglas_peucker_plus,
    douglas_peucker_star,
)
from repro.streaming import (
    ReorderBuffer,
    StreamingConvoyMiner,
    StreamingPipeline,
    churn_stream,
    jitter_ticks,
    mine_stream,
    reorder_ticks,
    replay_csv,
    replay_database,
    synthetic_stream,
)
from repro.trajectory import Trajectory, TrajectoryDatabase, TrajectoryPoint

__version__ = "1.0.0"

__all__ = [
    "Convoy",
    "CutsResult",
    "DATASETS",
    "DatasetSpec",
    "IncrementalSnapshotClusterer",
    "ReorderBuffer",
    "StreamingConvoyMiner",
    "StreamingPipeline",
    "Trajectory",
    "TrajectoryDatabase",
    "TrajectoryPoint",
    "car_dataset",
    "cattle_dataset",
    "churn_stream",
    "cmc",
    "co_travel_totals",
    "compute_delta",
    "compute_lambda",
    "convoy_sets_equal",
    "convoy_timeline",
    "convoys_during",
    "convoys_of_object",
    "cuts",
    "discover_flocks",
    "longest_convoy",
    "participation_totals",
    "summarize",
    "top_convoys",
    "douglas_peucker",
    "douglas_peucker_plus",
    "douglas_peucker_star",
    "false_negative_rate",
    "false_positive_rate",
    "is_valid_convoy",
    "load_trajectories_csv",
    "mc2",
    "jitter_ticks",
    "mine_stream",
    "normalize_convoys",
    "reorder_ticks",
    "replay_csv",
    "replay_database",
    "save_trajectories_csv",
    "synthetic_dataset",
    "synthetic_stream",
    "taxi_dataset",
    "truck_dataset",
]
