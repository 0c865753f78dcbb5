"""Synthetic trajectory datasets emulating the paper's evaluation data.

The paper evaluates on four real datasets (Truck/Athens, Cattle/CSIRO,
Car/Copenhagen, Taxi/Beijing) that are not redistributable.  Convoy
discovery experiments depend on the data's *shape* — object count, time
domain length, sampling regularity, lifetime heterogeneity, and the amount
of genuine co-movement — rather than on geography, so each dataset is
replaced by a seeded generator matching those shape parameters.

* :func:`truck_dataset` — many objects with medium-length, partially
  overlapping lifetimes and strong route-sharing (most convoys);
* :func:`cattle_dataset` — very few objects with enormous, regularly
  sampled histories (simplification-dominated workloads);
* :func:`car_dataset` — heterogeneous trajectory lengths and staggered
  appearance (the regime that penalizes CMC's virtual points);
* :func:`taxi_dataset` — many near-uniformly scattered objects with short,
  irregularly sampled histories (clustering-dominated, ~no convoys).

All generators accept a ``scale`` multiplier on the time domain (and the
derived lifetime parameter ``k``) so tests run in milliseconds and benches
in seconds; ``scale=1.0`` approximates the paper's point counts.
"""

from repro.datasets.movers import (
    group_trajectories,
    irregular_sample,
    waypoint_positions,
)
from repro.datasets.paperlike import (
    DATASETS,
    DatasetSpec,
    car_dataset,
    cattle_dataset,
    synthetic_dataset,
    taxi_dataset,
    truck_dataset,
)
from repro.datasets.planting import PlantedConvoy, plant_convoy_group

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "PlantedConvoy",
    "car_dataset",
    "cattle_dataset",
    "group_trajectories",
    "irregular_sample",
    "plant_convoy_group",
    "synthetic_dataset",
    "taxi_dataset",
    "truck_dataset",
    "waypoint_positions",
]
