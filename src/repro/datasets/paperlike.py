"""Generators emulating the paper's four evaluation datasets.

Every generator returns a :class:`DatasetSpec` bundling the synthetic
:class:`~repro.trajectory.TrajectoryDatabase`, the convoy-query parameters
(m, k, e) analogous to Table 3, the planted ground truth, and the paper's
reported statistics for side-by-side reporting in Table 3's bench.

The shape parameters (object count, domain length, sampling regularity,
lifetime heterogeneity) follow Table 3; the ``scale`` argument shrinks the
time domain (and ``k`` proportionally) so the suite runs on a laptop —
the paper's absolute C++ timings are not reproducible anyway, while every
relative conclusion survives scaling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.datasets.movers import waypoint_positions
from repro.datasets.planting import PlantedConvoy
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.point import TrajectoryPoint
from repro.trajectory.trajectory import Trajectory


@dataclass
class DatasetSpec:
    """A generated dataset plus everything an experiment needs to run it.

    Attributes:
        name: dataset name ("truck", "cattle", "car", "taxi", or custom).
        database: the generated trajectory database.
        m, k, eps: convoy-query parameters analogous to Table 3 (``k`` is
            scaled together with the time domain).
        planted: list of :class:`~repro.datasets.planting.PlantedConvoy`
            ground-truth records.
        paper_stats: the corresponding Table 3 column (empty for custom
            datasets), for paper-vs-measured reporting.
        seed, scale: generation parameters, for provenance.
    """

    name: str
    database: TrajectoryDatabase
    m: int
    k: int
    eps: float
    planted: list = field(default_factory=list)
    paper_stats: dict = field(default_factory=dict)
    seed: int = 0
    scale: float = 1.0

    def statistics(self):
        """Measured Table 3 statistics of the generated database."""
        return self.database.statistics()


class _Episode:
    """One planted co-movement episode during dataset assembly."""

    __slots__ = ("members", "t_core_lo", "t_core_hi", "t_lo", "t_hi",
                 "leader", "offsets", "tight")

    def __init__(self, members, t_core_lo, t_core_hi, t_lo, t_hi,
                 leader, offsets, tight):
        self.members = members
        self.t_core_lo = t_core_lo
        self.t_core_hi = t_core_hi
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.leader = leader
        self.offsets = offsets
        self.tight = tight

    def weight(self, t):
        """Blend weight: 1 inside the core, ramping to 0 at the episode edges."""
        if self.t_core_lo <= t <= self.t_core_hi:
            return 1.0
        if t < self.t_core_lo:
            span = self.t_core_lo - self.t_lo
            return (t - self.t_lo) / span if span else 1.0
        span = self.t_hi - self.t_core_hi
        return (self.t_hi - t) / span if span else 1.0

    def position_for(self, member, t):
        """The member's episode-following position at time ``t``."""
        lx, ly = self.leader[t - self.t_lo]
        ox, oy = self.offsets[member]
        return (lx + ox, ly + oy)


def synthetic_dataset(
    name,
    seed,
    n_objects,
    t_domain,
    eps,
    m,
    k,
    episode_count,
    episode_size,
    episode_duration_factor=(1.2, 2.5),
    area=None,
    speed=None,
    alive_fraction=(1.0, 1.0),
    keep_probability=1.0,
    paper_stats=None,
    scale=1.0,
):
    """Assemble a synthetic dataset with planted convoys.

    Construction: every object follows an independent random-waypoint walk
    over its alive window; each *episode* picks a member subset and a core
    interval and blends the members' positions onto a shared leader path
    (within ``eps/4``) during the core, with linear ramps on both sides.
    Inside the core the members are pairwise within ``eps/2 (+ jitter)`` of
    each other, hence density-connected for any ``m`` up to the group size.

    Args:
        name: dataset name.
        seed: RNG seed; everything is derived from it deterministically.
        n_objects: number of moving objects ``N``.
        t_domain: number of time points ``T`` (domain is ``[0, T-1]``).
        eps, m, k: the convoy-query parameters the dataset is tuned for.
        episode_count: how many co-movement episodes to plant.
        episode_size: ``(lo, hi)`` member-count range per episode.
        episode_duration_factor: core duration as a multiple of ``k``.
        area: world side length; default ``25 * eps``.
        speed: movement per time step; default ``eps / 3``.
        alive_fraction: ``(lo, hi)`` range of each object's lifetime as a
            fraction of ``T`` (1.0 = alive for the whole domain).
        keep_probability: per-tick sampling probability *outside* episode
            windows (members keep dense sampling inside episodes so the
            planted co-movement survives interpolation).
        paper_stats: optional Table 3 column to attach.
        scale: recorded on the spec for provenance.

    Returns:
        A :class:`DatasetSpec`.
    """
    if t_domain < max(4, k + 2):
        raise ValueError(f"t_domain={t_domain} too small for k={k}")
    if n_objects < 1:
        raise ValueError(f"n_objects must be >= 1, got {n_objects}")
    rng = random.Random(seed)
    if area is None:
        area = 25.0 * eps
    if speed is None:
        speed = eps / 3.0
    jitter = eps / 40.0

    # 1. Alive windows and base walks.
    alive = []
    base = []
    for i in range(n_objects):
        fraction = rng.uniform(*alive_fraction)
        length = max(4, int(t_domain * fraction))
        start = rng.randint(0, t_domain - length)
        alive.append((start, start + length - 1))
        base.append(
            waypoint_positions(rng, length, area, speed, turn_jitter=0.15)
        )

    # 2. Plant episodes on non-conflicting (object, interval) slots.
    ramp = max(3, k // 2)
    reserved = [[] for _ in range(n_objects)]
    episodes = []
    planted = []
    attempts = 0
    max_attempts = episode_count * 30
    while len(episodes) < episode_count and attempts < max_attempts:
        attempts += 1
        duration = int(k * rng.uniform(*episode_duration_factor))
        window = duration + 2 * ramp
        if window >= t_domain:
            duration = max(k, t_domain - 2 * ramp - 2)
            window = duration + 2 * ramp
            if window >= t_domain:
                break
        t_lo = rng.randint(0, t_domain - window - 1)
        t_core_lo = t_lo + ramp
        t_core_hi = t_core_lo + duration - 1
        t_hi = t_core_hi + ramp
        size = rng.randint(*episode_size)
        candidates = [
            i
            for i in range(n_objects)
            if alive[i][0] <= t_lo
            and t_hi <= alive[i][1]
            and all(hi < t_lo or t_hi < lo for lo, hi in reserved[i])
        ]
        if len(candidates) < size:
            continue
        members = rng.sample(candidates, size)
        leader = waypoint_positions(
            rng, t_hi - t_lo + 1, area, speed, turn_jitter=0.05
        )
        tight = eps / 4.0
        offsets = {}
        # Offset directions are spread evenly around the leader (with small
        # angular noise) so that, once the episode's spread grows past the
        # core interval, the members separate *cleanly*: no pair lingers
        # within e by having been given nearly identical directions.  That
        # keeps the planted ground truth sharp — pre/post-core partial
        # clusters would otherwise make CMC's intersection semantics narrow
        # the discovered convoy below the planted member set.
        spacing = 2.0 * math.pi / size
        base_angle = rng.uniform(0.0, 2.0 * math.pi)
        for slot, member in enumerate(members):
            angle = base_angle + slot * spacing + rng.uniform(-0.15, 0.15) * spacing
            radius = rng.uniform(0.5, 1.0) * tight
            offsets[member] = (radius * math.cos(angle), radius * math.sin(angle))
        for member in members:
            reserved[member].append((t_lo, t_hi))
        episodes.append(
            _Episode(members, t_core_lo, t_core_hi, t_lo, t_hi,
                     leader, offsets, tight)
        )
        planted.append(
            PlantedConvoy(
                frozenset(f"o{member}" for member in members),
                t_core_lo,
                t_core_hi,
            )
        )

    # 3. Materialize trajectories: base walk blended onto episode leaders.
    episodes_of = [[] for _ in range(n_objects)]
    for episode in episodes:
        for member in episode.members:
            episodes_of[member].append(episode)
    trajectories = []
    for i in range(n_objects):
        t_start, t_end = alive[i]
        walk = base[i]
        points = []
        for t in range(t_start, t_end + 1):
            x, y = walk[t - t_start]
            for episode in episodes_of[i]:
                if episode.t_lo <= t <= episode.t_hi:
                    w = episode.weight(t)
                    ex, ey = episode.position_for(i, t)
                    x = x * (1.0 - w) + ex * w
                    y = y * (1.0 - w) + ey * w
                    break
            points.append(
                TrajectoryPoint(
                    x + rng.gauss(0.0, jitter),
                    y + rng.gauss(0.0, jitter),
                    t,
                )
            )
        trajectories.append(Trajectory(f"o{i}", points))

    # 4. Thin to irregular sampling outside episode windows.
    if keep_probability < 1.0:
        thinned = []
        for i, trajectory in enumerate(trajectories):
            protected = [
                (episode.t_lo, episode.t_hi) for episode in episodes_of[i]
            ]
            points = list(trajectory)
            kept = [points[0]]
            for p in points[1:-1]:
                in_episode = any(lo <= p.t <= hi for lo, hi in protected)
                if in_episode or rng.random() < keep_probability:
                    kept.append(p)
            kept.append(points[-1])
            thinned.append(Trajectory(trajectory.object_id, kept))
        trajectories = thinned

    return DatasetSpec(
        name=name,
        database=TrajectoryDatabase(trajectories),
        m=m,
        k=k,
        eps=eps,
        planted=planted,
        paper_stats=dict(paper_stats or {}),
        seed=seed,
        scale=scale,
    )


#: Table 3, for paper-vs-measured reporting in the Table 3 bench.
PAPER_TABLE3 = {
    "truck": {
        "num_objects": 276,
        "time_domain_length": 10586,
        "average_trajectory_length": 224,
        "total_points": 59894,
        "m": 3,
        "k": 180,
        "eps": 8,
        "delta": 5.9,
        "lam": 4,
        "convoys_discovered": 91,
    },
    "cattle": {
        "num_objects": 13,
        "time_domain_length": 175636,
        "average_trajectory_length": 175636,
        "total_points": 2283268,
        "m": 2,
        "k": 180,
        "eps": 300,
        "delta": 274.2,
        "lam": 36,
        "convoys_discovered": 47,
    },
    "car": {
        "num_objects": 183,
        "time_domain_length": 8757,
        "average_trajectory_length": 451,
        "total_points": 82590,
        "m": 3,
        "k": 180,
        "eps": 80,
        "delta": 63.4,
        "lam": 24,
        "convoys_discovered": 15,
    },
    "taxi": {
        "num_objects": 500,
        "time_domain_length": 965,
        "average_trajectory_length": 82,
        "total_points": 41144,
        "m": 3,
        "k": 180,
        "eps": 40,
        "delta": 31.5,
        "lam": 4,
        "convoys_discovered": 4,
    },
}


def _scaled_k(scale):
    """The paper's k = 180, scaled with the time domain (minimum 4)."""
    return max(4, int(round(180 * scale)))


def truck_dataset(seed=7, scale=0.1):
    """Truck-like data: many objects, medium lifetimes, heavy route sharing.

    Emulates 276 concrete trucks in the Athens metropolitan area: objects
    live on partially overlapping sub-windows (the paper flattened 33 days
    into one), sampling is near-regular, and many small delivery convoys
    exist (the paper found 91 — the most of any dataset).
    """
    t_domain = max(80, int(round(10586 * scale)))
    return synthetic_dataset(
        name="truck",
        seed=seed,
        n_objects=276,
        t_domain=t_domain,
        eps=8.0,
        m=3,
        k=_scaled_k(scale),
        episode_count=24,
        episode_size=(3, 5),
        area=2000.0,
        speed=6.0,
        alive_fraction=(0.25, 0.7),
        keep_probability=0.9,
        paper_stats=PAPER_TABLE3["truck"],
        scale=scale,
    )


def cattle_dataset(seed=11, scale=0.01):
    """Cattle-like data: 13 objects with enormous, regularly sampled histories.

    Emulates the CSIRO virtual-fencing herd: GPS ear-tags sampling every
    second for hours.  The tiny N and huge T make simplification the
    dominant cost (Figures 13/15/17).  ``m = 2`` as in Table 3 ("except
    Cattle due to the small number of objects").
    """
    t_domain = max(300, int(round(175636 * scale)))
    return synthetic_dataset(
        name="cattle",
        seed=seed,
        n_objects=13,
        t_domain=t_domain,
        eps=300.0,
        m=2,
        k=_scaled_k(scale * 10),
        episode_count=10,
        episode_size=(2, 4),
        episode_duration_factor=(1.2, 3.0),
        area=5000.0,
        speed=40.0,
        alive_fraction=(1.0, 1.0),
        keep_probability=1.0,
        paper_stats=PAPER_TABLE3["cattle"],
        scale=scale,
    )


def car_dataset(seed=13, scale=0.1):
    """Car-like data: heterogeneous lifetimes and staggered appearance.

    Emulates 183 private cars over one week in Copenhagen: "trajectories in
    this dataset had very different lengths", which is the regime that
    forces CMC to interpolate many virtual points (Figure 12).
    """
    t_domain = max(80, int(round(8757 * scale)))
    return synthetic_dataset(
        name="car",
        seed=seed,
        n_objects=183,
        t_domain=t_domain,
        eps=80.0,
        m=3,
        k=_scaled_k(scale),
        episode_count=8,
        episode_size=(3, 4),
        area=10000.0,
        speed=30.0,
        alive_fraction=(0.1, 0.9),
        keep_probability=0.6,
        paper_stats=PAPER_TABLE3["car"],
        scale=scale,
    )


def taxi_dataset(seed=17, scale=0.5):
    """Taxi-like data: many scattered objects, short irregular histories.

    Emulates 500 Beijing taxis over one day with irregular multi-minute
    reporting gaps.  Taxis roam near-uniformly, so hardly any convoys exist
    (the paper found 4) and clustering dominates the cost (Figure 13).
    """
    t_domain = max(80, int(round(965 * scale)))
    return synthetic_dataset(
        name="taxi",
        seed=seed,
        n_objects=500,
        t_domain=t_domain,
        eps=40.0,
        m=3,
        k=_scaled_k(scale / 2.5),
        episode_count=3,
        episode_size=(3, 3),
        area=12000.0,
        speed=60.0,
        alive_fraction=(0.3, 1.0),
        keep_probability=0.35,
        paper_stats=PAPER_TABLE3["taxi"],
        scale=scale,
    )


#: Name -> generator registry, mirroring the paper's dataset lineup.
DATASETS = {
    "truck": truck_dataset,
    "cattle": cattle_dataset,
    "car": car_dataset,
    "taxi": taxi_dataset,
}
