"""Tests for the paper-like dataset generators (Table 3 emulation)."""

import pytest

from repro.core.cmc import cmc
from repro.core.verification import normalize_convoys
from repro.datasets.paperlike import (
    DATASETS,
    PAPER_TABLE3,
    synthetic_dataset,
    truck_dataset,
)
from tests.oracle import snapshot

# Tiny scales so the whole module runs in a few seconds.
SMALL = {
    "truck": dict(scale=0.02),
    "cattle": dict(scale=0.002),
    "car": dict(scale=0.02),
    "taxi": dict(scale=0.15),
}


@pytest.fixture(scope="module")
def specs():
    return {name: gen(**SMALL[name]) for name, gen in DATASETS.items()}


class TestGeneratorShapes:
    def test_registry_covers_paper_datasets(self):
        assert set(DATASETS) == {"truck", "cattle", "car", "taxi"}
        assert set(PAPER_TABLE3) == set(DATASETS)

    def test_object_counts_match_table3(self, specs):
        for name, spec in specs.items():
            assert len(spec.database) == PAPER_TABLE3[name]["num_objects"]

    def test_m_and_eps_match_table3(self, specs):
        for name, spec in specs.items():
            assert spec.m == PAPER_TABLE3[name]["m"]
            assert spec.eps == PAPER_TABLE3[name]["eps"]

    def test_time_domain_scales(self, specs):
        for name, spec in specs.items():
            paper_T = PAPER_TABLE3[name]["time_domain_length"]
            measured = spec.database.time_domain_length
            assert measured <= paper_T
            assert measured >= 50

    def test_determinism(self):
        a = truck_dataset(scale=0.02)
        b = truck_dataset(scale=0.02)
        assert a.statistics() == b.statistics()
        assert a.planted == b.planted

    def test_seed_changes_data(self):
        a = truck_dataset(seed=1, scale=0.02)
        b = truck_dataset(seed=2, scale=0.02)
        assert snapshot(a.database, a.database.min_time + 5) != snapshot(
            b.database, b.database.min_time + 5
        )

    def test_cattle_full_lifetimes_regular_sampling(self, specs):
        spec = specs["cattle"]
        T = spec.database.time_domain_length
        for trajectory in spec.database:
            assert len(trajectory) == T  # every tick sampled

    def test_taxi_is_sparsely_sampled(self, specs):
        spec = specs["taxi"]
        stats = spec.statistics()
        density = stats["total_points"] / (
            stats["num_objects"] * stats["time_domain_length"]
        )
        assert density < 0.75  # plenty of missing ticks

    def test_car_lifetimes_heterogeneous(self, specs):
        spec = specs["car"]
        durations = [tr.duration for tr in spec.database]
        assert max(durations) > 3 * min(durations)


class TestPlantedDiscovery:
    @pytest.mark.parametrize("name", ["truck", "cattle", "car", "taxi"])
    def test_planted_convoys_detected(self, specs, name):
        spec = specs[name]
        assert spec.planted, "generator planted nothing"
        convoys = normalize_convoys(
            cmc(spec.database, spec.m, spec.k, spec.eps)
        )
        detected = sum(
            1
            for planted in spec.planted
            if planted.is_detected_by(convoys, spec.m)
        )
        # CMC's intersection semantics may clip edges near noise, but the
        # overwhelming majority of planted convoys must be detected.
        assert detected >= 0.7 * len(spec.planted)


class TestSyntheticDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_dataset(
                "x", seed=0, n_objects=0, t_domain=100, eps=5, m=2, k=5,
                episode_count=0, episode_size=(2, 2),
            )
        with pytest.raises(ValueError):
            synthetic_dataset(
                "x", seed=0, n_objects=3, t_domain=4, eps=5, m=2, k=10,
                episode_count=0, episode_size=(2, 2),
            )

    def test_custom_dataset(self):
        spec = synthetic_dataset(
            "custom", seed=5, n_objects=12, t_domain=120, eps=6.0, m=2, k=8,
            episode_count=2, episode_size=(2, 3),
        )
        assert spec.name == "custom"
        assert len(spec.database) == 12
        assert len(spec.planted) == 2
        assert spec.paper_stats == {}
