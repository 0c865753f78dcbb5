"""Differential fuzz suite: reordered ingestion == in-order ingestion.

The delta suite (``test_delta_equivalence.py``) proved the incremental
clustering pipeline identical to the fresh one.  This suite is the same
contract one layer further out: a jittered, duplicated, gap-ridden feed
pushed through a :class:`~repro.streaming.ReorderBuffer` (standalone or
via ``StreamingConvoyMiner(reorder=...)``) must produce convoys
bit-for-bit equal to feeding the same snapshots in order with no buffer —
across both clusterer pipelines (fresh DBSCAN and incremental
clustering), both ``paper_semantics`` modes, explicit time gaps, and
bounded windows.

Two layers of the claim:

* **Stream restoration** — ``reorder_ticks`` over any within-lateness
  jittered feed yields exactly the sorted tick sequence (duplicate pushes
  merged back into whole snapshots).  This is the buffer's whole
  contract, checked bit-for-bit on the ticks themselves.
* **Convoy equality** — the buffered miners' emissions (every ``feed``
  return plus ``flush``) concatenate to exactly the in-order miners'
  emissions, and the buffered pipelines agree with each other at every
  single ``feed`` call (tick-for-tick, not just at the end).

The seeded workload generator and the miner factories are the shared
fixtures of ``tests/streaming/conftest.py``; every knob is drawn from a
seeded RNG so failures replay exactly, and each seed is its own test
case.
"""

import random

import pytest

from repro.core.verification import normalize_convoys
from repro.streaming import reorder_ticks

SEMANTICS = (False, True)
PIPELINES = ("incremental", "full")


class TestStreamRestoration:
    @pytest.mark.parametrize("seed", range(12))
    def test_reorder_ticks_restores_the_sorted_feed(self, fuzz_workload,
                                                    seed):
        base, feed, lateness = fuzz_workload(seed)
        restored = list(reorder_ticks(feed, allowed_lateness=lateness))
        assert restored == base

    @pytest.mark.parametrize("seed", range(4))
    def test_restoration_survives_a_max_pending_cap(self, fuzz_workload,
                                                    seed):
        """A capacity cap at least as deep as the watermark needs never
        forces an early release, so restoration is unchanged."""
        base, feed, lateness = fuzz_workload(seed)
        restored = list(reorder_ticks(
            feed, allowed_lateness=lateness, max_pending=lateness + 1
        ))
        assert restored == base


class TestConvoyEquivalence:
    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("seed", range(8))
    def test_all_pipelines_match_in_order_run(self, make_miner,
                                              fuzz_workload, seed,
                                              paper_semantics):
        base, feed, lateness = fuzz_workload(seed)
        for pipeline in PIPELINES:
            plain = make_miner(pipeline, 3, 5, 8.0,
                               paper_semantics=paper_semantics)
            expected = []
            for t, snapshot in base:
                expected.extend(plain.feed(t, dict(snapshot)))
            expected.extend(plain.flush())

            buffered = make_miner(
                pipeline, 3, 5, 8.0, paper_semantics=paper_semantics,
                reorder=dict(allowed_lateness=lateness),
            )
            got = []
            for t, snapshot in feed:
                got.extend(buffered.feed(t, snapshot))
            got.extend(buffered.flush())
            assert got == expected, (
                f"seed {seed}: {pipeline} pipeline diverged through the "
                f"reorder buffer (paper_semantics={paper_semantics})"
            )
            assert buffered.counters["late_dropped"] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_pipelines_agree_tick_for_tick(self, make_miner,
                                                 fuzz_workload, seed):
        """Beyond the final answer: at every push, the buffered pipelines
        release the same ticks and emit the same convoys."""
        _base, feed, lateness = fuzz_workload(seed)
        miners = {
            pipeline: make_miner(
                pipeline, 3, 5, 8.0,
                reorder=dict(allowed_lateness=lateness),
            )
            for pipeline in PIPELINES
        }
        for t, snapshot in feed:
            emitted = {
                name: miner.feed(t, dict(snapshot))
                for name, miner in miners.items()
            }
            assert emitted["incremental"] == emitted["full"], (
                f"seed {seed}, push t={t}: incremental "
                f"{emitted['incremental']} / full {emitted['full']}"
            )
            live = {name: miner.live_candidates
                    for name, miner in miners.items()}
            assert live["incremental"] == live["full"]
        flushed = {name: miner.flush() for name, miner in miners.items()}
        assert flushed["incremental"] == flushed["full"]
        # Incremental passes must actually run, or the incremental leg of
        # this suite is vacuous.
        passes = miners["incremental"].clusterer.counters
        assert passes["incremental_passes"] > 0

    @pytest.mark.parametrize("paper_semantics", SEMANTICS)
    @pytest.mark.parametrize("window", [5, 8])
    def test_bounded_window_interacts_identically(self, make_miner,
                                                  fuzz_workload,
                                                  paper_semantics, window):
        """prune_longer_than() fires during buffered replay exactly as in
        order: fragments and their boundaries must not move."""
        base, feed, lateness = fuzz_workload(97)
        for pipeline in PIPELINES:
            plain = make_miner(pipeline, 3, 5, 8.0,
                               paper_semantics=paper_semantics,
                               window=window)
            expected = []
            for t, snapshot in base:
                expected.extend(plain.feed(t, dict(snapshot)))
            expected.extend(plain.flush())

            buffered = make_miner(
                pipeline, 3, 5, 8.0, paper_semantics=paper_semantics,
                window=window, reorder=dict(allowed_lateness=lateness),
            )
            got = []
            for t, snapshot in feed:
                got.extend(buffered.feed(t, snapshot))
            got.extend(buffered.flush())
            assert got == expected, (
                f"{pipeline} pipeline diverged under window={window}"
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_scrambled_duplicate_order_same_convoy_set(self, make_miner,
                                                       fuzz_workload, seed):
        """Split reports whose parts arrive in scrambled key order can
        legitimately reorder same-tick emissions (snapshot key order
        seeds cluster creation order), but the *set* of convoys — the
        actual answer — must not move."""
        rng = random.Random(1000 + seed)
        base, feed, lateness = fuzz_workload(seed)
        scrambled = []
        for t, snapshot in feed:
            items = list(snapshot.items())
            rng.shuffle(items)
            if len(items) >= 2 and rng.random() < 0.5:
                cut = rng.randint(1, len(items) - 1)
                scrambled.append((t, dict(items[:cut])))
                scrambled.append((t, dict(items[cut:])))
            else:
                scrambled.append((t, dict(items)))
        plain = make_miner("full", 3, 5, 8.0)
        expected = []
        for t, snapshot in base:
            expected.extend(plain.feed(t, dict(snapshot)))
        expected.extend(plain.flush())
        buffered = make_miner(
            "full", 3, 5, 8.0, reorder=dict(allowed_lateness=lateness),
        )
        got = []
        for t, snapshot in scrambled:
            got.extend(buffered.feed(t, snapshot))
        got.extend(buffered.flush())
        assert normalize_convoys(got) == normalize_convoys(expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_drop_policy_with_sufficient_lateness_never_drops(self,
                                                              make_miner,
                                                              fuzz_workload,
                                                              seed):
        """Within the watermark, the policies are indistinguishable: the
        drop policy must not fire and the answer must not move."""
        base, feed, lateness = fuzz_workload(seed)
        raise_miner = make_miner(
            "incremental", 3, 5, 8.0, reorder=dict(allowed_lateness=lateness),
        )
        drop_miner = make_miner(
            "incremental", 3, 5, 8.0,
            reorder=dict(allowed_lateness=lateness, late_policy="drop"),
        )
        got_raise, got_drop = [], []
        for t, snapshot in feed:
            got_raise.extend(raise_miner.feed(t, dict(snapshot)))
            got_drop.extend(drop_miner.feed(t, dict(snapshot)))
        got_raise.extend(raise_miner.flush())
        got_drop.extend(drop_miner.flush())
        assert got_raise == got_drop
        assert drop_miner.counters["late_dropped"] == 0
