"""Ablation — value of the Lemma 2 box-level pruning in the filter.

The filter's join settles each simplified segment pair once per query:
an x-sweep over segment boxes expanded by ``e/2 + δ(l)`` and the
per-pair Lemma 2 gap test pick the pairs that reach the exact Lemma 1 /
Lemma 3 kernel, and a pair whose objects are already linked in every
window the two segments share is skipped.  ``use_lemma2=False`` switches
all three off: every time-overlapping segment pair of two objects gets
the exact kernel, once.  The answer is identical either way;
``pairs_considered`` counts the segment pairs that reached the per-pair
test, so the bench shows how many exact tests the box level saves and
what that does to the filter's wall-clock time.
"""

import pytest

from benchmarks.common import (
    DATASET_NAMES,
    dataset,
    fresh_database,
    print_report,
)
from repro import convoy_sets_equal, cuts
from repro.bench import format_table


def _run(spec, use_lemma2):
    return cuts(
        fresh_database(spec), spec.m, spec.k, spec.eps,
        variant="cuts*", use_lemma2=use_lemma2,
    )


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("mode", ("sweep", "all-pairs"))
def test_ablation_lemma2(benchmark, name, mode):
    spec = dataset(name)
    database = fresh_database(spec)

    def run():
        return cuts(
            database, spec.m, spec.k, spec.eps,
            variant="cuts*", use_lemma2=(mode == "sweep"),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["pairs_considered"] = result.filter_stats.get(
        "pairs_considered", 0
    )


@pytest.mark.parametrize("name", ("truck", "car"))
def test_ablation_lemma2_prunes_pairs(name):
    spec = dataset(name)
    with_boxes = _run(spec, True)
    without = _run(spec, False)
    assert convoy_sets_equal(with_boxes.convoys, without.convoys)
    assert (
        with_boxes.filter_stats["pairs_considered"]
        < without.filter_stats["pairs_considered"]
    )


def main():
    rows = []
    for name in DATASET_NAMES:
        spec = dataset(name)
        with_boxes = _run(spec, True)
        without = _run(spec, False)
        considered_on = with_boxes.filter_stats.get("pairs_considered", 0)
        considered_off = without.filter_stats.get("pairs_considered", 0)
        rows.append(
            [
                name,
                considered_off,
                considered_on,
                round(100.0 * (1 - considered_on / considered_off), 1)
                if considered_off
                else 0.0,
                round(without.durations["filter"], 3),
                round(with_boxes.durations["filter"], 3),
            ]
        )
    print_report(
        format_table(
            "Ablation — Lemma 2 box pruning in the CuTS* filter",
            ["dataset", "pairs (off)", "pairs (on)", "pruned %",
             "filter s (off)", "filter s (on)"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
