"""Figure 14 — effect of the actual tolerance on filter power and time.

The paper compares running CuTS* with the per-segment *actual* tolerances
δ(l') (Definition 4) against using the global δ everywhere: the actual
tolerance shrinks the range-search bounds, so the filter emits fewer
candidates (Fig 14(a)) and total discovery is faster (Fig 14(b)), with the
gain largest where trajectories are smooth relative to δ.
"""

import pytest

from benchmarks.common import (
    DATASET_NAMES,
    dataset,
    fresh_database,
    print_report,
)
from repro import cuts
from repro.bench import format_table

MODES = (("actual", True), ("global", False))


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("mode_name,use_actual", MODES)
def test_fig14_tolerance_mode(benchmark, name, mode_name, use_actual):
    spec = dataset(name)
    database = fresh_database(spec)

    def run():
        return cuts(
            database, spec.m, spec.k, spec.eps,
            variant="cuts*", use_actual_tolerance=use_actual,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "candidates": len(result.candidates),
            "refinement_unit": result.refinement_unit,
        }
    )


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_fig14_actual_tolerance_never_weaker(name):
    """The actual tolerance can only tighten the filter (Fig 14(a))."""
    spec = dataset(name)
    actual = cuts(
        spec.database, spec.m, spec.k, spec.eps,
        variant="cuts*", use_actual_tolerance=True,
    )
    global_tol = cuts(
        spec.database, spec.m, spec.k, spec.eps,
        variant="cuts*", use_actual_tolerance=False,
    )
    assert actual.refinement_unit <= global_tol.refinement_unit
    assert set(actual.convoys) == set(global_tol.convoys)


def main():
    rows = []
    for name in DATASET_NAMES:
        spec = dataset(name)
        cells = {}
        for mode_name, use_actual in MODES:
            result = cuts(
                fresh_database(spec), spec.m, spec.k, spec.eps,
                variant="cuts*", use_actual_tolerance=use_actual,
            )
            cells[mode_name] = result
        rows.append(
            [
                name,
                len(cells["global"].candidates),
                len(cells["actual"].candidates),
                round(cells["global"].refinement_unit / 1e3, 1),
                round(cells["actual"].refinement_unit / 1e3, 1),
                round(cells["global"].total_time, 3),
                round(cells["actual"].total_time, 3),
            ]
        )
    print_report(
        format_table(
            "Figure 14 — global vs actual tolerance (CuTS*)",
            ["dataset", "cand(global)", "cand(actual)",
             "ru/1e3(global)", "ru/1e3(actual)",
             "time(global)", "time(actual)"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
