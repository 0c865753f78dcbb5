"""Figure 13 — cost breakdown of the CuTS family (Cattle and Taxi).

The paper magnifies the two most distinctive datasets: on Cattle (13
objects, enormous histories) simplification dominates the total time; on
Taxi (500 objects, short domain) the filter's clustering dominates and
refinement is small.  The bench records the three phase durations for
every family member on both datasets, each run on a freshly loaded copy
so that simplification includes building the split trees.
"""

import pytest

from benchmarks.common import VARIANTS, dataset, fresh_database, print_report
from repro import cuts
from repro.bench import format_table

FIG13_DATASETS = ("cattle", "taxi")


@pytest.mark.parametrize("name", FIG13_DATASETS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_fig13_phase_breakdown(benchmark, name, variant):
    spec = dataset(name)
    database = fresh_database(spec)

    def run():
        return cuts(database, spec.m, spec.k, spec.eps, variant=variant)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    total = max(result.total_time, 1e-9)
    benchmark.extra_info.update(
        {
            "simplification_s": round(result.durations["simplification"], 4),
            "filter_s": round(result.durations["filter"], 4),
            "refinement_s": round(result.durations["refinement"], 4),
            "simplification_pct": round(
                100 * result.durations["simplification"] / total, 1
            ),
        }
    )


def _dominant_phase(result):
    return max(result.durations, key=result.durations.get)


@pytest.mark.parametrize("variant", ("cuts", "cuts+"))
def test_fig13_cattle_simplification_heavy(variant):
    """The Cattle shape: simplification is a larger share of the total
    than it is on Taxi (the paper's 'invest in simplification' point).
    Asserted for the DP/DP+ variants; DP*'s cheap deviation arithmetic
    makes its share scale-sensitive at bench sizes."""
    cattle_spec = dataset("cattle")
    taxi_spec = dataset("taxi")
    cattle = cuts(
        fresh_database(cattle_spec),
        cattle_spec.m,
        cattle_spec.k,
        cattle_spec.eps,
        variant=variant,
    )
    taxi = cuts(
        fresh_database(taxi_spec),
        taxi_spec.m,
        taxi_spec.k,
        taxi_spec.eps,
        variant=variant,
    )
    cattle_share = cattle.durations["simplification"] / max(cattle.total_time, 1e-9)
    taxi_share = taxi.durations["simplification"] / max(taxi.total_time, 1e-9)
    assert cattle_share > taxi_share


def main():
    rows = []
    for name in FIG13_DATASETS:
        spec = dataset(name)
        for variant in VARIANTS:
            result = cuts(
                fresh_database(spec), spec.m, spec.k, spec.eps, variant=variant
            )
            d = result.durations
            total = max(result.total_time, 1e-9)
            rows.append(
                [
                    name,
                    variant,
                    round(d["simplification"], 3),
                    round(d["filter"], 3),
                    round(d["refinement"], 3),
                    round(100 * d["simplification"] / total, 1),
                    round(100 * d["filter"] / total, 1),
                    round(100 * d["refinement"] / total, 1),
                ]
            )
    print_report(
        format_table(
            "Figure 13 — analysis of query processing cost (seconds and %)",
            ["dataset", "method", "simplify s", "filter s", "refine s",
             "simplify %", "filter %", "refine %"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
