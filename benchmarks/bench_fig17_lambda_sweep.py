"""Figure 17 — effect of the time-partition length λ (Truck and Cattle).

Sweeping λ exposes the filter's central trade-off: small λ means many
clustering passes (expensive filter), large λ means long partition
polylines whose mutual distances shrink (weak filter, refinement unit up).
Expected shapes: CuTS* dominates on Truck at every λ; the refinement unit
rises with λ; on Cattle the cheap-simplification variants (DP+) stay
competitive because simplification, not filtering, rules the total.
"""

import pytest

from benchmarks.common import VARIANTS, dataset, fresh_database, print_report
from repro import cuts
from repro.bench import format_series

FIG17_DATASETS = ("truck", "cattle")
LAMBDAS = (2, 4, 8, 16, 32)


def _run(spec, variant, lam):
    return cuts(
        fresh_database(spec), spec.m, spec.k, spec.eps, lam=lam,
        variant=variant,
    )


@pytest.mark.parametrize("name", FIG17_DATASETS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_fig17_lambda_sweep(benchmark, name, variant, lam):
    spec = dataset(name)
    database = fresh_database(spec)

    def run():
        return cuts(
            database, spec.m, spec.k, spec.eps, lam=lam, variant=variant
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "refinement_unit": result.refinement_unit,
            "candidates": len(result.candidates),
        }
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_fig17_filter_degrades_with_lambda_on_truck(variant):
    """On Truck, longer partitions weaken the filter (refinement unit up)
    — the paper's "both the effectiveness of the filters and the
    efficiency of the discovery process decrease when λ > 10"."""
    spec = dataset("truck")
    low = _run(spec, variant, LAMBDAS[0]).refinement_unit
    high = _run(spec, variant, LAMBDAS[-1]).refinement_unit
    assert high >= low


@pytest.mark.parametrize("variant", VARIANTS)
def test_fig17_small_lambda_expensive_filter_on_cattle(variant):
    """On Cattle the paper observes the opposite pressure: "the discovery
    efficiency of the CuTS family declines ... when λ < 30" because tiny
    partitions mean many clustering passes over very long histories."""
    spec = dataset("cattle")
    fine = _run(spec, variant, LAMBDAS[0]).durations["filter"]
    coarse = _run(spec, variant, LAMBDAS[-1]).durations["filter"]
    assert fine >= coarse * 0.9


@pytest.mark.parametrize("name", FIG17_DATASETS)
@pytest.mark.parametrize("lam", (2, 16))
def test_fig17_answers_stable_across_lambda(name, lam):
    """λ affects cost only, never the answer (Section 5.3)."""
    from repro import convoy_sets_equal

    spec = dataset(name)
    reference = _run(spec, "cuts*", 4)
    other = _run(spec, "cuts*", lam)
    assert convoy_sets_equal(reference.convoys, other.convoys)


def main():
    for name in FIG17_DATASETS:
        spec = dataset(name)
        unit_series = {}
        time_series = {}
        for variant in VARIANTS:
            units = []
            times = []
            for lam in LAMBDAS:
                result = _run(spec, variant, lam)
                units.append(round(result.refinement_unit / 1e3, 1))
                times.append(round(result.total_time, 3))
            unit_series[variant] = units
            time_series[variant] = times
        print_report(
            format_series(
                f"Figure 17 — refinement unit (x1e3) vs lambda ({name})",
                "lambda", list(LAMBDAS), unit_series,
            )
        )
        print_report(
            format_series(
                f"Figure 17 — elapsed time (s) vs lambda ({name})",
                "lambda", list(LAMBDAS), time_series,
            )
        )


if __name__ == "__main__":
    main()
