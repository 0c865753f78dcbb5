"""Figure 16 — effect of the simplification tolerance δ (Car and Taxi).

For each family member the paper sweeps δ and reports the *refinement
unit* (the Section 7.3 filter-effectiveness proxy) and the total elapsed
time.  Expected shapes: CuTS* has the lowest refinement unit and the best
time at every δ (its D* bounds are tightest); both metrics degrade as δ
grows, because δ inflates every range-search bound (e + 2δ).
"""

import pytest

from benchmarks.common import VARIANTS, dataset, fresh_database, print_report
from repro import cuts
from repro.bench import format_series

FIG16_DATASETS = ("car", "taxi")
DELTA_FRACTIONS = (0.05, 0.15, 0.3, 0.5)


def _run(spec, variant, delta):
    return cuts(
        fresh_database(spec), spec.m, spec.k, spec.eps, delta=delta,
        variant=variant,
    )


@pytest.mark.parametrize("name", FIG16_DATASETS)
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fraction", DELTA_FRACTIONS)
def test_fig16_delta_sweep(benchmark, name, variant, fraction):
    spec = dataset(name)
    delta = spec.eps * fraction
    database = fresh_database(spec)

    def run():
        return cuts(
            database, spec.m, spec.k, spec.eps, delta=delta, variant=variant
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info.update(
        {
            "refinement_unit": result.refinement_unit,
            "candidates": len(result.candidates),
        }
    )


@pytest.mark.parametrize("name", FIG16_DATASETS)
def test_fig16_cuts_star_tightest_filter(name):
    """CuTS* must have the lowest refinement unit at every δ."""
    spec = dataset(name)
    for fraction in DELTA_FRACTIONS:
        delta = spec.eps * fraction
        units = {
            variant: _run(spec, variant, delta).refinement_unit
            for variant in VARIANTS
        }
        assert units["cuts*"] <= min(units["cuts"], units["cuts+"]) + 1e-9


@pytest.mark.parametrize("variant", VARIANTS)
def test_fig16_filter_degrades_with_delta_on_car(variant):
    """On Car the refinement unit grows (weak filter) as δ grows — the
    paper's "both the filters' effectiveness and the discovery efficiency
    decrease as the tolerance value increases".  (On Taxi the paper itself
    observes near-flat curves — "the elapsed times of the Taxi data stay
    almost constant" — so no growth is asserted there.)"""
    spec = dataset("car")
    low = _run(spec, variant, spec.eps * DELTA_FRACTIONS[0]).refinement_unit
    high = _run(spec, variant, spec.eps * DELTA_FRACTIONS[-1]).refinement_unit
    assert high >= low * 0.9


def main():
    for name in FIG16_DATASETS:
        spec = dataset(name)
        deltas = [round(spec.eps * f, 1) for f in DELTA_FRACTIONS]
        unit_series = {}
        time_series = {}
        for variant in VARIANTS:
            units = []
            times = []
            for fraction in DELTA_FRACTIONS:
                result = _run(spec, variant, spec.eps * fraction)
                units.append(round(result.refinement_unit / 1e3, 1))
                times.append(round(result.total_time, 3))
            unit_series[variant] = units
            time_series[variant] = times
        print_report(
            format_series(
                f"Figure 16 — refinement unit (x1e3) vs delta ({name})",
                "delta", deltas, unit_series,
            )
        )
        print_report(
            format_series(
                f"Figure 16 — elapsed time (s) vs delta ({name})",
                "delta", deltas, time_series,
            )
        )


if __name__ == "__main__":
    main()
