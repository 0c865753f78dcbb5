"""Figure 15 — DP vs DP+ vs DP*: vertex reduction and simplification time.

On the Cattle data the paper sweeps the tolerance δ and reports, per
simplifier, (a) the vertex reduction percentage and (b) the elapsed
simplification time.  Expected shapes: reduction power DP > DP+ > DP*
(DP+ splits sub-optimally; DP* uses the larger time-ratio deviation), and
every method gets faster as δ grows (divide-and-conquer terminates
earlier), with DP+ fastest thanks to its balanced splits.  Every timed
pass runs on a freshly loaded copy, so DP and DP* build their split trees
inside the timing, as a single simplification run would.
"""

import pytest

from benchmarks.common import dataset, fresh_database, print_report
from repro.bench import format_series, time_call
from repro.simplification import SIMPLIFIERS, vertex_reduction

#: δ sweep as fractions of the Cattle e = 300 (the paper sweeps 10-70 in
#: its own units).
DELTA_FRACTIONS = (0.05, 0.1, 0.2, 0.4)


def _simplify_all(simplifier, trajectories, delta):
    return [simplifier(tr, delta) for tr in trajectories]


@pytest.mark.parametrize("method", list(SIMPLIFIERS))
@pytest.mark.parametrize("fraction", DELTA_FRACTIONS)
def test_fig15_simplification(benchmark, method, fraction):
    spec = dataset("cattle")
    trajectories = list(fresh_database(spec))
    delta = spec.eps * fraction
    simplifier = SIMPLIFIERS[method]

    def run():
        return _simplify_all(simplifier, trajectories, delta)

    simplified = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["vertex_reduction_pct"] = round(
        vertex_reduction(simplified), 2
    )


def test_fig15_reduction_ordering():
    """DP reduces at least as much as DP* at every δ (same split rule,
    smaller deviation measure)."""
    spec = dataset("cattle")
    trajectories = list(spec.database)
    for fraction in DELTA_FRACTIONS:
        delta = spec.eps * fraction
        dp = vertex_reduction(_simplify_all(SIMPLIFIERS["dp"], trajectories, delta))
        dp_star = vertex_reduction(
            _simplify_all(SIMPLIFIERS["dp*"], trajectories, delta)
        )
        assert dp >= dp_star - 1e-9


def test_fig15_larger_delta_more_reduction():
    spec = dataset("cattle")
    trajectories = list(spec.database)
    for method in SIMPLIFIERS:
        reductions = [
            vertex_reduction(
                _simplify_all(SIMPLIFIERS[method], trajectories, spec.eps * f)
            )
            for f in DELTA_FRACTIONS
        ]
        assert reductions == sorted(reductions)


def main():
    spec = dataset("cattle")
    deltas = [spec.eps * f for f in DELTA_FRACTIONS]
    reduction_series = {}
    time_series = {}
    for method, simplifier in SIMPLIFIERS.items():
        reductions = []
        times = []
        for delta in deltas:
            simplified, seconds = time_call(
                _simplify_all, simplifier, list(fresh_database(spec)), delta
            )
            reductions.append(round(vertex_reduction(simplified), 1))
            times.append(round(seconds, 3))
        reduction_series[method] = reductions
        time_series[method] = times
    print_report(
        format_series(
            "Figure 15(a) — vertex reduction % vs tolerance (cattle)",
            "delta", [round(d, 1) for d in deltas], reduction_series,
        )
    )
    print_report(
        format_series(
            "Figure 15(b) — simplification time (s) vs tolerance (cattle)",
            "delta", [round(d, 1) for d in deltas], time_series,
        )
    )


if __name__ == "__main__":
    main()
