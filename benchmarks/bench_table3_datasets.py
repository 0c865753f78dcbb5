"""Table 3 — dataset statistics, query parameters, and convoys discovered.

Regenerates the paper's experiment-settings table: for each of the four
datasets, the size statistics, the (scaled) query parameters, the auto-
selected δ and λ, and the number of convoys the reproduction discovers.
Paper values are printed side by side; point counts differ by the bench
scale (absolute sizes are substituted, shapes preserved),
while the *relative ordering* of convoy counts across datasets
(truck > cattle > car > taxi) is the reproduced result.
"""

import pytest

from benchmarks.common import (
    BENCH_SCALES,
    DATASET_NAMES,
    dataset,
    fresh_database,
    print_report,
)
from repro import cuts
from repro.bench import format_table


def _row(name):
    spec = dataset(name)
    stats = spec.statistics()
    result = cuts(spec.database, spec.m, spec.k, spec.eps, variant="cuts*")
    return spec, stats, result


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_table3_dataset(benchmark, name):
    spec = dataset(name)
    database = fresh_database(spec)

    def run():
        return cuts(database, spec.m, spec.k, spec.eps, variant="cuts*")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = spec.statistics()
    benchmark.extra_info.update(
        {
            "num_objects": stats["num_objects"],
            "time_domain_length": stats["time_domain_length"],
            "total_points": stats["total_points"],
            "convoys_discovered": len(result.convoys),
            "paper_convoys": spec.paper_stats["convoys_discovered"],
            "delta": round(result.delta, 2),
            "lambda": result.lam,
        }
    )
    assert stats["num_objects"] == spec.paper_stats["num_objects"]


def main():
    headers = [
        "metric", "truck", "(paper)", "cattle", "(paper)",
        "car", "(paper)", "taxi", "(paper)",
    ]
    rows = []
    cells = {name: _row(name) for name in DATASET_NAMES}

    def metric(label, measured_fn, paper_key):
        row = [label]
        for name in DATASET_NAMES:
            spec, stats, result = cells[name]
            row.append(measured_fn(spec, stats, result))
            row.append(spec.paper_stats[paper_key])
        rows.append(row)

    metric("objects N", lambda s, st, r: st["num_objects"], "num_objects")
    metric("time domain T", lambda s, st, r: st["time_domain_length"],
           "time_domain_length")
    metric("avg traj length", lambda s, st, r: round(st["average_trajectory_length"]),
           "average_trajectory_length")
    metric("data size (points)", lambda s, st, r: st["total_points"], "total_points")
    metric("m", lambda s, st, r: s.m, "m")
    metric("k (scaled)", lambda s, st, r: s.k, "k")
    metric("e", lambda s, st, r: s.eps, "eps")
    metric("delta (auto)", lambda s, st, r: round(r.delta, 1), "delta")
    metric("lambda (auto)", lambda s, st, r: r.lam, "lam")
    metric("convoys found", lambda s, st, r: len(r.convoys), "convoys_discovered")

    scales = ", ".join(f"{n}={BENCH_SCALES[n]}" for n in DATASET_NAMES)
    print_report(
        format_table(
            f"Table 3 — settings and discovered convoys (scales: {scales})",
            headers,
            rows,
        )
    )


if __name__ == "__main__":
    main()
