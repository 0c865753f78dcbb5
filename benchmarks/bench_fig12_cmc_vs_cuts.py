"""Figure 12 — total convoy-discovery time: CMC vs the CuTS family.

The paper's headline performance figure: over four datasets, the CuTS
family beat CMC by 3.9x to 33.1x (C++ on 2008 hardware), with CuTS*
generally fastest.  The reproduction reports the same grid (the README's
"Benches → paper figures" section records the measured ratios next to the
paper's).

Every call is timed on a freshly loaded copy of the dataset
(:func:`~benchmarks.common.fresh_database`), so each variant pays for the
split trees its simplifier builds: the *cold* columns.  CuTS* is timed a
second time, *warm*: a query at ``WARM_EPS_FACTOR`` × eps on the database
its cold run left behind, which is what every query after the first costs
on one loaded database.  Each CuTS run also reports its per-phase split.

All methods must return identical answers — the equality with CMC is
asserted here on every run, at both eps values.

``--smoke`` runs small scales (the CI step); ``--json PATH`` writes the
rows as ``BENCH_fig12.json`` through ``write_bench_json``.  A full run
then checks the bar :data:`CUTS_STAR_BAR` (CuTS* cold at least as fast
as CMC on every dataset) and exits non-zero, naming the datasets below
it, when it fails; the JSON is written first either way.
"""

import argparse

import pytest

from benchmarks.common import (
    BENCH_SCALES,
    DATASET_NAMES,
    VARIANTS,
    dataset,
    fresh_database,
    print_report,
    safe_rate,
    write_bench_json,
)
from repro import cmc, convoy_sets_equal, cuts, normalize_convoys
from repro.bench import format_table, time_call

ALGORITHMS = ("cmc",) + VARIANTS

#: The warm CuTS* query's eps, as a fraction of the dataset's.  A smaller
#: eps selects a smaller δ, so the warm cut expands some tree nodes too
#: instead of only walking the ones the cold run computed.
WARM_EPS_FACTOR = 0.8

#: Scales of the ``--smoke`` run: about a fifth of the bench scales.
SMOKE_SCALES = {name: scale / 5 for name, scale in BENCH_SCALES.items()}

#: The least CMC/CuTS* time ratio a full run accepts, cold, per dataset.
#: The paper reports 3.9-33.1x; this bar only asks CuTS* not to lose.
CUTS_STAR_BAR = 1.0


def run_algorithm(database, spec, algorithm, eps):
    """Answer one query; return ``(convoys, CutsResult or None)``."""
    if algorithm == "cmc":
        return cmc(database, spec.m, spec.k, eps), None
    result = cuts(database, spec.m, spec.k, eps, variant=algorithm)
    return result.convoys, result


def phase_split(result, seconds):
    """The CuTS phases of one run, in seconds.

    ``other`` is the wall-clock time outside the three timed phases: δ
    and λ selection and answer normalization.
    """
    split = dict(result.durations)
    split["other"] = max(0.0, seconds - result.total_time)
    return split


def measure(spec):
    """Time every algorithm cold, and CuTS* warm, on ``spec``.

    Returns one row per timed call, in this order: CMC at eps and at the
    warm eps, then CuTS, CuTS+ and CuTS* cold, then CuTS* warm.  Asserts
    every answer equal to CMC's at the same eps.
    """
    rows = []
    exact = {}
    cmc_seconds = {}

    def record(algorithm, state, eps, seconds, convoys, result):
        rows.append({
            "dataset": spec.name,
            "generator": f"repro.datasets.{spec.name}_dataset",
            "scale": spec.scale,
            "seed": spec.seed,
            "m": spec.m,
            "k": spec.k,
            "eps": eps,
            "algorithm": algorithm,
            "state": state,
            "seconds": seconds,
            "speedup_vs_cmc": safe_rate(cmc_seconds[eps], seconds),
            "convoys": len(convoys),
            "phases": None if result is None else phase_split(result, seconds),
        })

    warm_eps = spec.eps * WARM_EPS_FACTOR
    for eps in (spec.eps, warm_eps):
        (convoys, _), seconds = time_call(
            run_algorithm, fresh_database(spec), spec, "cmc", eps
        )
        exact[eps] = normalize_convoys(convoys)
        cmc_seconds[eps] = seconds
        record("cmc", "cold", eps, seconds, exact[eps], None)
    for variant in VARIANTS:
        database = fresh_database(spec)
        passes = [("cold", spec.eps)]
        if variant == "cuts*":
            passes.append(("warm", warm_eps))
        for state, eps in passes:
            (convoys, result), seconds = time_call(
                run_algorithm, database, spec, variant, eps
            )
            assert convoy_sets_equal(exact[eps], convoys), (
                spec.name, variant, state,
            )
            record(variant, state, eps, seconds, convoys, result)
    return rows


@pytest.mark.parametrize("name", DATASET_NAMES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fig12_discovery_time(benchmark, name, algorithm):
    spec = dataset(name)
    database = fresh_database(spec)

    def run():
        return run_algorithm(database, spec, algorithm, spec.eps)[0]

    convoys = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["convoys"] = len(normalize_convoys(convoys))


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_fig12_answers_agree(name):
    """:func:`measure` asserts every CuTS answer equal to CMC's."""
    measure(dataset(name))


def below_bar(rows):
    """``[(dataset, speedup)]`` for every cold CuTS* row under the bar."""
    return [
        (row["dataset"], row["speedup_vs_cmc"])
        for row in rows
        if row["algorithm"] == "cuts*" and row["state"] == "cold"
        and row["speedup_vs_cmc"] is not None
        and row["speedup_vs_cmc"] < CUTS_STAR_BAR
    ]


def report(rows):
    """The Fig. 12 grid and the CuTS phase split, as printable tables."""
    grid = []
    phases = []
    for name in dict.fromkeys(row["dataset"] for row in rows):
        mine = [row for row in rows if row["dataset"] == name]
        timed = [row for row in mine if row["algorithm"] != "cmc"]
        grid.append(
            [name, mine[0]["convoys"], round(mine[0]["seconds"], 3)]
            + [round(row["seconds"], 3) for row in timed]
            + [round(row["speedup_vs_cmc"] or 0.0, 2) for row in timed]
        )
        for row in timed:
            split = row["phases"]
            phases.append(
                [name, row["algorithm"], row["state"]]
                + [round(split[key], 3) for key in
                   ("simplification", "filter", "refinement", "other")]
            )
    return (
        format_table(
            "Figure 12 — query processing time (seconds; speedup = CMC/variant "
            f"at the same eps; warm = a second CuTS* query at eps x "
            f"{WARM_EPS_FACTOR})",
            ["dataset", "convoys", "cmc", "cuts", "cuts+", "cuts*",
             "cuts* warm", "x cuts", "x cuts+", "x cuts*", "x cuts* warm"],
            grid,
        ),
        format_table(
            "Figure 12 — CuTS phase split (seconds)",
            ["dataset", "method", "state", "simplify", "filter", "refine",
             "other"],
            phases,
        ),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small scales, for CI (answers still asserted)")
    parser.add_argument("--json", metavar="PATH",
                        help="write the rows as bench JSON")
    args = parser.parse_args(argv)
    scales = SMOKE_SCALES if args.smoke else BENCH_SCALES
    rows = []
    for name in DATASET_NAMES:
        rows.extend(measure(dataset(name, scales[name])))
    for table in report(rows):
        print_report(table)
    if args.json:
        write_bench_json(
            args.json,
            "fig12",
            {"smoke": args.smoke, "scales": scales,
             "warm_eps_factor": WARM_EPS_FACTOR},
            rows,
        )
    failing = [] if args.smoke else below_bar(rows)
    if failing:
        raise SystemExit(
            f"CuTS* cold below {CUTS_STAR_BAR}x CMC on: "
            + ", ".join(f"{name} {speedup:.2f}x" for name, speedup in failing)
        )


if __name__ == "__main__":
    main()
