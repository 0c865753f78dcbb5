"""Seeded fuzz of the CSV subcommands: long ids, negative and large times.

Each case writes a shuffled ``object_id,t,x,y`` CSV holding one planted
group (so most cases have a convoy) among random walkers, sampled
irregularly.  Object ids mix short names with 26- to 30-digit numbers,
and the time domain starts at zero, below zero, or far out (up to
``2**50``, where a tick is still an exact float).  Every ``discover``
algorithm must write the same answer, ``stream`` must write what
``discover --algorithm cmc`` writes, and ``stats`` and ``simplify`` must
read the same samples.

The same cases shifted to the edge of ``±2**53`` and past it check where
CuTS* stops: its D* kernel computes with ticks as floats, which are exact
only up to ``2**53``, so past that it must refuse the query while the
other algorithms keep answering alike.
"""

import csv
import io
import random

import pytest

from repro.cli import main
from repro.io.csv_io import load_trajectories_csv

ALGORITHMS = ("cmc", "cuts", "cuts+", "cuts*")
TIME_BASES = (0, -37, -10**6, 10**12, 2**50)
SEEDS = range(15)


def fuzz_case(seed):
    """``(rows, m, k, eps)``: shuffled CSV rows and query parameters."""
    rng = random.Random(seed)
    t0 = TIME_BASES[seed % len(TIME_BASES)] + rng.randint(-5, 5)
    span = rng.randint(10, 30)
    eps = rng.choice((1.5, 2.0, 3.0))
    ids = [str(rng.randrange(10**25, 10**26))]
    for i in range(rng.randint(3, 7)):
        if rng.random() < 0.5:
            ids.append(str(rng.randrange(10**25, 10**30)))
        else:
            ids.append(f"o{i}")
    group = set(rng.sample(ids, rng.randint(2, min(4, len(ids)))))
    lx, ly = rng.uniform(-100, 100), rng.uniform(-100, 100)
    vx, vy = rng.uniform(-1, 1), rng.uniform(-1, 1)
    rows = []
    for object_id in ids:
        start = t0 + rng.randint(0, span // 3)
        end = t0 + span - rng.randint(0, span // 3)
        x, y = rng.uniform(-100, 100), rng.uniform(-100, 100)
        dx, dy = rng.uniform(-eps, eps) / 4, rng.uniform(-eps, eps) / 4
        for t in range(start, end + 1):
            if object_id in group:
                x = lx + vx * (t - t0) + dx
                y = ly + vy * (t - t0) + dy
            else:
                x += rng.uniform(-eps, eps)
                y += rng.uniform(-eps, eps)
            if t in (start, end) or rng.random() < 0.7:
                rows.append((object_id, t, x, y))
    rng.shuffle(rows)
    return rows, rng.randint(2, 3), rng.randint(2, 6), eps


def write_csv(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["object_id", "t", "x", "y"])
        writer.writerows(rows)


def run(argv, expect=0):
    out = io.StringIO()
    code = main([str(arg) for arg in argv], out=out)
    assert code == expect, out.getvalue()
    return out.getvalue()


def answers_of(path, m, k, eps, algorithms=ALGORITHMS):
    """Each algorithm's ``discover`` answer CSV, and ``stream``'s."""
    query = ["-m", m, "-k", k, "-e", eps]
    answers = {}
    for algorithm in algorithms:
        answer = path.parent / f"{algorithm}.csv"
        run(["discover", path, *query, "--algorithm", algorithm,
             "--output", answer])
        answers[algorithm] = answer.read_text()
    streamed = path.parent / "stream.csv"
    run(["stream", path, *query, "--quiet", "--output", streamed])
    answers["stream"] = streamed.read_text()
    return answers


@pytest.mark.parametrize("seed", SEEDS)
def test_every_subcommand_reads_the_same_data(tmp_path, seed):
    rows, m, k, eps = fuzz_case(seed)
    path = tmp_path / "in.csv"
    write_csv(path, rows)

    answers = answers_of(path, m, k, eps)
    assert len(set(answers.values())) == 1, answers

    ids = {row[0] for row in rows}
    text = run(["stats", path])
    assert f"objects (N):            {len(ids)}" in text
    assert f"data size (points):     {len(rows)}" in text

    samples = {(row[0], row[1]): (row[2], row[3]) for row in rows}
    for method in ("dp", "dp+", "dp*"):
        reduced = tmp_path / f"simplified-{method}.csv"
        text = run(["simplify", path, reduced, "--method", method,
                    "--delta", eps / 2])
        assert text.startswith(f"{len(rows)} -> ")
        database = load_trajectories_csv(reduced)
        assert {tr.object_id for tr in database} == ids
        for trajectory in database:
            first = min(t for object_id, t in samples
                        if object_id == trajectory.object_id)
            assert trajectory.start_time == first
            for point in trajectory:
                assert samples[(trajectory.object_id, point.t)] == (
                    point.x, point.y
                )


def shifted(rows, first):
    """``rows`` with every tick moved by one offset, the earliest to ``first``."""
    offset = first - min(row[1] for row in rows)
    return [(object_id, t + offset, x, y) for object_id, t, x, y in rows]


@pytest.mark.parametrize("edge", ["last-at-2**53", "first-at--2**53"])
@pytest.mark.parametrize("seed", SEEDS)
def test_every_algorithm_agrees_up_to_2_53(tmp_path, seed, edge):
    rows, m, k, eps = fuzz_case(seed)
    ticks = [row[1] for row in rows]
    if edge == "last-at-2**53":
        first = 2**53 - (max(ticks) - min(ticks))
    else:
        first = -(2**53)
    path = tmp_path / "in.csv"
    write_csv(path, shifted(rows, first))
    answers = answers_of(path, m, k, eps)
    assert len(set(answers.values())) == 1, answers


@pytest.mark.parametrize("first", [2**53 + 1, 10**18, -(10**18)],
                         ids=["2**53+1", "1e18", "-1e18"])
@pytest.mark.parametrize("seed", SEEDS)
def test_cuts_star_refuses_ticks_past_2_53(tmp_path, seed, first):
    """Regression: shifted to ticks near 10**18, CuTS* answered 23 of 60
    fuzz cases differently from CMC; CuTS and CuTS+ agreed in all."""
    rows, m, k, eps = fuzz_case(seed)
    rows = shifted(rows, first)
    path = tmp_path / "in.csv"
    write_csv(path, rows)
    answers = answers_of(path, m, k, eps, ("cmc", "cuts", "cuts+"))
    assert len(set(answers.values())) == 1, answers
    text = run(["discover", path, "-m", m, "-k", k, "-e", eps,
                "--algorithm", "cuts*"], expect=2)
    tick = first if first < 0 else max(row[1] for row in rows)
    assert text == (
        "bad query parameters: cuts* computes with ticks as floats, exact "
        f"only within [-2**53, 2**53]; tick {tick} is outside\n"
    )


def test_fuzz_reaches_what_it_claims():
    """The cases hold long ids, negative and far-out times, and convoys."""
    cases = [fuzz_case(seed) for seed in SEEDS]
    assert all(
        any(len(row[0]) >= 26 for row in rows) for rows, *_ in cases
    )
    assert any(min(row[1] for row in rows) < 0 for rows, *_ in cases)
    assert any(min(row[1] for row in rows) > 2**49 for rows, *_ in cases)
