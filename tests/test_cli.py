"""Tests for the command-line interface."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main
from repro.io.csv_io import load_trajectories_csv, save_trajectories_csv
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


@pytest.fixture
def convoy_csv(tmp_path):
    db = TrajectoryDatabase(
        [
            Trajectory("a", [(t, 0.0, t) for t in range(20)]),
            Trajectory("b", [(t, 1.0, t) for t in range(20)]),
            Trajectory("c", [(t, 90.0, t) for t in range(20)]),
        ]
    )
    path = tmp_path / "in.csv"
    save_trajectories_csv(db, path)
    return path


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_discover_requires_query_params(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["discover", "x.csv"])

    def test_algorithm_choices(self):
        args = build_parser().parse_args(
            ["discover", "x.csv", "-m", "2", "-k", "3", "-e", "1.5",
             "--algorithm", "cuts+"]
        )
        assert args.algorithm == "cuts+"


class TestDiscover:
    @pytest.mark.parametrize("algorithm", ["cmc", "cuts", "cuts+", "cuts*"])
    def test_finds_convoy(self, convoy_csv, algorithm):
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--algorithm", algorithm]
        )
        assert code == 0
        assert "1 convoy(s)" in text
        assert "objects=a,b" in text

    def test_writes_output_csv(self, convoy_csv, tmp_path):
        out_path = tmp_path / "answer.csv"
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t_start,t_end,size,objects"
        assert lines[1] == "0,19,2,a;b"

    def test_no_convoys(self, convoy_csv):
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "3", "-k", "10", "-e", "2.0"]
        )
        assert code == 0
        assert "0 convoy(s)" in text

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, text = run_cli(
            ["discover", str(empty), "-m", "2", "-k", "3", "-e", "1.0"]
        )
        assert code == 1

    def test_explicit_internal_params(self, convoy_csv):
        code, text = run_cli(
            ["discover", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--delta", "0.5", "--lam", "4"]
        )
        assert code == 0
        assert "1 convoy(s)" in text

    @pytest.mark.parametrize("flags, match", [
        (["-e", "nan"], "eps must be positive and finite, got nan"),
        (["-e", "inf"], "eps must be positive and finite, got inf"),
        (["-e", "nan", "--algorithm", "cmc"], "eps must be positive and"),
        (["-e", "2.0", "-m", "0"], "m must be >= 1"),
        (["-e", "2.0", "--delta", "-1"], "delta must be non-negative"),
        (["-e", "2.0", "--lam", "0"], "lambda must be >= 1"),
        (["-e", "2.0", "--delta", "nan"], "delta must be non-negative and "
                                          "finite, got nan"),
        (["-e", "2.0", "--delta", "inf"], "delta must be non-negative and "
                                          "finite, got inf"),
    ], ids=["eps-nan", "eps-inf", "cmc-eps-nan", "m-zero", "negative-delta",
            "zero-lambda", "nan-delta", "inf-delta"])
    def test_bad_query_parameters_exit_2(self, convoy_csv, flags, match):
        """Regression: a NaN eps answered "0 convoy(s) found" and the
        other bad values died with a traceback (exit 1)."""
        argv = ["discover", str(convoy_csv), "-m", "2", "-k", "10"] + flags
        code, text = run_cli(argv)
        assert code == 2
        assert text.startswith("bad query parameters: ")
        assert match in text
        assert "convoy(s) found" not in text


class TestStream:
    def test_finds_convoy_in_csv(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0"]
        )
        assert code == 0
        assert "objects=a,b" in text
        assert "open at end of stream" in text  # convoy runs to the last tick
        assert "20 snapshot(s)" in text

    def test_streamed_answer_matches_discover(self, convoy_csv, tmp_path):
        stream_out = tmp_path / "stream.csv"
        discover_out = tmp_path / "discover.csv"
        run_cli(["stream", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--output", str(stream_out)])
        run_cli(["discover", str(convoy_csv), "-m", "2", "-k", "10",
                 "-e", "2.0", "--algorithm", "cmc",
                 "--output", str(discover_out)])
        assert stream_out.read_text() == discover_out.read_text()

    def test_multi_convoy_answer_matches_discover(self, tmp_path):
        """Output parity holds when one convoy closes mid-stream (emitted
        first by the engine) and another runs to the final snapshot
        (emitted last, by the flush) — discovery order differs from
        discover's normalized order."""
        db = TrajectoryDatabase(
            [
                Trajectory("a", [(t, 0.0, t) for t in range(20)]),
                Trajectory("b", [(t, 1.0, t) for t in range(20)]),
                Trajectory("d", [(t, 40.0 if t < 10 else 40.0 + 5 * (t - 9), t)
                                 for t in range(20)]),
                Trajectory("e", [(t, 41.0, t) for t in range(20)]),
            ]
        )
        path = tmp_path / "multi.csv"
        save_trajectories_csv(db, path)
        stream_out = tmp_path / "stream.csv"
        discover_out = tmp_path / "discover.csv"
        code, text = run_cli(["stream", str(path), "-m", "2", "-k", "5",
                              "-e", "2.0", "--output", str(stream_out)])
        assert code == 0
        assert "closed at t=" in text  # d/e convoy died mid-stream
        assert "open at end of stream" in text  # a/b ran to the last tick
        run_cli(["discover", str(path), "-m", "2", "-k", "5", "-e", "2.0",
                 "--algorithm", "cmc", "--output", str(discover_out)])
        assert stream_out.read_text() == discover_out.read_text()

    def test_synthetic_source(self):
        code, text = run_cli(
            ["stream", "--synthetic", "30x15", "--seed", "2",
             "-m", "3", "-k", "5", "-e", "10.0", "--quiet"]
        )
        assert code == 0
        assert "15 snapshot(s)" in text
        assert "synthetic 30x15 (seed 2)" in text

    def test_incremental_flag_same_answer_plus_pass_report(self, convoy_csv,
                                                           tmp_path):
        base_out = tmp_path / "base.csv"
        inc_out = tmp_path / "inc.csv"
        code, base_text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(base_out)]
        )
        assert code == 0
        assert "incremental clustering:" not in base_text
        code, inc_text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--incremental", "--output", str(inc_out)]
        )
        assert code == 0
        assert "incremental clustering:" in inc_text
        assert "objects=a,b" in inc_text
        assert inc_out.read_text() == base_out.read_text()

    @pytest.mark.parametrize("flags", [
        ["--incremental", "--churn-threshold", "0.5"],
        ["--incremental", "--churn-threshold", "adaptive"],
    ], ids=["fraction", "adaptive"])
    def test_no_churn_threshold_flag(self, convoy_csv, flags):
        """The fallback threshold is a library constant, not an option."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli(["stream", str(convoy_csv), "-m", "2", "-k", "5",
                     "-e", "2.0", *flags])
        assert exit_info.value.code == 2

    def test_requires_exactly_one_input(self, convoy_csv):
        code, _ = run_cli(["stream", "-m", "2", "-k", "5", "-e", "1.0"])
        assert code == 2
        code, _ = run_cli(
            ["stream", str(convoy_csv), "--synthetic", "5x5",
             "-m", "2", "-k", "5", "-e", "1.0"]
        )
        assert code == 2

    def test_rejects_window_below_k(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--window", "3"]
        )
        assert code == 2
        assert "bad query parameters" in text

    @pytest.mark.parametrize("content", ["", "object_id,t,x,y\n"],
                             ids=["empty-file", "header-only"])
    def test_input_without_snapshots_exits_1(self, tmp_path, content):
        path = tmp_path / "in.csv"
        path.write_text(content)
        code, text = run_cli(
            ["stream", str(path), "-m", "2", "-k", "2", "-e", "1.0"]
        )
        assert code == 1
        assert "input contains no snapshots" in text

    def test_rejects_non_positive_synthetic_shape(self):
        code, text = run_cli(
            ["stream", "--synthetic", "0x5", "-m", "2", "-k", "2", "-e", "1"]
        )
        assert code == 2
        assert "synthetic shape must be positive" in text

    def test_rejects_malformed_synthetic_shape(self):
        code, text = run_cli(
            ["stream", "--synthetic", "banana", "-m", "2", "-k", "5",
             "-e", "1.0"]
        )
        assert code == 2
        assert "bad --synthetic" in text

    def test_window_flag(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--window", "8"]
        )
        assert code == 0
        assert "closed at t=" in text  # fragments close mid-stream

    def test_jittered_synthetic_with_lateness_matches_in_order(self,
                                                               tmp_path):
        in_order = tmp_path / "in_order.csv"
        reordered = tmp_path / "reordered.csv"
        code, _ = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--output", str(in_order)]
        )
        assert code == 0
        code, text = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "3", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "4",
             "--allowed-lateness", "4", "--output", str(reordered)]
        )
        assert code == 0, text
        assert "reorder buffer:" in text
        assert "jitter 4" in text
        assert reordered.read_text() == in_order.read_text()

    def test_allowed_lateness_reports_buffer_stats(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--allowed-lateness", "2", "--quiet"]
        )
        assert code == 0
        assert "reorder buffer:" in text
        assert "late dropped" in text

    def test_max_pending_alone_enables_the_buffer(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--max-pending", "4", "--quiet"]
        )
        assert code == 0
        assert "reorder buffer:" in text

    def test_jitter_requires_synthetic(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--jitter", "3"]
        )
        assert code == 2
        assert "--synthetic" in text

    def test_jitter_requires_a_reorder_buffer(self):
        code, text = run_cli(
            ["stream", "--synthetic", "20x10", "-m", "3", "-k", "5",
             "-e", "10.0", "--jitter", "3"]
        )
        assert code == 2
        assert "--allowed-lateness" in text

    def test_late_policy_requires_a_reorder_buffer(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--late-policy", "drop"]
        )
        assert code == 2
        assert "--allowed-lateness" in text

    def test_late_policy_drop_reports_dropped_count(self):
        # Jitter 5 against lateness 1 guarantees genuinely late arrivals.
        code, text = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "5", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "5",
             "--allowed-lateness", "1", "--late-policy", "drop"]
        )
        assert code == 0
        assert "reorder buffer:" in text
        assert " late dropped" in text
        dropped = int(text.split(" late dropped")[0].rsplit(", ", 1)[-1])
        assert dropped > 0

    def test_late_raise_is_reported_as_stream_error(self):
        code, text = run_cli(
            ["stream", "--synthetic", "40x25", "--seed", "5", "-m", "3",
             "-k", "5", "-e", "10.0", "--quiet", "--jitter", "5",
             "--allowed-lateness", "1"]
        )
        assert code == 1
        assert "stream error:" in text
        assert "late snapshot" in text

    def test_rejects_negative_jitter(self):
        code, text = run_cli(
            ["stream", "--synthetic", "20x10", "-m", "3", "-k", "5",
             "-e", "10.0", "--jitter", "-2", "--allowed-lateness", "2"]
        )
        assert code == 2
        assert "bad --jitter" in text

    def test_rejects_bad_reorder_parameters(self):
        code, text = run_cli(
            ["stream", "--synthetic", "20x10", "-m", "3", "-k", "5",
             "-e", "10.0", "--allowed-lateness", "-1"]
        )
        assert code == 2
        assert "bad query parameters" in text

    def test_rejects_amend_with_max_pending_only(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "5", "-e", "2.0",
             "--max-pending", "10", "--late-policy", "amend"]
        )
        assert code == 2
        assert "bad query parameters" in text
        assert "allowed_lateness" in text


class TestStreamJson:
    def test_round_trip_matches_csv_answer(self, convoy_csv, tmp_path):
        """The JSON artifact carries exactly the normalized CSV answer
        plus the full counters dict."""
        csv_out = tmp_path / "answer.csv"
        json_out = tmp_path / "answer.json"
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--output", str(csv_out), "--json", str(json_out)]
        )
        assert code == 0
        assert f"json answer written to {json_out}" in text
        with open(json_out) as handle:
            payload = json.load(handle)
        assert set(payload) >= {"params", "convoys", "counters",
                                "elapsed_seconds"}
        assert payload["params"] == {
            "m": 2, "k": 10, "eps": 2.0, "paper_semantics": False,
            "window": None,
        }
        # Round trip: rebuild the CSV rows from the JSON convoys.
        rebuilt = ["t_start,t_end,size,objects"]
        for convoy in payload["convoys"]:
            members = ";".join(convoy["objects"])
            rebuilt.append(
                f"{convoy['t_start']},{convoy['t_end']},"
                f"{len(convoy['objects'])},{members}"
            )
        assert csv_out.read_text().splitlines() == rebuilt
        # The counters are the miner's full shared dict.
        assert payload["counters"]["snapshots"] == 20
        assert payload["counters"]["convoys_emitted"] == 1


#: A malformed CSV body (under a header line) and the line naming it.
MALFORMED_CSV = {
    "three-columns": (b"a,0,0.0\n", r"line 2: expected 4 columns, got 3"),
    "non-utf8": (b"a,0,0.0,0.0\nb,0,1.0,caf\xe9\n",
                 r"line 3: 'utf-8' codec can't decode byte 0xe9"),
    "nan-coordinate": (b"a,0,nan,0.0\n",
                       r"line 2: non-finite coordinates \(nan, 0.0\)"),
    "inf-coordinate": (b"a,0,0.0,0.0\na,1,inf,0.0\n",
                       r"line 3: non-finite coordinates \(inf, 0.0\)"),
    "fractional-time": (b"a,1.5,0.0,0.0\n",
                        r"line 2: invalid literal for int\(\)"),
}

#: Every subcommand that reads a trajectory CSV (``{csv}`` and ``{out}``
#: are filled in per test).
CSV_COMMANDS = {
    "discover": ["discover", "{csv}", "-m", "2", "-k", "2", "-e", "1.0"],
    "stats": ["stats", "{csv}"],
    "simplify": ["simplify", "{csv}", "{out}", "--delta", "1.0"],
    "stream": ["stream", "{csv}", "-m", "2", "-k", "2", "-e", "1.0"],
}


class TestMalformedCsv:
    @pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_one_line_naming_the_file_line(self, tmp_path, case, command):
        """A malformed CSV exits 1 with one line naming its file line,
        never a traceback, on every subcommand that loads one."""
        body, reason = MALFORMED_CSV[case]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"object_id,t,x,y\n" + body)
        out = tmp_path / "out.csv"
        argv = [arg.format(csv=path, out=out) for arg in CSV_COMMANDS[command]]
        code, text = run_cli(argv)
        assert code == 1
        assert re.fullmatch(f"{command} error: {reason}.*\n", text), text
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_unreadable_path_in_one_line(self, tmp_path, case, command):
        """A CSV path that does not exist or names a directory exits 1
        with the OS error in one line, never a traceback."""
        if case == "missing":
            path = tmp_path / "absent.csv"
            reason = r"\[Errno 2\] No such file or directory"
        else:
            path = tmp_path
            reason = r"\[Errno 21\] Is a directory"
        out = tmp_path / "out.csv"
        argv = [arg.format(csv=path, out=out) for arg in CSV_COMMANDS[command]]
        code, text = run_cli(argv)
        assert code == 1
        assert re.fullmatch(f"{command} error: {reason}: .*\n", text), text
        assert not out.exists()


class TestStats:
    def test_table3_style_output(self, convoy_csv):
        code, text = run_cli(["stats", str(convoy_csv)])
        assert code == 0
        assert "objects (N):            3" in text
        assert "time domain length (T): 20" in text
        assert "data size (points):     60" in text


class TestSimplify:
    def test_reduces_points(self, convoy_csv, tmp_path):
        out_path = tmp_path / "reduced.csv"
        code, text = run_cli(
            ["simplify", str(convoy_csv), str(out_path),
             "--method", "dp", "--delta", "0.5"]
        )
        assert code == 0
        assert "reduction" in text
        reduced = load_trajectories_csv(out_path)
        assert reduced.total_points < 60
        # Endpoints survive, so the time domain is intact.
        assert reduced.min_time == 0 and reduced.max_time == 19

    @pytest.mark.parametrize("method", ["dp", "dp+", "dp*"])
    def test_all_methods(self, convoy_csv, tmp_path, method):
        out_path = tmp_path / f"{method.replace('*', 'star')}.csv"
        code, _ = run_cli(
            ["simplify", str(convoy_csv), str(out_path),
             "--method", method, "--delta", "1.0"]
        )
        assert code == 0
        assert out_path.exists()

    @pytest.mark.parametrize("method", ["dp", "dp+", "dp*"])
    @pytest.mark.parametrize("delta", ["-1", "nan", "inf", "-inf"])
    def test_bad_delta_exits_2_in_one_line(self, convoy_csv, tmp_path,
                                           method, delta):
        """Regression: ``--delta=-1`` died with a traceback (exit 1), and
        ``--delta nan`` wrote output: DP and DP* kept only the end
        samples, DP+ every sample."""
        out_path = tmp_path / "reduced.csv"
        code, text = run_cli(
            ["simplify", str(convoy_csv), str(out_path), "--method", method,
             f"--delta={delta}"]
        )
        assert code == 2
        assert re.fullmatch(
            "bad --delta value: delta must be non-negative and finite, "
            f"got {float(delta)!r}\n", text,
        ), text
        assert not out_path.exists()


class TestGenerate:
    def test_generate_taxi(self, tmp_path):
        out_path = tmp_path / "taxi.csv"
        code, text = run_cli(
            ["generate", "taxi", str(out_path), "--scale", "0.1"]
        )
        assert code == 0
        assert "500 objects" in text
        db = load_trajectories_csv(out_path)
        assert len(db) == 500

    def test_generate_respects_seed(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["generate", "cattle", str(a), "--scale", "0.002", "--seed", "5"])
        run_cli(["generate", "cattle", str(b), "--scale", "0.002", "--seed", "5"])
        assert a.read_text() == b.read_text()


class TestStreamRateReporting:
    def test_sub_resolution_elapsed_omits_rate(self, convoy_csv, monkeypatch):
        """A run finishing below the timer's resolution must not print
        'inf snapshots/s' — the rate is omitted, the count stays."""
        import repro.cli as cli_module

        monkeypatch.setattr(cli_module.time, "perf_counter", lambda: 42.0)
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet"]
        )
        assert code == 0
        assert "inf" not in text
        assert "snapshots/s" not in text
        assert "1 convoy(s) from 20 snapshot(s)" in text

    def test_measurable_elapsed_prints_rate(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet"]
        )
        assert code == 0
        assert "snapshots/s" in text
        assert "inf" not in text


@pytest.fixture
def split_csv(tmp_path):
    """a and b travel together for t=0..5, apart for t=6..9 and together
    again from t=10 to the last of 20 snapshots: one convoy closes at
    t=6, the other is still open when the input ends."""
    db = TrajectoryDatabase([
        Trajectory("a", [(t, 0.0, t) for t in range(20)]),
        Trajectory("b", [(t, 60.0 if 6 <= t < 10 else 1.0, t)
                         for t in range(20)]),
    ])
    path = tmp_path / "split.csv"
    save_trajectories_csv(db, path)
    return path


def interrupting_sleep(after):
    """A ``time.sleep`` stand-in recording each call, raising
    KeyboardInterrupt (Ctrl-C) on call number ``after``."""
    calls = []

    def sleep(seconds):
        calls.append(seconds)
        if len(calls) == after:
            raise KeyboardInterrupt

    return sleep, calls


class TestStreamPaceAndInterrupt:
    def test_pace_sleeps_once_per_snapshot(self, split_csv, monkeypatch):
        import repro.cli as cli_module

        sleep, calls = interrupting_sleep(after=None)
        monkeypatch.setattr(cli_module.time, "sleep", sleep)
        code, text = run_cli(
            ["stream", str(split_csv), "-m", "2", "-k", "3", "-e", "2.0",
             "--quiet", "--pace", "0.25"]
        )
        assert code == 0
        assert calls == [0.25] * 20
        assert "2 convoy(s) from 20 snapshot(s)" in text

    def test_interrupt_exits_130_without_flushing(self, split_csv,
                                                   monkeypatch):
        import repro.cli as cli_module

        sleep, calls = interrupting_sleep(after=15)
        monkeypatch.setattr(cli_module.time, "sleep", sleep)
        code, text = run_cli(
            ["stream", str(split_csv), "-m", "2", "-k", "3", "-e", "2.0",
             "--pace", "0.01"]
        )
        assert code == 130
        assert "closed at t=6: t=[0,5] objects=a,b" in text
        # The chain open since t=10 is not part of the committed prefix.
        assert "open at end of stream" not in text
        assert text.rstrip().endswith("interrupted after 14 snapshot(s)")

    def test_interrupt_keeps_the_committed_store_prefix(self, split_csv,
                                                        tmp_path,
                                                        monkeypatch):
        import repro.cli as cli_module

        sleep, calls = interrupting_sleep(after=15)
        monkeypatch.setattr(cli_module.time, "sleep", sleep)
        db = tmp_path / "convoys.db"
        code, text = run_cli(
            ["stream", str(split_csv), "-m", "2", "-k", "3", "-e", "2.0",
             "--quiet", "--pace", "0.01", "--store", str(db)]
        )
        assert code == 130
        assert (f"interrupted after 14 snapshot(s); 1 convoy(s) committed "
                f"to {db}") in text
        monkeypatch.undo()
        code, text = run_cli(["query", str(db), "--alive", "0:19", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert [(c["objects"], c["t_start"], c["t_end"])
                for c in payload["convoys"]] == [(["a", "b"], 0, 5)]


class TestStreamStore:
    def test_store_round_trips_through_query(self, convoy_csv, tmp_path):
        db = tmp_path / "convoys.db"
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet", "--store", str(db)]
        )
        assert code == 0
        assert "store: 1 convoy(s) stored, 0 replayed" in text
        code, text = run_cli(["query", str(db), "--alive", "0:15", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["count"] == 1
        assert payload["store_count"] == 1
        (convoy,) = payload["convoys"]
        assert convoy["objects"] == ["a", "b"]
        assert convoy["t_start"] == 0
        assert convoy["t_end"] == 19
        assert convoy["bbox"] is not None

    def test_rerun_replays_idempotently(self, convoy_csv, tmp_path):
        db = tmp_path / "convoys.db"
        argv = ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e",
                "2.0", "--quiet", "--store", str(db)]
        assert run_cli(argv)[0] == 0
        code, text = run_cli(argv)
        assert code == 0
        assert "store: 0 convoy(s) stored, 1 replayed" in text

    @pytest.mark.parametrize("kind", ["directory", "view-only-database"])
    def test_unusable_store_exits_2_and_is_left_alone(self, convoy_csv,
                                                      tmp_path, kind):
        import sqlite3

        target = tmp_path / "target"
        if kind == "directory":
            target.mkdir()
        else:
            con = sqlite3.connect(target)
            con.execute("CREATE VIEW answer AS SELECT 42")
            con.close()
        before = target.read_bytes() if target.is_file() else None
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet", "--store", str(target)]
        )
        assert code == 2
        assert "bad query parameters: " in text
        assert str(target) in text
        assert (target.read_bytes() if target.is_file() else None) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "in.csv", "target"
        ]


class TestQuery:
    @pytest.fixture
    def store_db(self, convoy_csv, tmp_path):
        db = tmp_path / "convoys.db"
        code, _ = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "10", "-e", "2.0",
             "--quiet", "--store", str(db)]
        )
        assert code == 0
        return db

    def test_text_output(self, store_db):
        code, text = run_cli(["query", str(store_db), "--alive", "0:5"])
        assert code == 0
        assert "t=[0,19] objects=a,b bbox=" in text
        assert "1 convoy(s) matched (store holds 1" in text

    def test_containing_matches_both_id_types(self, store_db, tmp_path):
        from repro.core.convoy import Convoy
        from repro.store import open_store

        with open_store(store_db) as store:
            store.add(Convoy({5, "x"}, 0, 4))
            store.add(Convoy({"5", "y"}, 1, 6))
        code, text = run_cli(["query", str(store_db), "--containing", "5",
                              "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["count"] == 2
        code, text = run_cli(["query", str(store_db), "--containing", "x"])
        assert code == 0
        assert "1 convoy(s) matched" in text

    def test_containing_miss_is_empty_not_an_error(self, store_db):
        code, text = run_cli(["query", str(store_db), "--containing", "zz"])
        assert code == 0
        assert "0 convoy(s) matched" in text

    def test_intersecting(self, store_db):
        code, text = run_cli(
            ["query", str(store_db), "--intersecting", "0:0:5:25"])
        assert code == 0
        assert "1 convoy(s) matched" in text
        code, text = run_cli(
            ["query", str(store_db), "--intersecting", "50:50:60:60"])
        assert code == 0
        assert "0 convoy(s) matched" in text

    def test_top_k_composes_with_alive(self, store_db):
        code, text = run_cli(
            ["query", str(store_db), "--alive", "0:5", "--top-k", "1",
             "--by", "size", "--json"])
        assert code == 0
        payload = json.loads(text)
        assert payload["query"]["top_k"] == 1
        assert payload["query"]["by"] == "size"
        assert payload["count"] == 1

    def test_missing_store_is_an_error(self, tmp_path):
        missing = tmp_path / "nope.db"
        code, text = run_cli(["query", str(missing), "--alive", "0:5"])
        assert code == 2
        assert "no such store" in text
        assert not missing.exists()  # the query must not create it
        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"not a convoy store\n" * 64)
        code, text = run_cli(["query", str(garbage), "--alive", "0:5"])
        assert code == 2
        assert "file is not a database" in text

    def test_directory_store_is_an_error(self, tmp_path):
        code, text = run_cli(["query", str(tmp_path), "--alive", "0:5"])
        assert code == 2
        assert text.startswith("bad store: ")
        assert "unable to open" in text

    def test_mode_validation(self, store_db):
        code, text = run_cli(["query", str(store_db)])
        assert code == 2
        assert "at least one of" in text
        code, text = run_cli(["query", str(store_db), "--alive", "0:5",
                              "--containing", "a"])
        assert code == 2
        assert "pick one of" in text
        code, text = run_cli(["query", str(store_db), "--containing", "a",
                              "--top-k", "2"])
        assert code == 2
        assert "--top-k only composes with --alive" in text
        code, text = run_cli(["query", str(store_db), "--top-k", "0"])
        assert code == 2
        assert "bad --top-k" in text

    def test_window_and_box_validation(self, store_db):
        code, text = run_cli(["query", str(store_db), "--alive", "9:2"])
        assert code == 2
        assert "reversed" in text
        code, text = run_cli(["query", str(store_db), "--alive", "abc"])
        assert code == 2
        assert "bad query window/box" in text
        code, text = run_cli(
            ["query", str(store_db), "--intersecting", "1:2:3"])
        assert code == 2
        assert "bad query window/box" in text

    def test_box_corners_any_order(self, store_db):
        code_a, text_a = run_cli(
            ["query", str(store_db), "--intersecting", "5:25:0:0"])
        code_b, text_b = run_cli(
            ["query", str(store_db), "--intersecting", "0:0:5:25"])
        assert code_a == code_b == 0
        assert text_a == text_b


class TestServe:
    def test_rejects_bad_workers(self):
        code, text = run_cli(["serve", "--workers", "0"])
        assert code == 2
        assert "bad --workers value" in text

    def test_rejects_bad_max_queue(self):
        code, text = run_cli(["serve", "--max-queue", "0"])
        assert code == 2
        assert "bad --max-queue value" in text

    def test_stream_rejects_negative_pace(self, convoy_csv):
        code, text = run_cli(
            ["stream", str(convoy_csv), "-m", "2", "-k", "3", "-e", "2.0",
             "--pace", "-0.5"]
        )
        assert code == 2
        assert "bad --pace value" in text
