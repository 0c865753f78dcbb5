"""Tests for the bench harness (timers, report formatting, bench JSON)."""

import json
import math
import time

from benchmarks.bench_convoy_store import (
    ROW_KEYS as STORE_ROW_KEYS,
    run_query,
    run_write,
)
from benchmarks.bench_service_ingestion import (
    ROW_KEYS as SERVICE_ROW_KEYS,
    run_suite as run_service_suite,
)
from benchmarks.bench_sharded_scaling import (
    SMOKE_SCALE,
    run_bytes,
    run_grid,
)
from benchmarks.bench_match_kernel import (
    KERNELS as MATCH_KERNEL_ORDER,
    SMOKE_SMALL,
    make_delta_steps,
    make_small_workload,
    run_regime,
)
from benchmarks.bench_vector_kernel import run_all
from benchmarks.common import safe_rate, write_bench_json
from repro.bench import PhaseTimer, format_series, format_table, time_call


class TestPhaseTimer:
    def test_records_phases(self):
        timer = PhaseTimer()
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert set(timer.durations) == {"a", "b"}
        assert timer.total >= 0

    def test_accumulates_repeated_phase(self):
        timer = PhaseTimer()
        for _ in range(3):
            with timer.phase("x"):
                time.sleep(0.001)
        assert timer.durations["x"] >= 0.003

    def test_records_on_exception(self):
        timer = PhaseTimer()
        try:
            with timer.phase("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert "boom" in timer.durations


class TestTimeCall:
    def test_returns_result_and_seconds(self):
        result, seconds = time_call(lambda x: x * 2, 21)
        assert result == 42
        assert seconds >= 0


class TestFormatting:
    def test_table_alignment(self):
        text = format_table(
            "My Table", ["name", "value"], [["alpha", 1], ["b", 123456.0]]
        )
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert "name" in lines[2]
        # All data lines share the same width.
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1

    def test_table_float_formatting(self):
        text = format_table("t", ["v"], [[0.123456], [12345.6], [0]])
        assert "0.123" in text
        assert "12,346" in text

    def test_series(self):
        text = format_series(
            "Fig", "x", [1, 2], {"a": [10, 20], "b": [30, 40]}
        )
        assert "Fig" in text
        assert "x" in text.splitlines()[2]
        assert "30" in text


class TestWriteBenchJson:
    """Schema guard for the BENCH_*.json perf-trajectory artifacts.

    CI uploads every bench's ``--json`` output per commit; downstream
    consumers chart rates and speedups across commits keyed by these
    fields, so a silent rename here would sever the trajectory."""

    def write(self, tmp_path, **overrides):
        kwargs = dict(
            bench="reorder_ingestion",
            params={"m": 3, "k": 10, "eps": 10.0, "smoke": True},
            rows=[
                {"lateness": 2, "delta_rate": 100.5, "peak_pending": 3},
                {"lateness": 8, "delta_rate": 99.0, "peak_pending": 9},
            ],
        )
        kwargs.update(overrides)
        path = tmp_path / "BENCH_test.json"
        payload = write_bench_json(path, kwargs["bench"], kwargs["params"],
                                   kwargs["rows"])
        return path, payload

    def test_top_level_schema(self, tmp_path):
        path, _payload = self.write(tmp_path)
        with open(path) as handle:
            loaded = json.load(handle)
        # Exactly the keys the CI trajectory consumers rely on.
        assert set(loaded) == {"bench", "git_sha", "params", "rows"}
        assert loaded["bench"] == "reorder_ingestion"
        assert isinstance(loaded["git_sha"], str) and loaded["git_sha"]
        assert loaded["params"]["m"] == 3
        assert [row["lateness"] for row in loaded["rows"]] == [2, 8]

    def test_git_sha_is_resolvable_or_unknown(self, tmp_path):
        path, _payload = self.write(tmp_path)
        with open(path) as handle:
            sha = json.load(handle)["git_sha"]
        assert sha == "unknown" or (
            len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        )

    def test_returned_payload_matches_file(self, tmp_path):
        path, payload = self.write(tmp_path)
        with open(path) as handle:
            assert json.load(handle) == payload

    def test_rows_and_params_are_copies(self, tmp_path):
        """The writer must snapshot its inputs: callers mutating their
        row dicts after writing must not alter the returned payload."""
        params = {"m": 3}
        rows = [{"rate": 1.0}]
        _path, payload = self.write(tmp_path, params=params, rows=rows)
        params["m"] = 99
        rows[0]["rate"] = -1.0
        assert payload["params"]["m"] == 3
        assert payload["rows"][0]["rate"] == 1.0

    def test_file_ends_with_newline_and_sorted_keys(self, tmp_path):
        path, _payload = self.write(tmp_path)
        text = path.read_text()
        assert text.endswith("\n")
        # sort_keys=True makes diffs between artifact versions stable.
        assert text.index('"bench"') < text.index('"git_sha"')
        assert text.index('"git_sha"') < text.index('"params"')


class TestSafeRate:
    """Tiny smoke runs can finish below the timer's resolution; no rate
    derived from them may reach a report or JSON payload as ``inf``."""

    def test_normal_division(self):
        assert safe_rate(10, 2.0) == 5.0

    def test_zero_elapsed_is_none(self):
        assert safe_rate(10, 0.0) is None

    def test_negative_elapsed_is_none(self):
        assert safe_rate(10, -1.0) is None

    def test_overflow_is_none(self):
        assert safe_rate(1e308, 1e-308) is None

    def test_nan_elapsed_is_none(self):
        assert safe_rate(10, float("nan")) is None


class TestNonFiniteSanitization:
    """``json.dump`` happily emits the non-standard ``Infinity``/``NaN``
    tokens; the writer must replace every non-finite float with null."""

    def test_top_level_values(self, tmp_path):
        path = tmp_path / "BENCH_inf.json"
        write_bench_json(
            path, "b", {"rate": float("inf")},
            [{"x": float("nan"), "ok": 1.5}],
        )
        loaded = json.load(open(path))
        assert loaded["params"]["rate"] is None
        assert loaded["rows"][0]["x"] is None
        assert loaded["rows"][0]["ok"] == 1.5

    def test_nested_containers(self, tmp_path):
        path = tmp_path / "BENCH_nested.json"
        _payload = write_bench_json(
            path, "b",
            {"scale": {"rates": [1.0, float("-inf"), 2.0]}},
            [{"inner": {"bad": float("nan")}}],
        )
        loaded = json.load(open(path))
        assert loaded["params"]["scale"]["rates"] == [1.0, None, 2.0]
        assert loaded["rows"][0]["inner"]["bad"] is None

    def test_file_parses_under_strict_json(self, tmp_path):
        path = tmp_path / "BENCH_strict.json"
        write_bench_json(path, "b", {"r": float("inf")}, [])
        # parse_constant raises on Infinity/NaN tokens — the file must
        # never contain them.
        def reject(token):
            raise AssertionError(f"non-standard token {token!r} in JSON")
        json.loads(path.read_text(), parse_constant=reject)


class TestVectorKernelBenchSchema:
    """Schema guard for ``BENCH_vector_kernel.json``: the trajectory
    consumers chart the backend speedups keyed on these row fields."""

    ROW_KEYS = {
        "workload", "snapshots", "python_rate", "vector_rate", "speedup",
        "python_seconds", "vector_seconds", "convoys",
    }

    def test_rows_are_stable_and_finite(self, tmp_path):
        _scale, _churn, rows = run_all(smoke=True)
        assert [row["workload"] for row in rows] == ["dbscan", "incremental"]
        for row in rows:
            assert set(row) == self.ROW_KEYS
            assert row["snapshots"] > 0
            for key in ("python_rate", "vector_rate", "speedup"):
                value = row[key]
                assert value is None or (
                    isinstance(value, float) and math.isfinite(value)
                )
        path = tmp_path / "BENCH_vector_kernel.json"
        write_bench_json(path, "vector_kernel", {"smoke": True}, rows)
        loaded = json.load(open(path))
        assert loaded["bench"] == "vector_kernel"
        assert set(loaded["rows"][0]) == self.ROW_KEYS


class TestMatchKernelBenchSchema:
    """Schema guard for ``BENCH_match_kernel.json``: the trajectory
    consumers chart the join and pairwise rates keyed on these row
    fields, so the bench's row shape is pinned here alongside the
    writer's envelope."""

    ROW_KEYS = {
        "regime", "kernel", "snapshots", "seconds", "rate", "convoys",
    }

    def rows(self):
        # A tiny churn workload keeps this a schema test, not a bench;
        # run_regime still times both variants and asserts their
        # emissions identical.
        scale = dict(SMOKE_SMALL, n_objects=40, n_snapshots=6, warmup=2)
        steps = make_delta_steps(make_small_workload(scale))
        return run_regime("schema", steps, scale["warmup"], reps=1)

    def test_rows_are_stable_and_finite(self, tmp_path):
        rows = self.rows()
        assert [row["kernel"] for row in rows] == list(MATCH_KERNEL_ORDER)
        for row in rows:
            assert set(row) == self.ROW_KEYS
            assert row["regime"] == "schema"
            assert row["snapshots"] > 0
            assert row["seconds"] >= 0
            rate = row["rate"]
            assert rate is None or (
                isinstance(rate, float) and math.isfinite(rate)
            )
        path = tmp_path / "BENCH_match_kernel.json"
        write_bench_json(path, "match_kernel", {"smoke": True}, rows)
        loaded = json.load(open(path))
        assert loaded["bench"] == "match_kernel"
        assert set(loaded["rows"][0]) == self.ROW_KEYS


class TestShardedScalingBenchSchema:
    """Schema guard for ``BENCH_sharded_scaling.json``: the trajectory
    consumers key the scaling curve on these row fields, so the bench's
    row shape is pinned here alongside the writer's envelope."""

    #: Fields every sharded-scaling row must carry.
    ROW_KEYS = {
        "shards", "executor", "resident", "workload", "rate",
        "speedup_vs_unsharded", "convoys", "peak_candidates",
        "sharded_candidates", "max_shard_batch", "seconds",
        "shipped_bytes_per_tick", "result_bytes_per_tick",
        "payload_bytes_per_tick", "payload_reduction",
    }

    def rows(self):
        # Tiny serial-only cells keep this a schema test, not a bench;
        # the legacy 2-tuple cell pins the grid-cell normalization.
        scale = dict(SMOKE_SCALE, n_snapshots=6, n_objects=60,
                     group_count=10, group_size=5)
        baseline, rows = run_grid(
            scale, ((2, "serial"), (2, "serial", True))
        )
        return baseline, rows

    def test_row_fields_are_stable(self):
        baseline, rows = self.rows()
        assert set(baseline) == self.ROW_KEYS
        for row in rows:
            assert set(row) == self.ROW_KEYS
            assert row["executor"] == "serial"
            assert row["shards"] == 2
            assert row["rate"] > 0
            assert row["speedup_vs_unsharded"] > 0
            # Timing rows carry no byte accounting.
            assert row["payload_bytes_per_tick"] is None
        assert [row["resident"] for row in rows] == [False, True]
        assert baseline["executor"] == "unsharded"
        assert baseline["shards"] == 0
        assert baseline["resident"] is False

    def test_byte_pass_rows(self):
        """The byte pass emits a stateless and a resident row with the
        pickled-payload fields filled in and the reduction on the
        resident row (the ≥5x bar itself is asserted by the bench on
        its real workload scales, not this tiny one)."""
        scale = dict(n_groups=12, group_size=6, n_snapshots=8,
                     dirty_groups=1)
        rows, reduction = run_bytes(scale)
        assert [row["resident"] for row in rows] == [False, True]
        for row in rows:
            assert set(row) == self.ROW_KEYS
            assert row["workload"] == "group swap"
            assert row["shipped_bytes_per_tick"] > 0
            assert row["result_bytes_per_tick"] >= 0
            assert row["payload_bytes_per_tick"] == (
                row["shipped_bytes_per_tick"] + row["result_bytes_per_tick"]
            )
        assert rows[0]["payload_reduction"] is None
        assert rows[1]["payload_reduction"] == reduction
        assert reduction > 0

    def test_rows_round_trip_through_the_writer(self, tmp_path):
        baseline, rows = self.rows()
        path = tmp_path / "BENCH_sharded_scaling.json"
        write_bench_json(
            path, "sharded_scaling",
            {"m": 3, "k": 8, "eps": 10.0, "smoke": True, "cores": 1},
            [baseline] + rows,
        )
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["bench"] == "sharded_scaling"
        assert [row["executor"] for row in loaded["rows"]] == [
            "unsharded", "serial", "serial"
        ]
        assert set(loaded["rows"][1]) == self.ROW_KEYS


class TestConvoyStoreBenchSchema:
    """Schema guard for ``BENCH_convoy_store.json``: the trajectory
    consumers chart write-through overhead and index speedup keyed on
    these row fields, so the bench's row shape is pinned here.

    Tiny scales keep this a schema test — the 15%/10x acceptance bars
    are asserted by the bench itself on its real workload sizes."""

    ROW_KEYS = set(STORE_ROW_KEYS)

    WRITE_SCALE = dict(n_objects=40, n_snapshots=12, group_count=5,
                       group_size=8, jitter=0.2, reps=1)
    QUERY_SCALE = dict(population=200, domain=800, max_life=10,
                       windows=5, width=4, reps=1)

    def test_write_pass_rows(self, tmp_path):
        rows, overhead = run_write(self.WRITE_SCALE, tmp_path)
        assert [row["mode"] for row in rows] == ["plain", "store"]
        for row in rows:
            assert set(row) == self.ROW_KEYS
            assert row["pass"] == "write"
            assert row["snapshots"] == 12
            assert row["convoys"] > 0
        plain, store = rows
        assert plain["write_overhead"] is None
        assert plain["sink_seconds"] is None
        assert store["write_overhead"] == overhead
        assert store["sink_seconds"] is not None
        assert store["stored"] > 0
        assert overhead > 0 and math.isfinite(overhead)

    def test_query_pass_rows(self, tmp_path):
        rows, speedup = run_query(self.QUERY_SCALE, tmp_path)
        assert [row["mode"] for row in rows] == [
            "indexed", "scan", "top_k"
        ]
        for row in rows:
            assert set(row) == self.ROW_KEYS
            assert row["pass"] == "query"
            assert row["population"] == 200
            # Query rows carry no write-pass accounting.
            assert row["write_overhead"] is None
        indexed, scan, _top_k = rows
        # Both plans must have returned the same row count.
        assert indexed["convoys"] == scan["convoys"]
        assert indexed["speedup_vs_scan"] == speedup
        assert speedup is None or (
            isinstance(speedup, float) and math.isfinite(speedup)
        )

    def test_rows_round_trip_through_the_writer(self, tmp_path):
        write_rows, _ = run_write(self.WRITE_SCALE, tmp_path)
        query_rows, _ = run_query(self.QUERY_SCALE, tmp_path)
        path = tmp_path / "BENCH_convoy_store.json"
        write_bench_json(
            path, "convoy_store",
            {"m": 5, "k": 8, "eps": 8.0, "smoke": True},
            write_rows + query_rows,
        )
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["bench"] == "convoy_store"
        assert [row["pass"] for row in loaded["rows"]] == [
            "write", "write", "query", "query", "query"
        ]
        for row in loaded["rows"]:
            assert set(row) == self.ROW_KEYS


class TestServiceIngestionBenchSchema:
    """Schema guard for ``BENCH_service_ingestion.json``: the trajectory
    consumers chart per-tenant rates and latency percentiles keyed on
    these row fields.  ``run_suite`` itself asserts the backpressure
    contract (bounded slow-tenant queue, throttled waits observed, fast
    tenant within 20% of the solo step rate), so this guard re-runs it
    at smoke scale and pins the row shape around it."""

    def test_rows_round_trip_with_backpressure_asserted(self, tmp_path):
        rows = run_service_suite(smoke=True)
        runs = [row["run"] for row in rows]
        assert runs.count("solo") == 1
        assert runs.count("backpressure") == 2
        assert runs.count("fleet") >= 2
        for row in rows:
            assert set(row) == SERVICE_ROW_KEYS
            assert row["snapshots"] > 0
            for key in ("rate", "step_rate"):
                value = row[key]
                assert value is None or (
                    isinstance(value, float) and math.isfinite(value)
                )
        path = tmp_path / "BENCH_service_ingestion.json"
        write_bench_json(
            path, "service_ingestion", {"smoke": True}, rows
        )
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["bench"] == "service_ingestion"
        assert len(loaded["rows"]) == len(rows)
        for row in loaded["rows"]:
            assert set(row) == SERVICE_ROW_KEYS
