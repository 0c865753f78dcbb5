"""A client may send anything: the service answers ``error``, keeps going.

The server's read loop maps :class:`ProtocolError` to an ``error``
event; any other exception escaping a message handler ends the
connection, closes its other tenants unflushed, and leaves asyncio to
log "Unhandled exception in client_connected_cb".  So every way a
``hello`` or ``feed`` can be wrong must surface as a ProtocolError:

* out-of-range numbers in a ``hello`` config (an infinite or
  fractional count, window or reorder bound, a NaN or overflowing
  ``tick_delay``), and keys the miner does not take;
* a ``store`` path that cannot be opened or is not a convoy store,
  which must also be left exactly as it was;
* malformed ``hello`` / ``feed`` envelopes, each answered on a live
  connection whose tenant still flushes afterwards;
* arbitrary JSON configs (a Hypothesis property over every key).
"""

import asyncio
import math
import multiprocessing
import re
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    IngestionServer,
    ProtocolError,
    ServiceClient,
    build_miner,
)
from repro.service.protocol import (
    STREAM_LIMIT,
    decode,
    encode,
    encode_snapshot,
)
from repro.service.session import MINER_CONFIG_KEYS, SERVICE_CONFIG_KEYS

CFG = {"m": 2, "k": 2, "eps": 2.5}


class TestOutOfRangeConfigNumbers:
    @pytest.mark.parametrize("overrides, match", [
        ({"shards": math.inf}, "unknown config key"),
        ({"shards": -math.inf}, "unknown config key"),
        ({"reorder": {"allowed_lateness": math.inf}}, "bad miner config"),
        ({"reorder": {"max_pending": math.inf}}, "bad miner config"),
        ({"tick_delay": math.nan}, "tick_delay"),
        ({"tick_delay": math.inf}, "tick_delay"),
        ({"tick_delay": 10 ** 400}, "tick_delay"),
    ], ids=[
        "shards-inf", "shards-minus-inf", "allowed-lateness-inf",
        "max-pending-inf", "tick-delay-nan", "tick-delay-inf",
        "tick-delay-401-digits",
    ])
    def test_is_a_protocol_error(self, overrides, match):
        with pytest.raises(ProtocolError, match=match):
            build_miner(dict(CFG, **overrides))

    def test_large_finite_tick_delay_is_kept_as_a_float(self):
        miner, tick_delay, _max_queue = build_miner(
            dict(CFG, tick_delay=10 ** 3)
        )
        miner.close()
        assert tick_delay == 1000.0
        assert isinstance(tick_delay, float)


def make_directory(path):
    path.mkdir()


def make_missing_parent(path):
    """Leave ``path`` inside a directory that does not exist."""


def make_view_only(path):
    con = sqlite3.connect(path)
    con.execute("CREATE VIEW answer AS SELECT 42")
    con.close()


def make_foreign_tables(path):
    con = sqlite3.connect(path)
    con.execute("CREATE TABLE people (name TEXT)")
    con.execute("INSERT INTO people VALUES ('ada')")
    con.commit()
    con.close()


def make_not_a_database(path):
    path.write_bytes(b"object_id,t,x,y\na,0,0.0,0.0\n" * 40)


STORE_CASES = {
    "directory": (make_directory, "unable to open"),
    "missing-parent": (make_missing_parent, "unable to open"),
    "view-only-database": (make_view_only, "not a convoy store"),
    "foreign-tables": (make_foreign_tables, "not a convoy store"),
    "not-a-database": (make_not_a_database, "not a database"),
}


def store_path(tmp_path, case):
    if case == "missing-parent":
        return tmp_path / "absent" / "store.db"
    return tmp_path / "target"


def file_state(path):
    """Bytes of a regular file (None otherwise), so a refused open can
    be shown to have written nothing."""
    return path.read_bytes() if path.is_file() else None


class TestUnusableStorePaths:
    @pytest.mark.parametrize("case", sorted(STORE_CASES))
    def test_hello_store_is_a_protocol_error_and_left_alone(self, tmp_path,
                                                            case):
        make, match = STORE_CASES[case]
        path = store_path(tmp_path, case)
        make(path)
        before = file_state(path)
        with pytest.raises(ProtocolError, match=match):
            build_miner(dict(CFG, store=str(path)))
        assert file_state(path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == (
            [] if case == "missing-parent" else ["target"]
        )


#: The numbers JSON can carry, with the edge values drawn often.
json_numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400)]),
    st.integers(min_value=-5, max_value=10 ** 6),
    st.floats(),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), json_numbers, st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=6,
)
#: Numbers first: most keys are numeric, and their range checks are
#: where a non-ProtocolError could escape.
config_values = st.one_of(json_numbers, json_values)
#: Reorder kwargs drawn by name, so the buffer's own checks are reached.
reorder_values = st.one_of(
    json_values,
    st.dictionaries(
        st.sampled_from(
            ["allowed_lateness", "max_pending", "late_policy", "bogus"]
        ),
        config_values,
        max_size=3,
    ),
)
#: Keys whose legal values would create files.
SIDE_EFFECT_KEYS = {"store"}


#: Mostly-valid values for the required keys, so that the optional
#: keys' checks are reached instead of stopping at m, k or eps.
REQUIRED = {
    "m": st.one_of(st.integers(min_value=1, max_value=4), config_values),
    "k": st.one_of(st.integers(min_value=1, max_value=4), config_values),
    "eps": st.one_of(st.floats(min_value=0.5, max_value=10.0),
                     config_values),
}


@st.composite
def hello_configs(draw):
    config = {key: draw(values) for key, values in REQUIRED.items()}
    for key in MINER_CONFIG_KEYS + SERVICE_CONFIG_KEYS:
        if key in REQUIRED or key in SIDE_EFFECT_KEYS:
            continue
        if draw(st.booleans()):
            config[key] = draw(
                reorder_values if key == "reorder" else config_values
            )
    return config


class TestArbitraryConfigs:
    @settings(max_examples=300, deadline=None)
    @given(hello_configs())
    def test_only_protocol_errors_escape(self, config):
        try:
            miner, tick_delay, _max_queue = build_miner(config)
        except ProtocolError:
            return
        miner.close()
        assert 0 <= tick_delay < math.inf


def raw_exchange(lines):
    """Open tenant ``a``, and tenant ``b`` on a second connection; send
    each line on ``a``'s connection, then feed and flush both tenants.

    Returns ``(events, flushed, neighbour, protocol_errors)``: the event
    answering each line, ``a``'s and ``b``'s ``flushed`` events, and the
    server's protocol-error count.  Every read has a timeout, so a
    dropped connection fails the test instead of hanging it.
    """
    snapshot = encode_snapshot({"x": (0.0, 0.0), "y": (0.5, 0.0)})

    async def run():
        async with IngestionServer() as server:

            async def connect(tenant):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port, limit=STREAM_LIMIT
                )

                async def send(line, reply=True):
                    writer.write(line)
                    await writer.drain()
                    if reply:
                        answer = await asyncio.wait_for(reader.readline(), 10)
                        assert answer, "server closed the connection"
                        return decode(answer)
                    return None

                hello = {"type": "hello", "tenant": tenant, "config": CFG}
                assert (await send(encode(hello)))["type"] == "ready"
                return writer, send

            async def feed_and_flush(tenant, send):
                await send(encode({"type": "feed", "tenant": tenant,
                                   "ticks": [[0, snapshot], [1, snapshot]]}),
                           reply=False)
                return await send(encode({"type": "flush", "tenant": tenant}))

            writer, send = await connect("a")
            neighbour_writer, neighbour_send = await connect("b")
            events = [await send(line) for line in lines]
            flushed = await feed_and_flush("a", send)
            neighbour = await feed_and_flush("b", neighbour_send)
            for each in (writer, neighbour_writer):
                each.close()
                await each.wait_closed()
            return (events, flushed, neighbour,
                    server.counters["protocol_errors"])

    return asyncio.run(run())


def assert_flushed_pair(flushed):
    assert flushed["type"] == "flushed"
    assert flushed["convoys"] == [
        {"objects": ["x", "y"], "t_start": 0, "t_end": 1}
    ]


class TestMalformedEnvelopes:
    @pytest.mark.parametrize("message, match", [
        ({"type": "subscribe"}, "unknown message type"),
        ({"type": "hello", "tenant": ""}, "non-empty string"),
        ({"type": "hello", "tenant": 7}, "non-empty string"),
        ({"type": "hello", "tenant": "a", "config": CFG}, "already open"),
        ({"type": "feed", "tenant": "a", "ticks": "0"}, "must be a list"),
        ({"type": "feed", "tenant": "a", "ticks": [[0]]}, r"\[t, snapshot\]"),
        ({"type": "feed", "tenant": "a", "ticks": [["0", []]]},
         "must be an int"),
        ({"type": "feed", "tenant": "a", "ticks": [[True, []]]},
         "must be an int"),
        ({"type": "feed", "tenant": "a", "ticks": [[0.5, []]]},
         "must be an int"),
        ({"type": "feed", "tenant": "a", "ticks": [[0, [["x", math.nan,
                                                          0.0]]]]},
         "must be finite"),
    ], ids=[
        "unknown-type", "empty-tenant", "int-tenant", "reopened-tenant",
        "ticks-not-a-list", "entry-not-a-pair", "str-time", "bool-time",
        "float-time", "nan-coordinate",
    ])
    def test_answered_and_the_tenant_survives(self, message, match):
        events, flushed, neighbour, _errors = raw_exchange([encode(message)])
        assert events[0]["type"] == "error"
        assert re.search(match, events[0]["error"])
        assert_flushed_pair(flushed)
        assert_flushed_pair(neighbour)


class TestHostileHelloEndToEnd:
    def test_each_bad_hello_is_answered_on_one_live_connection(
            self, tmp_path):
        make_directory(tmp_path / "dir")
        configs = [
            dict(CFG, executor="process"),
            dict(CFG, reorder={"max_pending": math.inf}),
            dict(CFG, tick_delay=10 ** 400),
            dict(CFG, tick_delay=math.nan),
            dict(CFG, store=str(tmp_path / "dir")),
        ]
        lines = [
            encode({"type": "hello", "tenant": f"bad{i}", "config": config})
            for i, config in enumerate(configs)
        ]
        events, flushed, neighbour, _errors = raw_exchange(lines)
        assert [event["type"] for event in events] == ["error"] * 5
        assert [event["tenant"] for event in events] == [
            f"bad{i}" for i in range(5)
        ]
        assert_flushed_pair(flushed)
        assert_flushed_pair(neighbour)

    @pytest.mark.parametrize("key, value", [
        ("shards", 2), ("executor", "process"), ("resident", True),
    ])
    def test_removed_knob_is_an_unknown_key(self, key, value):
        """A ``hello`` may not start worker threads or processes: the
        keys that once selected them are unknown."""
        line = encode({"type": "hello", "tenant": "c",
                       "config": dict(CFG, **{key: value})})
        events, flushed, neighbour, _errors = raw_exchange([line])
        assert events == [{"type": "error", "tenant": "c",
                           "error": f"unknown config key(s): {key}"}]
        assert multiprocessing.active_children() == []
        assert_flushed_pair(flushed)
        assert_flushed_pair(neighbour)


def junk_line(length):
    """``length`` bytes of non-JSON, then the newline."""
    return b"x" * length + b"\n"


class TestLineFraming:
    """Lines at and past ``STREAM_LIMIT``, and bytes that are not UTF-8:
    each is answered with one ``error`` event, counted, and skipped, and
    neither the connection's tenant nor a neighbour on another
    connection notices."""

    @pytest.mark.parametrize("line, match", [
        (junk_line(STREAM_LIMIT - 1), "undecodable protocol line"),
        (junk_line(STREAM_LIMIT), "undecodable protocol line"),
        (junk_line(STREAM_LIMIT + 1), f"longer than {STREAM_LIMIT} bytes"),
        (junk_line(2 * STREAM_LIMIT), f"longer than {STREAM_LIMIT} bytes"),
        (b"\xff\xfe{}\n", "undecodable protocol line"),
        (b'{"type": "hello", "tenant": "\xff"}\n',
         "undecodable protocol line"),
    ], ids=["limit-minus-1", "limit", "limit-plus-1", "twice-limit",
            "non-utf8-prefix", "non-utf8-in-string"])
    def test_answered_counted_and_skipped(self, line, match):
        events, flushed, neighbour, errors = raw_exchange([line])
        assert len(events) == 1
        assert events[0]["type"] == "error"
        assert re.search(match, events[0]["error"])
        assert errors == 1
        assert_flushed_pair(flushed)
        assert_flushed_pair(neighbour)

    def test_over_long_lines_in_a_row_each_get_one_error(self):
        lines = [junk_line(STREAM_LIMIT + 1), junk_line(2 * STREAM_LIMIT)]
        events, flushed, _neighbour, errors = raw_exchange(lines)
        assert [event["type"] for event in events] == ["error", "error"]
        assert errors == 2
        assert_flushed_pair(flushed)

    def test_unterminated_run_at_end_of_stream(self):
        """A connection that ends inside an over-long line is counted
        and closed; a tenant on another connection keeps its answer."""
        snapshot = {"x": (0.0, 0.0), "y": (0.5, 0.0)}

        async def run():
            async with IngestionServer() as server:
                _reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port, limit=STREAM_LIMIT
                )
                writer.write(b"x" * (2 * STREAM_LIMIT))
                await writer.drain()
                writer.write_eof()
                async with ServiceClient("127.0.0.1", server.port) as client:
                    await client.hello("b", dict(CFG))
                    await client.feed("b", [(0, snapshot), (1, snapshot)])
                    answer = await client.flush("b")
                for _ in range(1000):
                    if server.counters["protocol_errors"]:
                        break
                    await asyncio.sleep(0.01)
                writer.close()
                return answer, server.counters["protocol_errors"]

        answer, errors = asyncio.run(run())
        assert_flushed_pair(answer)
        assert errors == 1
