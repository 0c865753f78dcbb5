"""Wire-contract suite for :mod:`repro.service.protocol`.

Round-trips every payload shape — messages, snapshots, convoys — and
pins the property the differential proof leans on: object ids cross the
wire with their Python types intact (``5`` and ``"5"`` stay distinct),
which is exactly why snapshots travel as triples and not JSON objects.
"""

import pytest

from repro.core.convoy import Convoy
from repro.service.protocol import (
    ProtocolError,
    decode,
    decode_convoy,
    decode_snapshot,
    encode,
    encode_convoy,
    encode_snapshot,
)
from repro.store.base import encode_object_id


class TestMessageFraming:
    def test_round_trip(self):
        message = {"type": "feed", "tenant": "a", "ticks": []}
        line = encode(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert decode(line) == message

    def test_deterministic_encoding(self):
        assert encode({"b": 1, "a": 2, "type": "x"}) == encode(
            {"a": 2, "type": "x", "b": 1}
        )

    def test_garbage_line_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode(b"{not json\n")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="objects with a 'type'"):
            decode(b"[1, 2, 3]\n")

    def test_missing_type_rejected(self):
        with pytest.raises(ProtocolError, match="objects with a 'type'"):
            decode(b'{"tenant": "a"}\n')


class TestSnapshots:
    def test_round_trip_preserves_id_types(self):
        snapshot = {5: (0.0, 1.0), "5": (2.0, 3.0), "a": (4.5, -1.25)}
        triples = encode_snapshot(snapshot)
        # Through actual JSON framing, as on the wire.
        decoded = decode_snapshot(
            decode(encode({"type": "feed", "ticks": triples}))["ticks"]
        )
        assert decoded == snapshot
        assert {type(k) for k in decoded} == {int, str}

    def test_wire_order_is_deterministic(self):
        a = encode_snapshot({"b": (1.0, 2.0), "a": (0.0, 0.0)})
        b = encode_snapshot({"a": (0.0, 0.0), "b": (1.0, 2.0)})
        assert a == b

    def test_bad_shapes_rejected(self):
        with pytest.raises(ProtocolError, match="must be a list"):
            decode_snapshot({"a": [0, 0]})
        with pytest.raises(ProtocolError, match=r"\[object_id, x, y\]"):
            decode_snapshot([["a", 0.0]])
        with pytest.raises(ProtocolError, match="str or int"):
            decode_snapshot([[None, 0.0, 0.0]])
        with pytest.raises(ProtocolError, match="numbers"):
            decode_snapshot([["a", "0", 0.0]])
        with pytest.raises(ProtocolError, match="numbers"):
            decode_snapshot([["a", True, 0.0]])

    @pytest.mark.parametrize(
        "bad_id", [True, False, 1.5, 2.0, None, [1], {"a": 1}]
    )
    def test_rejects_ids_the_store_cannot_encode(self, bad_id):
        """The id check runs without serialising the id, yet rejects
        exactly what encode_object_id rejects, with the same message."""
        with pytest.raises(TypeError) as expected:
            encode_object_id(bad_id)
        with pytest.raises(ProtocolError) as got:
            decode_snapshot([["ok", 0.0, 0.0], [bad_id, 1.0, 1.0]])
        assert str(got.value) == str(expected.value)

    def test_accepts_str_and_int_ids(self):
        assert decode_snapshot([["a", 1, 2.5], [7, -1.0, 0]]) == {
            "a": (1.0, 2.5), 7: (-1.0, 0.0),
        }

    def test_duplicate_id_rejected(self):
        with pytest.raises(ProtocolError, match="repeats"):
            decode_snapshot([["a", 0.0, 0.0], ["a", 1.0, 1.0]])


class TestConvoys:
    def test_round_trip(self):
        convoy = Convoy({1, "1", "b"}, 3, 9)
        assert decode_convoy(encode_convoy(convoy)) == convoy

    def test_members_canonically_sorted(self):
        one = encode_convoy(Convoy(["b", "a", 3], 0, 2))
        two = encode_convoy(Convoy([3, "a", "b"], 0, 2))
        assert one == two

    def test_bad_payload_rejected(self):
        with pytest.raises(ProtocolError, match="bad convoy"):
            decode_convoy({"objects": [], "t_start": 0, "t_end": 1})
        with pytest.raises(ProtocolError, match="bad convoy"):
            decode_convoy({"objects": ["a"], "t_start": 0})
