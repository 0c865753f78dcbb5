"""Tests for CSV import/export."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io.csv_io import load_trajectories_csv, save_trajectories_csv
from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.trajectory import Trajectory


def db_of(*specs):
    return TrajectoryDatabase(Trajectory(oid, pts) for oid, pts in specs)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        db = db_of(
            ("a", [(0.5, -1.25, 0), (1.5, 2.0, 3)]),
            ("b", [(9.0, 9.0, 1)]),
        )
        path = tmp_path / "trajectories.csv"
        save_trajectories_csv(db, path)
        loaded = load_trajectories_csv(path)
        assert set(loaded.object_ids) == {"a", "b"}
        assert list(loaded["a"]) == list(db["a"])
        assert list(loaded["b"]) == list(db["b"])

    def test_save_without_header(self, tmp_path):
        db = db_of(("a", [(1, 2, 3)]))
        path = tmp_path / "plain.csv"
        save_trajectories_csv(db, path, header=False)
        content = path.read_text().strip()
        assert content == "a,3,1.0,2.0"

    def test_load_headerless_auto(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,0,1.0,2.0\na,1,2.0,3.0\n")
        loaded = load_trajectories_csv(path)
        assert len(loaded["a"]) == 2

    def test_load_with_header_auto(self, tmp_path):
        path = tmp_path / "with_header.csv"
        path.write_text("object_id,t,x,y\na,0,1.0,2.0\n")
        loaded = load_trajectories_csv(path)
        assert len(loaded["a"]) == 1

    def test_explicit_header_flag(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("object_id,t,x,y\na,0,1.0,2.0\n")
        loaded = load_trajectories_csv(path, has_header=True)
        assert len(loaded["a"]) == 1


class TestErrors:
    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,0,1.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_trajectories_csv(path, has_header=False)

    def test_unparsable_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,0,one,2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_trajectories_csv(path, has_header=False)

    def test_duplicate_sample_time(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,0,1.0,2.0\na,0,3.0,4.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_trajectories_csv(path, has_header=False)

    def test_duplicate_error_names_both_lines(self, tmp_path):
        """Load-time duplicates must point at both offending file lines —
        the deferred Trajectory.__init__ error carried no line at all."""
        path = tmp_path / "dup.csv"
        path.write_text("a,0,1.0,2.0\nb,0,9.0,9.0\na,0,3.0,4.0\n")
        with pytest.raises(ValueError, match=r"line 3.*'a'.*t=0.*line 1"):
            load_trajectories_csv(path, has_header=False)

    def test_duplicate_under_header_counts_file_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("object_id,t,x,y\na,7,1.0,2.0\na,7,3.0,4.0\n")
        with pytest.raises(ValueError, match=r"line 3.*t=7.*line 2"):
            load_trajectories_csv(path)

    def test_duplicate_split_across_blank_row(self, tmp_path):
        """A duplicate separated by a blank row used to slip through the
        blank-line skip and only explode later inside Trajectory."""
        path = tmp_path / "dup_blank.csv"
        path.write_text("a,0,1.0,2.0\n\na,0,3.0,4.0\n")
        with pytest.raises(ValueError, match=r"line 3.*duplicate.*line 1"):
            load_trajectories_csv(path, has_header=False)

    @pytest.mark.parametrize("body, match", [
        (b"a,0,nan,0.0\n", r"^line 2: non-finite coordinates \(nan, 0.0\)$"),
        (b"a,0,0.0,-inf\n", r"^line 2: non-finite coordinates \(0.0, -inf\)$"),
        (b"a,0,0.0,0.0\nb,0,1.0,caf\xe9\n",
         r"^line 3: 'utf-8' codec can't decode byte 0xe9 in position 11"),
        (b"a,0,0.0,0.0\n\xff,1,0.0,0.0\n",
         r"^line 3: 'utf-8' codec can't decode byte 0xff in position 0"),
        # Past the text reader's first buffer, whose own error position
        # says nothing about the line.
        (b"".join(b"a,%d,0.0,0.0\n" % t for t in range(3000))
         + b"b,0,\xe9,0.0\n",
         r"^line 3002: 'utf-8' codec can't decode byte 0xe9 in position 4"),
    ], ids=["nan", "minus-inf", "non-utf8", "non-utf8-id", "non-utf8-late"])
    def test_error_names_the_file_line(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"object_id,t,x,y\n" + body)
        with pytest.raises(ValueError, match=match):
            load_trajectories_csv(path)

    def test_same_time_different_objects_is_legal(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("a,0,1.0,2.0\nb,0,3.0,4.0\n")
        loaded = load_trajectories_csv(path, has_header=False)
        assert len(loaded["a"]) == 1 and len(loaded["b"]) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        loaded = load_trajectories_csv(path)
        assert len(loaded) == 0

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("a,0,1.0,2.0\n\na,1,2.0,3.0\n")
        loaded = load_trajectories_csv(path)
        assert len(loaded["a"]) == 2


class TestRowOrdering:
    def test_unsorted_rows_accepted(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("a,5,5.0,0.0\na,1,1.0,0.0\na,3,3.0,0.0\n")
        loaded = load_trajectories_csv(path)
        assert [p.t for p in loaded["a"]] == [1, 3, 5]

    def test_interleaved_objects(self, tmp_path):
        path = tmp_path / "interleaved.csv"
        path.write_text("a,0,0,0\nb,0,1,1\na,1,2,2\nb,1,3,3\n")
        loaded = load_trajectories_csv(path)
        assert len(loaded["a"]) == 2 and len(loaded["b"]) == 2


class TestFirstBadRowDecides:
    """The first bad row in the file decides the error, whatever kind of
    fault a later row holds; within one row the columns are checked in
    the order x, y, t."""

    @pytest.mark.parametrize("body, message", [
        ("a,0,1.0,2.0\na,0,3.0,4.0\na,1,2.0\n",
         "line 2: duplicate sample for object 'a' at t=0 "
         "(first given on line 1)"),
        ("a,0,1.0\nb,0,1.0,2.0\nb,0,3.0,4.0\n",
         "line 1: expected 4 columns, got 3"),
        ("a,zz,bad,2.0\n", "line 1: could not convert string to float: 'bad'"),
        ("a,0,1.0,2.0\na,0,3.0,4.0\na,1,nan,0\n",
         "line 2: duplicate sample for object 'a' at t=0 "
         "(first given on line 1)"),
        ("a,0,1.0,2.0\na,1,inf,4.0\na,0,1,0\n",
         "line 2: non-finite coordinates (inf, 4.0)"),
        ("\na,0,1.0,2.0\n", "line 1: expected 4 columns, got 0"),
    ], ids=["duplicate-before-short-row", "short-row-before-duplicate",
            "bad-x-before-bad-t", "duplicate-before-nan",
            "inf-before-duplicate", "blank-first-data-row"])
    def test_message(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ValueError) as caught:
            load_trajectories_csv(path, has_header=False)
        assert str(caught.value) == message

    def test_duplicate_before_a_late_undecodable_byte(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(
            b"a,0,1.0,2.0\na,0,3.0,4.0\n"
            + b"".join(b"b,%d,0.0,0.0\n" % t for t in range(3000))
            + b"c,0,\xe9,0.0\n"
        )
        with pytest.raises(ValueError) as caught:
            load_trajectories_csv(path, has_header=False)
        assert str(caught.value) == (
            "line 2: duplicate sample for object 'a' at t=0 "
            "(first given on line 1)"
        )

    def test_blank_first_row_under_auto_is_a_header(self, tmp_path):
        path = tmp_path / "blank_first.csv"
        path.write_text("\na,0,1.0,2.0\n")
        assert load_trajectories_csv(path).object_ids == ["a"]


def bits(trajectory):
    """``coordinates()`` with every float spelled exactly (``-0.0`` too)."""
    times, xs, ys = trajectory.coordinates()
    return (list(times), [x.hex() for x in xs], [y.hex() for y in ys])


@st.composite
def shuffled_samples(draw):
    """``(rows, expected)``: data rows of distinct ``(object, t)`` samples
    in a drawn order, and the ``{object: (times, xs, ys)}`` a loader must
    build from them, in order of first appearance."""
    ids = draw(st.lists(
        st.one_of(
            st.text(alphabet="abcxyz ,\"'", min_size=1, max_size=4),
            st.integers(-20, 20).map(str),
            st.sampled_from(["007", "1e3", "-0", "nan"]),
        ),
        min_size=1, max_size=5, unique=True,
    ))
    ticks = st.one_of(
        st.integers(-50, 50),
        st.integers(-(2**63), 2**63),
        st.integers(2**53, 2**53 + 8),
    )
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    samples = []
    for object_id in ids:
        times = draw(st.lists(ticks, min_size=1, max_size=6, unique=True))
        samples += [
            (object_id, t, draw(coordinate), draw(coordinate)) for t in times
        ]
    rows = draw(st.permutations(samples))
    expected = {}
    for object_id, t, x, y in rows:
        expected.setdefault(object_id, []).append((t, x, y))
    return rows, {
        object_id: tuple(map(list, zip(*sorted(group))))
        for object_id, group in expected.items()
    }


class TestRoundTripIsBitForBit:
    @settings(max_examples=60, deadline=None)
    @given(shuffled_samples(), st.lists(st.booleans(), max_size=40))
    def test_load_then_save_then_load(self, tmp_path_factory, drawn, blanks):
        rows, expected = drawn
        path = tmp_path_factory.mktemp("csv") / "drawn.csv"
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["object_id", "t", "x", "y"])
            for index, row in enumerate(rows):
                if index < len(blanks) and blanks[index]:
                    handle.write("\r\n")
                writer.writerow(row)
        loaded = load_trajectories_csv(path)
        assert loaded.object_ids == list(expected)
        for object_id, (times, xs, ys) in expected.items():
            assert bits(loaded[object_id]) == (
                times, [x.hex() for x in xs], [y.hex() for y in ys]
            )
        saved = path.with_name("saved.csv")
        save_trajectories_csv(loaded, saved)
        again = load_trajectories_csv(saved)
        assert again.object_ids == sorted(expected)
        for trajectory in again:
            assert isinstance(trajectory.object_id, str)
            assert bits(trajectory) == bits(loaded[trajectory.object_id])


class TestSaverBytes:
    def test_exact_bytes(self, tmp_path):
        db = db_of(
            ("b", [(0.1, -0.0, 3), (1e20, 2.5e-300, -7)]),
            (10, [(1, 2, 0)]),
            ("a,x", [(-1.5, 3.25, 2**60)]),
            ("007", [(0.30000000000000004, 1 / 3, 5), (2.0, -2.0, 4)]),
        )
        path = tmp_path / "saved.csv"
        save_trajectories_csv(db, path)
        assert path.read_bytes() == (
            b"object_id,t,x,y\r\n"
            b"007,4,2.0,-2.0\r\n"
            b"007,5,0.30000000000000004,0.3333333333333333\r\n"
            b"10,0,1.0,2.0\r\n"
            b'"a,x",1152921504606846976,-1.5,3.25\r\n'
            b"b,-7,1e+20,2.5e-300\r\n"
            b"b,3,0.1,-0.0\r\n"
        )
