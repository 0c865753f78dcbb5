"""Tests for CSV import/export."""

import pytest

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
