"""CSV import/export in the ``object_id,t,x,y`` convention.

The paper's Truck data came from rtreeportal.org, which distributes
trajectories as flat delimited text with one sample per row.  This module
reads and writes that shape so users can run convoy queries on their own
GPS logs (see ``examples/``).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from repro.trajectory.database import TrajectoryDatabase
from repro.trajectory.point import TrajectoryPoint
from repro.trajectory.trajectory import Trajectory


def save_trajectories_csv(database, path, header=True):
    """Write a database as ``object_id,t,x,y`` rows, sorted by object then time.

    Args:
        database: the :class:`~repro.trajectory.TrajectoryDatabase` to dump.
        path: destination file path.
        header: write a ``object_id,t,x,y`` header row (default True).
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(["object_id", "t", "x", "y"])
        for trajectory in sorted(database, key=lambda tr: str(tr.object_id)):
            for point in trajectory:
                writer.writerow([trajectory.object_id, point.t, point.x, point.y])


def load_trajectories_csv(path, has_header="auto"):
    """Load a database from ``object_id,t,x,y`` rows.

    Args:
        path: source file path.
        has_header: True/False, or ``"auto"`` to detect a header by trying
            to parse the first row's ``t`` column as an integer.

    Returns:
        A :class:`~repro.trajectory.TrajectoryDatabase`.

    Raises:
        ValueError: on malformed rows (wrong column count, unparsable or
            non-finite numbers, duplicate samples) and on bytes that do
            not decode, each naming the file line — bad input data should
            fail loudly at load time, not corrupt query answers later.
    """
    path = Path(path)
    samples = {}
    seen = {}  # (object_id, t) -> line that first provided the sample
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            rows = iter(reader)
            first = next(rows, None)
            if first is None:
                return TrajectoryDatabase()
            consume_first = True
            if has_header == "auto":
                try:
                    int(first[1])
                except (ValueError, IndexError):
                    consume_first = False
            elif has_header:
                consume_first = False
            if consume_first:
                _ingest_row(samples, seen, first, line=1)
            for line, row in enumerate(rows, start=2):
                if row:
                    _ingest_row(samples, seen, row, line)
    except UnicodeDecodeError as exc:
        raise ValueError(_undecodable_line(path, exc)) from None
    trajectories = [
        Trajectory(object_id, points) for object_id, points in samples.items()
    ]
    return TrajectoryDatabase(trajectories)


def _ingest_row(samples, seen, row, line):
    if len(row) != 4:
        raise ValueError(f"line {line}: expected 4 columns, got {len(row)}")
    object_id, t_raw, x_raw, y_raw = row
    try:
        point = TrajectoryPoint(float(x_raw), float(y_raw), int(t_raw))
    except ValueError as exc:
        raise ValueError(f"line {line}: {exc}") from None
    if not (math.isfinite(point.x) and math.isfinite(point.y)):
        raise ValueError(
            f"line {line}: non-finite coordinates ({point.x}, {point.y})"
        )
    # Duplicate (object, t) samples must fail here, with both file lines —
    # left to Trajectory.__init__ the error would surface only after the
    # whole file was read, with no way to say which rows collided.
    key = (object_id, point.t)
    previous = seen.setdefault(key, line)
    if previous != line:
        raise ValueError(
            f"line {line}: duplicate sample for object {object_id!r} at "
            f"t={point.t} (first given on line {previous})"
        )
    samples.setdefault(object_id, []).append(point)


def _undecodable_line(path, error):
    """``"line N: <reason>"`` for the first line of ``path`` that does not
    decode; the text reader's own error only gives a position inside
    its read buffer, so the file is scanned again as bytes."""
    with path.open("rb") as handle:
        for line, raw in enumerate(handle, start=1):
            try:
                raw.decode(error.encoding)
            except UnicodeDecodeError as exc:
                return f"line {line}: {exc}"
    return str(error)
