"""CSV import/export in the ``object_id,t,x,y`` convention.

The paper's Truck data came from rtreeportal.org, which distributes
trajectories as flat delimited text with one sample per row.  This module
reads and writes that shape so users can run convoy queries on their own
GPS logs (see ``examples/``).
"""

from __future__ import annotations

import csv
from itertools import chain, repeat
from math import isfinite
from pathlib import Path

from repro.trajectory.database import TrajectoryDatabase
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
            writer.writerows(
                zip(repeat(trajectory.object_id), *trajectory.coordinates())
            )


def load_trajectories_csv(path, has_header="auto"):
    """Load a database from ``object_id,t,x,y`` rows.

    The file is read once, straight into per-object ``times``, ``xs`` and
    ``ys`` columns; each :class:`~repro.trajectory.Trajectory` is built
    from its columns (sorted only when its rows arrive out of time
    order), and objects keep the order they first appear in.

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
            The first bad row in the file decides the error; within a
            row, ``x``, ``y`` and ``t`` are parsed in that order.
    """
    path = Path(path)
    columns = {}  # object_id -> ([t], [x], [y]), in file order
    header = False
    try:
        with path.open(newline="") as handle:
            rows = csv.reader(handle)
            first = next(rows, None)
            if first is None:
                return TrajectoryDatabase()
            if has_header == "auto":
                try:
                    int(first[1])
                except (ValueError, IndexError):
                    header = True
            else:
                header = bool(has_header)
            if not header:
                rows = chain((first,), rows)
            for line, row in enumerate(rows, start=2 if header else 1):
                if len(row) != 4:
                    if not row and line > 1:
                        continue
                    _fail(path, columns, header,
                          f"line {line}: expected 4 columns, got {len(row)}")
                object_id, t, x, y = row
                try:
                    x = float(x)
                    y = float(y)
                    t = int(t)
                except ValueError as exc:
                    _fail(path, columns, header, f"line {line}: {exc}")
                if not (isfinite(x) and isfinite(y)):
                    _fail(path, columns, header,
                          f"line {line}: non-finite coordinates ({x}, {y})")
                column = columns.get(object_id)
                if column is None:
                    column = columns[object_id] = ([], [], [])
                column[0].append(t)
                column[1].append(x)
                column[2].append(y)
    except UnicodeDecodeError as exc:
        _fail(path, columns, header, _undecodable_line(path, exc))
    try:
        return TrajectoryDatabase([
            Trajectory.from_columns(object_id, *column)
            for object_id, column in columns.items()
        ])
    except ValueError:
        # Every row passed its checks, so the one rule a column can still
        # break is a duplicate (object, t) sample, found by sort order.
        message = _first_duplicate(path, header)
        if message is None:
            raise
        raise ValueError(message) from None


def _fail(path, columns, header, message):
    """Raise ``message`` for a bad row, unless a duplicate sample among the
    rows read before it is the file's first bad row."""
    if any(len(set(times)) < len(times) for times, _, _ in columns.values()):
        message = _first_duplicate(path, header) or message
    raise ValueError(message) from None


def _first_duplicate(path, header):
    """``"line N: duplicate sample ..."`` for the first row of ``path`` that
    repeats an earlier ``(object, t)``, naming both lines, or None.

    Only a file with a duplicate pays for this second read; it stops at
    that row, before any row the first read had not yet checked.
    """
    seen = {}
    with path.open(newline="") as handle:
        rows = enumerate(csv.reader(handle), start=1)
        if header:
            next(rows)
        for line, row in rows:
            if not row:
                continue
            object_id, t = row[0], int(row[1])
            first = seen.setdefault((object_id, t), line)
            if first != line:
                return (
                    f"line {line}: duplicate sample for object {object_id!r} "
                    f"at t={t} (first given on line {first})"
                )
    return None


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
