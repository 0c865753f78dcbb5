"""Plain-text tables in the shape of the paper's tables and figure series.

The benches print their results through these helpers so every experiment
produces a readable paper-vs-measured record (the README's "Benches →
paper figures" section lists the benches).
"""

from __future__ import annotations


def _format_cell(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(title, headers, rows):
    """Render an aligned text table.

    Args:
        title: table caption printed above the grid.
        headers: list of column names.
        rows: list of row value lists (mixed str/int/float).

    Returns:
        The formatted multi-line string.
    """
    text_rows = [[_format_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title, x_name, x_values, series):
    """Render an x-vs-many-series table (one paper figure panel).

    Args:
        title: figure caption.
        x_name: name of the swept parameter (the figure's x axis).
        x_values: the sweep values.
        series: ``{series_name: [y, ...]}`` with lists parallel to
            ``x_values``.

    Returns:
        The formatted multi-line string.
    """
    headers = [x_name] + list(series.keys())
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [values[i] for values in series.values()])
    return format_table(title, headers, rows)
