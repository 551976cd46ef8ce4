"""Plot-ready CSV artifacts with provenance headers.

Every file starts with '#'-prefixed lines carrying the tool version, the
config hash, the unit convention, and any method flags, followed by a
column-name line and plain comma-separated rows.  Nothing time- or
host-dependent is written, so a rerun with the same configuration is
byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import __version__

UNITS_NOTE = "natural units: hbar = M = omega_a = 1"


def format_value(x) -> str:
    # repr of Python floats is the shortest round-trip form; numpy
    # scalars are unwrapped so rows stay plain numbers, and booleans of
    # either kind write as 0/1; a string is its own str()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer, np.bool_)):
        return str(int(x))
    return str(x)


def provenance(config_hash: str, **flags) -> list[str]:
    """Standard header block; extra flags become one line each."""
    lines = [
        f"tool: hybridbec {__version__}",
        f"config: {config_hash}",
        UNITS_NOTE,
    ]
    for key in sorted(flags):
        lines.append(f"{key}: {flags[key]}")
    return lines


def format_column(values) -> list[str]:
    """format_value of every entry, in one pass: a float ndarray goes
    through tolist(), which yields the Python floats format_value would
    unwrap, so the type dispatch is paid once per column, not per cell.

    The result, passed to write_csv as a column, writes the same bytes as
    the values it was formatted from, so a column shared by several files
    is formatted once: a column of strings, which format_value would
    return unchanged, is returned as it is."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return [repr(x) for x in values.tolist()]
    if all(map(str.__instancecheck__, values)):  # isinstance(x, str), per cell
        return values
    return [format_value(x) for x in values]


def write_csv(path, header_lines, columns: dict) -> Path:
    """Write named columns of equal length; returns the path."""
    path = Path(path)
    names = list(columns)
    series = [columns[k] for k in names]
    length = len(series[0])
    if any(len(s) != length for s in series):
        raise ValueError("csv columns must have equal length")
    out = [f"# {line}" for line in header_lines]
    out.append(",".join(names))
    out.extend(map(",".join, zip(*map(format_column, series))))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(out) + "\n")
    return path
