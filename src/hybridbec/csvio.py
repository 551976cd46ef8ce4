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
    """A column's cells: a float array gives the repr of each entry, the
    shortest round-trip form; a list of strings is returned as it is, so
    a column shared by several files is formatted once.  Any other array
    raises TypeError: an int or bool array would write other text."""
    if not isinstance(values, np.ndarray):
        return values
    if values.dtype.kind != "f":
        raise TypeError(f"csv columns are float arrays or strings, not {values.dtype}")
    return [repr(x) for x in values.tolist()]


def write_csv(path, header_lines, columns: dict) -> Path:
    """Write named columns of equal length, each a float array or a list
    of strings (`format_column`); returns the path."""
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
