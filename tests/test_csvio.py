import numpy as np
import pytest

from hybridbec.csvio import format_column, write_csv

SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]


def format_value(x) -> str:
    # the cell-by-cell formatting write_csv once applied to every cell,
    # the reference for its two column kinds: repr of the Python float,
    # numpy scalars unwrapped, booleans as 0/1; a string is its own str()
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer, np.bool_)):
        return str(int(x))
    return str(x)


def reference_text(header_lines, columns):
    names = list(columns)
    rows = [f"# {line}" for line in header_lines] + [",".join(names)]
    length = len(columns[names[0]])
    for i in range(length):
        rows.append(",".join(format_value(columns[k][i]) for k in names))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("columns", [
    {"x": np.array(SPECIALS), "y": np.array(SPECIALS[::-1])},
    {"x": np.array(SPECIALS, dtype=np.float32), "y": np.arange(7, dtype=np.float32) / 3},
    {"empty": np.array([]), "also": []},
], ids=["float64", "float32", "empty"])
def test_column_path_matches_format_value_per_cell(tmp_path, columns):
    header = ["tool: test", "config: abc"]
    path = write_csv(tmp_path / "out.csv", header, columns)
    assert path.read_text() == reference_text(header, columns)


def test_specials_are_round_trip_reprs(tmp_path):
    path = write_csv(tmp_path / "s.csv", [], {"x": np.array(SPECIALS)})
    assert path.read_text().splitlines()[1:] == [
        "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.1"]


def test_integer_and_boolean_arrays_raise(tmp_path):
    # their cells would read 1/0 or 3, not the 1.0 and 3.0 of a float array
    for column in (np.arange(3), np.array([True, False, True])):
        with pytest.raises(TypeError, match=str(column.dtype)):
            write_csv(tmp_path / "bad.csv", [], {"x": np.zeros(3), "c": column})
    assert not (tmp_path / "bad.csv").exists()


def test_preformatted_column_writes_the_bytes_of_its_array(tmp_path):
    # a column formatted once and shared by several files must write what
    # its float64 array writes, specials and neighbouring columns included
    x = np.array(SPECIALS + [2.0 / 3.0, -1e-300])
    y = np.arange(len(x), dtype=float) / 7
    shared = format_column(x)
    assert all(type(cell) is str for cell in shared)
    for i, columns in enumerate(({"x": x, "y": y}, {"y": y, "x": x}, {"x": x})):
        raw = write_csv(tmp_path / f"raw{i}.csv", ["h: 1"], columns)
        pre = write_csv(tmp_path / f"pre{i}.csv", ["h: 1"],
                        {k: shared if k == "x" else v for k, v in columns.items()})
        assert pre.read_bytes() == raw.read_bytes()
        assert raw.read_text() == reference_text(["h: 1"], columns)
    assert format_column(shared) == shared


def test_string_columns_pass_through_without_per_cell_formatting(tmp_path):
    # a list of strings is written as it is, beside a float array
    x = np.array(SPECIALS)
    names = ["atom", "molecule"] * 3 + ["atom"]
    assert format_column(names) is names
    path = write_csv(tmp_path / "s.csv", [], {"x": x, "s": names})
    assert path.read_text() == reference_text([], {"x": x, "s": names})


def test_unequal_columns_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [], {"a": np.zeros(3), "b": np.zeros(4)})
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [], {"a": [1, 2], "b": np.zeros(3)})
    assert not (tmp_path / "bad.csv").exists()
