import numpy as np
import pytest

from hybridbec import csvio
from hybridbec.csvio import format_column, format_value, write_csv

SPECIALS = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e16, 0.1]


def reference_text(header_lines, columns):
    # the cell-by-cell formatting that write_csv's column path replaces
    names = list(columns)
    rows = [f"# {line}" for line in header_lines] + [",".join(names)]
    length = len(columns[names[0]])
    for i in range(length):
        rows.append(",".join(format_value(columns[k][i]) for k in names))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("columns", [
    {"x": np.array(SPECIALS), "y": np.array(SPECIALS[::-1])},
    {"x": np.array(SPECIALS, dtype=np.float32), "y": np.arange(7, dtype=np.float32) / 3},
    {"i": np.arange(-3, 4), "u": np.arange(7, dtype=np.uint8), "b": [True, False] * 3 + [True]},
    {"f": [np.float64(v) for v in SPECIALS], "g": [float(v) for v in SPECIALS],
     "k": list(range(7))},
    {"species": ["atom", "molecule", "atom"], "e": [1.5, np.float64(2.1), 3],
     "mixed": ["x", 0.25, np.float32(0.1)]},
    {"empty": np.array([]), "also": []},
], ids=["float64", "float32", "int-bool", "scalars", "mixed", "empty"])
def test_column_path_matches_format_value_per_cell(tmp_path, columns):
    header = ["tool: test", "config: abc"]
    path = write_csv(tmp_path / "out.csv", header, columns)
    assert path.read_text() == reference_text(header, columns)


def test_specials_are_round_trip_reprs(tmp_path):
    path = write_csv(tmp_path / "s.csv", [], {"x": np.array(SPECIALS)})
    assert path.read_text().splitlines()[1:] == [
        "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "0.1"]


def test_booleans_write_as_integers(tmp_path):
    # a boolean column reads the same whether built as a list or an array
    flags = [True, False, True]
    columns = {"list": flags, "array": np.array(flags),
               "scalars": [np.bool_(v) for v in flags]}
    path = write_csv(tmp_path / "b.csv", [], columns)
    assert path.read_text().splitlines()[1:] == ["1,1,1", "0,0,0", "1,1,1"]
    assert format_value(np.bool_(False)) == format_value(False) == "0"


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
    assert format_column(shared) == shared


def test_string_columns_pass_through_without_per_cell_formatting(tmp_path, monkeypatch):
    # a preformatted column is written as it is; a column with any
    # non-string cell is still formatted cell by cell
    x = np.array(SPECIALS)
    shared, names = format_column(x), ["atom", "molecule"] * 3 + ["atom"]
    expected = write_csv(tmp_path / "raw.csv", [], {"x": x, "s": names}).read_bytes()
    calls = []

    def counting(value):
        calls.append(value)
        return format_value(value)

    monkeypatch.setattr(csvio, "format_value", counting)
    assert format_column(names) is names
    path = write_csv(tmp_path / "pre.csv", [], {"x": shared, "s": names})
    assert path.read_bytes() == expected and calls == []
    assert format_column(["x", 0.25]) == ["x", "0.25"] and calls == ["x", 0.25]


def test_unequal_columns_raise(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [], {"a": np.zeros(3), "b": np.zeros(4)})
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", [], {"a": [1, 2], "b": np.zeros(3)})
    assert not (tmp_path / "bad.csv").exists()
