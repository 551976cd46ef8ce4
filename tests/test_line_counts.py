"""tools/line_counts.py, the module sizes that simplicity claims are
counted with, run in process."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "line_counts.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("line_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_totals_are_wc_l_and_at_most_that_many_code_lines(tool, capsys):
    tool.main([])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    modules = sorted((ROOT / "src" / "hybridbec").glob("*.py"))
    assert [row[2] for row in rows] == [p.name for p in modules] + ["total"]
    wc = [p.read_bytes().count(b"\n") for p in modules]
    assert [int(row[0]) for row in rows] == wc + [sum(wc)]
    code = [int(row[1]) for row in rows]
    assert code[-1] == sum(code[:-1]) and 0 < code[-1] < sum(wc)


def test_docstrings_comments_and_blanks_are_not_code(tool):
    text = '''"""Module docstring,
on two lines."""
# a comment


def f():
    """Its docstring."""
    # another comment
    return g(1,
             2)  # a call on two lines


"""A string standing alone."""
'''
    assert tool.counts(text) == (13, 3)
    assert tool.counts('"""Docstring."""\n\n# only comments\n    # and blanks\n') == (4, 0)
