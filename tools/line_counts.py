"""Print the size of each ``src/hybridbec`` module: its total lines, as
``wc -l`` counts them, and its lines of code, those left when docstrings,
comments and blank lines are taken out, then both totals.

    python tools/line_counts.py
    python tools/line_counts.py path/to/module.py ...

A line of code holds a token that is neither a comment nor a string
statement standing alone (a docstring); a string or bracket that spans
several lines counts every line it spans.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(total lines, lines of code) of the Python source `text`."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstrings)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", type=Path)
    args = parser.parse_args(argv)
    total = code = 0
    for path in args.modules or sorted((ROOT / "src" / "hybridbec").glob("*.py")):
        lines, loc = counts(path.read_text())
        total, code = total + lines, code + loc
        print(f"{lines:6d} {loc:6d} {path.name}")
    print(f"{total:6d} {code:6d} total")


if __name__ == "__main__":
    main()
