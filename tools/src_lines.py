"""Print the line counts of the modules under ``src/visim``.

    python3 tools/src_lines.py

prints, for each module and for the total, its lines as ``wc -l`` counts
them, split into code, docstring, comment and blank lines.  A docstring is
the first string statement of a module, class or function, all its lines
included; a comment line holds only a comment; a blank line holds only
white space; every other line is code.  The four parts add up to the
lines.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "visim"
PARTS = ("code", "docstring", "comment", "blank")


def line_counts(text: str) -> dict[str, int]:
    """The lines of a module's ``text`` as ``wc -l`` counts them (those
    ending in a newline), and their split into ``PARTS``."""
    lines = text.split("\n")[:text.count("\n")]
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    counts = dict.fromkeys(PARTS, 0)
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["lines"] = len(lines)
    return counts


def main() -> int:
    total = dict.fromkeys(("lines", *PARTS), 0)
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{p:>11}" for p in PARTS))
    for path in sorted(SRC.glob("*.py")):
        counts = line_counts(path.read_text())
        for key in total:
            total[key] += counts[key]
        print(f"{path.name:<16}{counts['lines']:>7}"
              + "".join(f"{counts[p]:>11}" for p in PARTS))
    print(f"{'total':<16}{total['lines']:>7}"
          + "".join(f"{total[p]:>11}" for p in PARTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
