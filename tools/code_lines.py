"""Count the code lines of a Python tree.

A code line holds at least one token that is not a comment, a blank or
an indentation, and lies outside every docstring (the leading string
statement of a module, class or function, found with ast).  Prints one
row per module, code lines then all lines, and the totals:

    python tools/code_lines.py [ROOT]    # ROOT defaults to src/valmon
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that docstrings of the parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(code lines, all lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                code.update(line for line in range(tok.start[0],
                                                   tok.end[0] + 1)
                            if line not in skip)
    return len(code), len(text.splitlines())


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/valmon")
    totals = [0, 0]
    for path in sorted(root.rglob("*.py")):
        code, lines = count(path)
        totals[0] += code
        totals[1] += lines
        print(f"{code:6} {lines:6}  {path.relative_to(root)}")
    print(f"{totals[0]:6} {totals[1]:6}  total")


if __name__ == "__main__":
    main(sys.argv)
