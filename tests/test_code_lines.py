"""tools/code_lines.py, the code-line count, on a small synthetic module."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# each line that counts ends in "# code"; the marker is a comment, which
# the tokenizer reads as no token of the line it ends
SOURCE = '''"""Module docstring,
over two lines."""

import os  # code


class Box:  # code
    """Class docstring."""

    size = 3  # code

    def method(self):  # code
        """Method docstring,
        over two lines."""
        # a comment alone
        return (self.size +  # code
                1)  # code


def plain():  # code
    text = """a string  # code
that is no docstring  # code
"""  # code

    return [text,  # code
            os.sep,  # code
            ]  # code
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    lines = SOURCE.splitlines()
    marked = [n for n, line in enumerate(lines, 1) if line.endswith("# code")]
    assert len(marked) == 13
    assert code_lines.docstring_lines(ast.parse(SOURCE)) == {1, 2, 8, 13, 14}
    assert code_lines.count(path) == (len(marked), len(lines))
