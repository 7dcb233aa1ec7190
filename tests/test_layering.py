"""gbengine works on polynomials, leading data and monoid representations;
the images behind the leading data belong to bipoly.  This pins the
boundary: gbengine imports no private name from bipoly, and touches no
context memo, which bipoly and valmonoid own."""

import ast
from pathlib import Path

GBENGINE = Path(__file__).resolve().parent.parent / "src/valmon/gbengine.py"


def test_gbengine_imports_no_private_bipoly_name():
    tree = ast.parse(GBENGINE.read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == "bipoly" and node.level == 1
                for alias in node.names]
    assert imported
    assert [name for name in imported if name.startswith("_")] == []


def test_gbengine_touches_no_context_memo():
    tree = ast.parse(GBENGINE.read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "cache"] == []
