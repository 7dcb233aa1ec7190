"""gbengine works on polynomials, leading data and monoid representations;
the images behind the leading data belong to bipoly.  This pins the
boundary: gbengine imports no private name from bipoly, touches no
context memo, which bipoly and valmonoid own, and forms, holds, hands on
or publishes no image."""

import ast
import inspect
from pathlib import Path

from valmon import gbengine

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


def test_gbengine_hands_s_polynomials_to_the_remainder():
    # reduce hands an S-polynomial's representations to bipoly.Remainder,
    # which forms its image and publishes its remainder's: gbengine forms,
    # passes and publishes no image
    tree = ast.parse(GBENGINE.read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"syzygy_image", "Image"}
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "seed"] == []
    params = inspect.signature(gbengine.reduce).parameters
    assert "_image" not in params and "_syzygy" in params


def test_gbengine_holds_no_images():
    # the basis images that reduction steps read are the context's, kept
    # in its memo by bipoly: no gbengine name, argument or attribute
    # holds them, and reduce takes only _syzygy as a private argument
    tree = ast.parse(GBENGINE.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert {"basis", "ctx", "_syzygy"} <= names
    assert not {name for name in names if name and "images" in name}
    params = inspect.signature(gbengine.reduce).parameters
    assert [name for name in params if name.startswith("_")] == ["_syzygy"]
