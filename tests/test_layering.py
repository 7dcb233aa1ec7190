"""gbengine works on polynomials, leading data and monoid representations;
the images behind the leading data belong to bipoly.  This pins the
boundary: gbengine imports no private name from bipoly, touches no
context memo, which bipoly and valmonoid own, and forms, holds, hands on
or publishes no image.

Numbers from outside pass one gate, exactnum: it alone defines the
no-float, no-bool reader _exact and the capped int reader _int, and alone
names the digit cap, so no other module reads a number by its own rule.

No floating point anywhere: the decimal module, whose Decimals are
floating point, is named only inside bipoly._product, which multiplies
large packed ints with it exactly (the proof is in its docstring)."""

import ast
import inspect
from pathlib import Path

from valmon import gbengine

SRC = Path(__file__).resolve().parent.parent / "src/valmon"
GBENGINE = SRC / "gbengine.py"


def _names(tree):
    """Every name a module defines, reads, imports or reads an attribute
    by."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def _from_series(tree):
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "series" and node.level == 1
            for alias in node.names}


def test_exactnum_is_the_one_gate_for_numbers():
    trees = {path.name: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    assert len(trees) > 5
    defining = {name for name, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name in ("_exact", "_int")}
    assert defining == {"exactnum.py"}
    assert {name for name, tree in trees.items()
            if "_DIGITS_CAP" in _names(tree)} == {"exactnum.py"}
    assert _from_series(trees["valmonoid.py"]) == set()
    assert not _from_series(trees["bipoly.py"]) & {"truncate", "_exact"}
    assert "_json_int" not in _names(trees["cli.py"])


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


DECIMAL_NAMES = {"decimal", "_decimal", "_pydecimal", "Decimal"}


def _decimal_names(tree):
    """The names of the decimal module, or of its Decimal type, that a
    tree defines, reads, imports or reads an attribute by, import
    statements included."""
    names = _names(tree) & DECIMAL_NAMES
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names} & DECIMAL_NAMES
        elif isinstance(node, ast.ImportFrom):
            names |= {node.module} & DECIMAL_NAMES
    return names


def test_decimal_is_named_only_inside_the_packed_product():
    trees = {path.name: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    assert {name for name, tree in trees.items()
            if _decimal_names(tree)} == {"bipoly.py"}
    bipoly = trees["bipoly.py"]
    product = [node for node in bipoly.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "_product"]
    assert len(product) == 1 and _decimal_names(product[0])
    bipoly.body.remove(product[0])
    assert _decimal_names(bipoly) == set()
