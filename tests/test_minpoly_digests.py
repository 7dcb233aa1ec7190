"""The truncation minimal polynomials p_j pinned by digest.

The conjugate-product oracle (tests/test_bipoly.py) reaches only R <= 16,
and larger p_j are otherwise checked by degree and leading exponent
alone.  tests/minpoly_digests.json holds a SHA-256 digest of each p_j of
the dyadic (j <= 8, depth 9), triadic (j <= 5, depth 6) and harmonic
(j <= 5, depth 6) towers: its numerators sorted by exponent, then its
denominator, all in hexadecimal, so any change to any coefficient of any
p_j changes its digest.

Regenerate the file only from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_minpoly_digests.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from shared_inputs import harmonic_spec
from valmon.bipoly import truncation_min_poly
from valmon.series import GeometricTail, SimpleSeriesSpec, dyadic_spec
from valmon.valmonoid import MonoidContext

DIGESTS = Path(__file__).resolve().parent / "minpoly_digests.json"


def triadic_spec():
    """z = t^(1/3) + t^(1/9) + t^(1/27) + ..."""
    return SimpleSeriesSpec([(1, Fraction(1, 3))], GeometricTail(3))


# name: (spec, context depth, top j)
TOWERS = {"dyadic": (dyadic_spec, 9, 8),
          "triadic": (triadic_spec, 6, 5),
          "harmonic": (harmonic_spec, 6, 5)}


def poly_digest(p):
    """SHA-256 hex digest of a BivarPoly's numerators, sorted by exponent,
    and its denominator, written in hexadecimal (no digit cap applies)."""
    text = "".join(f"{a} {b} {v:x}\n" for (a, b), v in sorted(p._num.items()))
    return hashlib.sha256(f"{text}/{p._den:x}".encode()).hexdigest()


def tower_digests(name):
    """The digests of p_1 .. p_top of one tower, on one context."""
    make_spec, depth, top = TOWERS[name]
    ctx = MonoidContext(make_spec(), depth)
    return [poly_digest(truncation_min_poly(ctx, j))
            for j in range(1, top + 1)]


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_truncation_min_polys_are_pinned(name):
    pinned = json.loads(DIGESTS.read_text())[name]
    got = tower_digests(name)
    assert len(pinned) == TOWERS[name][2]
    changed = [j for j, (a, b) in enumerate(zip(got, pinned), 1) if a != b]
    assert not changed, f"p_j changed for j in {changed}"


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: tower_digests(name) for name in sorted(TOWERS)}, indent=1)
        + "\n")
