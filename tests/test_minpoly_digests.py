"""The truncation minimal polynomials p_j, pinned by digest and checked by
their roots modulo a prime.

The conjugate-product oracle (tests/test_bipoly.py) reaches only R <= 16,
and larger p_j are otherwise checked by degree and leading exponent
alone.  tests/minpoly_digests.json holds a SHA-256 digest of each p_j of
the dyadic (j <= 8, depth 9), triadic (j <= 5, depth 6) and harmonic
(j <= 5, depth 6) towers: its numerators sorted by exponent, then its
denominator, all in hexadecimal, so any change to any coefficient of any
p_j changes its digest.

The digests were written by the code they pin.  Dyadic p_8 is large
enough that its last squares take _product's decimal route.  The root
check shares no code with it: p_j is the norm of y - w, with w the
truncation z_k, k = l(j) - 1, and R = r_k, so p_j(u^R, w(u)) = 0 for every
u, and it holds modulo P = 2^127 - 1 at a seeded u, with denominators
inverted mod P.
Evaluation is a ring map, so it reads p_j's coefficients without the
packed or dict products that formed them.

Regenerate the file only from a commit whose outputs are trusted:

    PYTHONPATH=src python tests/test_minpoly_digests.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from shared_inputs import P, harmonic_spec, mod_p, residue, triadic_spec
from valmon.bipoly import BivarPoly, truncation_min_poly
from valmon.series import dyadic_spec
from valmon.valmonoid import MonoidContext

DIGESTS = Path(__file__).resolve().parent / "minpoly_digests.json"

# name: (spec, context depth, top j)
TOWERS = {"dyadic": (dyadic_spec, 9, 8),
          "triadic": (triadic_spec, 6, 5),
          "harmonic": (harmonic_spec, 6, 5)}


def build_tower(name):
    """(context, [p_1 .. p_top]) of one tower, on one context."""
    make_spec, depth, top = TOWERS[name]
    ctx = MonoidContext(make_spec(), depth)
    return ctx, [truncation_min_poly(ctx, j) for j in range(1, top + 1)]


@pytest.fixture(scope="module", params=sorted(TOWERS))
def tower(request):
    """(name, context, [p_1 .. p_top]), built once for both checks."""
    return (request.param, *build_tower(request.param))


def poly_digest(p):
    """SHA-256 hex digest of a BivarPoly's numerators, sorted by exponent,
    and its denominator, written in hexadecimal (no digit cap applies)."""
    text = "".join(f"{a} {b} {v:x}\n" for (a, b), v in sorted(p._num.items()))
    return hashlib.sha256(f"{text}/{p._den:x}".encode()).hexdigest()


def test_truncation_min_polys_are_pinned(tower):
    name, _, polys = tower
    pinned = json.loads(DIGESTS.read_text())[name]
    got = [poly_digest(p) for p in polys]
    assert len(pinned) == TOWERS[name][2]
    changed = [j for j, (a, b) in enumerate(zip(got, pinned), 1) if a != b]
    assert not changed, f"p_j changed for j in {changed}"


def test_dyadic_digests_pin_the_decimal_route(monkeypatch):
    # the p = 2 squares of dyadic p_8 are large enough for _product's
    # decimal route, so the digests and root checks guard it too
    decimal = pytest.importorskip("_decimal")
    made, context = [], decimal.Context

    def spy(*args, **kwargs):
        made.append(kwargs["prec"])
        return context(*args, **kwargs)

    monkeypatch.setattr(decimal, "Context", spy)
    polys = build_tower("dyadic")[1]
    assert made
    assert poly_digest(polys[-1]) == json.loads(
        DIGESTS.read_text())["dyadic"][-1]


def test_truncation_min_polys_vanish_at_their_root(tower):
    name, ctx, polys = tower
    seqs = ctx.seqs
    u = random.Random(97).randrange(2, P)
    for j, p in enumerate(polys, 1):
        k = seqs.l(j) - 1
        R = seqs.r(k)
        w = 0
        for i in range(1, k + 1):
            coeff, exp = ctx.spec.term(i)
            assert (exp * R).denominator == 1
            w += mod_p(coeff) * pow(u, (exp * R).numerator, P)
        x, y = pow(u, R, P), w % P
        assert residue(p, x, y) == 0, (name, j)
        assert residue(p + BivarPoly.one(), x, y) != 0, (name, j)


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(
        {name: [poly_digest(p) for p in build_tower(name)[1]]
         for name in sorted(TOWERS)}, indent=1)
        + "\n")
