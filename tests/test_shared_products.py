"""Products that buchberger and preimage_product share rather than form
again, checked against the same products formed term by term.

The families of one new basis element g share one product p*g per digit
vector of b = (n/d) * x^m * p, and each S-polynomial is that product
scaled and shifted, plus a*f.  preimage_product reads a factor of
prod p_j^(d_j) from the memo when the factor's own record is there.  Each
shared product must give exactly what forming it afresh gives.
"""

from fractions import Fraction

import pytest

from test_reduce_reference import GB_CASES, SPECS
from valmon import bipoly, gbengine
from valmon.bipoly import BivarPoly, eval_leading, parse, truncation_min_poly
from valmon.gbengine import buchberger
from valmon.valmonoid import MonoidContext


def term_by_term(p, q):
    """The numerators of p*q over p's and q's denominators, one pair of
    terms at a time."""
    out = {}
    for (a1, b1), v1 in p._num.items():
        for (a2, b2), v2 in q._num.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + v1 * v2
    return out


def direct_s_polynomial(a, f, b, g):
    """a*f - b*g with each product formed term by term."""
    af, bg = term_by_term(a, f), term_by_term(b, g)
    den_af, den_bg = a._den * f._den, b._den * g._den
    return BivarPoly({k: Fraction(af.get(k, 0), den_af)
                      - Fraction(bg.get(k, 0), den_bg)
                      for k in af.keys() | bg.keys()})


def recorded_run(monkeypatch, gens, spec_name, rounds):
    """(syzygy elements as (elt, f, g), S-polynomials reduce got) of one
    buchberger run in a fresh context."""
    make_spec, depth = SPECS[spec_name]
    ctx = MonoidContext(make_spec(), depth)
    elements, reduced = [], []
    family, reduce = gbengine._family, gbengine.reduce

    def recording_family(f, g, ctx, *args):
        out = family(f, g, ctx, *args)
        elements.extend(out)
        return out

    def recording_reduce(f, basis, ctx, *args, **kwargs):
        if "_syzygy" in kwargs:
            reduced.append(f)
        return reduce(f, basis, ctx, *args, **kwargs)

    monkeypatch.setattr(gbengine, "_family", recording_family)
    monkeypatch.setattr(gbengine, "reduce", recording_reduce)
    buchberger([parse(g) for g in gens], ctx, max_rounds=rounds)
    return elements, reduced


@pytest.mark.parametrize("gens,spec_name,rounds",
                         [*GB_CASES, (("x", "y"), "dyadic", 6)])
def test_reduced_s_polynomials_are_a_f_minus_b_g(monkeypatch, gens,
                                                 spec_name, rounds):
    elements, reduced = recorded_run(monkeypatch, gens, spec_name, rounds)
    assert reduced
    checked = set()
    for elt, f, g in elements:
        assert elt.spoly == direct_s_polynomial(elt.a, f, elt.b, g)
        checked.add(elt.spoly)
    assert checked.issuperset(reduced)


def test_x_y_six_rounds_form_each_product_once(monkeypatch):
    # 41 S-polynomials, whose b*g are 26 distinct products p*g: each is
    # multiplied once, for the one new element g whose families hold it
    elements, products, current = [], [], []
    accumulate, family = bipoly._accumulate, gbengine._family

    def spy_accumulate(acc, den, q, r, *args):
        if current and r is current[-1]:
            products.append((q, r))
        return accumulate(acc, den, q, r, *args)

    def spy_family(f, g, ctx, *args):
        current.append(g)
        try:
            out = family(f, g, ctx, *args)
        finally:
            current.pop()
        elements.extend(out)
        return out

    monkeypatch.setattr(bipoly, "_accumulate", spy_accumulate)
    monkeypatch.setattr(gbengine, "_family", spy_family)
    make_spec, depth = SPECS["dyadic"]
    ctx = MonoidContext(make_spec(), depth)
    buchberger([parse("x"), parse("y")], ctx, max_rounds=6)
    pairs = set()
    for elt, f, g in elements:
        _, rb, _ = gbengine._syzygy_reps(
            elt.value, eval_leading(f, ctx), eval_leading(g, ctx), ctx)
        pairs.add((rb.digits, g))
    assert len(elements) == 41 and len(pairs) == 26
    assert len(products) == 26
    assert len({(id(q), id(r)) for q, r in products}) == 26


def test_preimage_records_are_their_factors_multiplied_out():
    # harmonic x,y at 3 rounds forms (1, 1) and (1, 2) with both factors
    # already in the memo
    make_spec, depth = SPECS["harmonic"]
    ctx = MonoidContext(make_spec(), depth)
    buchberger([parse("x"), parse("y")], ctx, max_rounds=3)
    records = {key[1]: hit for key, hit in ctx.cache.items()
               if key[0] == "preimage" and len(key) == 2}
    assert {(1, 1), (1, 2)} <= records.keys()
    for digits, (poly, lc) in records.items():
        want, want_lc = BivarPoly.one(), Fraction(1)
        for j, d in enumerate(digits, start=1):
            p_j = truncation_min_poly(ctx, j)
            for _ in range(d):
                want = BivarPoly._make(term_by_term(want, p_j),
                                       want._den * p_j._den)
            want_lc *= eval_leading(p_j, ctx).lc ** d
        assert (poly, lc) == (want, want_lc), digits
