"""Integer step arithmetic against the Fraction arithmetic it replaced.

BivarPoly forms p - q*r with one fused accumulation (_add_product),
subtracts without negating first, scales by an int or a Fraction's
numerator and denominator directly, and writes its text from its int
numerators.  Its kernel multiplies large dense products packed into big
ints and the rest term by term; both must give the term-by-term result.  gbengine forms its step factors from
the int numerators and denominators of the leading coefficients, and its
value differences as lattice ints.  The references below are copies of
the Fraction code these replaced; results must be identical,
representation and all.
"""

import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from shared_inputs import criterion_9_poly
from valmon import bipoly, gbengine
from valmon.bipoly import (BivarPoly, Image, eval_leading, parse,
                           preimage_of_rep, preimage_product,
                           truncation_min_poly)
from valmon.errors import InsufficientPrecision
from valmon.exactnum import rat_str
from valmon.gbengine import (ReductionStep, ReductionTrace, SyzygyElement,
                             approx_quotient, reduce, syzygy_family,
                             syzygy_values)
from valmon.series import dyadic_spec
from valmon.valmonoid import MonoidContext, decompose, lattice_point

F = Fraction


# --- BivarPoly kernels ------------------------------------------------------

def reference_scale(p, q):
    """BivarPoly.scale before the change: every factor through Fraction."""
    q = Fraction(q)
    return BivarPoly._make({k: v * q.numerator for k, v in p._num.items()},
                           p._den * q.denominator)


def reference_add(p, q):
    den = lcm(p._den, q._den)
    m1, m2 = den // p._den, den // q._den
    num = {k: v * m1 for k, v in p._num.items()}
    for k, v in q._num.items():
        num[k] = num.get(k, 0) + v * m2
    return BivarPoly._make(num, den)


def reference_sub(p, q):
    """p - q before the change: p + (-q), with -q = q.scale(-1)."""
    return reference_add(p, reference_scale(q, -1))


def random_poly(rng, terms=5, deg=4):
    return BivarPoly({(rng.randint(0, deg), rng.randint(0, deg)):
                      F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12)))
                      for _ in range(rng.randint(0, terms))})


def assert_same(got, want):
    assert got == want
    assert (got._num, got._den) == (want._num, want._den)
    assert hash(got) == hash(want)
    assert got.to_string() == want.to_string()


def test_fused_minus_product_matches_the_operators():
    rng = random.Random(9)
    cancelled = 0
    for _ in range(400):
        p, q, r = (random_poly(rng) for _ in range(3))
        if rng.random() < 0.3:
            # p = q*r + small: the product cancels p, or all but a tail
            p = reference_add(q * r, random_poly(rng, terms=1)
                              if rng.random() < 0.5 else BivarPoly.zero())
        got = p._add_product(-1, q, r)
        assert_same(got, reference_sub(p, q * r))
        assert_same(got, p - q * r)
        cancelled += got.is_zero() and not p.is_zero()
    assert cancelled > 20


def reference_product_sum(p, sign, q, r):
    """p + sign*q*r, term by term over Fractions."""
    acc = p.coeffs
    for (a1, b1), v1 in q.coeffs.items():
        for (a2, b2), v2 in r.coeffs.items():
            k = (a1 + a2, b1 + b2)
            acc[k] = acc.get(k, 0) + sign * v1 * v2
    return BivarPoly(acc)


def box_poly(rng, n, xs, ys, bits, dens=(1,)):
    """n distinct terms in the box xs x ys, coefficients of either sign up
    to 2^bits over a denominator drawn from dens."""
    keys = rng.sample([(a, b) for a in xs for b in ys], n)
    return BivarPoly({k: F(rng.choice((-1, 1)) * rng.randint(1, 2 ** bits),
                           rng.choice(dens)) for k in keys})


def test_packed_accumulation_matches_the_dict_loop(monkeypatch):
    """Both strategies of the kernel give the dict loop's result,
    representation and all, on each side of the size and density cutoffs;
    a box sparser than the cutoff takes the dict loop."""
    packed = []
    dense = bipoly._dense

    def spy(*args):
        packed.append(args)
        return dense(*args)

    monkeypatch.setattr(bipoly, "_dense", spy)
    rng = random.Random(13)
    box, wide = (range(3, 9), range(2, 10)), (range(0, 90), range(0, 90))
    default = bipoly._PACK_PAIRS
    cases = [
        # (q, r, whether the dense box is small enough to pack)
        # 1,200 pairs in a box of 11 * 15, small and 2^200-size coefficients
        (box_poly(rng, 40, *box, 8), box_poly(rng, 30, *box, 8), True),
        (box_poly(rng, 40, *box, 200, (1, 3, 10**30)),
         box_poly(rng, 30, *box, 200, (7, 2**90)), True),
        # 1,024 pairs: the dict loop at the default cutoff
        (box_poly(rng, 32, *box, 8), box_poly(rng, 32, *box, 8), True),
        # a box of 173 * 175, above the pair count
        (box_poly(rng, 40, *wide, 8), box_poly(rng, 30, *wide, 8), False),
        # 1,350 pairs in a box of 13 * 35: under the pair count, over a
        # quarter of it
        (box_poly(rng, 45, range(7), range(18), 8),
         box_poly(rng, 30, range(7), range(18), 8), False),
    ]
    taken = []
    for q, r, small_box in cases:
        pairs = len(q.coeffs) * len(r.coeffs)
        p = box_poly(rng, 20, range(4, 12), range(4, 14), 60, (1, 5))
        product = reference_product_sum(BivarPoly.zero(), 1, q, r)
        for self_, sign in ((p, -1), (p, 1), (BivarPoly.zero(), 1),
                            (product, -1), (reference_add(product, p), -1)):
            want = reference_product_sum(self_, sign, q, r)
            for cutoff in (default, 0, 10**9):
                monkeypatch.setattr(bipoly, "_PACK_PAIRS", cutoff)
                del packed[:]
                assert_same(self_._add_product(sign, q, r), want)
                assert bool(packed) == (pairs > cutoff and small_box)
                taken.append(bool(packed))
        monkeypatch.setattr(bipoly, "_PACK_PAIRS", default)
        assert_same(product._add_product(-1, q, r), BivarPoly.zero())
        assert_same(q * r, product)
    # at the default cutoff the first two cases pack, the others do not
    assert taken[::3] == [True] * 10 + [False] * 15


def test_packed_square_packs_one_operand(monkeypatch):
    """A square, q is r, packs one dense list and multiplies it by itself,
    with the result of the product of two equal copies, on the packing
    box_poly cases; q*q and q**n take it."""
    calls = []
    product = bipoly._product

    def spy(a, b):
        calls.append(a is b)
        return product(a, b)

    monkeypatch.setattr(bipoly, "_product", spy)
    rng = random.Random(17)
    box = (range(3, 9), range(2, 10))
    for q in (box_poly(rng, 40, *box, 8),
              box_poly(rng, 40, *box, 200, (1, 3, 10**30))):
        copy = BivarPoly._make(dict(q._num), q._den)
        want = reference_product_sum(BivarPoly.zero(), 1, q, copy)
        del calls[:]
        assert_same(q * copy, want)
        assert calls == [False]
        del calls[:]
        assert_same(q * q, want)
        assert calls == [True]
        assert_same(q ** 3, reference_product_sum(BivarPoly.zero(), 1,
                                                  want, copy))


def reference_step(p, n, d, shift, q, r):
    """p + (n/d) * x^shift * q*r, term by term over Fractions."""
    acc = p.coeffs
    for (a1, b1), v1 in q.coeffs.items():
        for (a2, b2), v2 in r.coeffs.items():
            k = (a1 + a2 + shift, b1 + b2)
            acc[k] = acc.get(k, 0) + F(n, d) * v1 * v2
    return BivarPoly(acc)


def test_packed_accumulation_with_a_general_step(monkeypatch):
    """The packed branch with n != +-1, d != 1 and shift != 0 gives the
    dict loop's result, and both give the Fraction reference, on the
    packing box_poly cases and accumulators with their own denominators."""
    packed = []
    dense = bipoly._dense

    def spy(*args):
        packed.append(args)
        return dense(*args)

    monkeypatch.setattr(bipoly, "_dense", spy)
    rng = random.Random(14)
    box = (range(3, 9), range(2, 10))
    cases = [
        (box_poly(rng, 40, *box, 8), box_poly(rng, 30, *box, 8)),
        (box_poly(rng, 40, *box, 200, (1, 3, 10**30)),
         box_poly(rng, 30, *box, 200, (7, 2**90))),
        (box_poly(rng, 32, *box, 8), box_poly(rng, 32, *box, 8)),
    ]
    checked = 0
    for q, r in cases:
        for dens in ((5, 7), (4, 9, 10**20)):
            p = box_poly(rng, 20, range(4, 12), range(4, 14), 60, dens)
            assert p._den > 1
            for n, d, shift in product((-3, 2), (1, 6), (0, 3)):
                got = []
                # packed, then the dict loop
                for cutoff in (0, 10**12):
                    monkeypatch.setattr(bipoly, "_PACK_PAIRS", cutoff)
                    del packed[:]
                    acc = dict(p._num)
                    den = bipoly._accumulate(acc, p._den, q, r, n, d, shift)
                    assert bool(packed) == (cutoff == 0)
                    got.append(BivarPoly._make(acc, den))
                assert_same(got[0], got[1])
                assert_same(got[0], reference_step(p, n, d, shift, q, r))
                checked += 1
    assert checked == 48


def test_sub_and_neg_match_the_reference():
    rng = random.Random(10)
    for _ in range(400):
        p, q = random_poly(rng), random_poly(rng)
        assert_same(p - q, reference_sub(p, q))
        assert_same(-q, reference_scale(q, -1))
        assert_same(p + (-q), reference_sub(p, q))
        assert_same(p - p, BivarPoly.zero())
        assert_same(q + (-q), BivarPoly.zero())


def test_scale_matches_the_reference():
    rng = random.Random(11)
    factors = [0, 1, -1, 2, -3, F(1, 2), F(-3, 4), F(12, 5), F(-7, 12),
               True, "5/6", "-4"]
    for _ in range(200):
        p = random_poly(rng)
        for q in factors + [F(rng.randint(-20, 20), rng.randint(1, 24))]:
            assert_same(p.scale(q), reference_scale(p, q))
        # _scaled takes ints n, d > 0 that need not be coprime
        n, d = rng.randint(-30, 30), rng.randint(1, 30)
        assert_same(p._scaled(n, d), reference_scale(p, F(n, d)))


def reference_to_string(p):
    """BivarPoly.to_string before the change: one Fraction per term, from
    monomials(), written by rat_str."""
    monos = p.monomials()
    if not monos:
        return "0"
    bits = []
    for a, b, v in monos:
        mono = []
        if a == 1:
            mono.append("x")
        elif a > 1:
            mono.append(f"x^{a}")
        if b == 1:
            mono.append("y")
        elif b > 1:
            mono.append(f"y^{b}")
        mag = abs(v)
        if not mono or mag != 1:
            mono.insert(0, rat_str(mag))
        text = "*".join(mono)
        if not bits:
            bits.append(text if v > 0 else "-" + text)
        else:
            bits.append(("+ " if v > 0 else "- ") + text)
    return " ".join(bits)


def test_to_string_matches_the_reference():
    rng = random.Random(12)
    polys = [BivarPoly.zero(), BivarPoly.one(), -BivarPoly.one(),
             BivarPoly.constant(F(-3, 4)), BivarPoly.x(), -BivarPoly.y(),
             parse("x - y + 1"), parse("-1/2*x^3*y^2 + 3*y - 4/6")]
    for _ in range(600):
        # unit coefficients +-1 among the rest, over one denominator or
        # mixed ones, so terms reduce by different gcds
        den = rng.choice((1, 2, 3, 4, 6, 12, 35))
        polys.append(BivarPoly(
            {(rng.randint(0, 12), rng.randint(0, 3)):
             F(rng.choice((1, -1, rng.randint(-40, 40))),
               rng.choice((1, den)))
             for _ in range(rng.randint(0, 7))}))
    seen = set()
    for p in polys:
        got = p.to_string()
        assert got == reference_to_string(p) == str(p)
        seen.update(ch for ch in "-+/0" if ch in got)
    assert seen == set("-+/0")


# --- off-lattice leading exponents ------------------------------------------
#
# At dyadic depth 3 the lattice is (1/8)Z.  p_4 (y-degree 8, LE 43/16) and
# p_5 (y-degree 16, LE 171/32) have y-degree >= r_l(3) = 8 and leading
# exponents off the lattice.  A difference of values that lands back on
# the lattice must still be decided, one that does not must raise with
# decompose's message, and a negative one gives None first.

def reference_quotient_for(lead_f, lead_g, ctx):
    """_quotient_for before the change, on Fraction leading data."""
    rep = decompose(lead_f.le - lead_g.le, ctx)
    if rep is None:
        return None
    p = preimage_of_rep(rep, ctx)
    lc = preimage_product(rep.digits, ctx)[1]
    factor = lead_f.lc / (lead_g.lc * lc)
    return p.scale(factor), rep, factor


def reference_approx_quotient(f, g, ctx):
    q = reference_quotient_for(eval_leading(f, ctx), eval_leading(g, ctx),
                               ctx)
    return None if q is None else q[0]


def reference_reduce(f, basis, ctx):
    """The plain reduction loop: every intermediate evaluated afresh."""
    lead_basis = [eval_leading(g, ctx) for g in basis]
    steps = []
    cur = f
    while not cur.is_zero():
        lead = Image.scan(cur, ctx).lead()
        for idx, lg in enumerate(lead_basis):
            q = reference_quotient_for(lead, lg, ctx)
            if q is not None:
                break
        else:
            break
        steps.append(ReductionStep(idx, q[0], lead.le))
        cur = reference_sub(cur, basis[idx] * q[0])
    return ReductionTrace(tuple(steps), cur)


def reference_syzygy_element(value, f, g, lead_f, lead_g, ctx):
    """_syzygy_element before the change, on Fraction leading data."""
    ra = decompose(value - lead_f.le, ctx)
    rb = decompose(value - lead_g.le, ctx)
    a = preimage_of_rep(ra, ctx)
    pb = preimage_of_rep(rb, ctx)
    la = preimage_product(ra.digits, ctx)[1]
    lb = preimage_product(rb.digits, ctx)[1]
    b = reference_scale(pb, (la * lead_f.lc) / (lb * lead_g.lc))
    return SyzygyElement(value, a, b, reference_sub(a * f, b * g))


def reference_syzygy_family(f, g, ctx):
    values, lead_f, lead_g = syzygy_values(f, g, ctx)
    return [reference_syzygy_element(v, f, g, lead_f, lead_g, ctx)
            for v in values]


def outcome(fn, *args):
    """("ok", result) or ("raised", message) for InsufficientPrecision."""
    try:
        return "ok", fn(*args)
    except InsufficientPrecision as exc:
        return "raised", str(exc)


@pytest.fixture(scope="module")
def shallow():
    """A dyadic depth-3 context, with p_4 and p_5 built at depth 8."""
    deep = MonoidContext(dyadic_spec(), 8)
    return (MonoidContext(dyadic_spec(), 3), truncation_min_poly(deep, 4),
            truncation_min_poly(deep, 5))


def off_lattice_pairs(p4, p5):
    x, y = parse("x"), parse("y")
    return [
        (x * p4, p4),                    # difference 1: on the lattice
        (p4 * y, p4),                    # difference 1/2
        (p4 * parse("y^2 - x"), p4),     # difference 3/4
        (x * x * p5 + y ** 3, p5),       # difference 2
        (p5 * p4, p4),                   # difference 171/32: raises
        (p4, x * p4),                    # negative: None
        (parse("y^2 - x"), p4),          # negative, g off the lattice
        (p4, p4 + x ** 3),               # LE(g) = 3; negative
        (p4, y),                         # difference 35/16: raises
        (parse("x^3*y"), p4),            # difference 13/16: raises
        (p5, p4),                        # difference 85/32: raises
        (y ** 8 + x, parse("y^9")),      # y-degree >= 8, on the lattice
        (x * p4 + y, p4),
    ]


def test_off_lattice_approx_quotient_and_reduce(shallow):
    ctx, p4, p5 = shallow
    assert eval_leading(p4, ctx).le == F(43, 16)
    assert eval_leading(p5, ctx).le == F(171, 32)
    assert ctx.lattice_den == 8
    kinds = set()
    for f, g in off_lattice_pairs(p4, p5):
        got = outcome(approx_quotient, f, g, ctx)
        assert got == outcome(reference_approx_quotient, f, g, ctx)
        kinds.add((got[0], got[1] is None))
        for basis in ([g], [g, f], [parse("x"), g]):
            got = outcome(reduce, f, basis, ctx)
            assert got == outcome(reference_reduce, f, basis, ctx)
            kinds.add(("reduce", got[0]))
    # quotients found, quotients refused, and off-lattice differences
    # raising all occur, in both approx_quotient and reduce
    assert kinds >= {("ok", False), ("ok", True), ("raised", False),
                     ("reduce", "ok"), ("reduce", "raised")}


def test_off_lattice_messages_name_the_difference(shallow):
    ctx, p4, p5 = shallow
    with pytest.raises(InsufficientPrecision,
                       match="denominator 16 not resolved at depth 3"):
        approx_quotient(p4, parse("y"), ctx)
    with pytest.raises(InsufficientPrecision,
                       match="denominator 32 not resolved at depth 3"):
        reduce(p5 * p4, [p4], ctx)
    # the difference lands on the lattice: decided, never floored
    h = approx_quotient(parse("x") * p4, p4, ctx)
    assert h == parse("x")
    trace = reduce(parse("x") * p4 + parse("y"), [p4], ctx)
    assert [s.value_before for s in trace.steps] == [F(59, 16)]
    assert trace.remainder == parse("y")


def test_off_lattice_syzygy_family(shallow):
    ctx, p4, p5 = shallow
    raised = ok = 0
    for f, g in off_lattice_pairs(p4, p5):
        got = outcome(syzygy_family, f, g, ctx)
        assert got == outcome(reference_syzygy_family, f, g, ctx)
        raised += got[0] == "raised"
        ok += got[0] == "ok" and bool(got[1])
    assert raised and ok


def test_step_factors_on_criterion_9_pairs():
    """The int factors of reduce's steps and of the family elements equal
    the Fraction factors, on seeded pairs with Fraction coefficients."""
    ctx = MonoidContext(dyadic_spec(), 8)
    rng = random.Random(97)
    seen = 0
    while seen < 150:
        f, g = random_poly(rng, 4, 3), random_poly(rng, 4, 3)
        if f.is_zero() or g.is_zero():
            continue
        seen += 1
        assert approx_quotient(f, g, ctx) == reference_approx_quotient(
            f, g, ctx)
        assert reduce(f, [g], ctx) == reference_reduce(f, [g], ctx)
        assert (syzygy_family(f, g, ctx)
                == reference_syzygy_family(f, g, ctx))
        lf, lg = eval_leading(f, ctx), eval_leading(g, ctx)
        q, ref = (gbengine._quotient_for(lf, lg, ctx),
                  reference_quotient_for(lf, lg, ctx))
        assert (q is None) == (ref is None)
        if q is not None:
            n, d = q[2]
            assert d > 0 and F(n, d) == ref[2]
            assert (n, d) == (ref[2].numerator, ref[2].denominator)


def test_image_lead_reads_the_int_lead(shallow):
    """The lattice point that Image.lead reads off the image top equals
    lattice_point of its leading exponent, on and off the lattice."""
    shallow_ctx, p4, p5 = shallow
    deep = MonoidContext(dyadic_spec(), 8)
    rng = random.Random(61)
    polys = [f for pair in off_lattice_pairs(p4, p5) for f in pair]
    polys += [random_poly(rng, 4, 3) for _ in range(40)]
    kinds = set()
    for ctx in (shallow_ctx, deep):
        for f in polys:
            if f.is_zero():
                continue
            lead = Image.scan(f, ctx).lead()
            assert lead.point == lattice_point(lead.le, ctx)
            kinds.add(lead.point is None)
    assert kinds == {True, False}


def test_memo_holds_one_lead_per_polynomial(monkeypatch):
    """After criterion 9's 200 pairs on one context, the memo entries keyed
    by a polynomial are its leading data, ("lead", f), one for each
    polynomial whose leading data was read, and floored images,
    ("poly-image", h, N), each of a reduce basis element or a p_j and each
    f's full image from its floor up."""
    evaluated, bases = set(), set()
    real_eval = bipoly.eval_leading

    def recording_eval(f, ctx):
        evaluated.add(f)
        return real_eval(f, ctx)

    for module in (bipoly, gbengine):
        monkeypatch.setattr(module, "eval_leading", recording_eval)
    ctx = MonoidContext(dyadic_spec(), 8)
    rng = random.Random(97)
    pairs = 0
    while pairs < 200:
        f, g = criterion_9_poly(rng), criterion_9_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        pairs += 1
        approx_quotient(f, g, ctx)
        syzygy_family(f, g, ctx)
        reduce(f, [g], ctx)
        bases.add(g)
    keyed = [key for key in ctx.cache
             if any(isinstance(part, BivarPoly) for part in key)]
    leads = [key for key in keyed if key[0] == "lead"]
    images = [key for key in keyed if key[0] == "poly-image"]
    assert len(leads) + len(images) == len(keyed)
    assert len(leads) == len(evaluated)
    assert {key[1] for key in leads} == evaluated
    assert all(isinstance(ctx.cache[key], bipoly.LeadingData)
               for key in leads)
    p_js = {p for key, p in ctx.cache.items() if key[0] == "minpoly"}
    assert images and {key[1] for key in images} <= bases | p_js
    for key in images:
        _, h, depth = key
        zp = ctx.cache[("zpow", depth)]
        floor, coeffs, den = ctx.cache[key]
        work, full_den = bipoly._prepare(h, zp, h.deg_y())
        full = bipoly._scan(work, zp, 0, bipoly._monomial_top(work, zp) + 1)
        assert den == full_den
        assert coeffs == tuple(bipoly._strip(full)[floor:])
