import random
from fractions import Fraction

import pytest

from valmon.bipoly import (BivarPoly, eval_leading, min_poly_finite_puiseux,
                           parse, preimage, preimage_leading, preimage_of_rep,
                           truncation_min_poly)
from valmon.errors import (InsufficientPrecision, NotInMonoid, PolyParseError,
                           ZeroPolynomial)
from valmon.exactnum import as_rational
from valmon.series import (FinitePuiseux, NoetherianSeries, SimpleSeriesSpec,
                           conjugate, dyadic_spec, leading_data, series_mul,
                           truncate)
from valmon.valmonoid import MonoidContext, enumerate_omega

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return MonoidContext(dyadic_spec(), 8)


# --- parsing ---------------------------------------------------------------

def test_parse_examples():
    assert parse("y^2 - x").coeffs == {(0, 2): F(1), (1, 0): F(-1)}
    assert parse("0").is_zero()
    assert parse("(x+y)^2").coeffs == {(2, 0): F(1), (1, 1): F(2), (0, 2): F(1)}


def test_parse_rationals_and_unary_minus():
    assert parse("1/2*x*y - 3").coeffs == {(1, 1): F(1, 2), (0, 0): F(-3)}
    assert parse("-x + y").coeffs == {(1, 0): F(-1), (0, 1): F(1)}
    assert parse("- (x + y) * 2").coeffs == {(1, 0): F(-2), (0, 1): F(-2)}


def test_parse_whitespace_insensitive():
    assert parse(" y ^ 2 -  x ") == parse("y^2-x")


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as err:
        parse("y^")
    assert err.value.pos == 2
    with pytest.raises(PolyParseError):
        parse("x + ")
    with pytest.raises(PolyParseError):
        parse("x 2")  # trailing input
    with pytest.raises(PolyParseError):
        parse("z")
    with pytest.raises(PolyParseError):
        parse("1/0")


def test_parse_exponent_overflow():
    with pytest.raises(PolyParseError):
        parse("x^100000")


def _max_dense_product(monkeypatch):
    """Record the largest dense bound (deg_x+1)*(deg_y+1) of any product
    BivarPoly.__mul__ is asked for."""
    seen = [0]
    mul = BivarPoly.__mul__

    def spy(a, b):
        seen[0] = max(seen[0], (a.deg_x() + b.deg_x() + 1)
                      * (a.deg_y() + b.deg_y() + 1))
        return mul(a, b)
    monkeypatch.setattr(BivarPoly, "__mul__", spy)
    return seen


def test_parse_output_bound(monkeypatch):
    seen = _max_dense_product(monkeypatch)
    with pytest.raises(PolyParseError) as err:
        parse("(1+x+y)^10000")
    assert err.value.pos == 8
    assert seen[0] <= 1  # raised before powering (1 + x + y)
    # each factor is within the bound, their product is not
    with pytest.raises(PolyParseError) as err:
        parse("(1 + x^400) * (1 + y^400)")
    assert err.value.pos == 12  # the "*"
    assert seen[0] <= 401  # only the in-bound powers x^400 and y^400 ran


def test_parse_within_output_bound():
    assert len(parse("(1+x+y)^80").coeffs) == 3321


def test_to_string_round_trip():
    samples = ["y^2 - x", "x*y", "-x", "1/2*x^3*y - 7/3", "0", "3",
               "(x+y)^3 - y^2"]
    for text in samples:
        p = parse(text)
        assert parse(p.to_string()) == p


def test_poly_arithmetic_basics():
    x, y = BivarPoly.x(), BivarPoly.y()
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert x ** 0 == BivarPoly.one()
    assert (x + y) ** 2 == x * x + x * y * BivarPoly.constant(2) + y * y
    assert x.scale(F(1, 2)) == parse("1/2*x")
    # denominators that cancel leave the same representation as x*y
    xy = x.scale(F(2, 3)) * y.scale(F(3, 2))
    assert xy == x * y and hash(xy) == hash(x * y)
    assert xy.to_string() == "x*y"
    assert parse("1/2*x + 1/2*y").scale(2) == x + y
    assert hash(parse("1/2*x + 1/2*y").scale(2)) == hash(x + y)


def _ref_add(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _ref_mul(p, q):
    out = {}
    for (a1, b1), v1 in p.items():
        for (a2, b2), v2 in q.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _ref_text(p):
    return " + ".join(f"({c})*x^{a}*y^{b}" for (a, b), c in p.items()) or "0"


def test_poly_arithmetic_against_fraction_reference():
    # integer numerators over one denominator against a plain
    # {monomial: Fraction} reference
    rng = random.Random(47)

    def rand_ref():
        return {k: v for k, v in (
            ((rng.randint(0, 3), rng.randint(0, 3)),
             F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 9))))
            for _ in range(rng.randint(0, 5))) if v}

    for _ in range(60):
        rp, rq = rand_ref(), rand_ref()
        p, q = BivarPoly(rp), BivarPoly(rq)
        rs = F(rng.randint(-4, 4), rng.randint(1, 6))
        cases = [
            (p + q, _ref_add(rp, rq)),
            (p - q, _ref_add(rp, {k: -v for k, v in rq.items()})),
            (-p, {k: -v for k, v in rp.items()}),
            (p * q, _ref_mul(rp, rq)),
            (p.scale(rs), {k: v * rs for k, v in rp.items() if v * rs}),
            (p ** 3, _ref_mul(_ref_mul(rp, rp), rp)),
            (parse(_ref_text(rp)), rp),
            (p - p, {}),
            (p + (-p), {}),
        ]
        for got, ref in cases:
            want = BivarPoly(ref)
            assert got.coeffs == ref
            assert got == want and hash(got) == hash(want)
            assert got.to_string() == want.to_string()
            assert parse(got.to_string()) == got
        assert (p - p) == BivarPoly.zero()


# --- certified evaluation ---------------------------------------------------

def test_eval_leading_paper_values(ctx):
    assert eval_leading(parse("x"), ctx).le == 1
    got = eval_leading(parse("y"), ctx)
    assert (got.le, got.lc) == (F(1, 2), 1)
    got = eval_leading(parse("y^2 - x"), ctx)
    assert (got.le, got.lc) == (F(3, 4), 2)


def test_eval_leading_zero_polynomial(ctx):
    with pytest.raises(ZeroPolynomial):
        eval_leading(BivarPoly.zero(), ctx)


def _series_eval(poly, spec, depth, floor=None):
    """Independent oracle: substitute the depth-term truncation directly via
    exact series arithmetic.  With a floor, only terms of exponent >= floor
    are kept: every exponent is positive, and a term of z^b of exponent e
    reaches at most e + a + (b' - b) * e_1 through a monomial x^a y^b' with
    b' >= b, so terms that cannot reach the floor are dropped on the way
    and the kept ones stay exact."""
    zn = truncate(spec, depth)
    monos = poly.monomials()
    t = NoetherianSeries(((F(1), F(1)),))
    zpows = [NoetherianSeries(((F(0), F(1)),))]
    total = NoetherianSeries.zero()
    for a, b, c in monos:
        while len(zpows) <= b:
            zb = series_mul(zpows[-1], zn)
            if floor is not None:
                k = len(zpows)
                reach = max(a2 + (b2 - k) * zn.terms[0][0]
                            for a2, b2, _ in monos if b2 >= k)
                zb = NoetherianSeries(tuple(
                    (e, v) for e, v in zb.terms if e + reach >= floor))
            zpows.append(zb)
        term = NoetherianSeries(((F(0), c),))
        for _ in range(a):
            term = series_mul(term, t)
        total = total + series_mul(term, zpows[b])
    if floor is None:
        return total
    return NoetherianSeries(tuple((e, v) for e, v in total.terms
                                  if e >= floor))


def _oracle_spec(name):
    """(spec, context depth, number of terms or None for an infinite spec)."""
    from valmon.series import CallbackTail, GeometricTail
    if name == "dyadic":
        return dyadic_spec(), 8, None
    if name == "triadic":
        return SimpleSeriesSpec([(1, F(1, 3))], GeometricTail(3)), 4, None
    if name == "harmonic":
        tail = CallbackTail(lambda i: (1, F(1, i + 2)))
        return SimpleSeriesSpec([(1, F(1, 2))], tail), 4, None
    if name == "rational":
        tail = GeometricTail(2)
        return SimpleSeriesSpec([(F(1, 2), F(1, 2))], tail), 6, None
    if name == "mixed-denominators":
        # coefficient denominators 3 and 2: z_N is tabulated as (6*z_N)^b
        tail = GeometricTail(2)
        prefix = [(F(2, 3), F(1, 2)), (F(1, 2), F(1, 4))]
        return SimpleSeriesSpec(prefix, tail), 6, None
    exps = [F(2), F(3, 2), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]
    return SimpleSeriesSpec([(1, e) for e in exps]), 4, len(exps)


@pytest.mark.parametrize("name", ["dyadic", "triadic", "harmonic", "rational",
                                  "finite7", "mixed-denominators"])
def test_eval_leading_against_series_oracle(name):
    # random sparse polynomials of y-degree up to 20; every other one is a
    # multiple of some p_j plus terms of lower y-degree, so deg_y f =
    # deg p_j makes N = l(j), one term past where p_j's image vanishes
    spec, depth, n_terms = _oracle_spec(name)
    octx = MonoidContext(spec, depth)
    mins = [truncation_min_poly(octx, j) for j in range(1, depth + 1)]
    mins = [p for p in mins if p.deg_y() <= 20]
    rng = random.Random(23)
    depths = set()
    for trial in range(16):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = (rng.randint(0, 3), rng.randint(0, 20 if trial % 3 else 3))
            terms[key] = rng.randint(-5, 5)
        if trial % 2:
            p = mins[trial // 2 % len(mins)]
            terms = {k: v for k, v in terms.items() if k[1] < p.deg_y()}
            f = BivarPoly(terms) + p * BivarPoly.monomial(
                rng.randint(1, 3), rng.randint(0, 2), 0)
        else:
            f = BivarPoly(terms)
        if f.is_zero():
            continue
        got = eval_leading(f, octx)
        depths.add(got.certified_at)
        deeper = got.certified_at + 4
        if n_terms is not None:
            deeper = min(deeper, n_terms)
        for n in (got.certified_at, deeper):
            image = _series_eval(f, spec, n, floor=got.le)
            assert (got.le, got.lc) == leading_data(image)
    if name == "dyadic":
        assert max(depths) > 4


def test_eval_homomorphism(ctx):
    rng = random.Random(29)
    for _ in range(30):
        f = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-4, 4) or 1 for _ in range(3)})
        g = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-4, 4) or 1 for _ in range(3)})
        if f.is_zero() or g.is_zero():
            continue
        lf, lg, lfg = (eval_leading(p, ctx) for p in (f, g, f * g))
        assert lfg.le == lf.le + lg.le
        assert lfg.lc == lf.lc * lg.lc


def test_eval_triangle_inequality(ctx):
    rng = random.Random(31)
    for _ in range(30):
        f = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-4, 4) or 1 for _ in range(2)})
        g = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-4, 4) or 1 for _ in range(2)})
        if f.is_zero() or g.is_zero() or (f + g).is_zero():
            continue
        lf, lg, ls = (eval_leading(p, ctx) for p in (f, g, f + g))
        assert ls.le <= max(lf.le, lg.le)
        if lf.le != lg.le:
            assert ls.le == max(lf.le, lg.le)


def test_suitability_zero_value_iff_constant(ctx):
    rng = random.Random(37)
    assert eval_leading(BivarPoly.constant(F(5, 3)), ctx).le == 0
    for _ in range(40):
        f = BivarPoly({(rng.randint(0, 3), rng.randint(0, 3)):
                       rng.randint(-5, 5) for _ in range(rng.randint(1, 4))})
        if f.is_zero():
            continue
        le = eval_leading(f, ctx).le
        is_constant = f.deg_x() == 0 and f.deg_y() == 0
        assert (le == 0) == is_constant


def test_finite_spec_exact_evaluation():
    spec = SimpleSeriesSpec([(1, F(1, 2)), (1, F(1, 4))])
    ctx = MonoidContext(spec, 2)
    got = eval_leading(parse("y^2 - x"), ctx)
    assert (got.le, got.lc) == (F(3, 4), 2)
    # r_1 = 2 <= deg_y: the spec runs out first and z itself is evaluated
    ctx1 = MonoidContext(SimpleSeriesSpec([(1, F(1, 2))]), 1)
    got = eval_leading(parse("y^3"), ctx1)
    assert (got.le, got.lc, got.certified_at) == (F(3, 2), 1, 1)


def test_finite_spec_vanishing_image_errors():
    spec = SimpleSeriesSpec([(1, F(1, 2))])
    ctx = MonoidContext(spec, 1)
    with pytest.raises(InsufficientPrecision):
        eval_leading(parse("y^2 - x"), ctx)  # the minimal polynomial of z


# --- minimal polynomials and preimages --------------------------------------

def test_min_poly_examples(ctx):
    assert min_poly_finite_puiseux(FinitePuiseux([(1, 1)])) == parse("y - x")
    assert min_poly_finite_puiseux(
        FinitePuiseux([(F(1, 2), 1)])) == parse("y^2 - x")
    p = min_poly_finite_puiseux(FinitePuiseux([(F(1, 2), 1), (F(1, 4), 1)]))
    assert p.deg_y() == 4
    assert eval_leading(p, ctx).le == F(11, 8)
    assert min_poly_finite_puiseux(FinitePuiseux([])) == BivarPoly.y()


def test_min_poly_monic_and_rational(ctx):
    p = min_poly_finite_puiseux(
        FinitePuiseux([(F(1, 2), 3), (F(1, 3), F(1, 2))]))
    assert p.deg_y() == 6
    assert p.coeffs[(0, 6)] == 1


def _conjugate_product(w):
    """Independent oracle: expand prod_j (y - w_j) over all ram_index
    conjugates in Q(zeta_R) series arithmetic, then demand that every
    coefficient is rational with an integral exponent."""
    coeffs = [NoetherianSeries.monomial(F(1), 0)]
    for j in range(w.ram_index):
        root = -conjugate(w, j)
        new = [NoetherianSeries.zero()] + coeffs
        for k, c in enumerate(coeffs):
            new[k] = new[k] + series_mul(c, root)
        coeffs = new
    out = {}
    for k, ser in enumerate(coeffs):
        for e, c in ser.terms:
            q = as_rational(c)
            assert q is not None and e.denominator == 1
            out[(int(e), k)] = q
    return BivarPoly(out)


@pytest.mark.parametrize("terms", [
    [(F(5, 4), F(2, 3)), (F(1, 2), -5)],                  # R = 4 = 2 * 2
    [(F(1, 2), -5), (F(1, 3), F(2, 3))],                  # R = 6 = 2 * 3
    [(F(4, 3), F(2, 3)), (F(1, 9), -5)],                  # R = 9 = 3 * 3
    [(F(1, 2), F(2, 3)), (F(2, 5), -5), (F(1, 10), 1)],   # R = 10 = 2 * 5
    [(F(3, 2), -5), (F(2, 3), F(2, 3)), (F(1, 4), 1)],    # R = 12 = 2 * 2 * 3
])
def test_min_poly_matches_conjugate_product(terms):
    w = FinitePuiseux(terms)
    p = min_poly_finite_puiseux(w)
    assert p == _conjugate_product(w)
    assert p.deg_y() == w.ram_index
    assert p.coeffs[(0, w.ram_index)] == 1


def test_dyadic_p7(ctx):
    p7 = truncation_min_poly(ctx, 7)
    assert p7.deg_y() == 64
    assert eval_leading(p7, ctx).le == ctx.seqs.rho(7)


def test_truncation_min_poly_lemma(ctx):
    for i in range(1, 5):
        p = truncation_min_poly(ctx, i)
        assert p.deg_y() == ctx.seqs.r(ctx.seqs.l(i) - 1)
        assert eval_leading(p, ctx).le == ctx.seqs.rho(i)


def test_preimage_examples(ctx):
    assert preimage(F(1), ctx) == parse("x")
    assert preimage(F(3, 4), ctx) == parse("y^2 - x")
    assert preimage(F(7, 4), ctx) == parse("x*y^2 - x^2")
    with pytest.raises(NotInMonoid):
        preimage(F(1, 4), ctx)


def test_preimage_values_across_omega(ctx):
    for v, rep in enumerate_omega(3, ctx, 5):
        p = preimage_of_rep(rep, ctx)
        assert eval_leading(p, ctx).le == v


def test_preimage_leading_composition(ctx):
    for v, rep in enumerate_omega(3, ctx, 2):
        if v == 0:
            continue
        composed = preimage_leading(rep, ctx)
        direct = eval_leading(preimage_of_rep(rep, ctx), ctx)
        assert (composed.le, composed.lc) == (direct.le, direct.lc)


def test_deg_y_definition():
    assert parse("x^3 + x*y^2").deg_y() == 2
    assert parse("x^3").deg_y() == 0
    assert parse("x^3").deg_x() == 3


def test_integer_exponent_head_context():
    # a spec whose head exponents are integral: l(1) = 2, and p_1 is the
    # minimal polynomial of the one-term truncation t^2
    exps = [F(2), F(3, 2), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]
    spec = SimpleSeriesSpec([(1, e) for e in exps])
    ctx7 = MonoidContext(spec, 4)
    p1 = truncation_min_poly(ctx7, 1)
    assert p1 == parse("y - x^2")
    assert eval_leading(p1, ctx7).le == ctx7.seqs.rho(1) == F(3, 2)
    p2 = truncation_min_poly(ctx7, 2)
    assert p2.deg_y() == ctx7.seqs.r(ctx7.seqs.l(2) - 1) == 2
    assert eval_leading(p2, ctx7).le == ctx7.seqs.rho(2) == F(11, 6)
    assert preimage(F(3, 2), ctx7) == p1


def test_eval_on_rational_coefficient_spec():
    # non-integral coefficients exercise the Fraction accumulation path
    from valmon.series import GeometricTail
    spec = SimpleSeriesSpec([(F(1, 2), F(1, 2))], GeometricTail(2))
    rctx = MonoidContext(spec, 6)
    got = eval_leading(parse("y"), rctx)
    assert (got.le, got.lc) == (F(1, 2), F(1, 2))
    # z^2 - (1/4) t cancels the square of the head term
    got = eval_leading(parse("y^2 - 1/4*x"), rctx)
    assert got.le == F(3, 4)
    assert got.lc == 1  # 2 * (1/2) * 1 from the cross term
    rng = random.Random(43)
    for _ in range(15):
        f = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       rng.randint(-3, 3) or 1 for _ in range(2)})
        if f.is_zero():
            continue
        got = eval_leading(f, rctx)
        deep = _series_eval(f, rctx.spec, got.certified_at + 4)
        assert (got.le, got.lc) == leading_data(deep)
