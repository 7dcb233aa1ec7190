import random
import sys
from fractions import Fraction

import pytest

from cyclotomic import as_rational, conjugate, group_ring_norm_step
from valmon import bipoly
from valmon.bipoly import (BivarPoly, _exact_truncation, _product,
                           _product_band, _unpack, _ZPow, eval_leading,
                           min_poly_finite_puiseux, parse, preimage,
                           preimage_of_rep, preimage_product,
                           truncation_min_poly)
from valmon.errors import (InsufficientPrecision, InternalError, NotInMonoid,
                           PolyParseError, ZeroPolynomial)
from valmon.exactnum import _DIGITS_CAP
from valmon.series import (FinitePuiseux, NoetherianSeries, SimpleSeriesSpec,
                           dyadic_spec, leading_data, series_mul, truncate)
from valmon.valmonoid import (MonoidContext, MonoidRep, enumerate_omega,
                              rep_value)

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


def test_parse_numbers_are_decimal_digit_runs_up_to_the_cap():
    # exactly what int() accepts: any decimal digit, up to its limit
    assert parse("y^٣") == parse("y^3")
    assert parse("٣/٤*x") == parse("3/4*x")
    assert parse("y^" + "0" * (_DIGITS_CAP - 1) + "2") == parse("y^2")
    for text, at in (("y^²", 2), ("²*x", 0),
                     ("x^" + "0" * _DIGITS_CAP + "2", 2),
                     ("1/" + "1" * 5_000, 2)):
        with pytest.raises(PolyParseError) as err:
            parse(text)
        assert err.value.pos == at


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


def test_parse_coefficient_bound(monkeypatch):
    seen = [0]
    mul = BivarPoly.__mul__

    def spy(a, b):
        # the largest coefficient bit length of any product that ran
        out = mul(a, b)
        seen[0] = max(seen[0], out._den.bit_length(),
                      *(v.bit_length() for v in out._num.values()))
        return out
    monkeypatch.setattr(BivarPoly, "__mul__", spy)
    # (2^9999)^9999 would have a 99,980,002-bit coefficient
    with pytest.raises(PolyParseError) as err:
        parse("(2^9999)^9999")
    assert err.value.pos == 9  # the outer exponent
    assert seen[0] == 10 ** 4  # only 2^9999 itself was built
    # each factor is within the bound, their product is not
    with pytest.raises(PolyParseError) as err:
        parse("(2^9999)^60 * (2^9999)^60")
    assert err.value.pos == 12  # the "*"
    assert seen[0] == 599941  # only the in-bound powers ran


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


@pytest.mark.parametrize("key", [(F(3, 2), 0), (2.7, 1), (-1, 0), (0, -1),
                                 (True, 0), (0, False)],
                         ids=["fraction", "float", "negative-x",
                              "negative-y", "bool-x", "bool-y"])
def test_invalid_exponents_raise(key):
    # never truncated or wrapped: (3/2, 0) used to be x, (2.7, 1) x^2*y,
    # (-1, 0) printed as 1, (0, -1) failed inside eval_leading, and
    # (True, 0) was x
    with pytest.raises(ValueError, match="non-negative ints"):
        BivarPoly({key: 1})
    with pytest.raises(ValueError, match="non-negative ints"):
        BivarPoly([((0, 0), 1), (key, 1)])


def test_float_coefficient_raises():
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    with pytest.raises(ValueError, match="float"):
        BivarPoly({(0, 0): 0.1})
    with pytest.raises(ValueError, match="float"):
        BivarPoly([((1, 0), 1), ((0, 1), 2.0)])


def test_bool_coefficient_raises():
    # True is an int to Python; as a coefficient it is refused, not read as 1
    with pytest.raises(ValueError, match="is a bool, not an exact rational"):
        BivarPoly({(0, 0): True})
    with pytest.raises(ValueError, match="is a bool, not an exact rational"):
        BivarPoly([((1, 0), 1), ((0, 1), False)])


def test_string_coefficients_read_as_ints_or_p_over_q():
    # a str coefficient is read by exactnum.rat, as an int or "p/q": never
    # as a decimal, which Fraction would take ("2.5" as 5/2), and never
    # with more digits than int() reads, which raise valmon's own message
    assert BivarPoly({(0, 0): "3/4", (1, 0): " -2 "}) == parse("3/4 - 2*x")
    for text in ("2.5", "1e-1", "0x10", "1/2/3"):
        with pytest.raises(ValueError):
            BivarPoly({(0, 0): text})
    with pytest.raises(ValueError, match="^more than 4300 digits"):
        BivarPoly({(0, 0): "7" * 5000})


def test_float_scale_raises():
    with pytest.raises(ValueError, match="float"):
        parse("y").scale(0.1)
    assert parse("y").scale("1/10") == parse("1/10*y")


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
    if name == "signed":
        # negative and non-integral coefficients: fields of the packed
        # power tables decode to both signs
        prefix = [(-1, F(1, 2)), (F(3, 2), F(1, 4))]
        return SimpleSeriesSpec(prefix, GeometricTail(2)), 6, None
    if name == "wide-gap":
        # scaled exponents 15 and 1 at N = 2: most fields of the power
        # tables are zero
        prefix = [(1, F(1, 2)), (3, F(1, 30))]
        return SimpleSeriesSpec(prefix, GeometricTail(2)), 4, None
    exps = [F(2), F(3, 2), F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)]
    return SimpleSeriesSpec([(1, e) for e in exps]), 4, len(exps)


@pytest.mark.parametrize("name", ["dyadic", "triadic", "harmonic", "rational",
                                  "finite7", "mixed-denominators", "signed",
                                  "wide-gap"])
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


def test_exact_truncation_stops_at_the_no_jump_guard():
    # the ramification index stops at 2^21 after three terms, so no depth
    # resolves y-degree 2^21; the pull gives up without caching a table
    from valmon.series import CallbackTail
    spec = SimpleSeriesSpec(
        [(1, F(1, 2))], CallbackTail(lambda i: (1, F(2**20 - i, 2**21))))
    ctx = MonoidContext(spec, 2)
    with pytest.raises(InsufficientPrecision,
                       match="no ramification jump within 1024 terms"):
        eval_leading(BivarPoly.monomial(1, 0, 2**21), ctx)
    assert not any(key[0] == "zpow" for key in ctx.cache)


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
    [(F(3, 2), F(2, 3)), (F(3, 4), -5), (F(1, 8), F(3, 2))],          # R = 8
    [(F(5, 4), F(2, 3)), (F(3, 8), -5), (F(1, 16), F(3, 2))],         # R = 16
])
def test_min_poly_matches_conjugate_product(terms):
    w = FinitePuiseux(terms)
    p = min_poly_finite_puiseux(w)
    assert p == _conjugate_product(w)
    assert p.deg_y() == w.ram_index
    assert p.coeffs[(0, w.ram_index)] == 1


def test_square_norm_step_matches_cyclic_step(monkeypatch):
    # every p = 2 step of the tower, E^2 - v^2 O^2 on the dense grid, read
    # through the grid's dict view, against the Z[C_2] product of F(v) and
    # F(-v) on the same input: the dyadic truncations up to R = 64, and
    # R = 20 and R = 36, where p = 2 steps follow the odd steps on their
    # output
    square, cyclic = bipoly._square_norm_step, bipoly._cyclic_norm_step
    view = bipoly._grid_dict
    primes = []

    def checked_square(grid, ny):
        out = square(grid, ny)
        assert view(*out) == cyclic(view(grid, ny), 2)
        primes.append(2)
        return out

    def recorded_cyclic(poly, p):
        primes.append(p)
        return cyclic(poly, p)

    monkeypatch.setattr(bipoly, "_square_norm_step", checked_square)
    monkeypatch.setattr(bipoly, "_cyclic_norm_step", recorded_cyclic)
    cases = [FinitePuiseux.from_series(truncate(dyadic_spec(), k))
             for k in range(1, 7)]
    cases += [FinitePuiseux([(F(1, 2), F(2, 3)), (F(3, 10), -5),
                             (F(1, 20), F(3, 2))]),
              FinitePuiseux([(F(2, 3), F(2, 3)), (F(1, 4), -5),
                             (F(1, 36), F(3, 2))])]
    towers = []
    for w in cases:
        del primes[:]
        assert min_poly_finite_puiseux(w).deg_y() == w.ram_index
        towers.append((w.ram_index, tuple(primes)))
    assert towers == [(2 ** k, (2,) * k) for k in range(1, 7)] + [
        (20, (5, 2, 2)), (36, (3, 3, 2, 2))]


def _step_input(rng, terms, ks, ds, bits):
    """{(v-exponent, y-degree): int} with up to `terms` terms at exponents
    drawn from ks and ds, nonzero coefficients of either sign up to
    2^bits."""
    return {(rng.choice(ks), rng.choice(ds)):
            rng.choice((-1, 1)) * rng.randint(1, 2 ** bits)
            for _ in range(terms)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_cyclic_norm_step_matches_the_group_ring_reference(p):
    # seeded inputs against the term-by-term product of all p conjugates
    # in Z[C_p]: single terms, inputs with empty classes of v-exponents
    # mod p, and coefficients past 2^64 of either sign
    rng = random.Random(1000 + p)
    cases = [{(rng.randint(0, 3 * p), rng.randint(0, 3)): c}
             for c in (1, -1, 7, -(2 ** 70) - 3)]
    for _ in range(12):
        ks = range(rng.randint(1, 2 * p))
        cases.append(_step_input(rng, rng.randint(1, 6), ks, range(4),
                                 rng.choice((3, 40, 90))))
    for r in sorted({0, 1, p // 2, p - 1}):
        # only the classes 0 and r, or only class r, hold v-exponents
        cases.append(_step_input(rng, 6, [0, p, 2 * p, r, p + r], range(3),
                                 70))
        cases.append(_step_input(rng, 4, [r, p + r, 3 * p + r], range(3),
                                 70))
    for poly in cases:
        assert bipoly._cyclic_norm_step(poly, p) == group_ring_norm_step(
            poly, p), (p, poly)


@pytest.mark.parametrize("p, terms, ks", [(3, 80, 24), (5, 60, 20)])
def test_cyclic_norm_step_packs_a_large_dense_input(monkeypatch, p, terms,
                                                    ks):
    # a dense F whose products, of the zeta-coordinates and of the classes,
    # take _accumulate's packed branch, every packed operand at least 10%
    # nonzero
    packed = []
    product = bipoly._product

    def spy(a, b):
        packed.append(len(a) * len(b))
        for operand in (a, b):
            assert 10 * sum(map(bool, operand)) >= len(operand), (
                p, len(operand))
        return product(a, b)

    monkeypatch.setattr(bipoly, "_product", spy)
    rng = random.Random(77 + p)
    poly = _step_input(rng, terms, range(ks), range(4), 70)
    assert bipoly._cyclic_norm_step(poly, p) == group_ring_norm_step(poly, p)
    assert packed


def test_cyclic_norm_step_certificate(monkeypatch):
    # a stray v term in the first coordinate product, which the last twist
    # moves to coordinate 2, breaks h_1 = h_2
    accumulate, calls = bipoly._accumulate, []

    def stray(acc, *args):
        den = accumulate(acc, *args)
        if not calls:
            acc[1, 0] = acc.get((1, 0), 0) + 1  # v^1 y^0
        calls.append(args)
        return den

    monkeypatch.setattr(bipoly, "_accumulate", stray)
    with pytest.raises(InternalError, match="not rational"):
        bipoly._cyclic_norm_step({(0, 1): 1, (1, 0): -1}, 3)


def test_dyadic_p7(ctx):
    p7 = truncation_min_poly(ctx, 7)
    assert p7.deg_y() == 64
    assert eval_leading(p7, ctx).le == ctx.seqs.rho(7)


@pytest.mark.parametrize("name,top", [("dyadic", 7), ("triadic", 4),
                                      ("harmonic", 5),
                                      ("mixed-denominators", 4)])
def test_truncation_min_poly_matches_the_public_norm(monkeypatch, name, top):
    # the oracle is the public path, min_poly_finite_puiseux of the spec
    # truncated to l(j) - 1 terms; production hands the spec's own exact
    # terms to the norm tower and builds no series on the way
    spec, depth, _ = _oracle_spec(name)
    built = []
    init = NoetherianSeries.__init__

    def spy(self, terms=()):
        built.append(self)
        init(self, terms)

    monkeypatch.setattr(NoetherianSeries, "__init__", spy)
    ctx = MonoidContext(spec, max(depth, top))
    for j in range(1, top + 1):
        del built[:]
        got = truncation_min_poly(ctx, j)
        assert built == [], (name, j)
        want = min_poly_finite_puiseux(truncate(spec, ctx.seqs.l(j) - 1))
        assert built, (name, j)
        assert got == want, (name, j)


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
        # LE from the representation, LC from the digit vector's record
        composed = (rep_value(rep, ctx), preimage_product(rep.digits, ctx)[1])
        direct = eval_leading(preimage_of_rep(rep, ctx), ctx)
        assert composed == (direct.le, direct.lc)


def _convolved_powers(zterms, b_max):
    """The coefficients of (d*z_N)^b for b <= b_max at every scaled exponent
    from b*e_min to b*e_max, each power convolved with z_N's terms one pair
    at a time: the dict construction that _ZPow.pow's packed shifted adds
    replaced."""
    low, lead = zterms[-1][0], zterms[0][0]
    terms = {0: 1}
    pows = [(1,)]
    for b in range(1, b_max + 1):
        acc = {}
        for e1, c1 in terms.items():
            for e2, c2 in zterms:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        terms = {e: c for e, c in acc.items() if c}
        pows.append(tuple(terms.get(e, 0)
                          for e in range(b * low, b * lead + 1)))
    return pows


def _table_powers(zp):
    """Every power the table holds, read back from its packed rows: each
    row is the two's-complement bytes of one packed int of b*span + 1
    fields."""
    width, rows = zp.table
    span = zp.lead - zp.low
    out = []
    for b, row in enumerate(rows):
        assert len(row) == (b * span + 1) * width
        packed = int.from_bytes(row, "little", signed=True)
        out.append(tuple(_unpack(packed, b * span + 1, width)))
    return out


@pytest.mark.parametrize("name, b_max", [
    ("dyadic", 64), ("triadic", 80), ("harmonic", 59), ("rational", 63),
    ("mixed-denominators", 63), ("signed", 63), ("wide-gap", 29)])
def test_packed_power_tables_match_convolution(name, b_max):
    # each stage extends the table, rebuilding it wider when |d*z_N|_1^b
    # outgrows its width; a request of larger bound then rebuilds it wider
    # still, with the same powers
    spec = _oracle_spec(name)[0]
    zp = _ZPow(_exact_truncation(spec, b_max))
    if name == "dyadic":
        assert zp.depth == 7
    if name == "mixed-denominators":
        assert zp.den == 6
    if name == "signed":
        assert any(c < 0 for _, c in zp.zterms)
    widths = []
    for b in (3, 10, b_max):
        zp.rows(b)
        widths.append(zp.table[0])
        assert len(zp.table[1]) == b + 1
    # the width follows the powers: the least that holds the top one,
    # or a cast width of at most 8 bytes
    least = bipoly._width(zp.norm ** b_max)
    assert least == widths[-1] or least < widths[-1] <= 8
    assert zp.norm ** b_max < 1 << 8 * widths[-1] - 2
    want = _convolved_powers(zp.zterms, b_max)
    assert _table_powers(zp) == want
    if name == "wide-gap":
        assert sum(map(bool, want[b_max])) == b_max + 1
    # a narrower request reads the table as it is
    table = zp.table
    zp.rows(3, 2)
    assert zp.table is table
    bound = 1 << 8 * widths[-1]
    zp.rows(10, bound)
    width = zp.table[0]
    assert widths == sorted(widths) and width > widths[-1]
    assert bound < 1 << 8 * width - 2
    assert _table_powers(zp) == want


def _oracle_window(work, zp, pows, lo, hi):
    """Entries lo <= e < hi of sum w * x^shift * (d*z_N)^b over the work
    list, each weight summed from its digits when it is cut into them,
    placed from the convolved powers one entry at a time."""
    step, terms = work
    out = [0] * max(hi - lo, 0)
    for shift, b, w in terms:
        if step:
            w = sum(c << k * step for k, c in enumerate(w))
        for k, c in enumerate(pows[b]):
            if lo <= shift + b * zp.low + k < hi:
                out[shift + b * zp.low + k - lo] += w * c
    return out


@pytest.mark.parametrize("name", ["signed", "mixed-denominators", "wide-gap"])
def test_scan_windows_match_oracle_image(name):
    # windows that cut a monomial's row at its start, at its end, inside
    # it, around it, or miss it; weights too large for the table's width
    # are cut into digits, and a table rebuilt wider between scans still
    # serves a work list prepared before
    rng = random.Random(29)
    spec = _oracle_spec(name)[0]
    zp = _ZPow(_exact_truncation(spec, 12))
    pows = _convolved_powers(zp.zterms, 12)
    terms = {(rng.randint(0, 3), rng.randint(0, 12)): rng.randint(-9, 9) or 1
             for _ in range(12)}
    small = BivarPoly({**terms, (0, 12): 1})
    big = BivarPoly({k: v * (3 ** 200 + 1) for k, v in small.coeffs.items()})

    def check_windows(work):
        windows = [(3, 3), (0, 1), (-1, 2)]
        for shift, b, _ in work[1]:
            start = shift + b * zp.low
            stop = start + len(pows[b])
            windows += [(start - 1, start + 2), (start, start + 1),
                        (stop - 2, stop + 1), (stop - 1, stop),
                        (start + 1, stop - 1), (start - 3, stop + 3)]
        windows += [(lo, lo + rng.randint(1, 40))
                    for lo in rng.sample(range(12 * zp.lead), 20)]
        for lo, hi in windows:
            assert bipoly._scan(work, zp, lo, hi) == _oracle_window(
                work, zp, pows, lo, hi), (lo, hi)

    widths, steps = [], []
    for f in (small, big, small):
        work, _ = bipoly._prepare(f, zp, 12)
        widths.append(zp.table[0])
        steps.append(work[0])
        check_windows(work)
    big_work, _ = bipoly._prepare(big, zp, 12)
    # big's weights are 2^64 times its monomial count and more, so it
    # widens the table only that far, not to the width one pass would need
    one_pass = sum(abs(w) for _, _, w in work[1]) * (3 ** 200 + 1)
    assert widths[0] < widths[1] == widths[2]
    assert widths[1] < bipoly._width(one_pass * zp.norm ** 12)
    assert steps[0] == steps[2] == 0 < steps[1]
    assert all(len(digits) > 1 for _, _, digits in big_work[1])
    zp.rows(12, 1 << 8 * widths[0])
    assert zp.table[0] > widths[0]
    check_windows(work)
    check_windows(big_work)


@pytest.mark.parametrize("width", range(1, 18))
def test_unpack_cast_path_matches_from_bytes_path(width, monkeypatch):
    # _pack and _unpack at every field width from 1 to 17 bytes, against
    # sum a_i * 2^(W*i) and against the field-by-field read that runs with
    # _CAST empty, as on a big-endian machine, for few fields and for more
    # than _STRIDED_FIELDS: fields at the bound every packed sum keeps,
    # 2^(W-2) - 1, and at the extremes _unpack allows, 2^(W-1) - 1, of both
    # signs
    assert (width in bipoly._CAST) == (sys.byteorder == "little"
                                       and width in (1, 2, 4, 8))
    rng = random.Random(width)
    edge, top = (1 << 8 * width - 2) - 1, (1 << 8 * width - 1) - 1
    fields = [edge, -edge, 0, 1, -1, edge, edge, -edge, -edge, top, -top]
    fields += [rng.randint(-edge, edge) for _ in range(200)]
    for n in (1, 2, len(fields)):
        want = sum(c << 8 * width * i for i, c in enumerate(fields[:n]))
        packed = bipoly._pack(fields[:n], width)
        cast = _unpack(packed, n, width)
        with monkeypatch.context() as m:
            m.setattr(bipoly, "_CAST", {})
            assert bipoly._pack(fields[:n], width) == packed == want
            assert _unpack(packed, n, width) == cast == fields[:n]


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _product_cases():
    rng = random.Random(53)
    for _ in range(300):
        bits = rng.choice((3, 8, 40, 200))
        yield tuple([rng.randint(-2 ** bits, 2 ** bits)
                     for _ in range(rng.randint(0, 12))]
                    for _ in range(2))
    # |a|_1 |b|_1 exactly a power of two, on either side of a whole byte
    # (bit_length + 2 = 8, 9, 16, 17, 64, 65 bits), attained by one-entry
    # lists and spread over longer ones, with every sign pattern
    for k in (5, 6, 13, 14, 61, 62):
        for sa in (1, -1):
            for sb in (1, -1):
                yield [sa * 2 ** (k - 2)], [sb * 4]
                yield [sa * 2 ** (k - 3), sb * 2 ** (k - 3)], [2, sa * 2]
                yield [-sb * 2 ** (k - 4)] * 4, [sa] * 2 + [-sa] * 2
    yield [], []
    yield [], [3]
    yield [5], []
    yield [7], [-11]
    yield [0], [4, 0, -4]
    yield [0, 0], [0]
    yield [0], [2 ** 70]  # a zero product beside an entry of 71 bits
    yield [-1], [2 ** 70, -3, 0]


def test_product_matches_schoolbook():
    for a, b in _product_cases():
        assert _product(a, b) == _schoolbook(a, b)


def test_product_square_matches_schoolbook():
    # b is a: one packed list, multiplied by itself
    for a, _ in _product_cases():
        assert _product(a, a) == _schoolbook(a, a)


def _width_cases(width, rng):
    """Pairs of lists, squares among them, whose product _product packs
    at exactly width bytes a field: short ones, read field by field, and
    long ones, whose products have enough fields for the strided read."""
    cases = []
    while len(cases) < 12:
        n, m = (rng.randint(1, 9) if len(cases) % 2 else rng.randint(64, 80)
                for _ in range(2))
        bits = rng.randint(max(1, 4 * width - 14), 4 * width)
        a = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)]
        b = a if len(cases) % 3 == 0 else [
            rng.randint(-2 ** bits, 2 ** bits) for _ in range(m)]
        bound = sum(map(abs, a)) * sum(map(abs, b))
        if bound and bipoly._width(bound) == width:
            cases.append((a, b))
    assert max(len(a) + len(b) - 1 for a, b in cases) >= (
        bipoly._STRIDED_FIELDS)
    return cases


@pytest.mark.parametrize("width", [3, 5, 6, 7, *range(9, 17)])
def test_product_matches_schoolbook_at_every_slot_width(width):
    # the widths up to 16 bytes that no memoryview format reads: 3, 5, 6
    # and 7 bytes, spread into 8-byte slots where the product has enough
    # fields and read field by field where it has few, and 9 to 16 bytes,
    # read field by field
    for a, b in _width_cases(width, random.Random(100 + width)):
        assert _product(a, b) == _schoolbook(a, b), (width, a, b)


def _spy_contexts(monkeypatch):
    """The precisions of the decimal contexts _product makes from now on;
    the C module, when it is missing, skips the test."""
    decimal = pytest.importorskip("_decimal")
    made, context = [], decimal.Context

    def spy(*args, **kwargs):
        made.append(kwargs["prec"])
        return context(*args, **kwargs)

    monkeypatch.setattr(decimal, "Context", spy)
    return made


def _large_pair(rng, bits, n, m):
    return ([rng.randint(-2 ** bits, 2 ** bits) for _ in range(n)],
            [rng.randint(-2 ** bits, 2 ** bits) for _ in range(m)])


def test_decimal_product_matches_the_int_product(monkeypatch):
    # above the threshold, products and squares of either sign pattern,
    # with zero runs, against the int route of the same multiply
    made = _spy_contexts(monkeypatch)
    rng = random.Random(61)
    a, b = _large_pair(rng, 60, 4000, 1700)
    a[100:400] = [0] * 300
    b[-1] = 0
    c = _large_pair(rng, 500, 700, 0)[0]
    pairs = [(a, b), (b, a), (a, a), ([abs(v) for v in a], [-1, 0, 2]),
             (c, c)]
    got = [_product(x, y) for x, y in pairs]
    assert len(made) == len(pairs)
    monkeypatch.setattr(bipoly, "_DECIMAL_BITS", 1 << 62)
    assert got == [_product(x, y) for x, y in pairs]
    assert len(made) == len(pairs)
    # one-byte fields: one below the threshold the int route runs
    monkeypatch.undo()
    made = _spy_contexts(monkeypatch)
    short = [7] + [0] * (bipoly._DECIMAL_BITS // 8 - 2)
    negated = [-7] + short[1:]
    assert _product(short, [-1]) == negated and made == []
    assert _product(short + [0], [-1]) == negated + [0] and len(made) == 1


def test_decimal_product_traps_a_field_that_does_not_fit(monkeypatch):
    # with k one digit short, c + h overflows the top field of the sum,
    # which then needs one digit more than the context's precision
    decimal = pytest.importorskip("_decimal")
    n = bipoly._DECIMAL_BITS // 8
    a = [0] * (n - 1) + [99999]
    assert _product(a, a)[-1] == 99999 ** 2
    digits = bipoly._field_digits
    monkeypatch.setattr(bipoly, "_field_digits", lambda b: digits(b) - 1)
    with pytest.raises(decimal.Rounded):
        _product(a, a)


def test_decimal_route_falls_back_to_ints(monkeypatch):
    # a field past the digits int() reads, and a missing C module, take
    # the int route above the threshold; where int() reads any length
    # (before Python 3.10.7, or with the limit set to 0) the wide fields
    # take the decimal route
    made = _spy_contexts(monkeypatch)
    rng = random.Random(67)
    wide = _large_pair(rng, 7200, 20, 20)
    bound = sum(map(abs, wide[0])) * sum(map(abs, wide[1]))
    cap = getattr(sys, "get_int_max_str_digits", int)()
    assert bipoly._field_digits(bound) > 4300
    assert 8 * bipoly._width(bound) * 20 >= bipoly._DECIMAL_BITS
    assert _product(*wide) == _schoolbook(*wide)
    assert len(made) == (0 if 0 < cap < bipoly._field_digits(bound) else 1)
    made.clear()
    narrow = _large_pair(rng, 60, 2000, 30)
    want = _schoolbook(*narrow)
    decimal = sys.modules["_decimal"]
    monkeypatch.setitem(sys.modules, "_decimal", None)
    assert _product(*narrow) == want and made == []
    monkeypatch.setitem(sys.modules, "_decimal", decimal)
    assert _product(*narrow) == want and len(made) == 1


def test_product_band_matches_schoolbook():
    # two images complete from their floors, top terms last: every band
    # [lo, hi) up to the product's top, lo below zero and below the two
    # floors' sum included
    rng = random.Random(59)
    for a, b in _product_cases():
        if not a or not b or not a[-1] or not b[-1]:
            continue
        pf, qf = rng.randint(0, 5), rng.randint(0, 5)
        full = _schoolbook(a, b)
        start, top = pf + qf, pf + qf + len(full) - 1
        for lo in range(-2, top + 2):
            for hi in range(lo, top + 2):
                want = tuple(full[e - start] if e >= start else 0
                             for e in range(lo, hi))
                assert _product_band((pf, a), (qf, b), lo, hi) == want


@pytest.mark.parametrize("spec, depth, top", [
    (dyadic_spec(), 8, 6), (_oracle_spec("harmonic")[0], 4, 4)],
    ids=["dyadic", "harmonic"])
def test_preimage_products_per_digit_vector(spec, depth, top):
    # x^n * prod p_j^(d_j) shares one product per digit vector across n;
    # either n may be asked first in a fresh context
    seqs = MonoidContext(spec, depth).seqs
    rng = random.Random(31)
    vectors = {tuple(rng.randrange(seqs.s(j)) for j in range(1, top + 1))
               for _ in range(6)}
    for positive_first in (True, False):
        fresh = MonoidContext(spec, depth)
        for digits in sorted(vectors):
            n = rng.randint(1, 4)
            reps = [MonoidRep(n, digits), MonoidRep(0, digits)]
            for rep in reps if positive_first else reps[::-1]:
                want = BivarPoly.monomial(1, rep.n, 0)
                for j, d in enumerate(rep.digits, start=1):
                    want = want * truncation_min_poly(fresh, j) ** d
                got = preimage_of_rep(rep, fresh)
                assert got == want
                composed = (rep_value(rep, fresh),
                            preimage_product(rep.digits, fresh)[1])
                direct = eval_leading(got, fresh)
                assert composed == (direct.le, direct.lc)


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
