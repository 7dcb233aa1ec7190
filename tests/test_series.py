import random
from fractions import Fraction

import pytest

from cyclotomic import as_rational, conjugate
from valmon.errors import InsufficientPrecision, InvalidSpec
from valmon.series import (FinitePuiseux, GeometricTail, NoetherianSeries,
                           SimpleSeriesSpec, agreement_order, dyadic_spec,
                           leading_data, series_add, series_mul, truncate)

F = Fraction


def S(*terms):
    return NoetherianSeries(tuple((F(e), F(c)) for e, c in terms))


Z1 = S(("1/2", 1), ("1/4", 1), ("1/8", 1))
Z2 = S((1, 3), (0, 1))


def test_sum_matches_displayed_expansion():
    total = series_add(Z1, Z2)
    assert total == S((1, 3), ("1/2", 1), ("1/4", 1), ("1/8", 1), (0, 1))


def test_product_matches_displayed_expansion():
    prod = series_mul(Z1, Z2)
    assert prod == S(("3/2", 3), ("5/4", 3), ("9/8", 3),
                     ("1/2", 1), ("1/4", 1), ("1/8", 1))


def test_additive_identity_and_cancellation():
    assert series_add(Z1, NoetherianSeries.zero()) == Z1
    t_half = S(("1/2", 1))
    assert series_add(t_half, S(("1/2", -1))).is_zero()


def test_multiplicative_identity_and_squares():
    one = S((0, 1))
    assert series_mul(Z1, one) == Z1
    assert series_mul(S(("1/2", 1)), S(("1/2", 1))) == S((1, 1))


def test_leading_data():
    z = S(("1/2", 2), ("1/3", 3), ("1/4", 4))
    assert leading_data(z) == (F(1, 2), F(2))
    assert leading_data(S((1, 1))) == (F(1), F(1))
    assert leading_data(Z2) == (F(1), F(3))


def test_leading_data_of_zero_raises():
    with pytest.raises(Exception):
        leading_data(NoetherianSeries.zero())


def _random_series(rng):
    n = rng.randint(1, 5)
    exps = rng.sample(range(-6, 12), n)
    return NoetherianSeries(
        (F(e, rng.randint(1, 4)), F(rng.randint(-5, 5) or 1))
        for e in exps)


def test_le_lc_multiplicative_and_triangle():
    rng = random.Random(11)
    for _ in range(100):
        a, b = _random_series(rng), _random_series(rng)
        if a.is_zero() or b.is_zero():
            continue
        ea, ca = leading_data(a)
        eb, cb = leading_data(b)
        prod = series_mul(a, b)
        assert leading_data(prod) == (ea + eb, ca * cb)
        tot = series_add(a, b)
        if not tot.is_zero():
            et, _ = leading_data(tot)
            assert et <= max(ea, eb)
            if ea != eb:
                assert et == max(ea, eb)


def test_term_list_invariants_after_ops():
    rng = random.Random(13)
    for _ in range(60):
        a, b = _random_series(rng), _random_series(rng)
        for s in (series_add(a, b), series_mul(a, b)):
            exps = [e for e, _ in s.terms]
            assert exps == sorted(exps, reverse=True)
            assert all(c != 0 for _, c in s.terms)


def test_agreement_order():
    a = S(("1/2", 1), ("1/4", 1), ("1/8", 1))
    assert agreement_order(a, a) == 3
    b = S(("1/2", 1), ("1/4", 2))
    assert agreement_order(S(("1/2", 1), ("1/4", 1)), b) == 1
    assert agreement_order(S(("1/2", 1), ("1/4", 1)), a) == 2


def test_truncate_dyadic():
    assert truncate(dyadic_spec(), 3) == Z1
    assert truncate(dyadic_spec(), 0).is_zero()


def test_truncate_finite_spec_errors():
    spec = SimpleSeriesSpec([(1, F(1, 2)), (1, F(1, 3))])
    with pytest.raises(InsufficientPrecision):
        truncate(spec, 5)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        SimpleSeriesSpec([(0, F(1, 2))])
    with pytest.raises(InvalidSpec):
        SimpleSeriesSpec([(1, F(-1, 2))])
    with pytest.raises(InvalidSpec):
        SimpleSeriesSpec([(1, F(1, 2)), (1, F(3, 4))])
    with pytest.raises(InvalidSpec):
        SimpleSeriesSpec([])
    with pytest.raises(InvalidSpec):
        SimpleSeriesSpec([(1, 1)], GeometricTail(1))


def test_string_spec_terms_read_as_ints_or_p_over_q():
    # a str is read as an int or "p/q" (exactnum.rat), never as a decimal
    # such as "1e-1" or "0.5", which Fraction would read as 1/10 or 1/2
    assert SimpleSeriesSpec([("2", "1/2")]).term(1) == (F(2), F(1, 2))
    for term in (("1e-1", "1/2"), ("1", "0.5"), ("1", "9" * 5000)):
        with pytest.raises(InvalidSpec):
            SimpleSeriesSpec([term])
    with pytest.raises(InvalidSpec, match="^more than 4300 digits"):
        SimpleSeriesSpec([("1", "1/" + "9" * 5000)])


def test_float_in_spec_prefix_raises():
    # Fraction(0.1) would give an exponent with denominator 2^55
    with pytest.raises(InvalidSpec, match="float"):
        SimpleSeriesSpec([(1, 0.1)])
    with pytest.raises(InvalidSpec, match="float"):
        SimpleSeriesSpec([(0.5, F(1, 2))])


@pytest.mark.parametrize("term", [(True, F(1, 2)), (1, True), (False, 1)],
                         ids=["c", "e", "zero-c"])
def test_bool_in_spec_prefix_raises(term):
    # True would be read as 1 and False as 0
    with pytest.raises(InvalidSpec, match="is a bool, not an exact rational"):
        SimpleSeriesSpec([term])
    c, e = term
    with pytest.raises(InvalidSpec, match="^malformed spec JSON: .* bool"):
        SimpleSeriesSpec.from_json({"prefix": [{"c": c, "e": e}]})


def test_spec_json_round_trip():
    spec = dyadic_spec()
    data = spec.to_json()
    assert data == {"prefix": [{"c": "1", "e": "1/2"}],
                    "tail": {"kind": "geometric", "base": 2}}
    again = SimpleSeriesSpec.from_json(data)
    assert truncate(again, 5) == truncate(spec, 5)
    finite = SimpleSeriesSpec.from_json(
        {"prefix": [{"c": "2", "e": "1"}], "tail": {"kind": "none"}})
    assert truncate(finite, 1) == S((1, 2))


@pytest.mark.parametrize("base", [2.0, "1e1", "2.0", 2.5, None])
def test_geometric_base_is_read_exactly(base):
    # the base is a spec number, read by rat like the prefix: a float is
    # refused, never read as the integer it equals, and so is "1e1"
    data = {"prefix": [{"c": "1", "e": "1/2"}],
            "tail": {"kind": "geometric", "base": base}}
    with pytest.raises(InvalidSpec, match="^malformed spec JSON"):
        SimpleSeriesSpec.from_json(data)


@pytest.mark.parametrize("base,want", [(2, 2), ("2", 2), (" 3 ", 3),
                                       ("4/2", 2)])
def test_geometric_base_accepts_exact_integers(base, want):
    spec = SimpleSeriesSpec.from_json(
        {"prefix": [{"c": "1", "e": "1/2"}],
         "tail": {"kind": "geometric", "base": base}})
    assert spec.tail.base == want
    assert spec.to_json()["tail"] == {"kind": "geometric", "base": want}
    assert SimpleSeriesSpec.from_json(spec.to_json()).to_json() == \
        spec.to_json()


def test_spec_number_past_the_digit_cap_is_invalid():
    data = {"prefix": [{"c": "1/" + "9" * 5_000, "e": "1/2"}]}
    with pytest.raises(InvalidSpec, match="more than 4300 digits"):
        SimpleSeriesSpec.from_json(data)


def test_conjugate_half():
    w = FinitePuiseux([(F(1, 2), 1)])
    assert conjugate(w, 1) == S(("1/2", -1))
    assert conjugate(w, 0) == S(("1/2", 1))


def test_conjugate_out_of_range():
    w = FinitePuiseux([(F(1, 2), 1)])
    with pytest.raises(ValueError):
        conjugate(w, 2)


def test_conjugate_mixed_denominators():
    # R = 6; the half-integer term flips sign at j = 3, the third does not
    w = FinitePuiseux([(F(1, 2), 1), (F(1, 3), 1)])
    assert w.ram_index == 6
    got = conjugate(w, 3)
    assert got == S(("1/2", -1), ("1/3", 1))


def test_conjugate_product_is_rational():
    w = FinitePuiseux([(F(1, 2), 1), (F(1, 4), 1)])
    assert w.ram_index == 4
    prod = conjugate(w, 0)
    for j in range(1, w.ram_index):
        prod = series_mul(prod, conjugate(w, j))
    for _, c in prod.terms:
        assert as_rational(c) is not None


def test_finite_puiseux_validation():
    with pytest.raises(InvalidSpec):
        FinitePuiseux([(F(-1, 2), 1)])
    assert FinitePuiseux([]).is_zero()


def test_float_in_finite_puiseux_raises():
    with pytest.raises(InvalidSpec, match="float"):
        FinitePuiseux([(0.5, 1)])


def test_callback_tail():
    from valmon.series import CallbackTail
    spec = SimpleSeriesSpec(
        [(1, F(1, 2))],
        CallbackTail(lambda i: (1, F(1, i + 2))))
    got = truncate(spec, 4)
    assert got == S(("1/2", 1), ("1/3", 1), ("1/4", 1), ("1/5", 1))


def test_callback_tail_must_stay_valid():
    from valmon.series import CallbackTail
    growing = SimpleSeriesSpec([(1, F(1, 2))],
                               CallbackTail(lambda i: (1, F(2))))
    with pytest.raises(InvalidSpec):
        truncate(growing, 2)
    zeroes = SimpleSeriesSpec([(1, F(1, 2))],
                              CallbackTail(lambda i: (0, F(1, 4))))
    with pytest.raises(InvalidSpec):
        truncate(zeroes, 2)


@pytest.mark.parametrize("e,valid", [
    (F(1, 2), False), (F(500001, 1000000), False), (F(0), False),
    (F(-1, 3), False), (F(499999, 1000000), True), (F(1, 3), True)])
def test_tail_exponents_are_checked_exactly(e, valid):
    # a tail term must fall strictly below the one before it and stay
    # positive, compared exactly, on numerators and denominators
    from valmon.series import CallbackTail
    spec = SimpleSeriesSpec([(1, F(1, 2))], CallbackTail(lambda i: (1, e)))
    if valid:
        assert spec.term(2) == (1, e)
    else:
        with pytest.raises(InvalidSpec, match="tail produced invalid term"):
            spec.term(2)


@pytest.mark.parametrize("i", [0, -1, -5, True, False, 2.0, "1", None])
def test_term_index_must_be_an_int_of_at_least_one(i):
    # an index below 1 once read the generated tuple from its end
    spec = dyadic_spec()
    for fresh in (True, False):
        with pytest.raises(ValueError, match="term index must be an int"):
            spec.term(i)
        if fresh:
            assert spec.term(5) == (1, F(1, 32))
    assert spec.term(1) == (1, F(1, 2))
    assert [spec.term(k)[1] for k in range(1, 7)] == [
        F(1, 2 ** k) for k in range(1, 7)]


def test_float_in_callback_tail_raises():
    from valmon.series import CallbackTail
    for term in ((1, 1 / 4), (0.5, F(1, 4))):
        spec = SimpleSeriesSpec([(1, F(1, 2))],
                                CallbackTail(lambda i, term=term: term))
        with pytest.raises(InvalidSpec, match="float"):
            truncate(spec, 2)


def test_float_exponent_in_series_raises():
    # 0.1 is not 1/10 but 3602879701896397/36028797018963968; the exponent
    # is refused rather than read as that binary fraction
    for make in (lambda: NoetherianSeries([(0.1, 1)]),
                 lambda: NoetherianSeries.monomial(1, 0.5)):
        with pytest.raises(ValueError, match="float"):
            make()
    assert NoetherianSeries([("1/10", 1)]).terms == ((F(1, 10), 1),)


def test_bool_exponent_in_series_raises():
    for make in (lambda: NoetherianSeries([(True, 1)]),
                 lambda: NoetherianSeries.monomial(1, False),
                 lambda: FinitePuiseux([(True, 1)])):
        with pytest.raises((ValueError, InvalidSpec), match="bool"):
            make()
