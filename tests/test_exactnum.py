import random
from fractions import Fraction
from math import gcd

import pytest

from cyclotomic import (CyclotomicElement, as_rational, cyclotomic_modulus,
                        euler_phi)
from valmon.errors import InvalidSpec
from valmon.exactnum import _exact, rat, rat_str


def test_rat_parsing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == Fraction(-2)
    assert rat("5") == Fraction(5)
    assert rat(7) == Fraction(7)
    assert rat(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("text", ["1/0", "-3/0", " 7/00 ", "0/0"])
def test_rat_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        rat(text)


def test_rat_digit_cap_holds_for_p_and_q_apart():
    # int() reads at most 4,300 decimal digits; rat refuses more in p or
    # in q with its own message, and counts digits only, not sign or space
    cap = "9" * 4300
    assert rat(f" -{cap}/{cap} ") == Fraction(-1)
    for text in (cap + "9", f"1/{cap}9", f"{cap}9/1"):
        with pytest.raises(ValueError, match="^more than 4300 digits"):
            rat(text)


@pytest.mark.parametrize("value,kind", [(True, "bool"), (False, "bool"),
                                        (2.5, "float"), (2.0, "float")])
def test_rat_refuses_bools_and_floats(value, kind):
    # a bool is an int to Python and a float is a binary fraction; neither
    # is read as the number it looks like, and the float's message is
    # exactnum's own, not int()'s "invalid literal"
    with pytest.raises(ValueError,
                       match=f"^{value!r} is a {kind}, not an exact rational$"):
        rat(value)


def test_exact_returns_a_fraction_as_it_is():
    # a Fraction passes unchanged, not rebuilt; a subclass, an int and a
    # "p/q" string are read into a new plain Fraction
    class Sub(Fraction):
        pass

    for q in (Fraction(3, 4), Fraction(-7), Fraction(0)):
        assert _exact(q) is q and _exact(q, ValueError) is q
    for v, want in ((Sub(1, 3), Fraction(1, 3)), (5, Fraction(5)),
                    ("-2/6", Fraction(-1, 3))):
        got = _exact(v)
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("value,match", [
    (True, "^True is a bool"), (False, "^False is a bool"),
    (2.5, "^2.5 is a float"), (2.0, "^2.0 is a float"),
    ("2.5", "invalid literal"), ("1e-1", "invalid literal"),
    ("1/0", "^zero denominator$"), ("", "invalid literal"),
    ("9" * 4301, "^more than 4300 digits"),
    ("1/" + "9" * 4301, "^more than 4300 digits")])
@pytest.mark.parametrize("error", [InvalidSpec, ValueError])
def test_exact_refusals_raise_the_given_error(value, match, error):
    with pytest.raises(error, match=match):
        _exact(value, error)


def test_rat_str():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-1, 2)) == "-1/2"
    assert rat_str(Fraction(0)) == "0"


def test_rational_arithmetic_exact():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a
        assert a.denominator > 0
        assert gcd(a.numerator, a.denominator) == 1


def test_cyclotomic_modulus_base_case():
    assert cyclotomic_modulus(1) == [-1, 1]  # x - 1


def test_cyclotomic_modulus_small():
    assert cyclotomic_modulus(2) == [1, 1]
    assert cyclotomic_modulus(4) == [1, 0, 1]        # x^2 + 1
    assert cyclotomic_modulus(6) == [1, -1, 1]       # x^2 - x + 1
    assert cyclotomic_modulus(3) == [1, 1, 1]
    assert cyclotomic_modulus(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_degree_is_totient():
    for n in range(1, 40):
        assert len(cyclotomic_modulus(n)) == euler_phi(n) + 1


def test_zeta_is_root():
    # Phi_n(zeta_n) = 0 in the residue arithmetic
    for n in range(1, 31):
        z = CyclotomicElement.zeta(n)
        acc = CyclotomicElement.from_rational(0, n)
        power = CyclotomicElement.from_rational(1, n)
        for c in cyclotomic_modulus(n):
            acc = acc + power * Fraction(c)
            power = power * z
        assert acc.is_zero(), n


def test_conjugate_product_recovers_cyclotomic():
    # prod over j coprime to n of (x - zeta^j) = Phi_n
    for n in range(1, 13):
        coeffs = [CyclotomicElement.from_rational(1, n)]
        for j in range(n):
            if gcd(j, n) != 1 and n > 1:
                continue
            root = CyclotomicElement.zeta(n, j)
            new = [CyclotomicElement.from_rational(0, n)
                   for _ in range(len(coeffs) + 1)]
            for k, c in enumerate(coeffs):
                new[k + 1] = new[k + 1] + c
                new[k] = new[k] - c * root
            coeffs = new
        expect = cyclotomic_modulus(n)
        assert len(coeffs) == len(expect)
        for got, want in zip(coeffs, expect):
            assert got.as_rational() == want


def test_cyclo_arith_examples():
    z4 = CyclotomicElement.zeta(4)
    assert (z4 * z4).as_rational() == -1
    a = CyclotomicElement(6, (Fraction(2), Fraction(5)))
    zero = CyclotomicElement.from_rational(0, 6)
    assert a + zero == a
    z6 = CyclotomicElement.zeta(6)
    one = CyclotomicElement.from_rational(1, 6)
    assert z6 * z6 == z6 - one


def test_cyclo_order_mismatch():
    with pytest.raises(ValueError):
        CyclotomicElement.zeta(4) + CyclotomicElement.zeta(6)


def test_as_rational():
    c = CyclotomicElement.from_rational(Fraction(5, 3), 4)
    assert c.as_rational() == Fraction(5, 3)
    assert CyclotomicElement.zeta(4).as_rational() is None
    z4 = CyclotomicElement.zeta(4)
    assert (z4 + (-z4) + 2).as_rational() == 2
    assert as_rational(Fraction(1, 2)) == Fraction(1, 2)
    assert as_rational(3) == 3


def test_zeta_power_wraps():
    z6 = CyclotomicElement.zeta(6)
    # zeta^6 = 1 and zeta^3 = -1
    p = CyclotomicElement.from_rational(1, 6)
    for _ in range(6):
        p = p * z6
    assert p.as_rational() == 1
    assert CyclotomicElement.zeta(6, 3).as_rational() == -1


def test_cyclo_mixed_scalar_ops():
    z4 = CyclotomicElement.zeta(4)
    assert (z4 * 2 - z4 - z4).is_zero()
    assert (Fraction(1, 2) * z4 + Fraction(1, 2) * z4) == z4


def test_cyclotomic_arithmetic_against_sympy():
    # independent oracle: sympy's remainder modulo Phi_n over QQ, padded to
    # phi(n); reaches orders 2^k up to 32 and exponents past 2*phi(n) - 1
    from sympy import QQ, Poly, cyclotomic_poly, symbols

    x = symbols("x")
    rng = random.Random(11)

    def reduced(poly, modulus, phi):
        coeffs = poly.rem(modulus).all_coeffs()[::-1]
        coeffs = [Fraction(int(c.p), int(c.q)) for c in coeffs]
        return tuple(coeffs + [Fraction(0)] * (phi - len(coeffs)))

    def as_poly(coeffs):
        return Poly([QQ(c.numerator, c.denominator) for c in coeffs[::-1]],
                    x, domain=QQ)

    for n in range(1, 41):
        phi = euler_phi(n)
        modulus = Poly(cyclotomic_poly(n, x), x, domain=QQ)
        for k in range(-n, 2 * n):
            want = reduced(Poly(x ** (k % n), x, domain=QQ), modulus, phi)
            assert CyclotomicElement.zeta(n, k).coeffs == want, (n, k)
        for _ in range(3):
            a, b = (CyclotomicElement(n, [Fraction(rng.randint(-9, 9),
                                                   rng.randint(1, 6))
                                          for _ in range(phi)])
                    for _ in range(2))
            want = reduced(as_poly(a.coeffs) * as_poly(b.coeffs), modulus, phi)
            assert (a * b).coeffs == want, n
