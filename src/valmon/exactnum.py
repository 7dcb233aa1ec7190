"""Exact rational and cyclotomic arithmetic.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, always in lowest terms, positive denominator.  This module adds
the "p/q" string convention used by every file format, plus arithmetic in
cyclotomic fields Q(zeta_n): an element is its remainder modulo Phi_n, and
one polynomial division both builds Phi_n and takes that remainder.

Q(zeta_n) is the reference the norm tower of
``bipoly.min_poly_finite_puiseux`` is checked against (conjugate products
of Puiseux series, ``series.conjugate``); no production path multiplies in
it.
"""

from fractions import Fraction


def rat(text):
    """Parse a rational from an int, a Fraction, or a "p/q" string."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rat_str(q):
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def euler_phi(n):
    """Euler's totient by trial-division factorization."""
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _poly_divmod(num, den):
    """Quotient and remainder of dense polynomials (ascending coefficients)
    by a monic den, on ints or Fractions alike.

    The remainder always has exactly deg den coefficients, so modulo Phi_n
    it is the power-basis coordinate vector of an element of Q(zeta_n).
    """
    d = len(den) - 1
    rem = list(num) + [0] * (d - len(num))
    quot = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        q = rem[i]
        if q:
            quot[i - d] = q
            for j in range(d):
                rem[i - d + j] -= q * den[j]
    return quot, rem[:d]


_cyclo_cache = {1: [-1, 1]}


def cyclotomic_modulus(n):
    """The n-th cyclotomic polynomial as a dense integer coefficient list,
    ascending degree, computed by dividing x^n - 1 by all Phi_d, d | n, d < n.
    """
    if n < 1:
        raise ValueError("cyclotomic_modulus needs n >= 1")
    if n in _cyclo_cache:
        return list(_cyclo_cache[n])
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n)[:-1]:
        num, rem = _poly_divmod(num, cyclotomic_modulus(d))
        if any(rem):
            raise ArithmeticError("nonzero remainder in cyclotomic division")
    _cyclo_cache[n] = list(num)
    return num


class CyclotomicElement:
    """An element of Q(zeta_n), stored as a residue modulo Phi_n.

    Coordinates are in the power basis 1, zeta, ..., zeta^(phi(n)-1), so an
    element is rational exactly when every coordinate past the first is zero.
    Values are immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        phi = euler_phi(order)
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for order {order}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    @classmethod
    def _raw(cls, order, coeffs):
        # internal: trusts coeffs to be a well-sized tuple of Fractions
        obj = object.__new__(cls)
        object.__setattr__(obj, "order", order)
        object.__setattr__(obj, "coeffs", coeffs)
        return obj

    @classmethod
    def from_rational(cls, q, order):
        phi = euler_phi(order)
        return cls(order, (Fraction(q),) + (Fraction(0),) * (phi - 1))

    @classmethod
    def zeta(cls, order, k=1):
        """zeta_order^k: the remainder of x^(k mod order) modulo Phi_order."""
        power = [0] * (k % order) + [1]
        return cls(order, _poly_divmod(power, cyclotomic_modulus(order))[1])

    def is_zero(self):
        return not any(self.coeffs)

    def as_rational(self):
        """The rational value when all higher coordinates vanish, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement.from_rational(other, self.order)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicElement._raw(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement._raw(self.order,
                                      tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        phi = len(a)
        conv = [Fraction(0)] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
        _, out = _poly_divmod(conv, cyclotomic_modulus(self.order))
        return CyclotomicElement._raw(self.order, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            r = self.as_rational()
            return r is not None and r == other
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"CyclotomicElement(order={self.order}, coeffs={self.coeffs})"


def cyclo_arith(a, b, kind):
    """Spec surface for exact +- and * in a shared cyclotomic order."""
    if kind == "add":
        return a + b
    if kind == "mul":
        return a * b
    raise ValueError(f"unknown kind {kind!r}")


def as_rational(a):
    """Rational value of a coefficient, or None when genuinely irrational."""
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    return a.as_rational()
