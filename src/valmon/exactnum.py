"""Exact rational and cyclotomic arithmetic.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, always in lowest terms, positive denominator.  This module adds
the "p/q" string convention used by every file format, plus arithmetic in
cyclotomic fields Q(zeta_n), which is what conjugate products of Puiseux
series live in before they collapse back to the rationals.
"""

from fractions import Fraction
from math import gcd


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


def _poly_divmod_int(num, den):
    """Exact division of dense integer polynomials (ascending coefficients).

    den must be monic up to sign of its leading coefficient +-1; remainder
    must come out zero, which holds for every quotient taken in the
    cyclotomic recursion.
    """
    num = list(num)
    dden = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact cyclotomic division")
        quot[i - dden] = q
        for j, dc in enumerate(den):
            num[i - dden + j] -= q * dc
    if any(num):
        raise ArithmeticError("nonzero remainder in cyclotomic division")
    return quot


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
    for d in _divisors(n):
        if d == n:
            continue
        num = _poly_divmod_int(num, cyclotomic_modulus(d))
    _cyclo_cache[n] = list(num)
    return num


# Per-order reduction tables: x^j mod Phi_n for phi(n) <= j < n,
# each as a tuple of Fraction coordinates in the power basis.
_reduction_cache = {}


def _reductions(n):
    if n in _reduction_cache:
        return _reduction_cache[n]
    phi = euler_phi(n)
    mod = cyclotomic_modulus(n)
    # x^phi = -(mod[0] + mod[1] x + ... + mod[phi-1] x^(phi-1)), Phi_n monic
    rows = {}
    prev = [Fraction(0)] * phi
    if phi > 0:
        top = [Fraction(-c) for c in mod[:phi]]
    for j in range(phi, 2 * phi):
        if j == phi:
            row = list(top)
        else:
            # multiply previous row by x and fold the overflow
            row = [Fraction(0)] + prev[:-1]
            if prev[-1]:
                row = [a + prev[-1] * b for a, b in zip(row, top)]
        rows[j] = tuple(row)
        prev = row
    _reduction_cache[n] = (phi, rows)
    return phi, rows


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
        """zeta_order^k."""
        return cls(order, _power_coords(order, k))

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
        n = self.order
        out = conv[:phi]
        if n > 1 and n & (n - 1) == 0:
            # Phi_{2^k} = x^phi + 1, so x^(phi+i) folds to -x^i
            for j in range(phi, len(conv)):
                if conv[j]:
                    out[j - phi] -= conv[j]
        else:
            _, rows = _reductions(n)
            for j in range(phi, len(conv)):
                cj = conv[j]
                if cj:
                    row = rows[j]
                    for k in range(phi):
                        if row[k]:
                            out[k] += cj * row[k]
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


_power_cache = {}


def _power_coords(order, k):
    """Coordinates of zeta_order^k (k reduced mod order, zeta^order = 1)."""
    k = k % order
    key = (order, k)
    if key in _power_cache:
        return _power_cache[key]
    phi, rows = _reductions(order)
    if k < phi:
        coords = tuple(Fraction(1) if i == k else Fraction(0) for i in range(phi))
    else:
        coords = rows[k] if k in rows else None
        if coords is None:
            # k in [2*phi-1, order): reduce by repeated multiplication by x
            coords = _power_coords(order, k - 1)
            shifted = [Fraction(0)] + list(coords[:-1])
            if coords[-1]:
                top = rows[phi]
                shifted = [a + coords[-1] * b for a, b in zip(shifted, top)]
            coords = tuple(shifted)
    _power_cache[key] = coords
    return coords


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


def coeff_is_zero(c):
    if isinstance(c, CyclotomicElement):
        return c.is_zero()
    return c == 0


def lcm(a, b):
    return a // gcd(a, b) * b
