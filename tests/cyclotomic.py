"""The Q(zeta_n) references for the norm tower of minimal polynomials.

An element of the cyclotomic field Q(zeta_n) is its remainder modulo
Phi_n, and one polynomial division both builds Phi_n and takes that
remainder.  ``conjugate`` maps a finite Puiseux series to its conjugates
over Q(zeta_R); the product of y - w_j over all of them is the minimal
polynomial that ``bipoly.min_poly_finite_puiseux`` builds as a tower of
prime-degree norms, so the tests multiply conjugates here and compare.

``group_ring_norm_step`` is the reference for one step of that tower: the
product of all p conjugates of F(v, y), taken term by term in Z[C_p] and
checked coordinate by coordinate.  The production step
(``bipoly._cyclic_norm_step``) forms only the product of p - 1 of them,
kept as its p zeta_p-coordinates, by twists v -> zeta_p^-1 v, which move
coefficients between coordinates, and products of each coordinate by F.
It reads the norm off the v^p classes of F times that product, so the
tests compare the two on seeded inputs.  No production path of valmon
multiplies in Q(zeta_n).
"""

from fractions import Fraction

from valmon.errors import InternalError
from valmon.series import NoetherianSeries


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

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not slot by slot
        return CyclotomicElement, (self.order, self.coeffs)

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


def as_rational(a):
    """Rational value of a coefficient, or None when genuinely irrational."""
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    return a.as_rational()


def conjugate(w, j):
    """The j-th conjugate of a finite Puiseux series.

    Each coefficient c at exponent m/R (common denominator R = w.ram_index)
    becomes c * zeta_R^(j*m).  Coefficients that land back in Q are demoted
    to Fraction.
    """
    R = w.ram_index
    if not 0 <= j < R:
        raise ValueError(f"conjugate index {j} out of range [0, {R})")
    if j == 0 or R == 1:
        return NoetherianSeries(w.terms)
    out = []
    for e, c in w.terms:
        m = e * R
        assert m.denominator == 1
        root = CyclotomicElement.zeta(R, (j * m.numerator) % R)
        coeff = root * c
        q = coeff.as_rational()
        out.append((e, q if q is not None else coeff))
    return NoetherianSeries(out)


def group_ring_norm_step(poly, p):
    """prod F(zeta_p^i v, y) over 0 <= i < p for F given as
    {(v-exponent, y-degree): int}, the result in the same form over v^p.

    The power of zeta_p is carried as a residue mod p, so the product is
    taken term by term in the group ring Z[C_p], where multiplying by
    zeta_p is a rotation.  Mapping back to Q(zeta_p), a coefficient
    (a_0, ..., a_{p-1}) is rational exactly when a_1 = ... = a_{p-1}, with
    value a_0 - a_1, and a nonzero one must sit at a v-exponent divisible
    by p; either certificate failing raises InternalError.  Any prime p is
    accepted, 2 included."""
    prod = {(k, d, 0): c for (k, d), c in poly.items()}
    for i in range(1, p):
        conj = [(k, d, i * k % p, c) for (k, d), c in poly.items()]
        nxt = {}
        for (k1, d1, g1), c1 in prod.items():
            for k2, d2, g2, c2 in conj:
                key = (k1 + k2, d1 + d2, (g1 + g2) % p)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        prod = {key: c for key, c in nxt.items() if c}
    coords = {}
    for (k, d, g), c in prod.items():
        coords.setdefault((k, d), [0] * p)[g] = c
    out = {}
    for (k, d), a in coords.items():
        if any(x != a[1] for x in a[2:]):
            raise InternalError("norm coefficient not rational")
        if a[0] != a[1]:
            if k % p:
                raise InternalError(
                    f"norm left v-exponent {k} off the multiples of {p}")
            out[(k // p, d)] = a[0] - a[1]
    return out
