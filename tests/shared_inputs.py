"""Inputs that several test modules share: criterion 9's pair generator,
the harmonic, triadic and mixed-denominator specs, and evaluation modulo
the prime P = 2^127 - 1.

tests/test_acceptance.py keeps its own copies, so that the acceptance
criteria stand alone.
"""

from fractions import Fraction

from valmon.bipoly import BivarPoly
from valmon.series import CallbackTail, GeometricTail, SimpleSeriesSpec

F = Fraction


def criterion_9_poly(rng, max_total_deg=4):
    """Criterion 9's generator: one to four terms of total degree at most
    max_total_deg with coefficients in [-5, 5], drawn from rng."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, max_total_deg)
        b = rng.randint(0, max_total_deg - a)
        c = rng.randint(-5, 5)
        if c:
            terms[(a, b)] = c
    return BivarPoly(terms)


def harmonic_spec():
    """Exponents 1/2, 1/3, 1/4, 1/5, ..."""
    return SimpleSeriesSpec([(1, F(1, 2))],
                            CallbackTail(lambda i: (1, F(1, i + 2))))


def triadic_spec():
    """z = t^(1/3) + t^(1/9) + t^(1/27) + ..."""
    return SimpleSeriesSpec([(1, F(1, 3))], GeometricTail(3))


def mixed_spec():
    """Coefficient denominators 3 and 2: z_N is tabulated as (6*z_N)^b."""
    return SimpleSeriesSpec([(F(2, 3), F(1, 2)), (F(1, 2), F(1, 4))],
                            GeometricTail(2))


# evaluation at a point modulo P is a ring map that shares no code with
# the dict or packed products
P = 2 ** 127 - 1


def mod_p(q):
    """A rational q as a residue mod P."""
    return q.numerator * pow(q.denominator, -1, P) % P


def residue(p, x, y):
    """p(x, y) mod P, by power tables of x and y."""
    xs, ys = [1], [1]
    for (a, b), v in p._num.items():
        while len(xs) <= a:
            xs.append(xs[-1] * x % P)
        while len(ys) <= b:
            ys.append(ys[-1] * y % P)
    total = sum(v * xs[a] % P * ys[b] for (a, b), v in p._num.items())
    return total * pow(p._den, -1, P) % P
