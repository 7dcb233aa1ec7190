"""Inputs that several test modules share: criterion 9's pair generator
and the harmonic, triadic and mixed-denominator specs.

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
