"""Inputs that several test modules share: criterion 9's pair generator,
the harmonic, triadic and mixed-denominator specs, the generated specs and
settings of the hypothesis properties, and evaluation modulo the prime
P = 2^127 - 1.

tests/test_acceptance.py keeps its own copies, so that the acceptance
criteria stand alone.
"""

from fractions import Fraction

from hypothesis import settings
from hypothesis import strategies as st

from valmon.bipoly import BivarPoly
from valmon.series import CallbackTail, GeometricTail, SimpleSeriesSpec

F = Fraction
# every property draws the same examples on every run
SETTINGS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


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


@st.composite
def specs(draw, max_prefix=3, max_base=3, depths=(3, 5)):
    """(spec, depth): one to max_prefix prefix terms with signed rational
    coefficients at distinct positive exponents of denominators 1 to 6,
    strictly decreasing, then a geometric tail of base 2 to max_base, and
    a depth in the closed range depths."""
    exps = draw(st.sets(st.builds(F, st.integers(1, 6), st.integers(1, 6)),
                        min_size=1, max_size=max_prefix))
    prefix = [(F(draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1))),
                 draw(st.integers(1, 3))), e)
              for e in sorted(exps, reverse=True)]
    spec = SimpleSeriesSpec(prefix,
                            GeometricTail(draw(st.integers(2, max_base))))
    return spec, draw(st.integers(*depths))


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
