"""Properties over generated specs (shared_inputs.specs): the derivation
against its definition, decompose against the brute-force enumeration,
and the truncation minimal polynomials of mixed ramification against
their roots, degrees and leading exponents.

Each property checks against an oracle that shares no code with what it
tests: reference_derive re-sums u over Fractions, enumerate_omega lists
members digit vector by digit vector, and a root check evaluates p_j
modulo P = 2^127 - 1, a ring map that reads its coefficients without the
products that formed them.
"""

import random
from fractions import Fraction

from hypothesis import given

from shared_inputs import P, SETTINGS, mod_p, residue, specs
from test_seqderive import _TYPES, lattice_data, reference_derive
from valmon.bipoly import BivarPoly, eval_leading, truncation_min_poly
from valmon.seqderive import _validate, derive, self_check
from valmon.valmonoid import (MonoidContext, decompose, enumerate_omega,
                              lambda_d)

F = Fraction
# one to four prefix terms, a geometric tail of base 2 to 5, depths 1 to 6
WIDE = specs(max_prefix=4, max_base=5, depths=(1, 6))
# enumerate_omega runs to the largest index with at most this many digit
# vectors, and to n = _N
_VECTORS, _N = 64, 3
# the largest y-degree of a p_j the root property builds; a cold lead of
# a p_j of y-degree 40 to 64 can take seconds (_scan's digit-weight path)
_DEGREE = 36


@SETTINGS
@given(WIDE)
def test_derive_matches_the_definition(case):
    spec, depth = case
    got = derive(spec, depth)
    assert vars(got) == vars(reference_derive(spec, depth))
    for name, kind in _TYPES.items():
        assert all(type(x) is kind for x in vars(got)[name]), name
    self_check(got)
    assert _validate(**lattice_data(lambda: spec, depth)) is None


@SETTINGS
@given(WIDE)
def test_decompose_matches_the_enumeration(case):
    # every member n + sum d_j rho_j, j <= i and n <= _N, decomposes to its
    # own digits, and every other point of (1/r_l(i))Z in [0, _N] is none
    spec, depth = case
    ctx = MonoidContext(spec, depth)
    seqs = ctx.seqs
    i = max(j for j in range(1, depth + 1)
            if seqs.r(seqs.l(j)) <= _VECTORS)
    members = enumerate_omega(i, ctx, _N)
    values = {value for value, _ in members}
    assert len(values) == len(members)
    for value, rep in members:
        assert decompose(value, ctx) == rep, (value, rep)
    den = seqs.r(seqs.l(i))
    for q in (F(k, den) for k in range(_N * den + 1)):
        if q not in values:
            assert decompose(q, ctx) is None, q


def _mixed(case):
    """Some p_j of the spec up to its depth has a y-degree of at most
    _DEGREE divisible by 2 and by 3 or 5: its norm tower takes odd steps,
    then p = 2 steps on a dense grid."""
    spec, depth = case
    seqs = derive(spec, depth)
    return any(D <= _DEGREE and D % 2 == 0 and (D % 3 == 0 or D % 5 == 0)
               for D in (seqs.r(seqs.l(j) - 1) for j in range(1, depth + 1)))


@SETTINGS
@given(specs(max_prefix=4, max_base=5, depths=(3, 6)).filter(_mixed))
def test_mixed_minimal_polynomials_vanish_at_their_roots(case):
    # p_j is the norm of y - w, w the truncation z_k, k = l(j) - 1, of
    # ramification R = r_k: p_j(u^R, w(u)) = 0, deg_y p_j = R, and
    # LE(p_j) = rho_j = lambda_R
    spec, depth = case
    ctx = MonoidContext(spec, depth)
    seqs = ctx.seqs
    u = random.Random(97).randrange(2, P)
    for j in range(1, depth + 1):
        k = seqs.l(j) - 1
        R = seqs.r(k)
        if R > _DEGREE:
            continue
        p = truncation_min_poly(ctx, j)
        w = 0
        for coeff, exp in map(spec.term, range(1, k + 1)):
            w += mod_p(coeff) * pow(u, (exp * R).numerator, P)
        x, y = pow(u, R, P), w % P
        assert residue(p, x, y) == 0, j
        assert residue(p + BivarPoly.one(), x, y) != 0, j
        assert p.deg_y() == R, j
        assert eval_leading(p, ctx).le == seqs.rho(j) == lambda_d(R, ctx)[0]
