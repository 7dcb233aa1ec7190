"""The value monoid: membership, canonical representations, lambda_d.

Every member has a unique form n + sum d_j rho_j with n a natural and
0 <= d_j < s_j.  Membership is decided by the congruence chain

    c_j d_j = r_l(j) * m^(j)   (mod s_j),   m^(j-1) = m^(j) - d_j rho_j

solved from the largest index down; the factor m^(j) on the right keeps
each partial remainder in (1/r_l(j-1))Z, and r_l(j)*m^(j) is an integer at
every step.  Since gcd(c_j, s_j) = 1 the digit is unique, and membership
reduces to the final remainder being a nonnegative integer.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil

from .errors import InsufficientPrecision, NotInMonoid
from . import seqderive


@dataclass(frozen=True)
class MonoidRep:
    """Canonical representation n + sum d_j rho_j, trailing zero digits trimmed."""

    n: int
    digits: tuple

    def __post_init__(self):
        d = tuple(self.digits)
        while d and d[-1] == 0:
            d = d[:-1]
        object.__setattr__(self, "digits", d)


class MonoidContext:
    """A spec together with its derived sequences and shared caches.

    The context is logically immutable; the cache dict only memoizes pure
    computations (leading data, truncation powers, minimal polynomials).
    """

    def __init__(self, spec, depth=8):
        self.spec = spec
        self.seqs = seqderive.derive(spec, depth)
        self.depth = depth
        self.cache = {}

    def rho(self, i):
        return self.seqs.rho(i)

    def s(self, i):
        return self.seqs.s(i)


def rep_value(rep, ctx):
    """Exact rational value of a canonical representation."""
    seqs = ctx.seqs
    if len(rep.digits) > seqs.depth:
        raise InsufficientPrecision(
            f"representation depth {len(rep.digits)} exceeds context depth "
            f"{seqs.depth}")
    if rep.n < 0:
        raise ValueError("n must be a natural number")
    total = Fraction(rep.n)
    for j, d in enumerate(rep.digits, start=1):
        if not 0 <= d < seqs.s(j):
            raise ValueError(f"digit d_{j} = {d} outside [0, {seqs.s(j)})")
        if d:
            total += d * seqs.rho(j)
    return total


def decompose(m, ctx):
    """The canonical representation of m, or None when m is not a member."""
    m = Fraction(m)
    key = ("decompose", m)
    hit = ctx.cache.get(key, _MISS)
    if hit is not _MISS:
        return hit
    rep = _decompose_uncached(m, ctx)
    ctx.cache[key] = rep
    return rep


_MISS = object()


def _decompose_uncached(m, ctx):
    if m < 0:
        return None
    seqs = ctx.seqs
    b = m.denominator
    if b == 1:
        return MonoidRep(m.numerator, ())
    i = None
    for idx in range(seqs.depth + 1):
        if seqs.r(seqs.l(idx)) % b == 0:
            i = idx
            break
    if i is None:
        raise InsufficientPrecision(
            f"denominator {b} not resolved at depth {seqs.depth}")
    digits = [0] * i
    cur = m
    for j in range(i, 0, -1):
        rj = seqs.r(seqs.l(j))
        sj = seqs.s(j)
        scaled = cur * rj
        assert scaled.denominator == 1, "remainder left the expected lattice"
        d = (scaled.numerator * pow(seqs.c(j), -1, sj)) % sj
        digits[j - 1] = d
        if d:
            cur -= d * seqs.rho(j)
    if cur.denominator != 1 or cur < 0:
        return None
    return MonoidRep(cur.numerator, tuple(digits))


def base_digits(d, ctx):
    """Mixed-radix digits of a natural d with place values r_l(j-1),
    digit j bounded by s_j."""
    if d < 0:
        raise ValueError("d must be a natural number")
    seqs = ctx.seqs
    digits = []
    rem = d
    j = 1
    while rem:
        if j > seqs.depth:
            raise InsufficientPrecision(
                f"degree {d} needs digits beyond depth {seqs.depth}")
        digits.append(rem % seqs.s(j))
        rem //= seqs.s(j)
        j += 1
    while digits and digits[-1] == 0:
        digits.pop()
    return tuple(digits)


def lambda_d(d, ctx):
    """Minimal valuation among y-degree-d polynomials: sum of d_j rho_j over
    the mixed-radix digits of d.  Returns (value, representation)."""
    digits = base_digits(d, ctx)
    rep = MonoidRep(0, digits)
    return rep_value(rep, ctx), rep


def divides(mg, mf, ctx):
    """mf - mg when that difference is a member, else None."""
    diff = Fraction(mf) - Fraction(mg)
    return diff if decompose(diff, ctx) is not None else None


def canonical_min(m, ctx):
    """Least member equivalent to m modulo the integers: drop the n part."""
    rep = decompose(m, ctx)
    if rep is None:
        raise NotInMonoid(f"{m} is not in the value monoid")
    return rep_value(MonoidRep(0, rep.digits), ctx)


def enumerate_omega(i, ctx, n_max):
    """All members n + sum_{j<=i} d_j rho_j with 0 <= n <= n_max, ascending.

    Pure brute-force enumeration; this is the independent membership oracle
    the congruence-based decompose is tested against.
    """
    seqs = ctx.seqs
    if i > seqs.depth:
        raise InsufficientPrecision(f"omega index {i} exceeds depth {seqs.depth}")
    out = []
    ranges = [range(seqs.s(j)) for j in range(1, i + 1)]
    for digits in product(*ranges):
        base = sum((d * seqs.rho(j) for j, d in enumerate(digits, start=1)),
                   Fraction(0))
        for n in range(n_max + 1):
            out.append((base + n, MonoidRep(n, digits)))
    out.sort(key=lambda t: t[0])
    return out


def digit_part_values(i, ctx):
    """The finitely many sums over digit vectors of length <= i, ascending."""
    return [(v, rep) for v, rep in enumerate_omega(i, ctx, 0)]


def min_eta(sigma, targets, ctx, cap=10000):
    """Smallest integer eta with sigma + eta - t a member for every target t.

    Existence is guaranteed because large naturals absorb any quotient-group
    element back into the monoid.
    """
    lo = max(ceil(t - sigma) for t in targets)
    eta = lo
    while eta - lo <= cap:
        if all(decompose(sigma + eta - t, ctx) is not None for t in targets):
            return eta
        eta += 1
    raise InsufficientPrecision(
        f"no common ideal element found within {cap} steps above {lo}")
