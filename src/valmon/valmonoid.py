"""The value monoid: membership, canonical representations, lambda_d.

Every member has a unique form n + sum d_j rho_j with n a natural and
0 <= d_j < s_j.  Membership is decided by the congruence chain

    c_j d_j = r_l(j) * m^(j)   (mod s_j),   m^(j-1) = m^(j) - d_j rho_j

solved from the largest index down; the factor m^(j) on the right keeps
each partial remainder in (1/r_l(j-1))Z, and r_l(j)*m^(j) is an integer at
every step.  Since gcd(c_j, s_j) = 1 the digit is unique, and membership
reduces to the final remainder being a nonnegative integer.

The chain runs on the lattice (1/R)Z, R = r_l(depth), which holds every
value of the context's depth: a value q is carried as the int q*R, and
Fractions appear only at the boundary (arguments, MonoidRep values).  On
any q of the lattice, members or not, the chain leaves digits d_j and an
integer remainder c(q) with q = c(q) + sum d_j rho_j.  Canonical forms are
unique, so the sums sigma = sum d_j rho_j are the least members of their
classes modulo Z: they form the Apery set of the monoid with respect to 1
(Apery 1946; Rosales and Garcia-Sanchez, Numerical Semigroups, 2009).
Hence q is a member exactly when c(q) >= 0, and since adding an integer
to q adds it to c(q), the least integer eta putting sigma + eta - t in the
monoid is -c(sigma - t), with no search (min_eta).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import InsufficientPrecision, InternalError, NotInMonoid
from .exactnum import _exact, _is_int
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
    computations (decompositions, Apery sets, leading data, truncation
    powers, minimal polynomials).
    lattice_den is R = r_l(depth), and chain holds one row of the
    congruence chain per index j, from depth down to 1:
    (R / r_l(j), s_j, c_j^-1 mod s_j, rho_j * R).
    """

    def __init__(self, spec, depth=8):
        self.spec = spec
        self.seqs = seqs = seqderive.derive(spec, depth)
        self.depth = depth
        r, l = seqs.r_list, seqs.l_list
        self.lattice_den = R = r[-1]
        rows = []
        for lj, s, c in zip(l[1:], seqs.s_list, seqs.c_list):
            step = R // r[lj]
            rows.append((step, s, pow(c, -1, s), c * step))
        self.chain = tuple(reversed(rows))
        self.cache = {}


def rep_value(rep, ctx):
    """Exact rational value of a canonical representation of ints."""
    seqs = ctx.seqs
    if len(rep.digits) > seqs.depth:
        raise InsufficientPrecision(
            f"representation depth {len(rep.digits)} exceeds context depth "
            f"{seqs.depth}")
    if not _is_int(rep.n) or rep.n < 0:
        raise ValueError(f"n = {rep.n!r} is not a natural number")
    total = Fraction(rep.n)
    for j, d in enumerate(rep.digits, start=1):
        if not _is_int(d) or not 0 <= d < seqs.s(j):
            raise ValueError(f"d_{j} = {d!r} not an int in [0, {seqs.s(j)})")
        if d:
            total += d * seqs.rho(j)
    return total


def decompose(m, ctx):
    """The canonical representation of m, or None for a non-member; a float
    or a bool raises ValueError (exactnum._exact).  Cached per context
    under m * R (decompose_point)."""
    if not isinstance(m, Fraction):
        m = _exact(m, ValueError)
    if m.numerator < 0:
        return None
    return decompose_point(_on_lattice(m, ctx), ctx)


def decompose_point(k, ctx):
    """decompose of the lattice point k / R, given as the int k: the
    canonical representation, or None for a non-member (every negative k
    included).  Cached per context under ("decompose", k)."""
    if k < 0:
        return None
    key = ("decompose", k)
    hit = ctx.cache.get(key, _MISS)
    if hit is _MISS:
        c, digits = _chain(k, ctx)
        hit = ctx.cache[key] = MonoidRep(c, digits) if c >= 0 else None
    return hit


_MISS = object()


def lattice_point(q, ctx):
    """q * R as an int, or None when R = r_l(depth) is not a multiple of
    q's denominator."""
    k, rest = divmod(ctx.lattice_den, q.denominator)
    return None if rest else q.numerator * k


def _on_lattice(q, ctx):
    """q * R as an int; InsufficientPrecision when q lies off the
    lattice."""
    k = lattice_point(q, ctx)
    if k is None:
        raise InsufficientPrecision(
            f"denominator {q.denominator} not resolved at depth {ctx.depth}")
    return k


def _chain(k, ctx):
    """(c, digits) for the lattice point q = k / R: the congruence chain's
    integer remainder c(q) and digits (d_1, ..., d_depth), with
    q = c(q) + sum d_j rho_j.  q is a member exactly when c(q) >= 0.

    Before row j the partial remainder lies in (1/r_l(j))Z, after it in
    (1/r_l(j-1))Z; each row tests that exactly."""
    digits = []
    for step, s, c_inv, rho in ctx.chain:
        scaled, rest = divmod(k, step)
        if rest:
            raise InternalError("remainder left the expected lattice")
        d = scaled * c_inv % s
        digits.append(d)
        k -= d * rho
    c, rest = divmod(k, ctx.lattice_den)
    if rest:
        raise InternalError("remainder left the expected lattice")
    digits.reverse()
    return c, tuple(digits)


def base_digits(d, ctx):
    """Mixed-radix digits of a natural d (an int) with place values
    r_l(j-1), digit j bounded by s_j."""
    if not _is_int(d) or d < 0:
        raise ValueError(f"d = {d!r} is not a natural number")
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
    return tuple(digits)


def lambda_d(d, ctx):
    """Minimal valuation among y-degree-d polynomials: sum of d_j rho_j over
    the mixed-radix digits of d.  Returns (value, representation)."""
    digits = base_digits(d, ctx)
    rep = MonoidRep(0, digits)
    return rep_value(rep, ctx), rep


def divides(mg, mf, ctx):
    """mf - mg when that difference is a member, else None (floats and
    bools raise)."""
    diff = _exact(mf, ValueError) - _exact(mg, ValueError)
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
    if not (_is_int(i) and _is_int(n_max)):
        raise ValueError(f"omega index {i!r} and n_max {n_max!r} must be ints")
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


def apery_set(i, ctx):
    """The lattice points sigma * R of the sums sigma = sum_{j<=i} d_j rho_j
    over all digit vectors (0 <= d_j < s_j), as ints, unsorted: the least
    members of their classes modulo Z among the members of index <= i.
    Cached per context and index."""
    key = ("apery", i)
    hit = ctx.cache.get(key)
    if hit is None:
        if i > ctx.depth:
            raise InsufficientPrecision(
                f"omega index {i} exceeds depth {ctx.depth}")
        sums = [0]
        for _, s, _, rho in ctx.chain[ctx.depth - i:]:
            sums = [k + d * rho for d in range(s) for k in sums]
        hit = ctx.cache[key] = tuple(sums)
    return hit


def min_eta(k, targets, ctx):
    """Smallest integer eta with sigma + eta - t a member for every target
    t, for sigma and the targets given as lattice points: k = sigma * R
    and the ints t * R.

    sigma + eta - t is a member exactly when c(sigma - t) + eta >= 0 (see
    the module docstring), so eta = max over t of -c(sigma - t).  No lower
    bound ceil(t - sigma) is needed: q - c(q) = sum d_j rho_j >= 0, so
    sigma + eta - t >= 0 already.
    """
    return max(-_chain(k - t, ctx)[0] for t in targets)
