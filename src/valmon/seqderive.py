"""Sequences derived from a simple series: exponents, ramification, the
bounding sequence, and the monoid generating sequence.

Indexing follows the source conventions exactly: e_1, e_2, ... are the
series exponents; r_0 = 1 and r_i = lcm of the first i exponent
denominators; l(i) is the first raw index attaining the i-th distinct
ramification value; u_0 = 0 and

    u_i = sum_{j=0}^{i-1} (r_i/r_j - r_i/r_{j+1}) e_{j+1}

and rho_i = u_{l(i)-1} + e_{l(i)}, s_i = r_{l(i)}/r_{l(i-1)},
c_i = rho_i * r_{l(i)}.  The depth w counts rho terms; raw sequences are
computed out to index K = l(w) and callers use the accessors rather than
raw lists, because raw-vs-reduced index mixups are the chief hazard here.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import IdentityViolation, InsufficientPrecision
from .exactnum import rat_str

# A spec whose tail stops ramifying would loop forever in derive; cut the
# search well past any reasonable jump gap instead.
_MAX_PULL_GAP = 1024


class DerivedSequences:
    """Immutable bundle of all derived sequences to a requested depth."""

    def __init__(self, depth, e, r, l, u, rho, s, c):
        self.depth = depth
        self._e = tuple(e)      # e_1 .. e_K
        self._r = tuple(r)      # r_0 .. r_K
        self._l = tuple(l)      # l(0) .. l(w)
        self._u = tuple(u)      # u_0 .. u_K
        self._rho = tuple(rho)  # rho_1 .. rho_w
        self._s = tuple(s)      # s_1 .. s_w
        self._c = tuple(c)      # c_1 .. c_w

    @property
    def raw_length(self):
        """K = l(depth)."""
        return len(self._e)

    def e(self, i):
        if not 1 <= i <= len(self._e):
            raise IndexError(f"e_{i} out of range")
        return self._e[i - 1]

    def r(self, i):
        if not 0 <= i <= len(self._e):
            raise IndexError(f"r_{i} out of range")
        return self._r[i]

    def l(self, i):
        if not 0 <= i <= self.depth:
            raise IndexError(f"l({i}) out of range")
        return self._l[i]

    def u(self, i):
        if not 0 <= i <= len(self._e):
            raise IndexError(f"u_{i} out of range")
        return self._u[i]

    def rho(self, i):
        if not 1 <= i <= self.depth:
            raise IndexError(f"rho_{i} out of range")
        return self._rho[i - 1]

    def s(self, i):
        if not 1 <= i <= self.depth:
            raise IndexError(f"s_{i} out of range")
        return self._s[i - 1]

    def c(self, i):
        if not 1 <= i <= self.depth:
            raise IndexError(f"c_{i} out of range")
        return self._c[i - 1]

    @property
    def r_list(self):
        return self._r

    @property
    def l_list(self):
        return self._l

    @property
    def u_list(self):
        return self._u

    @property
    def rho_list(self):
        return self._rho

    @property
    def s_list(self):
        return self._s

    @property
    def c_list(self):
        return self._c

    def to_json(self):
        return {
            "depth": self.depth,
            "e": [rat_str(x) for x in self._e],
            "r": [str(x) for x in self._r],
            "l": [str(x) for x in self._l],
            "u": [rat_str(x) for x in self._u],
            "rho": [rat_str(x) for x in self._rho],
            "s": [str(x) for x in self._s],
            "c": [str(x) for x in self._c],
        }


def derive(spec, depth):
    """Populate all sequences of a spec down to `depth` rho terms."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    e = []
    r = [1]
    jumps = [0]  # l(0) = 0
    i = 0
    last_jump = 0
    while len(jumps) <= depth:
        i += 1
        if i - last_jump > _MAX_PULL_GAP:
            raise InsufficientPrecision(
                f"no ramification jump within {_MAX_PULL_GAP} terms; "
                f"cannot reach depth {depth}")
        t = spec.term(i)
        if t is None:
            raise InsufficientPrecision(
                f"spec exhausted at term {i - 1}, depth {depth} needs more")
        _, ei = t
        e.append(ei)
        r.append(lcm(r[-1], ei.denominator))
        if r[-1] > r[-2]:
            jumps.append(i)
            last_jump = i
    K = jumps[depth]
    e = e[:K]
    r = r[:K + 1]

    # u_i = r_i * S_i with the running sum
    # S_i = sum_{j<i} (1/r_j - 1/r_{j+1}) e_{j+1}
    u = [Fraction(0)]
    acc = Fraction(0)
    for idx in range(1, K + 1):
        acc += (Fraction(1, r[idx - 1]) - Fraction(1, r[idx])) * e[idx - 1]
        u.append(r[idx] * acc)

    rho, s, c = [], [], []
    for idx in range(1, depth + 1):
        li = jumps[idx]
        rho_i = u[li - 1] + e[li - 1]
        rho.append(rho_i)
        num, den = r[li], r[jumps[idx - 1]]
        if num % den:
            raise IdentityViolation("ramification-divisibility", idx,
                                    f"{den} does not divide {num}")
        s.append(num // den)
        ci = rho_i * r[li]
        if ci.denominator != 1:
            raise IdentityViolation("rho-denominator", idx,
                                    f"rho_{idx}*r_l({idx}) = {ci} not integral")
        c.append(ci.numerator)

    seqs = DerivedSequences(depth, e, r, jumps, u, rho, s, c)
    _validate(seqs)
    return seqs


def _validate(seqs):
    """Cheap structural invariants asserted on every derivation."""
    w = seqs.depth
    for i in range(1, seqs.raw_length + 1):
        if seqs.r(i) % seqs.r(i - 1):
            raise IdentityViolation("r-divisibility-chain", i)
    for i in range(1, w + 1):
        if seqs.s(i) < 2:
            raise IdentityViolation("s-lower-bound", i, f"s_{i} = {seqs.s(i)}")
        if gcd(seqs.c(i), seqs.s(i)) != 1:
            raise IdentityViolation("c-s-coprime", i)
        # rho_i lies in (1/r_l(i))Z but not (1/r_l(i-1))Z
        if (seqs.rho(i) * seqs.r(seqs.l(i))).denominator != 1:
            raise IdentityViolation("rho-residue", i)
        if (seqs.rho(i) * seqs.r(seqs.l(i - 1))).denominator == 1:
            raise IdentityViolation("rho-new-residue", i)
        if i >= 2 and seqs.rho(i) <= seqs.rho(i - 1):
            raise IdentityViolation("rho-increasing", i)


CHECKED_IDENTITIES = (
    "rho-recurrence",
    "ramification-sum",
    "rho-difference",
    "u-stabilization",
)


def self_check(seqs):
    """Verify the recurrence, sum, difference, and stabilization identities
    at every available index; returns the list of identities checked."""
    w = seqs.depth

    if seqs.rho(1) != seqs.e(seqs.l(1)):
        raise IdentityViolation("rho-recurrence", 1,
                                "rho_1 != e_l(1)")
    for i in range(1, w):
        expect = (seqs.s(i) * seqs.rho(i)
                  - seqs.e(seqs.l(i)) + seqs.e(seqs.l(i + 1)))
        if seqs.rho(i + 1) != expect:
            raise IdentityViolation("rho-recurrence", i + 1)

    total = 1  # 1 + sum_{j<=i} (s_j - 1) r_l(j-1)
    for i in range(w + 1):
        if seqs.r(seqs.l(i)) != total:
            raise IdentityViolation("ramification-sum", i)
        if i < w:
            total += (seqs.s(i + 1) - 1) * seqs.r(seqs.l(i))

    total = 0  # sum_{j<i} (s_j - 1) rho_j
    for i in range(1, w + 1):
        if seqs.rho(i) != total + seqs.e(seqs.l(i)):
            raise IdentityViolation("rho-difference", i)
        total += (seqs.s(i) - 1) * seqs.rho(i)

    # u agrees wherever r does: compare each u with the first at its r
    first = {}
    for k in range(seqs.raw_length + 1):
        i, u = first.setdefault(seqs.r(k), (k, seqs.u(k)))
        if seqs.u(k) != u:
            raise IdentityViolation("u-stabilization", (i, k))
    for i in range(1, w + 1):
        if seqs.u(seqs.l(i - 1)) != seqs.u(seqs.l(i) - 1):
            raise IdentityViolation("u-stabilization", i,
                                    "u_l(i-1) != u_(l(i)-1)")

    return list(CHECKED_IDENTITIES)
