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
Each of the seven accessors is one bounds check (_reader) on a stored
tuple, given the index of its first entry; an index outside raises
IndexError naming the entry, as in "l(9) out of range".

derive works on the lattice (1/R)Z, R = r_K, carrying each value v as
the int v*R.  With the int q = r_i / r_{i-1},

    u_i = q u_{i-1} + (q - 1) e_i,

since u_i = r_i S_i for S_i = sum_{j<i} (1/r_j - 1/r_{j+1}) e_{j+1} and
S_i = S_{i-1} + (1/r_{i-1} - 1/r_i) e_i.  Every u_i and rho_i lies on the
lattice: den e_i divides r_i, which divides R, so e_i*R is an int, and by
induction from u_0 = 0 so is every u_i*R, q being an int; rho_i*R is a sum
of two of these.  Only the public u_i and rho_i are Fractions.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import IdentityViolation, InsufficientPrecision
from .exactnum import _is_int, rat_str

# A spec whose tail stops ramifying would loop forever in derive; cut the
# search well past any reasonable jump gap instead.
_MAX_PULL_GAP = 1024


def _reader(field, first, label):
    """The accessor of the stored tuple `field`, whose entries are indexed
    from `first`: entry i for first <= i < first + len, else IndexError
    naming label.format(i)."""
    def read(self, i):
        seq = getattr(self, field)
        if not first <= i < first + len(seq):
            raise IndexError(f"{label.format(i)} out of range")
        return seq[i - first]
    return read


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

    e = _reader("_e", 1, "e_{}")
    r = _reader("_r", 0, "r_{}")
    l = _reader("_l", 0, "l({})")
    u = _reader("_u", 0, "u_{}")
    rho = _reader("_rho", 1, "rho_{}")
    s = _reader("_s", 1, "s_{}")
    c = _reader("_c", 1, "c_{}")

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
        """The depth and each sequence, ints and rationals as rat_str
        writes them."""
        return {"depth": self.depth,
                **{name: [rat_str(x) for x in getattr(self, "_" + name)]
                   for name in ("e", "r", "l", "u", "rho", "s", "c")}}


def _pull_terms(spec):
    """Yield each term (coeff, exponent) of the spec in order, with the
    ramification index r_i after it, until a finite spec runs out.  Raises
    InsufficientPrecision once _MAX_PULL_GAP terms in a row pass without a
    ramification jump, before pulling the next."""
    r = 1
    i = last_jump = 0
    while True:
        if i - last_jump >= _MAX_PULL_GAP:
            raise InsufficientPrecision(
                f"no ramification jump within {_MAX_PULL_GAP} terms")
        t = spec.term(i + 1)
        if t is None:
            return
        i += 1
        r_next = lcm(r, t[1].denominator)
        if r_next > r:
            r, last_jump = r_next, i
        yield t, r


def derive(spec, depth):
    """Populate all sequences of a spec down to `depth` rho terms; the
    loop pulls terms up to e_K, K = l(depth), and no further.

    s_i and c_i are formed by floor division, and the invariants are
    checked once, after, by _validate: r-divisibility-chain gives
    r_l(i-1) | r_l(i), so s_i is exact, and rho-residue gives
    (R/r_l(i)) | P_i, so c_i = P_i*r_l(i)/R is."""
    if not _is_int(depth) or depth < 1:
        raise ValueError(f"depth must be an int >= 1, not {depth!r}")
    e = []
    r = [1]
    jumps = [0]  # l(0) = 0
    pulled = _pull_terms(spec)
    while len(jumps) <= depth:
        t = next(pulled, None)
        if t is None:
            raise InsufficientPrecision(
                f"spec exhausted at term {len(e)}, depth {depth} needs more")
        (_, ei), ri = t
        e.append(ei)
        r.append(ri)
        if r[-1] > r[-2]:
            jumps.append(len(e))

    R = r[-1]  # each value v below is the int v*R (module docstring)
    E = [ei.numerator * (R // ei.denominator) for ei in e]
    U = [0]
    for ri, r_prev, Ei in zip(r[1:], r, E):
        q = ri // r_prev
        U.append(q * U[-1] + (q - 1) * Ei)

    P = [U[li - 1] + E[li - 1] for li in jumps[1:]]  # P_i = rho_i*R
    s = [r[li] // r[prev] for prev, li in zip(jumps, jumps[1:])]
    c = [Pi * r[li] // R for Pi, li in zip(P, jumps[1:])]

    _validate(r, jumps, s, c, P)
    return DerivedSequences(depth, e, r, jumps, [Fraction(x, R) for x in U],
                            [Fraction(x, R) for x in P], s, c)


def _validate(r, l, s, c, P):
    """Cheap structural invariants asserted on every derivation, on its
    ints: r, l, s and c as stored, and P[i-1] = rho_i*R, R = r_K.
    rho-residue is checked before c-s-coprime, since derive floors c_i,
    so a rho_i off its lattice is reported under its own name."""
    for i in range(1, len(r)):
        if r[i] % r[i - 1]:
            raise IdentityViolation("r-divisibility-chain", i)
    R = r[-1]
    for i, (si, ci, Pi) in enumerate(zip(s, c, P), start=1):
        if si < 2:
            raise IdentityViolation("s-lower-bound", i, f"s_{i} = {si}")
        # rho_i lies in (1/r_l(i))Z but not (1/r_l(i-1))Z, and r_l(i) | R
        if Pi % (R // r[l[i]]):
            raise IdentityViolation("rho-residue", i)
        if gcd(ci, si) != 1:
            raise IdentityViolation("c-s-coprime", i)
        if not Pi % (R // r[l[i - 1]]):
            raise IdentityViolation("rho-new-residue", i)
        if i >= 2 and Pi <= P[i - 2]:
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
