"""Exact bivariate polynomials over Q and their images under x -> t, y -> z.

The central operation is eval_leading: the leading exponent and coefficient
of f(t, z), certified against tail cancellation.  Writing z = z_N + T with
T the tail past N terms, the exact Taylor identity

    f(t, z) = sum_m f_m(t, z_N) * T^m,       f_m = (1/m!) d^m f / dy^m

with LE(T) = e_{N+1} gives LE of the m-th summand as
LE(f_m(t, z_N)) + m*e_{N+1} exactly.  When the m = 0 term strictly exceeds
every other summand, its leading term is the leading term of f(t, z).  The
truncation depth doubles until that certificate fires; it must, once
e_{N+1} drops below the distance from z to the nearest root of f.

The truncation minimal polynomials p_j behind every preimage are norms of
y - z_k, built as a tower of prime-degree norms (Abhyankar-Moh's
approximate-root tower): each step needs only the p-th roots of unity for
one prime p dividing the ramification index, never all of Q(zeta_R).
"""

import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, floor

from .errors import (InsufficientPrecision, InternalError, NotInMonoid,
                     PolyParseError, ZeroPolynomial)
from .exactnum import lcm, rat_str
from .series import FinitePuiseux, truncate
from .valmonoid import decompose, rep_value

_EXPONENT_CAP = 10 ** 4


class BivarPoly:
    """Sparse exact polynomial in x and y; the zero polynomial is the empty map.

    Internal monomial order for iteration and printing is (y-degree,
    x-degree) lexicographic, purely for determinism.
    """

    __slots__ = ("_c", "_key")

    def __init__(self, coeffs=()):
        d = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for (a, b), v in items:
            v = Fraction(v)
            if not v:
                continue
            k = (int(a), int(b))
            if k in d:
                d[k] += v
                if not d[k]:
                    del d[k]
            else:
                d[k] = v
        object.__setattr__(self, "_c", d)
        object.__setattr__(self, "_key", tuple(
            sorted(d.items(), key=lambda t: (t[0][1], t[0][0]), reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, q):
        return cls({(0, 0): q})

    @classmethod
    def x(cls):
        return cls({(1, 0): 1})

    @classmethod
    def y(cls):
        return cls({(0, 1): 1})

    @classmethod
    def monomial(cls, coeff, xdeg, ydeg):
        return cls({(xdeg, ydeg): coeff})

    @property
    def coeffs(self):
        return dict(self._c)

    def monomials(self):
        """[(xdeg, ydeg, coeff)] in the deterministic internal order."""
        return [(a, b, v) for (a, b), v in self._key]

    def is_zero(self):
        return not self._c

    def __bool__(self):
        return bool(self._c)

    def deg_x(self):
        return max((a for a, _ in self._c), default=0)

    def deg_y(self):
        return max((b for _, b in self._c), default=0)

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __add__(self, other):
        d = dict(self._c)
        for k, v in other._c.items():
            d[k] = d.get(k, Fraction(0)) + v
        return BivarPoly(d)

    def __neg__(self):
        return BivarPoly({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self._c or not other._c:
            return BivarPoly()
        # scale both factors to integers once; one gcd per output term
        # instead of one per term pair
        d1 = d2 = 1
        for v in self._c.values():
            d1 = lcm(d1, v.denominator)
        for v in other._c.values():
            d2 = lcm(d2, v.denominator)
        left = [(a, b, v.numerator * (d1 // v.denominator))
                for (a, b), v in self._c.items()]
        right = [(a, b, v.numerator * (d2 // v.denominator))
                 for (a, b), v in other._c.items()]
        acc = {}
        for a1, b1, v1 in left:
            for a2, b2, v2 in right:
                k = (a1 + a2, b1 + b2)
                if k in acc:
                    acc[k] += v1 * v2
                else:
                    acc[k] = v1 * v2
        den = d1 * d2
        return BivarPoly({k: Fraction(n, den) for k, n in acc.items() if n})

    def scale(self, q):
        q = Fraction(q)
        if not q:
            return BivarPoly()
        return BivarPoly({k: q * v for k, v in self._c.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = BivarPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def to_string(self):
        if not self._key:
            return "0"
        bits = []
        for (a, b), v in self._key:
            mono = []
            if a == 1:
                mono.append("x")
            elif a > 1:
                mono.append(f"x^{a}")
            if b == 1:
                mono.append("y")
            elif b > 1:
                mono.append(f"y^{b}")
            mag = abs(v)
            if not mono or mag != 1:
                mono.insert(0, rat_str(mag))
            text = "*".join(mono)
            if not bits:
                bits.append(text if v > 0 else "-" + text)
            else:
                bits.append(("+ " if v > 0 else "- ") + text)
        return " ".join(bits)

    __str__ = to_string

    def __repr__(self):
        return f"BivarPoly({self.to_string()!r})"


# ---------------------------------------------------------------------------
# Parsing
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' natural)?
# base   := 'x' | 'y' | rational | '(' expr ')'
# rational := natural ('/' natural)?

class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise PolyParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def natural(self):
        self._skip()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected a number", start)
        return int(self.text[start:self.pos])

    def expr(self):
        negate = False
        if self.peek() == "-":
            self.take("-")
            negate = True
        node = self.term()
        if negate:
            node = -node
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.take(op)
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take("*")
            node = node * self.factor()
        return node

    def factor(self):
        node = self.base()
        if self.peek() == "^":
            self.take("^")
            at = self.pos
            n = self.natural()
            if n > _EXPONENT_CAP:
                raise PolyParseError(f"exponent {n} too large", at)
            node = node ** n
        return node

    def base(self):
        ch = self.peek()
        if ch == "x":
            self.take("x")
            return BivarPoly.x()
        if ch == "y":
            self.take("y")
            return BivarPoly.y()
        if ch == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        if ch.isdigit():
            num = self.natural()
            if self.peek() == "/":
                self.take("/")
                at = self.pos
                den = self.natural()
                if den == 0:
                    raise PolyParseError("zero denominator", at)
                return BivarPoly.constant(Fraction(num, den))
            return BivarPoly.constant(num)
        raise PolyParseError(f"unexpected {ch!r}" if ch else "unexpected end",
                             self.pos)


def parse(text):
    """Parse polynomial text into an exact BivarPoly."""
    p = _Parser(text)
    node = p.expr()
    if p.peek():
        raise PolyParseError(f"trailing input {p.peek()!r}", p.pos)
    return node


# ---------------------------------------------------------------------------
# Certified evaluation of LE_z / LC_z

@dataclass(frozen=True)
class LeadingData:
    le: Fraction
    lc: Fraction
    certified_at: int


class _ZPow:
    """Powers of a truncation z_N on a scaled integer exponent lattice."""

    def __init__(self, spec, n):
        terms = []
        scale = 1
        for i in range(1, n + 1):
            t = spec.term(i)
            if t is None:
                raise InsufficientPrecision(f"spec has fewer than {n} terms")
            c, e = t
            scale = lcm(scale, e.denominator)
            terms.append((c, e))
        self.n = n
        self.scale = scale
        zt = []
        for c, e in terms:
            se = int(e * scale)
            zt.append((se, c.numerator if c.denominator == 1 else c))
        zt.sort(reverse=True)
        self.zterms = tuple(zt)
        self.lead = zt[0][0]
        self.integral = all(isinstance(c, int) for _, c in zt)
        # per power: descending (exponent, coeff) terms and the ascending
        # negated exponents for bisect
        self.pows = ((((0, 1),), (0,)),)
        self._lock = threading.Lock()

    def pow(self, b):
        """(terms, negated exponents) of z_N^b.  Powers are built under a
        lock and published as a new tuple; built powers are read lock-free."""
        pows = self.pows
        if b < len(pows):
            return pows[b]
        with self._lock:
            ext = list(self.pows)
            while len(ext) <= b:
                acc = {}
                for e1, c1 in ext[-1][0]:
                    for e2, c2 in self.zterms:
                        k = e1 + e2
                        if k in acc:
                            acc[k] += c1 * c2
                        else:
                            acc[k] = c1 * c2
                terms = tuple(sorted(
                    ((e, c) for e, c in acc.items() if c), reverse=True))
                ext.append((terms, tuple(-e for e, _ in terms)))
            self.pows = tuple(ext)
        return ext[b]


def _prepare(monos, zp):
    """Integer-rescaled work list [(scaled shift, ydeg, coeff)] plus the
    common denominator; coefficients stay exact Fractions for non-integral
    specs."""
    scale = zp.scale
    if zp.integral:
        den = 1
        for _, _, c in monos:
            den = lcm(den, c.denominator)
        work = [(a * scale, b, c.numerator * (den // c.denominator))
                for a, b, c in monos]
    else:
        den = 1
        work = [(a * scale, b, c) for a, b, c in monos]
    return work, den


def _scan(work, zp, cutoff, upper=None):
    """Accumulate the evaluation over scaled exponents in [cutoff, upper].

    cutoff None means no lower bound; upper None no upper bound.  Exponents
    of each z-power are descending, so both bounds become one bisected
    slice per monomial and the inner loop runs without comparisons.
    """
    acc = defaultdict(int)
    for shift, b, coeff in work:
        terms, neg = zp.pow(b)
        start = 0 if upper is None else bisect_left(neg, shift - upper)
        end = len(terms) if cutoff is None else bisect_right(
            neg, shift - cutoff)
        if end <= start:
            continue
        for e, c in terms[start:end]:
            acc[e + shift] += coeff * c
    return {e: v for e, v in acc.items() if v}


def _nonempty_at_or_above(work, zp, cutoff):
    """Does the evaluation have any surviving term with exponent >= cutoff?

    Scans disjoint windows from the top down, so a failure (a surviving
    term near the top) is detected almost immediately.
    """
    emax = max(shift + b * zp.lead for shift, b, _ in work)
    if emax < cutoff:
        return False
    window = max(zp.scale, zp.lead)
    hi = emax
    lo = max(cutoff, emax - window)
    while True:
        if _scan(work, zp, lo, hi):
            return True
        if lo <= cutoff:
            return False
        hi = lo - 1
        window *= 2
        lo = max(cutoff, hi - window)


def _leading_scan(work, zp, upper=None):
    """Leading (scaled exponent, raw coefficient) of the evaluation within
    exponents <= upper; None when nothing survives.

    Descends in geometrically widening windows, so cancellation near the
    top costs only the cancelled range.
    """
    emax = max(shift + b * zp.lead for shift, b, _ in work)
    top = emax if upper is None or upper > emax else upper
    window = max(zp.scale, zp.lead)
    cutoff = top - window
    while True:
        if cutoff <= 0:
            cutoff = None
        got = _scan(work, zp, cutoff, upper)
        if got:
            e = max(got)
            return e, got[e]
        if cutoff is None:
            return None
        window *= 2
        cutoff = top - window


def _certified_leading(monos, degy, zp, e_next, upper=None):
    """(le, lc) of f(t, z) certified at truncation depth zp.n, or None.

    None means either f(t, z_N) vanished (below `upper`, when given) or a
    perturbation order could reach the candidate level; both ask for more
    terms.  e_next is the exponent e_{N+1} of the first dropped term, or
    None when the series is exhausted (then the evaluation is exact).
    `upper` is a scaled exponent bound above which the caller has proved
    the evaluation empty.

    Perturbation orders are screened with a support-only coarse bound
    max_{b>=m}(deg_x + (b-m) e_1) + m e_{N+1}, which decreases in m; only
    orders whose coarse bound reaches the candidate get an exact scan.
    """
    work, den = _prepare(monos, zp)
    led = _leading_scan(work, zp, upper)
    if led is None:
        return None
    scale = zp.scale
    cand = Fraction(led[0], scale)
    v = led[1]
    lc = Fraction(v, den) if isinstance(v, int) else v / den
    if e_next is None:
        return cand, lc
    best_by_deg = {}
    for shift, b, _ in work:
        key = shift + b * zp.lead
        if b not in best_by_deg or key > best_by_deg[b]:
            best_by_deg[b] = key
    suffix = [None] * (degy + 1)
    best = None
    for b in range(degy, -1, -1):
        if b in best_by_deg and (best is None or best_by_deg[b] > best):
            best = best_by_deg[b]
        suffix[b] = best
    e1 = Fraction(zp.lead, scale)
    for m in range(1, degy + 1):
        if suffix[m] is None:
            break
        coarse = Fraction(suffix[m], scale) + m * (e_next - e1)
        if coarse < cand:
            break  # coarse bound decreases in m; the rest are safe
        monos_m = [(shift, b - m, coeff * comb(b, m))
                   for shift, b, coeff in work if b >= m]
        theta = cand - m * e_next
        if _nonempty_at_or_above(monos_m, zp, ceil(theta * scale)):
            return None
    return cand, lc


def _truncation_state(ctx, n):
    """(power table, e_{M+1} or None, M) for M = min(n, available terms)."""
    spec = ctx.spec
    m = n
    while m > 0 and spec.term(m) is None:
        m -= 1
    if m == 0:
        raise InsufficientPrecision("series spec supplies no terms")
    key = ("zpow", m)
    if key not in ctx.cache:
        ctx.cache[key] = _ZPow(spec, m)
    return ctx.cache[key], spec.exponent(m + 1), m


_START_DEPTH = 4
_DEPTH_CAP = 256


def eval_leading(f, ctx, upper=None, n_start=None):
    """LE_z(f) and LC_z(f) with a certified truncation depth.

    `upper` is an exponent the caller has proved strictly dominates the
    image of f under every truncation at depth n_start (reduction steps
    prove this for f_i - g*h); it narrows the candidate search and is
    discarded if the truncation depth has to grow.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no leading data")
    key = ("lead", f)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    monos = f.monomials()
    degy = f.deg_y()
    n = n_start if n_start else _START_DEPTH
    while True:
        zp, e_next, m = _truncation_state(ctx, n)
        up_scaled = None if upper is None else floor(upper * zp.scale)
        res = _certified_leading(monos, degy, zp, e_next, up_scaled)
        if res is not None:
            data = LeadingData(res[0], res[1], m)
            ctx.cache[key] = data
            return data
        if e_next is None:
            raise InsufficientPrecision(
                "polynomial image vanishes on the exhausted finite series")
        n = 2 * m
        upper = None  # emptiness above was proved only at the old depth
        if n > _DEPTH_CAP:
            raise InsufficientPrecision(
                f"leading term not certified within {_DEPTH_CAP} terms")


def image_matches_leading(f, le, lc, n, ctx):
    """True when f(t, z_n) peaks exactly at its true leading term (le, lc).

    This is the precondition under which exact leading-term cancellation in
    a difference can be trusted at truncation depth n.  Cached per (f, n).
    """
    key = ("imgpeak", f, n)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    zp, _, m = _truncation_state(ctx, n)
    ok = False
    if m == n:
        target = le * zp.scale
        if target.denominator == 1:
            work, den = _prepare(f.monomials(), zp)
            got = _scan(work, zp, target.numerator)
            if got and max(got) == target.numerator:
                v = got[target.numerator]
                val = Fraction(v, den) if isinstance(v, int) else v / den
                ok = val == lc
    ctx.cache[key] = ok
    return ok


# ---------------------------------------------------------------------------
# Minimal polynomials of finite Puiseux series and monoid preimages

def min_poly_finite_puiseux(w):
    """Minimal polynomial over Q(x) of a finite Puiseux series with positive
    exponents: the norm of y - w from Q(t^(1/R)) down to Q(t), R = ram_index,
    which is the product of y - w_j over all R conjugates.

    The norm is taken one prime factor p of R at a time.  Writing F(v, y)
    with v = t^(1/m), one step replaces F by the product of its p conjugates
    F(zeta_p^i v, y) and m by m/p; norms are transitive, so the steps compose
    to the full norm.  The power of zeta_p is carried as a residue mod p, so
    a step computes in the group ring Q[C_p], where multiplying by zeta_p is
    a rotation.  Mapping back to Q(zeta_p), a coefficient (a_0, ..., a_{p-1})
    is rational exactly when a_1 = ... = a_{p-1}, with value a_0 - a_1.

    The zero series is allowed and yields y.  Coefficients are certified to
    land in Q and exponents in Z; a failure is a bug, hence InternalError.
    """
    if not isinstance(w, FinitePuiseux):
        w = FinitePuiseux.from_series(w)
    R = w.ram_index
    # F as {(v-exponent, y-degree): coeff}; integral coefficients stay ints
    poly = {(0, 1): 1}
    for e, c in w.terms:
        poly[(int(e * R), 0)] = -(c.numerator if c.denominator == 1 else c)
    primes, n, p = [], R, 2
    while n > 1:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1
    # largest primes first: their p - 1 products then act on the smallest F
    m = R
    for p in reversed(primes):
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
        poly = {}
        for (k, d), a in coords.items():
            if any(x != a[1] for x in a[2:]):
                raise InternalError("norm coefficient not rational")
            if a[0] != a[1]:
                if k % p:
                    raise InternalError(
                        f"norm left exponent {k}/{m} non-integral")
                poly[(k // p, d)] = a[0] - a[1]
        m //= p
    out = BivarPoly(poly)
    if out.deg_y() != R:
        raise InternalError("norm degree mismatch")
    return out


def truncation_min_poly(ctx, j):
    """Minimal polynomial p_j of z truncated to its first l(j)-1 terms."""
    key = ("minpoly", j)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    k = ctx.seqs.l(j) - 1
    if k == 0:
        poly = BivarPoly.y()
    else:
        poly = min_poly_finite_puiseux(
            FinitePuiseux.from_series(truncate(ctx.spec, k)))
    expected = ctx.seqs.r(ctx.seqs.l(j) - 1)
    if poly.deg_y() != expected:
        raise InternalError(
            f"p_{j} has y-degree {poly.deg_y()}, expected {expected}")
    ctx.cache[key] = poly
    return poly


def preimage_of_rep(rep, ctx):
    """x^n * product p_j^(d_j) for a canonical representation."""
    key = ("preimage", rep)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    poly = BivarPoly.monomial(1, rep.n, 0)
    for j, d in enumerate(rep.digits, start=1):
        if d:
            poly = poly * truncation_min_poly(ctx, j) ** d
    ctx.cache[key] = poly
    return poly


def preimage_leading(rep, ctx):
    """Leading data of the preimage, composed multiplicatively from its
    factors; avoids evaluating the expanded product."""
    le = rep_value(rep, ctx)
    lc = Fraction(1)
    for j, d in enumerate(rep.digits, start=1):
        if d:
            lc *= eval_leading(truncation_min_poly(ctx, j), ctx).lc ** d
    return LeadingData(le, lc, 0)


def preimage(m, ctx):
    """Some polynomial with LE_z equal to m; raises NotInMonoid otherwise."""
    rep = decompose(m, ctx)
    if rep is None:
        raise NotInMonoid(f"{m} is not a value of any polynomial")
    return preimage_of_rep(rep, ctx)
