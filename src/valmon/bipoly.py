"""Exact bivariate polynomials over Q and their images under x -> t, y -> z.

The central operation is eval_leading: the leading exponent and coefficient
of f(t, z), read off one exact evaluation f(t, z_N) at a truncation depth
fixed by the y-degree alone: the least N whose ramification index r_N
exceeds deg_y f.  Expanding f in x and the truncation minimal polynomials
p_j (MacLane's key polynomials) shows that at this depth every term of the
expansion keeps its leading term, and canonical representations keep the
terms' values distinct, so no tail can cancel the top (proof at
eval_leading).

The truncation minimal polynomials p_j behind every preimage are norms of
y - z_k, built as a tower of prime-degree norms (Abhyankar-Moh's
approximate-root tower): each step needs only the p-th roots of unity for
one prime p dividing the ramification index, never all of Q(zeta_R).
"""

import threading
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InsufficientPrecision, InternalError, NotInMonoid,
                     PolyParseError, ZeroPolynomial)
from .exactnum import lcm, rat_str
from .seqderive import _MAX_PULL_GAP
from .series import FinitePuiseux, truncate
from .valmonoid import decompose, rep_value

_EXPONENT_CAP = 10 ** 4
# cap on the dense size (deg_x + 1) * (deg_y + 1) of any parsed product or
# power, checked before it is computed
_DENSE_CAP = 10 ** 5


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

def _check_dense(deg_x, deg_y, at):
    if (deg_x + 1) * (deg_y + 1) > _DENSE_CAP:
        raise PolyParseError(f"result exceeds {_DENSE_CAP} dense terms", at)


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
            at = self.pos
            self.take("*")
            rhs = self.factor()
            _check_dense(node.deg_x() + rhs.deg_x(),
                         node.deg_y() + rhs.deg_y(), at)
            node = node * rhs
        return node

    def factor(self):
        node = self.base()
        if self.peek() == "^":
            self.take("^")
            at = self.pos
            n = self.natural()
            if n > _EXPONENT_CAP:
                raise PolyParseError(f"exponent {n} too large", at)
            _check_dense(n * node.deg_x(), n * node.deg_y(), at)
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
# Exact evaluation of LE_z / LC_z

@dataclass(frozen=True)
class LeadingData:
    """Leading exponent and coefficient of f(t, z).

    certified_at is the truncation depth N at which the evaluation was
    exact (see eval_leading); leading data composed without an evaluation,
    as preimage_leading does, carries 0.
    """

    le: Fraction
    lc: Fraction
    certified_at: int


class _ZPow:
    """Powers of a truncation z_N, given by its (coeff, exponent) terms in
    descending exponent order, on a scaled integer exponent lattice."""

    def __init__(self, terms):
        scale = 1
        for _, e in terms:
            scale = lcm(scale, e.denominator)
        self.scale = scale
        zt = [(int(e * scale), c.numerator if c.denominator == 1 else c)
              for c, e in terms]
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
    den = 1
    if zp.integral:
        for _, _, c in monos:
            den = lcm(den, c.denominator)
        work = [(a * scale, b, c.numerator * (den // c.denominator))
                for a, b, c in monos]
    else:
        work = [(a * scale, b, c) for a, b, c in monos]
    return work, den


def _scan(work, zp, cutoff):
    """Accumulate the evaluation over scaled exponents >= cutoff (None: all).

    Exponents of each z-power are descending, so the cutoff becomes one
    bisected slice per monomial and the inner loop runs without
    comparisons.
    """
    acc = defaultdict(int)
    for shift, b, coeff in work:
        terms, neg = zp.pow(b)
        end = len(terms) if cutoff is None else bisect_right(
            neg, shift - cutoff)
        for e, c in terms[:end]:
            acc[e + shift] += coeff * c
    return {e: v for e, v in acc.items() if v}


def _leading_scan(work, zp):
    """Leading (scaled exponent, raw coefficient) of the evaluation; None
    when nothing survives.

    Descends in geometrically widening windows, so cancellation near the
    top costs only the cancelled range.
    """
    top = max(shift + b * zp.lead for shift, b, _ in work)
    window = max(zp.scale, zp.lead)
    cutoff = top - window
    while True:
        if cutoff <= 0:
            cutoff = None
        got = _scan(work, zp, cutoff)
        if got:
            e = max(got)
            return e, got[e]
        if cutoff is None:
            return None
        window *= 2
        cutoff = top - window


def _exact_truncation(spec, degy):
    """Terms of z_N for the least N >= 1 with r_N > degy, or every term of
    a finite spec that runs out first.  Terms are pulled under derive's
    no-jump guard."""
    terms = []
    r = 1
    last_jump = 0
    while not terms or r <= degy:
        if len(terms) - last_jump >= _MAX_PULL_GAP:
            raise InsufficientPrecision(
                f"no ramification jump within {_MAX_PULL_GAP} terms")
        t = spec.term(len(terms) + 1)
        if t is None:
            break
        terms.append(t)
        r_next = lcm(r, t[1].denominator)
        if r_next > r:
            r, last_jump = r_next, len(terms)
    return terms


def eval_leading(f, ctx):
    """LE_z(f) and LC_z(f), read off one exact evaluation f(t, z_N).

    N is the least n with r_n = lcm(den e_1, ..., den e_n) > deg_y f; when
    a finite spec runs out first, N is all of it and z_N = z.

    Proof that f(t, z_N) and f(t, z) have the same leading term.  Let
    D = deg_y f and let p_J be the last truncation minimal polynomial of
    y-degree <= D.  Dividing repeatedly by p_J, p_{J-1}, ..., p_1 (monic in
    y, deg p_{j+1} = s_j deg p_j) writes f = sum c * x^n * prod p_j^(d_j)
    with 0 <= d_j < s_j, using only p_j of y-degree r_{l(j)-1} <= D < r_N,
    hence l(j) <= N.  Each such p_j(t, z_N) is prod (z_N - w_i) over the
    conjugates w_i of z_{l(j)-1}; z_N and z first differ from w_i at the
    same index, at most l(j) <= N, so z_N - w_i and z - w_i share their
    leading term, and so do p_j(t, z_N) and p_j(t, z).  Distinct canonical
    representations n + sum d_j rho_j have distinct values, so the terms
    of the expansion have pairwise distinct leading exponents at z_N as at
    z, and the largest one is the leading term of both images.

    f(t, z_N) = 0 would make the minimal polynomial of z_N, of y-degree
    r_N > D, divide f; so the image vanishes only on an exhausted finite
    spec, which raises InsufficientPrecision.
    """
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no leading data")
    key = ("lead", f)
    hit = ctx.cache.get(key)
    if hit is not None:
        return hit
    terms = _exact_truncation(ctx.spec, f.deg_y())
    zkey = ("zpow", len(terms))
    zp = ctx.cache.get(zkey)
    if zp is None:
        zp = ctx.cache[zkey] = _ZPow(terms)
    work, den = _prepare(f.monomials(), zp)
    led = _leading_scan(work, zp)
    if led is None:
        raise InsufficientPrecision(
            "polynomial image vanishes on the exhausted finite series")
    e, v = led
    lc = Fraction(v, den) if isinstance(v, int) else v / den
    data = LeadingData(Fraction(e, zp.scale), lc, len(terms))
    ctx.cache[key] = data
    return data


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
