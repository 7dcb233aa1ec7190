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

Polynomials are integer numerators over one common denominator, so
arithmetic, evaluation and the norm tower all run on ints; Fractions appear
only at the boundary (constructor, coeffs, monomials, leading data).
"""

import threading
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (InsufficientPrecision, InternalError, NotInMonoid,
                     PolyParseError, ZeroPolynomial)
from .exactnum import rat_str
from .seqderive import _MAX_PULL_GAP
from .series import FinitePuiseux, truncate
from .valmonoid import decompose, rep_value

_EXPONENT_CAP = 10 ** 4
# cap on the dense size (deg_x + 1) * (deg_y + 1) of any parsed product or
# power, checked before it is computed
_DENSE_CAP = 10 ** 5


class BivarPoly:
    """Sparse exact polynomial in x and y over Q: integer numerators
    {(xdeg, ydeg): int} over one positive denominator, in lowest terms, so
    equal polynomials have equal representations.  Operations run on ints
    and normalise once, in _make; the zero polynomial is {} over 1.

    The constructor takes a dict or (key, coeff) pairs with int, Fraction
    or "p/q" coefficients; coeffs and monomials() return Fractions.
    Monomials iterate and print in (y-degree, x-degree) lexicographic
    order, purely for determinism.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, coeffs=()):
        fr = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for (a, b), v in items:
            k = (int(a), int(b))
            fr[k] = fr.get(k, 0) + Fraction(v)
        den = lcm(*(v.denominator for v in fr.values()))
        return cls._make({k: v.numerator * (den // v.denominator)
                          for k, v in fr.items()}, den)

    @classmethod
    def _make(cls, num, den):
        """num / den for int numerators (zeros allowed) and a positive int
        denominator, reduced to lowest terms."""
        num = {k: v for k, v in num.items() if v}
        g = gcd(den, *num.values())
        if g > 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "_num", num)
        object.__setattr__(poly, "_den", den)
        return poly

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
        return {k: Fraction(v, self._den) for k, v in self._num.items()}

    def monomials(self):
        """[(xdeg, ydeg, coeff)] in the deterministic internal order."""
        return [(a, b, Fraction(v, self._den)) for (a, b), v in sorted(
            self._num.items(), key=lambda t: (t[0][1], t[0][0]),
            reverse=True)]

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def deg_x(self):
        return max((a for a, _ in self._num), default=0)

    def deg_y(self):
        return max((b for _, b in self._num), default=0)

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, frozenset(self._num.items())))

    def __add__(self, other):
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, den // other._den
        num = {k: v * m1 for k, v in self._num.items()}
        for k, v in other._num.items():
            num[k] = num.get(k, 0) + v * m2
        return BivarPoly._make(num, den)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        right = other._num.items()
        for (a1, b1), v1 in self._num.items():
            for (a2, b2), v2 in right:
                k = (a1 + a2, b1 + b2)
                if k in acc:
                    acc[k] += v1 * v2
                else:
                    acc[k] = v1 * v2
        return BivarPoly._make(acc, self._den * other._den)

    def scale(self, q):
        q = Fraction(q)
        return BivarPoly._make(
            {k: v * q.numerator for k, v in self._num.items()},
            self._den * q.denominator)

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
        monos = self.monomials()
        if not monos:
            return "0"
        bits = []
        for a, b, v in monos:
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
    """Integer powers (d*z_N)^b of a truncation z_N, given by its
    (coeff, exponent) terms in descending exponent order: exponents are
    scaled by the lcm of their denominators (scale) and coefficients by the
    lcm d of theirs (den), so every table entry is an int."""

    def __init__(self, terms):
        self.scale = lcm(*(e.denominator for _, e in terms))
        self.den = lcm(*(c.denominator for c, _ in terms))
        self.zterms = tuple(
            (e.numerator * (self.scale // e.denominator),
             c.numerator * (self.den // c.denominator)) for c, e in terms)
        self.lead = self.zterms[0][0]
        # per power: descending (exponent, coeff) terms and the ascending
        # negated exponents for bisect
        self.pows = ((((0, 1),), (0,)),)
        self._lock = threading.Lock()

    def pow(self, b):
        """(terms, negated exponents) of (d*z_N)^b.  Powers are built under a
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


def _prepare(f, zp):
    """Integer work list [(scaled x-shift, ydeg, weight)] for f(t, z_N), and
    the denominator of the evaluation.

    With D = deg_y f and d = zp.den, f(t, z_N) = sum num * t^a * z_N^b / den_f
    = sum num * d^(D-b) * t^a * (d*z_N)^b / (den_f * d^D), so each monomial
    weighs its numerator by d^(D-b) against the table of (d*z_N)^b.
    """
    D = f.deg_y()
    d = zp.den
    work = [(a * zp.scale, b, v * d ** (D - b))
            for (a, b), v in f._num.items()]
    return work, f._den * d ** D


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
    key = ("lead", f)
    hit = ctx.cache.get(key)
    if hit is None:
        hit = ctx.cache[key] = _eval_leading_uncached(f, ctx)
    return hit


def _eval_leading_uncached(f, ctx):
    """eval_leading without the memo, for polynomials that will not recur."""
    if f.is_zero():
        raise ZeroPolynomial("the zero polynomial has no leading data")
    terms = _exact_truncation(ctx.spec, f.deg_y())
    zkey = ("zpow", len(terms))
    zp = ctx.cache.get(zkey)
    if zp is None:
        zp = ctx.cache[zkey] = _ZPow(terms)
    work, den = _prepare(f, zp)
    led = _leading_scan(work, zp)
    if led is None:
        raise InsufficientPrecision(
            "polynomial image vanishes on the exhausted finite series")
    e, v = led
    return LeadingData(Fraction(e, zp.scale), Fraction(v, den), len(terms))


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
    a step computes in the group ring Z[C_p], where multiplying by zeta_p is
    a rotation.  Mapping back to Q(zeta_p), a coefficient (a_0, ..., a_{p-1})
    is rational exactly when a_1 = ... = a_{p-1}, with value a_0 - a_1.
    The norm is taken of den*y - den*w, den the lcm of the coefficient
    denominators, so it runs on ints; it is den^R times the norm of y - w.

    The zero series is allowed and yields y.  Coefficients are certified to
    land in Q and exponents in Z; a failure is a bug, hence InternalError.
    """
    if not isinstance(w, FinitePuiseux):
        w = FinitePuiseux.from_series(w)
    R = w.ram_index
    # F = den*y - den*w as {(v-exponent, y-degree): int}
    den = lcm(*(c.denominator for _, c in w.terms))
    poly = {(0, 1): den}
    for e, c in w.terms:
        poly[(int(e * R), 0)] = -c.numerator * (den // c.denominator)
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
    out = BivarPoly._make(poly, den ** R)
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
