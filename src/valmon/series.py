"""Generalized power series with rational exponents, exact throughout.

A series is a finite list of (exponent, coefficient) terms in strictly
descending exponent order; the infinite objects of interest exist only as a
SimpleSeriesSpec (finite prefix plus a tail rule) together with on-demand
truncation.  Coefficients are Fraction, or CyclotomicElement in the
conjugates of ``conjugate``, the reference for the norm tower; both compare
equal to 0 exactly when they vanish.
"""

import threading
from fractions import Fraction
from math import lcm

from .errors import InsufficientPrecision, InvalidSpec, ValmonError
from .exactnum import CyclotomicElement, as_rational, rat, rat_str


class NoetherianSeries:
    """Finite-support series, terms strictly descending, no zero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for e, c in terms:
            e = Fraction(e)
            if e in merged:
                merged[e] = merged[e] + c
            else:
                merged[e] = c
        cleaned = tuple(sorted(
            ((e, c) for e, c in merged.items() if c != 0),
            key=lambda t: t[0], reverse=True))
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("NoetherianSeries is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, coeff, exponent):
        if coeff == 0:
            return cls()
        return cls(((Fraction(exponent), coeff),))

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NoetherianSeries):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __add__(self, other):
        return NoetherianSeries(self.terms + other.terms)

    def __neg__(self):
        return NoetherianSeries(tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                prod = c1 * c2
                if e in acc:
                    acc[e] = acc[e] + prod
                else:
                    acc[e] = prod
        return NoetherianSeries(acc.items())

    def scale(self, c):
        if c == 0:
            return NoetherianSeries()
        return NoetherianSeries(tuple((e, c * co) for e, co in self.terms))

    def leading(self):
        """(leading exponent, leading coefficient); raises on the zero series."""
        if not self.terms:
            raise ValmonError("zero series has no leading data")
        return self.terms[0]

    def __repr__(self):
        if not self.terms:
            return "NoetherianSeries(0)"
        bits = []
        for e, c in self.terms:
            cc = as_rational(c)
            cs = rat_str(cc) if cc is not None else repr(c)
            bits.append(f"({cs})*t^({rat_str(e)})")
        return "NoetherianSeries(" + " + ".join(bits) + ")"


def series_add(a, b):
    """Pointwise sum."""
    return a + b


def series_mul(a, b):
    """Convolution product."""
    return a * b


def leading_data(a):
    """(LE, LC) of a nonzero series; LE and LC are multiplicative."""
    return a.leading()


def agreement_order(a, b):
    """Number of identical initial terms of two series, compared termwise."""
    m = 0
    for (e1, c1), (e2, c2) in zip(a.terms, b.terms):
        if e1 != e2 or c1 != c2:
            break
        m += 1
    return m


class TailRule:
    """How a spec continues past its explicit prefix."""

    def next_term(self, prev_coeff, prev_exp, index):
        return None

    def to_json(self):
        return {"kind": "none"}


class GeometricTail(TailRule):
    """Exponents continue by e -> e/base with unit coefficients."""

    def __init__(self, base):
        if not isinstance(base, int) or base < 2:
            raise InvalidSpec("geometric tail base must be an integer >= 2")
        self.base = base

    def next_term(self, prev_coeff, prev_exp, index):
        return (Fraction(1), prev_exp / self.base)

    def to_json(self):
        return {"kind": "geometric", "base": self.base}


class CallbackTail(TailRule):
    """Tail terms supplied by a callable index -> (coeff, exponent) or None.

    Indices are 1-based positions within the tail.  The callback keeps the
    library open to arbitrary exponent sequences without interpreting them.
    """

    def __init__(self, fn):
        self.fn = fn

    def next_term(self, prev_coeff, prev_exp, index):
        got = self.fn(index)
        if got is None:
            return None
        c, e = got
        return (Fraction(c), Fraction(e))

    def to_json(self):
        raise InvalidSpec("callback tails have no JSON form")


class SimpleSeriesSpec:
    """A simple series: explicit prefix terms plus an optional tail rule.

    Exponents must be strictly decreasing and positive, coefficients nonzero.
    Terms are produced lazily and cached; term indices are 1-based to match
    the exponent-sequence convention e_1 > e_2 > ...
    """

    def __init__(self, prefix, tail=None):
        tail = tail if tail is not None else TailRule()
        terms = []
        for c, e in prefix:
            c, e = Fraction(c), Fraction(e)
            if c == 0:
                raise InvalidSpec("zero coefficient in prefix")
            if e <= 0:
                raise InvalidSpec(f"nonpositive exponent {e}")
            if terms and e >= terms[-1][1]:
                raise InvalidSpec("exponents must be strictly decreasing")
            terms.append((c, e))
        if not terms:
            raise InvalidSpec("empty prefix")
        self._terms = tuple(terms)
        self._prefix_len = len(terms)
        self.tail = tail
        self._lock = threading.Lock()

    def term(self, i):
        """The i-th term (c_i, e_i), 1-based, or None when the spec is spent.

        Safe to call from several threads: tail terms are generated under a
        lock into a private list, then published as a new tuple, so readers
        of already generated terms never wait and never see a partial list.
        """
        terms = self._terms
        if i <= len(terms):
            return terms[i - 1]
        with self._lock:
            ext = list(self._terms)
            while len(ext) < i:
                c_prev, e_prev = ext[-1]
                nxt = self.tail.next_term(
                    c_prev, e_prev, len(ext) - self._prefix_len + 1)
                if nxt is None:
                    break
                c, e = nxt
                if c == 0 or e <= 0 or e >= e_prev:
                    raise InvalidSpec(f"tail produced invalid term ({c}, {e})")
                ext.append((c, e))
            self._terms = tuple(ext)
        return ext[i - 1] if i <= len(ext) else None

    def to_json(self):
        return {
            "prefix": [{"c": rat_str(c), "e": rat_str(e)}
                       for c, e in self._terms[:self._prefix_len]],
            "tail": self.tail.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        try:
            prefix = [(rat(t["c"]), rat(t["e"])) for t in data["prefix"]]
            tail_data = data.get("tail", {"kind": "none"})
            kind = tail_data.get("kind", "none")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"malformed spec JSON: {exc}")
        if kind == "none":
            tail = TailRule()
        elif kind == "geometric":
            tail = GeometricTail(int(tail_data["base"]))
        else:
            raise InvalidSpec(f"unknown tail kind {kind!r}")
        return cls(prefix, tail)


def dyadic_spec():
    """z = t^(1/2) + t^(1/4) + t^(1/8) + ..., the workhorse example."""
    return SimpleSeriesSpec([(1, Fraction(1, 2))], GeometricTail(2))


BUILTIN_SPECS = {"dyadic": dyadic_spec}


def truncate(spec, n):
    """The series of the first n terms of the spec."""
    terms = []
    for i in range(1, n + 1):
        t = spec.term(i)
        if t is None:
            raise InsufficientPrecision(
                f"spec has fewer than {n} terms (got {i - 1})")
        c, e = t
        terms.append((e, c))
    return NoetherianSeries(terms)


class FinitePuiseux:
    """A finite Puiseux series with positive exponents and its ramification
    index R = lcm of the exponent denominators."""

    def __init__(self, terms):
        cleaned = NoetherianSeries(
            (Fraction(e), Fraction(c)) for e, c in terms)
        for e, c in cleaned.terms:
            if e <= 0:
                raise InvalidSpec(f"nonpositive exponent {e} in Puiseux series")
        self.series = cleaned
        self.ram_index = lcm(*(e.denominator for e, _ in cleaned.terms))

    @classmethod
    def from_series(cls, s):
        return cls(s.terms)

    @property
    def terms(self):
        return self.series.terms

    def is_zero(self):
        return self.series.is_zero()


def conjugate(w, j):
    """The j-th conjugate of a finite Puiseux series.

    Each coefficient c at exponent m/R (common denominator R = w.ram_index)
    becomes c * zeta_R^(j*m).  Coefficients that land back in Q are demoted
    to Fraction.
    """
    R = w.ram_index
    if not 0 <= j < R:
        raise ValueError(f"conjugate index {j} out of range [0, {R})")
    if j == 0 or R == 1:
        return NoetherianSeries(w.terms)
    out = []
    for e, c in w.terms:
        m = e * R
        assert m.denominator == 1
        root = CyclotomicElement.zeta(R, (j * m.numerator) % R)
        coeff = root * c
        q = coeff.as_rational()
        out.append((e, q if q is not None else coeff))
    return NoetherianSeries(out)
