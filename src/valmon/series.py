"""Generalized power series with rational exponents, exact throughout.

A series is a finite list of (exponent, coefficient) terms in strictly
descending exponent order; the infinite objects of interest exist only as a
SimpleSeriesSpec (finite prefix plus a tail rule) together with on-demand
truncation.  Coefficients are Fraction; the arithmetic needs only that a
coefficient compares equal to 0 exactly when it vanishes.
"""

import threading
from fractions import Fraction
from math import lcm

from .errors import InsufficientPrecision, InvalidSpec, ValmonError
from .exactnum import _exact, _is_int, rat, rat_str

_ONE = Fraction(1)


class NoetherianSeries:
    """Finite-support series, terms strictly descending, no zero coefficients.
    Exponents are read exactly (a float or a bool raises ValueError,
    exactnum._exact); coefficients are duck-typed."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for e, c in terms:
            e = _exact(e, ValueError)
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

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not slot by slot
        return NoetherianSeries, (self.terms,)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, coeff, exponent):
        if coeff == 0:
            return cls()
        return cls(((exponent, coeff),))

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
            cs = rat_str(c) if isinstance(c, (int, Fraction)) else repr(c)
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
        return (_ONE, Fraction(prev_exp.numerator,
                               prev_exp.denominator * self.base))

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
        return (_exact(c), _exact(e))

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
            c, e = _exact(c), _exact(e)
            if c == 0:
                raise InvalidSpec("zero coefficient in prefix")
            if e <= 0:
                raise InvalidSpec(f"nonpositive exponent {e}")
            if terms and e >= terms[-1][1]:
                raise InvalidSpec("exponents must be strictly decreasing")
            terms.append((c, e))
        if not terms:
            raise InvalidSpec("empty prefix")
        self._terms = terms
        self._prefix_len = len(terms)
        self.tail = tail
        self._lock = threading.Lock()

    def term(self, i):
        """The i-th term (c_i, e_i), 1-based, or None when the spec is spent;
        an i that is not an int >= 1 raises ValueError.  Tail terms are
        checked on their numerators and denominators.

        Safe to call from several threads: the terms are one list that
        only grows, by appends under a lock, each term checked before it is
        appended, so readers of already generated terms index it without
        waiting.  Only the terms up to i are generated.
        """
        if not _is_int(i) or i < 1:
            raise ValueError(f"term index must be an int >= 1, not {i!r}")
        terms = self._terms
        if i <= len(terms):
            return terms[i - 1]
        with self._lock:
            while len(terms) < i:
                c_prev, e_prev = terms[-1]
                nxt = self.tail.next_term(
                    c_prev, e_prev, len(terms) - self._prefix_len + 1)
                if nxt is None:
                    return None
                c, e = nxt
                n, d = e.numerator, e.denominator
                if (not c.numerator or n <= 0
                        or n * e_prev.denominator >= e_prev.numerator * d):
                    raise InvalidSpec(f"tail produced invalid term ({c}, {e})")
                terms.append((c, e))
        return terms[i - 1]

    def to_json(self):
        return {
            "prefix": [{"c": rat_str(c), "e": rat_str(e)}
                       for c, e in self._terms[:self._prefix_len]],
            "tail": self.tail.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        """The spec of a JSON object; InvalidSpec for any malformed part,
        the tail included."""
        try:
            prefix = [(rat(t["c"]), rat(t["e"])) for t in data["prefix"]]
            tail_data = data.get("tail", {"kind": "none"})
            kind = tail_data.get("kind", "none")
            if kind == "none":
                tail = TailRule()
            elif kind == "geometric":
                base = rat(tail_data["base"])
                if base.denominator != 1:
                    raise ValueError(
                        f"geometric tail base {tail_data['base']!r} is not "
                        f"an integer")
                tail = GeometricTail(base.numerator)
            else:
                raise InvalidSpec(f"unknown tail kind {kind!r}")
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise InvalidSpec(f"malformed spec JSON: {exc}")
        return cls(prefix, tail)


def dyadic_spec():
    """z = t^(1/2) + t^(1/4) + t^(1/8) + ..., the workhorse example."""
    return SimpleSeriesSpec([(1, Fraction(1, 2))], GeometricTail(2))


BUILTIN_SPECS = {"dyadic": dyadic_spec}


def truncate(spec, n):
    """The series of the first n terms of the spec."""
    if not _is_int(n):
        raise ValueError(f"term count {n!r} is not an int")
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
            (_exact(e), _exact(c)) for e, c in terms)
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
