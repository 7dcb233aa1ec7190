"""Exact bivariate polynomials over Q and their images under x -> t, y -> z.

The central operation is eval_leading: the leading exponent and coefficient
of f(t, z), read off one exact evaluation f(t, z_N) at a truncation depth
fixed by the y-degree alone: the least N whose ramification index r_N
exceeds deg_y f.  Expanding f in x and the truncation minimal polynomials
p_j (MacLane's key polynomials) shows that at this depth every term of the
expansion keeps its leading term, and canonical representations keep the
terms' values distinct, so no tail can cancel the top (proof at
eval_leading).

The p_j behind every preimage are norms of y - z_k, built as a tower of
prime-degree norms (Abhyankar-Moh's approximate-root tower), each step
with the p-th roots of unity of one prime p | R, never all of Q(zeta_R):
for p = 2 a difference of two squares of ordinary polynomials.

Polynomials are integer numerators over one common denominator, so
arithmetic, evaluation and the norm tower all run on ints; Fractions appear
only at the boundary (constructor, coeffs, monomials, leading data).

Every image at z_N has one layout: int coefficients at consecutive scaled
exponents from an int floor up, zeros included, with the top term last and
floor 0 meaning complete, since no scaled exponent is negative.  The table
powers of z_N (_ZPow), the windows of a scan (_scan), the image a reduction
carries (Image, inside Remainder) and the floored images of basis elements
and preimages (_image_down_to, preimage_image) all use it, so a band is
located by index arithmetic and nothing is sorted.

Packed ints whose fields are coefficients (Kronecker substitution) hold
the powers, which stay packed, and sum each scan window, of which only the
window's fields are decoded.  One packed multiply (_product), decoded
in full, forms large polynomial products (_accumulate), the squares of
the p = 2 norm steps, and the products of images behind each preimage
(_product_band, preimage_image), and multiplies the largest exactly in
decimal.  Every
other product of images is one reduction step (n/d) * x^n * g * p,
subtracted in place from an image above its floor (Image.subtract); an
S-polynomial is two such steps from a zero image (syzygy_image), so
buchberger never scans one.
"""

import sys
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import sub
from struct import iter_unpack

from .errors import (InsufficientPrecision, InternalError, NotInMonoid,
                     PolyParseError, ZeroPolynomial)
from .exactnum import _exact, _int, _is_int
from .seqderive import _pull_terms
from .series import FinitePuiseux
from .valmonoid import MonoidRep, decompose

_EXPONENT_CAP = 10 ** 4
_NESTING_CAP = 100  # checked at each "(", so parsing recursion is bounded
# caps on the dense size (deg_x + 1) * (deg_y + 1) and on the coefficient
# bit length of any parsed product or power, checked before it is computed
_DENSE_CAP = 10 ** 5
_COEFF_BITS_CAP = 10 ** 6
# cap on the int fields of one scan window (_scan) or of the powers one
# power-table extension packs (_ZPow.rows; a rebuild packs every power),
# checked before they are allocated
_FIELDS_CAP = 10 ** 7
# bits a monomial's weight may take over the powers it reads before a scan
# cuts the weights into digits, one packed sum each, instead of widening
# the power table (_prepare)
_LIMB_BITS = 64


def _check_fields(n, what):
    if n > _FIELDS_CAP:
        raise ValueError(f"{what} needs {n} fields, over the cap of "
                         f"{_FIELDS_CAP}")


class BivarPoly:
    """Sparse exact polynomial in x and y over Q: integer numerators
    {(xdeg, ydeg): int} over one positive denominator, in lowest terms, so
    equal polynomials have equal representations; the zero polynomial is
    {} over 1.  Arithmetic has one entry point, the fused accumulation
    self + sign*q*r on ints (_add_product, over the in-place kernel
    _accumulate): a sum or difference is a product with the constant 1, a
    product accumulates into zero, and the result is normalised once, in
    _make.  scale and negation multiply the numerators by an int pair.
    The hash and deg_y are computed on first use and kept.

    The constructor takes a dict or (key, coeff) pairs with non-negative
    int exponents and int, Fraction or "p/q" coefficients; any other
    exponent, a bool included, or a float, bool or decimal-string
    coefficient (exactnum._exact), raises ValueError.  coeffs and
    monomials() return Fractions.  Monomials iterate and print in
    (y-degree, x-degree) lexicographic order, purely for determinism.
    """

    __slots__ = ("_num", "_den", "_hash", "_degy")

    def __new__(cls, coeffs=()):
        fr = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for (a, b), v in items:
            if not (_is_int(a) and _is_int(b) and a >= 0 and b >= 0):
                raise ValueError(
                    f"exponents must be non-negative ints, got {(a, b)!r}")
            fr[a, b] = fr.get((a, b), 0) + _exact(v, ValueError)
        den = lcm(*(v.denominator for v in fr.values()))
        return cls._make({k: v.numerator * (den // v.denominator)
                          for k, v in fr.items()}, den)

    @classmethod
    def _make(cls, num, den, degy=None):
        """num / den for int numerators (zeros allowed) and a positive int
        denominator, reduced to lowest terms; degy is its deg_y, if known."""
        num = {k: v for k, v in num.items() if v}
        g = gcd(den, *num.values())
        if g > 1:
            num = {k: v // g for k, v in num.items()}
            den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "_num", num)
        object.__setattr__(poly, "_den", den)
        object.__setattr__(poly, "_hash", None)
        object.__setattr__(poly, "_degy", degy)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _make, not slot by slot
        return BivarPoly._make, (self._num, self._den)

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
        if self._degy is None:
            object.__setattr__(self, "_degy",
                               max((b for _, b in self._num), default=0))
        return self._degy

    def __eq__(self, other):
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self._den, frozenset(self._num.items()))))
        return self._hash

    def __add__(self, other):
        return self._add_product(1, other, _ONE)

    def __neg__(self):
        return self._scaled(-1, 1)

    def __sub__(self, other):
        return self._add_product(-1, other, _ONE)

    def __mul__(self, other):
        return _ZERO._add_product(1, self, other)

    def _add_product(self, sign, q, r):
        """self + sign*q*r for sign = +-1, without building and reducing q*r
        on its own: the arithmetic entry point behind +, -, * and the
        S-polynomials a*f - b*g.  The terms of q*r are accumulated into a
        copy of self's numerators (_accumulate), and the result is
        normalised once, in _make."""
        acc = dict(self._num)
        den = _accumulate(acc, self._den, q, r, sign)
        return BivarPoly._make(acc, den)

    def scale(self, q):
        """q * self for any q Fraction takes but a float (ValueError)."""
        if isinstance(q, int):
            return self._scaled(q, 1)
        if not isinstance(q, Fraction):
            q = _exact(q, ValueError)
        return self._scaled(q.numerator, q.denominator)

    def _scaled(self, n, d, shift=0):
        """(n / d) * x^shift * self for ints n, d, shift with d > 0."""
        return BivarPoly._make(
            {(a + shift, b): v * n for (a, b), v in self._num.items()},
            self._den * d, n and self.deg_y())

    def __pow__(self, n):
        if not _is_int(n) or n < 0:
            raise ValueError(f"polynomial power {n!r} is not an int >= 0")
        result = BivarPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def to_string(self):
        """Terms in monomials() order, each coefficient v/den written from
        the int numerator v, reduced by gcd(|v|, den), 1 left out."""
        num, den = self._num, self._den
        if not num:
            return "0"
        bits = []
        for a, b in sorted(num, key=lambda k: (k[1], k[0]), reverse=True):
            v = num[a, b]
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
            if not mono or mag != den:
                g = gcd(mag, den)
                mono.insert(0, f"{mag // g}" if g == den
                            else f"{mag // g}/{den // g}")
            text = "*".join(mono)
            if not bits:
                bits.append(text if v > 0 else "-" + text)
            else:
                bits.append(("+ " if v > 0 else "- ") + text)
        return " ".join(bits)

    __str__ = to_string

    def __repr__(self):
        return f"BivarPoly({self.to_string()!r})"


# q*r is multiplied packed above this many term pairs, when they are at
# least _PACK_DENSITY per entry of its dense box (_accumulate)
_PACK_PAIRS = 1024
_PACK_DENSITY = 4


def _accumulate(acc, den, q, r, n, d=1, shift=0):
    """acc / den += (n/d) * x^shift * q*r in place, for acc a dict of int
    numerators over den (zeros allowed) and ints n, d, shift with d > 0,
    returning the new denominator, the lcm of den and d*den_q*den_r; acc
    is rescaled only when it grows.  This is BivarPoly's one arithmetic
    loop: _add_product runs it on a copy of self's numerators, and
    Remainder on the numerators it carries.

    The product m*q*r, m = n * new_den / (d * den_q * den_r), is formed by
    one of two strategies with the same result.  Term by term, each pair of
    terms adds its product to acc.  Packed, when q and r have more than
    _PACK_PAIRS term pairs and at least _PACK_DENSITY of them per entry of
    the dense box X*Y of the product's exponents, by Kronecker substitution:
    each factor is a list in rows of the product's y range Y (_dense), so
    no row of the product spills into the next, and the product of the two
    lists (_product) holds q*r in the same layout.  A square, r is q, is
    one list multiplied by itself.
    """
    qr_den = q._den * r._den * d
    new = lcm(den, qr_den)
    if new != den:
        m1 = new // den
        for k in acc:
            acc[k] *= m1
    m = n * (new // qr_den)
    qn, rn = q._num, r._num
    if len(qn) * len(rn) > _PACK_PAIRS:
        (qx, qy), (rx, ry) = zip(*qn), zip(*rn)
        x0, y0 = min(qx) + min(rx) + shift, min(qy) + min(ry)
        ncols = max(qy) + max(ry) - y0 + 1
        nfields = (max(qx) + max(rx) - x0 + 1) * ncols
        if _PACK_DENSITY * nfields <= len(qn) * len(rn):
            dq = _dense(qn, qx, qy, ncols)
            fields = _product(dq, dq if r is q else _dense(rn, rx, ry, ncols))
            for i in compress(range(len(fields)), fields):
                a, b = divmod(i, ncols)
                k = (x0 + a, y0 + b)
                acc[k] = acc.get(k, 0) + m * fields[i]
            return new
    right = rn.items()
    for (a1, b1), v1 in qn.items():
        v1 *= m
        a1 += shift
        for (a2, b2), v2 in right:
            k = (a1 + a2, b1 + b2)
            if k in acc:
                acc[k] += v1 * v2
            else:
                acc[k] = v1 * v2
    return new


def _dense(num, xs, ys, ncols):
    """The coefficients of num as a list, x^a y^b at entry
    (a - min xs)*ncols + (b - min ys), zeros included; xs and ys are the
    x- and y-exponents of num's terms."""
    a0, b0 = min(xs), min(ys)
    out = [0] * ((max(xs) - a0) * ncols + max(ys) - b0 + 1)
    for (a, b), v in num.items():
        out[(a - a0) * ncols + b - b0] = v
    return out


_ZERO = BivarPoly.zero()
_ONE = BivarPoly.one()


# ---------------------------------------------------------------------------
# Parsing
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' natural)?
# base   := 'x' | 'y' | rational | '(' expr ')'
# rational := natural ('/' natural)?

def _bits(p):
    """bit_length(|num|_1) + bit_length(den) for p = num / den, a bound on
    the bit length of every numerator and of the denominator.  The sum of
    the absolute numerators is submultiplicative, so _bits of a product is
    at most the sum of its factors' and _bits of a power n at most n times
    its base's."""
    return sum(map(abs, p._num.values())).bit_length() + p._den.bit_length()


def _check_size(deg_x, deg_y, bits, at):
    if (deg_x + 1) * (deg_y + 1) > _DENSE_CAP:
        raise PolyParseError(f"result exceeds {_DENSE_CAP} dense terms", at)
    if bits > _COEFF_BITS_CAP:
        raise PolyParseError(
            f"result coefficients may exceed {_COEFF_BITS_CAP} bits", at)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

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
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected a number", start)
        return _int(self.text[start:self.pos], "a number",
                    lambda message: PolyParseError(message, start))

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
            _check_size(node.deg_x() + rhs.deg_x(),
                        node.deg_y() + rhs.deg_y(), _bits(node) + _bits(rhs),
                        at)
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
            _check_size(n * node.deg_x(), n * node.deg_y(), n * _bits(node),
                        at)
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
            if self.depth == _NESTING_CAP:
                raise PolyParseError(
                    f"parentheses nested deeper than {_NESTING_CAP}", self.pos)
            self.take("(")
            self.depth += 1
            node = self.expr()
            self.take(")")
            self.depth -= 1
            return node
        if ch.isdecimal():
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

@dataclass(frozen=True, slots=True)
class LeadingData:
    """Leading exponent and coefficient of f(t, z).

    certified_at is the truncation depth N at which the evaluation was
    exact (see eval_leading).  point is the int le * R on the context's
    lattice (1/R)Z, or None off it (valmonoid.lattice_point).
    """

    le: Fraction
    lc: Fraction
    certified_at: int
    point: int | None


class _ZPow:
    """Integer powers (d*z_N)^b of a truncation z_N, given by its
    (coeff, exponent) terms in descending exponent order: exponents are
    scaled by the lcm of their denominators (scale, which is r_N) and
    coefficients by the lcm d of theirs (den), so every table entry is an
    int.

    With lead and low the greatest and least scaled exponents of z_N, the
    power b has b*(lead - low) + 1 entries: entry i is the coefficient of
    (d*z_N)^b at scaled exponent b*low + i, zeros included.  The first and
    last entries, the b-th powers of the lowest and leading coefficients,
    are nonzero, so the top term is last.

    Each power stays packed (Kronecker substitution; Harvey, JSC 44, 2009)
    as the int P = sum a_i * 2^(W*i) whose W-bit fields, W = 8*width, are
    its entries a_i.  Multiplying by d*z_N is then
    sum c * (P << W*(e - low)) over the terms (e, c), a few shifts and
    adds inside CPython's big-int code.  A power is kept as the
    little-endian two's-complement bytes of its P, so that a band of
    entries is a slice (_scan), and no field is decoded here.

    Width.  Let |g|_1 be the sum of the absolute values of g's
    coefficients.  The triangle inequality gives |gh|_1 <= |g|_1 |h|_1, so
    every coefficient of (d*z_N)^k has absolute value at most
    |d*z_N|_1^k.  A packed sum of a scan adds the entries of powers up to
    b weighted by its monomials, at the table's width, so its sums are
    bounded by weight * |d*z_N|_1^b for weight the sum of its absolute
    weights.  One width serves them all: 2^(W-2) exceeds |d*z_N|_1^top for
    the top power and the bound of every request (rows), which _prepare
    caps at _LIMB_BITS bits a monomial over |d*z_N|_1^b, so the width
    follows the powers and not the scans' weights.  A request within the
    width only adds powers, each from the last by the shifted adds.  A
    wider one builds the table anew at the least width (_width), rounded
    up to 1, 2, 4 or 8 bytes below 8, which a scan decodes by one cast
    (_unpack).

    table is the one tuple (width, rows), rows[b] the bytes of power b.
    Extensions are built under a lock and published as a new tuple, so a
    published table never changes and is read lock-free (_prepare checks
    it without the lock), and a table only gains powers and width.
    """

    def __init__(self, terms):
        self.depth = len(terms)
        self.scale = lcm(*(e.denominator for _, e in terms))
        self.den = lcm(*(c.denominator for c, _ in terms))
        self.zterms = tuple(
            (e.numerator * (self.scale // e.denominator),
             c.numerator * (self.den // c.denominator)) for c, e in terms)
        self.lead = self.zterms[0][0]
        self.low = self.zterms[-1][0]
        self.norm = sum(abs(c) for _, c in self.zterms)
        self.table = (1, (b"\x01",))
        self._lock = threading.Lock()

    def rows(self, b, bound=1):
        """Make the table hold the powers 0..b at least, at a width with
        bound < 2^(W-2)."""
        with self._lock:
            width, rows = self.table
            if len(rows) > b and not bound >> 8 * width - 2:
                return
            top = max(b, len(rows) - 1)
            bound = max(bound, self.norm ** top)
            if bound >> 8 * width - 2:
                width = _width(bound)
                if width < 8:  # scans decode these widths by one cast
                    width = 1 << (width - 1).bit_length()
                rows = ((1).to_bytes(width, "little"),)
            rows, k = list(rows), len(rows) - 1
            span = self.lead - self.low
            _check_fields(
                top - k + span * (top * (top + 1) - k * (k + 1)) // 2,
                f"power table of z_{self.depth} up to power {top}")
            shifts = tuple((8 * width * (e - self.low), c)
                           for e, c in self.zterms)
            packed = int.from_bytes(rows[-1], "little", signed=True)
            while k < top:
                packed = sum(packed << s if c == 1 else c * (packed << s)
                             for s, c in shifts)
                k += 1
                rows.append(packed.to_bytes((k * span + 1) * width, "little",
                                            signed=True))
            self.table = (width, tuple(rows))


def _pack(coeffs, width):
    """sum a_i * 2^(W*i) over the coefficients a_i, W = 8*width: each field
    is written as a_i + 2^(W-1) into one byte string, and the offsets are
    subtracted once, as an int."""
    zero = bytes(width - 1) + b"\x80"  # 2^(W-1), little-endian
    half = 1 << (8 * width - 1)
    data = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
    return (int.from_bytes(data, "little")
            - int.from_bytes(zero * len(coeffs), "little"))


def _width(bound):
    """Bytes per field for ints of absolute value at most bound: the least
    with bit_length(bound) + 2 bits."""
    return (bound.bit_length() + 9) // 8


# memoryview formats of the field widths _unpack reads natively, empty on a
# big-endian machine, where it reads field by field
_CAST = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}
# fields from which _unpack copies the bytes of 3-, 5-, 6- and 7-byte
# fields in strides rather than reading them one by one, whose fixed cost
# is the smaller below it
_STRIDED_FIELDS = 32
# translate table: the sign byte (0x00 or 0xff) that extends a
# two's-complement top byte
_SIGN = bytes(128) + b"\xff" * 128


def _unpack(packed, n, width):
    """The n fields of width bytes of a packed int, such as a scan window
    or a product of two packed lists (_product), as a list of ints, for
    fields a_i with |a_i| < 2^(W-1), W = 8*width.
    Read as two's complement, a field of packed borrows 1 from the field
    above it whenever the fields below sum to a negative int.  Adding
    Z = sum 2^(W-1) * 2^(W*i), one big-int addition, carries all those
    borrows at once: as |a_i| < 2^(W-1), the sum has the base-2^W digits
    a_i + 2^(W-1), each in [0, 2^W).  Flipping each digit's top bit (xor
    Z) then leaves a_i mod 2^W, the field's own two's complement, read
    signed.

    On a little-endian machine a field of 1, 2, 4 or 8 bytes is read by
    one memoryview cast.  So are _STRIDED_FIELDS fields or more of 3, 5, 6
    or 7 bytes, spread by strided copies into 8-byte slots whose high
    bytes are copies of the field's sign byte (one translate of its top
    bytes).  Other fields are read one by one."""
    zero = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    data = ((packed + zero) ^ zero).to_bytes(n * width, "little")
    if width in _CAST:
        return memoryview(data).cast(_CAST[width]).tolist()
    if not _CAST or width > 8 or n < _STRIDED_FIELDS:
        return [int.from_bytes(c, "little", signed=True)
                for (c,) in iter_unpack(f"{width}s", data)]
    sign = data[width - 1::width].translate(_SIGN)
    slots = bytearray(8 * n)
    for j in range(8):
        slots[j::8] = data[j::width] if j < width else sign
    return memoryview(slots).cast("q").tolist()


# a product whose larger operand packs into at least this many bits is
# multiplied in decimal (_product)
_DECIMAL_BITS = 1 << 18


def _field_digits(bound):
    """The least k with 10^k > 10 * bound, for an int bound > 0, counted up
    from a lower bound, as log10(2) > 0.30102."""
    k = (bound.bit_length() - 1) * 30102 // 100000 + 2
    while 10 ** k <= 10 * bound:
        k += 1
    return k


def _product(a, b):
    """The product of the coefficient lists a and b: the list of
    c_k = sum over i + j = k of a_i * b_j for k < len(a) + len(b) - 1,
    empty when a or b is.

    One packed multiply, as in _ZPow: with L = |a|_1 |b|_1, every c_k and,
    when neither list is all zeros, every entry of either list has absolute
    value at most L by the triangle inequality, so fields of
    W = bit_length(L) + 2 bits, rounded up to whole bytes, hold them all
    with |c_k| <= L < 2^(W-2).  The product of the packed lists is
    P = sum c_k * 2^(W*k), and _unpack reads its fields back.  When one
    list is all zeros, L = 0 and so is every c_k, while the other list's
    entries need not fit W bits, so nothing is packed.  A square, b is a,
    packs once and multiplies the number by itself, which CPython and
    libmpdec square faster than a product of two equal numbers.

    Large products, whose larger list packs into _DECIMAL_BITS or more,
    are packed the same way in base 10 and multiplied by the standard
    library's decimal module, whose C implementation (libmpdec)
    multiplies large operands by number-theoretic transform (Pollard,
    Math. Comp. 25, 1971) where CPython's ints use Karatsuba.  Fields have
    k digits, k the least with 10^k > 10 L (_field_digits), so with
    h = 5 * 10^(k-1) every entry and every c_k lies in (-h/5, h/5).  A
    list is read as the digit string of its entries plus h, k digits each,
    top entry first, less the string of as many h's: the int
    sum a_i * 10^(k*i).  The product of two such ints plus the h's of its
    n = len(a) + len(b) - 1 fields has the k-digit digits c_k + h, each in
    (4 * 10^(k-1), 6 * 10^(k-1)), so it has exactly n*k digits, and each
    c_k is its k-digit slice less h.

    Exactness.  Every Decimal formed here holds an int of at most n*k
    digits: the digit strings by construction, the packed lists as
    |sum a_i * 10^(k*i)| < 10^(k*len(a)), their product as
    |sum c_k * 10^(k*i)| < 10^(n*k) by |c_k| < 10^(k-1), and the sum with
    the h's by the digits above.  The arithmetic runs in a local context
    of precision n*k and exponent limit MAX_EMAX, so none of these ints is
    rounded, and the context traps Inexact, Rounded and InvalidOperation,
    so a result that did not fit would raise, never round.  No Decimal
    leaves this function, whose result is ints read off the digits, and no
    float is formed.  The context is passed to each operation and never
    installed, so threads share nothing.  The int route is taken instead
    where a field has more digits than int() reads
    (sys.get_int_max_str_digits, from Python 3.10.7 and 3.11; before
    them, as when the limit is set to 0, int() reads any length), or
    where the C module _decimal is missing, as the pure-Python one is
    slower than ints.
    """
    n = len(a) + len(b) - 1 if a and b else 0
    norm = sum(map(abs, a))
    bound = norm * (norm if b is a else sum(map(abs, b)))
    if not bound:
        return [0] * n
    width = _width(bound)
    if 8 * width * max(len(a), len(b)) >= _DECIMAL_BITS:
        try:
            import _decimal as decimal
        except ImportError:
            decimal = None
        k = _field_digits(bound)
        cap = getattr(sys, "get_int_max_str_digits", int)()
        if decimal is not None and (not cap or k <= cap):
            context = decimal.Context(
                prec=n * k, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                traps=[decimal.Inexact, decimal.Rounded,
                       decimal.InvalidOperation])
            half, halves = 5 * 10 ** (k - 1), "5" + "0" * (k - 1)
            field = f"{{:0{k}d}}".format

            def as_decimal(c):
                return context.subtract(
                    context.create_decimal(
                        "".join(map(field, map(half.__add__, reversed(c))))),
                    context.create_decimal(halves * len(c)))

            # each Decimal is dropped once the next is formed, so the
            # operands are gone before the h's are added, and only the
            # digit string is held while the ints are read off it
            x = as_decimal(a)
            x = context.multiply(x, x if b is a else as_decimal(b))
            x = context.add(x, context.create_decimal(halves * n))
            digits = context.to_sci_string(x)
            del x
            return [int(digits[i:i + k]) - half
                    for i in range(n * k - k, -1, -k)]
    packed = _pack(a, width)
    return _unpack(packed * (packed if b is a else _pack(b, width)), n,
                   width)


def _product_band(p, q, lo, hi):
    """Entries lo <= e < hi of the product of two images in Image's layout,
    p and q given as (floor, coefficients, ...) with their top terms last
    and each holding every term of its image at or above lo minus the
    other's top.  A term of the product at e >= lo is a sum of products of
    terms of p and q at exponents e_p + e_q = e with e_p <= top(p) and
    e_q <= top(q), so e_p >= lo - top(q) and e_q >= lo - top(p): only those
    terms are multiplied (_product), the band is sliced out of their
    product, and entries below the two floors' sum are zero.  The band
    holds hi - lo entries when lo <= hi <= top(p) + top(q) + 1."""
    (pf, pn), (qf, qn) = p[:2], q[:2]
    i = max(lo - qf - len(qn) + 1, pf)
    j = max(lo - pf - len(pn) + 1, qf)
    pad = min(max(i + j - lo, 0), hi - lo)
    skip = max(lo - i - j, 0)
    return (0,) * pad + tuple(
        _product(pn[i - pf:], qn[j - qf:])[skip:skip + hi - lo - pad])


def _prepare(f, zp, D):
    """Integer work list for f(t, z_N), and the denominator of the
    evaluation; D is deg_y f.

    With d = zp.den, f(t, z_N) = sum num * t^a * z_N^b / den_f
    = sum num * d^(D-b) * t^a * (d*z_N)^b / (den_f * d^D), so each monomial
    weighs its numerator by d^(D-b) against the table of (d*z_N)^b.  The
    table is extended to power D up front, so a scan reads it as it is
    (_scan).

    The work list is (step, terms), terms a list of (scaled x-shift, ydeg,
    weight).  A scan's packed sum needs S * |d*z_N|_1^D < 2^(W-2) for S the
    sum of the absolute weights (_ZPow).  The table is asked for
    min(S, m * 2^H) times |d*z_N|_1^D, for m monomials and H = _LIMB_BITS,
    so large weights do not widen it.  When S fits, step is 0 and each
    weight an int.  Otherwise that min is m * 2^H, so
    m * |d*z_N|_1^D * 2^H < 2^(W-2) and
    step = W - 2 - bit_length(m * |d*z_N|_1^D) >= H, and each weight is
    the list of its base-2^step digits, least first, all of one length,
    each with the weight's sign.  The k-th digits then have absolute
    values summing to under m * 2^step, so their packed sum fits the
    width, and the weights are the sums of their digits times 2^(k*step).
    """
    d, scale = zp.den, zp.scale
    terms = []
    weight = 0
    for (a, b), v in f._num.items():
        w = v * d ** (D - b)
        terms.append((a * scale, b, w))
        weight += abs(w)
    norm = zp.norm ** D
    need = weight * norm
    den = f._den * d ** D
    width, rows = zp.table
    if len(rows) <= D or need >> 8 * width - 2:
        zp.rows(D, min(weight, len(terms) << _LIMB_BITS) * norm)
        bits = 8 * zp.table[0] - 2
        if need >> bits:
            step = bits - (len(terms) * norm).bit_length()
            mask = (1 << step) - 1
            lifts = range(0, max(abs(w) for *_, w in terms).bit_length(),
                          step)
            split = []
            for shift, b, w in terms:
                digits = [abs(w) >> lift & mask for lift in lifts]
                split.append((shift, b, digits if w > 0 else
                              [-c for c in digits]))
            return (step, split), den
    return (0, terms), den


def _monomial_top(work, zp):
    """The highest scaled exponent any monomial of the work list reaches."""
    return max(shift + b * zp.lead for shift, b, _ in work[1])


def _scan(work, zp, lo, hi):
    """The evaluation at scaled exponents in [lo, hi) as one list of int
    numerators, entry i at exponent lo + i (empty when hi <= lo), for a
    work list from _prepare.

    A monomial adds its weight w times the power (d*z_N)^b, whose entry k
    lies at exponent shift + b*low + k, so the window meets it in one run
    of entries i <= k < j, found by index arithmetic and read as one slice
    of the power's bytes, the fields i..j-1, as a signed int X.

    Proof that X plus one rounding bit is the run exactly.  With P the
    packed power and s = W*i, the slice holds floor(P / 2^s) modulo
    2^(W*(j-i)).  Every field has |a_k| < 2^(W-2) (_ZPow), so the fields
    below i sum to some |lower| < 2^(s-2), and the run to some V with
    |V| < 2^(W*(j-i)-2).  So floor(P / 2^s) is V - [lower < 0] modulo
    2^(W*(j-i)), and both lie in the signed range of the slice, so
    X = V - [lower < 0].  lower < 0 exactly when bit s-1 of P, the top bit
    of the byte before the slice, is set; adding it rounds the shift.

    A run that starts inside the window (i = 0) borrows nothing and is
    shifted to its place; every other starts at the window's first entry.
    The window is one packed sum, each field the sum of w * a_k over the
    monomials, of absolute value under 2^(W-2), the bound _prepare kept the
    weights to, and only its n = hi - lo fields are decoded (_unpack).  For
    int weights the rounding bits, times w, add up to one small int at the
    window's first entry.  For weights cut into digits, each run is read
    once and summed once per digit, and the decoded sums are added at
    their shifts, k*step.
    """
    n = hi - lo
    _check_fields(n, "scan window")
    if n <= 0:
        return []
    step, terms = work
    width, rows = zp.table
    low, end = zp.low, n * width
    from_bytes = int.from_bytes
    if not step:
        acc = borrows = 0
        for shift, b, coeff in terms:
            row = rows[b]
            at = (shift + b * low - lo) * width
            if at < 0:
                if at + len(row) > 0:
                    acc += coeff * from_bytes(row[-at:end - at], "little",
                                              signed=True)
                    if row[-at - 1] > 127:
                        borrows += coeff
            elif at < end:
                acc += coeff * from_bytes(row[:end - at], "little",
                                          signed=True) << 8 * at
        return _unpack(acc + borrows, n, width)
    accs = [0] * len(terms[0][2])
    for shift, b, digits in terms:
        row = rows[b]
        at = (shift + b * low - lo) * width
        if at < 0:
            if at + len(row) <= 0:
                continue
            run = (from_bytes(row[-at:end - at], "little", signed=True)
                   + (row[-at - 1] > 127))
        elif at < end:
            run = from_bytes(row[:end - at], "little", signed=True) << 8 * at
        else:
            continue
        accs = [acc + c * run for acc, c in zip(accs, digits)]
    out = _unpack(accs.pop(), n, width)
    while accs:
        out = [(u << step) + v
               for u, v in zip(out, _unpack(accs.pop(), n, width))]
    return out


def _strip(coeffs):
    """coeffs without its trailing zeros, so that the top term is last."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def _descend(top, zp, band):
    """(floor, coefficients): an image from floor up, given its entries
    at exponents [lo, hi) as the list band(lo, hi), whose trailing zeros
    may be left off, and known to have no term above top.  floor is the
    first of a descending run of windows [top - w, top] that leaves a
    nonzero term (0: every exponent, and no coefficients when the image
    vanishes).

    The width w starts at max(r_N, scaled leading exponent of z_N) and
    doubles, and each band covers only the exponents below the last one,
    whose terms all cancelled, so cancellation near the top costs one pass
    over the cancelled range.
    """
    window = max(zp.scale, zp.lead)
    hi = top + 1
    while True:
        lo = max(top - window, 0)
        got = band(lo, hi)
        if not lo or any(got):
            return lo, _strip(got)
        hi = lo
        window *= 2


def _exact_truncation(spec, degy):
    """Terms of z_N for the least N >= 1 with r_N > degy, or every term of
    a finite spec that runs out first.  Terms are pulled under derive's
    no-jump guard (seqderive._pull_terms)."""
    terms = []
    for term, r in _pull_terms(spec):
        terms.append(term)
        if r > degy:
            break
    return terms


def _power_table(ctx, degy):
    """The power table of z_N at the exact depth for y-degree degy, cached
    per depth and looked up per y-degree.  setdefault keeps one table per
    depth when threads race to build it."""
    zp = ctx.cache.get(("zpow-degy", degy))
    if zp is None:
        terms = _exact_truncation(ctx.spec, degy)
        key = ("zpow", len(terms))
        zp = ctx.cache.get(key) or ctx.cache.setdefault(key, _ZPow(terms))
        ctx.cache[("zpow-degy", degy)] = zp
    return zp


class Image:
    """The evaluation f(t, z_N) of a polynomial f from scaled exponent floor
    up (0: every exponent), as a list num of int numerators over den, entry
    i at exponent floor + i, with the top term last.  A scan gives it over
    den_f * d^(deg_y f), the denominator _prepare gives; subtract keeps it
    over the lcm of the denominators it meets.

    Evaluation at z_N is a ring map and truncation at the floor commutes
    with subtraction, so Remainder carries an image from step to step and
    syzygy_image forms one from zero, subtracting steps in place.  By
    eval_leading's theorem the top term is the leading term of f(t, z)
    while r_N > deg_y f, which Remainder tracks.
    """

    __slots__ = ("zp", "floor", "num", "den", "lattice_den")

    def __init__(self, zp, floor, num, den, lattice_den):
        self.zp = zp
        self.floor = floor
        self.num = num
        self.den = den
        self.lattice_den = lattice_den

    @classmethod
    def scan(cls, f, ctx, *, _below=None):
        """f's image at its exact depth, above the highest window that keeps
        a nonzero term: _descend from the monomial top, each band one
        _scan, or from below ceil(floor * r_N' / r_N) on this table of
        scale r_N' for _below = (floor, r_N) (Remainder.lead)."""
        degy = f.deg_y()
        zp = _power_table(ctx, degy)
        work, den = _prepare(f, zp, degy)
        top = _monomial_top(work, zp)
        if _below is not None:
            top = min(top, -(-_below[0] * zp.scale // _below[1]) - 1)
        floor, num = _descend(top, zp, lambda lo, hi: _scan(work, zp, lo, hi))
        return cls(zp, floor, num, den, ctx.lattice_den)

    def _top(self):
        """(scaled exponent, numerator) of the top term.  A scan leaves no
        term only when the evaluation vanishes, on an exhausted finite
        spec."""
        if not self.num:
            raise InsufficientPrecision(
                "polynomial image vanishes on the exhausted finite series")
        return self.floor + len(self.num) - 1, self.num[-1]

    def lead(self):
        """Leading data of the top term, its lattice point e * R / r_N read
        off the scaled exponent e."""
        e, n = self._top()
        k, rest = divmod(e * self.lattice_den, self.zp.scale)
        return LeadingData(Fraction(e, self.zp.scale), Fraction(n, self.den),
                           self.zp.depth, None if rest else k)

    def entry(self, f):
        """This image of f as an _image_down_to entry (floor, coefficients,
        den), over the denominator _prepare gives f on this table."""
        den = f._den * self.zp.den ** f.deg_y()
        return (self.floor, tuple([v * den // self.den for v in self.num]),
                den)

    def subtract(self, g, le, rep, factor, ctx):
        """Subtract the step (n/d) * x^n * g * p in place, for g of leading
        exponent le, p = prod p_j^(d_j), rep = n + sum d_j rho_j and
        factor = (n, d).  By eval_leading's theorem while r_N > deg_y (or as
        z_N = z) each factor's image tops at its leading exponent, and the
        product, whose tops add up, at or below this image's top.  So its
        terms at or above the floor use no term of either factor below the
        floor minus the other's top: image(g) is cut at
        floor - top + le*r_N (_image_down_to, from the memo), and image(p)
        at floor - n*r_N - le*r_N (preimage_image).  Only products that
        reach the floor are formed; num is rescaled only when the lcm of
        the denominators grows."""
        zp, lo = self.zp, self.floor
        top = lo + len(self.num) - 1
        gtop = le.numerator * zp.scale // le.denominator
        shift = rep.n * zp.scale
        gfloor, gnum, gden = _image_down_to(g, zp, ctx, lo - top + gtop, gtop)
        pfloor, pnum, pden = preimage_image(rep.digits, zp, ctx,
                                            lo - shift - gtop)
        n, d = factor
        pden *= gden * d
        den = lcm(self.den, pden)
        num = self.num
        if den != self.den:
            m1 = den // self.den
            num[:] = [v * m1 for v in num]
            self.den = den
        m2 = n * (den // pden)
        # index, in num, of the product of g's and p's first entries
        at = shift + gfloor + pfloor - lo
        num += [0] * (at + len(gnum) + len(pnum) - 1 - len(num))
        for i in range(max(0, 1 - at - len(pnum)), len(gnum)):
            c = -m2 * gnum[i]
            if c:
                k = at + i
                for j in range(-k if k < 0 else 0, len(pnum)):
                    num[k + j] += c * pnum[j]
        while num and not num[-1]:
            num.pop()


def _image_down_to(f, zp, ctx, lowest, top):
    """(floor, coefficients, den): f(t, z_N) on the table zp from scaled
    exponent floor up, in Image's layout, with floor <= max(lowest, 0)
    (0: the complete image), over the denominator _prepare gives f.  top is
    the scaled exponent of f's top term, which every caller knows, such as
    LE_z(f) * r_N by eval_leading's theorem; a result whose top term lies
    elsewhere raises InternalError.

    The memo holds one entry per polynomial and depth, under
    ("poly-image", f, N): basis elements that reduction steps subtract
    (Image.subtract), remainders published by Remainder.remainder, and each
    lone p_j (preimage_image, preimage_product).  An entry whose floor is
    that low is returned as it is; otherwise the band between the two
    floors (from top without an entry) is scanned, and the extension is
    published as a new tuple, so a published entry never changes.  Threads
    that race may each publish one, every one f's exact image from its
    floor up.  Every read checks the top, so an entry that a failed check
    left behind fails each later read too."""
    lowest = max(lowest, 0)
    key = ("poly-image", f, zp.depth)
    entry = ctx.cache.get(key)
    if entry is None or entry[0] > lowest:
        work, den = _prepare(f, zp, f.deg_y())
        floor, num = (top + 1, ()) if entry is None else entry[:2]
        entry = ctx.cache[key] = (
            lowest, _strip((*_scan(work, zp, lowest, floor), *num)), den)
    if entry[0] + len(entry[1]) - 1 != top:
        raise InternalError(f"image at depth {zp.depth} does not top at "
                            f"scaled exponent {top}")
    return entry


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
    z, and the largest one is the leading term of both images.  The
    argument holds at every N with r_N > D, not only the least.

    f(t, z_N) = 0 would make the minimal polynomial of z_N, of y-degree
    r_N > D, divide f; so the image vanishes only on an exhausted finite
    spec, which raises InsufficientPrecision.
    """
    key = ("lead", f)
    hit = ctx.cache.get(key)
    if hit is None:
        if f.is_zero():
            raise ZeroPolynomial("the zero polynomial has no leading data")
        hit = ctx.cache[key] = Image.scan(f, ctx).lead()
    return hit


# ---------------------------------------------------------------------------
# Minimal polynomials of finite Puiseux series and monoid preimages

def min_poly_finite_puiseux(w):
    """Minimal polynomial over Q(x) of a finite Puiseux series with positive
    exponents, a FinitePuiseux or any series whose terms FinitePuiseux
    takes: the norm of y - w from Q(t^(1/R)) down to Q(t), R = ram_index,
    which is the product of y - w_j over all R conjugates (_norm_tower).
    The zero series is allowed and yields y."""
    if not isinstance(w, FinitePuiseux):
        w = FinitePuiseux.from_series(w)
    return _norm_tower(w.terms, w.ram_index)


def _norm_tower(terms, R):
    """The norm of y - w for w = sum c * t^e over the (e, c) terms, exact
    rationals with e > 0 and e * R an int, R the lcm of the exponent
    denominators (1 for no terms, whose norm is y).

    The norm is taken one prime factor p of R at a time, largest first, so
    that the costliest steps act on the smallest F.  Writing F(v, y) with
    v = t^(1/m), one step replaces F by the product of its p conjugates
    F(zeta_p^i v, y) and m by m/p; norms are transitive, so the steps compose
    to the full norm.  The norm is taken of den*y - den*w, den the lcm of the
    coefficient denominators, so it runs on ints; it is den^R times the norm
    of y - w.

    For p = 2, zeta_2 = -1 is rational.  Splitting F(v, y) by the parity of
    its v-exponents into E(v^2, y) + v * O(v^2, y), the step is
    F(v, y) F(-v, y) = E^2 - v^2 O^2, two squares of ordinary polynomials
    in v^2 (_square_norm_step).  That is an identity in Z[v^2, y], so its
    result is rational with integral exponents by construction and needs no
    certificate.  An odd p takes three phases of ordinary products
    (_cyclic_norm_step): the adjugate G = prod F(zeta_p^i v, y) over
    0 < i < p in the group ring Z[C_p], kept as its p zeta_p-coordinates,
    each an ordinary polynomial in v and y, and built by p - 2 rounds of a
    twist v -> zeta_p^-1 v and a product of each coordinate by F; then
    G's rationality, the one certificate checked; then, splitting F and G
    by v-exponent mod p into classes A_r and C_s in w = v^p, the norm
    F G = A_0 C_0 + w * sum A_r C_{p-r}, its only nonzero classes, by the
    same identity argument as for p = 2 (proofs at _cyclic_norm_step).

    The odd steps run on dicts.  The p = 2 steps, which come last, run on
    one dense grid: F is laid out once as a list of v-rows of its
    y-coefficients, each step maps that grid to the next, and the last
    grid is read back into a dict once (_grid_dict).

    A failed certificate or a result of y-degree other than R is a bug,
    hence InternalError.
    """
    # F = den*y - den*w as {(v-exponent, y-degree): int}
    den = lcm(*(c.denominator for _, c in terms))
    poly = {(0, 1): den}
    for e, c in terms:
        poly[(int(e * R), 0)] = -c.numerator * (den // c.denominator)
    primes, n, p = [], R, 2
    while n > 1:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1
    twos = primes.count(2)
    for p in reversed(primes[twos:]):
        poly = _cyclic_norm_step(poly, p)
    if twos:
        ny = max(d for _, d in poly) + 1
        grid = [0] * ((max(k for k, _ in poly) + 1) * ny)
        for (k, d), c in poly.items():
            grid[k * ny + d] = c
        for _ in range(twos):
            grid, ny = _square_norm_step(grid, ny)
        poly = _grid_dict(grid, ny)
    out = BivarPoly._make(poly, den ** R)
    if out.deg_y() != R:
        raise InternalError(f"norm of y-degree {out.deg_y()}, expected {R}")
    return out


def _square_norm_step(grid, ny):
    """F(v, y) F(-v, y) = E^2 - v^2 O^2 for F = E(v^2, y) + v * O(v^2, y),
    on dense grids: F is given as (grid, ny), the list whose entry
    k*ny + d is the coefficient of v^k y^d, and the result is returned the
    same way over w = v^2, with s = 2*ny - 1 columns.

    E and O are F's even and odd v-rows, each row padded to s entries but
    the last, so the square of either is one product of lists (_product)
    whose entry i*s + d is its coefficient of w^i y^d: the y-degree of a
    square stays below s, so no row spills into the next.  A half of h
    rows has (h - 1)*s + ny entries and its square exactly (2h - 1)*s, so
    N = E^2 - w O^2 is one list subtraction, with O^2 one row (s entries)
    up, and the result is a grid of s columns."""
    s = 2 * ny - 1
    rows = len(grid) // ny
    halves = [[0] * max(h * s - ny + 1, 0)
              for h in ((rows + 1) // 2, rows // 2)]
    for k in range(rows):
        at = k // 2 * s
        halves[k % 2][at:at + ny] = grid[k * ny:(k + 1) * ny]
    e, o = halves
    out = _product(e, e)
    odd = _product(o, o)
    out += [0] * (s + len(odd) - len(out))
    out[s:s + len(odd)] = map(sub, out[s:s + len(odd)], odd)
    return out, s


def _grid_dict(grid, ny):
    """A dense grid of _square_norm_step as {(v-exponent, y-degree): int},
    its nonzero entries."""
    return {divmod(i, ny): grid[i] for i in compress(range(len(grid)), grid)}


def _cyclic_norm_step(poly, p):
    """prod F(zeta_p^i v, y) over 0 <= i < p for F given as
    {(v-exponent, y-degree): int}, the result in the same form over
    w = v^p, as three phases of ordinary products (_accumulate), so that a
    large dense one is one packed multiply.  Any prime p is accepted,
    2 included.

    1. H = prod F(zeta_p^i v, y) over 1 <= i < p, in the group ring Z[C_p],
       kept as its p zeta-coordinates: H = sum zeta_p^g h_g(v, y), each h_g
       an ordinary polynomial.  With T_1 = F and
       T_m(v) = F(v) T_{m-1}(zeta_p^-1 v), induction gives
       T_m(v) = prod F(zeta_p^(i-m) v) over 1 <= i <= m, so
       H = T_{p-1}(zeta_p^-1 v).  The twist v -> zeta_p^-1 v only moves the
       coefficient of zeta_p^g v^k to coordinate g - k mod p (_twist), and F
       has no zeta_p, so each product by F is p ordinary products, one per
       coordinate.
    2. Mapping back to Q(zeta_p), where 1 + zeta_p + ... + zeta_p^(p-1) = 0,
       a coefficient (h_0, ..., h_{p-1}) of H is rational exactly when
       h_1 = ... = h_{p-1}, with value h_0 - h_1.  The ring automorphisms
       zeta_p^g -> zeta_p^(j*g) of Z[C_p], j prime to p, permute the
       conjugates of F, hence fix H, and move coordinate g to j*g, acting
       transitively on g != 0: a coefficient failing this certificate is a
       bug, and raises InternalError.  Otherwise H is the adjugate
       G(v, y) = h_0 - h_1 in Z[v, y].
    3. N = F G is the product of all p conjugates, which v -> zeta_p v
       permutes, so N(zeta_p v, y) = N(v, y): its coefficient c_k at v^k
       equals zeta_p^k c_k, which is zero unless p | k, and N lies in
       Z[w, y].  Writing F = sum v^r A_r(w, y) and G = sum v^s C_s(w, y)
       over the classes 0 <= r, s < p of the v-exponents mod p, the pairs
       with r + s = 0 or p therefore give all of N:
       N = A_0 C_0 + w * sum A_r C_{p-r} over 1 <= r < p.  The other pairs
       sum to zero and are never formed, so, as for _square_norm_step,
       this phase needs no certificate.

    At p = 2 phase 1 is the one twist F(-v, y) and phase 2 checks
    nothing; _norm_tower takes the grid step _square_norm_step there,
    which this step is tested against."""
    f = BivarPoly._make(poly, 1)
    h = _twist([poly], p)
    for _ in range(p - 2):
        products = [{} for _ in h]
        for coord, acc in zip(h, products):
            _accumulate(acc, 1, BivarPoly._make(coord, 1), f, 1)
        h = _twist(products, p)
    adj = {}
    for key in set().union(*h):
        a = [coord.get(key, 0) for coord in h]
        if any(x != a[1] for x in a[2:]):
            raise InternalError("norm coefficient not rational")
        adj[key] = a[0] - a[1]
    a, c = _residue_classes(poly, p), _residue_classes(adj, p)
    acc = {}
    _accumulate(acc, 1, a[0], c[0], 1)
    for r in range(1, p):
        _accumulate(acc, 1, a[r], c[p - r], 1, 1, 1)
    return {k: c for k, c in acc.items() if c}


def _twist(coords, p):
    """The p zeta_p-coordinates of H(zeta_p^-1 v, y), for
    H = sum zeta_p^g h_g(v, y) given by its first coordinates h_g as
    {(v-exponent, y-degree): int} (zeros allowed), the rest zero: the
    coefficient of zeta_p^g v^k moves to coordinate g - k mod p."""
    out = [{} for _ in range(p)]
    for g, coord in enumerate(coords):
        for (k, d), c in coord.items():
            out[(g - k) % p][k, d] = c
    return out


def _residue_classes(num, p):
    """The BivarPolys A_r(w, y), 0 <= r < p, over the denominator 1 with
    num = sum v^r A_r(v^p, y), for num given as
    {(v-exponent, y-degree): int}."""
    classes = [{} for _ in range(p)]
    for (k, d), c in num.items():
        q, r = divmod(k, p)
        classes[r][q, d] = c
    return [BivarPoly._make(c, 1) for c in classes]


def truncation_min_poly(ctx, j):
    """Minimal polynomial p_j of z truncated to its first k = l(j)-1 terms,
    cached per context under ("minpoly", j): the norm tower of those spec
    terms, exact and checked when the spec took them, with R = r_k, their
    lcm of exponent denominators by the definition of r (seqderive), which
    is also p_j's y-degree (_norm_tower checks it).  p_1 is the norm of
    no terms, y."""
    key = ("minpoly", j)
    hit = ctx.cache.get(key)
    if hit is None:
        k = ctx.seqs.l(j) - 1
        terms = [ctx.spec.term(i)[::-1] for i in range(1, k + 1)]
        hit = ctx.cache[key] = _norm_tower(terms, ctx.seqs.r(k))
    return hit


def preimage_product(digits, ctx):
    """(p, LC_z(p)) for p = prod p_j^(d_j), one record per digit vector,
    cached per context under ("preimage", digits): p multiplied out once and
    LC_z(p) = prod LC_z(p_j)^(d_j), LC_z being multiplicative.  LC_z(p_j) is
    the top entry of p_j's image on its own exact table, from its top
    rho_j * r_N up (_image_down_to, the memo entry preimage_image extends),
    which is the entry a scan of p_j would read, so p_j itself is never
    scanned.

    p is p' * p_w^(d_w), d_w the last digit and p' the product of the
    digits before it, factors multiplied in from j = 1 up.  A factor whose
    own record the memo already holds, p' under its trimmed digits or
    p_w^(d_w) under (0, ..., 0, d_w), is read from it; one it does not
    hold is formed factor by factor and cached nowhere, so the memo gains
    only this digit vector's record."""
    key = ("preimage", digits)
    hit = ctx.cache.get(key)
    if hit is None:
        head = digits[:-1]
        while head and not head[-1]:
            head = head[:-1]
        poly, lc = (ctx.cache.get(("preimage", head))
                    or _multiplied_out(_ONE, Fraction(1), head, ctx))
        if digits:
            last = (0,) * (len(digits) - 1) + digits[-1:]
            tail = ctx.cache.get(("preimage", last))
            poly, lc = (_multiplied_out(poly, lc, last, ctx) if tail is None
                        else (poly * tail[0], lc * tail[1]))
        hit = ctx.cache[key] = (poly, lc)
    return hit


def _multiplied_out(poly, lc, digits, ctx):
    """(poly * prod p_j^(d_j), lc * prod LC_z(p_j)^(d_j)), the factors
    multiplied in from j = 1 up (preimage_product)."""
    for j, d in enumerate(digits, start=1):
        if d:
            p_j = truncation_min_poly(ctx, j)
            poly = poly * p_j ** d
            zp = _power_table(ctx, p_j.deg_y())
            rho = ctx.seqs.rho(j)
            top = rho.numerator * zp.scale // rho.denominator
            _, num, den = _image_down_to(p_j, zp, ctx, top, top)
            lc *= Fraction(num[-1], den) ** d
    return poly, lc


def preimage_of_rep(rep, ctx):
    """x^n * p for a canonical representation, p = preimage_product's
    product; cached under ("preimage", digits, n) when n != 0."""
    if not rep.n:
        return preimage_product(rep.digits, ctx)[0]
    key = ("preimage", rep.digits, rep.n)
    hit = ctx.cache.get(key)
    if hit is None:
        hit = ctx.cache.setdefault(key, preimage_product(rep.digits, ctx)[0]
                                   ._scaled(1, 1, rep.n))
    return hit


def preimage_image(digits, zp, ctx, lowest=0):
    """(floor, coefficients, den): the image of p = prod p_j^(d_j) on the
    table zp from scaled exponent floor up, in Image's layout, with
    floor <= max(lowest, 0) (0: the complete image), and den = p's reduced
    denominator times d^D, d = zp.den and D = deg_y p, the denominator
    _prepare gives p.  The image always holds its top term: a lowest above
    it is lowered to it.

    Evaluation at z_N is a ring map, so image(p) = prod image(p_j)^(d_j),
    and the product is never multiplied out.  With w the last index of the
    digits, p = p' * p_w, p' having d_w lowered by one, so image(p) is the
    product of two cached images: image(p'), built the same way, and
    image(p_w).  A lone p_w is just a polynomial: its image is scanned by
    bands from its known top and kept under ("poly-image", p_w, N)
    (_image_down_to), a product's under ("image", digits, N).  The
    prefixes are walked down in a loop to the first one cached low enough,
    or to a lone p_w, and the products are formed on the way back up, so a
    digit vector of large sum (a high ramification index) needs no deep
    recursion.  A term of the
    product at or above lowest uses no term of either factor below
    lowest - (the other's top), so each factor is kept from there up and
    multiplied by one packed multiply (_product_band).  A cached product
    asked for below its floor is formed again from lowest up to its top,
    each factor first extended to its new cut.

    The tops are the scaled rho_j.  Every caller's table is exact for D,
    or is z itself on an exhausted finite spec, and then r_N >= r_l(w) > D
    for w = len(digits): with deg_y p_j = r_l(j-1) and d_j < s_j,
    D <= sum (s_j - 1) r_l(j-1) = r_l(w) - 1.  Either way r_N > deg_y p_j,
    so by eval_leading's theorem the top term of image(p_j) is the leading
    term of p_j(t, z), at the scaled exponent rho_j * r_N; a top found
    elsewhere raises InternalError.  The top term of a product is the
    product of the factors' top terms, so the tops add up.

    The denominator is the product of the factors'.  image(p_j) is over
    den_j * d^(deg_y p_j), den_j being p_j's reduced denominator.  p_j is
    monic in y, so its numerator polynomial has the coefficient den_j at
    y^(deg_y p_j) and its content divides den_j; in lowest terms the
    content is also coprime to den_j, so it is 1: the numerator is
    primitive.  By Gauss's lemma the product of primitive polynomials is
    primitive, so p's reduced denominator is prod den_j^(d_j), and the
    product of the factors' denominators is p's times d^D.

    Products are cached per context under (digits, N), bounded by the
    monoid and the depth.  A product formed again lower is published as a
    new tuple, the way _ZPow.rows publishes its table, so a reader never
    sees a partial entry and a published entry never changes."""
    if not digits:
        return 0, (1,), 1
    # down the prefixes to one cached low enough, or to a lone p_w
    chain = []
    while True:
        lowest = max(lowest, 0)
        w = len(digits)
        rho = ctx.seqs.rho(w)
        ftop = rho.numerator * zp.scale // rho.denominator
        p_w = truncation_min_poly(ctx, w)
        if sum(digits) == 1:
            image = _image_down_to(p_w, zp, ctx, min(lowest, ftop), ftop)
            break
        key = ("image", digits, zp.depth)
        hit = ctx.cache.get(key)
        if hit is not None and hit[0] <= lowest:
            image = hit
            break
        chain.append((key, p_w, ftop, lowest))
        digits = MonoidRep(0, digits[:-1] + (digits[-1] - 1,)).digits
        lowest -= ftop
    # and back up, one product of a prefix's image and a p_w's per step
    for key, p_w, ftop, lowest in reversed(chain):
        htop = image[0] + len(image[1]) - 1
        lowest = min(lowest, htop + ftop)
        tail = _image_down_to(p_w, zp, ctx, lowest - htop, ftop)
        image = ctx.cache[key] = (
            lowest, _product_band(image, tail, lowest, htop + ftop + 1),
            image[2] * tail[2])
    return image


def syzygy_image(s, value, ra, f, rb, g, factor, ctx):
    """The image of the S-polynomial s = a*f - (n/d)*b*g as an Image below
    its syzygy value m, from the highest floor that keeps a nonzero term,
    for a and b the preimages of the representations ra and rb and
    (n, d) = factor, so that buchberger never scans an S-polynomial; the
    images of f and g come from the memo (_image_down_to).

    Evaluation at z_N is a ring map, so image(s) is
    image(a) image(f) - (n/d) image(b) image(g), on the table exact for the
    y-degree of s and of each of a, f, b and g: each factor's image tops at
    its leading exponent, by eval_leading's theorem, so each product is
    one reduction step, cut as Image.subtract proves.  LE(a) + LE(f) =
    LE(b) + LE(g) = m, and the factor makes the leading coefficients of a*f
    and b*g match, so the products' top terms at m r_N cancel (else
    InternalError) and the image has no term from m r_N up.  Each window
    of the descent below it, widening while it cancels as Image.scan's
    windows do (_descend), is a zero image from its floor up to m r_N less
    two steps: -1 * x^n * f * p for a = x^n * p, then (n/d) * b * g.  Its
    top term is s's leading term, by the theorem again, which Remainder
    reads off it; no entry of s goes to the memo.  The table can be deeper
    than s's own, as it must be where m r_N is not an int on s's own
    table.  On an exhausted finite spec the table is z itself, and the tops
    are the leading exponents because z_N = z; an image that vanishes there
    raises InsufficientPrecision at once, as a scan does.
    """
    pa, pb = (preimage_product(r.digits, ctx)[0] for r in (ra, rb))
    zp = _power_table(ctx, max(s.deg_y(), pa.deg_y(), f.deg_y(),
                               pb.deg_y(), g.deg_y()))
    top, rest = divmod(value.numerator * zp.scale, value.denominator)
    if rest:
        raise InternalError(f"syzygy value {value} is off the table of "
                            f"depth {zp.depth}")
    image = None

    def band(lo, hi):
        nonlocal image
        image = Image(zp, lo, [0] * (top + 1 - lo), 1, ctx.lattice_den)
        image.subtract(f, eval_leading(f, ctx).le, ra, (-1, 1), ctx)
        image.subtract(g, eval_leading(g, ctx).le, rb, factor, ctx)
        if len(image.num) > top - lo:
            raise InternalError(f"the syzygy at {value} does not cancel")
        return image.num

    _descend(top, zp, band)
    image._top()  # raises here when the image vanishes
    return image


class Remainder:
    """The polynomial a reduction carries, f minus the steps so far: int
    numerators over a running denominator, from which each step
    (n/d) * x^n * g * p, p = prod p_j^(d_j), is subtracted in place
    (_accumulate), and an exact image on a table z_N above a floor, from
    which the step's image is (Image.subtract, which reads the images of g
    and p from the memo; the Remainder holds none).  For an S-polynomial
    f, handed in as its representations syzygy = (value, ra, f', rb, g',
    factor), the Remainder forms f's image (syzygy_image), reads the first
    lead off it, carries it from the first step and publishes the
    remainder it ends with (remainder).  For any other f, the first lead
    comes from eval_leading and the image is scanned after the first step.

    The polynomial is built (poly) for the remainder and for a rescan
    (Image.scan): when nothing survives above the floor, and when the
    exact table for its y-degree is no longer the image's.  The y-degree is
    a bound, the true deg_y once built, raised to deg_y(g) + deg_y(p) by a
    step, and exact when it first reaches r_N: the polynomial's own terms
    lie below r_N in y and cannot cancel g*p's top row.  eval_leading's
    theorem holds at every N with r_N above the bound, on a handed-in
    deeper table too.
    """

    __slots__ = ("ctx", "image", "_spoly", "_poly", "_num", "_den", "_degy")

    def __init__(self, f, ctx, syzygy):
        self.ctx, self._spoly = ctx, syzygy is not None
        self.image = None if syzygy is None else syzygy_image(f, *syzygy, ctx)
        self._poly = f
        self._num, self._den, self._degy = dict(f._num), f._den, f.deg_y()

    def lead(self):
        """The current LeadingData, or None at zero: f's from eval_leading
        unless f is an S-polynomial, every other one off the image's top
        term (certified at the image's depth), the image evaluated
        afresh first when it is gone or empty above its floor F.  An image
        emptied on a table of scale r_N was exact above F, so LE < F / r_N
        by eval_leading's theorem; the rescan's table, of scale r_N' for the
        true y-degree, tops at LE * r_N' < F * r_N' / r_N by it too.

        A built polynomial with no image is f before any step, or the zero
        a rescan found: a step drops the polynomial, and a rescan that
        builds a nonzero one scans its image with it."""
        if self.image is None and self._poly is not None:
            f = self._poly
            return None if f.is_zero() else eval_leading(f, self.ctx)
        image = self.image
        if image is None or not image.num:
            cur = self.poly()
            if cur.is_zero():
                return None
            self._num, self._den = dict(cur._num), cur._den
            self._degy = cur.deg_y()
            below = None if image is None else (image.floor, image.zp.scale)
            self.image = Image.scan(cur, self.ctx, _below=below)
        return self.image.lead()

    def subtract(self, g, lead_g, p, rep, factor):
        """Subtract the step (n/d) * x^n * g * p, for g of LeadingData
        lead_g, rep = n + sum d_j rho_j and (n, d) = factor."""
        self._den = _accumulate(self._num, self._den, g, p, -factor[0],
                                factor[1], rep.n)
        self._poly = None
        self._degy = max(self._degy, g.deg_y() + p.deg_y())
        image = self.image
        if image is None:
            return
        zp = image.zp
        # below r_N the exact table is the image's own, so look it up only
        # from there
        if self._degy < zp.scale or _power_table(self.ctx, self._degy) is zp:
            image.subtract(g, lead_g.le, rep, factor, self.ctx)
        else:
            self.image = None

    def poly(self):
        """The current polynomial as a BivarPoly."""
        if self._poly is None:
            self._poly = BivarPoly._make(self._num, self._den)
        return self._poly

    def remainder(self):
        """The remainder as a BivarPoly, once reduce has read its last
        lead.  A nonzero remainder of an S-polynomial, with or without
        steps, is published from the image that lead was read off: the
        image's entry (Image.entry) in the memo under
        ("poly-image", remainder, N), where _image_down_to reads it when
        the remainder is a basis element, and its leading data under
        ("lead", remainder), certified at the remainder's own exact depth,
        as a scan of it writes them.

        Proof that both are the remainder's.  reduce stops at zero or at a
        lead that no basis value divides, and lead read that lead off this
        image's top term.  The image holds the remainder's evaluation at
        z_N exactly from its floor up: syzygy_image forms it so, a rescan
        (Image.scan) scans it so, and subtract carries it only while r_N is
        above the y-degree bound, so that Image.subtract keeps it exact,
        and drops it for a rescan otherwise.  So r_N > deg_y of the
        remainder, or z_N = z on an exhausted finite spec, and by
        eval_leading's theorem the top term is its leading term at z; the
        lattice point e * R / r_N does not depend on the table.  The
        remainder is not a basis element: a basis element's value divides
        itself, decompose_point(0) being the empty representation, so
        reduce would have taken one more step.  An entry already under
        either key, such as the image of a p_j the remainder equals, is the
        same image, possibly from a lower floor, and the same leading data,
        so setdefault keeps it and no published entry changes."""
        rem, image = self.poly(), self.image
        if self._spoly and not rem.is_zero():
            self.ctx.cache.setdefault(("poly-image", rem, image.zp.depth),
                                      image.entry(rem))
            self.ctx.cache.setdefault(("lead", rem), replace(
                image.lead(),
                certified_at=_power_table(self.ctx, rem.deg_y()).depth))
        return rem


def preimage(m, ctx):
    """Some polynomial with LE_z equal to m; raises NotInMonoid otherwise."""
    rep = decompose(m, ctx)
    if rep is None:
        raise NotInMonoid(f"{m} is not a value of any polynomial")
    return preimage_of_rep(rep, ctx)
