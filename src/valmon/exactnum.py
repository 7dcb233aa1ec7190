"""Exact rationals, and the one gate for numbers that enter valmon.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, always in lowest terms, positive denominator.  This module adds
the "p/q" string convention used by every file format, and owns the two
rules every number from outside passes: a float or a bool is never read as
a rational (_exact, rat) nor a bool as an int (_is_int), and no decimal
string of more than _DIGITS_CAP digits reaches int() (_int, behind rat,
and so behind _exact for strings, the spec loader and the polynomial
parser).
"""

from fractions import Fraction

from .errors import InvalidSpec

_DIGITS_CAP = 4300  # int()'s default limit on a decimal string


def _exact(v, error=InvalidSpec):
    """Fraction(v); a float, never the rational it was typed as, raises
    error, and so does a bool, which is an int to Python but no number in
    any valmon input.  A str is read by rat, as an int or "p/q", so a
    decimal such as "2.5" or "1e-1", or a p or q of more than _DIGITS_CAP
    digits, raises error too."""
    if isinstance(v, (float, bool)):
        raise error(f"{v!r} is a {type(v).__name__}, not an exact rational")
    if isinstance(v, str):
        try:
            return rat(v)
        except ValueError as exc:
            raise error(str(exc)) from None
    return Fraction(v)


def _is_int(v):
    """v is an int and not a bool (see _exact)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int(text, what, error=ValueError):
    """int(text), refused with error "more than _DIGITS_CAP digits in
    {what}" before int() reads it, whose own message would point at an
    interpreter setting.  Digits are counted as int() reads them
    (str.isdecimal), not signs or spaces."""
    if sum(map(str.isdecimal, text)) > _DIGITS_CAP:
        raise error(f"more than {_DIGITS_CAP} digits in {what}")
    return int(text)


def rat(text):
    """Parse a rational from an int, a Fraction, or a "p/q" string.
    A float or a bool (_exact), malformed text, a zero denominator or a p
    or q of more than _DIGITS_CAP decimal digits (_int) raises
    ValueError."""
    if isinstance(text, (Fraction, int, float)):
        return _exact(text, ValueError)
    num, sep, den = str(text).strip().partition("/")
    num, den = _int(num, "a rational"), _int(den, "a rational") if sep else 1
    if den == 0:
        raise ValueError("zero denominator")
    return Fraction(num, den)


def rat_str(q):
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
