"""Exact rationals.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, always in lowest terms, positive denominator.  This module adds
the "p/q" string convention used by every file format.
"""

from fractions import Fraction

_DIGITS_CAP = 4300  # int()'s default limit on a decimal string


def rat(text):
    """Parse a rational from an int, a Fraction, or a "p/q" string.
    Malformed text, a zero denominator or a p or q of more than
    _DIGITS_CAP decimal digits (str.isdecimal, what int() reads) included,
    raises ValueError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    num, sep, den = str(text).strip().partition("/")
    if max(sum(map(str.isdecimal, s)) for s in (num, den)) > _DIGITS_CAP:
        raise ValueError(f"more than {_DIGITS_CAP} digits in a rational")
    num, den = int(num), int(den) if sep else 1
    if den == 0:
        raise ValueError("zero denominator")
    return Fraction(num, den)


def rat_str(q):
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
