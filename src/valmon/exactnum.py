"""Exact rationals.

Rationals are ``fractions.Fraction`` throughout the package: arbitrary
precision, always in lowest terms, positive denominator.  This module adds
the "p/q" string convention used by every file format.
"""

from fractions import Fraction


def rat(text):
    """Parse a rational from an int, a Fraction, or a "p/q" string.
    Malformed text, a zero denominator included, raises ValueError."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num, den = s.split("/", 1)
        num, den = int(num), int(den)
        if den == 0:
            raise ValueError("zero denominator")
        return Fraction(num, den)
    return Fraction(int(s))


def rat_str(q):
    """Render a rational as "p/q", omitting the denominator when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
