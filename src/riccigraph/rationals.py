"""Serialization helpers for exact rational values.

Curvatures and transport costs travel as "p/q" strings with q > 0 and the
fraction in lowest terms; fractions.Fraction already normalizes both.
"""

from __future__ import annotations

from fractions import Fraction


def format_rational(q: Fraction) -> str:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    num, _, den = s.partition("/")
    if not den:
        raise ValueError(f"expected p/q, got {s!r}")
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), d)


def positive_part(q: Fraction) -> Fraction:
    return q if q > 0 else Fraction(0)
