"""Parsing and rendering of exact rationals.

Reports, and the documents earlier versions wrote, render a rational as
"p/q" (or just "p" for an integer).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import StructuralError


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or "p" into a Fraction."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise StructuralError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise StructuralError(f"not a rational: {text!r}") from exc


def render_rational(q: Fraction | int) -> str:
    """Render a rational as "p/q", or "p" when it is an integer. A part of
    more digits than Python's int-string limit raises ``StructuralError``."""
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:
        raise StructuralError(f"cannot render a rational: {exc}") from exc


def render_decimal(q: Fraction) -> str:
    """Six significant digits, for display only; never used in any exact check."""
    if q == 0:
        return "0"
    return f"{float(q):.6g}"
