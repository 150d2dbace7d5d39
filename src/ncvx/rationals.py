"""Exact scalars: rationals plus the two infinities.

All finite arithmetic in the library runs on `fractions.Fraction`, which is
arbitrary precision and keeps numerator/denominator normalized with a
positive denominator.  Extended values (+inf, -inf) appear only as optimal
values of unbounded or infeasible problems and as function values outside a
domain; they are represented by float infinities and never carry finite
payloads.  Negation is plain unary minus, and a sum that may involve them
goes through ``ext_add``, which refuses inf + -inf.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import IdentityViolated, ParseError

PLUS_INF = float("inf")
MINUS_INF = float("-inf")

ExtReal = Union[Fraction, float]


def is_finite(v: ExtReal) -> bool:
    return isinstance(v, Fraction)


# the wire form: optional sign, ASCII digits, and an optional /denominator
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with optional sign, around which whitespace is
    stripped.  Anything else is rejected: decimal points, and also the
    exponent and underscore forms Fraction would take, so a short string
    such as "1e4000000" cannot stand for a huge number.  The Fraction is
    built from the two integers the pattern matched."""
    if not isinstance(text, str):
        raise ParseError(f"rational must be a string, got {type(text).__name__}")
    found = _RATIONAL.fullmatch(text.strip())
    try:
        num, den = (int(found[1]), int(found[2] or 1)) if found else (0, 0)
    except ValueError as exc:  # past the interpreter's limit on digits
        raise ParseError(f"rational with too many digits: {exc}") from None
    if not den:
        raise ParseError(f"not an exact rational: {text!r}")
    return Fraction(num, den)


def format_rational(v: ExtReal) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if v == PLUS_INF:
        return "inf"
    if v == MINUS_INF:
        return "-inf"
    return str(Fraction(v))


def format_vector(v) -> str:
    """A point as "(p1, p2, ...)", for messages meant to be read."""
    return "(" + ", ".join(format_rational(c) for c in v) + ")"


def ext_add(a: ExtReal, b: ExtReal) -> ExtReal:
    """Sum with infinities; opposite infinities are a caller bug."""
    if is_finite(a) and is_finite(b):
        return a + b
    if a == PLUS_INF or b == PLUS_INF:
        if a == MINUS_INF or b == MINUS_INF:
            raise IdentityViolated("opposite infinities met in a sum")
        return PLUS_INF
    return MINUS_INF
