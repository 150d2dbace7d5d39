"""The wire form of rationals: parse_rational and format_rational."""

from fractions import Fraction as F

import pytest

from ncvx.errors import ParseError
from ncvx.rationals import MINUS_INF, PLUS_INF, format_rational, parse_rational


@pytest.mark.parametrize(
    "text, value",
    [
        ("+2", F(2)),
        (" -1/2 ", F(-1, 2)),
        ("4/6", F(2, 3)),
        ("-0", F(0)),
        ("+0/5", F(0)),
        ("007/010", F(7, 10)),
    ],
)
def test_parse_rational_reads_sign_spaces_and_lowest_terms(text, value):
    got = parse_rational(text)
    assert type(got) is F and got == value


@pytest.mark.parametrize("text", ["3/0", "0/00", "7/-2", "1.5", "1e3", "1_0", "", " ", "/2", "2/"])
def test_parse_rational_rejects_all_but_the_wire_form(text):
    with pytest.raises(ParseError, match="not an exact rational"):
        parse_rational(text)


def test_format_rational_prints_lowest_terms_and_infinities():
    assert [format_rational(v) for v in (F(-3, 4), F(5), F(0), PLUS_INF, MINUS_INF)] == [
        "-3/4",
        "5",
        "0",
        "inf",
        "-inf",
    ]
    assert parse_rational(format_rational(F(-22, 7))) == F(-22, 7)
