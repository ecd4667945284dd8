"""Expression parsing and printing."""

import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgen.exprs import ParseError, parse
from matchgen.rational import RationalFunction as RF


def test_numbers_and_variables():
    assert parse("3") == RF.const(3)
    assert parse("3/4") == RF.const(Fraction(3, 4))
    assert parse("x") * parse("x") == parse("x^2")


def test_precedence():
    assert parse("2+3*4") == RF.const(14)
    assert parse("(2+3)*4") == RF.const(20)
    assert parse("2*x^3") == parse("2*(x^3)")
    assert parse("6/2/3") == RF.const(1)


def test_leading_minus():
    assert parse("-x") == -parse("x")
    assert parse("-x+x").is_zero()
    assert parse("3-(-2)") == RF.const(5)
    # unary minus only opens an expression; after an operator it is an error
    with pytest.raises(ParseError):
        parse("3--2")


def test_division_makes_rational_functions():
    r = parse("(x+y)/(x-y)")
    assert r * parse("x-y") == parse("x+y")


def test_parse_errors():
    for bad in ("", "x+", "(x", "x^y", "1//2", "x 2 +"):
        with pytest.raises(ParseError):
            parse(bad)
    with pytest.raises(ParseError, match=re.escape(
            "unexpected character '$' (at position 1)")):
        parse("x$1")
    assert parse("x ") == parse("x")


@pytest.mark.parametrize("text, what", [
    ("(x+y+1)^200", "terms"), ("(x+y+1)^60*(x+y+1)^60", "terms"),
    ("x^1000000000", "total degree"), ("1/(x+1)^2000", "total degree"),
    ("2^10000000000", "coefficient bits"),
    ("((2^1000)^1000)^1000", "coefficient bits")])
def test_expansion_size_is_bounded(text, what):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=what):
        parse(text)
    assert time.perf_counter() - start < 1


def test_an_integer_literal_too_long_for_int_is_a_parse_error():
    """int() refuses a literal over its digit limit (4,300 by default) with
    its own ValueError; the parser refuses it at the literal instead."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ParseError, match=re.escape(
                "integer literal too long (at position 3)")):
            parse("x+ " + "9" * 4301)
        assert parse("9" * 4300) == RF.const(10 ** 4300 - 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_division_by_zero():
    with pytest.raises(ParseError):
        parse("1/(x-x)")


names = st.sampled_from(["x", "y", "z"])


@st.composite
def expr_strings(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        return draw(st.one_of(
            names, st.integers(0, 9).map(str)))
    op = draw(st.sampled_from(["+", "-", "*"]))
    a = draw(expr_strings(depth=depth + 1))
    b = draw(expr_strings(depth=depth + 1))
    return f"({a}{op}{b})"


@given(expr_strings())
@settings(max_examples=80, deadline=None)
def test_print_parse_round_trip(s):
    v = parse(s)
    assert parse(str(v)) == v
