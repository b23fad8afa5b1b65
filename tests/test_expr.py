"""Parser tests: precedence, errors with positions, render round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcr.algebra import (
    GEN_S,
    GEN_SD,
    GEN_T,
    GEN_TD,
    GaussRational,
    NCPoly,
    normal_order,
    render,
)
from weakcr.cli import main
from weakcr.errors import ExprEvalError, ExprSyntaxError, UnknownIdentifierError
from weakcr.expr import parse_to_poly, pretty_print

S = NCPoly.gen(GEN_S)
T = NCPoly.gen(GEN_T)
Sd = NCPoly.gen(GEN_SD)
Td = NCPoly.gen(GEN_TD)
I = NCPoly.from_word((), GaussRational(0, 1))


def test_juxtaposition_is_word_product():
    assert parse_to_poly("S T") == S * T
    assert parse_to_poly("ST") == S * T


def test_dagger_tokens():
    assert parse_to_poly("S' T'") == Sd * Td
    assert parse_to_poly("T'S") == Td * S


def test_rearranged_identity_normal_orders_to_zero():
    p = parse_to_poly("S^2 T - T S^2 - 2 S")
    assert normal_order(p) == NCPoly.zero()


def test_precedence_power_over_product():
    assert parse_to_poly("2 S^2") == 2 * S * S
    assert parse_to_poly("S^0") == NCPoly.one()


def test_precedence_unary_minus_below_power():
    assert parse_to_poly("-2^2") == NCPoly.from_word((), -4)


def test_precedence_unary_minus_below_product():
    assert parse_to_poly("-S T") == -(S * T)
    assert parse_to_poly("S -T") == S - T


def test_scalar_arithmetic_stays_exact():
    p = parse_to_poly("0.5 S + 1/3 T")
    assert p.coefficient((GEN_S,)) == GaussRational(Fraction(1, 2))
    assert p.coefficient((GEN_T,)) == GaussRational(Fraction(1, 3))


def test_complex_literals_compose():
    p = parse_to_poly("(1+2i) S")
    assert p.coefficient((GEN_S,)) == GaussRational(1, 2)
    assert parse_to_poly("i i") == NCPoly.from_word((), -1)


def test_parenthesized_group_power():
    assert parse_to_poly("(S T)^2") == S * T * S * T


def test_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_to_poly("S T' +")
    assert exc.value.column == 7
    assert exc.value.line == 1


def test_syntax_error_unbalanced_paren():
    with pytest.raises(ExprSyntaxError):
        parse_to_poly("(S T")


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_to_poly("S + Q")
    assert exc.value.column == 5


def test_fractional_exponent_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_to_poly("S^0.5")


def test_number_followed_by_dot_rejected(capsys):
    # "1.5.3" is not the product of 1.5 and .3; with a space it is
    with pytest.raises(ExprSyntaxError) as exc:
        parse_to_poly("1.5.3 S")
    assert exc.value.column == 4
    assert parse_to_poly("1.5 .3 S") == S * Fraction(9, 20)
    assert main(["normal-order", "1.5.3 S"]) == 2
    assert "column 4" in capsys.readouterr().err


def test_superscript_digit_rejected():
    # "²" passes str.isdigit but is no decimal digit, and Fraction cannot read it
    with pytest.raises(ExprSyntaxError) as exc:
        parse_to_poly("S²")
    assert exc.value.column == 2


def test_division_by_word_rejected():
    with pytest.raises(ExprEvalError):
        parse_to_poly("S / T")
    with pytest.raises(ExprEvalError):
        parse_to_poly("S / 0")


def test_first_error_in_reading_order_wins():
    # the parser evaluates as it reads, so an evaluation error before a
    # later syntax error is the one raised
    with pytest.raises(ExprEvalError, match="scalar"):
        parse_to_poly("S / T +")
    with pytest.raises(ExprEvalError, match="division by zero"):
        parse_to_poly("(S / 0) / T")


def test_division_by_scalar_expression():
    assert parse_to_poly("S / (2 + 2)") == S * Fraction(1, 4)


# --- round trips --------------------------------------------------------------

gens = st.sampled_from((GEN_S, GEN_T, GEN_SD, GEN_TD))
words = st.lists(gens, max_size=4).map(tuple)
small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
coeffs = st.builds(GaussRational, small_fractions, small_fractions)
polys = st.dictionaries(words, coeffs, max_size=4).map(NCPoly)


@settings(max_examples=120)
@given(polys)
def test_render_round_trip(p):
    assert parse_to_poly(pretty_print(p)) == p


@settings(max_examples=60)
@given(polys)
def test_round_trip_after_normal_order(p):
    q = normal_order(p)
    assert parse_to_poly(render(q)) == q


def test_golden_round_trips():
    for text in ("T S + 1", "T^2 S^2 + 4 T S + 2", "T' S'^2 - 2 S'"):
        assert render(parse_to_poly(text)) == text
