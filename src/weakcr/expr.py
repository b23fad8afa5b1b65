"""Surface syntax for free-algebra expressions.

Tokens: the generators S, T, S', T' (apostrophe marks the adjoint), the
imaginary unit i, and numeric literals, kept exact: an integer is read as an
int and a decimal as a Fraction.  Operators by loosening precedence:

    ^  integer power   >   juxtaposition, *, /   >   unary -   >   binary + -

Juxtaposition multiplies ("S T" is the word ST); '/' divides by a scalar
subexpression so that rational coefficients such as 3/2 re-parse.  The
parser builds the exact NCPoly as it reads, with no intermediate tree:
after the tokenizer has rejected unknown characters and identifiers, the
first syntax or evaluation error in reading order is the one raised.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .algebra import GaussRational, NCPoly
from .errors import ExprEvalError, ExprSyntaxError, UnknownIdentifierError

_GEN_LETTERS = ("S", "T")
_SINGLE_TOKENS = {**dict.fromkeys("+-*/^", "OP"), "(": "LPAREN", ")": "RPAREN", "i": "I"}
#: an integer or a decimal with at most one dot, ending in a digit
_NUMBER = re.compile(r"\d*\.?\d+")


class Token(NamedTuple):
    kind: str  # GEN NUM I OP LPAREN RPAREN END
    value: object
    line: int
    column: int


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch in _SINGLE_TOKENS:
            tokens.append(Token(_SINGLE_TOKENS[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        number = _NUMBER.match(text, i)
        if number:
            j = number.end()
            if j < n and text[j] == ".":
                # "1.5.3" is not 1.5 times .3, and "1." is no number
                raise ExprSyntaxError("unexpected character '.'", line, start_col + j - i)
            literal = number.group()
            try:
                value = Fraction(literal) if "." in literal else int(literal)
            except ValueError:  # past the interpreter's int/str conversion limit
                limit = sys.get_int_max_str_digits()
                msg = f"numeric literal longer than this interpreter converts ({limit} digits)"
                raise ExprSyntaxError(msg, line, start_col) from None
            tokens.append(Token("NUM", value, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _GEN_LETTERS:
            name = ch
            i += 1
            col += 1
            if i < n and text[i] == "'":
                name += "'"
                i += 1
                col += 1
            tokens.append(Token("GEN", name, line, start_col))
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            raise UnknownIdentifierError(
                f"unknown identifier {text[i:j]!r}", line, start_col
            )
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("END", None, line, col))
    return tokens


_ATOM_STARTS = {"GEN", "NUM", "I", "LPAREN"}


class _Parser:
    """Recursive descent that combines NCPoly values as it reads them."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, msg, tok=None):
        tok = tok or self.peek()
        raise ExprSyntaxError(msg, tok.line, tok.column)

    def parse(self):
        poly = self.sum_expr()
        tok = self.peek()
        if tok.kind != "END":
            self.fail(f"unexpected {tok.value!r}")
        return poly

    def sum_expr(self):
        poly = self.unary_expr()
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.advance().value
            rhs = self.unary_expr()
            poly = poly + rhs if op == "+" else poly - rhs
        return poly

    def unary_expr(self):
        if self.peek().kind == "OP" and self.peek().value == "-":
            self.advance()
            return -self.unary_expr()
        return self.product_expr()

    def product_expr(self):
        poly = self.power_expr()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in "*/":
                self.advance()
                rhs = self.power_expr()
                poly = poly * rhs if tok.value == "*" else _divide(poly, rhs)
            elif tok.kind in _ATOM_STARTS:
                poly = poly * self.power_expr()
            else:
                return poly

    def power_expr(self):
        poly = self.atom()
        while self.peek().kind == "OP" and self.peek().value == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "NUM" or tok.value.denominator != 1:
                self.fail("exponent must be a nonnegative integer")
            self.advance()
            poly = poly ** int(tok.value)
        return poly

    def atom(self):
        tok = self.advance()
        if tok.kind == "GEN":
            return NCPoly.gen(tok.value)
        if tok.kind == "NUM":
            return NCPoly.from_word((), GaussRational(tok.value))
        if tok.kind == "I":
            return NCPoly.from_word((), GaussRational(0, 1))
        if tok.kind == "LPAREN":
            poly = self.sum_expr()
            closing = self.advance()
            if closing.kind != "RPAREN":
                raise ExprSyntaxError("expected ')'", closing.line, closing.column)
            return poly
        if tok.kind == "END":
            raise ExprSyntaxError("unexpected end of input", tok.line, tok.column)
        self.fail(f"unexpected {tok.value!r}", tok)


def _divide(numerator, divisor):
    if not divisor.is_scalar():
        raise ExprEvalError("can only divide by a scalar expression")
    scalar = divisor.coefficient(())
    if not scalar:
        raise ExprEvalError("division by zero")
    return numerator * (GaussRational(1) / scalar)


def parse_to_poly(text):
    """Parse to an exact NCPoly; errors carry line and column where known.

    Nesting past the recursion limit (about 190 parentheses, or a long run
    of unary minus signs) raises ExprSyntaxError where the parser had reached.
    """
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse()
    except RecursionError:
        tok = parser.tokens[min(parser.pos, len(parser.tokens) - 1)]
        raise ExprSyntaxError("expression nested too deeply", tok.line, tok.column) from None
