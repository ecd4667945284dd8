"""Parser for the weight-expression grammar.

Values print in this grammar through `MultiPoly.__str__` in rational.py.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' nonneg-integer)?
    base     := integer | variable | '(' expr ')'
    variable := [a-zA-Z][a-zA-Z0-9_]*

A leading '-' on an expr is accepted as well so that printed canonical
forms such as "-x+1" read back in.

Products and powers are expanded as they are parsed, so each one is
refused with a ParseError when an estimate of its result, made from the
operands' `MultiPoly.size()` before any work, exceeds MAX_TERMS terms,
MAX_DEGREE total degree or MAX_BITS coefficient bits in a numerator or
denominator, and so is an integer literal too long for `int()`.
"""

from __future__ import annotations

import math
import re
from .rational import MultiPoly, RationalFunction

MAX_TERMS = 5000
MAX_DEGREE = 1000
MAX_BITS = 10000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(\d+)|([a-zA-Z][a-zA-Z0-9_]*)|([+\-*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}",
                                 pos)
            break
        if m.group(1):
            try:
                value = int(m.group(1))
            except ValueError:  # over sys.get_int_max_str_digits() digits
                raise ParseError("integer literal too long",
                                 m.start(1)) from None
            tokens.append(("int", value, m.start(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def expr(self) -> RationalFunction:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.advance()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self) -> RationalFunction:
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "/":
                    if rhs.is_zero():
                        raise ParseError("division by zero", pos)
                    _check_size(_product_size(acc.num, rhs.den), pos)
                    _check_size(_product_size(acc.den, rhs.num), pos)
                    acc = acc / rhs
                else:
                    _check_size(_product_size(acc.num, rhs.num), pos)
                    _check_size(_product_size(acc.den, rhs.den), pos)
                    acc = acc * rhs
            else:
                return acc

    def factor(self) -> RationalFunction:
        b = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected nonnegative integer exponent", pos)
            self.advance()
            _check_size(_power_size(b.num, val), pos)
            _check_size(_power_size(b.den, val), pos)
            return b ** val
        return b

    def base(self) -> RationalFunction:
        kind, val, pos = self.advance()
        if kind == "int":
            return RationalFunction.const(val)
        if kind == "var":
            return RationalFunction.var(val)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected integer, variable, or '('", pos)


def _product_size(f: MultiPoly, g: MultiPoly):
    """Upper estimate of (f * g).size(): each coefficient sums at most
    min(terms) products."""
    (tf, df, bf), (tg, dg, bg) = f.size(), g.size()
    return tf * tg, df + dg, bf + bg + (min(tf, tg) - 1).bit_length()


def _power_size(p: MultiPoly, n: int):
    """Upper estimate of (p ** n).size().

    The term count is the smaller of the multinomial count for p's terms
    and the number of monomials of total degree at most n * deg(p) in p's
    variables; a multinomial coefficient is at most terms^n.
    """
    t, d, b = p.size()
    if t <= 1:
        return t, d * n, b * n
    v = len(p.variables)
    return (min(math.comb(t + n - 1, n), math.comb(d * n + v, v)), d * n,
            n * (b + (t - 1).bit_length()))


def _check_size(size, pos: int):
    for what, value, limit in zip(("terms", "total degree",
                                   "coefficient bits"),
                                  size, (MAX_TERMS, MAX_DEGREE, MAX_BITS)):
        if value > limit:
            raise ParseError(f"expression would expand to more than "
                             f"{limit} {what}", pos)


def parse(text: str) -> RationalFunction:
    """Parse an expression into a canonical RationalFunction."""
    p = _Parser(text)
    result = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result
