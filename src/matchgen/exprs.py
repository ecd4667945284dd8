"""Parser and printer for the weight-expression grammar.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := base ('^' nonneg-integer)?
    base     := integer | variable | '(' expr ')'
    variable := [a-zA-Z][a-zA-Z0-9_]*

A leading '-' on an expr is accepted as well so that printed canonical
forms such as "-x+1" read back in.
"""

from __future__ import annotations

import re
from .rational import RationalFunction


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
            tokens.append(("int", int(m.group(1)), m.start(1)))
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
                    acc = acc / rhs
                else:
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


def parse(text: str) -> RationalFunction:
    """Parse an expression into a canonical RationalFunction."""
    p = _Parser(text)
    result = p.expr()
    kind, _, pos = p.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return result
