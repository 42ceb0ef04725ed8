"""Text to expression tree.

Grammar (precedence climbing, ^ right associative, unary minus binds
looser than ^):

    sum      := product (("+" | "-") product)*
    product  := unary (("*" | "/") unary)*
    unary    := "-" unary | power
    power    := atom ("^" unary)?
    atom     := rational | "i" | name | call | "(" sum ")"
    call     := name "(" args ")" | "d" "(" name ("," name)+ ")" trailer?
    trailer  := "(" args ")"

Names of declared function symbols parse as applications, and names of
parameters as their exact rational values; besseli uses a semicolon to
separate its order from the argument: besseli(1/2; x).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping

from .expr import (
    BUILTIN_NAMES,
    Builtin,
    Constant,
    Expression,
    ExpressionError,
    FunctionApp,
    FunctionSymbol,
    I,
    Power,
    Product,
    Sum,
    Variable,
    neg,
    normalize,
)


class ParseError(ExpressionError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(\.\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),;])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            chunk = m.group()
            if "\n" in chunk:
                line += chunk.count("\n")
                line_start = m.start() + chunk.rfind("\n") + 1
            continue
        column = m.start() - line_start + 1
        if kind == "bad":
            raise ParseError("unexpected character %r" % m.group(), line, column)
        tokens.append(_Token(kind, m.group(), line, column))
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


def _number_to_fraction(text: str) -> Fraction:
    # decimal literals are exact: 0.25 -> 1/4
    return Fraction(text)


class _Parser:
    def __init__(self, tokens: list[_Token], declared: Mapping[str, FunctionSymbol],
                 params: Mapping[str, Fraction]):
        self.tokens = tokens
        self.pos = 0
        self.declared = declared
        self.params = params

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError("expected %r, found %r" % (text, tok.text or "end of input"),
                             tok.line, tok.column)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def parse(self) -> Expression:
        e = self.sum()
        tok = self.peek()
        if tok.kind != "end":
            self.fail("trailing input %r" % tok.text)
        return e

    def sum(self) -> Expression:
        terms = [self.product()]
        while self.peek().text in ("+", "-"):
            op = self.next().text
            term = self.product()
            terms.append(term if op == "+" else neg(term))
        if len(terms) == 1:
            return terms[0]
        return Sum(tuple(terms))

    def product(self) -> Expression:
        factors = [self.unary()]
        while self.peek().text in ("*", "/"):
            op = self.next().text
            factor = self.unary()
            factors.append(factor if op == "*" else Power(factor, Fraction(-1)))
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def unary(self) -> Expression:
        if self.peek().text == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        if self.peek().text == "^":
            self.next()
            expo = self.unary()
            return Power(base, self.constant_exponent(expo))
        return base

    def constant_exponent(self, e: Expression) -> Fraction:
        # exponents must reduce to an exact rational
        q = _fold_rational(e)
        if q is None:
            self.fail("exponent must be a rational constant")
        return q

    def atom(self) -> Expression:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            e = self.sum()
            self.expect(")")
            return e
        if tok.kind == "number":
            self.next()
            return Constant(_number_to_fraction(tok.text))
        if tok.kind == "name":
            return self.name_atom()
        self.fail("expected an expression, found %r" % (tok.text or "end of input"))

    def name_atom(self) -> Expression:
        tok = self.next()
        name = tok.text
        if name == "i" and self.peek().text != "(":
            return I
        if name == "d" and self.peek().text == "(":
            return self.derivative_form(tok)
        if name == "sqrt":
            self.expect("(")
            arg = self.sum()
            self.expect(")")
            return Power(arg, Fraction(1, 2))
        if name == "besseli":
            self.expect("(")
            order = self.sum()
            self.expect(";")
            arg = self.sum()
            self.expect(")")
            q = _fold_rational(order)
            if q is None:
                raise ParseError("besseli order must be rational", tok.line, tok.column)
            return Builtin("besseli", arg, q)
        if name in BUILTIN_NAMES:
            self.expect("(")
            arg = self.sum()
            self.expect(")")
            return Builtin(name, arg)
        if name in self.declared:
            symbol = self.declared[name]
            args = self.call_args(symbol, tok)
            return FunctionApp(symbol, args, (0,) * symbol.arity)
        if self.peek().text == "(":
            raise ParseError("call of undeclared function %r" % name, tok.line, tok.column)
        if name in self.params:
            return Constant(self.params[name])
        return Variable(name)

    def call_args(self, symbol: FunctionSymbol, at: _Token) -> tuple[Expression, ...]:
        self.expect("(")
        args = [self.sum()]
        while self.peek().text == ",":
            self.next()
            args.append(self.sum())
        self.expect(")")
        if len(args) != symbol.arity:
            raise ParseError(
                "%s expects %d argument(s), got %d" % (symbol.name, symbol.arity, len(args)),
                at.line, at.column)
        return tuple(args)

    def derivative_form(self, at: _Token) -> Expression:
        """d(name, v...) -- either a declared-symbol derivative or a jet name.

        For a declared symbol the v's must be its formals and set the
        multi-index; otherwise the whole spelling is an atomic jet
        variable whose derivative list is stored sorted.
        """
        self.expect("(")
        head = self.next()
        if head.kind != "name":
            raise ParseError("d(...) needs a function or dependent name", head.line, head.column)
        dvars = []
        while self.peek().text == ",":
            self.next()
            v = self.next()
            if v.kind != "name":
                raise ParseError("d(...) derivative entries must be names", v.line, v.column)
            dvars.append(v.text)
        self.expect(")")
        if not dvars:
            raise ParseError("d(%s) lists no derivatives" % head.text, at.line, at.column)
        if head.text in self.declared:
            symbol = self.declared[head.text]
            orders = [0] * symbol.arity
            slot = {f: j for j, f in enumerate(symbol.formals)}
            for v in dvars:
                if v not in slot:
                    raise ParseError(
                        "%s is not an argument of %s" % (v, head.text), at.line, at.column)
                orders[slot[v]] += 1
            if self.peek().text == "(":
                args = self.call_args(symbol, at)
            else:
                args = tuple(Variable(f) for f in symbol.formals)
            return FunctionApp(symbol, args, tuple(orders))
        return Variable(jet_name(head.text, dvars))


def jet_name(dependent: str, dvars) -> str:
    """Canonical atomic name for a jet coordinate, e.g. d(u1,x,y).

    Derivative variables are stored sorted so every spelling of the same
    mixed partial is one Variable.
    """
    return "d(%s,%s)" % (dependent, ",".join(sorted(dvars)))


def split_jet_name(name: str) -> tuple[str, tuple[str, ...]] | None:
    if not (name.startswith("d(") and name.endswith(")")):
        return None
    parts = name[2:-1].split(",")
    if len(parts) < 2:
        return None
    return parts[0], tuple(parts[1:])


def _fold_rational(e: Expression) -> Fraction | None:
    """The exact value e normalizes to, or None if it is no constant."""
    try:
        e = normalize(e)
    except ExpressionError:     # an exact zero divisor
        return None
    return e.value if isinstance(e, Constant) else None


def parse_expression(text: str, declared: Mapping[str, FunctionSymbol] | None = None,
                     params: Mapping[str, Fraction] | None = None) -> Expression:
    """Parse source text into an expression tree.

    declared maps function names to their symbols; anything else that
    looks like an application is an error so typos fail loudly.  params
    maps names to exact values, which stand in for them everywhere,
    exponents and besseli orders included.
    """
    tokens = _tokenize(text)
    tree = _Parser(tokens, declared or {}, params or {}).parse()
    return normalize(tree)
