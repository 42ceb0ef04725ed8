"""Immutable symbolic expression trees over exact rationals.

The kernel is deliberately small: construction, structural normalization,
exact differentiation and printing.  There is no general simplifier; two
expressions are considered equal when the sampling oracle in
:mod:`symred.sampling` says so.

Each node stores four facts about itself, each computed at most once:
its hash, the frozenset of its free variable names and its canonical
sort key (each filled the first time it is asked for), and a mark set
by `normalize` on every node it returns, each of which is its own
normal form.  None of them takes part in equality, printing or
evaluation; they only let `differentiate` return 0 without a walk when
the variable does not occur, `normalize` return a marked subtree
unchanged instead of walking it again, and every sort reuse the keys
of the nodes it has sorted before.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

# Exact scalar type used for all literal constants and exponents.
Rational = Fraction

RationalLike = Union[Rational, int]

BUILTIN_NAMES = ("exp", "ln", "sin", "cos", "besseli")


class SymredError(Exception):
    """Base of every error symred reports; the CLI prints it as one line."""


class ExpressionError(SymredError, ValueError):
    pass


@dataclass(frozen=True)
class FunctionSymbol:
    """An opaque function of declared formal arguments, e.g. a(t).

    Derivatives are represented by the applying node's multi-index, one
    entry per formal argument, so the symbol itself never changes.
    """

    name: str
    formals: tuple[str, ...]

    def __post_init__(self):
        if not self.formals:
            raise ExpressionError("function symbol %r needs at least one argument" % self.name)
        object.__setattr__(self, "formals", tuple(self.formals))

    @property
    def arity(self) -> int:
        return len(self.formals)


class Expression:
    """Base class for all nodes.  Instances are immutable and hashable."""

    __slots__ = ()
    # Per-node facts, stored on the instance on first use (module docstring).
    _hash = None
    _free = None
    _key = None
    _normal = False

    def __hash__(self):
        # The dataclass hash of the fields, computed once per node.
        h = self._hash
        if h is None:
            h = hash(tuple([getattr(self, name) for name in self._fields]))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, neg(_coerce(other))))

    def __rsub__(self, other):
        return Sum((_coerce(other), neg(self)))

    def __mul__(self, other):
        return Product((self, _coerce(other)))

    def __rmul__(self, other):
        return Product((_coerce(other), self))

    def __truediv__(self, other):
        return Product((self, Power(_coerce(other), Rational(-1))))

    def __rtruediv__(self, other):
        return Product((_coerce(other), Power(self, Rational(-1))))

    def __neg__(self):
        return neg(self)

    def __pow__(self, exponent):
        return Power(self, Rational(exponent))

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, to_text(self))


def _node(cls):
    """A frozen dataclass node that keeps Expression's stored hash."""
    cls = dataclass(frozen=True, eq=True, repr=False)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    cls.__hash__ = Expression.__hash__
    return cls


@_node
class Constant(Expression):
    value: Rational
    _free = frozenset()
    _normal = True

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@_node
class ImaginaryUnit(Expression):
    _free = frozenset()
    _normal = True


@_node
class Variable(Expression):
    name: str
    _normal = True


@_node
class FunctionApp(Expression):
    """symbol applied to argument expressions, differentiated per orders.

    orders[j] counts derivatives with respect to the j-th formal slot.
    """

    symbol: FunctionSymbol
    args: tuple[Expression, ...]
    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.args) != self.symbol.arity:
            raise ExpressionError(
                "%s expects %d argument(s), got %d"
                % (self.symbol.name, self.symbol.arity, len(self.args))
            )
        if len(self.orders) != self.symbol.arity or any(k < 0 for k in self.orders):
            raise ExpressionError("bad derivative multi-index for %s" % self.symbol.name)

    @property
    def dvars(self) -> tuple[str, ...]:
        """The formals differentiated by, with multiplicity, in formal order."""
        return tuple(f for f, k in zip(self.symbol.formals, self.orders) for _ in range(k))


@_node
class Sum(Expression):
    terms: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))


@_node
class Product(Expression):
    factors: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@_node
class Power(Expression):
    base: Expression
    exponent: Rational

    def __post_init__(self):
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))


@_node
class Builtin(Expression):
    """exp, ln, sin, cos or besseli.  `order` is the besseli index nu."""

    name: str
    arg: Expression
    order: Rational | None = None

    def __post_init__(self):
        if self.name not in BUILTIN_NAMES:
            raise ExpressionError("unknown builtin %r" % self.name)
        if (self.name == "besseli") != (self.order is not None):
            raise ExpressionError("besseli takes an order, other builtins do not")
        if self.order is not None and not isinstance(self.order, Fraction):
            object.__setattr__(self, "order", Fraction(self.order))


# Shared rational 0 and 1: normalize's accumulators start at them and
# skip the first add or multiply while they are still these objects.
_Q0 = Fraction(0)
_Q1 = Fraction(1)
ZERO = Constant(_Q0)
ONE = Constant(_Q1)
MINUS_ONE = Constant(Fraction(-1))
I = ImaginaryUnit()


def _coerce(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction)):
        return Constant(Fraction(value))
    raise ExpressionError("cannot use %r as an expression" % (value,))


def con(value: RationalLike) -> Constant:
    return Constant(Fraction(value))


def var(name: str) -> Variable:
    return Variable(name)


def add(*terms) -> Expression:
    return Sum(tuple(_coerce(t) for t in terms))


def mul(*factors) -> Expression:
    return Product(tuple(_coerce(f) for f in factors))


def neg(e) -> Expression:
    return Product((MINUS_ONE, _coerce(e)))


def div(a, b) -> Expression:
    return Product((_coerce(a), Power(_coerce(b), Fraction(-1))))


def pow_(base, exponent: RationalLike) -> Expression:
    return Power(_coerce(base), Fraction(exponent))


def sqrt(e) -> Expression:
    # sqrt is not a distinct node kind; it canonicalizes to a 1/2 power.
    return Power(_coerce(e), Fraction(1, 2))


def exp(e) -> Expression:
    return Builtin("exp", _coerce(e))


def ln(e) -> Expression:
    return Builtin("ln", _coerce(e))


def sin(e) -> Expression:
    return Builtin("sin", _coerce(e))


def cos(e) -> Expression:
    return Builtin("cos", _coerce(e))


def besseli(order: RationalLike, e) -> Expression:
    return Builtin("besseli", _coerce(e), Fraction(order))


def apply_symbol(symbol: FunctionSymbol, *args, orders: tuple[int, ...] | None = None) -> FunctionApp:
    if orders is None:
        orders = (0,) * symbol.arity
    return FunctionApp(symbol, tuple(_coerce(a) for a in args), orders)


# ---------------------------------------------------------------------------
# traversal helpers

def children(e: Expression) -> tuple[Expression, ...]:
    t = type(e)
    if t is Sum:
        return e.terms
    if t is Product:
        return e.factors
    if t is Power:
        return (e.base,)
    if t is Builtin:
        return (e.arg,)
    if t is FunctionApp:
        return e.args
    return ()


def free_variables(e: Expression) -> set[str]:
    return set(_free(e))


def _free(e: Expression) -> frozenset[str]:
    """The names of the variables in e, stored on e on first use."""
    out = e._free
    if out is None:
        if type(e) is Variable:
            out = frozenset((e.name,))
        else:
            # a child's set is shared whenever it covers the others
            out = frozenset()
            for c in children(e):
                inner = _free(c)
                if not inner <= out:
                    out = inner if not out else out | inner
        object.__setattr__(e, "_free", out)
    return out


def function_symbols(e: Expression) -> set[FunctionSymbol]:
    out: set[FunctionSymbol] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, FunctionApp):
            out.add(node.symbol)
        stack.extend(children(node))
    return out


def rewrite(e: Expression, rule) -> Expression:
    """Replace each outermost node where rule(node) returns an expression.

    Every other node is rebuilt from its rewritten children.  This is the
    one tree-rebuilding walk; it does not normalize.
    """
    out = rule(e)
    if out is not None:
        return out
    t = type(e)
    if t is Sum:
        return Sum(tuple([rewrite(u, rule) for u in e.terms]))
    if t is Product:
        return Product(tuple([rewrite(f, rule) for f in e.factors]))
    if t is Power:
        return Power(rewrite(e.base, rule), e.exponent)
    if t is Builtin:
        return Builtin(e.name, rewrite(e.arg, rule), e.order)
    if t is FunctionApp:
        return FunctionApp(e.symbol, tuple([rewrite(a, rule) for a in e.args]), e.orders)
    return e


def substitute(e: Expression, mapping: Mapping[str, Expression]) -> Expression:
    """Replace variables by expressions, by name.  Does not normalize."""
    return rewrite(e, lambda node: mapping.get(node.name) if isinstance(node, Variable) else None)


# ---------------------------------------------------------------------------
# canonical ordering

_KIND_RANK = {
    Constant: 0,
    ImaginaryUnit: 1,
    Variable: 2,
    Power: 3,
    Builtin: 4,
    FunctionApp: 5,
    Product: 6,
    Sum: 7,
}


def _sort_key(e: Expression):
    """The canonical key of e, stored on e on first use."""
    # The kind rank leads, so two keys reach their second fields only for
    # nodes of one kind, where those fields share a type: plain tuple
    # comparison is a total order on these keys.
    key = e._key
    if key is not None:
        return key
    t = type(e)
    rank = _KIND_RANK[t]
    if t is Constant:
        key = (rank, e.value, ())
    elif t is ImaginaryUnit:
        key = (rank, 0, ())
    elif t is Variable:
        key = (rank, e.name, ())
    elif t is Power:
        key = (rank, e.exponent, (_sort_key(e.base),))
    elif t is Builtin:
        key = (rank, (e.name, e.order if e.order is not None else _Q0), (_sort_key(e.arg),))
    elif t is FunctionApp:
        key = (rank, (e.symbol.name, e.orders), tuple([_sort_key(a) for a in e.args]))
    elif t is Sum:
        key = (rank, len(e.terms), tuple([_sort_key(u) for u in e.terms]))
    elif t is Product:
        key = (rank, len(e.factors), tuple([_sort_key(f) for f in e.factors]))
    else:
        raise ExpressionError("unreachable")
    object.__setattr__(e, "_key", key)
    return key


# ---------------------------------------------------------------------------
# normalization

def normalize(e: Expression) -> Expression:
    """Weak structural normal form.

    Flattens nested sums and products, folds rational constants, merges
    equal-base powers inside a product and sorts children canonically.
    Value preserving; it does not attempt cancellation beyond exact
    rational arithmetic.  Every result is its own normal form and is
    marked so, and later calls return it unchanged.
    """
    if e._normal:
        return e
    t = type(e)
    if t is Sum:
        return _normalize_sum(e)
    if t is Product:
        return _normalize_product(e)
    if t is Power:
        return _normalize_power(normalize(e.base), e.exponent)
    if t is Builtin or t is FunctionApp:
        return _mark(rewrite(e, lambda node: None if node is e else normalize(node)))
    raise ExpressionError("unknown node %r" % t.__name__)


def _mark(e: Expression) -> Expression:
    """Mark a node normalize built from normal children as normal."""
    object.__setattr__(e, "_normal", True)
    return e


def _normalize_sum(e: Sum) -> Expression:
    terms: list[Expression] = []
    const = _Q0
    for raw in e.terms:
        t = normalize(raw)
        for u in (t.terms if type(t) is Sum else (t,)):
            if type(u) is Constant:
                const = u.value if const is _Q0 else const + u.value
            else:
                terms.append(u)
    terms.sort(key=_sort_key)
    if const:
        terms.insert(0, Constant(const))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return _mark(Sum(tuple(terms)))


def _normalize_product(e: Product) -> Expression:
    const = _Q1
    i_power = 0
    # Equal bases merge; exponents add under the principal branch since
    # z^a * z^b = exp((a+b) ln z) whenever both factors use the same ln z.
    # Each base maps, in first-seen order, to [exponent, piece]: piece is
    # the lone factor with that base, or None once another factor merged
    # into it.
    merged: dict[Expression, list] = {}
    todo = [normalize(f) for f in e.factors]
    while todo:
        for f in todo:
            for u in (f.factors if type(f) is Product else (f,)):
                t = type(u)
                if t is Constant:
                    const = u.value if const is _Q1 else const * u.value
                elif t is ImaginaryUnit:
                    i_power += 1
                elif t is Power and type(u.base) is ImaginaryUnit \
                        and u.exponent.denominator == 1:
                    i_power += u.exponent.numerator
                else:
                    base, expo = (u.base, u.exponent) if t is Power else (u, _Q1)
                    m = merged.get(base)
                    if m is None:
                        merged[base] = [expo, u]
                    else:
                        m[0] += expo
                        m[1] = None
        if not const:
            return ZERO
        # A merged piece that is a product (a product base raised to 1,
        # or i^3 = (-1)*i), or a power or i left bare by exponent 1, is
        # flattened and merged again, so the result is its own normal
        # form.  Its entry stays at exponent 0 for later factors to join.
        todo = []
        for base, m in merged.items():
            if m[1] is None:
                piece = m[1] = _normalize_power(base, m[0])
                if type(piece) is Product or \
                        (piece is base and type(base) in (Power, ImaginaryUnit)):
                    todo.append(piece)
                    m[0], m[1] = _Q0, ONE
    factors: list[Expression] = []
    for _, piece in merged.values():
        if type(piece) is Constant:
            const = piece.value if const is _Q1 else const * piece.value
        else:
            factors.append(piece)
    if not const:
        return ZERO
    # fold powers of i exactly: i^2 = -1
    i_power %= 4
    if i_power >= 2:
        const = -const
        i_power -= 2
    if i_power:
        factors.append(I)
    factors.sort(key=_sort_key)
    if const is not _Q1 and const != 1:
        factors.insert(0, Constant(const))
    if not factors:
        return Constant(const)
    if len(factors) == 1:
        return factors[0]
    return _mark(Product(tuple(factors)))


def _normalize_power(base: Expression, exponent: Fraction) -> Expression:
    num, den = exponent.numerator, exponent.denominator
    if den == 1:
        if num == 0:
            return ONE
        if num == 1:
            return base
        if type(base) is ImaginaryUnit:
            return (ONE, I, MINUS_ONE, _mark(Product((MINUS_ONE, I))))[num % 4]
        if type(base) is Constant:
            if base.value == 0 and num < 0:
                raise ExpressionError("division by exact zero")
            return Constant(base.value ** num)
    # (x^a)^b is left alone: collapsing it is unsound on principal branches
    return _mark(Power(base, exponent))


# ---------------------------------------------------------------------------
# differentiation

def differentiate(e: Expression, v: str) -> Expression:
    """Exact partial derivative with respect to the variable named v.

    Every Variable is treated as an independent coordinate, including jet
    coordinates; total derivatives live in :mod:`symred.jets`.  It is 0
    at once, without a walk, when v does not occur in e.
    """
    if v not in _free(e):
        return ZERO
    return normalize(_diff(e, v))


# One command needs at most a few hundred entries; the bound keeps a
# long-lived process from holding derivatives of expressions it has
# dropped.
@lru_cache(maxsize=1024)
def derivative(e: Expression, dvars: tuple[str, ...]) -> Expression:
    """e differentiated by each variable of dvars in turn; cached."""
    for v in dvars:
        e = differentiate(e, v)
    return e


def _diff(e: Expression, v: str) -> Expression:
    # Subtrees without v differentiate to 0 and are left out, so the
    # product rule builds only the terms that survive normalize.
    if v not in _free(e):
        return ZERO
    t = type(e)
    if t is Variable:
        return ONE
    if t is Sum:
        return Sum(tuple([_diff(u, v) for u in e.terms]))
    if t is Product:
        return Sum(tuple([Product(e.factors[:i] + (_diff(f, v),) + e.factors[i + 1:])
                          for i, f in enumerate(e.factors) if v in _free(f)]))
    if t is Power:
        return Product((Constant(e.exponent),
                        Power(e.base, e.exponent - 1),
                        _diff(e.base, v)))
    if t is Builtin:
        da = _diff(e.arg, v)
        if e.name == "exp":
            inner = Builtin("exp", e.arg)
        elif e.name == "ln":
            inner = Power(e.arg, Fraction(-1))
        elif e.name == "sin":
            inner = Builtin("cos", e.arg)
        elif e.name == "cos":
            inner = neg(Builtin("sin", e.arg))
        else:  # besseli: I_nu' = (I_{nu-1} + I_{nu+1}) / 2
            inner = Product((Constant(Fraction(1, 2)),
                             Sum((Builtin("besseli", e.arg, e.order - 1),
                                  Builtin("besseli", e.arg, e.order + 1)))))
        return Product((inner, da))
    if t is FunctionApp:
        terms = []
        for j, arg in enumerate(e.args):
            if v not in _free(arg):
                continue
            bumped = tuple(k + (1 if i == j else 0) for i, k in enumerate(e.orders))
            terms.append(Product((FunctionApp(e.symbol, e.args, bumped), _diff(arg, v))))
        return Sum(tuple(terms))
    raise ExpressionError("unknown node %r" % type(e).__name__)


# ---------------------------------------------------------------------------
# printing

def _fmt_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _paren(text: str, needed: bool) -> str:
    return "(" + text + ")" if needed else text


def _strip_minus(e: Expression) -> Expression | None:
    """e written as -(something positive-headed), else None."""
    if isinstance(e, Constant) and e.value < 0:
        return Constant(-e.value)
    if isinstance(e, Product) and e.factors and isinstance(e.factors[0], Constant):
        c = e.factors[0].value
        if c == -1 and len(e.factors) == 2:
            return e.factors[1]
        if c == -1:
            return Product(e.factors[1:])
        if c < 0:
            return Product((Constant(-c),) + e.factors[1:])
    return None


def to_text(e: Expression) -> str:
    """Render an expression in the grammar accepted by parse_expression."""
    return _print(e, 0)


# precedence levels: 0 sum, 1 product, 2 unary minus handled via constants,
# 3 power, 4 atom
def _print(e: Expression, ctx: int) -> str:
    if isinstance(e, Constant):
        text = _fmt_rational(e.value)
        neg_or_frac = e.value < 0 or e.value.denominator != 1
        return _paren(text, ctx >= 1 and neg_or_frac)
    if isinstance(e, ImaginaryUnit):
        return "i"
    if isinstance(e, Variable):
        return e.name
    if isinstance(e, Sum):
        text = ""
        for j, t in enumerate(e.terms):
            pos = _strip_minus(t)
            if pos is not None:
                text += ("-" if j == 0 else " - ") + _print(pos, 1)
            else:
                text += ("" if j == 0 else " + ") + _print(t, 1)
        return _paren(text, ctx >= 1)
    if isinstance(e, Product):
        parts = [_print(f, 2) for f in e.factors]
        return _paren("*".join(parts), ctx >= 2)
    if isinstance(e, Power):
        base = _print(e.base, 3)
        expo = _fmt_rational(e.exponent)
        if e.exponent < 0 or e.exponent.denominator != 1:
            expo = "(" + expo + ")"
        return _paren(base + "^" + expo, ctx >= 3)
    if isinstance(e, Builtin):
        if e.name == "besseli":
            return "besseli(%s; %s)" % (_fmt_rational(e.order), _print(e.arg, 0))
        return "%s(%s)" % (e.name, _print(e.arg, 0))
    if isinstance(e, FunctionApp):
        if all(k == 0 for k in e.orders):
            return "%s(%s)" % (e.symbol.name, ", ".join(_print(a, 0) for a in e.args))
        head = "d(%s, %s)" % (e.symbol.name, ", ".join(e.dvars))
        plain = tuple(Variable(f) for f in e.symbol.formals)
        if e.args == plain:
            return head
        return "%s(%s)" % (head, ", ".join(_print(a, 0) for a in e.args))
    raise ExpressionError("unknown node %r" % type(e).__name__)
