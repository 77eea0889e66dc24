"""Scalar expressions in two variables with exact first derivatives.

Expressions are immutable ASTs over two named variables (``x``/``y`` by
default, ``u``/``v`` for surface patches), numeric literals, the operators
``+ - * / ^`` (``^`` right-associative), unary minus, and the functions
``sqrt, sin, cos, exp, log, atan2, abs`` plus the internal helper ``sign``
(emitted by differentiation of ``abs``).  ``pi`` is a predefined constant.

Expressions are evaluated only through compiled straight-line code
(:func:`compile_value`, :func:`compile_value_vec`; :func:`eval_expr` is a
checked one-off call of it).  One compiled body serves scalar and numpy
evaluation (:func:`as_vector`).  :func:`diff` returns a derivative as a
new expression; ``compile_value(..., gradient=True)`` emits the lines of
first derivatives by forward mode, the same lines that compiling the
:func:`diff` trees gives, without building those trees.
"""

from __future__ import annotations

import math
import operator
import types
import weakref
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "ParseError", "DomainError",
    "parse", "to_source", "eval_expr", "diff",
    "compile_value", "compile_value_vec", "as_vector", "call_compiled",
    "stack_vec", "vec_errstate", "VEC_ERRORS",
    "add", "sub", "mul", "div", "neg", "call", "num", "var",
    "MAX_DEPTH",
]

# Deepest expression the parser accepts; see ``_Parser``.
MAX_DEPTH = 100

FUNCTION_ARITY = {
    "sqrt": 1, "sin": 1, "cos": 1, "exp": 1, "log": 1, "abs": 1,
    "sign": 1, "atan2": 2,
}

CONSTANTS = {"pi": math.pi}


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        full = f"{message} at offset {offset}"
        if expected:
            full += f" (expected {expected})"
        super().__init__(full)


class DomainError(ExprError):
    """Evaluation left the real domain (sqrt of negative, log of nonpositive,
    division by zero, non-integer power of a nonpositive base, overflow)."""

    def __init__(self, message: str, subexpr: "Expr | None" = None):
        self.subexpr = subexpr
        if subexpr is not None:
            message = f"{message} in `{to_source(subexpr)}`"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base node.  Instances are immutable and safe to share across threads."""

    __slots__ = ("__weakref__",)   # the intern table refers to nodes weakly

    def __str__(self) -> str:
        return to_source(self)

    # arithmetic sugar used when assembling expressions programmatically
    def __add__(self, other):
        return add(self, _as_expr(other))

    def __radd__(self, other):
        return add(_as_expr(other), self)

    def __sub__(self, other):
        return sub(self, _as_expr(other))

    def __rsub__(self, other):
        return sub(_as_expr(other), self)

    def __mul__(self, other):
        return mul(self, _as_expr(other))

    def __rmul__(self, other):
        return mul(_as_expr(other), self)

    def __truediv__(self, other):
        return div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return div(_as_expr(other), self)

    def __neg__(self):
        return neg(self)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: Expr


@dataclass(frozen=True, slots=True)
class Call(Expr):
    fn: str
    args: tuple


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, Fraction)):
        return Num(float(v))
    raise TypeError(f"cannot coerce {type(v).__name__} to Expr")


# Folding constructors.  Used by diff() and by programmatic assembly so that
# derivative trees stay compact; parse() builds nodes directly.
#
# The constructors of interior nodes intern them: building the same
# operation on the same children again returns the node built before, so
# an expression that diff() rebuilds many times is one shared object.  The
# key is the node type plus each child's id(), or for a literal child the
# repr() of its value, which is also the text the code generator emits
# (so 0.0 and -0.0 stay apart).  Keying on the nodes themselves would call
# the dataclass __hash__, which recurses through the whole subtree.  The
# table holds nodes weakly, so it keeps no tree alive; while a node is in
# it, the node keeps its children alive, so their ids are not reused.
_NODES = weakref.WeakValueDictionary()


def _binary(cls, a: Expr, b: Expr) -> Expr:
    """The interned node ``cls(a, b)``, without folding."""
    key = (cls, repr(a.value) if type(a) is Num else id(a),
           repr(b.value) if type(b) is Num else id(b))
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = cls(a, b)
    return node


def num(v) -> Num:
    return Num(float(v))


def var(name: str) -> Var:
    return Var(name)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return b
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    return _binary(Add, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Num) and b.value == 0.0:
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value - b.value)
    if isinstance(a, Num) and a.value == 0.0:
        return neg(b)
    return _binary(Sub, a, b)


def neg(a: Expr) -> Expr:
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.a
    key = (Neg, id(a))
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = Neg(a)
    return node


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num):
        if a.value == 0.0:
            return Num(0.0)
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return neg(b)
        if isinstance(b, Num):
            return Num(a.value * b.value)
    if isinstance(b, Num):
        if b.value == 0.0:
            return Num(0.0)
        if b.value == 1.0:
            return a
        if b.value == -1.0:
            return neg(a)
    return _binary(Mul, a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Num) and a.value == 0.0:
        return Num(0.0)
    if isinstance(b, Num) and b.value == 1.0:
        return a
    return _binary(Div, a, b)


def call(fn: str, *args: Expr) -> Expr:
    if fn not in FUNCTION_ARITY:
        raise ValueError(f"unknown function {fn!r}")
    if len(args) != FUNCTION_ARITY[fn]:
        raise ValueError(f"{fn} takes {FUNCTION_ARITY[fn]} argument(s)")
    key = (Call, fn, *(repr(a.value) if type(a) is Num else id(a)
                       for a in args))
    node = _NODES.get(key)
    if node is None:
        node = _NODES[key] = Call(fn, args)
    return node


# ---------------------------------------------------------------------------
# Tokenizer / parser


_OPERATOR_CHARS = "+-*/^(),"


def _byte_offset(source: str, index: int) -> int:
    return len(source[:index].encode("utf-8"))


def _tokenize(source: str):
    """Yield (kind, text, byte_offset) triples; kind in
    NUM, IDENT, OP, END."""
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        start = i
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            i += 1
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                j = i + 1
                if j < n and source[j] in "+-":
                    j += 1
                if j < n and source[j].isdigit():
                    i = j + 1
                    while i < n and source[i].isdigit():
                        i += 1
            yield ("NUM", source[start:i], _byte_offset(source, start))
        elif c.isalpha() or c == "_":
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            yield ("IDENT", source[start:i], _byte_offset(source, start))
        elif c in _OPERATOR_CHARS:
            i += 1
            yield ("OP", c, _byte_offset(source, start))
        else:
            raise ParseError(f"unexpected character {c!r}",
                             _byte_offset(source, i))
    yield ("END", "", _byte_offset(source, n))


class _Parser:
    def __init__(self, source: str, variables):
        self.tokens = list(_tokenize(source))
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        kind, t, off = self.peek()
        if kind != "OP" or t != text:
            raise ParseError(f"unexpected token {t or 'end of input'!r}", off,
                             expected=repr(text))
        return self.advance()

    def parse(self) -> Expr:
        e, _ = self.expr(0)
        kind, t, off = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected token {t!r}", off,
                             expected="end of input")
        return e

    # Each method parses at ``level`` levels below the top and returns the
    # expression with its depth; every operator, function call and pair of
    # parentheses is one level.  unary() refuses to descend past MAX_DEPTH
    # (so the recursion stays bounded) and node() rejects a result whose
    # depth would exceed it (so left-associative chains are bounded too).

    def node(self, e, depth, level, off):
        if level + depth > MAX_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_DEPTH} levels", off)
        return e, depth

    def expr(self, level):
        e, d = self.term(level)
        while True:
            kind, t, off = self.peek()
            if kind == "OP" and t in "+-":
                self.advance()
                rhs, dr = self.term(level)
                e, d = self.node(Add(e, rhs) if t == "+" else Sub(e, rhs),
                                 1 + max(d, dr), level, off)
            else:
                return e, d

    def term(self, level):
        e, d = self.unary(level)
        while True:
            kind, t, off = self.peek()
            if kind == "OP" and t in "*/":
                self.advance()
                rhs, dr = self.unary(level)
                e, d = self.node(Mul(e, rhs) if t == "*" else Div(e, rhs),
                                 1 + max(d, dr), level, off)
            else:
                return e, d

    def unary(self, level):
        kind, t, off = self.peek()
        if level >= MAX_DEPTH:
            raise ParseError(
                f"expression nested deeper than {MAX_DEPTH} levels", off)
        if kind == "OP" and t in "+-":
            self.advance()
            a, d = self.unary(level + 1)
            return self.node(Neg(a) if t == "-" else a, d + 1, level, off)
        return self.power(level)

    def power(self, level):
        base, d = self.atom(level)
        kind, t, off = self.peek()
        if kind == "OP" and t == "^":
            self.advance()
            expo, de = self.unary(level + 1)
            return self.node(Pow(base, expo), 1 + max(d, de), level, off)
        return base, d

    def atom(self, level):
        kind, t, off = self.advance()
        if kind == "NUM":
            value = float(t)
            if not math.isfinite(value):
                raise ParseError(f"number {t!r} is out of range", off)
            return Num(value), 1
        if kind == "IDENT":
            k2, t2, _ = self.peek()
            if k2 == "OP" and t2 == "(":
                if t not in FUNCTION_ARITY:
                    raise ParseError(f"unknown function {t!r}", off)
                self.advance()
                args = [self.expr(level + 1)]
                while True:
                    k3, t3, off3 = self.peek()
                    if k3 == "OP" and t3 == ",":
                        self.advance()
                        args.append(self.expr(level + 1))
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTION_ARITY[t]:
                    raise ParseError(
                        f"{t} takes {FUNCTION_ARITY[t]} argument(s), "
                        f"got {len(args)}", off)
                return self.node(Call(t, tuple(a for a, _ in args)),
                                 1 + max(d for _, d in args), level, off)
            if t in self.variables:
                return Var(t), 1
            if t in CONSTANTS:
                return Num(CONSTANTS[t]), 1
            raise ParseError(f"unknown identifier {t!r}", off)
        if kind == "OP" and t == "(":
            e, d = self.expr(level + 1)
            self.expect_op(")")
            return self.node(e, d + 1, level, off)
        raise ParseError(f"unexpected token {t or 'end of input'!r}", off,
                         expected="a number, variable, function or '('")


def parse(source: str, variables=("x", "y")) -> Expr:
    """Parse ``source`` into an Expr over the two declared variables.

    Raises ParseError (with the byte offset of the offending token) on
    malformed input, unknown identifiers, a literal that overflows to
    infinity, or nesting deeper than MAX_DEPTH levels.
    """
    return _Parser(source, variables).parse()


# ---------------------------------------------------------------------------
# Printer


_PREC = {"add": 1, "mul": 2, "neg": 2, "pow": 3, "atom": 4}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        s = _fmt_num(e.value)
        if e.value < 0 and parent_prec > _PREC["add"]:
            return f"({s})"
        return s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        s = "-" + _print(e.a, _PREC["neg"] + 1)
        return f"({s})" if parent_prec > _PREC["neg"] else s
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        s = (_print(e.a, _PREC["add"]) + f" {op} "
             + _print(e.b, _PREC["add"] + 1))
        return f"({s})" if parent_prec > _PREC["add"] else s
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        s = _print(e.a, _PREC["mul"]) + op + _print(e.b, _PREC["mul"] + 1)
        return f"({s})" if parent_prec > _PREC["mul"] else s
    if isinstance(e, Pow):
        s = (_print(e.base, _PREC["pow"] + 1) + "^"
             + _print(e.exponent, _PREC["pow"]))
        return f"({s})" if parent_prec > _PREC["pow"] else s
    if isinstance(e, Call):
        return e.fn + "(" + ", ".join(_print(a, 0) for a in e.args) + ")"
    raise TypeError(f"not an Expr: {e!r}")


def to_source(e: Expr) -> str:
    """Canonical text form; ``parse(to_source(e))`` evaluates like ``e``."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Differentiation (AST level)


def diff(e: Expr, wrt: str, memo=None) -> Expr:
    """Derivative of ``e`` with respect to the variable named ``wrt``.

    The result is again an Expr.  At kinks of abs the derivative uses the
    internal ``sign`` function; sqrt/log derivatives raise DomainError when
    later evaluated at their singular locus.  A node that occurs several
    times (shared by identity) is differentiated once, and all its
    occurrences share the derivative: within one call, and across calls
    with the same ``wrt`` that pass one ``memo`` dict.
    """
    if memo is None:
        memo = {}
    elif id(e) in memo:
        return memo[id(e)]
    if isinstance(e, Num):
        d = Num(0.0)
    elif isinstance(e, Var):
        d = Num(1.0 if e.name == wrt else 0.0)
    elif isinstance(e, Neg):
        d = neg(diff(e.a, wrt, memo))
    elif isinstance(e, Add):
        d = add(diff(e.a, wrt, memo), diff(e.b, wrt, memo))
    elif isinstance(e, Sub):
        d = sub(diff(e.a, wrt, memo), diff(e.b, wrt, memo))
    elif isinstance(e, Mul):
        d = add(mul(diff(e.a, wrt, memo), e.b),
                mul(e.a, diff(e.b, wrt, memo)))
    elif isinstance(e, Div):
        # (a/b)' = a'/b - a b'/b^2
        da, db = diff(e.a, wrt, memo), diff(e.b, wrt, memo)
        if isinstance(db, Num) and db.value == 0.0:
            d = div(da, e.b)
        else:
            d = div(sub(mul(da, e.b), mul(e.a, db)),
                    _binary(Pow, e.b, Num(2.0)))
    elif isinstance(e, Pow):
        db = diff(e.base, wrt, memo)
        de = diff(e.exponent, wrt, memo)
        if isinstance(de, Num) and de.value == 0.0:
            # c * u^(c-1) * u'
            if isinstance(e.exponent, Num):
                c = e.exponent.value
                d = mul(mul(Num(c), _binary(Pow, e.base, Num(c - 1.0))),
                        db)
            else:
                d = mul(mul(e.exponent,
                            _binary(Pow, e.base, sub(e.exponent, Num(1.0)))),
                        db)
        else:
            # u^v * (v' log u + v u'/u)
            d = mul(e, add(mul(de, call("log", e.base)),
                           mul(e.exponent, div(db, e.base))))
    elif isinstance(e, Call):
        d = _diff_call(e, wrt, memo)
    else:
        raise TypeError(f"not an Expr: {e!r}")
    memo[id(e)] = d
    return d


def _diff_call(e: Call, wrt: str, memo) -> Expr:
    fn = e.fn
    if fn == "atan2":
        a, b = e.args  # atan2(a, b), d = (b a' - a b') / (a^2 + b^2)
        da, db = diff(a, wrt, memo), diff(b, wrt, memo)
        denom = add(_binary(Pow, a, Num(2.0)), _binary(Pow, b, Num(2.0)))
        return div(sub(mul(b, da), mul(a, db)), denom)
    u = e.args[0]
    du = diff(u, wrt, memo)
    if isinstance(du, Num) and du.value == 0.0:
        return Num(0.0)
    if fn == "sqrt":
        return div(du, mul(Num(2.0), call("sqrt", u)))
    if fn == "sin":
        return mul(call("cos", u), du)
    if fn == "cos":
        return neg(mul(call("sin", u), du))
    if fn == "exp":
        return mul(call("exp", u), du)
    if fn == "log":
        return div(du, u)
    if fn == "abs":
        return mul(call("sign", u), du)
    if fn == "sign":
        return Num(0.0)
    raise TypeError(f"unknown function {fn!r}")


# ---------------------------------------------------------------------------
# Compilation to fast callables


_FORMAT = {Neg: "-{}", Add: "{}+{}", Sub: "{}-{}", Mul: "{}*{}",
           Div: "{}/{}"}
_CONST = (float, int)   # the types of Num values


def _power_format(expo) -> str:
    """``_ipow`` for an integer literal exponent, else ``_pow``."""
    if type(expo) in _CONST and expo == round(expo):
        return "_ipow({}, {})"
    return "_pow({}, {})"


def _literal(v) -> str:
    s = repr(v)
    return f"({s})" if s.startswith("-") else s


def _rhs(e: Expr, ops) -> str:
    """One operation on already-computed operands (names or literals)."""
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(ops)})"
    if isinstance(e, Pow):
        expo = e.exponent
        return _power_format(expo.value if isinstance(expo, Num) else expo
                             ).format(*ops)
    return _FORMAT[type(e)].format(*ops)


# Forward-mode derivatives for the Jacobian code.  A tangent term stands for
# the node diff() would build: a plain number for a Num, the value node
# itself for a subtree of the differentiated expression, else a _Term, the
# operation of one line.  The fold methods of _Forward fold as
# add/sub/neg/mul/div do, case for case, so a term is the diff() tree node
# for node and is emitted as the same text.  _Terms are interned as
# diff()'s nodes are, so a structure built again is one object, reached
# once.  A term costs no line until the emitter reaches it from a result:
# one that a later fold drops (the u^(-1) of d(u^0)) is never computed, as
# in the code of the diff() trees.
_NEG, _ADD, _SUB, _MUL, _DIV = (_FORMAT[c] for c in (Neg, Add, Sub, Mul, Div))


def _leaf(e):
    return e.value if type(e) is Num else e


class _Term:
    """An operation in a tangent: the format of its right-hand side, its
    operands, and once its line is emitted the temporary that holds it."""

    __slots__ = ("fmt", "ops", "name")

    def __init__(self, fmt, ops):
        self.fmt, self.ops, self.name = fmt, ops, None


class _Forward:
    """The tangent terms in each of the variables ``wrt`` of the
    expressions of one bundle of code."""

    def __init__(self, wrt):
        self.wrt = wrt
        self.terms = {}   # (format, operand keys) -> the _Term
        self.memo = {}    # id(node) -> its tangent in each variable

    # A _Term operand is its own key, hashed by identity; a node's hash
    # would walk its tree, and a number's would make 0.0 and -0.0 one key.

    def op(self, fmt, a):
        key = (fmt, a if type(a) is _Term else
               repr(a) if type(a) in _CONST else id(a))
        term = self.terms.get(key)
        if term is None:
            term = self.terms[key] = _Term(fmt, (a,))
        return term

    def op2(self, fmt, a, b):
        key = (fmt, a if type(a) is _Term else
               repr(a) if type(a) in _CONST else id(a),
               b if type(b) is _Term else
               repr(b) if type(b) in _CONST else id(b))
        term = self.terms.get(key)
        if term is None:
            term = self.terms[key] = _Term(fmt, (a, b))
        return term

    def add(self, a, b):
        if type(a) in _CONST and a == 0.0:
            return b
        if type(b) in _CONST:
            if b == 0.0:
                return a
            if type(a) in _CONST:
                return a + b
        return self.op2(_ADD, a, b)

    def sub(self, a, b):
        if type(b) in _CONST:
            if b == 0.0:
                return a
            if type(a) in _CONST:
                return a - b
        if type(a) in _CONST and a == 0.0:
            return self.neg(b)
        return self.op2(_SUB, a, b)

    def neg(self, a):
        if type(a) in _CONST:
            return -a
        if type(a) is _Term and a.fmt is _NEG:
            return a.ops[0]
        if type(a) is Neg:
            return _leaf(a.a)
        return self.op(_NEG, a)

    def mul(self, a, b):
        if type(a) in _CONST:
            if a == 0.0:
                return 0.0
            if a == 1.0:
                return b
            if a == -1.0:
                return self.neg(b)
            if type(b) in _CONST:
                return a * b
        if type(b) in _CONST:
            if b == 0.0:
                return 0.0
            if b == 1.0:
                return a
            if b == -1.0:
                return self.neg(a)
        return self.op2(_MUL, a, b)

    def div(self, a, b):
        if type(a) in _CONST and a == 0.0:
            return 0.0
        if type(b) in _CONST and b == 1.0:
            return a
        return self.op2(_DIV, a, b)

    def power(self, base, c):
        return self.op2(_power_format(c), base, c)

    def tangents(self, e: Expr) -> tuple:
        """``diff(e, w)`` as a term, for each variable w of ``wrt``."""
        d = self.memo.get(id(e))
        if d is not None:
            return d
        t = type(e)
        if t is Num or t is Var:
            d = tuple([1.0 if t is Var and e.name == w else 0.0
                       for w in self.wrt])
        else:
            # a call's arguments, else the dataclass fields
            ops = e.args if t is Call else [
                getattr(e, field) for field in e.__slots__]
            leaves = [_leaf(a) for a in ops]
            d = tuple([self._rule(e, leaves, ds)
                       for ds in zip(*[self.tangents(a) for a in ops])])
        self.memo[id(e)] = d
        return d

    def _rule(self, e: Expr, ops, ds):
        """diff()'s rule for the node ``e``, given its operands (as terms)
        and their tangents in one variable."""
        t = type(e)
        if t is Neg:
            return self.neg(ds[0])
        if t is Add:
            return self.add(*ds)
        if t is Sub:
            return self.sub(*ds)
        if t is Mul:
            (a, b), (da, db) = ops, ds
            return self.add(self.mul(da, b), self.mul(a, db))
        if t is Div:
            (a, b), (da, db) = ops, ds
            if type(db) in _CONST and db == 0.0:
                return self.div(da, b)
            return self.div(self.sub(self.mul(da, b), self.mul(a, db)),
                            self.power(b, 2.0))
        if t is Pow:
            (base, expo), (db, de) = ops, ds
            if type(de) in _CONST and de == 0.0:
                # c * u^(c-1) * u'
                if type(expo) in _CONST:
                    pw = self.power(base, expo - 1.0)
                else:
                    pw = self.op2("_pow({}, {})", base, self.sub(expo, 1.0))
                return self.mul(self.mul(expo, pw), db)
            # u^v * (v' log u + v u'/u)
            return self.mul(e, self.add(
                self.mul(de, self.op("log({})", base)),
                self.mul(expo, self.div(db, base))))
        fn = e.fn
        if fn == "atan2":
            (a, b), (da, db) = ops, ds
            return self.div(self.sub(self.mul(b, da), self.mul(a, db)),
                            self.add(self.power(a, 2.0), self.power(b, 2.0)))
        (u,), (du,) = ops, ds
        if type(du) in _CONST and du == 0.0:
            return 0.0
        if fn == "sqrt":
            return self.div(du, self.mul(2.0, self.op("sqrt({})", u)))
        if fn == "sin":
            return self.mul(self.op("cos({})", u), du)
        if fn == "cos":
            return self.neg(self.mul(self.op("sin({})", u), du))
        if fn == "exp":
            return self.mul(self.op("exp({})", u), du)
        if fn == "log":
            return self.div(du, u)
        if fn == "abs":
            return self.mul(self.op("sign({})", u), du)
        if fn == "sign":
            return 0.0
        raise TypeError(f"unknown function {fn!r}")


class _Lines:
    """Straight-line code under construction: its assignment lines, the
    node each line computes (None for a tangent line), and the name or
    literal that holds each node reached so far.

    Every operation gets a temporary keyed by its right-hand side, so a
    subexpression that occurs again (shared or rebuilt) is computed once.
    Temporaries come in the order nested evaluation reaches them, left
    operand first, so each value and the first failing operation are
    those of evaluating the expressions one after another.
    """

    def __init__(self):
        self.lines, self.nodes = [], []
        self.temps = {}   # right-hand side -> name
        self.text = {}    # id(node) -> name or literal

    def _assign(self, rhs: str, node) -> str:
        name = self.temps.get(rhs)
        if name is None:
            name = self.temps[rhs] = f"_t{len(self.temps)}"
            self.lines.append(f"    {name} = {rhs}")
            self.nodes.append(node)
        return name

    # Both walks visit the tree depth first, left operand first, and
    # emit a node's line after its operands'.

    def value(self, root: Expr) -> str:
        """Emit the lines computing ``root``; the name or literal that
        holds its value."""
        text, todo = self.text, [(root, None)]
        while todo:
            e, ops = todo.pop()
            if ops is not None:
                text[id(e)] = self._assign(
                    _rhs(e, [text[id(a)] for a in ops]), e)
                continue
            if id(e) in text:
                continue
            t = type(e)
            if t is Num:
                text[id(e)] = _literal(e.value)
            elif t is Var:
                text[id(e)] = e.name
            else:
                # a call's arguments, else the dataclass fields
                ops = e.args if t is Call else [
                    getattr(e, field) for field in e.__slots__]
                todo.append((e, ops))
                todo.extend([(a, None) for a in reversed(ops)
                             if id(a) not in text])
        return text[id(root)]

    def term(self, root) -> str:
        """Emit the lines computing a tangent term whose value nodes have
        their lines already, as ``value`` emits the tree the term stands
        for; the name or literal that holds its value."""
        if type(root) in _CONST:
            return _literal(root)
        if type(root) is not _Term:
            return self.text[id(root)]
        text, todo = self.text, [(root, False)]
        while todo:
            t, ready = todo.pop()
            if ready:
                t.name = self._assign(t.fmt.format(*[
                    a.name if type(a) is _Term
                    else _literal(a) if type(a) in _CONST else text[id(a)]
                    for a in t.ops]), None)
            elif t.name is None:
                todo.append((t, True))
                todo.extend([(a, False) for a in reversed(t.ops)
                             if type(a) is _Term and a.name is None])
        return root.name


def _straight_line(exprs, wrt=()):
    """Assignment lines computing ``exprs``, each followed by its partial
    derivatives in the variables ``wrt``; the name or literal that holds
    each result, and the node each line computes (None for a derivative
    line).  The lines are those of the same code over the expressions
    and their ``diff`` trees."""
    code, forward, results = _Lines(), _Forward(wrt), []
    for e in exprs:
        results.append(code.value(e))
        if wrt:
            results.extend(map(code.term, forward.tangents(e)))
    return code.lines, results, code.nodes


def _sign(t: float) -> float:
    if t > 0.0:
        return 1.0
    if t < 0.0:
        return -1.0
    return 0.0


# Every integer-literal power is emitted as ``_ipow``: Python's ``**``
# (operator.pow) in scalar code, and in vector code pow() per element, as
# ``**`` on floats does: np.float_power.  numpy's ``**`` may square instead
# or call a vectorised pow, either of which can differ in the last bit.  A
# power whose exponent is not an integer literal goes through ``_pow``: an
# integer-valued exponent follows the same rules as the literals, and any
# other needs a positive base (else a ValueError, as math raises, which
# ``call_compiled`` converts).
def _scalar_namespace():
    def _pow(b, c):
        if c == round(c):
            return b ** c
        if b <= 0.0:
            raise ValueError("non-integer power of a nonpositive base")
        return math.exp(c * math.log(b))

    return {
        "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
        "exp": math.exp, "log": math.log, "abs": abs, "sign": _sign,
        "atan2": math.atan2, "_pow": _pow, "_ipow": operator.pow,
    }


def _vector_namespace():
    import numpy as np

    def _pow(b, c):
        # each branch sees harmless operands where the other one is taken
        whole = c == np.round(c)
        return np.where(whole, np.float_power(b, np.where(whole, c, 0.0)),
                        np.exp(c * np.log(np.where(whole, 1.0, b))))[()]

    return {
        "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
        "exp": np.exp, "log": np.log, "abs": np.abs, "sign": np.sign,
        "atan2": np.arctan2, "_pow": _pow, "_ipow": np.float_power,
    }


# Exceptions a vectorised evaluation raises under ``vec_errstate``, as
# floating-point events or as raw Python errors of its scalar operands.
VEC_ERRORS = (FloatingPointError, ValueError, ZeroDivisionError,
              OverflowError)


def vec_errstate():
    """The floating-point error state of every vectorised evaluation that
    must fail where scalar evaluation fails: division by zero, overflow and
    invalid operations raise (``VEC_ERRORS``), and underflow is ignored,
    as Python floats round it to zero without an error."""
    import numpy as np
    return np.errstate(divide="raise", over="raise", invalid="raise",
                       under="ignore")


def _compile(exprs, variables, wrt=()):
    """The compiled scalar function of ``_straight_line(exprs, wrt)``, and
    the node computed on each line of its body; body line i is line i + 2
    of the ``<expr>`` source."""
    lines, results, nodes = _straight_line(exprs, wrt)
    src = "\n".join([f"def _f({variables[0]}, {variables[1]}):", *lines,
                     f"    return {', '.join(results)}"])
    ns = _scalar_namespace()
    exec(compile(src, "<expr>", "exec"), ns)
    return ns["_f"], nodes


def compile_value(*exprs: Expr, variables=("x", "y"), gradient=False):
    """Compile to a fast scalar callable f(x, y).

    f returns the value of the one expression, or a tuple with the value
    of each expression in order; with ``gradient``, each value is
    followed by its partial derivatives in the two variables, computed
    as the code of the ``diff`` trees would compute them.  The body is
    straight-line code in which each distinct subexpression of all the
    expressions is computed once.  Exceptions from math functions
    (ValueError, ZeroDivisionError, OverflowError) propagate raw;
    ``call_compiled`` converts them.
    """
    return _compile(exprs, variables, variables if gradient else ())[0]


def as_vector(f):
    """The compiled function ``f`` of ``compile_value`` as the one of
    ``compile_value_vec``: the same code, run on numpy arrays."""
    return types.FunctionType(f.__code__, _vector_namespace())


def compile_value_vec(*exprs: Expr, variables=("x", "y")):
    """Compile to a numpy-vectorized callable f(X, Y), returning what
    ``compile_value`` returns with arrays for floats.  A result that does
    not depend on the variables stays a scalar.  Each operation rounds as
    the scalar one does, except ``sin cos exp log atan2``, whose numpy
    versions can differ from math's in the last bit."""
    return as_vector(_compile(exprs, variables)[0])


def stack_vec(values, shape):
    """The outputs of a ``compile_value_vec`` function as one array of
    shape (outputs, *shape); an output that does not depend on the
    variables is broadcast."""
    import numpy as np
    out = np.empty((len(values), *shape))
    for row, t in zip(out, values):
        row[...] = t
    return out


def call_compiled(fn, x, y, what: str):
    """``fn(x, y)`` for a compiled function; a raw math error becomes a
    DomainError naming ``what`` and the point."""
    try:
        return fn(x, y)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise DomainError(f"{what} failed at ({x}, {y}): {e}") from None


def eval_expr(e: Expr, x: float, y: float, variables=("x", "y")) -> float:
    """Evaluate at (x, y) through the compiled code.

    A math error or an unbound variable raises DomainError naming the
    operation that failed first; a non-finite value names ``e``.
    """
    f, nodes = _compile([e], variables)
    x, y = float(x), float(y)
    try:
        v = f(x, y)
    except (ArithmeticError, ValueError, NameError) as err:
        tb = err.__traceback__
        while tb.tb_frame.f_code.co_filename != "<expr>":
            tb = tb.tb_next
        line = tb.tb_lineno - 2
        message = (f"unbound variable {err.name!r}"
                   if isinstance(err, NameError) else str(err))
        raise DomainError(message, nodes[line] if line < len(nodes)
                          else e) from None
    if not math.isfinite(v):
        raise DomainError("evaluation is not finite", e)
    return v
