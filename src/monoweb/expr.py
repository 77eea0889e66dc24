"""Scalar expressions with exact first derivatives.

Expressions are immutable ASTs over named variables (``x``/``y`` by
default, ``u``/``v`` for surface patches; compiled code takes any number
of them), numeric literals, the operators ``+ - * / ^`` (``^``
right-associative), unary minus, and the functions
``sqrt, sin, cos, exp, log, atan2, abs`` plus the internal helper ``sign``
(emitted by differentiation of ``abs``).  ``pi`` is a predefined constant.

Expressions are evaluated only through compiled straight-line code
(:func:`compile_value`, :func:`compile_value_vec`; :func:`eval_expr` is a
checked one-off call of it).  One compiled body serves scalar and numpy
evaluation: a compiled function ``f`` carries its numpy form as
``f.vector``, and :func:`eval_rows` is the one path that evaluates it at
many points, by one numpy call or, at a point where that fails, by the
scalar code, so each point's values are those it has alone.  First
derivatives come from one set of folds and derivative rules over two
kinds of node: :func:`diff` returns a derivative as a new expression,
and ``compile_value(..., gradient=True)`` emits the lines of first
derivatives by forward mode, the same lines that compiling the
:func:`diff` trees gives, without building those trees.
Forward mode may also start from given tangents of the variables, so
the Jacobian of a composition is the outer code's forward mode applied
to the inner code's values and tangents.
"""

from __future__ import annotations

import math
import operator
import types
import weakref
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "ExprError", "ParseError", "DomainError",
    "parse", "to_source", "eval_expr", "diff",
    "compile_value", "compile_value_vec", "as_vector", "call_compiled",
    "stack_vec", "vec_errstate", "VEC_ERRORS", "eval_rows",
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


# ---------------------------------------------------------------------------
# Folds and derivative rules
#
# One set of rules serves derivative trees (diff) and the Jacobian lines of
# compiled code (forward mode).  _Rules folds + - * / and negation and holds
# the derivative rule of every node type, over operands that are nodes (a
# literal is a Num).  Its subclasses differ only in the nodes that make()
# builds: _Trees interns Expr nodes, and its folds are the constructors
# add/sub/neg/mul/div that diff() and programmatic assembly use (parse()
# builds nodes directly); _Terms makes the tangent terms of Jacobian code.
#
# make() returns one node per structure: building the same operation on
# the same operands again returns the node built before, so an expression
# that diff() rebuilds many times is one shared object.  The key is the
# kind of node plus each operand's id(), or for a literal the repr() of
# its value, which is also the text the code generator emits (so 0.0 and
# -0.0 stay apart).  Keying on an Expr itself would call the dataclass
# __hash__, which recurses through the whole subtree; a _Term is its own
# key, hashed by identity.  A node keeps its operands alive while it is in
# the table, so their ids are not reused.  The table of Expr nodes holds
# them weakly, so it keeps no tree alive.
_NODES = weakref.WeakValueDictionary()
_ZERO, _ONE, _TWO = Num(0.0), Num(1.0), Num(2.0)   # literals the rules build


class _Rules:
    """Folds and derivative rules over the nodes that ``new(kind, ops)``
    makes, kept in the table ``nodes``.  A kind is a node class, or the
    name of a function."""

    def make(self, kind, *ops):
        """The node of the operation ``kind`` on ``ops``, without folding."""
        a = ops[0]
        key = (kind, repr(a.value) if type(a) is Num else
               a if type(a) is _Term else id(a))
        if len(ops) == 2:
            b = ops[1]
            key = (*key, repr(b.value) if type(b) is Num else
                   b if type(b) is _Term else id(b))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = self.new(kind, ops)
        return node

    def add(self, a, b):
        if type(a) is Num and a.value == 0.0:
            return b
        if type(b) is Num:
            if b.value == 0.0:
                return a
            if type(a) is Num:
                return Num(a.value + b.value)
        return self.make(Add, a, b)

    def sub(self, a, b):
        if type(b) is Num:
            if b.value == 0.0:
                return a
            if type(a) is Num:
                return Num(a.value - b.value)
        if type(a) is Num and a.value == 0.0:
            return self.neg(b)
        return self.make(Sub, a, b)

    def neg(self, a):
        if type(a) is Num:
            return Num(-a.value)
        if type(a) is Neg:
            return a.a
        if type(a) is _Term and a.kind is Neg:
            return a.ops[0]
        return self.make(Neg, a)

    def mul(self, a, b):
        if type(a) is Num:
            if a.value == 0.0:
                return _ZERO
            if a.value == 1.0:
                return b
            if a.value == -1.0:
                return self.neg(b)
            if type(b) is Num:
                return Num(a.value * b.value)
        if type(b) is Num:
            if b.value == 0.0:
                return _ZERO
            if b.value == 1.0:
                return a
            if b.value == -1.0:
                return self.neg(a)
        return self.make(Mul, a, b)

    def div(self, a, b):
        if type(a) is Num and a.value == 0.0:
            return _ZERO
        if type(b) is Num and b.value == 1.0:
            return a
        return self.make(Div, a, b)

    def tangent(self, e: Expr, memo: dict):
        """The derivative of ``e`` along one direction.  ``memo`` starts
        with the tangent of each variable that moves, by name (a variable
        not in it is constant), and maps id(node) to the derivative built
        for the node before."""
        d = memo.get(id(e))
        if d is not None:
            return d
        t = type(e)
        if t is Num:
            d = _ZERO
        elif t is Var:
            d = memo.get(e.name, _ZERO)
        elif t is Neg:
            d = self.neg(self.tangent(e.a, memo))
        elif t is Call:
            d = self._call_rule(e, [self.tangent(a, memo) for a in e.args])
        elif t is Pow:
            base, expo = e.base, e.exponent
            db = self.tangent(base, memo)
            de = self.tangent(expo, memo)
            if type(de) is Num and de.value == 0.0:
                # c * u^(c-1) * u'
                d = self.mul(self.mul(expo, self.make(
                    Pow, base, self.sub(expo, _ONE))), db)
            else:
                # u^v * (v' log u + v u'/u)
                d = self.mul(e, self.add(
                    self.mul(de, self.make("log", base)),
                    self.mul(expo, self.div(db, base))))
        elif t in (Add, Sub, Mul, Div):
            a, b = e.a, e.b
            da, db = self.tangent(a, memo), self.tangent(b, memo)
            if t is Add:
                d = self.add(da, db)
            elif t is Sub:
                d = self.sub(da, db)
            elif t is Mul:
                d = self.add(self.mul(da, b), self.mul(a, db))
            elif type(db) is Num and db.value == 0.0:
                d = self.div(da, b)
            else:
                # (a/b)' = a'/b - a b'/b^2
                d = self.div(self.sub(self.mul(da, b), self.mul(a, db)),
                             self.make(Pow, b, _TWO))
        else:
            raise TypeError(f"not an Expr: {e!r}")
        memo[id(e)] = d
        return d

    def _call_rule(self, e: Call, ds):
        fn = e.fn
        if fn == "atan2":
            (a, b), (da, db) = e.args, ds  # (b a' - a b') / (a^2 + b^2)
            return self.div(self.sub(self.mul(b, da), self.mul(a, db)),
                            self.add(self.make(Pow, a, _TWO),
                                     self.make(Pow, b, _TWO)))
        (u,), (du,) = e.args, ds
        if type(du) is Num and du.value == 0.0 or fn == "sign":
            return _ZERO
        if fn == "sqrt":
            return self.div(du, self.mul(_TWO, self.make("sqrt", u)))
        if fn == "sin":
            return self.mul(self.make("cos", u), du)
        if fn == "cos":
            return self.neg(self.mul(self.make("sin", u), du))
        if fn == "exp":
            return self.mul(self.make("exp", u), du)
        if fn == "log":
            return self.div(du, u)
        if fn == "abs":
            return self.mul(self.make("sign", u), du)
        raise TypeError(f"unknown function {fn!r}")


class _Trees(_Rules):
    """The rules over interned Expr nodes."""

    nodes = _NODES

    @staticmethod
    def new(kind, ops):
        return Call(kind, ops) if type(kind) is str else kind(*ops)


_TREES = _Trees()
add, sub, neg, mul, div = (_TREES.add, _TREES.sub, _TREES.neg, _TREES.mul,
                           _TREES.div)


def num(v) -> Num:
    return Num(float(v))


def var(name: str) -> Var:
    return Var(name)


def call(fn: str, *args: Expr) -> Expr:
    if fn not in FUNCTION_ARITY:
        raise ValueError(f"unknown function {fn!r}")
    if len(args) != FUNCTION_ARITY[fn]:
        raise ValueError(f"{fn} takes {FUNCTION_ARITY[fn]} argument(s)")
    return _TREES.make(fn, *args)


def diff(e: Expr, wrt: str, memo=None) -> Expr:
    """Derivative of ``e`` with respect to the variable named ``wrt``.

    The result is again an Expr.  At kinks of abs the derivative uses the
    internal ``sign`` function; sqrt/log derivatives raise DomainError when
    later evaluated at their singular locus.  A node that occurs several
    times (shared by identity) is differentiated once, and all its
    occurrences share the derivative: within one call, and across calls
    with the same ``wrt`` that pass one ``memo`` dict.
    """
    memo = {} if memo is None else memo
    memo[wrt] = _ONE
    return _TREES.tangent(e, memo)


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
    """A literal's text: an integer value without a fraction, -0.0 as
    ``-0``; a non-finite value (which only folding makes) as ``inf``,
    ``-inf`` or ``nan``, which do not parse."""
    if math.isfinite(v) and v == int(v) and abs(v) < 1e16:
        return "-0" if v == 0 and math.copysign(1.0, v) < 0 else str(int(v))
    return repr(v)


def _print(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        s = _fmt_num(e.value)
        if s.startswith("-") and parent_prec > _PREC["add"]:
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
    """Canonical text form; ``parse(to_source(e))`` evaluates like ``e``
    with its literals read as floats, bit for bit, -0.0 included."""
    return _print(e, 0)


# ---------------------------------------------------------------------------
# Compilation to fast callables


_FORMAT = {Neg: "-{}", Add: "{}+{}", Sub: "{}-{}", Mul: "{}*{}",
           Div: "{}/{}"}


def _format(kind, ops) -> str:
    """The right-hand side of the operation ``kind`` (a node class, or a
    function's name) on the nodes ``ops``, as a format of their texts.  A
    power is ``_ipow`` for an integer literal exponent, else ``_pow``."""
    if type(kind) is str:
        return kind + ("({})" if len(ops) == 1 else "({}, {})")
    if kind is Pow:
        c = ops[1]
        if type(c) is Num and c.value == round(c.value):
            return "_ipow({}, {})"
        return "_pow({}, {})"
    return _FORMAT[kind]


def _literal(v) -> str:
    s = repr(v)
    return f"({s})" if s.startswith("-") else s


# Forward-mode derivatives for the Jacobian code.  The rules that build a
# diff() tree build a tangent, from nodes of a second kind: a tangent is a
# Num, a value node (a subtree of the differentiated expression), or a
# _Term, the operation of one line, standing for the diff() node of the
# same structure and emitted as the same text.  A term costs no line until
# the emitter reaches it from a result: one that a later fold drops (the
# u^(-1) of d(u^0)) is never computed, as in the code of the diff() trees.


class _Term:
    """An operation in a tangent: its kind and operands, and once its line
    is emitted the temporary that holds it."""

    __slots__ = ("kind", "ops", "name")

    def __init__(self, kind, ops):
        self.kind, self.ops, self.name = kind, ops, None


class _Terms(_Rules):
    """The rules over the tangent terms of one bundle of code."""

    new = _Term

    def __init__(self):
        self.nodes = {}


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
                kind = e.fn if type(e) is Call else type(e)
                text[id(e)] = self._assign(_format(kind, ops).format(
                    *[text[id(a)] for a in ops]), e)
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
        if type(root) is Num:
            return _literal(root.value)
        if type(root) is not _Term:
            return self.text[id(root)]
        text, todo = self.text, [(root, False)]
        while todo:
            t, ready = todo.pop()
            if ready:
                t.name = self._assign(_format(t.kind, t.ops).format(*[
                    a.name if type(a) is _Term
                    else _literal(a.value) if type(a) is Num else text[id(a)]
                    for a in t.ops]), None)
            elif t.name is None:
                todo.append((t, True))
                todo.extend([(a, False) for a in reversed(t.ops)
                             if type(a) is _Term and a.name is None])
        return root.name


def _straight_line(exprs, wrt=()):
    """Assignment lines computing ``exprs``, each followed by its
    derivatives along the directions ``wrt``; the name or literal that
    holds each result, the node each line computes (None for a derivative
    line), and each result that is a literal (a Num, else None).  A
    direction is the name of a variable, for the partial derivative in
    it, or a map from the names of the variables that move to their
    tangents (a Num, or the Var of a parameter).  The lines are those of
    the same code over the expressions and their ``diff`` trees."""
    code, terms, results, outs = _Lines(), _Terms(), [], []
    # one memo per direction, for all the expressions
    memos = [{w: _ONE} if type(w) is str else dict(w) for w in wrt]
    code.text.update((id(t), t.name) for memo in memos
                     for t in memo.values() if type(t) is Var)
    for e in exprs:
        results.append(code.value(e))
        outs.append(e)
        for memo in memos:
            t = terms.tangent(e, memo)
            results.append(code.term(t))
            outs.append(t)
    return (code.lines, results, code.nodes,
            tuple(t if type(t) is Num else None for t in outs))


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


def _vector_pow(b, c):
    # each branch sees harmless operands where the other one is taken
    whole = c == np.round(c)
    return np.where(whole, np.float_power(b, np.where(whole, c, 0.0)),
                    np.exp(c * np.log(np.where(whole, 1.0, b))))[()]


# The one namespace of every vector form.
_VECTOR_NAMESPACE = {
    "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
    "exp": np.exp, "log": np.log, "abs": np.abs, "sign": np.sign,
    "atan2": np.arctan2, "_pow": _vector_pow, "_ipow": np.float_power,
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
    return np.errstate(divide="raise", over="raise", invalid="raise",
                       under="ignore")


def _compile(exprs, variables, wrt=()):
    """The compiled scalar function of ``_straight_line(exprs, wrt)``,
    whose ``literals`` attribute holds the result that is a literal at
    each position (a Num, else None) and whose ``vector`` attribute is its
    vector form (``as_vector``), and the node computed on each line of its
    body; body line i is line i + 2 of the ``<expr>`` source."""
    lines, results, nodes, literals = _straight_line(exprs, wrt)
    src = "\n".join([f"def _f({', '.join(variables)}):", *lines,
                     f"    return {', '.join(results)}"])
    ns = _scalar_namespace()
    exec(compile(src, "<expr>", "exec"), ns)
    fn = ns["_f"]
    fn.literals = literals
    fn.vector = as_vector(fn)
    return fn, nodes


def compile_value(*exprs: Expr, variables=("x", "y"), gradient=False):
    """Compile to a fast scalar callable f(x, y), or with other
    ``variables`` a function of them in that order.

    f returns the value of the one expression, or a tuple with the value
    of each expression in order.  With ``gradient``, each value is
    followed by its derivatives, computed as the code of the ``diff``
    trees would compute them: with ``True`` its partial derivatives in
    the variables, else along each direction of the sequence
    ``gradient``.  A direction maps the name of each variable that moves
    to its tangent, a Num or the Var of one of the ``variables`` (a
    parameter), and other variables are constant: forward mode started
    from the given tangents of the inputs, the chain rule of a
    composition.  ``f.literals`` holds the result that is a literal at
    each position (a Num, else None), and ``f.vector`` is the same code
    run on numpy arrays, as ``compile_value_vec`` returns it.  The body is
    straight-line code in which each distinct subexpression of all the
    expressions is computed once.  Exceptions from math functions
    (ValueError, ZeroDivisionError, OverflowError) propagate raw;
    ``call_compiled`` and ``eval_rows`` convert them.
    """
    wrt = variables if gradient is True else gradient or ()
    return _compile(exprs, variables, wrt)[0]


def as_vector(f):
    """The compiled function ``f`` of ``compile_value`` as the one of
    ``compile_value_vec``: the same code, run on numpy arrays."""
    return types.FunctionType(f.__code__, _VECTOR_NAMESPACE)


def compile_value_vec(*exprs: Expr, variables=("x", "y")):
    """Compile to a numpy-vectorized callable f(X, Y), returning what
    ``compile_value`` returns with arrays for floats.  A result that does
    not depend on the variables stays a scalar.  Each operation rounds as
    the scalar one does, except ``sin cos exp log atan2``, whose numpy
    versions can differ from math's in the last bit."""
    return _compile(exprs, variables)[0].vector


def stack_vec(values, shape):
    """The outputs of a ``compile_value_vec`` function as one array of
    shape (outputs, *shape); an output that does not depend on the
    variables is broadcast."""
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


def _vector_rows(fn, P):
    """The rows of ``fn.vector`` at the (k, 2) points P from one call,
    shape (k, outputs); a function of one expression gives one column.
    Raises what the call raises."""
    values = fn.vector(P[:, 0], P[:, 1])
    if len(fn.literals) == 1:
        values = (values,)
    return stack_vec(values, (len(P),)).T


def _scalar_rows(fn, points, what):
    """``fn`` at each (x, y) of ``points`` by ``call_compiled``: the rows,
    NaN where a point fails, and for each point None or its DomainError,
    which names ``what`` and the point as given.  A non-finite row
    fails."""
    if isinstance(points, np.ndarray):
        points = points.tolist()   # a float64 would not raise as a float
    A = np.full((len(points), len(fn.literals)), math.nan)
    errors = [None] * len(points)
    for k, (x, y) in enumerate(points):
        try:
            A[k] = call_compiled(fn, x, y, what)
        except DomainError as e:
            errors[k] = e
    for k in np.flatnonzero(~np.isfinite(A).all(axis=1)).tolist():
        if errors[k] is None:
            x, y = points[k]
            errors[k] = DomainError(f"{what} is not finite at ({x}, {y})")
            A[k] = math.nan
    return A, errors


def eval_rows(fn, points, what):
    """The compiled function ``fn`` at each (x, y) of ``points``, a (k, 2)
    array or a sequence of pairs: a (k, outputs) array of its values, and
    for each point None or the DomainError of its evaluation, which names
    ``what`` and the point as given.  The row of a failed point is NaN.

    Each row and each error is the one the point gets when it is
    evaluated alone: by one call of ``fn.vector``, or where that call
    signals a floating-point event (``vec_errstate``) or gives a value
    that is not finite, by ``fn`` (``_scalar_rows``), which names the
    failing point.  All the points share one vector call.  Where it
    fails, a point whose row is not finite with the events ignored fails
    alone too and goes to ``_scalar_rows``, and the others are evaluated
    again; where no row is, an event left no trace in the values (as in
    ``1/(1/0)``), and each half of the points is evaluated again."""
    P = np.asarray(points, dtype=float).reshape(-1, 2)
    try:
        with vec_errstate():
            A = _vector_rows(fn, P)
        if np.isfinite(A).all():
            return A, [None] * len(P)
    except VEC_ERRORS:
        pass
    if len(P) == 1:
        return _scalar_rows(fn, points, what)
    try:
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(_vector_rows(fn, P)).all(axis=1)
    except VEC_ERRORS:   # a raw error of a constant subexpression
        bad = np.ones(len(P), dtype=bool)
    if bad.any():
        parts = [(np.flatnonzero(bad), _scalar_rows),
                 (np.flatnonzero(~bad), eval_rows)]
    else:
        parts = [(half, eval_rows)
                 for half in np.array_split(np.arange(len(P)), 2)]
    A = np.empty((len(P), len(fn.literals)))
    errors = [None] * len(P)
    for idx, rows_of in parts:
        if not len(idx):
            continue
        part = (points[idx] if isinstance(points, np.ndarray)
                else [points[k] for k in idx.tolist()])
        A[idx], part_errors = rows_of(fn, part, what)
        for k, e in zip(idx.tolist(), part_errors):
            errors[k] = e
    return A, errors


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
