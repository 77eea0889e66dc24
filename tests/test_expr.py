import gc
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from monoweb import expr as ex
from monoweb.cli import load_problem
from monoweb.expr import (
    DomainError, ParseError,
    compile_value, compile_value_vec, diff, eval_expr, parse, to_source,
)
from monoweb.fiber import ProjectiveSystem
from monoweb.geometry import curvature_line_bde

from sympy_reference import real_value, reference_gradient, to_sympy

PROBLEMS = pathlib.Path(__file__).parent.parent / "problems"


def test_parse_identity():
    e = parse("y")
    assert eval_expr(e, 3.7, -1.25) == -1.25


def test_parse_arithmetic():
    e = parse("x^2 - y^2")
    assert eval_expr(e, 2.0, 1.0) == 3.0


def test_parse_error_offset():
    with pytest.raises(ParseError) as exc:
        parse("x +* y")
    assert exc.value.offset == 3


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse("x + z")


def test_power_right_associative():
    assert eval_expr(parse("2^3^2"), 0, 0) == 512.0


def test_unary_minus_binds_below_power():
    assert eval_expr(parse("-x^2"), 3, 0) == -9.0


def test_pi_constant():
    assert eval_expr(parse("cos(pi)"), 0, 0) == pytest.approx(-1.0)


@pytest.mark.parametrize("src, offset", [
    ("1e999*x", 0), ("x + 1e400", 4), ("-" + "9" * 400, 1)])
def test_non_finite_literal_is_parse_error(src, offset):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert exc.value.offset == offset
    assert "out of range" in str(exc.value)


def test_depth_limit():
    assert to_source(parse("(" * 99 + "x" + ")" * 99)) == "x"
    assert eval_expr(parse("+".join(["x"] * ex.MAX_DEPTH)), 1, 0) == 100.0
    too_deep = ["(" * 100 + "x" + ")" * 100,
                "(" * 200 + "x" + ")" * 200,
                "sin(" * 200 + "x" + ")" * 200,
                "-" * 150 + "x",
                "x^" * 150 + "x",
                "+".join(["x"] * 3000),
                "+".join(["x"] * (ex.MAX_DEPTH + 1))]
    for src in too_deep:
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert "deeper than" in str(exc.value)


def _with_gradient(e):
    """The compiled value and both partial derivatives of ``e``."""
    return compile_value(e, diff(e, "x"), diff(e, "y"))


def test_eval_grad_product():
    assert _with_gradient(parse("x*y"))(3.0, 4.0) == (12.0, 4.0, 3.0)


def test_eval_grad_norm():
    v, dx, dy = _with_gradient(parse("sqrt(x^2+y^2)"))(3.0, 4.0)
    assert v == pytest.approx(5.0)
    assert dx == pytest.approx(0.6)
    assert dy == pytest.approx(0.8)


def test_eval_grad_matches_finite_differences():
    e = parse("sin(x)*exp(y)")
    x, y = 0.7, -0.3
    v, dx, dy = _with_gradient(e)(x, y)
    h = 1e-6
    fdx = (eval_expr(e, x + h, y) - eval_expr(e, x - h, y)) / (2 * h)
    fdy = (eval_expr(e, x, y + h) - eval_expr(e, x, y - h)) / (2 * h)
    assert abs(dx - fdx) <= 1e-6 * max(1.0, abs(dx))
    assert abs(dy - fdy) <= 1e-6 * max(1.0, abs(dy))


def test_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse("sqrt(x)"), -1.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse("log(x)"), 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse("1/x"), 0.0, 0.0)
    with pytest.raises(DomainError):
        eval_expr(parse("x^0.5"), -2.0, 0.0)


def test_negative_base_integer_power_ok():
    assert eval_expr(parse("x^3"), -2.0, 0.0) == -8.0
    # an exponent that is not a literal goes through the compiled _pow
    assert eval_expr(parse("x^(-2)"), -2.0, 0.0) == 0.25
    assert eval_expr(parse("x^-1"), -2.0, 0.0) == -0.5
    assert eval_expr(parse("x^(1+1)"), -3.0, 0.0) == 9.0
    assert eval_expr(parse("x^y"), -2.0, 3.0) == -8.0
    # the numpy code agrees point by point, also beside other exponents
    import numpy as np
    X, Y = np.array([-2.0, 4.0, -3.0]), np.array([2.0, 0.5, -1.0])
    for src in ("x^(-2)", "x^y"):
        e = parse(src)
        assert list(compile_value_vec(e)(X, Y)) == \
            [eval_expr(e, x, y) for x, y in zip(X, Y)]


def test_nondifferentiable_abs_at_kink():
    d = compile_value(diff(parse("abs(x)"), "x"))
    # the derivative at the kink uses sign(0) = 0
    assert d(0.0, 0.0) == 0.0
    # plain evaluation stays fine
    assert eval_expr(parse("abs(x)"), 0.0, 0.0) == 0.0
    # away from the kink the derivative is the sign
    assert d(-2.0, 0.0) == -1.0


def test_nondifferentiable_sqrt_at_zero():
    with pytest.raises(DomainError):
        eval_expr(diff(parse("sqrt(x^2)"), "x"), 0.0, 5.0)
    assert eval_expr(parse("sqrt(x^2)"), 0.0, 5.0) == 0.0


def test_abs_constant_subtree_does_not_trip():
    # the derivative of abs(0) folds to 0 and is never evaluated
    v, dx, dy = _with_gradient(parse("abs(0) + x"))(0.3, 0.0)
    assert (v, dx, dy) == (0.3, 1.0, 0.0)


def test_eval_expr_names_the_failing_subexpression():
    with pytest.raises(DomainError) as exc:
        eval_expr(parse("sqrt(x) + log(y)"), -1.0, 0.0)
    assert to_source(exc.value.subexpr) == "sqrt(x)"
    with pytest.raises(DomainError) as exc:
        eval_expr(parse("log(y) + sqrt(x)"), -1.0, 0.0)
    assert to_source(exc.value.subexpr) == "log(y)"
    assert "`log(y)`" in str(exc.value)
    with pytest.raises(DomainError) as exc:
        eval_expr(parse("2*x^0.5"), -1.0, 0.0)
    assert to_source(exc.value.subexpr) == "x^0.5"
    # a value that overflows without a math error names the whole
    with pytest.raises(DomainError) as exc:
        eval_expr(parse("x*x"), 1e200, 0.0)
    assert to_source(exc.value.subexpr) == "x*x"


def test_eval_expr_unbound_variable_is_domain_error():
    for src in ("u^2 + v", "u"):
        with pytest.raises(DomainError) as exc:
            eval_expr(parse(src, variables=("u", "v")), 1.0, 2.0)
        assert "unbound variable 'u'" in str(exc.value)


def test_diff_is_exact_on_polynomials():
    e = parse("x^3*y - 2*x*y^2 + 7")
    dx = diff(e, "x")
    dy = diff(e, "y")
    for (x, y) in [(0.5, -1.0), (2.0, 3.0), (-1.5, 0.25)]:
        assert eval_expr(dx, x, y) == pytest.approx(3 * x * x * y - 2 * y * y)
        assert eval_expr(dy, x, y) == pytest.approx(x ** 3 - 4 * x * y)


def _distinct_nodes(e):
    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            todo.extend(node.args if isinstance(node, ex.Call) else
                        [getattr(node, f) for f in node.__slots__
                         if isinstance(getattr(node, f), ex.Expr)])
    return len(seen)


def test_diff_shares_the_derivative_of_a_shared_node():
    # e = e*e sixteen times: a DAG of 17 nodes.  Differentiating each
    # occurrence separately gives a derivative with 2^16 distinct nodes.
    depth = 16
    e = parse("cos(x)")
    for _ in range(depth):
        e = ex.Mul(e, e)
    d = diff(e, "x")
    assert _distinct_nodes(d) <= 5 * depth
    x = 1e-3
    assert compile_value(d)(x, 0.0) == pytest.approx(
        -2 ** depth * math.cos(x) ** (2 ** depth - 1) * math.sin(x))


def test_diff_matches_eval_grad():
    # against sympy.diff of the printed source
    sources = ["sin(x)*cos(y)", "exp(x*y)", "sqrt(1+x^2+y^2)",
               "atan2(y, x)", "log(2+cos(x))/(1+y^2)", "x^2.5",
               "x^y", "abs(x - y)*y^(-2)"]
    for src in sources:
        e = parse(src)
        dxe, dye = diff(e, "x"), diff(e, "y")
        reference = reference_gradient(e)
        for (x, y) in [(0.7, 0.3), (1.2, -0.8), (2.0, 1.5)]:
            v, gx, gy = reference(x, y)
            assert eval_expr(dxe, x, y) == pytest.approx(gx, rel=1e-12, abs=1e-12)
            assert eval_expr(dye, x, y) == pytest.approx(gy, rel=1e-12, abs=1e-12)


# --- random expression generator -------------------------------------------

_FUNCS1 = ["sin", "cos", "exp", "sqrt", "log", "abs"]


def _random_expr(rng, depth):
    if depth == 0:
        r = rng.random()
        if r < 0.4:
            return ex.Var("x")
        if r < 0.8:
            return ex.Var("y")
        return ex.Num(round(rng.uniform(-3, 3), 3))
    r = rng.random()
    a = _random_expr(rng, depth - 1)
    if r < 0.18:
        return ex.Add(a, _random_expr(rng, depth - 1))
    if r < 0.36:
        return ex.Sub(a, _random_expr(rng, depth - 1))
    if r < 0.58:
        return ex.Mul(a, _random_expr(rng, depth - 1))
    if r < 0.66:
        return ex.Div(a, _random_expr(rng, depth - 1))
    if r < 0.74:
        # Neg(Num(k)) is how the parser reads a negative exponent
        return ex.Pow(a, rng.choice([
            ex.Num(2.0), ex.Num(3.0), ex.Num(-1.0), ex.Num(-2.0),
            ex.Neg(ex.Num(1.0)), ex.Neg(ex.Num(2.0))]))
    if r < 0.80:
        return ex.Neg(a)
    if r < 0.96:
        fn = rng.choice(_FUNCS1)
        if fn in ("sqrt", "log"):
            # keep the argument positive so random probes mostly stay in domain
            a = ex.Add(ex.Mul(a, a), ex.Num(rng.uniform(0.5, 2.0)))
        return ex.Call(fn, (a,))
    return ex.Call("atan2", (a, _random_expr(rng, depth - 1)))


def test_random_exprs_ad_matches_finite_differences():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(100):
        e = _random_expr(rng, rng.randint(1, 4))
        f = _with_gradient(e)
        hits = 0
        for _ in range(30):
            if hits >= 10:
                break
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            h = 1e-6
            try:
                v, dx, dy = f(x, y)
                vals = [f(x + s * h, y)[0] for s in (-1, 1)]
                valy = [f(x, y + s * h)[0] for s in (-1, 1)]
            except (ArithmeticError, ValueError, DomainError):
                continue
            if not all(math.isfinite(t) for t in (v, dx, dy, *vals, *valy)):
                continue
            # skip points where the FD stencil is itself badly conditioned
            scale = max(abs(v), abs(dx), abs(dy), 1.0)
            if scale > 1e6:
                continue
            fdx = (vals[1] - vals[0]) / (2 * h)
            fdy = (valy[1] - valy[0]) / (2 * h)
            tol = max(1e-6, 1e-6 * scale) * 10
            assert abs(dx - fdx) <= tol, to_source(e)
            assert abs(dy - fdy) <= tol, to_source(e)
            hits += 1
        if hits:
            checked += 1
    assert checked >= 80


def test_printer_round_trip():
    rng = random.Random(99)
    for _ in range(200):
        e = _random_expr(rng, rng.randint(1, 4))
        back = parse(to_source(e))
        for _ in range(5):
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            try:
                v1 = eval_expr(e, x, y)
            except DomainError:
                continue
            v2 = eval_expr(back, x, y)
            if math.isfinite(v1):
                assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)


def test_compiled_matches_interpreted():
    # against sympy at 30 digits: wherever the value is a finite real
    # number, the compiled code computes it and does not raise
    rng = random.Random(7)
    for _ in range(100):
        e = _random_expr(rng, rng.randint(1, 4))
        f, s = compile_value(e), to_sympy(e)
        for _ in range(5):
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            v = real_value(s, x, y)
            if v is None or abs(v) >= 1e300:
                continue
            assert f(x, y) == pytest.approx(v, rel=1e-12, abs=1e-12), \
                to_source(e)


def test_compiled_vectorized():
    import numpy as np

    e = parse("sin(x)*exp(y) + x^2")
    f = compile_value_vec(e)
    X = np.linspace(-1, 1, 7)
    Y = np.linspace(-2, 0, 7)
    out = f(X, Y)
    for xi, yi, oi in zip(X, Y, out):
        assert oi == pytest.approx(eval_expr(e, xi, yi))


def test_custom_variable_names():
    e = parse("u^2 + v", variables=("u", "v"))
    assert eval_expr(e, 3, 4, variables=("u", "v")) == 13.0
    with pytest.raises(ParseError):
        parse("x + 1", variables=("u", "v"))


def test_compiled_bundle_matches_single_expressions():
    sources = ["sin(x)*exp(y) + x^2", "sin(x)*exp(y) - y^(-2)",
               "atan2(y, x)", "7"]
    exprs = [parse(src) for src in sources]
    f = compile_value(*exprs)
    for x, y in [(0.7, 0.3), (-1.2, 0.8)]:
        assert f(x, y) == tuple(compile_value(e)(x, y) for e in exprs)


def test_compiled_bundle_first_failure_is_evaluation_order():
    f = compile_value(parse("sqrt(x)"), parse("1/y"))
    with pytest.raises(ValueError):
        f(-1.0, 0.0)
    g = compile_value(parse("1/y"), parse("sqrt(x)"))
    with pytest.raises(ZeroDivisionError):
        g(-1.0, 0.0)


def test_compiled_deep_expression():
    # the code generator has no recursion, so trees built programmatically
    # deeper than the parser accepts still compile
    e = ex.var("x")
    for _ in range(3000):
        e = ex.add(e, ex.var("x"))
    assert compile_value(e)(0.5, 0.0) == 1500.5


def test_compiled_vectorized_bundle():
    import numpy as np

    exprs = [parse("u*v", ("u", "v")), parse("2", ("u", "v"))]
    f = compile_value_vec(*exprs, variables=("u", "v"))
    U = np.linspace(-1, 1, 5)
    prod, const = f(U, U)
    assert np.array_equal(prod, U * U)
    assert const == 2.0


def test_constructors_intern_nodes():
    x, y = ex.var("x"), ex.var("y")
    assert ex.add(x, y) is ex.add(x, y)
    assert ex.mul(ex.add(x, y), x) is ex.mul(ex.add(x, y), x)
    assert ex.sub(x, y) is ex.sub(x, y)
    assert ex.div(x, y) is ex.div(x, y)
    assert ex.neg(x) is ex.neg(x)
    assert ex.call("atan2", x, y) is ex.call("atan2", x, y)
    # a literal child is keyed on its value, not on the Num object
    assert ex.mul(ex.num(2), x) is ex.mul(ex.num(2.0), x)
    assert ex.add(x, y) is not ex.add(y, x)
    assert ex.add(x, y) is not ex.sub(x, y)
    assert ex.add(x, y) is not ex.add(x, ex.var("y"))


def test_signed_zero_children_stay_distinct():
    x = ex.var("x")
    pos = ex.call("atan2", ex.num(0.0), x)
    neg = ex.call("atan2", ex.num(-0.0), x)
    assert pos is not neg
    assert compile_value(pos, neg)(-1.0, 0.0) == (math.pi, -math.pi)
    assert ex.div(x, ex.num(0.0)) is not ex.div(x, ex.num(-0.0))


def test_intern_table_keeps_no_dropped_tree_alive():
    gc.collect()
    before = len(ex._NODES)
    x = ex.var("x")
    tree = x
    for k in range(50):
        tree = ex.add(ex.mul(tree, ex.call("sin", x)), ex.num(k + 1))
    d = diff(tree, "x")
    assert len(ex._NODES) > before + 100
    del tree, d
    gc.collect()
    assert len(ex._NODES) == before


def _unshared(e):
    """``e`` rebuilt without interning: every occurrence of an interior
    subtree is a separate object."""
    if isinstance(e, (ex.Num, ex.Var)):
        return e
    if isinstance(e, ex.Call):
        return ex.Call(e.fn, tuple(_unshared(a) for a in e.args))
    return type(e)(*(_unshared(getattr(e, f)) for f in e.__slots__))


def test_straight_line_code_does_not_depend_on_sharing():
    e = parse("sin(x*y)^2/(1 + x^2) + atan2(y, x)*sqrt(1 + y^2)")
    exprs = [diff(e, "x"), diff(diff(e, "x"), "y"), diff(e, "y")]
    assert ex._straight_line(exprs)[:2] == ex._straight_line(
        [_unshared(d) for d in exprs])[:2]


# Trees of the operations whose vector code must round as the scalar code
# does: + - * /, negation, sqrt and integer powers, as literals (``**`` in
# scalar code) and as the parser's negative exponents (``_pow``).
_ROUNDED_TREES = st.recursive(
    st.one_of(st.sampled_from([ex.Var("x"), ex.Var("y")]),
              st.floats(-4, 4).map(ex.Num)),
    lambda t: st.one_of(
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div]), t, t),
        t.map(ex.Neg),
        t.map(lambda a: ex.Call("sqrt", (a,))),
        st.builds(ex.Pow, t, st.sampled_from(
            [ex.Num(float(k)) for k in range(-3, 6)]
            + [ex.Neg(ex.Num(1.0)), ex.Neg(ex.Num(2.0))]))),
    max_leaves=10)
# coordinates, among them bases with 27-bit significands, whose squares
# and cubes are where a squaring or vectorised pow differs from pow(); each
# example also runs on a fixed batch of them, where a few in a hundred do
_COORDS = st.one_of(st.floats(-8, 8),
                    st.integers(-2 ** 27, 2 ** 27).map(lambda i: i / 2 ** 24))
_BATCH = (np.random.default_rng(27).integers(-2 ** 27, 2 ** 27, (256, 2))
          / 2 ** 24).tolist()


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees=st.lists(_ROUNDED_TREES, min_size=1, max_size=3),
       points=st.lists(st.tuples(_COORDS, _COORDS), min_size=1,
                       max_size=6))
def test_vector_rows_equal_scalar_rows_bit_for_bit(trees, points):
    f = compile_value(*trees)
    g = compile_value_vec(*trees)
    points = points + _BATCH
    X, Y = np.array(points).T
    try:
        with ex.vec_errstate():
            g(X, Y)
        signalled = False
    except ex.VEC_ERRORS:
        signalled = True
    with np.errstate(all="ignore"):
        try:
            vals = g(X, Y) if len(trees) > 1 else (g(X, Y),)
            rows = ex.stack_vec(vals, X.shape).T
        except ex.VEC_ERRORS:
            rows = None   # a Python error of constant operands
    for k, (x, y) in enumerate(points):
        try:
            row = f(x, y)
        except (ValueError, ZeroDivisionError, OverflowError):
            # a scalar failure is always a floating-point event of the
            # vector call, which sends the batch to the scalar loop
            assert signalled
            continue
        row = row if len(trees) > 1 else (row,)
        assert rows is not None
        assert [float(v).hex() for v in row] == [
            float(v).hex() for v in rows[k]], (x, y, [to_source(t)
                                                      for t in trees])


def test_vector_integer_powers_call_pow():
    # numpy's ``b ** 2.0`` squares, and its ``b ** 3.0`` calls a
    # vectorised pow; Python's ``**`` calls pow() for both
    b = np.random.default_rng(5).integers(-2 ** 27, 2 ** 27, 4000) / 2 ** 20
    for src in ("x^2", "x^3", "x^(-2)", "x^5 - x^4"):
        e = parse(src)
        want = [compile_value(e)(v, 0.0) for v in b.tolist()]
        assert compile_value_vec(e)(b, 0.0).tolist() == want, src


def test_vec_errstate_ignores_underflow_only():
    g = compile_value_vec(parse("exp(-1000*x*x)"))
    X = np.array([0.0, 1.0, 2.0])
    with ex.vec_errstate():
        assert g(X, X).tolist() == [1.0, 0.0, 0.0]
    for src in ("1/x", "sqrt(x - 1)", "exp(1000*x)"):
        with pytest.raises(ex.VEC_ERRORS):
            with ex.vec_errstate():
                compile_value_vec(parse(src))(X, X)


# --- one body for scalar and vector code; forward-mode Jacobian lines -------


def diff_tree_lines(exprs, wrt=("x", "y")):
    """The lines and results of the code over each expression followed by
    its ``diff`` trees: what the forward-mode lines must equal."""
    return ex._straight_line([d for e in exprs
                              for d in (e, *(diff(e, w) for w in wrt))])[:2]


# Literals with the folds' special values (0, -0.0, 1, -1), ints as the
# punctured-plane discriminant builds them, and negative and non-integer
# ones; nodes built raw (as the parser does) and by the folding
# constructors, double negation, every function, powers with literal
# (0, 1, -1, non-integer) and non-literal exponents, and a node shared
# by identity.
_LITERALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5]),
    st.integers(-2, 3), st.floats(-4, 4)).map(ex.Num)
_JACOBIAN_TREES = st.recursive(
    st.one_of(st.sampled_from([ex.Var("x"), ex.Var("y")]), _LITERALS),
    lambda t: st.one_of(
        st.builds(lambda op, a, b: op(a, b),
                  st.sampled_from([ex.Add, ex.Sub, ex.Mul, ex.Div,
                                   ex.add, ex.sub, ex.mul, ex.div]), t, t),
        st.builds(lambda op, a: op(a),
                  st.sampled_from([ex.Neg, ex.neg,
                                   lambda a: ex.Neg(ex.Neg(a))]), t),
        st.builds(ex.Pow, t, st.one_of(_LITERALS, t)),
        st.builds(ex.call, st.sampled_from(
            sorted(set(ex.FUNCTION_ARITY) - {"atan2"})), t),
        st.builds(lambda a, b: ex.Call("atan2", (a, b)), t, t),
        t.map(lambda a: ex.Mul(a, a))),
    max_leaves=12)


@settings(derandomize=True, database=None, deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(trees=st.lists(_JACOBIAN_TREES, min_size=1, max_size=3))
def test_forward_jacobian_lines_equal_the_diff_tree_lines(trees):
    assert ex._straight_line(trees, ("x", "y"))[:2] == diff_tree_lines(trees)


# The derivative rules themselves, against an independent reference:
# sympy.diff of the printed source at 30 digits, on the same generated
# trees, wherever both derivatives are finite real numbers.
_GRADIENT_POINTS = [(0.7, 0.3), (1.3, -0.6), (-0.8, 1.9)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=_JACOBIAN_TREES)
def test_diff_of_generated_trees_matches_sympy(tree):
    grads = diff(tree, "x"), diff(tree, "y")
    try:
        reference = reference_gradient(tree)
    except (TypeError, ValueError):
        # sympy cannot read a constant such as atan2(0, atan2(0, 0))
        assume(False)
    for x, y in _GRADIENT_POINTS:
        for d, want in zip(grads, reference(x, y)[1:]):
            try:
                got = eval_expr(d, x, y)
            except DomainError:
                continue
            if want is not None:
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (
                    to_source(tree), to_source(d), x, y)


def test_jacobian_of_a_zeroth_power_evaluates_at_zero():
    # diff() folds the u^(-1) of d(u^0) away under its factor 0, so the
    # Jacobian code never computes it
    for src, want in (("x^0", (1.0, 0.0, 0.0)), ("(x*y)^0", (1.0, 0.0, 0.0)),
                      ("sin(x)^0 + y", (1.0, 0.0, 1.0))):
        assert compile_value(parse(src), gradient=True)(0.0, 0.0) == want


def test_scalar_and_vector_code_share_one_body():
    e = parse("x^2*y - sqrt(1 + y^4)")
    f = compile_value(e)
    g = ex.as_vector(f)
    assert g.__code__ is f.__code__
    X = np.array([0.5, -1.25, 3.0])
    assert g(X, X).tolist() == [f(v, v) for v in X.tolist()]


def test_compiled_functions_carry_their_vector_form():
    f = compile_value(parse("x*y"), parse("sin(x)"))
    g = compile_value(parse("exp(y)"), variables=("u", "y"))
    assert f.vector.__code__ is f.__code__
    # one namespace serves every vector form
    assert f.vector.__globals__ is g.vector.__globals__
    assert compile_value_vec(parse("x")).__globals__ is f.vector.__globals__


def _counted_eval_rows(monkeypatch, f):
    """Record the size of each vector call of ``f`` and of each batch of
    ``expr._scalar_rows``."""
    vector, scalar_rows = f.vector, ex._scalar_rows
    calls, batches = [], []

    def counted_vector(X, Y):
        calls.append(len(X))
        return vector(X, Y)

    def counted_scalar_rows(fn, points, what):
        batches.append(np.asarray(points, dtype=float).tolist())
        return scalar_rows(fn, points, what)

    monkeypatch.setattr(f, "vector", counted_vector)
    monkeypatch.setattr(ex, "_scalar_rows", counted_scalar_rows)
    return vector, calls, batches


def test_eval_rows_falls_back_point_by_point(monkeypatch):
    f = compile_value(parse("1/x"), parse("exp(y)"))
    vector, calls, batches = _counted_eval_rows(monkeypatch, f)
    good = [(0.5 + 0.25 * k, 0.1 * k) for k in range(8)]
    rows, errors = ex.eval_rows(f, good, "test evaluation")
    # one vector call when nothing fails
    assert calls == [8] and batches == [] and errors == [None] * 8
    want = np.array(vector(*np.array(good).T)).T.tolist()
    assert rows.tolist() == want
    # only the failing points go to the scalar code, and the others keep
    # the rows of one vector call of their own
    calls.clear()
    bad = [(1, 2), (0, 3), (2, math.inf)]
    rows, errors = ex.eval_rows(f, good + bad, "test evaluation")
    assert calls == [11, 11, 9] and batches == [[[0, 3], [2, math.inf]]]
    assert rows[:8].tolist() == want
    assert rows[8].tolist() == np.array(vector(1.0, 2.0)).tolist()
    assert np.isnan(rows[9:]).all()
    assert errors[:9] == [None] * 9
    # errors name the point as given: ints stay ints
    assert [str(e) for e in errors[9:]] == [
        "test evaluation failed at (0, 3): float division by zero",
        "test evaluation is not finite at (2, inf)"]


def test_eval_rows_scalar_work_on_a_half_failing_grid(monkeypatch):
    # sqrt(x) fails at every grid point with x < 0: the failing points are
    # found by one more vector call, and the others need one call of
    # their own
    f = compile_value(parse("sqrt(x)"), parse("y"))
    _, calls, batches = _counted_eval_rows(monkeypatch, f)
    t = np.linspace(-1.0, 1.0, 48)
    P = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
    rows, errors = ex.eval_rows(f, P, "test evaluation")
    failing = P[P[:, 0] < 0].tolist()
    assert len(calls) <= 4
    assert [p for batch in batches for p in batch] == failing
    assert [e is not None for e in errors] == (P[:, 0] < 0).tolist()


def test_eval_rows_of_one_expression_is_one_column():
    f = compile_value(parse("x*y"))
    rows, errors = ex.eval_rows(f, [(1, 2), (3, 4), (5, 6)], "w")
    assert rows.tolist() == [[2.0], [12.0], [30.0]]
    assert errors == [None] * 3
    rows, errors = ex.eval_rows(compile_value(parse("1")), [(1, 2), (3, 4)],
                                "w")
    assert rows.tolist() == [[1.0], [1.0]] and errors == [None, None]
    rows, errors = ex.eval_rows(compile_value(parse("1/x")),
                                [(0, 2), (4, 1)], "w")
    assert np.isnan(rows[0, 0]) and rows[1].tolist() == [0.25]
    assert [str(e) for e in errors[:1]] == [
        "w failed at (0, 2): float division by zero"]
    assert errors[1] is None


# exp, sin and log, whose numpy values can differ from math's in the last
# bit, beside a division by zero, the masked one of 1/(1/(y - 0.5)) (the
# vector value 1/inf = 0 is finite) and a raw error of a constant
_MIXED = [compile_value(parse("exp(x)*sin(y)"), parse("log(2 + y)"),
                        parse("1/x"), parse("1/(1/(y - 0.5))")),
          compile_value(parse("exp(3*x + y)"), parse("sin(7*x*y)")),
          compile_value(parse("x + 1/(1 - 1)"))]
_mixed_coordinate = st.one_of(
    st.floats(-2.0, 2.0), st.sampled_from([0, 0.0, 0.5, math.inf, math.nan]))


def _hex_rows(rows, errors):
    return [([float(v).hex() for v in row], None if e is None else str(e))
            for row, e in zip(rows.tolist(), errors)]


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.sampled_from(range(len(_MIXED))),
       points=st.lists(st.tuples(_mixed_coordinate, _mixed_coordinate),
                       max_size=12),
       as_array=st.booleans())
def test_eval_rows_gives_each_point_its_rows_alone(k, points, as_array):
    f = _MIXED[k]
    if as_array:
        points = np.array(points, dtype=float).reshape(-1, 2)
    alone = [row for p in (points.tolist() if as_array else points)
             for row in _hex_rows(*ex.eval_rows(f, [p], "w"))]
    assert _hex_rows(*ex.eval_rows(f, points, "w")) == alone


@pytest.mark.parametrize("base, expo", [
    (0.0, -1.0), (0, -1.0), (1e200, 2.0), (-3, 3.0), (3, 2), (2.5, 0.0),
    (-0.0, 3.0)])
def test_scalar_integer_powers_are_pythons_pow(base, expo):
    f = compile_value(ex.Pow(ex.Var("x"), ex.Num(expo)))
    assert "_ipow" in f.__code__.co_names

    def outcome(fn):
        try:
            v = ex.call_compiled(fn, base, 0.0, "power")
        except DomainError as e:
            return str(e)
        return type(v), repr(v)

    assert outcome(f) == outcome(lambda x, y: x ** expo)


def _shipped_systems():
    """Every fiber system of the shipped problems: each plane system, and
    the system of each patch's form (the curvature-line form of each
    ellipsoid face)."""
    for path in sorted(PROBLEMS.glob("*.json")):
        prob = load_problem(str(path))
        if prob.system is not None:
            yield path.name, prob.system
            continue
        forms = ([curvature_line_bde(wp.patch) for wp in prob.surface]
                 if prob.bde_source == "curvature_lines" else prob.bde_source)
        for wp, form in zip(prob.surface, forms):
            yield path.name, ProjectiveSystem(wp.patch.domain, form=form)


def test_forward_jacobian_lines_on_shipped_problems():
    names = []
    for name, system in _shipped_systems():
        comps, wrt = system.components, system.variables
        assert ex._straight_line(comps, wrt)[:2] == diff_tree_lines(
            comps, wrt), name
        names.append(name)
    assert names.count("ellipsoid_321.json") == 6
    assert len(set(names)) == len(list(PROBLEMS.glob("*.json")))


# --- the printer keeps every literal; Jacobians from given input tangents --


def test_to_source_prints_a_negative_zero():
    e = ex.call("atan2", ex.Num(-0.0), ex.Var("x"))
    assert to_source(e) == "atan2(-0, x)"
    assert eval_expr(parse(to_source(e)), -1.0, 0.0) == -math.pi
    assert to_source(ex.Mul(ex.Var("x"), ex.Num(-0.0))) == "x*(-0)"
    assert to_source(ex.Num(0.0)) == "0"


def test_to_source_prints_non_finite_literals():
    # folding can make them; an error message that prints one must not
    # raise in turn
    x = ex.Var("x")
    assert to_source(ex.Mul(ex.Num(math.inf), x)) == "inf*x"
    assert to_source(ex.Mul(x, ex.Num(-math.inf))) == "x*(-inf)"
    assert to_source(ex.Add(x, ex.Num(math.nan))) == "x + nan"
    assert "in `inf*x`" in str(DomainError("failed", ex.Mul(ex.Num(math.inf),
                                                           x)))


def _floats(e):
    """``e`` with each literal a float, as the parser reads it."""
    if isinstance(e, ex.Num):
        return ex.Num(float(e.value))
    if isinstance(e, ex.Var):
        return e
    if isinstance(e, ex.Call):
        return ex.Call(e.fn, tuple(_floats(a) for a in e.args))
    return type(e)(*(_floats(getattr(e, f)) for f in e.__slots__))


def _outcome(e, x, y):
    try:
        return float(eval_expr(e, x, y)).hex()
    except DomainError:
        return "DomainError"


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(tree=_JACOBIAN_TREES)
def test_printed_trees_evaluate_bit_for_bit(tree):
    back = parse(to_source(tree))
    for x, y in [(-1.0, 0.5), (0.7, -0.3), (-0.0, -2.0), (1.5, 0.0)]:
        assert _outcome(back, x, y) == _outcome(_floats(tree), x, y), (
            to_source(tree), x, y)


def _substitute(e, nodes, memo=None):
    """``e`` with each variable named in ``nodes`` replaced by its node,
    rebuilt without folding."""
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)]
    if isinstance(e, ex.Num):
        out = e
    elif isinstance(e, ex.Var):
        out = nodes.get(e.name, e)
    elif isinstance(e, ex.Call):
        out = ex.Call(e.fn, tuple(_substitute(a, nodes, memo)
                                  for a in e.args))
    else:
        out = type(e)(*(_substitute(getattr(e, f), nodes, memo)
                        for f in e.__slots__))
    memo[id(e)] = out
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(outer=_JACOBIAN_TREES, inner=st.tuples(_JACOBIAN_TREES,
                                              _JACOBIAN_TREES))
def test_jacobian_from_given_tangents_is_the_chain_rule(outer, inner):
    # outer(g(x, y), h(x, y)) two ways: its Jacobian compiled whole, and
    # the Jacobian of outer over (a, b), started from the tangents of g
    # and h that the inner code returns.  An inner result that is a
    # literal is substituted into outer, as its folds would see it whole.
    outer, inner = _floats(outer), tuple(map(_floats, inner))
    whole = compile_value(_substitute(outer, dict(zip("xy", inner))),
                          gradient=True)
    jets = compile_value(*inner, gradient=True)
    args, du, dv = [], {}, {}
    for name, (lit, lit_u, lit_v) in zip("ab", (jets.literals[:3],
                                                 jets.literals[3:])):
        args.append(ex.Var(name) if lit is None else lit)
        if lit is None:
            du[name] = ex.Var(name + "_u") if lit_u is None else lit_u
            dv[name] = ex.Var(name + "_v") if lit_v is None else lit_v
    composed = compile_value(
        _substitute(outer, dict(zip("xy", args))),
        variables=("a", "a_u", "a_v", "b", "b_u", "b_v"), gradient=(du, dv))
    for x, y in [(0.7, 0.3), (-1.3, 0.6), (0.0, -0.5), (-0.0, 0.0)]:
        try:
            got = composed(*jets(x, y))
        except (ArithmeticError, ValueError):
            # the inner code computes every tangent, also one that the
            # whole Jacobian folds away
            continue
        assert [float(v).hex() for v in whole(x, y)] == [
            float(v).hex() for v in got], (to_source(outer), x, y)


def test_compiled_functions_take_any_number_of_variables():
    e = parse("a*b - c/d + e", ("a", "b", "c", "d", "e"))
    f = compile_value(e, e * e, variables=("a", "b", "c", "d", "e"))
    assert f(1.0, 2.0, 3.0, 4.0, 5.0) == (6.25, 6.25 * 6.25)
    assert f.literals == (None, None)
    g = compile_value(ex.Num(2.0), parse("x"), gradient=True)
    assert g(3.0, 4.0) == (2.0, 0.0, 0.0, 3.0, 1.0, 0.0)
    assert [n if n is None else n.value for n in g.literals] == [
        2.0, 0.0, 0.0, None, 1.0, 0.0]
