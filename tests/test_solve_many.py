"""``ProjectiveSystem.solve_many`` against per-point ``solve``: the same
root floats bit for bit, and None exactly where ``solve`` raises."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb import fiber
from monoweb.expr import DomainError
from monoweb.fiber import (BinaryForm, FiberError, ProjectiveSystem, Rect,
                           _projective_roots, _projective_roots_many,
                           min_root_separation)

SQ = Rect(-2.0, 2.0, -2.0, 2.0)
GRID = [(x, y) for x in np.linspace(-2, 2, 9).tolist()
        for y in np.linspace(-2, 2, 9).tolist()]
FIXED = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _bits(roots):
    """Roots as exact bit patterns (so 0.0 and -0.0 differ)."""
    if roots is None:
        return None
    return tuple((type(r.phi).__name__, r.phi.hex()) for r in roots)


def _solve_or_none(sys, x, y, tol, floor):
    try:
        return sys.solve(x, y, tol, floor)
    except (FiberError, DomainError):
        return None


def _assert_matches_solve(sys, points, tol=1e-10, floor=1e-6):
    batched = sys.solve_many(points, singular_tol=tol, sep_floor=floor)
    scalar = [_solve_or_none(sys, x, y, tol, floor) for x, y in points]
    assert [_bits(r) for r in batched] == [_bits(r) for r in scalar]
    return batched


# --- coefficient rows -------------------------------------------------------

def _product(factors):
    """Coefficients of the product of linear forms u dx + v dy."""
    out = np.array([1.0])
    for f in factors:
        out = np.convolve(out, f)
    return out


coefficient = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0),
    st.floats(-1e-12, 1e-12), st.sampled_from([1e-13, -3e-14, 1.0]))
random_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(coefficient, min_size=n + 1,
                                max_size=n + 1), min_size=1, max_size=30))


@st.composite
def factored_rows(draw):
    """Forms with known real roots, some closer than the separation
    floor, some times a definite quadratic factor (complex roots)."""
    n = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        theta = draw(st.lists(st.floats(0.0, math.pi), min_size=n,
                              max_size=n))
        if n > 1 and draw(st.booleans()):
            theta[1] = theta[0] + 10.0 ** -draw(st.integers(3, 13))
        factors = [(math.sin(t), -math.cos(t)) for t in theta]
        if n > 2 and draw(st.booleans()):
            factors[-2:] = [(1.0, 0.0, draw(st.floats(0.5, 2.0)))]
        rows.append(draw(st.floats(0.1, 10.0)) * _product(factors))
    return rows


@FIXED
@given(st.one_of(random_rows, factored_rows()),
       st.sampled_from([1e-10, 1e-30]), st.sampled_from([1e-6, 1e-12]))
def test_batched_rows_are_none_or_the_scalar_roots(rows, tol, floor):
    got = _projective_roots_many(np.array(rows, dtype=float), tol, floor)
    for row, roots in zip(rows, got):
        if roots is None:
            continue   # solve_many asks solve for this row
        assert _bits(roots) == _bits(_projective_roots(tuple(row), tol,
                                                       floor))


def test_generic_rows_take_the_batched_path():
    # xy = 0 (a root at infinity in either chart, a zero root) and a
    # plain quadratic: none of them needs the scalar solve
    rows = [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [1.0, -3.0, 2.0]]
    for row in rows:
        [roots] = _projective_roots_many(np.array([row]), 1e-10, 1e-6)
        assert _bits(roots) == _bits(_projective_roots(tuple(row), 1e-10,
                                                       1e-6))


# --- systems ----------------------------------------------------------------

linear = st.tuples(*[st.integers(-3, 3)] * 3).map(
    lambda c: f"{c[0]} + {c[1]}*x + {c[2]}*y")
coefficient_src = st.one_of(st.just("0"), linear, st.just("1/x"),
                            st.just("x*y"))


@FIXED
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(coefficient_src, min_size=n + 1, max_size=n + 1)))
def test_solve_many_matches_solve(sources):
    # zero first/last coefficients, all-zero points (the origin when
    # every constant term is 0), complex-root regions, 1/x failing on x = 0
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(sources))
    _assert_matches_solve(sys, GRID)


@settings(FIXED, max_examples=40)
@given(st.integers(2, 4), st.integers(5, 13), st.integers(-3, 3))
def test_solve_many_near_double_roots(n, e, c):
    # two factors differ by 10^-e * x, so their roots nearly coincide
    u = [f"({c} + {k}*y)" for k in range(n)]
    u[1] = f"({u[0]} + 1e-{e}*x)"
    coeffs = ["1"]
    for f in u:   # multiply by (f dx + dy)
        coeffs = [" + ".join(t for t in (
            f"({coeffs[i]})*{f}" if i < len(coeffs) else "",
            f"({coeffs[i - 1]})" if i > 0 else "") if t)
            for i in range(len(coeffs) + 1)]
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(coeffs))
    _assert_matches_solve(sys, GRID, floor=1e-6)
    _assert_matches_solve(sys, GRID, floor=1e-13)


def test_solve_many_lemon_grid_11_hits_the_singular_point():
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y", "-2*x", "-y"]))
    centres = [-2.0 + (i + 0.5) * 4.0 / 11 for i in range(11)]
    points = [(x, y) for x in centres for y in centres]
    assert (0.0, 0.0) in points
    batched = _assert_matches_solve(sys, points)
    assert [p for p, r in zip(points, batched) if r is None] == [(0.0, 0.0)]


def test_solve_many_at_the_tolerance_boundaries():
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y", "-2*x", "-y"]))
    x, y = 0.3, -0.7
    sq = sys.residual(x, y)     # the sum of squares solve compares
    sep = min_root_separation(sys.solve(x, y))
    got = [_assert_matches_solve(sys, [(x, y)], tol, floor)[0] is None
           for tol in (sq, math.nextafter(sq, 0.0))
           for floor in (sep, math.nextafter(sep, 4.0))]
    assert got == [True, True, False, True]


def test_solve_many_hands_non_generic_points_to_solve(monkeypatch):
    # rows the batch leaves as None are solved one by one
    monkeypatch.setattr(fiber, "_projective_roots_many",
                        lambda A, tol, floor: [None] * len(A))
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y", "-2*x", "-y"]))
    batched = _assert_matches_solve(sys, GRID)
    assert sum(r is None for r in batched) == 1     # the origin


def test_solve_many_empty():
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(["1", "0"]))
    assert sys.solve_many([]) == []
