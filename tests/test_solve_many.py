"""``solve_many`` against per-point ``solve`` for every fiber variant: the
same root floats bit for bit, and None exactly where ``solve`` raises; and
the tracking loops and isolation rings that use it against the same runs
with every point solved alone."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb import fiber
from monoweb.expr import DomainError, Num, parse
from monoweb.fiber import (BinaryForm, CircleSystem, FiberError, FiberSystem,
                           ProjectiveSystem, PuncturedPlaneSystem, Rect,
                           _certify_isolation, _circle_roots_many,
                           _projective_roots, _projective_roots_many,
                           _punctured_roots_many, min_root_separation)
from monoweb.monodromy import (LoopSpec, TrackingError, track_loop,
                               transport_fiber)

SQ = Rect(-2.0, 2.0, -2.0, 2.0)
GRID = [(x, y) for x in np.linspace(-2, 2, 9).tolist()
        for y in np.linspace(-2, 2, 9).tolist()]
FIXED = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _bits(roots):
    """Roots as exact bit patterns (so 0.0 and -0.0 differ), with the type
    of each coordinate."""
    if roots is None:
        return None
    return tuple((type(v).__name__, v.hex()) for r in roots
                 for v in dataclasses.astuple(r))


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


# --- the circle -------------------------------------------------------------

small = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0),
                  st.floats(-1e-5, 1e-5), st.sampled_from([1e-5, -7e-6]))


@FIXED
@given(st.integers(1, 5), st.lists(st.tuples(small, small), min_size=1,
                                   max_size=20),
       st.sampled_from([1e-10, 1e-30]))
def test_circle_rows_are_none_or_the_scalar_roots(m, rows, tol):
    # each row against the solve of a system whose v is that constant
    got = _circle_roots_many(np.array(rows), m, tol)
    for (re, im), roots in zip(rows, got):
        sys = CircleSystem(SQ, sheets=m, v_re=Num(re), v_im=Num(im))
        want = _solve_or_none(sys, 0.0, 0.0, tol, 1e-6)
        assert roots is None or _bits(roots) == _bits(want)
        assert (roots is None) == (want is None)


@FIXED
@given(st.integers(1, 4), coefficient_src, coefficient_src)
def test_circle_solve_many_matches_solve(m, v_re, v_im):
    sys = CircleSystem(SQ, sheets=m, v_re=parse(v_re), v_im=parse(v_im))
    _assert_matches_solve(sys, GRID)


@pytest.mark.parametrize("m", [2, 3, 5])
def test_circle_fiber_is_in_canonical_order(m):
    # increasing psi at every point, from solve and from solve_many; the
    # roots (arg v + 2 pi k)/m wrap past 2 pi where arg v < 0
    sys = CircleSystem(SQ, sheets=m, v_re=parse("x"), v_im=parse("y - 0.1"))
    for (x, y), batched in zip(GRID, sys.solve_many(GRID)):
        for roots in (batched, sys.solve(x, y)):
            psi = [r.psi for r in roots]
            assert len(psi) == m and psi == sorted(psi)


# --- the punctured plane ----------------------------------------------------

def _punctured_const(row):
    """A system whose coefficients are the constants (re, im) of row."""
    pairs = tuple((Num(a), Num(b)) for a, b in zip(row[::2], row[1::2]))
    return PuncturedPlaneSystem(SQ, degree_w=len(pairs) - 1, coeffs=pairs)


def _row_from_roots(roots, scale):
    """(re, im) pairs of c_0 .. c_n for scale * prod (w - r)."""
    c = scale * np.poly(np.array(roots, dtype=complex))[::-1]
    return [v for z in c.tolist() for v in (z.real, z.imag)]


random_punctured_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(coefficient, min_size=2 * n + 2,
                                max_size=2 * n + 2), min_size=1,
                       max_size=12))


@st.composite
def factored_punctured_rows(draw):
    """Rows with known roots: some within a few ulps of the separation
    floor 1e-6 from the puncture, some pairs about that far apart."""
    n = draw(st.integers(1, 4))
    near = st.floats(1e-6 * (1 - 1e-9), 1e-6 * (1 + 1e-9))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        roots = [complex(draw(st.floats(-2.0, 2.0)),
                         draw(st.floats(-2.0, 2.0))) for _ in range(n)]
        angle = draw(st.floats(0.0, 2 * math.pi))
        unit = complex(math.cos(angle), math.sin(angle))
        if draw(st.booleans()):
            roots[0] = draw(near) * unit
        if n > 1 and draw(st.booleans()):
            roots[1] = roots[0] + draw(near) * unit
        rows.append(_row_from_roots(roots, complex(
            draw(st.floats(0.1, 10.0)), draw(st.floats(-1.0, 1.0)))))
    return rows


@settings(FIXED, max_examples=60)
@given(st.one_of(random_punctured_rows, factored_punctured_rows()),
       st.sampled_from([1e-10, 1e-30]), st.sampled_from([1e-6, 1e-12]))
def test_punctured_rows_are_none_or_the_scalar_roots(rows, tol, floor):
    got = _punctured_roots_many(np.array(rows, dtype=float), tol, floor)
    for row, roots in zip(rows, got):
        if roots is None:
            continue   # solve_many asks solve for this row
        want = _solve_or_none(_punctured_const(row), 0.0, 0.0, tol, floor)
        assert _bits(roots) == _bits(want)


def test_generic_punctured_rows_take_the_batched_path():
    rows = [_row_from_roots([1.0, -1.0], 1.0),
            _row_from_roots([2j, 0.5, -1 - 1j, 3.0], 2.0 - 1j),
            _row_from_roots([0.25 + 0.5j], 1j)]
    for row in rows:
        [roots] = _punctured_roots_many(np.array([row]), 1e-10, 1e-6)
        assert roots is not None
        assert _bits(roots) == _bits(_punctured_const(row).solve(0.0, 0.0))


@FIXED
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(coefficient_src, coefficient_src),
                       min_size=n + 1, max_size=n + 1)))
def test_punctured_solve_many_matches_solve(sources):
    # a vanishing leading or constant coefficient, all-zero points,
    # double roots, 1/x failing on x = 0
    sys = PuncturedPlaneSystem(SQ, degree_w=len(sources) - 1, coeffs=tuple(
        (parse(re), parse(im)) for re, im in sources))
    _assert_matches_solve(sys, GRID)


# --- tracking and isolation -------------------------------------------------

VARIANTS = (ProjectiveSystem, CircleSystem, PuncturedPlaneSystem)


def _lemon():
    return ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y", "-2*x", "-y"]))


def _collision():
    # the loop of test_bisection_engages_near_root_collision
    return ProjectiveSystem(Rect(-3, 3, -3, 3), form=BinaryForm.from_strings(
        ["-((x-1)^2 + y^2 + 0.0001)", "0", "1"]))


def _half_turn():
    return CircleSystem(SQ, sheets=2, v_re=parse("x"), v_im=parse("y"))


def _cusp():
    zero = parse("0")
    return PuncturedPlaneSystem(SQ, degree_w=3, coeffs=(
        (parse("-(x^2 - y^2)"), parse("-2*x*y")), (zero, zero),
        (zero, zero), (parse("1"), zero)))


RUNS = (lambda s: track_loop(s, LoopSpec((0.0, 0.0), 1.0)),
        # through the lemon's singular point at t = 0.5
        lambda s: track_loop(s, LoopSpec((0.5, 0.0), 0.5)),
        lambda s: transport_fiber(s, (1.0, 0.5), (-0.5, -1.0)),
        lambda s: _certify_isolation(s, 0.0, 0.0, [(1.0, 1.0)], 1e-10,
                                     1e-6))


def _runs(m, make):
    """Each of RUNS on a fresh system, as the repr of its result or the
    error it raises, and the number of scalar solves made."""
    calls = []
    for cls in VARIANTS:
        def counted(self, *args, _solve=cls.solve, **kwargs):
            calls.append(args)
            return _solve(self, *args, **kwargs)
        m.setattr(cls, "solve", counted)
    out = []
    for run in RUNS:
        try:
            out.append(repr(run(make())))
        except (TrackingError, FiberError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out, len(calls)


@pytest.mark.parametrize("make", [_lemon, _collision, _half_turn, _cusp])
def test_tracking_and_isolation_match_unbatched(monkeypatch, make):
    with monkeypatch.context() as m:
        batched, batched_solves = _runs(m, make)
    with monkeypatch.context() as m:
        for cls in VARIANTS:
            m.setattr(cls, "_roots_many", FiberSystem._roots_many)
        alone, alone_solves = _runs(m, make)
    assert batched == alone
    assert batched_solves < alone_solves
    if make is _lemon:
        assert batched[1].startswith("SingularOnLoop: singular fiber at "
                                     "t=0.5")
    if make is _collision:
        assert "depth_reached=0" not in batched[0]
