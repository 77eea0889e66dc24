"""The stacked root kernel of every fiber variant against an independent
reference: ``mpmath.polyroots`` at 50 digits on RP^1 and C*, closed-form
m-th roots on S^1.  Where the reference shows a fiber of n well-separated
roots the kernel must find them; where it shows a vanishing form, complex
roots or roots closer than the separation floor, the kernel must raise the
matching error, and each row's separation must be the minimum distance
between its roots.  ``solve_many`` must equal ``solve`` point by point
(None where ``solve`` raises), and the tracking loops, also those halved
where they fail, that batch their solves must end as they do with every
point solved alone.  A batch whose vector coefficient evaluation fails
must give the errors of the scalar loop, and plots and loops must not
fall back to it."""

import dataclasses
import math
import pathlib

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb import expr
from monoweb.cli import load_problem, render_svg
from monoweb.expr import DomainError, Num, parse
from monoweb.fiber import (BinaryForm, CircleSystem, ComplexPoint, ComplexRoots, FiberError,
                           FiberSystem, IllConditioned, ProjectiveSystem,
                           PuncturedPlaneSystem, Rect, RP1Angle,
                           SingularFiber, SingularPoint,
                           _circle_roots_many, _projective_roots_many,
                           _punctured_roots_many)
from monoweb.index import index_report, index_reports
from monoweb.monodromy import (LoopSpec, SingularOnLoop, TrackingError,
                               track_loop, transport_fiber)

SQ = Rect(-2.0, 2.0, -2.0, 2.0)
GRID = [(x, y) for x in np.linspace(-2, 2, 9).tolist()
        for y in np.linspace(-2, 2, 9).tolist()]
FIXED = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

DIGITS = 50
# A row is compared with the reference only away from every threshold the
# kernel applies: a residual within a factor 2 of the singular tolerance,
# a root separation within a factor 2 of the floor, or a root whose angle
# is neither real to 1e-20 nor complex by 1e-3 is left to the invariants.
MARGIN = 2.0
REAL, COMPLEX = 1e-20, 1e-3
# Well-separated roots (1e-4 apart) agree with the reference within this.
ROOT_TOL = 1e-9
# A double root splits by about sqrt(eps) ~ 1e-8 in double precision, so a
# separation below the floor is only required to show where the floor is
# above that.
RESOLVED = 1e-6


def _bits(roots):
    """Roots as exact bit patterns (so 0.0 and -0.0 differ), with the type
    of each coordinate."""
    if roots is None:
        return None
    return tuple((type(v).__name__, v.hex()) for r in roots
                 for v in dataclasses.astuple(r))


def _kernel_rows(system_cls, output):
    """A kernel's ``(roots, sep, errors)`` as one entry per row: the row's
    error, or its roots as the variant's root objects, whose separation
    must be ``sep`` of the row."""
    roots, sep, errors = output
    assert roots.ndim == 2 and len(roots) == len(sep) == len(errors)
    out = [tuple(map(system_cls._root, row)) if error is None else error
           for row, error in zip(roots.tolist(), errors)]
    for row, s in zip(out, sep.tolist()):
        if not isinstance(row, FiberError):
            assert s == pytest.approx(_separation(row), rel=1e-12, abs=0.0)
    return out


def _solve_or_none(sys, x, y):
    try:
        return sys.solve(x, y)
    except (FiberError, DomainError):
        return None


def _assert_matches_solve(sys, points, tol=1e-10, floor=1e-6):
    sys = dataclasses.replace(sys, singular_tol=tol, sep_floor=floor)
    batched = sys.solve_many(points)
    alone = [_solve_or_none(sys, x, y) for x, y in points]
    assert [_bits(r) for r in batched] == [_bits(r) for r in alone]
    return batched


def _check_invariants(roots, n, floor):
    """A kernel row is n finite roots in canonical order, no two closer
    than the floor, or the FiberError that explains why there are none."""
    if isinstance(roots, FiberError):
        return
    assert len(roots) == n
    assert all(math.isfinite(v) for r in roots
               for v in dataclasses.astuple(r))
    assert list(roots) == sorted(roots, key=_canonical_key)
    assert _separation(roots) >= floor


def _separation(roots):
    """Minimum distance between two root objects: |a - b| on C*, else the
    angle difference modulo the period; +inf for one root."""
    def distance(a, b):
        if isinstance(a, ComplexPoint):
            return abs(complex(a.re, a.im) - complex(b.re, b.im))
        period = math.pi if isinstance(a, RP1Angle) else 2 * math.pi
        d = abs(_angle(a) - _angle(b)) % period
        return min(d, period - d)
    return min((distance(a, b) for i, a in enumerate(roots)
                for b in roots[i + 1:]), default=math.inf)


def _angle(r):
    """phi, psi, or arg w of a root object."""
    return r.arg if isinstance(r, ComplexPoint) else dataclasses.astuple(r)[0]


def _canonical_key(r):
    # by angle in [0, period), then modulus on C*; an angle a rounding
    # error below 0 is 0, not the period its remainder rounds to
    a = _angle(r) % (2 * math.pi)
    return (a if a < 2 * math.pi else 0.0, getattr(r, "modulus", 0.0))


def _below(value, threshold):
    """Whether ``value`` is at most ``threshold``, or None within a factor
    MARGIN of it."""
    if value <= threshold / MARGIN:
        return True
    return False if value >= MARGIN * threshold else None


def _close(sep, floor):
    """Whether a root separation is below the floor: True under half of
    it, False from twice it and 1e-4 (well-conditioned roots), else
    None."""
    if sep <= floor / MARGIN:
        return True
    return False if sep >= max(MARGIN * floor, 1e-4) else None


def _rp1_distance(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def _assert_roots_match(got, want, distance):
    # each reference root has exactly one kernel root within ROOT_TOL
    for w in want:
        assert sum(distance(g, w) <= ROOT_TOL for g in got) == 1, (got, want)


# --- RP^1 -------------------------------------------------------------------

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


def _projective_reference(row):
    """The sum of squares of the coefficients a_0 .. a_n of ``row`` and the
    n roots of the form as complex angles atan(q/p), real parts in
    [0, pi); a root at infinity [0:1] is pi/2.  None for the roots when
    polyroots does not converge."""
    with mpmath.workdps(DIGITS):
        a = [mpmath.mpf(v) for v in row]     # the floats, exactly
        sq = float(mpmath.fsum(v * v for v in a))
        if sq == 0.0:
            return sq, []
        hi = max(i for i, v in enumerate(a) if v != 0)
        lo = min(i for i, v in enumerate(a) if v != 0)
        # sum a_i t^i in t = q/p: zeros above a_hi are roots at infinity,
        # zeros below a_lo roots at t = 0
        phis = [mpmath.pi / 2] * (len(a) - 1 - hi) + [mpmath.mpf(0)] * lo
        if hi > lo:
            try:
                ts = mpmath.polyroots(a[hi:lo - 1 if lo else None:-1],
                                      maxsteps=400, extraprec=400)
            except mpmath.libmp.NoConvergence:
                return sq, None
            phis += [mpmath.atan(t) for t in ts]
        return sq, [complex(float(mpmath.re(p) % mpmath.pi),
                            float(mpmath.im(p))) for p in phis]


def _check_projective_row(row, roots, tol, floor):
    n = len(row) - 1
    _check_invariants(roots, n, floor)
    sq, ref = _projective_reference(row)
    singular = _below(sq, tol)
    if singular:
        assert type(roots) is SingularFiber
        return
    if singular is None or ref is None:
        return
    imag = max(abs(p.imag) for p in ref)
    if imag >= COMPLEX:
        assert type(roots) is ComplexRoots
        return
    if imag > REAL:
        return
    phis = [p.real for p in ref]
    sep = min((_rp1_distance(a, b) for i, a in enumerate(phis)
               for b in phis[i + 1:]), default=math.inf)
    close = _close(sep, floor)
    if close and floor >= RESOLVED:
        assert type(roots) in (IllConditioned, ComplexRoots)
    elif close is False:
        assert not isinstance(roots, FiberError), (row, roots)
        _assert_roots_match([r.phi for r in roots], phis, _rp1_distance)


@FIXED
@given(st.one_of(random_rows, factored_rows()),
       st.sampled_from([1e-10, 1e-30]), st.sampled_from([1e-6, 1e-12]))
def test_batched_rows_are_none_or_the_scalar_roots(rows, tol, floor):
    got = _kernel_rows(ProjectiveSystem, _projective_roots_many(
        np.array(rows, dtype=float), tol, floor))
    for row, roots in zip(rows, got):
        _check_projective_row(row, roots, tol, floor)


def test_generic_rows_take_the_batched_path():
    # xy = 0 (a root at infinity in either chart, a zero root) and a
    # plain quadratic: each gives its roots, in increasing phi
    rows = [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [1.0, -3.0, 2.0]]
    for row in rows:
        [roots] = _kernel_rows(ProjectiveSystem, _projective_roots_many(
            np.array([row]), 1e-10, 1e-6))
        assert not isinstance(roots, FiberError)
        _check_projective_row(row, roots, 1e-10, 1e-6)


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
    _, [sep], _ = sys._fibers([(x, y)])
    got = [_assert_matches_solve(sys, [(x, y)], tol, floor)[0] is None
           for tol in (sq, math.nextafter(sq, 0.0))
           for floor in (sep, math.nextafter(sep, 4.0))]
    assert got == [True, True, False, True]


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
    # the m-th roots (arg v + 2 pi k)/m of v/|v|, in closed form
    got = _kernel_rows(CircleSystem,
                       _circle_roots_many(np.array(rows), m, tol))
    for (re, im), roots in zip(rows, got):
        _check_invariants(roots, m, 0.0)
        with mpmath.workdps(DIGITS):
            sq = float(mpmath.mpf(re) ** 2 + mpmath.mpf(im) ** 2)
            base = mpmath.atan2(im, re)
            want = [float(((base + 2 * mpmath.pi * k) / m) % (2 * mpmath.pi))
                    for k in range(m)]
        singular = _below(sq, tol)
        if singular:
            assert type(roots) is SingularFiber
        elif singular is False:
            _assert_roots_match(
                [r.psi for r in roots], want,
                lambda a, b: min(abs(a - b), 2 * math.pi - abs(a - b)))


@FIXED
@given(st.integers(1, 4), coefficient_src, coefficient_src)
def test_circle_solve_many_matches_solve(m, v_re, v_im):
    sys = CircleSystem(SQ, sheets=m, v_re=parse(v_re), v_im=parse(v_im))
    _assert_matches_solve(sys, GRID)


def test_circle_root_a_rounding_error_below_zero_is_zero():
    # arg v = -7e-131 puts a root just below 0, and adding 2 pi to it
    # rounds to 2 pi itself, outside [0, 2 pi)
    [roots] = _kernel_rows(CircleSystem, _circle_roots_many(
        np.array([[1.0, -7.1e-131]]), 2, 1e-10))
    assert [r.psi for r in roots] == [0.0, math.pi]


@pytest.mark.parametrize("sources, phis", [
    (["1e-17", "1", "-1"], [0.0, math.pi / 4]),
    (["1e-17", "1"], [0.0])])
def test_projective_root_a_rounding_error_below_zero_is_zero(sources, phis):
    # the chart root phi = -1e-17 plus pi rounds to pi itself, outside
    # [0, pi), where it would sort last
    sys = ProjectiveSystem(Rect(-1, 1, -1, 1),
                           form=BinaryForm.from_strings(sources))
    assert [r.phi for r in sys.solve(0.0, 0.0)] == pytest.approx(
        phis, abs=1e-15)
    assert sys.solve(0.0, 0.0)[0].phi == 0.0


def test_punctured_root_a_rounding_error_below_zero_is_first():
    # (w - 1e-6)(w - 1.5i): the root 1e-6 polishes to arg -4.7e-23, whose
    # remainder mod 2 pi rounds to 2 pi, so it sorted last
    [roots] = _kernel_rows(PuncturedPlaneSystem, _punctured_roots_many(
        np.array([[0.0, 1.5e-06, -1e-06, -1.5, 1.0, 0.0]]), 1e-30, 1e-12))
    assert [complex(r.re, r.im) for r in roots] == pytest.approx(
        [1e-6, 1.5j], abs=1e-15)


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


def _punctured_reference(row, tol):
    """For the coefficients c_0 .. c_n in ``row``: whether each coefficient
    check of the kernel fails (None near its threshold), and the roots of
    sum c_k w^k, or None when polyroots does not converge."""
    with mpmath.workdps(DIGITS):
        c = [mpmath.mpc(a, b) for a, b in zip(row[::2], row[1::2])]
        mod = [abs(v) for v in c]
        scale = max(mod)
        checks = [_below(float(scale ** 2), tol),
                  _below(float(mod[-1]), float(1e-13 * scale)),
                  _below(float(mod[0] ** 2), float(tol * scale ** 2))]
        if any(checks) or None in checks:
            return checks, None
        try:
            roots = mpmath.polyroots(c[::-1], maxsteps=400, extraprec=400)
        except mpmath.libmp.NoConvergence:
            return checks, None
        return checks, [complex(w) for w in roots]


def _check_punctured_row(row, roots, tol, floor):
    _check_invariants(roots, len(row) // 2 - 1, floor)
    checks, want = _punctured_reference(row, tol)
    if any(checks):
        assert type(roots) is SingularFiber
    if want is None:
        return
    near_puncture = _close(min(abs(w) for w in want), floor)
    sep = min((abs(a - b) for i, a in enumerate(want)
               for b in want[i + 1:]), default=math.inf)
    close = _close(sep, floor)
    if near_puncture:
        assert type(roots) is SingularFiber
    elif near_puncture is None:
        return
    elif close and floor >= RESOLVED:
        assert type(roots) is IllConditioned
    elif close is False:
        assert not isinstance(roots, FiberError), (row, roots)
        _assert_roots_match([complex(r.re, r.im) for r in roots], want,
                            lambda a, b: abs(a - b) / (1.0 + abs(b)))


@settings(FIXED, max_examples=60)
@given(st.one_of(random_punctured_rows, factored_punctured_rows()),
       st.sampled_from([1e-10, 1e-30]), st.sampled_from([1e-6, 1e-12]))
def test_punctured_rows_are_none_or_the_scalar_roots(rows, tol, floor):
    got = _kernel_rows(PuncturedPlaneSystem, _punctured_roots_many(
        np.array(rows, dtype=float), tol, floor))
    for row, roots in zip(rows, got):
        _check_punctured_row(row, roots, tol, floor)


def test_generic_punctured_rows_take_the_batched_path():
    rows = [_row_from_roots([1.0, -1.0], 1.0),
            _row_from_roots([2j, 0.5, -1 - 1j, 3.0], 2.0 - 1j),
            _row_from_roots([0.25 + 0.5j], 1j)]
    for row in rows:
        [roots] = _kernel_rows(PuncturedPlaneSystem, _punctured_roots_many(
            np.array([row]), 1e-10, 1e-6))
        assert not isinstance(roots, FiberError)
        _check_punctured_row(row, roots, 1e-10, 1e-6)
        assert _bits(roots) == _bits(_punctured_const(row).solve(0.0, 0.0))


def test_punctured_rows_near_the_floor_fail():
    # a pair 1e-7 apart, and a root 1e-7 from the puncture (which the
    # constant-coefficient check lets through at a tolerance of 1e-30)
    pair = _row_from_roots([0.5 + 0.5j, 0.5 + 0.5j + 1e-7, -1.0], 1.0)
    puncture = _row_from_roots([1e-7j, 1.0], 1.0 + 1j)
    for row, error in [(pair, IllConditioned), (puncture, SingularFiber)]:
        [roots] = _kernel_rows(PuncturedPlaneSystem, _punctured_roots_many(
            np.array([row]), 1e-30, 1e-6))
        assert type(roots) is error
        _check_punctured_row(row, roots, 1e-30, 1e-6)


@pytest.mark.parametrize("scale", [1e150, 1e160])
def test_punctured_roots_at_overflow_scale(scale):
    # the square of a coefficient modulus overflows from about 1.3e154,
    # which must not make the constant coefficient look vanishing
    sys = _punctured_const(_row_from_roots([1.0, 2.0], scale))
    roots = [complex(r.re, r.im) for r in sys.solve(0.0, 0.0)]
    assert len(roots) == 2
    assert abs(roots[0] - 1.0) < 1e-12 and abs(roots[1] - 2.0) < 1e-12


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
        # the loop through the origin fails and is halved, beside a loop
        # that does not fail
        lambda s: list(index_reports(
            s, [SingularPoint(0.5, 0.0, 1.0, 0.0),
                SingularPoint(1.0, 1.0, 0.5, 0.0)],
            [LoopSpec((0.5, 0.0), 0.5), LoopSpec((1.0, 1.0), 0.25)],
            halve=True)))


_fibers = FiberSystem._fibers


def _one_at_a_time(self, points):
    """``_fibers`` with one kernel call per point."""
    rows = [_fibers(self, [p]) for p in points]
    if not rows:
        return _fibers(self, points)
    return (np.concatenate([roots for roots, _, _ in rows]),
            np.concatenate([sep for _, sep, _ in rows]),
            [error for _, _, [error] in rows])


def _runs(m, make):
    """Each of RUNS on a fresh system, as the repr of its result or the
    error it raises, and the number of root kernel calls."""
    calls = []
    cls = type(make())
    kernel = cls._roots_many

    def counted(self, *args):
        calls.append(args)
        return kernel(self, *args)

    m.setattr(cls, "_roots_many", counted)
    out = []
    for run in RUNS:
        try:
            out.append(repr(run(make())))
        except (TrackingError, FiberError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out, len(calls)


@pytest.mark.parametrize("make", [_lemon, _collision, _half_turn, _cusp])
def test_tracking_and_isolation_match_unbatched(monkeypatch, make):
    # batched, and with one kernel call per point
    with monkeypatch.context() as m:
        batched, batched_solves = _runs(m, make)
    with monkeypatch.context() as m:
        m.setattr(FiberSystem, "_fibers", _one_at_a_time)
        alone, alone_solves = _runs(m, make)
    assert batched == alone
    assert batched_solves < alone_solves
    if make is _lemon:
        assert batched[1].startswith("SingularOnLoop: singular fiber at "
                                     "t=0.5")
    if make is _collision:
        assert "depth_reached=0" not in batched[0]


# --- coefficient rows: one vector call, or the scalar loop -------------------

PROBLEMS = pathlib.Path(__file__).parent.parent / "problems"


def _count_scalar_rows(m):
    """Record the batch size of each ``expr._scalar_rows`` call, the scalar
    loop of ``expr.eval_rows``."""
    calls = []
    scalar_rows = expr._scalar_rows

    def counted(fn, points, what):
        calls.append(len(points))
        return scalar_rows(fn, points, what)

    m.setattr(expr, "_scalar_rows", counted)
    return calls


def _failing_vector_call(X, Y):
    raise FloatingPointError("vector evaluation disabled")


def _described(fibers):
    roots, sep, errors = fibers
    return (roots.tolist(), sep.tolist(),
            [None if e is None else f"{type(e).__name__}: {e}"
             for e in errors])


def _reciprocal_pairs():
    zero = parse("0")
    return PuncturedPlaneSystem(SQ, degree_w=2, coeffs=(
        (parse("1/x"), zero), (zero, zero), (parse("1"), zero)))


@pytest.mark.parametrize("make, points, bad, message", [
    # a division by zero: the vector call signals it
    (lambda: ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["1/x", "-2*x", "-y"])),
     [(0.25, 0.5), (0.0, 0.5), (-1.0, -1.5)], 1,
     "DomainError: coefficient evaluation failed at (0.0, 0.5): float "
     "division by zero"),
    (_reciprocal_pairs, [(0.25, 0.5), (0.0, 0.5), (-1.0, 1.5)], 1,
     "DomainError: coefficient evaluation failed at (0.0, 0.5): float "
     "division by zero"),
    # the vector value 1/inf = 0 is finite, but scalar 1/0 raises
    (lambda: ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["1/(1/(x-0.5))", "1", "-1"])),
     [(0.75, 0.3), (0.5, 0.3), (1.0, -1.0)], 1,
     "DomainError: coefficient evaluation failed at (0.5, 0.3): float "
     "division by zero"),
    # a non-finite row without a floating-point event
    (lambda: ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["x", "1", "-1"])),
     [(0.25, 0.3), (math.inf, 0.0), (1.0, -1.0)], 1,
     "DomainError: coefficient evaluation is not finite at (inf, 0.0)"),
], ids=["divide", "divide_pairs", "finite_but_raises", "not_finite"])
def test_fibers_fall_back_to_the_scalar_loop(monkeypatch, make, points, bad,
                                             message):
    sys = make()
    with monkeypatch.context() as m:
        calls = _count_scalar_rows(m)
        got = _described(sys._fibers(points))
        as_array = _described(sys._fibers(np.array(points)))
    # only the failing point reaches the scalar loop
    assert calls == [1, 1]
    # every batch through the scalar loop, as before vector rows
    with monkeypatch.context() as m:
        m.setattr(sys._solve_fn, "vector", _failing_vector_call)
        want = _described(sys._fibers(points))
    assert got == want == as_array
    assert got[2][bad] == message
    assert [e is None for e in got[2]] == [k != bad
                                          for k in range(len(points))]
    # the good points have the roots they have in a batch of their own
    for k, (x, y) in enumerate(points):
        if k != bad:
            alone = _described(sys._fibers([(x, y)]))
            assert alone == ([got[0][k]], [got[1][k]], [None])


def test_the_finite_but_raising_row_is_finite_as_a_vector():
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["1/(1/(x-0.5))", "1", "-1"]))
    with np.errstate(all="ignore"):
        row = sys._solve_fn.vector(np.array([0.5]), np.array([0.3]))
    assert np.isfinite(row[0]).all()


def test_residual_grid_point_does_not_depend_on_its_grid_mates():
    # every grid point where the evaluation succeeds keeps the bits of its
    # own 1 x 1 grid (numpy's exp, sin, log and atan2 can differ from
    # math's in the last bit)
    for coeffs, density, failing in [
            # the square of 1e160 overflows at the grid point (0.2, -0.2)
            (["exp(3*x + y) - 2",
              "1e160*exp(-1000*((x-0.2)^2 + (y+0.2)^2)) + sin(x*y)",
              "cos(x) - y"], 11, 1),
            # sqrt fails at the 96 grid points with x < -0.95
            (["sqrt(x + 0.95) + exp(3*x + y) - 2",
              "sin(7*x*y) + log(2 + y) + 0.5", "cos(5*x) - atan2(y, 2)"],
             48, 96)]:
        sys = ProjectiveSystem(Rect(-1, 1, -1, 1),
                               form=BinaryForm.from_strings(coeffs))
        X, Y = sys.domain.grid(density)
        R = sys.residual_grid(X, Y)
        assert np.isinf(R).sum() == failing
        for i, j in zip(*np.nonzero(np.isfinite(R))):
            alone = sys.residual_grid(X[i:i + 1], Y[j:j + 1])
            assert float(R[i, j]).hex() == float(alone[0, 0]).hex()


def test_plot_and_isolation_ring_make_no_scalar_coefficient_calls(
        monkeypatch):
    # the grid-100 lemon plot: 10,000 centres in blocks, whose
    # singular-point search solves no fiber, and the 65 first-level
    # samples of the auto loop of its singular point
    calls = _count_scalar_rows(monkeypatch)
    batches = []
    fibers = FiberSystem._fibers

    def recorded(self, points, *args, **kwargs):
        batches.append(len(points))
        return fibers(self, points, *args, **kwargs)

    monkeypatch.setattr(FiberSystem, "_fibers", recorded)
    render_svg(load_problem(str(PROBLEMS / "lemon.json")), grid=100)
    assert sum(batches) == 10_000
    batches.clear()
    index_report(_lemon(), SingularPoint(0.0, 0.0, 1.8, 0.0))
    assert batches[0] == 65
    assert calls == []


def test_single_point_errors_name_the_point_as_given():
    with pytest.raises(SingularFiber) as e:
        _lemon().solve(0, 0)
    assert str(e.value) == ("all form coefficients vanish within tolerance "
                            "at (0, 0)")
    reciprocal = ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["1/x", "-2*x", "-y"]))
    with pytest.raises(DomainError) as e:
        reciprocal.solve(0, 1)
    assert str(e.value) == ("coefficient evaluation failed at (0, 1): "
                            "float division by zero")
    # tracking names the loop point as the path gives it
    with pytest.raises(SingularOnLoop) as e:
        track_loop(_lemon(), LoopSpec((0.5, 0.0), 0.5))
    point = "(0.0, 6.123233995736766e-17)"
    assert str(e.value) == (
        f"singular fiber at t=0.5, point {point}: all form coefficients "
        f"vanish within tolerance at {point}")
