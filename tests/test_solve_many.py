"""The stacked root kernel of every fiber variant against an independent
reference: ``mpmath.polyroots`` at 50 digits on RP^1 and C*, closed-form
m-th roots on S^1.  Where the reference shows a fiber of n well-separated
roots the kernel must find them; where it shows a vanishing form, complex
roots or roots closer than the separation floor, the kernel must raise the
matching error.  ``solve_many`` must equal ``solve`` point by point (None
where ``solve`` raises), and the tracking loops and isolation rings that
batch their solves must end as they do with every point solved alone."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb.expr import DomainError, Num, parse
from monoweb.fiber import (SEP_FLOOR, SINGULAR_TOL, BinaryForm, CircleSystem,
                           ComplexRoots, FiberError, FiberSystem,
                           IllConditioned, ProjectiveSystem,
                           PuncturedPlaneSystem, Rect, SingularFiber,
                           _certify_isolation, _circle_roots_many,
                           _projective_roots_many, _punctured_roots_many,
                           min_root_separation)
from monoweb.monodromy import (LoopSpec, TrackingError, track_loop,
                               transport_fiber)

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


def _solve_or_none(sys, x, y, tol, floor):
    try:
        return sys.solve(x, y, tol, floor)
    except (FiberError, DomainError):
        return None


def _assert_matches_solve(sys, points, tol=1e-10, floor=1e-6):
    batched = sys.solve_many(points, singular_tol=tol, sep_floor=floor)
    alone = [_solve_or_none(sys, x, y, tol, floor) for x, y in points]
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
    if n > 1:
        assert min_root_separation(roots) >= floor


def _canonical_key(r):
    # by angle in [0, period), then modulus on C*
    return (r.angle % (2 * math.pi), getattr(r, "modulus", 0.0))


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
            except mpmath.NoConvergence:
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
    got = _projective_roots_many(np.array(rows, dtype=float), tol, floor)
    for row, roots in zip(rows, got):
        _check_projective_row(row, roots, tol, floor)


def test_generic_rows_take_the_batched_path():
    # xy = 0 (a root at infinity in either chart, a zero root) and a
    # plain quadratic: each gives its roots, in increasing phi
    rows = [[0.0, 1.0, 0.0], [0.0, -1.0, 1.0, 0.0], [1.0, -3.0, 2.0]]
    for row in rows:
        [roots] = _projective_roots_many(np.array([row]), 1e-10, 1e-6)
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
    sep = min_root_separation(sys.solve(x, y))
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
    got = _circle_roots_many(np.array(rows), m, tol)
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
        except mpmath.NoConvergence:
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
    got = _punctured_roots_many(np.array(rows, dtype=float), tol, floor)
    for row, roots in zip(rows, got):
        _check_punctured_row(row, roots, tol, floor)


def test_generic_punctured_rows_take_the_batched_path():
    rows = [_row_from_roots([1.0, -1.0], 1.0),
            _row_from_roots([2j, 0.5, -1 - 1j, 3.0], 2.0 - 1j),
            _row_from_roots([0.25 + 0.5j], 1j)]
    for row in rows:
        [roots] = _punctured_roots_many(np.array([row]), 1e-10, 1e-6)
        assert not isinstance(roots, FiberError)
        _check_punctured_row(row, roots, 1e-10, 1e-6)
        assert _bits(roots) == _bits(_punctured_const(row).solve(0.0, 0.0))


def test_punctured_rows_near_the_floor_fail():
    # a pair 1e-7 apart, and a root 1e-7 from the puncture (which the
    # constant-coefficient check lets through at a tolerance of 1e-30)
    pair = _row_from_roots([0.5 + 0.5j, 0.5 + 0.5j + 1e-7, -1.0], 1.0)
    puncture = _row_from_roots([1e-7j, 1.0], 1.0 + 1j)
    for row, error in [(pair, IllConditioned), (puncture, SingularFiber)]:
        [roots] = _punctured_roots_many(np.array([row]), 1e-30, 1e-6)
        assert type(roots) is error
        _check_punctured_row(row, roots, 1e-30, 1e-6)


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
        lambda s: _certify_isolation(s, 0.0, 0.0, [(1.0, 1.0)], 1e-10,
                                     1e-6))


def _one_at_a_time(self, points, singular_tol=SINGULAR_TOL,
                   sep_floor=SEP_FLOOR):
    return [_solve_or_none(self, x, y, singular_tol, sep_floor)
            for x, y in points]


def _runs(m, make):
    """Each of RUNS on a fresh system, as the repr of its result or the
    error it raises, and the number of calls of ``solve``."""
    calls = []
    solve = FiberSystem.solve

    def counted(self, *args, **kwargs):
        calls.append(args)
        return solve(self, *args, **kwargs)

    m.setattr(FiberSystem, "solve", counted)
    out = []
    for run in RUNS:
        try:
            out.append(repr(run(make())))
        except (TrackingError, FiberError) as e:
            out.append(f"{type(e).__name__}: {e}")
    return out, len(calls)


@pytest.mark.parametrize("make", [_lemon, _collision, _half_turn, _cusp])
def test_tracking_and_isolation_match_unbatched(monkeypatch, make):
    # batched, and with solve_many replaced by one solve per point
    with monkeypatch.context() as m:
        batched, batched_solves = _runs(m, make)
    with monkeypatch.context() as m:
        m.setattr(FiberSystem, "solve_many", _one_at_a_time)
        alone, alone_solves = _runs(m, make)
    assert batched == alone
    assert batched_solves < alone_solves
    if make is _lemon:
        assert batched[1].startswith("SingularOnLoop: singular fiber at "
                                     "t=0.5")
    if make is _collision:
        assert "depth_reached=0" not in batched[0]
