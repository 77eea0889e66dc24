import math
import random

import mpmath
import numpy as np
import pytest

from monoweb.expr import DomainError, parse
from monoweb.fiber import (
    BinaryForm, CircleAngle, CircleSystem, ComplexPoint, ComplexRoots,
    FiberError, IllConditioned, MixedVariants, NonIsolatedZero,
    ProjectiveSystem, PuncturedPlaneSystem, Rect, RP1Angle, SingularFiber,
    fiber_distance, _gauss_newton, _grid_local_minima, find_singularities,
    min_root_separation, solve_fiber,
)

from sympy_reference import reference_gradient

SQ = Rect(-2.0, 2.0, -2.0, 2.0)


def lemon_system():
    # y dx^2 - 2x dxdy - y dy^2 = 0; single singular point at the origin
    return ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y", "-2*x", "-y"]))


def radial_circular_system():
    # x y dx^2 - (x^2 - y^2) dxdy - x y dy^2 = (x dx + y dy)(y dx - x dy)
    return ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["x*y", "-(x^2 - y^2)", "-x*y"]))


def cusp_cover_system():
    # z^2 = w^3 in C x C*: coefficients of w^0..w^3 are (-z^2, 0, 0, 1)
    zero = parse("0")
    return PuncturedPlaneSystem(
        SQ, degree_w=3,
        coeffs=((parse("-(x^2 - y^2)"), parse("-2*x*y")),
                (zero, zero), (zero, zero),
                (parse("1"), zero)))


def half_turn_circle_system():
    # w^2 = z/|z| on the unit-vector bundle
    return CircleSystem(SQ, sheets=2, v_re=parse("x"), v_im=parse("y"))


def test_solve_lemon_on_axis():
    roots = solve_fiber(lemon_system(), (1.0, 0.0))
    phis = sorted(r.phi for r in roots)
    assert phis == pytest.approx([0.0, math.pi / 2], abs=1e-12)


def test_solve_cusp_cover_at_one():
    roots = solve_fiber(cusp_cover_system(), (1.0, 0.0))
    ws = sorted((complex(r.re, r.im) for r in roots),
                key=lambda w: math.atan2(w.imag, w.real) % (2 * math.pi))
    eps = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert ws[0] == pytest.approx(1.0 + 0j, abs=1e-10)
    assert ws[1] == pytest.approx(eps, abs=1e-10)
    assert ws[2] == pytest.approx(eps ** 2, abs=1e-10)


def test_solve_singular_at_origin():
    with pytest.raises(SingularFiber):
        solve_fiber(lemon_system(), (0.0, 0.0))


def test_solve_circle_roots():
    roots = solve_fiber(half_turn_circle_system(), (1.0, 0.0))
    psis = sorted(r.psi for r in roots)
    assert psis == pytest.approx([0.0, math.pi], abs=1e-12)


def test_complex_roots_rejected():
    # dx^2 + dy^2 has no real roots anywhere
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(["1", "0", "1"]))
    with pytest.raises(ComplexRoots):
        solve_fiber(sys, (0.5, 0.5))


def test_root_at_infinity():
    # dx*dy = 0: roots are the two axes, one of them the vertical [0:1]
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(["0", "1", "0"]))
    phis = sorted(r.phi for r in solve_fiber(sys, (0.3, -1.2)))
    assert phis == pytest.approx([0.0, math.pi / 2], abs=1e-12)


def test_min_root_separation():
    assert min_root_separation(
        [RP1Angle(0.0), RP1Angle(math.pi / 2)]) == pytest.approx(math.pi / 2)
    eps = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    pts = [ComplexPoint(1, 0), ComplexPoint(eps.real, eps.imag),
           ComplexPoint((eps ** 2).real, (eps ** 2).imag)]
    assert min_root_separation(pts) == pytest.approx(math.sqrt(3.0))
    assert min_root_separation([RP1Angle(1.0)]) == math.inf


def test_min_separation_mixed_variants():
    with pytest.raises(MixedVariants):
        min_root_separation([RP1Angle(0.0), CircleAngle(0.0)])


def test_rp1_metric_wraps():
    assert fiber_distance(RP1Angle(0.05), RP1Angle(math.pi - 0.05)) == \
        pytest.approx(0.1)


def test_find_singularities_lemon():
    pts = find_singularities(lemon_system(), grid_density=24)
    assert len(pts) == 1
    assert abs(pts[0].x) < 1e-8 and abs(pts[0].y) < 1e-8
    assert pts[0].isolation_radius > 0.5


def test_find_singularities_radial_circular():
    pts = find_singularities(radial_circular_system(), grid_density=24)
    assert len(pts) == 1
    assert math.hypot(pts[0].x, pts[0].y) < 1e-6


def test_find_singularities_constant_form_empty():
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(["0", "1", "0"]))
    assert find_singularities(sys, grid_density=16) == []


def test_find_singularities_circle_variant():
    pts = find_singularities(half_turn_circle_system(), grid_density=24)
    assert len(pts) == 1
    assert math.hypot(pts[0].x, pts[0].y) < 1e-10


def test_find_singularities_punctured_plane():
    pts = find_singularities(cusp_cover_system(), grid_density=24)
    assert len(pts) == 1
    # the residual is flat (~|z|^8) around this zero; location is coarse
    assert math.hypot(pts[0].x, pts[0].y) < 0.1


def test_declared_point_is_verified_and_kept_exact():
    sys = PuncturedPlaneSystem(
        SQ, declared_singular=((0.0, 0.0),), degree_w=3,
        coeffs=cusp_cover_system().coeffs)
    pts = find_singularities(sys, grid_density=24)
    assert len(pts) == 1
    assert (pts[0].x, pts[0].y) == (0.0, 0.0)


def test_unverifiable_declared_point():
    from monoweb.fiber import NoConvergence
    # constant form has no singular set at all
    sys = ProjectiveSystem(SQ, declared_singular=((0.5, 0.5),),
                           form=BinaryForm.from_strings(["0", "1", "0"]))
    with pytest.raises(NoConvergence):
        find_singularities(sys, grid_density=16)


def test_zero_curve_rejected():
    # coefficients all vanish on the line x = 0
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(["x", "0", "x"]))
    with pytest.raises(NonIsolatedZero):
        find_singularities(sys, grid_density=24)


def test_identically_zero_form_rejected():
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(["0", "0", "0"]))
    with pytest.raises(NonIsolatedZero):
        find_singularities(sys, grid_density=16)


def test_scaling_invariance():
    rng = random.Random(4242)
    base = lemon_system()
    scaled = ProjectiveSystem(SQ, form=base.form.scaled(
        parse("0.5 + x^2 + exp(y/4)")))
    count = 0
    while count < 50:
        x = rng.uniform(-2, 2)
        y = rng.uniform(-2, 2)
        if math.hypot(x, y) < 0.05:
            continue
        r1 = sorted(r.phi for r in solve_fiber(base, (x, y)))
        r2 = sorted(r.phi for r in solve_fiber(scaled, (x, y)))
        assert r1 == pytest.approx(r2, abs=1e-9)
        count += 1


def test_root_count_equals_sheet_number():
    rng = random.Random(7)
    systems = [lemon_system(), radial_circular_system(),
               cusp_cover_system(), half_turn_circle_system()]
    for sys in systems:
        checked = 0
        while checked < 25:
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            if math.hypot(x, y) < 0.1:
                continue
            roots = solve_fiber(sys, (x, y))
            assert len(roots) == sys.sheet_count
            checked += 1


def test_ill_conditioned_separation():
    # roots at t = 0 and t = 1e-8, below the separation floor
    sys = ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["0", "-1e-8", "1"]))
    with pytest.raises(IllConditioned):
        solve_fiber(sys, (1.0, 1.0))


@pytest.mark.parametrize("system, exprs", [
    (CircleSystem(SQ, sheets=2, v_re=parse("x^2 - y"),
                  v_im=parse("sin(x*y) + exp(y)/3")),
     lambda s: (s.v_re, s.v_im)),
    (ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y*cos(x)", "-2*x", "sqrt(1 + x^2) - y^2"])),
     lambda s: s.form.coeffs),
    (PuncturedPlaneSystem(SQ, degree_w=3, coeffs=tuple(
        (parse(re), parse(im)) for re, im in [
            ("x^2 - y", "x*y"), ("0.5", "-y"), ("exp(x/3)", "0"),
            ("2 + x", "0.3*y")])),
     lambda s: s.components),
])
def test_compiled_jacobian_matches_eval_grad(system, exprs):
    # against sympy.diff of each component's printed source
    references = [reference_gradient(e) for e in exprs(system)]
    for x, y in [(0.3, -0.7), (-1.1, 0.4)]:
        r, J = system.residual_vector(x, y)
        for i, reference in enumerate(references):
            v, dx, dy = reference(x, y)
            assert r[i] == pytest.approx(v, rel=1e-13, abs=1e-13)
            assert J[i, 0] == pytest.approx(dx, rel=1e-13, abs=1e-13)
            assert J[i, 1] == pytest.approx(dy, rel=1e-13, abs=1e-13)


def test_compiled_jacobian_math_error_is_domain_error():
    circle = CircleSystem(SQ, sheets=1, v_re=parse("log(x)"), v_im=parse("y"))
    with pytest.raises(DomainError):
        circle.residual_vector(0.0, 0.5)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_punctured_plane_components_match_high_precision_roots(degree):
    # c_0/c_n and prod_{i<j} (w_i - w_j)^2 from the resultant expression,
    # against the roots of the same polynomial to 60 digits
    rng = random.Random(degree)
    for _ in range(10):
        c = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(degree + 1)]
        sys = PuncturedPlaneSystem(SQ, degree_w=degree, coeffs=tuple(
            (parse(repr(v.real)), parse(repr(v.imag))) for v in c))
        c0_re, c0_im, d_re, d_im = sys.component_values(0.3, -0.7)
        with mpmath.workdps(60):
            roots = mpmath.polyroots([mpmath.mpc(v.real, v.imag)
                                      for v in c[::-1]], maxsteps=200,
                                     extraprec=200)
            ref = complex(mpmath.fprod((roots[i] - roots[j]) ** 2
                                       for i in range(degree)
                                       for j in range(i + 1, degree)))
        assert abs(complex(d_re, d_im) - ref) <= 1e-13 * abs(ref)
        assert complex(c0_re, c0_im) == pytest.approx(c[0] / c[-1],
                                                      rel=1e-15)


def test_gauss_newton_evaluates_each_point_once(monkeypatch):
    points = []
    residual = ProjectiveSystem.residual

    def counted(self, x, y):
        points.append((x, y))
        return residual(self, x, y)

    monkeypatch.setattr(ProjectiveSystem, "residual", counted)
    x, y, res = _gauss_newton(lemon_system(), 0.05, -0.03)
    assert res <= 1e-20 and math.hypot(x, y) < 1e-10
    assert len(points) >= 3
    assert len(points) == len(set(points))


NAN = "x*1e300*1e300 - x*1e300*1e300"    # NaN wherever x != 0
INF = "1e300*x*1e300"


def _punctured(c0):
    # c0 + w^2 = 0; c0 = 1 where x = 0
    zero = parse("0")
    return PuncturedPlaneSystem(SQ, degree_w=2, coeffs=(
        (parse(c0), zero), (zero, zero), (parse("1"), zero)))


@pytest.mark.parametrize("make", [
    lambda: ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        [f"{NAN} + y", "-2*x", "-y"])),
    lambda: ProjectiveSystem(SQ, form=BinaryForm.from_strings([INF, "1"])),
    lambda: ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        [f"-{INF}", "1"])),
    lambda: CircleSystem(SQ, sheets=2, v_re=parse(f"{NAN} + x"),
                         v_im=parse("y")),
    lambda: CircleSystem(SQ, sheets=2, v_re=parse(INF), v_im=parse("y")),
    lambda: _punctured(f"{NAN} + 1"),
    lambda: _punctured(f"{INF} + 1"),
], ids=["nan", "inf", "minus_inf", "circle_nan", "circle_inf",
        "punctured_nan", "punctured_inf"])
def test_non_finite_coefficients_rejected(make):
    sys = make()
    with pytest.raises(DomainError, match="not finite"):
        sys.solve(2.0, 0.5)
    # the batch leaves those points empty and solves the finite one
    assert sys.solve_many([(2.0, 0.5), (1.0, 1.0), (0.0, 0.5)]) == [
        None, None, sys.solve(0.0, 0.5)]


def _grid_local_minima_reference(R):
    """The cell-by-cell scan that ``_grid_local_minima`` replaces."""
    n0, n1 = R.shape
    out = []
    for i in range(n0):
        for j in range(n1):
            v = R[i, j]
            if not math.isfinite(v):
                continue
            ok = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    a, b = i + di, j + dj
                    if 0 <= a < n0 and 0 <= b < n1 and R[a, b] < v:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((i, j))
    return out


def test_grid_local_minima_matches_the_cell_scan():
    rng = np.random.default_rng(5)
    for _ in range(300):
        shape = tuple(rng.integers(1, 12, size=2))
        # few distinct values, so ties and plateaus are common
        R = rng.integers(0, 4, size=shape).astype(float)
        R[rng.random(shape) < 0.1] = math.inf
        R[rng.random(shape) < 0.1] = math.nan
        R[rng.random(shape) < 0.03] = -math.inf
        got = _grid_local_minima(R)
        assert got == _grid_local_minima_reference(R)
        assert all(type(i) is int and type(j) is int for i, j in got)


def _form(*coeffs):
    return ProjectiveSystem(SQ, form=BinaryForm.from_strings(coeffs))


def _pairs(*coeffs):
    """C* system whose coefficients c_0 .. c_n are the given constants."""
    return PuncturedPlaneSystem(SQ, degree_w=len(coeffs) - 1, coeffs=tuple(
        (parse(repr(c.real)), parse(repr(c.imag))) for c in map(complex,
                                                                coeffs)))


# one row per way a fiber solve fails: (system, point, tolerance, floor,
# the error solve raises)
FAILURES = [
    (_form("0", "0", "0"), (0.3, 0.2), 1e-10, 1e-6, SingularFiber),
    (_form("1", "0", "1"), (0.3, 0.2), 1e-10, 1e-6, ComplexRoots),
    # (dx - dy)(dx - (1 + 1e-7) dy): two real roots 5e-8 apart
    (_form("1", "-(2 + 1e-7)", "1 + 1e-7"), (0.3, 0.2), 1e-10, 1e-6,
     IllConditioned),
    # (dx - dy)^2: one double root, below any floor
    (_form("1", "-2", "1"), (0.3, 0.2), 1e-10, 1e-13, ComplexRoots),
    (_form("1/x", "0", "-1"), (0.0, 0.5), 1e-10, 1e-6, DomainError),
    (CircleSystem(SQ, sheets=2, v_re=parse("0"), v_im=parse("0")),
     (0.3, 0.2), 1e-10, 1e-6, SingularFiber),
    (_pairs(0, 0, 0), (0.3, 0.2), 1e-10, 1e-6, SingularFiber),
    (_pairs(1, 1, 0), (0.3, 0.2), 1e-10, 1e-6, SingularFiber),
    (_pairs(0, 1, 1), (0.3, 0.2), 1e-10, 1e-6, SingularFiber),
    # (w - 1e-7)(w - 1): a root inside the floor around the puncture
    (_pairs(1e-7, -(1 + 1e-7), 1), (0.3, 0.2), 1e-30, 1e-6,
     SingularFiber),
    (_pairs(1, -2, 1), (0.3, 0.2), 1e-10, 1e-6, IllConditioned),
]


@pytest.mark.parametrize("sys, point, tol, floor, error", FAILURES,
                         ids=["all_zero", "complex", "near_double",
                              "double", "domain", "circle_zero", "punctured_zero",
                              "leading_zero", "constant_zero",
                              "near_puncture", "double_root"])
def test_each_failure_raises_its_error_class(sys, point, tol, floor, error):
    with pytest.raises(error) as exc:
        sys.solve(*point, tol, floor)
    assert type(exc.value) is error
    assert f"at ({point[0]}, {point[1]})" in str(exc.value)
    assert sys.solve_many([point], tol, floor) == [None]


def test_solve_never_returns_nan_roots():
    # the Newton polish overflows to NaN angles on this constant form
    sys = _form("1.7e308", "1.7e308", "-1.7e308", "-1.7e308")
    with pytest.raises(FiberError):
        sys.solve(0.0, 0.0)
    assert sys.solve_many([(0.0, 0.0)]) == [None]


def test_power_domain_failure_names_the_point():
    circle = CircleSystem(SQ, sheets=1, v_re=parse("x^0.5"), v_im=parse("1"))
    for call in (circle.residual_vector, circle.solve):
        with pytest.raises(DomainError, match=r"at \(-1\.0, 0\.5\)"):
            call(-1.0, 0.5)
