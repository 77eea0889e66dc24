import math
import pathlib
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb import expr, geometry
from monoweb.cli import load_problem
from monoweb.expr import DomainError, call_compiled, compile_value_vec, parse
from monoweb.fiber import NonIsolatedZero, Rect, find_singularities
from monoweb.fiber import ProjectiveSystem
from monoweb.geometry import (
    DegenerateImmersion, SurfacePatch, WeightedPatch, WeightsNotPartition,
    curvature_line_bde, fundamental_forms, gaussian_curvature_brioschi,
    check_partition_of_unity, integrate_gauss_curvature, locate_on_patch,
    verify_index_theorem,
)
from monoweb.index import index_report

from surfaces import (cube_face_ellipsoid, constant_web_forms,
                      ellipsoid_umbilics, meridian_field_forms,
                      stereographic_sphere, torus_patch)

PROBLEMS = pathlib.Path(__file__).parent.parent / "problems"


def test_sphere_curvature_one():
    sphere = stereographic_sphere()[0].patch
    for (u, v) in [(0.0, 0.0), (0.7, -0.4), (2.0, 1.5)]:
        ff = fundamental_forms(sphere, u, v)
        assert ff.K == pytest.approx(1.0, rel=1e-9)


def test_plane_second_form_vanishes():
    plane = SurfacePatch.from_strings("u", "v", "0", Rect(-1, 1, -1, 1))
    ff = fundamental_forms(plane, 0.3, -0.2)
    assert (ff.L, ff.M, ff.N) == (0.0, 0.0, 0.0)
    assert ff.K == 0.0


def test_cylinder_flat_but_curved():
    cyl = SurfacePatch.from_strings("cos(u)", "sin(u)", "v",
                                    Rect(0.1, 3.0, -1.0, 1.0))
    ff = fundamental_forms(cyl, 1.0, 0.0)
    assert ff.K == pytest.approx(0.0, abs=1e-12)
    assert abs(ff.L) > 0.5


def test_degenerate_immersion_rejected():
    with pytest.raises(DegenerateImmersion):
        SurfacePatch.from_strings("u", "u", "0", Rect(-1, 1, -1, 1))


def test_curvature_two_ways_agree():
    rng = random.Random(11)
    patches = [stereographic_sphere()[0].patch,
               cube_face_ellipsoid()[0].patch,
               torus_patch()[0].patch]
    for patch in patches:
        dom = patch.domain
        for _ in range(6):
            u = rng.uniform(dom.xmin + 0.1, dom.xmax - 0.1)
            v = rng.uniform(dom.ymin + 0.1, dom.ymax - 0.1)
            k1 = fundamental_forms(patch, u, v).K
            k2 = gaussian_curvature_brioschi(patch, u, v)
            assert k2 == pytest.approx(k1, rel=1e-6, abs=1e-9)


def test_sphere_bde_is_identically_zero():
    sphere = stereographic_sphere()[0].patch
    form = curvature_line_bde(sphere)
    sys = ProjectiveSystem(sphere.domain, form=form)
    with pytest.raises(NonIsolatedZero):
        find_singularities(sys, grid_density=16)


def test_monge_patch_around_one_umbilic():
    ux, _, uz = ellipsoid_umbilics()[0]
    patch = SurfacePatch.from_strings(
        "u", "v", "sqrt(1 - u^2/9 - v^2/4)",
        Rect(ux - 0.45, ux + 0.45, -0.45, 0.45), name="monge-umbilic")
    form = curvature_line_bde(patch)
    sys = ProjectiveSystem(patch.domain, form=form)
    pts = find_singularities(sys, grid_density=24)
    assert len(pts) == 1
    assert pts[0].x == pytest.approx(ux, abs=1e-8)
    assert pts[0].y == pytest.approx(0.0, abs=1e-8)
    rep = index_report(sys, pts[0])
    assert len(rep.orbit_reports) == 2
    for orb in rep.orbit_reports:
        assert (orb.size, orb.winding) == (1, 1)
        assert orb.classical_line_index == Fraction(1, 2)


def _shape_operator_fd(f, u, v):
    """Shape operator in the chart basis, everything by central finite
    differences on the height function; independent of the library's
    derivative machinery."""
    h1, h2 = 1e-6, 1e-4

    def r(uu, vv):
        return np.array([uu, vv, f(uu, vv)])

    ru = (r(u + h1, v) - r(u - h1, v)) / (2 * h1)
    rv = (r(u, v + h1) - r(u, v - h1)) / (2 * h1)
    ruu = (r(u + h2, v) - 2 * r(u, v) + r(u - h2, v)) / h2 ** 2
    rvv = (r(u, v + h2) - 2 * r(u, v) + r(u, v - h2)) / h2 ** 2
    ruv = (r(u + h2, v + h2) - r(u + h2, v - h2)
           - r(u - h2, v + h2) + r(u - h2, v - h2)) / (4 * h2 ** 2)
    n = np.cross(ru, rv)
    n = n / np.linalg.norm(n)
    I = np.array([[ru @ ru, ru @ rv], [ru @ rv, rv @ rv]])
    II = np.array([[n @ ruu, n @ ruv], [n @ ruv, n @ rvv]])
    return np.linalg.solve(I, II)


def test_umbilic_index_against_eigenvector_oracle():
    # brute force: follow the principal-direction eigenvector of the
    # finite-difference shape operator around the umbilic; the chart
    # angle must advance by pi (line-field index 1/2) for each field
    ux, _, _ = ellipsoid_umbilics()[0]

    def f(u, v):
        return math.sqrt(1 - u * u / 9 - v * v / 4)

    radius = 0.15
    samples = 720
    for which in (0, 1):  # larger / smaller principal curvature
        prev_angle = None
        total = 0.0
        for k in range(samples + 1):
            th = 2 * math.pi * k / samples
            S = _shape_operator_fd(f, ux + radius * math.cos(th),
                                   0.0 + radius * math.sin(th))
            evals, evecs = np.linalg.eig(S)
            order = np.argsort(evals.real)[::-1]
            vec = evecs[:, order[which]].real
            ang = math.atan2(vec[1], vec[0])
            if prev_angle is not None:
                d = math.fmod(ang - prev_angle + math.pi / 2, math.pi)
                if d <= 0:
                    d += math.pi
                total += d - math.pi / 2
            prev_angle = ang
        assert total == pytest.approx(math.pi, abs=1e-3)

    # the library agrees: winding 1 per orbit around the same umbilic
    patch = SurfacePatch.from_strings(
        "u", "v", "sqrt(1 - u^2/9 - v^2/4)",
        Rect(ux - 0.45, ux + 0.45, -0.45, 0.45))
    sys = ProjectiveSystem(patch.domain, form=curvature_line_bde(patch))
    pts = find_singularities(sys, grid_density=24)
    rep = index_report(sys, pts[0])
    assert [o.winding for o in rep.orbit_reports] == [1, 1]


def test_torus_has_no_umbilics():
    wp = torus_patch()[0]
    form = curvature_line_bde(wp.patch)
    sys = ProjectiveSystem(wp.patch.domain, form=form)
    assert find_singularities(sys, grid_density=24) == []


def test_locate_on_patch_roundtrip():
    sphere = stereographic_sphere()
    p3 = sphere[0].patch.position(0.7, -0.3)
    [u], [v], [dist] = locate_on_patch(sphere[1].patch, [p3])
    assert dist < 1e-9
    assert np.allclose(sphere[1].patch.position(u, v), p3, atol=1e-9)


def _locate_reference(patch, point3, seed_grid=8, max_iter=40):
    """Reference for one row of ``locate_on_patch``: the same clamped
    Gauss-Newton search through the scalar chart and ``lstsq``, without
    the fixed-point stop and the cached seed grid, so it runs until the
    step is tiny or ``max_iter`` is spent."""
    p = np.asarray(point3, dtype=float)
    dom = patch.domain
    U, V = dom.grid(seed_grid)
    UU, VV = np.meshgrid(U, V, indexing="ij")
    fn = compile_value_vec(*patch.coords, variables=patch.variables)
    with np.errstate(all="ignore"):
        px = np.stack([np.broadcast_to(np.asarray(t, dtype=float), UU.shape)
                       for t in fn(UU, VV)])
    d2 = ((px - p.reshape(3, 1, 1)) ** 2).sum(axis=0)
    i, j = np.unravel_index(np.nanargmin(d2), d2.shape)
    u, v = float(UU[i, j]), float(VV[i, j])

    for _ in range(max_iter):
        r, su, sv = np.array(call_compiled(patch._chart_fn, u, v,
                                           "patch evaluation")).reshape(3, 3)
        J = np.column_stack([su, sv])
        try:
            step, *_ = np.linalg.lstsq(J, p - r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        u = min(max(u + step[0], dom.xmin), dom.xmax)
        v = min(max(v + step[1], dom.ymin), dom.ymax)
        if np.hypot(*step) < 1e-14 * (1.0 + abs(u) + abs(v)):
            break
    dist = float(np.linalg.norm(patch.position(u, v) - p))
    return u, v, dist


def _partition_check_locates(monkeypatch):
    """Every (patch, probe points, result) of ``locate_on_patch`` in the
    partition-of-unity check of ellipsoid_321, and the number of
    vectorized chart calls and of rows they evaluate, per patch."""
    surface = load_problem(str(PROBLEMS / "ellipsoid_321.json")).surface
    calls, charts, rows = [], {}, {}
    locate = geometry.locate_on_patch

    def record(patch, points):
        out = locate(patch, points)
        calls.append((patch, np.array(points), out))
        return out

    def counted(patch, fn):
        def chart(u, v):
            charts[patch.name] += 1
            rows[patch.name] += len(u)
            return fn(u, v)
        return chart

    for wp in surface:
        charts[wp.patch.name] = rows[wp.patch.name] = 0
        monkeypatch.setattr(wp.patch._chart_fn, "vector", counted(
            wp.patch, wp.patch._chart_fn.vector))
    monkeypatch.setattr(geometry, "locate_on_patch", record)
    check_partition_of_unity(surface)
    return calls, charts, rows


def test_locate_on_patch_matches_the_full_iteration(monkeypatch):
    # the vectorized chart and the normal equations round differently
    # from the scalar chart and lstsq, so rows agree to 1e-12, not bits
    calls, _, _ = _partition_check_locates(monkeypatch)
    assert [len(points) for _, points, _ in calls] == [6 * 8] * 6
    for patch, points, (us, vs, dists) in calls:
        assert len(us) == len(vs) == len(dists) == len(points)
        for p3, u, v, dist in zip(points, us, vs, dists):
            ru, rv, rdist = _locate_reference(patch, p3)
            tol = 1e-6 * (1.0 + np.linalg.norm(p3))
            assert (dist <= tol) == (rdist <= tol)
            assert abs(u - ru) <= 1e-12 and abs(v - rv) <= 1e-12


def test_locate_on_patch_stops_at_the_clamped_fixed_point(monkeypatch):
    _, charts, rows = _partition_check_locates(monkeypatch)
    assert all(n <= 41 for n in charts.values())
    # 9,833 row evaluations when every off-patch row ran all 40
    # iterations; 2,966 with the fixed-point stop
    assert sum(rows.values()) <= 3200


def test_locate_on_patch_falls_back_to_the_scalar_chart():
    # the seed node u = 1/7 is a zero of |u - 1/7|, where the derivative
    # of |u - 1/7|^1.5 takes a non-integer power of zero: the vectorized
    # chart raises and the scalar chart names the point
    dom = Rect(0.0, 1.0, 0.0, 1.0)
    c = float(dom.grid(geometry.SEED_GRID)[0][1])
    patch = SurfacePatch.from_strings("u", "v", f"abs(u - {c!r})^1.5", dom)
    p3 = np.array([c, 0.5, 0.2])
    with pytest.raises(DomainError) as scalar:
        _locate_reference(patch, p3)
    with pytest.raises(DomainError) as batched:
        locate_on_patch(patch, [p3])
    assert "patch evaluation failed at (0.14285714285714285" in str(
        scalar.value)
    assert str(batched.value) == str(scalar.value)


def test_sphere_two_patch_integral():
    value, err = integrate_gauss_curvature(stereographic_sphere(),
                                           quadrature_order=128)
    assert value == pytest.approx(4 * math.pi, abs=1e-6)
    assert err < 1e-2


def test_torus_integral_zero():
    value, _ = integrate_gauss_curvature(torus_patch(),
                                         quadrature_order=32)
    assert abs(value) < 1e-9


def test_cube_face_ellipsoid_integral():
    value, err = integrate_gauss_curvature(cube_face_ellipsoid(),
                                           quadrature_order=48)
    assert value == pytest.approx(4 * math.pi, abs=1e-4)
    assert err < 1e-4


def test_weights_not_partition_detected():
    patches = stereographic_sphere()
    bad = [WeightedPatch(patches[0].patch, parse("0.9/(1+(u^2+v^2)^4)",
                                                 ("u", "v"))),
           patches[1]]
    with pytest.raises(WeightsNotPartition) as exc:
        integrate_gauss_curvature(bad, quadrature_order=16)
    assert str(exc.value) == (
        "weights sum to 0.999999540427 (not 1) at the probe point "
        "(np.float64(0.3292130388651367), np.float64(0.24656377783406402), "
        "np.float64(0.9114960660921013)) from patch north-chart")


def test_theorem_ellipsoid_curvature_lines():
    report = verify_index_theorem(cube_face_ellipsoid(),
                                  quadrature_order=24, grid_density=32)
    assert report.sheet_count == 2
    assert report.hypothesis_ok
    assert report.rhs == Fraction(8)
    assert len(report.point_records) == 4
    for rec in report.point_records:
        assert rec.report.uniform_orbit_size == 1
        assert rec.report.total_index == Fraction(2)
    assert report.lhs == pytest.approx(8.0, abs=1e-3)
    assert report.identity_ok
    assert report.euler_characteristic_estimate == pytest.approx(2.0,
                                                                 abs=1e-3)
    found = sorted(rec.position3 for rec in report.point_records)
    expected = sorted(ellipsoid_umbilics())
    for f, e in zip(found, expected):
        assert np.allclose(f, e, atol=1e-6)


def test_theorem_sphere_meridian_field():
    # degree-1 validation of the (n/pi) reduction: two poles of index 2,
    # rhs = 4 = (1/pi) * 4 pi
    report = verify_index_theorem(stereographic_sphere(),
                                  bde_source=meridian_field_forms(),
                                  quadrature_order=128, grid_density=24)
    assert report.sheet_count == 1
    assert report.rhs == Fraction(4)
    assert report.lhs == pytest.approx(4.0, abs=1e-3)
    assert report.identity_ok
    assert report.euler_characteristic_estimate == pytest.approx(2.0,
                                                                 abs=1e-3)


def test_theorem_torus_constant_web():
    report = verify_index_theorem(torus_patch(),
                                  bde_source=constant_web_forms(),
                                  quadrature_order=32, grid_density=24)
    assert report.rhs == Fraction(0)
    assert abs(report.lhs) < 1e-9
    assert report.identity_ok
    assert report.point_records == ()


def test_singular_point_outside_weight_one_zone():
    from monoweb.fiber import BinaryForm
    from monoweb.geometry import SingularPointOnPatchBoundary
    # a field zero at chart radius 0.5, where the stereographic weight is
    # 0.9961: owned (> 1/2) but never within 1e-6 of weight 1
    forms = [BinaryForm.from_strings(["v", "-(u - 0.5)"],
                                     variables=("u", "v")),
             BinaryForm.from_strings(["1", "0"], variables=("u", "v"))]
    with pytest.raises(SingularPointOnPatchBoundary):
        verify_index_theorem(stereographic_sphere(), bde_source=forms,
                             quadrature_order=16, grid_density=24)


def test_theorem_all_umbilic_sphere_rejected():
    with pytest.raises(NonIsolatedZero):
        verify_index_theorem(stereographic_sphere(), quadrature_order=16,
                             grid_density=16)


def test_local_global_classical_sum():
    # for a BDE split into n global line fields, the classical line-field
    # indices sum to n * Euler characteristic
    report = verify_index_theorem(cube_face_ellipsoid(),
                                  quadrature_order=24, grid_density=32)
    classical = sum(
        (rec.report.uniform_orbit_size
         * sum((o.classical_line_index for o in rec.report.orbit_reports),
               Fraction(0))
         for rec in report.point_records), Fraction(0))
    chi = round(report.euler_characteristic_estimate)
    assert classical == report.sheet_count * chi
    assert report.rhs == 2 * report.sheet_count * chi


def test_patch_grid_underflow_is_not_a_domain_error():
    # exp(-1000 u^2) underflows to 0.0 away from u = 0, as scalar
    # evaluation does without an error; division by zero still fails
    bump = SurfacePatch.from_strings("u", "v", "exp(-1000*u*u)",
                                     Rect(-1, 1, -1, 1))
    U = np.linspace(-1, 1, 9)
    g = bump._frame_grids(U, U)
    for u, row in zip(U.tolist(), g["E"].tolist()):
        ff = fundamental_forms(bump, u, 0.5)
        assert row == [pytest.approx(ff.E, rel=1e-12)] * 9
    with pytest.raises(DomainError, match="patch grid evaluation failed: "
                                          "divide by zero"):
        SurfacePatch.from_strings("u", "v", "1/u", Rect(-1, 1, -1, 1))
    weighted = WeightedPatch(bump, parse("exp(-1000*v*v)", ("u", "v")))
    value, _ = integrate_gauss_curvature([weighted], quadrature_order=8,
                                         check_partition=False)
    assert math.isfinite(value)


def _count_compile_and_diff(monkeypatch):
    """Count the calls of Python's ``compile`` by the code generator and of
    ``diff`` from every monoweb module; the counts, and the source of each
    compiled function."""
    calls = {"diff": 0, "compile": 0}
    sources = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            if name == "compile":
                sources.append(args[0])
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(expr, "compile", counting("compile", compile),
                        raising=False)
    diff = expr.diff
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("monoweb")
                and getattr(mod, "diff", None) is diff):
            monkeypatch.setattr(mod, "diff", counting("diff", diff))
    return calls, sources


def test_face_code_compiles_twice_and_calls_diff_never(monkeypatch):
    # value code (scalar and vector share it) and Jacobian code; the
    # Jacobian lines come from forward mode, not from diff() trees
    wp = load_problem(str(PROBLEMS / "ellipsoid_321.json")).surface[0]
    system = ProjectiveSystem(wp.patch.domain,
                              form=curvature_line_bde(wp.patch))
    system.components
    calls, _ = _count_compile_and_diff(monkeypatch)
    system._component_fn, system._component_fn.vector
    system._component_grad_fn
    assert calls == {"diff": 0, "compile": 2}


def test_theorem_compiles_the_curvature_formula_once(monkeypatch):
    # the formula's value and Jacobian code once for the six faces; each
    # face compiles its frame jets, and neither its coefficients nor
    # their Jacobian as code of its own
    prob = load_problem(str(PROBLEMS / "ellipsoid_321.json"))
    faces = [wp.patch for wp in prob.surface]
    composed = [expr._straight_line(curvature_line_bde(p).coeffs, wrt)[0]
                for p in faces for wrt in ((), p.variables)]
    calls, sources = _count_compile_and_diff(monkeypatch)
    report = verify_index_theorem(
        prob.surface, quadrature_order=prob.quadrature_order,
        grid_density=prob.grid_density)
    assert report.identity_ok and len(report.point_records) == 4

    def signature(names):
        return f"def _f({', '.join(names)}):"

    heads = [src.split("\n", 1)[0] for src in sources]
    assert heads.count(signature(geometry._FRAME)) == 1
    assert heads.count(signature(geometry._JETS)) == 1
    for lines in composed:
        assert not any("\n".join(lines) in src for src in sources)
    jets = [src for src in sources if src.startswith("def _f(u, v):")
            and src.rsplit("return ", 1)[1].count(",") == 44]
    assert len(jets) == 6   # every face refines a grid candidate
    assert all(len(src.splitlines()) - 2 <= 450 for src in jets)
    assert calls["diff"] == 0


def _face_outcomes(system, points):
    """For each point: the coefficients and the rows of their Jacobian as
    ``float.hex``, or the type and message of the error raised; and the
    vector rows at all the points, or the type of the error the vector
    call signals."""
    out = []
    for u, v in points:
        for get in (system.component_values, system.residual_vector):
            try:
                out.append([float(x).hex() for part in get(u, v)
                            for x in np.ravel(part)])
            except DomainError as e:
                out.append((type(e).__name__, str(e)))
    U, V = np.array(points).T
    try:
        with expr.vec_errstate():
            rows = expr.stack_vec(system._component_fn.vector(U, V), U.shape)
        out.append([float(x).hex() for x in rows.ravel()])
    except expr.VEC_ERRORS as e:
        out.append(type(e).__name__)
    with np.errstate(all="ignore"):
        rows = expr.stack_vec(system._component_fn.vector(U, V), U.shape)
    out.append([float(x).hex() for x in rows.ravel()])
    return out


def _assert_faces_equal_their_forms(patches, points):
    """Each curvature-line face system, with one formula for all the
    patches, computes what the system of its form computes, bit for
    bit."""
    formula = geometry._CurvatureFormula()
    for patch in patches:
        form = curvature_line_bde(patch)
        composed = geometry._CurvatureLineSystem(
            patch.domain, form=form, patch=patch, formula=formula)
        want = _face_outcomes(ProjectiveSystem(patch.domain, form=form),
                              points)
        assert _face_outcomes(composed, points) == want, patch.name
    return formula


def _random_points(patch, count, seed):
    rng = random.Random(seed)
    d = patch.domain
    return [(rng.uniform(d.xmin, d.xmax), rng.uniform(d.ymin, d.ymax))
            for _ in range(count)]


def test_face_systems_equal_their_forms_on_shipped_surfaces():
    for name in ("ellipsoid_321", "sphere_all_umbilic"):
        patches = [wp.patch
                   for wp in load_problem(str(PROBLEMS / f"{name}.json")
                                          ).surface]
        points = _random_points(patches[0], 40, 3) + [(0.0, 0.0), (0.0, 0.5)]
        formula = _assert_faces_equal_their_forms(patches, points)
        # charts without literal frame values share one formula
        assert len(formula._values) == len(formula._jacobians) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
@given(c=st.floats(0.8, 1.2), ratio=st.floats(1.8, 2.2),
       s=st.floats(0.7, 0.8))
def test_face_systems_equal_their_forms_on_ellipsoids(c, ratio, s):
    # the band of axes that the surface_theorem benchmark draws from
    b = c * ratio
    a = math.sqrt(b * b + (b * b - c * c) / (s * s))
    patches = [wp.patch for wp in cube_face_ellipsoid(a, b, c)]
    _assert_faces_equal_their_forms(
        patches, _random_points(patches[0], 12, 5) + [(0.0, 0.0)])


@pytest.mark.parametrize("xyz, domain", [
    (("u", "v", "u^3 - 3*u*v^2"), Rect(-1, 1, -1, 1)),
    (("u", "v", "u^2 + 2*v^2"), Rect(-1, 1, -1, 1)),
    (("u", "v", "0.1*u*v"), Rect(-1, 1, -1, 1)),
    (("(2+0.75*cos(u))*cos(v)", "(2+0.75*cos(u))*sin(v)", "0.75*sin(u)"),
     Rect(0, 2 * math.pi, 0, 2 * math.pi)),
    # EG - F^2 vanishes at u = 0 (between the probe grid's nodes): every
    # evaluation there divides by zero
    (("u^3", "v", "u^2 + v^2"), Rect(-1, 1.1, -1, 1)),
    # a graph chart whose sqrt fails outside the unit disc
    (("u", "v", "sqrt(1 - u^2 - v^2)"), Rect(-0.6, 0.6, -0.6, 0.6)),
])
def test_face_systems_equal_their_forms_on_charts_with_literals(xyz, domain):
    # graph charts have literal frame values (su = (1, 0, z_u)), whose
    # folds the formula must see; axis points give signed zeros
    patch = SurfacePatch.from_strings(*xyz, domain, name=xyz[2])
    points = _random_points(patch, 40, 7) + [
        (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (-0.0, 0.0), (0.0, -0.0),
        (1.0, 0.5)]
    _assert_faces_equal_their_forms([patch], points)


def test_face_systems_fail_as_their_forms_do():
    # the error type and message at a failing point, by each route
    patch = SurfacePatch.from_strings("u^3", "v", "u^2 + v^2",
                                      Rect(-1, 1.1, -1, 1))
    form = curvature_line_bde(patch)
    composed = geometry._CurvatureLineSystem(
        patch.domain, form=form, patch=patch,
        formula=geometry._CurvatureFormula())
    for system in (ProjectiveSystem(patch.domain, form=form), composed):
        with pytest.raises(DomainError, match=r"^coefficient evaluation "
                           r"failed at \(0.0, 0.5\): float division by "
                           r"zero$"):
            system.component_values(0.0, 0.5)
        with pytest.raises(DomainError, match=r"^Jacobian evaluation "
                           r"failed at \(0.0, 0.5\): float division by "
                           r"zero$"):
            system.residual_vector(0.0, 0.5)


def test_frame_grids_in_blocks_equal_one_call_on_the_grid():
    # a grid of several blocks of rows, as the order-128 quadrature of
    # sphere_meridian_field is: every value is the one that a single call
    # of the frame code on the whole grid gives, to the bit
    for wp in stereographic_sphere() + torus_patch():
        patch = wp.patch
        U = np.linspace(patch.domain.xmin, patch.domain.xmax, 128)
        V = np.linspace(patch.domain.ymin, patch.domain.ymax, 97)
        assert len(U) * len(V) > 4 * geometry.FRAME_BLOCK
        UU, VV = np.meshgrid(U, V, indexing="ij")
        su, sv, suu, suv, svv = expr.stack_vec(
            patch._frame_fn.vector(UU, VV), UU.shape).reshape(5, 3, *UU.shape)
        n = np.cross(su, sv, axis=0)
        want = {"E": (su, su), "F": (su, sv), "G": (sv, sv), "W2": (n, n),
                "Lt": (n, suu), "Mt": (n, suv), "Nt": (n, svv)}
        got = patch._frame_grids(U, V)
        for key, (a, b) in want.items():
            assert np.array_equal(got[key], np.einsum("kij,kij->ij", a, b)), key
