import math
from fractions import Fraction

import pytest

from monoweb.fiber import FiberKind, SingularPoint, find_singularities
from monoweb.index import (
    ClosureDefectTooLarge, OpenPath, WrongFiber,
    alternative_normalizations, index_report, winding_class,
)
from monoweb.monodromy import LoopSpec, TrackedPath, orbit_lift, track_loop

from test_fiber import (cusp_cover_system, half_turn_circle_system,
                        lemon_system, radial_circular_system)

ORIGIN = SingularPoint(0.0, 0.0, isolation_radius=1.8, residual=0.0)
UNIT_LOOP = LoopSpec((0.0, 0.0), 1.0)


def test_winding_cusp_cover():
    res = track_loop(cusp_cover_system(), UNIT_LOOP)
    path = orbit_lift(res, res.orbits[0])
    assert winding_class(path) == 2


def test_winding_constant_path():
    path = TrackedPath(FiberKind.CIRCLE,
                       ts=(0.0, 0.5, 1.0),
                       roots=(1.0,) * 3,
                       lift=(1.0, 1.0, 1.0))
    assert winding_class(path) == 0


def test_winding_half_turn_circle():
    res = track_loop(half_turn_circle_system(), UNIT_LOOP)
    path = orbit_lift(res, res.orbits[0])
    assert winding_class(path) == 1


def test_winding_open_path_rejected():
    path = TrackedPath(FiberKind.CIRCLE,
                       ts=(0.0, 1.0),
                       roots=(0.0, 1.0),
                       lift=(0.0, 1.0))
    with pytest.raises(OpenPath):
        winding_class(path)


def test_winding_defect_rejected():
    path = TrackedPath(FiberKind.CIRCLE,
                       ts=(0.0, 1.0),
                       roots=(0.0, 1e-7),
                       lift=(0.0, 1e-4))
    with pytest.raises(ClosureDefectTooLarge):
        winding_class(path)


def test_index_report_lemon():
    rep = index_report(lemon_system(), ORIGIN, UNIT_LOOP)
    assert len(rep.orbit_reports) == 2
    for orb in rep.orbit_reports:
        assert (orb.size, orb.winding) == (1, 1)
        assert orb.classical_line_index == Fraction(1, 2)
        assert orb.closure_defect < 1e-9
    assert rep.total_index == Fraction(2)
    assert rep.uniform_orbit_size == 1


def test_index_report_radial_circular():
    rep = index_report(radial_circular_system(), ORIGIN, UNIT_LOOP)
    assert len(rep.orbit_reports) == 2
    for orb in rep.orbit_reports:
        assert (orb.size, orb.winding) == (1, 2)
        assert orb.classical_line_index == Fraction(1)
    assert rep.total_index == Fraction(4)


def test_index_report_cusp_cover():
    rep = index_report(cusp_cover_system(), ORIGIN, UNIT_LOOP)
    assert len(rep.orbit_reports) == 1
    orb = rep.orbit_reports[0]
    assert (orb.size, orb.winding) == (3, 2)
    assert orb.normalized_index == Fraction(2, 3)
    assert rep.total_index == Fraction(2, 3)
    assert rep.uniform_orbit_size == 3


def test_lemon_against_closed_form_sections():
    # oracle: the sections [x + sqrt(x^2+y^2) : y] and [-y : x + sqrt(...)],
    # which have half-angle form phi = theta/2 (+ pi/2 for the second)
    res = track_loop(lemon_system(), UNIT_LOOP)
    starts = sorted(range(2), key=lambda i: res.paths[i].lift[0])
    for offset, i in zip((0.0, math.pi / 2), starts):
        path = res.paths[i]
        for t, lf in zip(path.ts, path.lift):
            theta = 2 * math.pi * t
            assert lf == pytest.approx(theta / 2 + offset, abs=1e-6)


def test_radial_circular_against_explicit_fields():
    # oracle: the radial field [x : y] and the circular field [-y : x];
    # both turn by 2 pi per loop
    res = track_loop(radial_circular_system(), UNIT_LOOP)
    starts = sorted(range(2), key=lambda i: res.paths[i].lift[0])
    for offset, i in zip((0.0, math.pi / 2), starts):
        path = res.paths[i]
        for t, lf in zip(path.ts, path.lift):
            theta = 2 * math.pi * t
            assert lf == pytest.approx(theta + offset, abs=1e-6)


def test_half_turn_oracle():
    # oracle: w(theta) = exp(i theta / 2) over theta in [0, 4 pi]
    res = track_loop(half_turn_circle_system(), UNIT_LOOP)
    path = orbit_lift(res, res.orbits[0])
    for t, lf in zip(path.ts, path.lift):
        assert lf == pytest.approx((2 * math.pi * t) / 2, abs=1e-6)


def test_alternative_normalizations_lemon():
    rep = index_report(lemon_system(), ORIGIN, UNIT_LOOP)
    norms = alternative_normalizations(rep.orbit_reports[0], degree=2)
    assert norms.classical_line_index == Fraction(1, 2)
    assert norms.fukui_index == Fraction(1, 4)


def test_alternative_normalizations_radial():
    rep = index_report(radial_circular_system(), ORIGIN, UNIT_LOOP)
    norms = alternative_normalizations(rep.orbit_reports[0], degree=2)
    assert norms.classical_line_index == Fraction(1)
    assert norms.fukui_index == Fraction(1, 2)


def test_alternative_normalizations_zero_winding():
    # constant-direction web: zero winding, all normalizations zero
    from monoweb.fiber import BinaryForm, ProjectiveSystem, Rect
    sys = ProjectiveSystem(Rect(-2, 2, -2, 2),
                           form=BinaryForm.from_strings(["0", "1", "0"]))
    sp = SingularPoint(0.0, 0.0, isolation_radius=2.0, residual=0.0)
    rep = index_report(sys, sp, UNIT_LOOP)
    for orb in rep.orbit_reports:
        assert orb.winding == 0
        norms = alternative_normalizations(orb, degree=2)
        assert norms.classical_line_index == 0
        assert norms.fukui_index == 0


def test_wrong_fiber_rejected():
    rep = index_report(cusp_cover_system(), ORIGIN, UNIT_LOOP)
    with pytest.raises(WrongFiber):
        alternative_normalizations(rep.orbit_reports[0], degree=3)


def test_radius_invariance_of_winding():
    sys = cusp_cover_system()
    sp = ORIGIN
    for r in (0.3, 0.7, 1.2):
        rep = index_report(sys, sp, LoopSpec((0.0, 0.0), r))
        assert [(o.size, o.winding) for o in rep.orbit_reports] == [(3, 2)]


def test_orientation_reversal_negates_winding():
    sys = cusp_cover_system()
    rep = index_report(sys, ORIGIN, LoopSpec((0.0, 0.0), 1.0,
                                             orientation=-1))
    assert [(o.size, o.winding) for o in rep.orbit_reports] == [(3, -2)]
    rep2 = index_report(lemon_system(), ORIGIN,
                        LoopSpec((0.0, 0.0), 1.0, orientation=-1))
    assert rep2.total_index == Fraction(-2)


def test_base_point_invariance_of_multiset():
    sys = half_turn_circle_system()
    expected = [(2, 1)]
    for angle in (0.5, 1.7, 3.9):
        rep = index_report(sys, ORIGIN,
                           LoopSpec((0.0, 0.0), 1.0, start_angle=angle))
        assert [(o.size, o.winding) for o in rep.orbit_reports] == expected


def test_loop_radius_validated_against_isolation():
    sp = SingularPoint(0.0, 0.0, isolation_radius=0.5, residual=0.0)
    with pytest.raises(ValueError):
        index_report(lemon_system(), sp, LoopSpec((0.0, 0.0), 0.8))


def test_auto_loop_uses_half_isolation():
    pts = find_singularities(lemon_system(), grid_density=16)
    rep = index_report(lemon_system(), pts[0])
    assert rep.total_index == Fraction(2)
    assert rep.monodromy.loop.radius == pytest.approx(
        pts[0].isolation_radius / 2)
