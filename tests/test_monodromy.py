import math

import pytest

from monoweb import monodromy
from monoweb.fiber import (BinaryForm, ComplexPoint, ProjectiveSystem, Rect,
                           RP1Angle)
from monoweb.monodromy import (
    AmbiguousMatching, LoopSpec, SingularOnLoop, StepCollapse, _match,
    orbit_lift, track_loop, transport_fiber,
)

from test_fiber import (cusp_cover_system, half_turn_circle_system,
                        lemon_system)

UNIT_LOOP = LoopSpec(center=(0.0, 0.0), radius=1.0)


def _compose(sigma, tau):
    return tuple(sigma[t] for t in tau)


def test_lemon_monodromy_trivial():
    res = track_loop(lemon_system(), UNIT_LOOP)
    assert res.is_identity()
    assert sorted(len(o) for o in res.orbits) == [1, 1]


def test_cusp_cover_three_cycle():
    res = track_loop(cusp_cover_system(), UNIT_LOOP)
    # canonical labels at z=1 sorted by argument: 0 -> w=1, 1 -> eps,
    # 2 -> eps^2; one positive loop sends 1 to eps^2, eps to 1, eps^2 to eps
    assert res.sigma == (2, 0, 1)
    assert res.orbits == ((0, 2, 1),)


def test_half_turn_circle_transposition():
    res = track_loop(half_turn_circle_system(), UNIT_LOOP)
    assert res.sigma == (1, 0)
    assert len(res.orbits) == 1 and len(res.orbits[0]) == 2


def test_cusp_cover_per_root_lift_formula():
    # the lift starting at w = 1 follows w(t) = exp(4/3 pi i t)
    res = track_loop(cusp_cover_system(), UNIT_LOOP)
    start = min(range(3), key=lambda i: abs(res.paths[i].lift[0]))
    path = res.paths[start]
    for t, lf, lm in zip(path.ts, path.lift, path.logmod):
        assert lf == pytest.approx(4 * math.pi * t / 3, abs=1e-9)
        assert lm == pytest.approx(0.0, abs=1e-9)


def test_bisection_engages_near_root_collision():
    # roots t = +-sqrt(s) with s ~ 1e-4 near loop angle 0: the movement
    # bound forces refinement there, and the permutation stays trivial
    from monoweb.fiber import BinaryForm, ProjectiveSystem, Rect
    sys = ProjectiveSystem(
        Rect(-3, 3, -3, 3),
        form=BinaryForm.from_strings(["-((x-1)^2 + y^2 + 0.0001)", "0", "1"]))
    res = track_loop(sys, UNIT_LOOP)
    assert res.depth_reached > 0
    assert res.samples_solved > 65
    assert res.is_identity()


def _collision_system():
    # the system of test_bisection_engages_near_root_collision
    return ProjectiveSystem(Rect(-3, 3, -3, 3), form=BinaryForm.from_strings(
        ["-((x-1)^2 + y^2 + 0.0001)", "0", "1"]))


@pytest.mark.parametrize("make", [lemon_system, cusp_cover_system,
                                  _collision_system])
def test_each_sample_separation_is_computed_once(monkeypatch, make):
    # matching reuses an accepted sample's separation at the next step,
    # bisected steps included
    calls = []

    def counted(roots):
        calls.append(roots)
        return separation(roots)
    separation = monodromy.min_root_separation
    monkeypatch.setattr(monodromy, "min_root_separation", counted)
    res = track_loop(make(), UNIT_LOOP)
    assert len(calls) == res.samples_solved


def test_orbit_lift_cusp_cover():
    res = track_loop(cusp_cover_system(), UNIT_LOOP)
    path = orbit_lift(res, res.orbits[0])
    # the C*-projection is homotopic to t -> exp(4 pi i t): argument lift
    # advances by 4 pi over the three traversals
    assert path.lift_change == pytest.approx(4 * math.pi, abs=1e-9)
    assert path.logmod[0] == pytest.approx(path.logmod[-1], abs=1e-9)
    assert path.ts[-1] == pytest.approx(3.0)


def test_orbit_lift_single_traversal():
    res = track_loop(lemon_system(), UNIT_LOOP)
    for orbit in res.orbits:
        path = orbit_lift(res, orbit)
        assert path.ts[-1] == pytest.approx(1.0)
        # each line field makes half a turn (lift change pi)
        assert path.lift_change == pytest.approx(math.pi, abs=1e-9)


def test_orbit_lift_half_turn_circle():
    res = track_loop(half_turn_circle_system(), UNIT_LOOP)
    path = orbit_lift(res, res.orbits[0])
    assert path.ts[-1] == pytest.approx(2.0)
    assert path.lift_change == pytest.approx(2 * math.pi, abs=1e-9)


def test_orientation_reversal_inverts_permutation():
    loop_pos = UNIT_LOOP
    loop_neg = LoopSpec(center=(0.0, 0.0), radius=1.0, orientation=-1)
    for sys in (cusp_cover_system(), half_turn_circle_system(),
                lemon_system()):
        s = track_loop(sys, loop_pos).sigma
        t = track_loop(sys, loop_neg).sigma
        assert _compose(s, t) == tuple(range(len(s)))
        assert _compose(t, s) == tuple(range(len(s)))


@pytest.mark.parametrize("make", [lemon_system, half_turn_circle_system,
                                  cusp_cover_system])
def test_transport_fiber_is_a_permutation(make):
    sys = make()
    there = transport_fiber(sys, (1.0, 0.5), (-0.5, -1.0))
    back = transport_fiber(sys, (-0.5, -1.0), (1.0, 0.5))
    assert sorted(there) == list(range(sys.sheet_count))
    assert _compose(back, there) == tuple(range(sys.sheet_count))


def test_match_follows_nearest_roots():
    prev = [RP1Angle(0.1), RP1Angle(1.6)]
    assert _match(prev, [RP1Angle(1.62), RP1Angle(0.11)], 0.5) == [1, 0]


def test_match_near_tie_raises():
    # distances 1 and 1 + 1e-12 from the one previous root
    prev = [ComplexPoint(1.0, 0.0)]
    new = [ComplexPoint(1.0, 1.0), ComplexPoint(1.0, -1.0 - 1e-12)]
    with pytest.raises(AmbiguousMatching, match="within 1e-9"):
        _match(prev, new, math.inf)


def test_match_shared_nearest_root_is_none():
    prev = [RP1Angle(0.1), RP1Angle(0.2)]
    assert _match(prev, [RP1Angle(0.15), RP1Angle(1.5)], math.inf) is None


def test_match_nearest_distance_at_bound_is_none():
    prev = [RP1Angle(0.0)]
    new = [RP1Angle(0.25), RP1Angle(1.5)]
    assert _match(prev, new, 0.25) is None
    assert _match(prev, new, math.nextafter(0.25, 1.0)) == [0]


def test_radius_independence_after_transport():
    sys = cusp_cover_system()
    r1, r2 = 0.4, 1.3
    s1 = track_loop(sys, LoopSpec((0.0, 0.0), r1)).sigma
    s2 = track_loop(sys, LoopSpec((0.0, 0.0), r2)).sigma
    beta = transport_fiber(sys, (r1, 0.0), (r2, 0.0))
    # conjugation by the radial transport: sigma2 = beta o sigma1 o beta^-1
    n = len(s1)
    beta_inv = [0] * n
    for i, b in enumerate(beta):
        beta_inv[b] = i
    conj = tuple(beta[s1[beta_inv[j]]] for j in range(n))
    assert conj == s2


def test_base_point_rotation_preserves_cycle_type():
    sys = half_turn_circle_system()
    for angle in (0.7, 2.1, 4.0):
        res = track_loop(sys, LoopSpec((0.0, 0.0), 1.0, start_angle=angle))
        assert sorted(len(o) for o in res.orbits) == [2]
    sys2 = cusp_cover_system()
    for angle in (0.9, 3.3):
        res = track_loop(sys2, LoopSpec((0.0, 0.0), 1.0, start_angle=angle))
        assert sorted(len(o) for o in res.orbits) == [3]


def test_sigma_power_k_fixes_orbit():
    res = track_loop(cusp_cover_system(), UNIT_LOOP)
    sigma = res.sigma
    for orbit in res.orbits:
        k = len(orbit)
        power = tuple(range(len(sigma)))
        for _ in range(k):
            power = _compose(sigma, power)
        for i in orbit:
            assert power[i] == i


def test_doubling_samples_stable():
    sys = cusp_cover_system()
    a = track_loop(sys, LoopSpec((0.0, 0.0), 1.0, samples=64))
    b = track_loop(sys, LoopSpec((0.0, 0.0), 1.0, samples=128))
    assert a.sigma == b.sigma


def test_loop_through_singular_point_fails():
    sys = lemon_system()
    # a loop centered away from the origin but passing through it
    with pytest.raises((SingularOnLoop, StepCollapse)):
        track_loop(sys, LoopSpec((0.5, 0.0), 0.5))


def test_lift_projects_back_to_roots():
    res = track_loop(half_turn_circle_system(), UNIT_LOOP)
    for path in res.paths:
        for root, lf in zip(path.roots, path.lift):
            assert (lf - root.psi) % (2 * math.pi) == pytest.approx(
                0.0, abs=1e-9) or (lf - root.psi) % (2 * math.pi) == \
                pytest.approx(2 * math.pi, abs=1e-9)


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec((0, 0), -1.0)
    with pytest.raises(ValueError):
        LoopSpec((0, 0), 1.0, orientation=2)
    with pytest.raises(ValueError):
        LoopSpec((0, 0), 1.0, samples=8)
