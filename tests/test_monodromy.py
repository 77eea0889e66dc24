import hashlib
import math

import numpy as np
import pytest

from monoweb.fiber import BinaryForm, FiberKind, ProjectiveSystem, Rect
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
                                  half_turn_circle_system, _collision_system])
def test_each_sample_separation_is_computed_once(monkeypatch, make):
    # the kernels compute each solved point's separation once, and
    # matching reuses it: one kernel call for the samples and one for the
    # midpoints of each refinement level, and every point solved is kept
    rows = []
    separation = FiberKind.separation

    def counted(kind, R):
        rows.append(len(R))
        return separation(kind, R)
    monkeypatch.setattr(FiberKind, "separation", counted)
    res = track_loop(make(), UNIT_LOOP)
    assert rows == ([65, 2, 2, 2] if make is _collision_system else [65])
    assert res.samples_solved == sum(rows) == len(res.paths[0].ts)


def _digest(key):
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, digest", [
    (lemon_system, "65ea43a8dfa5927c"),
    (cusp_cover_system, "2509ded04522a5fc"),
    (half_turn_circle_system, "9f0ba57c9d1bb62c"),
    (_collision_system, "0aa8f5e5de5f17de")])
def test_tracking_is_pinned_to_the_bit(make, digest):
    # the permutation, the work counters and every accepted parameter,
    # lift and log-modulus, as Python floats
    res = track_loop(make(), UNIT_LOOP)
    key = (res.sigma, res.samples_solved, res.depth_reached,
           [p.ts for p in res.paths], [p.lift for p in res.paths],
           [p.logmod for p in res.paths])
    assert _digest(key) == digest
    for p in res.paths:
        for values in (p.ts, p.lift, p.logmod or ()):
            assert type(values) is tuple
            assert all(type(v) is float for v in values)
    if make is _collision_system:
        assert (res.samples_solved, res.depth_reached,
                len(res.paths[0].ts)) == (71, 3, 71)
        # batching the refinement moved only the solve count, which read
        # 77 when each return to a stored point counted as a solve
        assert _digest((key[0], 77) + key[2:]) == "ac93cbb4ca53525e"


@pytest.mark.parametrize("make, loop, error, message", [
    (_collision_system, LoopSpec((0.0, 0.0), 1.0, max_depth=0),
     StepCollapse, "step 0 -> 0.015625 could not be refined further"),
    (_collision_system, LoopSpec((0.0, 0.0), 1.0, max_depth=2),
     StepCollapse, "step 0 -> 0.00390625 could not be refined further"),
    (cusp_cover_system, LoopSpec((0.5, 0.0), 0.5, samples=33, max_depth=0),
     StepCollapse, "step 0.454545 -> 0.484848 could not be refined further"),
    (lemon_system, LoopSpec((0.5, 0.0), 0.5),
     SingularOnLoop, "singular fiber at t=0.5, point (0.0, "
                     "6.123233995736766e-17): all form coefficients "
                     "vanish")])
def test_failing_loops_are_pinned(make, loop, error, message):
    # the first failure along the loop, with its type and message
    with pytest.raises(error) as exc:
        track_loop(make(), loop)
    assert type(exc.value) is error
    assert str(exc.value).startswith(message)


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


def _match_row(kind, prev, new, bound):
    """``_match`` on one step: the order as a list, and the verdict."""
    [order], [verdict] = _match(kind, np.array([prev]), np.array([new]),
                                bound)
    return order.tolist(), verdict


RP1 = FiberKind.PROJECTIVE


def test_match_follows_nearest_roots():
    assert _match_row(RP1, [0.1, 1.6], [1.62, 0.11], 0.5) == ([1, 0], True)


def test_match_near_tie_raises():
    # distances 1 and 1 + 1e-12 from the one previous root
    _, verdict = _match_row(FiberKind.PUNCTURED_PLANE, [1.0 + 0.0j],
                            [1.0 + 1.0j, 1.0 - (1.0 + 1e-12) * 1j],
                            math.inf)
    with pytest.raises(AmbiguousMatching, match="within 1e-9"):
        raise verdict


def test_match_shared_nearest_root_is_none():
    _, verdict = _match_row(RP1, [0.1, 0.2], [0.15, 1.5], math.inf)
    assert verdict is False


def test_match_nearest_distance_at_bound_is_none():
    assert _match_row(RP1, [0.0], [0.25, 1.5], 0.25)[1] is False
    assert _match_row(RP1, [0.0], [0.25, 1.5],
                      math.nextafter(0.25, 1.0)) == ([0], True)


def test_match_steps_at_once_as_one_at_a_time():
    # in the first two steps one root shares another's nearest root and
    # one has a near tie: the first failing root in row order decides
    prev = [[0.1, 0.2, 1.0], [1.0, 0.1, 0.2], [0.1, 0.3, 2.0]]
    new = [[0.15, 1.0 + 1e-12, 1.0 - 1e-12]] * 2 + [[0.11, 0.31, 2.01]]
    bound = np.array([math.inf, math.inf, 0.5])
    order, verdict = _match(RP1, np.array(prev), np.array(new), bound)
    assert verdict[0] is False and verdict[2] is True
    assert isinstance(verdict[1], AmbiguousMatching)
    for s in range(3):
        got = _match_row(RP1, prev[s], new[s], bound[s])
        assert got[0] == order[s].tolist()
        assert type(got[1]) is type(verdict[s])


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
            assert (lf - root) % (2 * math.pi) == pytest.approx(
                0.0, abs=1e-9) or (lf - root) % (2 * math.pi) == \
                pytest.approx(2 * math.pi, abs=1e-9)


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec((0, 0), -1.0)
    for center, radius in (((0, 0), math.nan), ((0, 0), math.inf),
                           ((math.nan, 0), 1.0), ((0, -math.inf), 1.0)):
        with pytest.raises(ValueError):
            LoopSpec(center, radius)
    with pytest.raises(ValueError):
        LoopSpec((0, 0), 1.0, orientation=2)
    with pytest.raises(ValueError):
        LoopSpec((0, 0), 1.0, samples=8)
