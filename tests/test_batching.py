"""Work that ``analyze`` batches by system must not depend on its
batch-mates.  Isolation rings and tracking loops solved together must end
bit for bit as they do solved one at a time, also where a batch's vector
evaluation fails and beside transcendental coefficients, whose numpy and
``math`` values can differ in the last bit.  An ``analyze`` makes one
``_fibers`` call per halving round of its isolation rings plus one per
tracking level, and its exit code, reports and error are those of
tracking the points one after another."""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb.cli import load_problem, main, run_analyze
from monoweb.expr import parse
from monoweb.fiber import (SEP_FLOOR, SINGULAR_TOL, BinaryForm, CircleSystem,
                           FiberSystem, NonIsolatedZero, ProjectiveSystem,
                           PuncturedPlaneSystem, Rect, _isolation_radii)
from monoweb.monodromy import LoopSpec, track_loop, track_loops

PROBLEMS = pathlib.Path(__file__).parent.parent / "problems"
SQ = Rect(-2.0, 2.0, -2.0, 2.0)
FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40,
                 suppress_health_check=[HealthCheck.too_slow])
SHIPPED = ("lemon", "cusp_cover", "half_turn_circle", "radial_circular",
           "quarter_turn_projective")


def _product(zeros):
    """(Re, Im) expression strings of the product of z - z_k."""
    re, im = "1", "0"
    for a, b in zeros:
        fr, fi = f"(x - ({a}))", f"(y - ({b}))"
        re, im = f"({re})*{fr} - ({im})*{fi}", f"({re})*{fi} + ({im})*{fr}"
    return re, im


def _seeded(kind, zeros, sheets=2):
    """A system of the kind the plane benchmark seeds: its singular points
    are ``zeros``."""
    re, im = _product(zeros)
    if kind == "projective":
        return ProjectiveSystem(SQ, form=BinaryForm.from_strings(
            [f"-({im})", f"2*({re})", im]))
    if kind == "circle":
        return CircleSystem(SQ, sheets=sheets, v_re=parse(re),
                            v_im=parse(im))
    zero = parse("0")
    return PuncturedPlaneSystem(SQ, degree_w=sheets, coeffs=(
        (parse(f"-({re})"), parse(f"-({im})")),
        *[(zero, zero)] * (sheets - 1), (parse("1"), zero)))


def _transcendental():
    """exp and sin, whose numpy values can differ from math's, beside
    1/x, whose vector call divides by zero on x = 0."""
    return ProjectiveSystem(SQ, form=BinaryForm.from_strings(
        ["y*exp(x) + 0*(1/x)", "-2*x*exp(sin(y))", "-y*exp(x)"]))


SYSTEMS = {
    **{name: (lambda name=name: load_problem(
        str(PROBLEMS / f"{name}.json")).system) for name in SHIPPED},
    "projective3": lambda: _seeded("projective",
                                   [(-1.1, 0.3), (0.2, -0.9), (1.0, 1.1)]),
    "circle3": lambda: _seeded("circle", [(-0.8, -0.8), (0.6, 0.1),
                                          (-0.3, 1.2)], sheets=3),
    "punctured2": lambda: _seeded("punctured", [(-0.7, 0.4), (0.9, -0.5)]),
    "transcendental": _transcendental,
}

coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.5]))
points = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=6)


def _described(fibers):
    """Each row's roots (where it has a fiber) and separation as bit
    patterns, and its error as text."""
    roots, sep, errors = fibers
    return [(None if e is not None else
             [(float(complex(v).real).hex(), float(complex(v).imag).hex())
              for v in row],
             float(s).hex(), None if e is None else f"{type(e).__name__}: {e}")
            for row, s, e in zip(roots.tolist(), sep.tolist(), errors)]


@FIXED
@given(name=st.sampled_from(sorted(SYSTEMS)),
       groups=st.lists(points, min_size=1, max_size=4))
def test_runs_solved_together_equal_runs_solved_alone(name, groups):
    sys_ = SYSTEMS[name]()
    together = sys_._fibers([p for g in groups for p in g], SINGULAR_TOL,
                            SEP_FLOOR)
    alone = [row for g in groups
             for row in _described(sys_._fibers(g, SINGULAR_TOL, SEP_FLOOR))]
    assert _described(together) == alone


def test_a_failing_vector_run_beside_a_transcendental_run():
    sys_ = _transcendental()
    divide = [(0.0, 0.5), (1.0, -0.5)]    # 1/x divides by zero
    exp = [(0.3 + 0.01 * k, -1.1 + 0.02 * k) for k in range(64)]
    with np.errstate(all="ignore"):
        vector = np.array(sys_._solve_fn.vector(*np.array(exp).T)).T
    scalar = np.array([sys_._solve_fn(x, y) for x, y in exp])
    assert (vector != scalar).any()   # the bits depend on who evaluates
    for groups in ([divide, exp], [exp, divide]):
        together = sys_._fibers([p for g in groups for p in g],
                                SINGULAR_TOL, SEP_FLOOR)
        assert _described(together) == [
            row for g in groups
            for row in _described(sys_._fibers(g, SINGULAR_TOL, SEP_FLOOR))]


def _outcome(result):
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return repr(result)


def _tracked_alone(sys_, loop):
    try:
        return _outcome(track_loop(sys_, loop))
    except Exception as e:   # the loop's own error
        return _outcome(e)


loops = st.lists(st.builds(
    LoopSpec, center=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    radius=st.sampled_from([0.05, 0.3, 0.5, 1.0]),
    samples=st.sampled_from([32, 48]), max_depth=st.sampled_from([0, 3]),
    start_angle=st.sampled_from([0.0, 1.0])), min_size=1, max_size=4)


@FIXED
@given(name=st.sampled_from(sorted(SYSTEMS)), loops=loops)
def test_loops_tracked_together_equal_loops_tracked_alone(name, loops):
    sys_ = SYSTEMS[name]()
    assert [_outcome(r) for r in track_loops(sys_, loops)] == [
        _tracked_alone(sys_, loop) for loop in loops]


def test_a_loop_through_a_division_by_zero_beside_transcendental_loops():
    sys_ = _transcendental()
    # t = 0.5 of the first loop is x = 0.0: its vector call divides by zero
    loops = [LoopSpec((0.5, 0.0), 0.5), LoopSpec((0.0, 0.0), 1.0),
             LoopSpec((1.0, 1.0), 0.3, max_depth=0)]
    together = [_outcome(r) for r in track_loops(sys_, loops)]
    assert together[0].startswith("DomainError: coefficient evaluation "
                                  "failed at (0.0, ")
    assert together == [_tracked_alone(sys_, loop) for loop in loops]


def _radius_alone(sys_, x, y, others, probe_angles=64):
    """One point's isolation ring, solved ring by ring."""
    d_near = min((math.hypot(x - ox, y - oy) for ox, oy in others),
                 default=math.inf)
    r = 0.9 * min(sys_.domain.boundary_distance(x, y), d_near / 2.0)
    if r <= 0.0:
        raise NonIsolatedZero(
            f"cannot probe isolation of ({x}, {y}): no room inside domain")
    angles = [2.0 * math.pi * k / probe_angles for k in range(probe_angles)]
    for _ in range(10):
        ring = [(x + r * math.cos(th), y + r * math.sin(th)) for th in angles]
        _, _, errors = sys_._fibers(ring, SINGULAR_TOL, SEP_FLOOR)
        if all(e is None for e in errors):
            return r
        r *= 0.5
        if r < 1e-8:
            break
    raise NonIsolatedZero(
        f"isolation probe failed for the zero near ({x}, {y})")


def _radii_alone(sys_, points):
    try:
        return [_radius_alone(sys_, x, y, points[:k] + points[k + 1:])
                for k, (x, y) in enumerate(points)]
    except NonIsolatedZero as e:
        return str(e)


@FIXED
@given(name=st.sampled_from(sorted(SYSTEMS)),
       points=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=1, max_size=4, unique=True))
def test_rings_solved_together_equal_rings_solved_alone(name, points):
    sys_ = SYSTEMS[name]()
    points = sorted(points)
    try:
        together = _isolation_radii(sys_, points, SINGULAR_TOL, SEP_FLOOR)
    except NonIsolatedZero as e:
        together = str(e)
    assert together == _radii_alone(sys_, points)


# --- work count ---------------------------------------------------------------


def _problem_file(tmp_path, system, **extra):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"version": 1,
                                "domain": {"x": [-2, 2], "y": [-2, 2]},
                                "system": system, **extra}))
    return str(path)


def _seeded_file(tmp_path, kind, zeros, sheets=2):
    re, im = _product(zeros)
    if kind == "projective":
        system = {"type": "projective", "degree": 2,
                  "coefficients": [f"-({im})", f"2*({re})", im]}
    elif kind == "circle":
        system = {"type": "circle", "sheets": sheets, "numerator": [re, im]}
    else:
        system = {"type": "punctured_plane", "degree": sheets,
                  "coefficients": [[f"-({re})", f"-({im})"]]
                  + [["0", "0"]] * (sheets - 1) + [["1", "0"]]}
    return _problem_file(tmp_path, system)


def _collision_file(tmp_path):
    """w^2 = z ((x - 1)^2 + y^2 + 1e-4): a singular point at the origin
    whose loop of radius 1 passes the near collision of the two roots at
    (1, 0)."""
    g = "((x - 1)^2 + y^2 + 0.0001)"
    return _problem_file(tmp_path, {
        "type": "punctured_plane", "degree": 2,
        "coefficients": [[f"-x*{g}", f"-y*{g}"], ["0", "0"], ["1", "0"]]},
        loop={"radius": 1.0})


THREE = [(-1.1, 0.3), (0.2, -0.9), (1.0, 1.1)]


@pytest.mark.parametrize("make", [
    *[(lambda tmp, name=name: str(PROBLEMS / f"{name}.json"))
      for name in SHIPPED],
    lambda tmp: _seeded_file(tmp, "projective", THREE),
    lambda tmp: _seeded_file(tmp, "circle", THREE, sheets=3),
    lambda tmp: _seeded_file(tmp, "punctured", THREE, sheets=4),
    # the first ring, of radius 1.8, meets the disc where evaluation fails
    lambda tmp: _with_bad_disc(tmp, [(0.0, 0.0)], ((1.8, 0.0), 0.05),
                               "auto"),
    # bisection at the near collision of test_bisection_engages_...
    lambda tmp: _collision_file(tmp),
], ids=[*SHIPPED, "projective3", "circle3", "punctured3", "halving",
        "bisection"])
def test_analyze_makes_one_fibers_call_per_round_and_level(
        tmp_path, monkeypatch, make):
    calls = []
    fibers = FiberSystem._fibers

    def counted(self, points, *args, **kwargs):
        calls.append(len(points))
        return fibers(self, points, *args, **kwargs)

    monkeypatch.setattr(FiberSystem, "_fibers", counted)
    report, code = run_analyze(load_problem(make(tmp_path)))
    assert code == 0 and "error" not in report
    points = report["singular_points"]
    positions = [tuple(map(float, p["position"])) for p in points]
    rounds = 0
    for k, (x, y) in enumerate(positions):
        d_near = min((math.hypot(x - ox, y - oy)
                      for j, (ox, oy) in enumerate(positions) if j != k),
                     default=math.inf)
        r0 = 0.9 * min(SQ.boundary_distance(x, y), d_near / 2.0)
        halvings = math.log2(r0 / float(points[k]["isolation_radius"]))
        assert halvings == round(halvings)
        rounds = max(rounds, round(halvings) + 1)
    levels = 1 + max(p["loop"]["refinement_depth_reached"] for p in points)
    assert len(calls) == rounds + levels
    if len(points) > 1 and rounds + levels == 2:
        assert len(calls) < 2 * len(points)   # one ring and loop per point


def test_the_work_count_cases_halve_and_bisect(tmp_path):
    halving = run_analyze(load_problem(_with_bad_disc(
        tmp_path, [(0.0, 0.0)], ((1.8, 0.0), 0.05), "auto")))[0]
    assert halving["singular_points"][0]["isolation_radius"] == "0.9"
    bisection = run_analyze(load_problem(_collision_file(tmp_path)))[0]
    assert bisection["singular_points"][0]["loop"][
        "refinement_depth_reached"] > 0


# --- error order --------------------------------------------------------------


def _with_bad_disc(tmp_path, zeros, disc, radius):
    """A circle system with zeros at ``zeros`` whose evaluation fails
    (sqrt of a negative) inside the small disc ``disc``."""
    re, im = _product(zeros)
    (cx, cy), rho = disc
    s = f"(1 + sqrt((x - ({cx}))^2 + (y - ({cy}))^2 - {rho}^2))"
    return _problem_file(tmp_path, {"type": "circle", "sheets": 1,
                                    "numerator": [f"({re})*{s}",
                                                  f"({im})*{s}"]},
                         loop={"radius": radius})


@pytest.mark.parametrize("zeros, disc, code, reported", [
    # point 2's loop of radius 0.25 meets the disc; point 3, 0.15 from the
    # boundary, has isolation radius 0.135, below the loop radius
    ([(-1.2, 0.0), (0.0, 0.0), (1.85, 0.0)], ((0.25, 0.0), 0.05), 2, 1),
    # point 2 (0.15 from the boundary) has the loop radius too large, and
    # point 3's loop meets the disc
    ([(-1.2, 0.0), (0.0, 1.85), (1.2, 0.0)], ((1.45, 0.0), 0.05), 1, None),
], ids=["tracking_first", "radius_first"])
def test_the_first_failing_point_decides(tmp_path, capsys, zeros, disc, code,
                                         reported):
    path = _with_bad_disc(tmp_path, zeros, disc, 0.25)
    out = tmp_path / "report.json"
    assert main(["analyze", path, "-o", str(out)]) == code
    err = capsys.readouterr().err
    if code == 1:
        assert not out.exists()
        assert err == ("monoweb: input error: loop radius 0.25 is not below "
                       "the probed isolation radius 0.13499999999999993\n")
        return
    report = json.loads(out.read_text())
    assert report["singular_point_count"] == 3
    assert len(report["singular_points"]) == reported
    assert report["error"] == {
        "type": "DomainError",
        "message": "coefficient evaluation failed at (0.25, "
                   "-1.793662034335766e-43): math domain error"}
