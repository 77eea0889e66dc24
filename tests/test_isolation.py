"""A singular point's loop must hold that point alone.  The isolation
radius is geometric, so two zeros closer than the scan's grid spacing can
come out as one point whose loop encloses both; the degree check on the
tracked loop must then end the run with exit 2, never with a wrong answer
at exit 0.  Planted pairs are built as the plane benchmark builds its
systems, with the benchmark's own construction and oracle."""

import importlib.util
import json
import math
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monoweb.cli import load_problem, main, run_analyze
from monoweb.fiber import NonIsolatedZero, SingularPoint
from monoweb.index import index_report
from monoweb.monodromy import LoopSpec

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def _perfbench(name):
    """A module of the benchmark, loaded without touching it."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


workloads = _perfbench("workloads")
oracle = _perfbench("oracle")


def test_two_zeros_inside_one_loop_exit_2(tmp_path, capsys):
    # v = z (z - 0.1): the scan finds one zero, whose loop of radius 0.9
    # also holds the other; it used to exit 0 with one point of index 2
    out = tmp_path / "report.json"
    assert main(["analyze", str(PROBLEMS / "close_zeros_circle.json"),
                 "-o", str(out)]) == 2
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["singular_point_count"] == 1
    assert report["singular_points"] == []
    assert report["error"] == {
        "type": "NonIsolatedZero",
        "message": "the loop of radius 0.9 around (4.81482486096809e-35, "
                   "0.0) winds 2 times, but the point's local degree is 1: "
                   "another zero lies inside the loop"}


@pytest.mark.parametrize("orientation", [1, -1])
def test_index_report_checks_its_loop(orientation):
    # the library entry point runs the same check: a loop around both
    # zeros fails, a loop around the origin alone reads index 1
    sys_ = load_problem(str(PROBLEMS / "close_zeros_circle.json")).system
    sp = SingularPoint(0.0, 0.0, isolation_radius=1.8, residual=0.0)
    with pytest.raises(NonIsolatedZero, match="winds 2 times, but the point's local degree is 1"):
        index_report(sys_, sp, LoopSpec(sp.position, 0.5,
                                        orientation=orientation))
    report = index_report(sys_, sp, LoopSpec(sp.position, 0.05,
                                             orientation=orientation))
    assert report.total_index == orientation


def _planted(kind, zeros, conjs, sheets):
    """The problem document of a plane benchmark system of ``kind`` with
    the zeros ``zeros`` (z - z_k, or its conjugate where ``conjs`` says),
    and the answer it must give, as ``workloads`` builds both."""
    p, q = workloads._product(zeros, conjs)
    sign = [-1 if cj else 1 for cj in conjs]
    if kind == "projective":
        system = {"type": "projective", "degree": 2,
                  "coefficients": [f"-{q}", f"2*{p}", q]}
        points = [(Fraction(2 * s), [1, 1]) for s in sign]
    elif kind == "circle":
        system = {"type": "circle", "sheets": sheets, "numerator": [p, q]}
        points = [(Fraction(s, sheets), [sheets]) for s in sign]
    else:
        system = {"type": "punctured_plane", "degree": sheets + 1,
                  "coefficients": [[f"-{p}", f"-{q}"]]
                  + [["0", "0"]] * sheets + [["1", "0"]]}
        points = [(Fraction(s, sheets + 1), [sheets + 1]) for s in sign]
    doc = {"version": 1, "domain": workloads._DOMAIN, "system": system}
    return doc, {"code": 0, "points": [
        {"at": z, "total": total, "sizes": sizes}
        for z, (total, sizes) in zip(zeros, points)]}


# two zeros on the 0.01 lattice of the benchmark's printed zeros, 0.4 or
# more inside [-2, 2]^2, from 0.05 to 0.4 apart
pair = st.tuples(st.integers(-160, 160), st.integers(-160, 160),
                 st.integers(-40, 40), st.integers(-40, 40)).filter(
    lambda t: 5 <= math.hypot(t[2], t[3]) <= 40
    and max(abs(t[0] + t[2]), abs(t[1] + t[3])) <= 160)


@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(kind=st.sampled_from(["projective", "circle", "punctured"]),
       pair=pair, conjs=st.tuples(st.booleans(), st.booleans()),
       sheets=st.integers(1, 3))
def test_planted_pairs_are_right_or_exit_2(tmp_path_factory, kind, pair,
                                           conjs, sheets):
    x, y, dx, dy = pair
    zeros = [(x / 100, y / 100), ((x + dx) / 100, (y + dy) / 100)]
    doc, expect = _planted(kind, zeros, list(conjs), sheets)
    path = tmp_path_factory.mktemp("pair") / "pair.json"
    path.write_text(json.dumps(doc))
    report, code = run_analyze(load_problem(str(path)))
    if code != 2:
        assert oracle.check_analyze(expect, code, json.dumps(report)) == []
