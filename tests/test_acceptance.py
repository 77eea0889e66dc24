"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``."""

import math
import pathlib
import random
import time
from fractions import Fraction

import numpy as np

from monoweb.expr import DomainError, compile_value, diff, eval_expr
from monoweb.cli import main as cli_main
from monoweb.fiber import (BinaryForm, CircleSystem, ProjectiveSystem,
                           PuncturedPlaneSystem, Rect, SingularPoint, parse)
from monoweb.geometry import integrate_gauss_curvature, verify_index_theorem
from monoweb.index import index_report, orbit_index
from monoweb.monodromy import LoopSpec, orbit_lift, track_loop, transport_fiber

from surfaces import (cube_face_ellipsoid, ellipsoid_umbilics,
                      stereographic_sphere, torus_patch)
from test_expr import _random_expr
from test_fiber import (cusp_cover_system, half_turn_circle_system,
                        lemon_system, radial_circular_system)

PROBLEMS = pathlib.Path(__file__).parent.parent / "problems"
ORIGIN = SingularPoint(0.0, 0.0, isolation_radius=1.8, residual=0.0)


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, num, name):
        self.num = num
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, et, ev, tb):
        status = "PASS" if et is None else "FAIL"
        print(f"ACCEPTANCE {self.num} ({self.name}): {status}")
        return False


def test_criterion_1_cusp_cover_exact():
    with criterion(1, "punctured-plane cusp cover, k=3 m=2, <1s"):
        sys_ = cusp_cover_system()
        t0 = time.perf_counter()
        rep = index_report(sys_, ORIGIN, LoopSpec((0.0, 0.0), 1.0))
        elapsed = time.perf_counter() - t0
        assert len(rep.orbit_reports) == 1
        orb = rep.orbit_reports[0]
        assert orb.size == 3 and isinstance(orb.size, int)
        assert orb.winding == 2 and isinstance(orb.winding, int)
        assert elapsed < 1.0


def test_criterion_2_half_angle_sections():
    with criterion(2, "half-angle pair: identity monodromy, 1/2 + 1/2"):
        res = track_loop(lemon_system(), LoopSpec((0.0, 0.0), 1.0))
        assert res.is_identity()
        assert sorted(len(o) for o in res.orbits) == [1, 1]
        rep = index_report(lemon_system(), ORIGIN, LoopSpec((0.0, 0.0), 1.0))
        assert sorted((o.size, o.winding) for o in rep.orbit_reports) == \
            [(1, 1), (1, 1)]
        assert [o.classical_line_index for o in rep.orbit_reports] == \
            [Fraction(1, 2), Fraction(1, 2)]
        # oracle: the closed-form sections have half-angle lifts
        # theta/2 and theta/2 + pi/2 over the loop angle theta
        starts = sorted(range(2), key=lambda i: res.paths[i].lift[0])
        worst = 0.0
        for offset, i in zip((0.0, math.pi / 2), starts):
            path = res.paths[i]
            for t, lf in zip(path.ts, path.lift):
                worst = max(worst, abs(lf - (math.pi * t + offset)))
        assert worst < 1e-6


def test_criterion_3_radial_circular_fields():
    with criterion(3, "factored radial/circular pair: two orbits k=1 m=2"):
        rep = index_report(radial_circular_system(), ORIGIN,
                           LoopSpec((0.0, 0.0), 1.0))
        assert sorted((o.size, o.winding) for o in rep.orbit_reports) == \
            [(1, 2), (1, 2)]
        res = rep.monodromy
        # oracle: explicit fields [x : y] and [-y : x], lift 2*pi*t (+pi/2)
        starts = sorted(range(2), key=lambda i: res.paths[i].lift[0])
        worst = 0.0
        for offset, i in zip((0.0, math.pi / 2), starts):
            path = res.paths[i]
            for t, lf in zip(path.ts, path.lift):
                worst = max(worst, abs(lf - (2 * math.pi * t + offset)))
        assert worst < 1e-6


def test_criterion_4_half_turn_circle():
    with criterion(4, "unit-vector half-turn cover: transposition, k=2 m=1"):
        res = track_loop(half_turn_circle_system(), LoopSpec((0.0, 0.0), 1.0))
        assert res.sigma == (1, 0)
        rep = index_report(half_turn_circle_system(), ORIGIN,
                           LoopSpec((0.0, 0.0), 1.0))
        assert [(o.size, o.winding) for o in rep.orbit_reports] == [(2, 1)]
        # oracle: w(theta) = exp(i theta / 2)
        path = orbit_lift(res, res.orbits[0])
        worst = max(abs(lf - math.pi * t)
                    for t, lf in zip(path.ts, path.lift))
        assert worst < 1e-6


def test_criterion_5_quarter_turn_discrepancy(tmp_path):
    with criterion(5, "projectivized quarter-turn: computed values + note"):
        out = tmp_path / "report.json"
        code = cli_main(["analyze",
                         str(PROBLEMS / "quarter_turn_projective.json"),
                         "-o", str(out)])
        assert code == 0
        import json
        report = json.loads(out.read_text())
        assert any("Discrepancy" in n for n in report["notes"])
        point = report["singular_points"][0]
        # only internal invariants of the computed result are asserted
        perm = point["monodromy"]["permutation"]
        assert sorted(perm) == [1, 2]
        for orb in point["orbits"]:
            assert float(orb["closure_defect"]) < 1e-6 * math.pi
        sizes = sorted(o["size"] for o in point["orbits"])
        assert sum(sizes) == 2


def test_criterion_6_ellipsoid_theorem():
    with criterion(6, "ellipsoid (3,2,1) index-sum identity"):
        t0 = time.perf_counter()
        report = verify_index_theorem(cube_face_ellipsoid(),
                                      quadrature_order=32, grid_density=32)
        elapsed = time.perf_counter() - t0
        assert len(report.point_records) == 4
        found = sorted(rec.position3 for rec in report.point_records)
        expected = sorted(ellipsoid_umbilics())
        for f, e in zip(found, expected):
            assert np.allclose(f, e, atol=1e-6)
        for rec in report.point_records:
            assert rec.report.uniform_orbit_size == 1
            assert rec.report.total_index == Fraction(2)
        assert report.rhs == Fraction(8)
        assert abs(report.lhs - 8.0) < 1e-3
        assert elapsed < 30.0


def _case_systems():
    zero = parse("0")
    sq = Rect(-2.0, 2.0, -2.0, 2.0)
    # z^2 = w^4: two orbits of size 2, winding 1 each
    quartic = PuncturedPlaneSystem(
        sq, degree_w=4,
        coeffs=((parse("-(x^2 - y^2)"), parse("-2*x*y")),
                (zero, zero), (zero, zero), (zero, zero),
                (parse("1"), zero)))
    third_circle = CircleSystem(sq, sheets=3, v_re=parse("x"),
                                v_im=parse("y"))
    radial_line = ProjectiveSystem(sq, form=BinaryForm.from_strings(
        ["y", "-x"]))
    return [lemon_system(), radial_circular_system(), cusp_cover_system(),
            quartic, half_turn_circle_system(), third_circle, radial_line]


def _orbit_data(sys_, loop):
    res = track_loop(sys_, loop)
    data = sorted((orbit_index(res, orb).size, orbit_index(res, orb).winding)
                  for orb in res.orbits)
    return res, data


def test_criterion_7_invariance_suite():
    with criterion(7, "randomized invariance suite (>= 50 cases)"):
        rng = random.Random(987123)
        systems = _case_systems()
        tracking_cases = 0
        for _ in range(18):
            sys_ = systems[rng.randrange(len(systems))]
            r1 = rng.uniform(0.3, 1.2)
            start = rng.uniform(0.0, 2 * math.pi)
            loop1 = LoopSpec((0.0, 0.0), r1, start_angle=start)
            res1, data1 = _orbit_data(sys_, loop1)

            # (a) radius invariance after transporting the base fiber
            r2 = min(1.7, r1 * rng.uniform(1.2, 1.6))
            loop2 = LoopSpec((0.0, 0.0), r2, start_angle=start)
            res2, data2 = _orbit_data(sys_, loop2)
            assert data1 == data2
            p1 = loop1.base_point
            p2 = loop2.base_point
            beta = transport_fiber(sys_, p1, p2)
            beta_inv = [0] * len(beta)
            for i, b in enumerate(beta):
                beta_inv[b] = i
            conj = tuple(beta[res1.sigma[beta_inv[j]]]
                         for j in range(len(beta)))
            assert conj == res2.sigma
            tracking_cases += 1

            # (b) orientation reversal inverts sigma and negates winding
            loop_m = LoopSpec((0.0, 0.0), r1, orientation=-1,
                              start_angle=start)
            res_m, data_m = _orbit_data(sys_, loop_m)
            n = len(res1.sigma)
            assert tuple(res_m.sigma[res1.sigma[i]] for i in range(n)) == \
                tuple(range(n))
            assert data_m == sorted((k, -m) for k, m in data1)
            tracking_cases += 1

            # (c) doubling the sample density changes nothing
            loop_d = LoopSpec((0.0, 0.0), r1, samples=128, start_angle=start)
            res_d, data_d = _orbit_data(sys_, loop_d)
            assert res_d.sigma == res1.sigma
            assert data_d == data1
            tracking_cases += 1

            # (d) positive rescaling of a projective form changes nothing
            if isinstance(sys_, ProjectiveSystem):
                c1 = rng.uniform(-0.5, 0.5)
                c2 = rng.uniform(-0.5, 0.5)
                lam = parse(f"exp({c1:.6f}*x + {c2:.6f}*y)")
                scaled = ProjectiveSystem(sys_.domain,
                                          form=sys_.form.scaled(lam))
                res_s, data_s = _orbit_data(scaled, loop1)
                assert res_s.sigma == res1.sigma
                assert data_s == data1
                tracking_cases += 1

        # (e) compiled symbolic derivatives against central differences
        ad_cases = 0
        attempts = 0
        while ad_cases < 50 and attempts < 500:
            attempts += 1
            e = _random_expr(rng, rng.randint(1, 4))
            x = rng.uniform(-2, 2)
            y = rng.uniform(-2, 2)
            h = 1e-6
            try:
                dx, dy = compile_value(diff(e, "x"), diff(e, "y"))(x, y)
                fdx = (eval_expr(e, x + h, y) - eval_expr(e, x - h, y)) / (2 * h)
                fdy = (eval_expr(e, x, y + h) - eval_expr(e, x, y - h)) / (2 * h)
            except (ArithmeticError, ValueError, DomainError):
                continue
            if not all(math.isfinite(t) for t in (dx, dy, fdx, fdy)):
                continue
            scale = max(abs(dx), abs(dy), 1.0)
            if scale > 1e5:
                continue
            assert abs(dx - fdx) <= 1e-6 * scale * 10
            assert abs(dy - fdy) <= 1e-6 * scale * 10
            ad_cases += 1

        assert tracking_cases >= 50
        assert ad_cases >= 50


def test_criterion_8_gauss_bonnet_oracle():
    with criterion(8, "Gauss-Bonnet oracle: sphere 4*pi, torus 0"):
        value, _ = integrate_gauss_curvature(stereographic_sphere(),
                                             quadrature_order=128)
        assert abs(value - 4 * math.pi) < 1e-6
        value_t, _ = integrate_gauss_curvature(torus_patch(),
                                               quadrature_order=32)
        assert abs(value_t) < 1e-9
