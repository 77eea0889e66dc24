import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import monoweb
from monoweb import cli, geometry
from monoweb.cli import InputError, load_problem, main, render_svg
from monoweb.expr import DomainError
from monoweb.fiber import FiberError, ProjectiveSystem, find_singularities

PROBLEMS = pathlib.Path(__file__).parent.parent / "problems"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_analyze_lemon(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / "lemon.json"), "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert report["singular_point_count"] == 1
    point = report["singular_points"][0]
    assert point["total_index"] == {"num": 2, "den": 1}
    assert point["monodromy"]["permutation"] == [1, 2]
    assert [o["classical_line_index"] for o in point["orbits"]] == \
        [{"num": 1, "den": 2}, {"num": 1, "den": 2}]


def test_analyze_lemon_times_negative_integer_power(tmp_path):
    # (x-3)^(-2) > 0 on the domain scales every coefficient without
    # changing the line field; its base is negative everywhere there
    doc = _read(PROBLEMS / "lemon.json")
    doc["system"]["coefficients"] = [
        f"({c})*(x-3)^(-2)" for c in doc["system"]["coefficients"]]
    prob = tmp_path / "scaled.json"
    prob.write_text(json.dumps(doc))
    reports = []
    for path, name in [(PROBLEMS / "lemon.json", "lemon"), (prob, "scaled")]:
        out = tmp_path / f"{name}.report.json"
        assert main(["analyze", str(path), "-o", str(out)]) == 0
        reports.append(_read(out))
    for report in reports:
        assert report["singular_point_count"] == 1
        point = report["singular_points"][0]
        assert [round(float(t), 9) for t in point["position"]] == [0.0, 0.0]
    assert reports[1]["singular_points"][0]["total_index"] == \
        reports[0]["singular_points"][0]["total_index"]


def test_analyze_cusp_cover(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / "cusp_cover.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    orbits = report["singular_points"][0]["orbits"]
    assert len(orbits) == 1
    assert orbits[0]["size"] == 3
    assert orbits[0]["winding"] == 2
    assert orbits[0]["normalized_index"] == {"num": 2, "den": 3}


def test_analyze_half_turn_circle(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / "half_turn_circle.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    orbits = report["singular_points"][0]["orbits"]
    assert [(o["size"], o["winding"]) for o in orbits] == [(2, 1)]
    assert report["singular_points"][0]["monodromy"]["permutation"] == [2, 1]


def test_analyze_radius_beyond_isolation_is_input_error(tmp_path):
    doc = _read(PROBLEMS / "lemon.json")
    doc["loop"]["radius"] = 5.0
    prob = tmp_path / "big_radius.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["analyze", str(prob), "-o", str(out)])
    assert code == 1
    assert not out.exists()


def test_analyze_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "report.json"
    code = main(["analyze", str(bad), "-o", str(out)])
    assert code == 1
    assert not out.exists()


def test_analyze_missing_file(tmp_path):
    code = main(["analyze", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "r.json")])
    assert code == 1


def test_quarter_turn_note_carried(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / "quarter_turn_projective.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert any("Discrepancy" in note for note in report["notes"])
    point = report["singular_points"][0]
    assert point["monodromy"]["permutation"] == [1, 2]
    for orb in point["orbits"]:
        assert orb["size"] == 1 and orb["winding"] == 1


def test_verify_theorem_ellipsoid(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-theorem", str(PROBLEMS / "ellipsoid_321.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert report["rhs_index_sum"] == {"num": 8, "den": 1}
    assert report["identity_ok"] is True
    assert report["hypothesis_ok"] is True
    assert abs(float(report["lhs_curvature_side"]) - 8.0) < 1e-3
    assert len(report["singular_points"]) == 4


def test_verify_theorem_torus(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-theorem", str(PROBLEMS / "torus_constant_web.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert report["rhs_index_sum"] == {"num": 0, "den": 1}
    assert abs(float(report["lhs_curvature_side"])) < 1e-9
    assert report["singular_points"] == []


def test_verify_theorem_weight_domain_error(tmp_path, capsys):
    # log(u - 3) is undefined on part of the patch; the partition check
    # meets it first and must report it, not end in a traceback
    prob = tmp_path / "torus.json"
    prob.write_text(json.dumps(_surface_with(
        "torus_constant_web.json", {"weight": "1 + 0*log(u - 3)"})))
    out = tmp_path / "report.json"
    assert main(["verify-theorem", str(prob), "-o", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    report = _read(out)
    assert report["error"]["type"] == "DomainError"
    assert "weight evaluation" in report["error"]["message"]


def test_verify_theorem_all_umbilic_sphere(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-theorem", str(PROBLEMS / "sphere_all_umbilic.json"),
                 "-o", str(out)])
    assert code == 2
    report = _read(out)
    assert report["error"]["type"] == "NonIsolatedZero"


def test_verify_theorem_sphere_meridian(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-theorem",
                 str(PROBLEMS / "sphere_meridian_field.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert report["sheet_count"] == 1
    assert report["rhs_index_sum"] == {"num": 4, "den": 1}
    assert abs(float(report["lhs_curvature_side"]) - 4.0) < 1e-3
    assert len(report["singular_points"]) == 2


def test_verify_theorem_identity_violation_exits_3(tmp_path):
    # a line field declared on one torus chart that does not close up
    # globally: the index sum is 2 but the curvature integral is 0; the
    # report is still written and the exit code flags the violation
    doc = {
        "version": 1,
        "surface": {
            "patches": [{
                "name": "torus",
                "x": "(2+0.75*cos(u))*cos(v)",
                "y": "(2+0.75*cos(u))*sin(v)",
                "z": "0.75*sin(u)",
                "domain": {"u": [0, 6.283185307179586],
                           "v": [0, 6.283185307179586]},
                "weight": "1",
            }],
            "bde": {"source": "explicit",
                    "forms": [{"degree": 1,
                               "coefficients": ["v - 3.1415926535897931",
                                                "-(u - 3.1415926535897931)"]
                               }]},
        },
        "quadrature": {"order": 32},
        "grid_density": 24,
    }
    prob_path = tmp_path / "fake_field.json"
    prob_path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["verify-theorem", str(prob_path), "-o", str(out)])
    assert code == 3
    report = _read(out)
    assert report["identity_ok"] is False
    assert report["rhs_index_sum"] == {"num": 2, "den": 1}
    assert abs(float(report["lhs_curvature_side"])) < 1e-6


def _sphere_meridian_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-theorem",
                 str(PROBLEMS / "sphere_meridian_field.json"),
                 "-o", str(out)])
    return code, _read(out)


def test_verify_theorem_sees_negated_windings(tmp_path, monkeypatch):
    # every index with the wrong sign: the rhs is -4 against a lhs of +4
    from monoweb import index
    winding_class = index.winding_class
    monkeypatch.setattr(index, "winding_class",
                        lambda path: -winding_class(path))
    code, report = _sphere_meridian_report(tmp_path)
    assert code == 3
    assert report["rhs_index_sum"] == {"num": -4, "den": 1}
    assert report["identity_ok"] is False
    assert report["orientation_flipped"] is True
    assert abs(float(report["difference"]) - 8.0) < 1e-3


def test_verify_theorem_sees_a_negated_lhs(tmp_path, monkeypatch):
    from monoweb import geometry
    integrate = geometry.integrate_gauss_curvature

    def negated(*args, **kwargs):
        integral, err = integrate(*args, **kwargs)
        return -integral, err

    monkeypatch.setattr(geometry, "integrate_gauss_curvature", negated)
    code, report = _sphere_meridian_report(tmp_path)
    assert code == 3
    assert report["rhs_index_sum"] == {"num": 4, "den": 1}
    assert abs(float(report["lhs_curvature_side"]) + 4.0) < 1e-3
    assert report["identity_ok"] is False
    assert report["orientation_flipped"] is True


def test_plot_lemon(tmp_path):
    out = tmp_path / "web.svg"
    code = main(["plot", str(PROBLEMS / "lemon.json"), "-o", str(out),
                 "--grid", "20"])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<line") == 2 * 20 * 20
    assert svg.count("<circle") == 1  # the singular point at the origin


def test_plot_three_web(tmp_path):
    out = tmp_path / "web.svg"
    code = main(["plot", str(PROBLEMS / "three_web_constant.json"),
                 "-o", str(out), "--grid", "10"])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<line") == 3 * 10 * 10
    assert svg.count("<circle") == 0


def test_plot_radial_circular(tmp_path):
    out = tmp_path / "web.svg"
    code = main(["plot", str(PROBLEMS / "radial_circular.json"),
                 "-o", str(out), "--grid", "12"])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<line") == 2 * 12 * 12


def test_analyze_numerical_failure_partial_report(tmp_path):
    # coefficients vanish on the whole line x = 0: not a discrete
    # singular set; a partial report with the error object is written
    doc = {
        "version": 1,
        "system": {"type": "projective", "degree": 2,
                   "coefficients": ["x", "0", "x"]},
        "domain": {"x": [-2, 2], "y": [-2, 2]},
    }
    prob = tmp_path / "curve.json"
    prob.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["analyze", str(prob), "-o", str(out)])
    assert code == 2
    report = _read(out)
    assert report["error"]["type"] == "NonIsolatedZero"
    assert report["singular_points"] == []


def test_analyze_huge_domain_bound_is_numerical_failure(tmp_path):
    # the residual overflows at every grid point; an empty answer with
    # exit 0 would claim there are no singular points
    prob = tmp_path / "huge.json"
    prob.write_text(json.dumps(_lemon_with(domain__x=[-1e300, 1e300])))
    out = tmp_path / "report.json"
    assert main(["analyze", str(prob), "-o", str(out)]) == 2
    report = _read(out)
    assert report["error"]["type"] == "DomainError"
    assert report["singular_points"] == []


def test_plot_skips_singular_grid_points(tmp_path):
    # an 11-cell grid on [-2,2]^2 puts one cell center exactly on the
    # singular point; the segment pair there is a gap, not a failure
    out = tmp_path / "web.svg"
    code = main(["plot", str(PROBLEMS / "lemon.json"), "-o", str(out),
                 "--grid", "11"])
    assert code == 0
    svg = out.read_text()
    assert svg.count("<line") == 2 * (11 * 11 - 1)


def test_plot_rejects_non_projective():
    prob = load_problem(str(PROBLEMS / "cusp_cover.json"))
    with pytest.raises(InputError):
        render_svg(prob)


def test_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["analyze", str(PROBLEMS / "lemon.json"),
                 "-o", str(out1)]) == 0
    assert main(["analyze", str(PROBLEMS / "lemon.json"),
                 "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_svg_deterministic(tmp_path):
    prob = load_problem(str(PROBLEMS / "lemon.json"))
    assert render_svg(prob, grid=8) == render_svg(prob, grid=8)


def test_golden_lemon_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(PROBLEMS / "lemon.json"),
                 "-o", str(out)]) == 0
    golden = (GOLDEN / "lemon.report.json").read_bytes()
    assert out.read_bytes() == golden


def test_golden_cusp_cover_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(PROBLEMS / "cusp_cover.json"),
                 "-o", str(out)]) == 0
    golden = (GOLDEN / "cusp_cover.report.json").read_bytes()
    assert out.read_bytes() == golden


def test_golden_ellipsoid_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-theorem", str(PROBLEMS / "ellipsoid_321.json"),
                 "-o", str(out)]) == 0
    golden = (GOLDEN / "ellipsoid_321.report.json").read_bytes()
    assert out.read_bytes() == golden


def test_golden_half_turn_circle_report(tmp_path):
    out = tmp_path / "report.json"
    assert main(["analyze", str(PROBLEMS / "half_turn_circle.json"),
                 "-o", str(out)]) == 0
    golden = (GOLDEN / "half_turn_circle.report.json").read_bytes()
    assert out.read_bytes() == golden


@pytest.mark.parametrize("name, grid", [("lemon", 20),
                                        ("three_web_constant", 10),
                                        ("radial_circular", 12)])
def test_golden_svg(name, grid):
    # three_web_constant has a root at infinity and a zero root at every
    # grid point; lemon and radial_circular have singular points
    prob = load_problem(str(PROBLEMS / f"{name}.json"))
    golden = (GOLDEN / f"{name}.grid{grid}.svg").read_bytes()
    assert render_svg(prob, grid=grid).encode() == golden


@pytest.mark.parametrize("name", sorted(p.stem for p in
                                        PROBLEMS.glob("*.json")))
def test_shipped_reports_match_the_schema(tmp_path, name):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _read(PROBLEMS.parent / "docs" / "report.schema.json")
    path = PROBLEMS / f"{name}.json"
    command = "verify-theorem" if "surface" in _read(path) else "analyze"
    out = tmp_path / "report.json"
    # sphere_all_umbilic has a whole umbilic sphere: a numerical failure
    expected = 2 if name == "sphere_all_umbilic" else 0
    assert main([command, str(path), "-o", str(out)]) == expected
    jsonschema.validate(_read(out), schema)


def _reference_svg(prob, grid, width=640):
    """The plot built one point at a time: ``solve`` at each cell centre,
    one ``%`` format per segment, the body joined by newlines."""
    sys_ = prob.system
    dom = sys_.domain
    spanx = dom.xmax - dom.xmin
    spany = dom.ymax - dom.ymin
    height = int(round(width * spany / spanx))
    sx = width / spanx
    sy = height / spany

    def to_px(x, y):
        return ((x - dom.xmin) * sx, (dom.ymax - y) * sy)

    cell = min(spanx, spany) / grid
    half = 0.35 * cell
    items = []
    for i in range(grid):
        x = dom.xmin + (i + 0.5) * spanx / grid
        for j in range(grid):
            y = dom.ymin + (j + 0.5) * spany / grid
            try:
                roots = sys_.solve(x, y, prob.singular_tol, prob.sep_floor)
            except (FiberError, DomainError):
                continue
            for r in roots:
                dx = half * math.cos(r.phi)
                dy = half * math.sin(r.phi)
                x1, y1 = to_px(x - dx, y - dy)
                x2, y2 = to_px(x + dx, y + dy)
                items.append('<line x1="%.3f" y1="%.3f" x2="%.3f" '
                             'y2="%.3f"/>' % (x1, y1, x2, y2))
    for sp in find_singularities(sys_, grid_density=prob.grid_density,
                                 tol=prob.singular_tol,
                                 sep_floor=prob.sep_floor):
        cx, cy = to_px(sp.x, sp.y)
        items.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="4" '
                     'fill="#c0392b"/>')
    body = "\n".join(items)
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n'
            '<g stroke="#1f3b57" stroke-width="1.1">\n'
            f"{body}\n</g>\n</svg>\n")


@pytest.mark.parametrize("grid", [1, 45, 46, 47])
@pytest.mark.parametrize("name, coefficients", [
    ("lemon", None),            # the singular centre leaves a gap
    ("three_web_constant", None),   # roots at infinity and zero roots
    ("radial_circular", None),
    # 1/x fails along the centre column at odd grids
    ("lemon", ["1/x", "-2*x", "-y"]),
    # complex roots at every point and no singular point: an empty body
    ("lemon", ["1", "0", "1"]),
], ids=["lemon", "three_web_constant", "radial_circular", "reciprocal_x",
        "no_real_roots"])
def test_svg_matches_pointwise_reference(tmp_path, name, coefficients,
                                         grid):
    # 46 and 47 columns of 46 and 47 points span two blocks of whole
    # columns, the last one partial
    doc = _read(PROBLEMS / f"{name}.json")
    if coefficients:
        doc["system"]["coefficients"] = coefficients
    path = tmp_path / "web.json"
    path.write_text(json.dumps(doc))
    prob = load_problem(str(path))
    want = _reference_svg(prob, grid)
    assert render_svg(prob, grid=grid) == want
    if coefficients == ["1", "0", "1"]:
        assert "<line" not in want and "<circle" not in want


@pytest.mark.parametrize("name", ["lemon", "radial_circular"])
def test_grid_100_svg_matches_pointwise_reference(name):
    # 10,000 centres, more than the PLOT_BATCH points of one block
    prob = load_problem(str(PROBLEMS / f"{name}.json"))
    assert 100 * 100 > cli.PLOT_BATCH
    got = hashlib.sha256(render_svg(prob, grid=100).encode()).hexdigest()
    want = hashlib.sha256(_reference_svg(prob, 100).encode()).hexdigest()
    assert got == want


# values of one <line> block: plot-like ones, exact ties at the third
# decimal (odd multiples of 1/16 among them), 4-digit and larger integer
# parts, negative values, -0.0, and non-finite ones
_SVG_VALUES = st.one_of(
    st.floats(0.0, 700.0),
    st.integers(0, 11200).map(lambda k: k / 16),
    st.integers(0, 10 ** 7).map(lambda k: k / 1000),
    st.integers(0, 2 * 10 ** 7).map(lambda k: (k + 0.5) / 1000),
    st.floats(9990.0, 10010.0),
    st.floats(-5.0, 5.0),
    st.sampled_from([0.0, -0.0, 5e-324, 0.0005, 0.0625, 9998.9995, 9999.0,
                     1e300, math.inf, -math.inf, math.nan]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_SVG_VALUES, max_size=48), st.booleans())
def test_line_text_equals_percent_formatting(values, uniform):
    # a block either mixes every kind of value, which mostly falls back to
    # ``%``, or holds finite values in [0, 640) only
    if uniform:
        values = [abs(v) % 640.0 for v in values if math.isfinite(v)]
    values = values[:len(values) // 4 * 4]
    block = np.array(values, dtype=float).reshape(-1, 4)
    want = cli._LINE * len(block) % tuple(values)
    assert cli._format_lines(block) == want
    assert cli._format_lines(block.reshape(-1, 1, 4)) == want


def test_line_text_from_the_tables(monkeypatch):
    # ordinary plot values, 4-digit integer parts among them, do not fall
    # back to ``%`` formatting
    values = np.random.default_rng(3).uniform(0.0, 9998.0, (500, 4))
    want = cli._LINE * 500 % tuple(values.ravel().tolist())
    monkeypatch.setattr(cli, "_LINE", None)
    assert cli._format_lines(values) == want


@pytest.mark.parametrize("grid, calls", [(100, 5), (20, 1)])
def test_plot_solves_blocks_of_whole_columns(monkeypatch, grid, calls):
    # ceil(grid / (PLOT_BATCH // grid)) kernel calls; the singular-point
    # search is stubbed out, so only the plot's solves are counted
    rows = []
    kernel = ProjectiveSystem._roots_many

    def counted(self, A, *args):
        rows.append(len(A))
        return kernel(self, A, *args)

    monkeypatch.setattr(ProjectiveSystem, "_roots_many", counted)
    monkeypatch.setattr(cli, "find_singularities", lambda *a, **k: [])
    render_svg(load_problem(str(PROBLEMS / "radial_circular.json")),
               grid=grid)
    assert len(rows) == calls
    assert sum(rows) == grid * grid


def test_analyze_three_web_no_singularities(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / "three_web_constant.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert report["singular_point_count"] == 0
    assert report["singular_points"] == []


def test_analyze_radial_circular_total(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(PROBLEMS / "radial_circular.json"),
                 "-o", str(out)])
    assert code == 0
    report = _read(out)
    assert report["singular_points"][0]["total_index"] == \
        {"num": 4, "den": 1}


def test_cli_flag_overrides():
    prob = load_problem(str(PROBLEMS / "lemon.json"))
    assert prob.singular_tol == 1e-10
    assert prob.samples == 64
    assert prob.loop_radius == 1.0


def test_console_script_help():
    # run the entry point declared in pyproject.toml the way the wrapper
    # script generated by an installer does, so no install is needed
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["monoweb"]
    module, attr = entry.split(":")
    code = (f"import sys; from {module} import {attr} as main; "
            "sys.argv[0] = 'monoweb'; sys.exit(main())")
    # the directory holding the monoweb package this suite imported
    pkg_root = str(pathlib.Path(monoweb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "analyze" in proc.stdout
    assert "verify-theorem" in proc.stdout


def test_python_m_monoweb_help():
    pkg_root = str(pathlib.Path(monoweb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "monoweb", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: monoweb")
    assert "verify-theorem" in proc.stdout


@pytest.mark.skipif(shutil.which("monoweb") is None,
                    reason="monoweb console script not installed on PATH")
def test_installed_console_script_help():
    import subprocess
    proc = subprocess.run(["monoweb", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "analyze" in proc.stdout
    assert "verify-theorem" in proc.stdout


def test_problem_validation_errors(tmp_path):
    cases = [
        ({}, "exactly one"),
        ({"system": {}, "surface": {}}, "exactly one"),
        ({"system": {"type": "projective", "degree": 2,
                     "coefficients": ["y", "-2*x"]},
          "domain": {"x": [-1, 1], "y": [-1, 1]}}, "coefficients"),
        ({"system": {"type": "projective", "degree": 2,
                     "coefficients": ["y", "-2*x", "oops("]},
          "domain": {"x": [-1, 1], "y": [-1, 1]}}, "offset"),
        ({"system": {"type": "nope"},
          "domain": {"x": [-1, 1], "y": [-1, 1]}}, "variant"),
        ({"system": {"type": "circle", "sheets": 2, "numerator": ["x"]},
          "domain": {"x": [-1, 1], "y": [-1, 1]}}, "numerator"),
    ]
    for i, (doc, needle) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError) as exc:
            load_problem(str(path))
        assert needle in str(exc.value)


def _lemon_with(**changes):
    return _problem_with("lemon.json", **changes)


def _problem_with(name, **changes):
    doc = _read(PROBLEMS / name)
    for key, value in changes.items():
        section, _, field = key.partition("__")
        if field:
            doc.setdefault(section, {})[field] = value
        else:
            doc[section] = value
    return doc


def _lemon_coefficient(src):
    doc = _read(PROBLEMS / "lemon.json")
    doc["system"]["coefficients"][0] = src
    return doc


def _half_turn_with_sheets(sheets):
    doc = _read(PROBLEMS / "half_turn_circle.json")
    doc["system"]["sheets"] = sheets
    return doc


def _punctured_with_degree(degree):
    doc = _read(PROBLEMS / "cusp_cover.json")
    doc["system"].update(degree=degree, coefficients=[["x", "y"]] * degree
                         + [["1", "0"]])
    return doc


def _surface_with(name, patch=(), **surface):
    doc = _read(PROBLEMS / name)
    doc["surface"]["patches"][0].update(patch)
    doc["surface"].update(surface)
    return doc


@pytest.mark.parametrize("command, doc", [
    ("analyze", _lemon_coefficient("1e999*x")),
    ("analyze", _lemon_coefficient("(" * 200 + "x" + ")" * 200)),
    ("analyze", _lemon_coefficient("+".join(["x"] * 3000))),
    ("analyze", _lemon_with(tolerances__singular=-1)),
    ("analyze", _lemon_with(tolerances__singular="abc")),
    ("analyze", _lemon_with(tolerances__separation_floor=float("inf"))),
    ("analyze", _lemon_with(domain__x=[float("-inf"), 1])),
    ("analyze", _lemon_with(domain__y=[-1, float("nan")])),
    ("analyze", _lemon_with(loop__samples="many")),
    ("analyze", _lemon_with(loop__samples=64.0)),
    ("analyze", _lemon_with(loop__samples=31)),
    ("analyze", _lemon_with(loop__samples=65537)),
    ("analyze", _lemon_with(loop__samples=10 ** 20)),
    ("analyze", _lemon_with(loop__max_depth=True)),
    ("verify-theorem", _problem_with("ellipsoid_321.json",
                                     quadrature__order="32")),
    ("verify-theorem", _problem_with("ellipsoid_321.json",
                                     quadrature__order=0)),
    ("verify-theorem", _problem_with("ellipsoid_321.json",
                                     quadrature__order=257)),
    ("verify-theorem", _problem_with("ellipsoid_321.json",
                                     quadrature__order=10 ** 6)),
    ("analyze", _lemon_with(grid_density=7)),
    ("analyze", _lemon_with(grid_density=257)),
    ("analyze", _lemon_with(grid_density=10 ** 6)),
    ("verify-theorem", _problem_with("ellipsoid_321.json",
                                     grid_density=10 ** 6)),
    ("analyze", _lemon_with(singular_points=[[5, 5]])),
    ("analyze", _lemon_with(singular_points=[[0, float("nan")]])),
    ("analyze", _lemon_with(singular_points=[[0, "0"]])),
    ("analyze", _lemon_with(singular_points=[[0, 0, 0]])),
    ("analyze", _lemon_with(singular_points=0)),
    ("analyze", _lemon_with(system={"type": "projective", "degree": True,
                                    "coefficients": ["y", "-2*x"]})),
    ("analyze", _half_turn_with_sheets(True)),
    ("analyze", _lemon_with(system={"type": "projective", "degree": 33,
                                    "coefficients": ["x"] * 34})),
    ("analyze", _half_turn_with_sheets(33)),
    ("analyze", _punctured_with_degree(7)),
    ("verify-theorem", _surface_with(
        "torus_constant_web.json",
        bde={"source": "explicit",
             "forms": [{"degree": 33, "coefficients": ["1"] * 34}]})),
    ("analyze", _lemon_with(loop__radius=True)),
    ("plot --grid 1025", _lemon_with()),
    ("verify-theorem", _surface_with("torus_constant_web.json",
                                     bde="source")),
    ("verify-theorem", _surface_with("torus_constant_web.json",
                                     bde={"source": "explicit",
                                          "forms": [5]})),
    ("verify-theorem", _surface_with("ellipsoid_321.json", {"name": 7})),
], ids=["literal_1e999", "parens_200", "chain_3000", "singular_negative",
        "singular_string", "separation_floor_inf", "domain_minus_inf",
        "domain_nan", "samples_string", "samples_float", "samples_31",
        "samples_65537", "samples_1e20", "max_depth_bool",
        "quadrature_order_string", "quadrature_order_zero",
        "quadrature_order_257", "quadrature_order_1e6", "grid_density_7",
        "grid_density_257", "grid_density_1e6", "ellipsoid_grid_density_1e6",
        "declared_outside_domain", "declared_nan", "declared_string",
        "declared_three_coordinates", "declared_not_a_list",
        "degree_bool", "sheets_bool", "degree_33", "sheets_33",
        "punctured_degree_7", "form_degree_33", "loop_radius_bool",
        "plot_grid_1025",
        "bde_string", "bde_form_number", "patch_name_number"])
def test_bad_input_exits_1(tmp_path, capsys, monkeypatch, command, doc):
    _refuse_to_run(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    command, *options = command.split()
    assert main([command, str(path), "-o", str(out), *options]) == 1
    err = capsys.readouterr().err
    assert "monoweb: input error" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, doc, where", [
    ("analyze", _lemon_with(system={"type": "projective", "degree": 2,
                                    "coefficients": ["y", "-2*x"]}),
     "system"),
    ("verify-theorem", _surface_with(
        "torus_constant_web.json",
        bde={"source": "explicit",
             "forms": [{"degree": 2, "coefficients": ["0", "1"]}]}),
     "surface.bde.forms[0]"),
], ids=["system", "surface_form"])
def test_wrong_coefficient_count_exits_1(tmp_path, capsys, monkeypatch,
                                         command, doc, where):
    _refuse_to_run(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "-o", str(tmp_path / "out.json")]) == 1
    assert (f"monoweb: input error: {where}: degree 2 needs 3 coefficients, "
            "got 2") in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    _lemon_with(system={"type": "projective", "degree": 32,
                        "coefficients": ["x"] * 33}),
    _half_turn_with_sheets(32),
    _punctured_with_degree(6),
], ids=["degree_32", "sheets_32", "punctured_degree_6"])
def test_largest_sheet_counts_load(tmp_path, doc):
    path = tmp_path / "largest.json"
    path.write_text(json.dumps(doc))
    assert load_problem(str(path)).system.sheet_count == (
        doc["system"].get("degree") or doc["system"]["sheets"])


def test_sheet_count_bounds_are_in_the_schema():
    schema = _read(PROBLEMS.parent / "docs" / "problem.schema.json")
    variants = {v["properties"]["type"]["const"]: v["properties"]
                for v in schema["properties"]["system"]["oneOf"]}
    assert variants["projective"]["degree"]["maximum"] == cli.MAX_SHEETS
    assert variants["circle"]["sheets"]["maximum"] == cli.MAX_SHEETS
    assert (variants["punctured_plane"]["degree"]["maximum"]
            == cli.MAX_PUNCTURED_DEGREE)
    forms = schema["properties"]["surface"]["properties"]["bde"]
    assert f'"maximum": {cli.MAX_SHEETS}' in json.dumps(forms)


def _refuse_to_run(monkeypatch):
    """Make any command that gets past input checking fail the test
    at once, instead of running it (possibly for a very long time)."""
    def ran(*args, **kwargs):
        pytest.fail("the input was accepted and the command ran")
    for name in ("run_analyze", "run_verify_theorem", "render_svg"):
        monkeypatch.setattr(cli, name, ran)


@pytest.mark.parametrize("samples", ["8", "31", "65537",
                                     "100000000000000000000"])
def test_samples_override_is_bounded(tmp_path, capsys, monkeypatch, samples):
    _refuse_to_run(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["--samples", samples, "analyze",
                 str(PROBLEMS / "lemon.json"), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "monoweb: input error: --samples" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_samples_override_applies(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--samples", "40", "analyze",
                 str(PROBLEMS / "lemon.json"), "-o", str(out)]) == 0
    [point] = _read(out)["singular_points"]
    assert point["loop"]["initial_samples"] == 40


def test_loop_settings_apply_to_verify_theorem(tmp_path, monkeypatch):
    loops = []
    report = geometry.index_report

    def recorded(system, sp, loop, **kwargs):
        loops.append(loop)
        return report(system, sp, loop, **kwargs)

    monkeypatch.setattr(geometry, "index_report", recorded)
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(_problem_with(
        "sphere_meridian_field.json", loop__samples=48, loop__max_depth=5)))
    out = tmp_path / "report.json"
    assert main(["--samples", "128", "verify-theorem", str(path),
                 "-o", str(out)]) == 0
    points = _read(out)["singular_points"]
    assert len(points) == 2
    assert all(p["loop"]["initial_samples"] == 128 for p in points)
    assert [(loop.samples, loop.max_depth) for loop in loops] == [(128, 5)] * 2


def test_samples_bounds_are_inclusive(tmp_path):
    for samples in (32, 65536):
        path = tmp_path / f"lemon_{samples}.json"
        path.write_text(json.dumps(_lemon_with(loop__samples=samples)))
        assert load_problem(str(path)).samples == samples


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_plot_grid_must_be_positive(tmp_path, capsys, grid):
    out = tmp_path / "web.svg"
    assert main(["plot", str(PROBLEMS / "lemon.json"), "-o", str(out),
                 "--grid", grid]) == 1
    err = capsys.readouterr().err
    assert "monoweb: input error" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_tol_singular_override_must_be_finite_positive(tmp_path, capsys,
                                                        tol):
    out = tmp_path / "report.json"
    assert main(["--tol-singular", tol, "analyze",
                 str(PROBLEMS / "lemon.json"), "-o", str(out)]) == 1
    assert "monoweb: input error" in capsys.readouterr().err
    assert not out.exists()


def test_tol_singular_override_applies(tmp_path):
    out = tmp_path / "report.json"
    assert main(["--tol-singular", "1e-12", "analyze",
                 str(PROBLEMS / "lemon.json"), "-o", str(out)]) == 0
    report = _read(out)
    assert report["parameters"]["singular_tolerance"] == "1e-12"
    assert report["singular_point_count"] == 1


@pytest.mark.parametrize("doc", [
    # the coefficients vanish on the whole line x = 0
    _lemon_with(system={"type": "projective", "degree": 2,
                        "coefficients": ["x", "-x", "0"]}),
    # a NaN coefficient everywhere: the plot's solves leave gaps, and the
    # singular-point search finds no finite residual
    _lemon_coefficient("x*1e300*1e300 - x*1e300*1e300 + y"),
], ids=["singular_line", "nan_coefficient"])
def test_plot_numerical_failure_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path), "-o", str(tmp_path / "r.json")]) == 2
    capsys.readouterr()
    assert main(["plot", str(path), "-o", str(tmp_path / "web.svg"),
                 "--grid", "4"]) == 2
    err = capsys.readouterr().err
    assert "monoweb: numerical failure" in err
    assert "Traceback" not in err
