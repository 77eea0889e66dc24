import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import monoweb
from monoweb import cli
from monoweb.cli import InputError, load_problem, main, render_svg

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
    doc = _read(PROBLEMS / "lemon.json")
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


def _ellipsoid_with_order(order):
    doc = _read(PROBLEMS / "ellipsoid_321.json")
    doc["quadrature"]["order"] = order
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
    ("verify-theorem", _ellipsoid_with_order("32")),
    ("verify-theorem", _ellipsoid_with_order(0)),
    ("analyze", _lemon_with(singular_points=[[5, 5]])),
    ("analyze", _lemon_with(singular_points=[[0, float("nan")]])),
    ("analyze", _lemon_with(singular_points=[[0, "0"]])),
    ("analyze", _lemon_with(singular_points=[[0, 0, 0]])),
    ("analyze", _lemon_with(singular_points=0)),
    ("analyze", _lemon_with(system={"type": "projective", "degree": True,
                                    "coefficients": ["y", "-2*x"]})),
    ("analyze", _half_turn_with_sheets(True)),
    ("analyze", _lemon_with(loop__radius=True)),
], ids=["literal_1e999", "parens_200", "chain_3000", "singular_negative",
        "singular_string", "separation_floor_inf", "domain_minus_inf",
        "domain_nan", "samples_string", "samples_float", "samples_31",
        "samples_65537", "samples_1e20", "max_depth_bool",
        "quadrature_order_string", "quadrature_order_zero",
        "declared_outside_domain", "declared_nan", "declared_string",
        "declared_three_coordinates", "declared_not_a_list",
        "degree_bool", "sheets_bool", "loop_radius_bool"])
def test_bad_input_exits_1(tmp_path, capsys, monkeypatch, command, doc):
    _refuse_to_run(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main([command, str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "monoweb: input error" in err
    assert "Traceback" not in err
    assert not out.exists()


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
