"""Problem-file ingestion, command dispatch, and report serialization.

Problem files are JSON documents carrying either a fiber system (for
``analyze``/``plot``) or a patched closed surface (for
``verify-theorem``); expression strings use the grammar of
:mod:`monoweb.expr`.  Reports are JSON with exact rationals as
``{"num": .., "den": ..}`` objects and floats as shortest round-trip
decimal strings, serialized with sorted keys so identical inputs produce
byte-identical output.

Exit codes: 0 success, 1 input error (no report), 2 numerical failure
(partial report with a machine-readable error object), 3 theorem- or
hypothesis-violation from ``verify-theorem`` (the report is the
scientific output, not a crash).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

import numpy as np

from . import __version__
from .expr import DomainError, ParseError, parse
from .fiber import (BinaryForm, CircleSystem, FiberError, FiberKind,
                    ProjectiveSystem, PuncturedPlaneSystem, Rect, SEP_FLOOR,
                    SINGULAR_TOL, find_singularities)
from .geometry import (GeometryError, SurfacePatch, WeightedPatch,
                       verify_index_theorem)
from .index import IndexError_, PointIndexReport, index_reports
from .monodromy import LoopSpec, TrackingError

__all__ = ["main", "load_problem", "run_analyze", "run_verify_theorem",
           "render_svg", "InputError", "Problem"]

log = logging.getLogger("monoweb")

NUMERICAL_ERRORS = (FiberError, TrackingError, IndexError_, GeometryError,
                    DomainError)


class InputError(Exception):
    """Problem-file or command-line input is unusable."""


# every initial loop sample is solved up front, so the count is bounded
MAX_SAMPLES = 65536
# a plot at the largest grid already holds 2-3 million segments
MAX_GRID = 1024
# the singular-point scan and the curvature quadrature evaluate compiled
# code on density^2 and order^2 points (about 120 and 90 MB at 256 on
# ellipsoid_321)
MAX_GRID_DENSITY = 256
MAX_QUADRATURE_ORDER = 256
# points per root-kernel call of a plot, in whole columns
PLOT_BATCH = 2048
# sheet counts: on a 2-core host an analyze of a generic system takes
# 0.1 s at projective degree 32, and 3 s with a 0.5 GB peak at
# punctured-plane degree 6 (about 20 s at 7: the discriminant's code
# grows about 5x per degree); at projective degree 32 a grid-100 plot
# takes 6 s
MAX_SHEETS = 32
MAX_PUNCTURED_DEGREE = 6


# ---------------------------------------------------------------------------
# Problem files


@dataclass
class Problem:
    version: int
    system: object = None          # FiberSystem for analyze/plot
    surface: list = None           # list[WeightedPatch] for verify-theorem
    bde_source: object = None      # "curvature_lines" | list[BinaryForm]
    loop_radius: object = "auto"   # "auto" | float
    samples: int = 64
    max_depth: int = 12
    singular_tol: float = SINGULAR_TOL
    sep_floor: float = SEP_FLOOR
    grid_density: int = 48
    quadrature_order: int = 48
    notes: list = field(default_factory=list)


def _need(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    if key not in obj:
        raise InputError(f"{where}: missing required key {key!r}")
    val = obj[key]
    # a JSON true/false is a Python bool, which is an int
    if not isinstance(val, kind) or (kind is int and isinstance(val, bool)):
        raise InputError(f"{where}.{key}: expected {kind.__name__}")
    return val


def _finite(val):
    """``val`` as a float if it is a finite JSON number, else None."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        val = float(val)
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


def _positive(val, where):
    val = _finite(val)
    if val is None or val <= 0.0:
        raise InputError(f"{where}: expected a finite positive number")
    return val


def _count(val, lo, hi, where):
    """A bounded count: an integer from lo to hi."""
    if (isinstance(val, bool) or not isinstance(val, int)
            or not lo <= val <= hi):
        raise InputError(f"{where}: expected an integer from {lo} to {hi}")
    return val


def _integer(obj, key, default, where):
    val = obj.get(key, default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise InputError(f"{where}.{key}: expected an integer")
    return val


def _parse_expr(src, where, variables=("x", "y")):
    if not isinstance(src, str):
        raise InputError(f"{where}: expression must be a string")
    try:
        return parse(src, variables)
    except ParseError as e:
        raise InputError(f"{where}: {e}") from None


def _parse_domain(obj, where, names=("x", "y")):
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object with "
                         f"{names[0]!r} and {names[1]!r} ranges")
    spans = []
    for nm in names:
        rng = obj.get(nm)
        if (not isinstance(rng, list) or len(rng) != 2
                or any(_finite(t) is None for t in rng)):
            raise InputError(f"{where}.{nm}: expected [min, max] with "
                             "finite bounds")
        spans.append((float(rng[0]), float(rng[1])))
    try:
        return Rect(spans[0][0], spans[0][1], spans[1][0], spans[1][1])
    except ValueError as e:
        raise InputError(f"{where}: {e}") from None


def _parse_form(obj, where, variables):
    degree = _count(_need(obj, "degree", int, where), 1, MAX_SHEETS,
                    f"{where}.degree")
    coeffs = _need(obj, "coefficients", list, where)
    if len(coeffs) != degree + 1:
        raise InputError(
            f"{where}: degree {degree} needs {degree + 1} coefficients, "
            f"got {len(coeffs)}")
    exprs = tuple(_parse_expr(c, f"{where}.coefficients[{i}]", variables)
                  for i, c in enumerate(coeffs))
    return BinaryForm(degree, exprs, variables)


def _parse_system(obj, domain, declared):
    kind = _need(obj, "type", str, "system")
    if kind == "projective":
        return ProjectiveSystem(domain, declared,
                                form=_parse_form(obj, "system", ("x", "y")))
    if kind == "circle":
        sheets = _count(_need(obj, "sheets", int, "system"), 1, MAX_SHEETS,
                        "system.sheets")
        num = _need(obj, "numerator", list, "system")
        if len(num) != 2:
            raise InputError("system.numerator: expected [re, im]")
        return CircleSystem(domain, declared, sheets=sheets,
                            v_re=_parse_expr(num[0], "system.numerator[0]"),
                            v_im=_parse_expr(num[1], "system.numerator[1]"))
    if kind == "punctured_plane":
        degree = _count(_need(obj, "degree", int, "system"), 1,
                        MAX_PUNCTURED_DEGREE, "system.degree")
        coeffs = _need(obj, "coefficients", list, "system")
        if len(coeffs) != degree + 1:
            raise InputError(
                f"system: degree {degree} needs {degree + 1} coefficient "
                f"pairs, got {len(coeffs)}")
        pairs = []
        for i, pair in enumerate(coeffs):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(
                    f"system.coefficients[{i}]: expected [re, im]")
            pairs.append(
                (_parse_expr(pair[0], f"system.coefficients[{i}][0]"),
                 _parse_expr(pair[1], f"system.coefficients[{i}][1]")))
        return PuncturedPlaneSystem(domain, declared, degree_w=degree,
                                    coeffs=tuple(pairs))
    raise InputError(f"system.type: unknown variant {kind!r}")


def _parse_surface(obj):
    patches_spec = _need(obj, "patches", list, "surface")
    if not patches_spec:
        raise InputError("surface.patches: need at least one patch")
    wpatches = []
    for i, p in enumerate(patches_spec):
        where = f"surface.patches[{i}]"
        dom = _parse_domain(_need(p, "domain", dict, where), f"{where}.domain",
                            names=("u", "v"))
        name = p.get("name", f"patch{i}")
        if not isinstance(name, str):
            raise InputError(f"{where}.name: expected a string")
        try:
            patch = SurfacePatch(
                _parse_expr(_need(p, "x", str, where), f"{where}.x",
                            ("u", "v")),
                _parse_expr(_need(p, "y", str, where), f"{where}.y",
                            ("u", "v")),
                _parse_expr(_need(p, "z", str, where), f"{where}.z",
                            ("u", "v")),
                dom, name=name)
        except (GeometryError, DomainError) as e:
            raise InputError(f"{where}: {e}") from None
        weight = _parse_expr(p.get("weight", "1"), f"{where}.weight",
                             ("u", "v"))
        wpatches.append(WeightedPatch(patch, weight))

    bde = obj.get("bde", {"source": "curvature_lines"})
    src = _need(bde, "source", str, "surface.bde")
    if src == "curvature_lines":
        bde_source = "curvature_lines"
    elif src == "explicit":
        forms_spec = _need(bde, "forms", list, "surface.bde")
        if len(forms_spec) != len(wpatches):
            raise InputError("surface.bde.forms: need one form per patch")
        bde_source = [_parse_form(f, f"surface.bde.forms[{i}]", ("u", "v"))
                      for i, f in enumerate(forms_spec)]
    else:
        raise InputError(
            f"surface.bde.source: expected 'curvature_lines' or "
            f"'explicit', got {src!r}")
    return wpatches, bde_source


def load_problem(path: str) -> Problem:
    """Read and validate a problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: malformed JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")

    version = doc.get("version", 1)
    if version != 1:
        raise InputError(f"{path}: unsupported version {version}")

    prob = Problem(version=version)

    has_system = "system" in doc
    has_surface = "surface" in doc
    if has_system == has_surface:
        raise InputError(
            f"{path}: exactly one of 'system' or 'surface' is required")

    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict):
        raise InputError(f"{path}: tolerances must be an object")
    prob.singular_tol = _positive(tol.get("singular", SINGULAR_TOL),
                                  "tolerances.singular")
    prob.sep_floor = _positive(tol.get("separation_floor", SEP_FLOOR),
                               "tolerances.separation_floor")

    prob.grid_density = _count(doc.get("grid_density", prob.grid_density),
                               8, MAX_GRID_DENSITY, "grid_density")

    loop = doc.get("loop", {})
    if not isinstance(loop, dict):
        raise InputError(f"{path}: loop must be an object")
    radius = loop.get("radius", "auto")
    if radius != "auto":
        radius = _finite(radius)
        if radius is None or radius <= 0.0:
            raise InputError(f"{path}: loop.radius must be 'auto' or a "
                             "finite positive number")
    prob.loop_radius = radius
    prob.samples = _count(loop.get("samples", prob.samples), 32,
                          MAX_SAMPLES, "loop.samples")
    prob.max_depth = _integer(loop, "max_depth", prob.max_depth, "loop")
    if prob.max_depth < 0:
        raise InputError(f"{path}: loop.max_depth must be >= 0")

    notes = doc.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(s, str)
                                              for s in notes):
        raise InputError(f"{path}: notes must be a list of strings")
    prob.notes = list(notes)

    if has_system:
        domain = _parse_domain(_need(doc, "domain", dict, path), "domain")
        declared = []
        points = doc.get("singular_points", [])
        if not isinstance(points, list):
            raise InputError(f"{path}: singular_points must be a list")
        for i, p in enumerate(points):
            pt = (tuple(map(_finite, p))
                  if isinstance(p, list) and len(p) == 2 else (None,))
            if None in pt or not domain.contains(*pt):
                raise InputError(f"{path}: singular_points[{i}]: expected "
                                 "[x, y] with finite x, y in the domain")
            declared.append(pt)
        try:
            prob.system = _parse_system(_need(doc, "system", dict, path),
                                        domain, tuple(declared))
        except ValueError as e:
            raise InputError(f"{path}: system: {e}") from None
    else:
        quad = doc.get("quadrature", {})
        if not isinstance(quad, dict):
            raise InputError(f"{path}: quadrature must be an object")
        prob.quadrature_order = _count(
            quad.get("order", prob.quadrature_order), 4,
            MAX_QUADRATURE_ORDER, "quadrature.order")
        prob.surface, prob.bde_source = _parse_surface(
            _need(doc, "surface", dict, path))
    return prob


# ---------------------------------------------------------------------------
# Report serialization


def _f(x) -> str:
    """Canonical decimal string for a float (shortest round-trip form)."""
    return repr(float(x))


def _diag(x) -> str:
    """Fixed-precision form for diagnostic magnitudes (residuals, closure
    defects, error estimates) whose last bits carry no information."""
    return f"{float(x):.3e}"


def _rat(q: Fraction):
    return {"num": q.numerator, "den": q.denominator}


def _point_report_json(rep: PointIndexReport, sp=None):
    mono = rep.monodromy
    out = {
        "position": [_f(rep.point[0]), _f(rep.point[1])],
        "fiber": rep.kind.value,
        "loop": {
            "radius": _f(mono.loop.radius),
            "orientation": mono.loop.orientation,
            "initial_samples": mono.loop.samples,
            "samples_solved": mono.samples_solved,
            "refinement_depth_reached": mono.depth_reached,
        },
        "monodromy": {
            "permutation": [s + 1 for s in mono.sigma],
            "orbits": [[i + 1 for i in orb] for orb in mono.orbits],
        },
        "orbits": [
            {
                "labels": [i + 1 for i in orb.orbit],
                "size": orb.size,
                "winding": orb.winding,
                "normalized_index": _rat(orb.normalized_index),
                "classical_line_index":
                    _rat(orb.classical_line_index)
                    if orb.classical_line_index is not None else None,
                "closure_defect": _diag(orb.closure_defect),
            }
            for orb in rep.orbit_reports
        ],
        "total_index": _rat(rep.total_index),
        "uniform_orbit_size": rep.uniform_orbit_size,
    }
    if sp is not None:
        out["isolation_radius"] = _f(sp.isolation_radius)
        out["residual"] = _diag(sp.residual)
    return out


def _provenance(prob: Problem, seed: int):
    return {
        "tool": {"name": "monoweb", "version": __version__},
        "parameters": {
            "singular_tolerance": _f(prob.singular_tol),
            "separation_floor": _f(prob.sep_floor),
            "loop_samples": prob.samples,
            "loop_max_depth": prob.max_depth,
            "grid_density": prob.grid_density,
            "seed": seed,
        },
    }


def _error_json(e: Exception):
    return {"type": type(e).__name__, "message": str(e)}


def write_report(report: dict, out_path: str):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Commands


def run_analyze(prob: Problem, seed: int = 0):
    """Locate singular points and compute their index reports.

    The loops of all points are tracked together (``index_reports``), and
    the reports are built in point order: the first point that fails
    decides, as if the points were tracked one after another.  An explicit
    loop radius not below a point's isolation radius is an input error
    (exit 1); a numerical failure leaves the reports of the points before
    it (exit 2).  Returns (report_dict, exit_code)."""
    if prob.system is None:
        raise InputError("analyze needs a problem file with a 'system'")
    report = {
        "schema_version": 1,
        "command": "analyze",
        **_provenance(prob, seed),
        "system": {"type": prob.system.kind.value,
                   "sheet_count": prob.system.sheet_count},
        "notes": list(prob.notes),
    }
    code = 0
    points_json = []
    try:
        points = find_singularities(prob.system,
                                    grid_density=prob.grid_density,
                                    tol=prob.singular_tol,
                                    sep_floor=prob.sep_floor)
        report["singular_point_count"] = len(points)
        # the loader's checks leave LoopSpec nothing to reject
        loops = [LoopSpec((sp.x, sp.y), sp.isolation_radius / 2.0
                          if prob.loop_radius == "auto" else prob.loop_radius,
                          samples=prob.samples, max_depth=prob.max_depth)
                 for sp in points]
        reports = index_reports(prob.system, points, loops,
                                singular_tol=prob.singular_tol,
                                sep_floor=prob.sep_floor)
        try:
            for sp, rep in zip(points, reports):
                points_json.append(_point_report_json(rep, sp))
        except ValueError as e:
            # a loop radius incompatible with the probed isolation
            raise InputError(str(e)) from None
    except NUMERICAL_ERRORS as e:
        log.error("numerical failure: %s", e)
        report["error"] = _error_json(e)
        code = 2
    report["singular_points"] = points_json
    return report, code


def run_verify_theorem(prob: Problem, seed: int = 0):
    """Verify the index-sum identity on a patched closed surface.

    Returns (report_dict, exit_code): 0 when the identity holds and the
    uniform-orbit-size hypothesis is satisfied, 3 when either fails, 2 on
    numerical breakdown."""
    if prob.surface is None:
        raise InputError("verify-theorem needs a problem file with a "
                         "'surface'")
    report = {
        "schema_version": 1,
        "command": "verify-theorem",
        **_provenance(prob, seed),
        "quadrature_order": prob.quadrature_order,
        "notes": list(prob.notes),
    }
    try:
        th = verify_index_theorem(
            prob.surface, bde_source=prob.bde_source,
            quadrature_order=prob.quadrature_order,
            grid_density=prob.grid_density,
            singular_tol=prob.singular_tol, sep_floor=prob.sep_floor,
            seed=seed, samples=prob.samples, max_depth=prob.max_depth)
    except NUMERICAL_ERRORS as e:
        log.error("numerical failure: %s", e)
        report["error"] = _error_json(e)
        return report, 2
    report.update({
        "sheet_count": th.sheet_count,
        "hypothesis_ok": th.hypothesis_ok,
        "rhs_index_sum": _rat(th.rhs) if th.rhs is not None else None,
        "lhs_curvature_side": _f(th.lhs),
        "lhs_error_estimate": _diag(th.lhs_error),
        "difference": _diag(th.difference) if th.difference is not None
                      else None,
        "tolerance": _diag(th.tolerance),
        "identity_ok": th.identity_ok,
        "orientation_flipped": th.orientation_flipped,
        "euler_characteristic_estimate":
            _f(th.euler_characteristic_estimate),
        "singular_points": [
            {**_point_report_json(rec.report, rec.singular_point),
             "patch": rec.patch_name,
             "position3": [_f(t) for t in rec.position3]}
            for rec in th.point_records
        ],
    })
    report["notes"].extend(th.notes)
    ok = bool(th.identity_ok) and th.hypothesis_ok
    return report, 0 if ok else 3


_LINE = '<line x1="%.3f" y1="%.3f" x2="%.3f" y2="%.3f"/>\n'
# _LINE with each value an 8-byte field of zero bytes, and where they start
_LINE_BYTES = _LINE.replace("%.3f", "\0" * 8).encode("ascii")
_VALUE_AT = (10, 24, 38, 52)


@cache
def _digit_words():
    """The integer parts 0..9999 in ASCII, right-aligned in one four-byte
    word with zero bytes for the leading blanks, and the fractions
    '.000'..'.999', one word each."""
    i = np.arange(10000, dtype=np.uint16)
    d = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    ints = (d + 48).astype(np.uint8)
    ints[:, :3][~np.logical_or.accumulate(d[:, :3] != 0, axis=1)] = 0
    fracs = ints[:1000].copy()
    fracs[:, 0] = 46
    fracs[:, 1:] = d[:1000, 1:] + 48
    tables = ints.view(np.uint32).ravel(), fracs.view(np.uint32).ravel()
    for t in tables:
        t.flags.writeable = False   # shared by every call
    return tables


def _format_lines(ends):
    """``_LINE % tuple(row)`` for each row (x1, y1, x2, y2) of ``ends``,
    joined.  Each value is written into one byte buffer of
    ``_LINE_BYTES`` rows as the table words of its integer part and its
    three fraction digits, and the zero bytes are dropped.  A block
    holding a value that is negative (-0.0 too), not finite, 9999 or more,
    or within 1e-6 of a rounding tie at the third decimal is formatted
    with ``%`` instead: away from ties, np.rint(1000 v) is the integer
    that '%.3f' rounds 1000 v to."""
    flat = ends.reshape(-1, 4)
    m = np.where(np.signbit(flat) | ~(flat < 9999.0), np.nan, flat) * 1000.0
    if not (np.abs(m - np.floor(m) - 0.5) >= 1e-6).all():   # NaN too
        return _LINE * len(flat) % tuple(flat.ravel().tolist())
    ip, fp = np.divmod(np.rint(m).astype(np.intp), 1000)
    ints, fracs = _digit_words()
    words = np.empty((len(flat), 4, 2), dtype=np.uint32)
    words[:, :, 0] = ints[ip]
    words[:, :, 1] = fracs[fp]
    buf = np.empty((len(flat), len(_LINE_BYTES)), dtype=np.uint8)
    buf[:] = np.frombuffer(_LINE_BYTES, dtype=np.uint8)
    for j, at in enumerate(_VALUE_AT):
        buf[:, at:at + 8] = words[:, j].view(np.uint8)
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def render_svg(prob: Problem, grid: int = 20, width: int = 640) -> str:
    """Direction-web plot: short segments along each fiber root direction
    at the cell centres of a grid x grid grid, singular points marked.
    The centres are solved in blocks of whole columns (PLOT_BATCH points,
    or one column), each block passed to ``FiberSystem._fibers`` as one
    array and its ``<line>`` elements formatted at once from the root
    arrays (``_format_lines``).  Deterministic for fixed inputs; solve
    failures leave gaps.  A numerical failure of the singular-point
    search propagates, so ``plot`` exits 2."""
    sys_ = prob.system
    if sys_ is None or sys_.kind is not FiberKind.PROJECTIVE:
        raise InputError("plot needs a projective system")
    grid = _count(grid, 1, MAX_GRID, "plot grid")
    dom = sys_.domain
    spanx = dom.xmax - dom.xmin
    spany = dom.ymax - dom.ymin
    height = int(round(width * spany / spanx))
    sx = width / spanx
    sy = height / spany
    half = 0.35 * (min(spanx, spany) / grid)
    xs = np.array([dom.xmin + (i + 0.5) * spanx / grid for i in range(grid)])
    ys = np.array([dom.ymin + (j + 0.5) * spany / grid for j in range(grid)])
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">\n'
             '<g stroke="#1f3b57" stroke-width="1.1">\n']
    cols = max(1, PLOT_BATCH // grid)
    for block in (xs[i:i + cols] for i in range(0, grid, cols)):
        centres = np.column_stack([np.repeat(block, grid),
                                   np.tile(ys, len(block))])
        phi, _, errors = sys_._fibers(centres, prob.singular_tol,
                                      prob.sep_floor)
        good = [k for k, e in enumerate(errors) if e is None]
        x, y = centres[good].T[:, :, None]
        phi = phi[good]
        flat = phi.ravel().tolist()
        # math.cos/sin as the scalar plot had them; np.cos can differ in
        # the last bit
        dx = half * np.array(list(map(math.cos, flat))).reshape(phi.shape)
        dy = half * np.array(list(map(math.sin, flat))).reshape(phi.shape)
        ends = np.stack([((x - dx) - dom.xmin) * sx,
                         (dom.ymax - (y - dy)) * sy,
                         ((x + dx) - dom.xmin) * sx,
                         (dom.ymax - (y + dy)) * sy], axis=-1)
        parts.append(_format_lines(ends))
    points = find_singularities(sys_, grid_density=prob.grid_density,
                                tol=prob.singular_tol,
                                sep_floor=prob.sep_floor)
    parts += [f'<circle cx="{(sp.x - dom.xmin) * sx:.3f}" '
              f'cy="{(dom.ymax - sp.y) * sy:.3f}" r="4" fill="#c0392b"/>\n'
              for sp in points]
    if not any(parts[1:]):
        parts.append("\n")   # an empty body is a blank line
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Entry point


def _default_out(problem_path: str, suffix: str) -> str:
    stem, _ = os.path.splitext(problem_path)
    return stem + suffix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="monoweb",
        description="Local monodromy, orbit indices, and index-sum "
                    "verification for branched sections defined by binary "
                    "differential equations.")
    parser.add_argument("--tol-singular", type=float, default=None,
                        help="override the singular-set residual tolerance")
    parser.add_argument("--samples", type=int, default=None,
                        help="override the initial loop sample count")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probe points")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="locate singular points and "
                                          "compute their indices")
    p_an.add_argument("problem")
    p_an.add_argument("-o", "--output", default=None)

    p_vt = sub.add_parser("verify-theorem",
                          help="check the index-sum identity on a closed "
                               "surface")
    p_vt.add_argument("problem")
    p_vt.add_argument("-o", "--output", default=None)

    p_pl = sub.add_parser("plot", help="render the direction web as SVG")
    p_pl.add_argument("problem")
    p_pl.add_argument("-o", "--output", required=True)
    p_pl.add_argument("--grid", type=int, default=20)

    args = parser.parse_args(argv)

    level = os.environ.get("MONOWEB_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")

    try:
        prob = load_problem(args.problem)
        if args.tol_singular is not None:
            prob.singular_tol = _positive(args.tol_singular,
                                          "--tol-singular")
        if args.samples is not None:
            prob.samples = _count(args.samples, 32, MAX_SAMPLES, "--samples")

        if args.command in ("analyze", "verify-theorem"):
            run = (run_analyze if args.command == "analyze"
                   else run_verify_theorem)
            report, code = run(prob, seed=args.seed)
            out = args.output or _default_out(args.problem, ".report.json")
            write_report(report, out)
            log.info("report written to %s", out)
            return code
        if args.command == "plot":
            svg = render_svg(prob, _count(args.grid, 1, MAX_GRID, "--grid"))
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(svg)
            return 0
        raise InputError(f"unknown command {args.command!r}")
    except InputError as e:
        print(f"monoweb: input error: {e}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as e:
        # failures before any report could be assembled
        print(f"monoweb: numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
