"""Correctness oracle: compare one command's output with the answer known
by construction (see ``workloads.py``).  Each check returns a list of
problems; an empty list means the output is right."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

POS_TOL = 1e-6      # singular points and umbilics, in base / space units
PX_TOL = 0.01       # singular-point marks, in SVG pixels


def _frac(obj):
    return Fraction(obj["num"], obj["den"])


def _match(found, expected, tol, what):
    """Pair every found position with a distinct expected one within
    ``tol``; returns (pairs, errors)."""
    errors = []
    if len(found) != len(expected):
        return [], [f"{what}: found {len(found)}, expected {len(expected)}"]
    left = list(range(len(expected)))
    pairs = []
    for i, p in enumerate(found):
        near = [j for j in left if math.dist(p, expected[j]) <= tol]
        if not near:
            errors.append(f"{what}: {p} is not within {tol} of any "
                          "expected position")
            continue
        left.remove(near[0])
        pairs.append((i, near[0]))
    return pairs, errors


def check_analyze(expect, code, text):
    if code != expect["code"]:
        return [f"exit code {code}, expected {expect['code']}"]
    report = json.loads(text)
    points = report["singular_points"]
    want = expect["points"]
    found = [tuple(float(t) for t in p["position"]) for p in points]
    pairs, errors = _match(found, [w["at"] for w in want], POS_TOL,
                           "singular points")
    for i, j in pairs:
        p, w = points[i], want[j]
        total = _frac(p["total_index"])
        if total != w["total"]:
            errors.append(f"point {found[i]}: total index {total}, "
                          f"expected {w['total']}")
        sizes = sorted(o["size"] for o in p["orbits"])
        if sizes != sorted(w["sizes"]):
            errors.append(f"point {found[i]}: orbit sizes {sizes}, "
                          f"expected {w['sizes']}")
    return errors


def check_theorem(expect, code, text):
    if code != expect["code"]:
        return [f"exit code {code}, expected {expect['code']}"]
    report = json.loads(text)
    if "error" in expect:
        err = report.get("error", {}).get("type")
        return ([] if err == expect["error"]
                else [f"error {err!r}, expected {expect['error']!r}"])
    errors = []
    if report.get("error"):
        errors.append(f"unexpected error {report['error']}")
    rhs = report.get("rhs_index_sum")
    if rhs is None or _frac(rhs) != expect["rhs"]:
        errors.append(f"rhs {rhs}, expected {expect['rhs']}")
    if report.get("identity_ok") is not True:
        errors.append(f"identity_ok is {report.get('identity_ok')}")
    found = [tuple(float(t) for t in p["position3"])
             for p in report.get("singular_points", [])]
    errors += _match(found, expect["points3"], POS_TOL, "umbilics")[1]
    return errors


_LINE = re.compile(r"<line ")
_MARK = re.compile(r'<circle cx="([-0-9.]+)" cy="([-0-9.]+)"')
_SIZE = re.compile(r'<svg [^>]*width="(\d+)" height="(\d+)"')


def check_plot(expect, code, text):
    if code != 0:
        return [f"exit code {code}, expected 0"]
    errors = []
    segments = len(_LINE.findall(text))
    if segments != expect["segments"]:
        errors.append(f"{segments} segments, expected {expect['segments']}")
    width, height = (int(v) for v in _SIZE.search(text).groups())
    xmin, xmax, ymin, ymax = expect["domain"]
    sx = width / (xmax - xmin)
    sy = height / (ymax - ymin)
    want = [((x - xmin) * sx, (ymax - y) * sy) for x, y in expect["marks"]]
    found = [(float(a), float(b)) for a, b in _MARK.findall(text)]
    errors += _match(found, want, PX_TOL, "singular-point marks")[1]
    return errors


CHECKS = {"analyze": check_analyze, "verify-theorem": check_theorem,
          "plot": check_plot}


def check(case, code, text):
    """Problems with the output ``text`` (report JSON or SVG) and exit
    ``code`` of one case."""
    try:
        return CHECKS[case.command](case.expect, code, text)
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]
