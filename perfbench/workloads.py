"""Seeded benchmark inputs: problem files plus the answers they must give.

Every input is written as a problem JSON file, so the program sees only
files.  The expected answers are known by construction (placed zeros,
closed-form umbilics) or are the documented values of the shipped problems;
``oracle.py`` compares the program's output against them.

Workloads (see README.md for the layers each one loads):

* ``surface_theorem`` -- ``verify-theorem`` on one seeded tri-axial ellipsoid
  and three shipped surfaces;
* ``plane_mix`` -- ``analyze`` on seeded projective, circle and
  punctured-plane systems and the six shipped plane problems;
* ``web_plot`` -- ``plot`` at a fine grid on seeded degree-2 webs and two
  shipped webs.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction

# Plane systems per kind in plane_mix, webs in web_plot, grid of each plot.
# The k-th system of a kind has 2 + k % 2 zeros and 1 + k % 3 sheets (circle)
# or 2 + k % 3 sheets (punctured plane): every seed runs the same mix of
# sizes, and the seed moves only the zeros and their orientations, so the
# work per pass barely depends on the seed.
PLANE_PER_KIND = 12
PLOT_WEBS = 4
PLOT_GRID = 100


@dataclass
class Case:
    """One input: a command on a problem file, and what it must produce."""
    name: str
    command: str            # "analyze" | "verify-theorem" | "plot"
    path: str
    expect: dict
    grid: int = 0           # plot grid (plot only)
    output: str = ""


def _write(dirname, name, doc):
    path = os.path.join(dirname, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def _copy_shipped(root, dirname, name):
    path = os.path.join(dirname, name + ".json")
    shutil.copyfile(os.path.join(root, "problems", name + ".json"), path)
    return path


# ---------------------------------------------------------------------------
# Plane systems with placed zeros


def _num(v: float) -> str:
    return f"{v:.2f}"


def _shift(var: str, c: float) -> str:
    return f"({var}-{_num(c)})" if c >= 0 else f"({var}+{_num(-c)})"


def _factor(zero, conj):
    """(re, im) source strings of z - z_k, or of its conjugate."""
    re = _shift("x", zero[0])
    im = _shift("y", zero[1])
    return (re, f"(-{im})" if conj else im)


def _cmul(p, q):
    a, b = p
    c, d = q
    return (f"({a}*{c}-{b}*{d})", f"({a}*{d}+{b}*{c})")


def _product(zeros, conjs):
    acc = _factor(zeros[0], conjs[0])
    for z, cj in zip(zeros[1:], conjs[1:]):
        acc = _cmul(acc, _factor(z, cj))
    return acc


def _place_zeros(rng, count, lo=-1.6, hi=1.6, min_gap=0.8):
    """``count`` points of [lo, hi]^2 (0.4 inside [-2, 2]^2), pairwise at
    least ``min_gap`` apart, rounded to the printed two decimals."""
    while True:
        pts = [(round(rng.uniform(lo, hi), 2), round(rng.uniform(lo, hi), 2))
               for _ in range(count)]
        if all(math.dist(p, q) >= min_gap
               for i, p in enumerate(pts) for q in pts[i + 1:]):
            return pts


_DOMAIN = {"x": [-2, 2], "y": [-2, 2]}
_PLOT_DOMAIN = (-2.0, 2.0, -2.0, 2.0)   # xmin, xmax, ymin, ymax


def _projective_web(rng, k):
    """[-Q, 2P, Q] with v = P + iQ: index +2 at a zero of a factor z - z_k,
    -2 at a conjugate factor; two size-1 orbits each."""
    zeros = _place_zeros(rng, 2 + k % 2)
    conjs = [rng.random() < 0.5 for _ in zeros]
    p, q = _product(zeros, conjs)
    doc = {"version": 1, "domain": _DOMAIN,
           "system": {"type": "projective", "degree": 2,
                      "coefficients": [f"-{q}", f"2*{p}", q]}}
    points = [{"at": z, "total": Fraction(-2 if cj else 2), "sizes": [1, 1]}
              for z, cj in zip(zeros, conjs)]
    return doc, points


def _circle_system(rng, k):
    """w^m = v/|v|: one orbit of size m with index +-1/m per zero."""
    zeros = _place_zeros(rng, 2 + k % 2)
    conjs = [rng.random() < 0.5 for _ in zeros]
    m = 1 + k % 3
    p, q = _product(zeros, conjs)
    doc = {"version": 1, "domain": _DOMAIN,
           "system": {"type": "circle", "sheets": m, "numerator": [p, q]}}
    points = [{"at": z, "total": Fraction(-1 if cj else 1, m), "sizes": [m]}
              for z, cj in zip(zeros, conjs)]
    return doc, points


def _punctured_system(rng, k):
    """w^n = prod (z - z_k): one orbit of size n with index 1/n per zero."""
    zeros = _place_zeros(rng, 2 + k % 2)
    n = 2 + k % 3
    p, q = _product(zeros, [False] * len(zeros))
    coeffs = [[f"-{p}", f"-{q}"]] + [["0", "0"]] * (n - 1) + [["1", "0"]]
    doc = {"version": 1, "domain": _DOMAIN,
           "system": {"type": "punctured_plane", "degree": n,
                      "coefficients": coeffs}}
    points = [{"at": z, "total": Fraction(1, n), "sizes": [n]} for z in zeros]
    return doc, points


# Documented values of the shipped plane problems (README table); every
# shipped singular point sits at the origin.
def _origin(total, sizes):
    return [{"at": (0.0, 0.0), "total": Fraction(total), "sizes": sizes}]


SHIPPED_PLANE = {
    "lemon": _origin(2, [1, 1]),
    "radial_circular": _origin(4, [1, 1]),
    "cusp_cover": _origin(Fraction(2, 3), [3]),
    "half_turn_circle": _origin(Fraction(1, 2), [2]),
    "quarter_turn_projective": _origin(2, [1, 1]),
    "three_web_constant": [],
}

SHIPPED_PLOT_ROOTS = {"radial_circular": 2, "three_web_constant": 3}


# ---------------------------------------------------------------------------
# Surfaces


def _ellipsoid_axes(rng):
    """Axes a > b > c, rounded to the two decimals written to the file,
    with the umbilic's face coordinate s = sqrt((b^2 - c^2) / (a^2 - b^2))
    in [0.7, 0.8] (inside [0.3, 0.8], away from the face edges) and
    b / c in [1.8, 2.2].  Outside that band the grid scan of the
    umbilic-free faces finds no candidate for some axes and skips their
    Gauss-Newton Jacobians, a quarter of the pass; inside it every seed
    does the same work.  The shipped ellipsoid_321 has s = 0.77, b/c = 2."""
    while True:
        c = round(rng.uniform(0.8, 1.2), 2)
        b = round(c * rng.uniform(1.8, 2.2), 2)
        s = rng.uniform(0.7, 0.8)
        a = round(math.sqrt(b * b + (b * b - c * c) / (s * s)), 2)
        s = math.sqrt((b * b - c * c) / (a * a - b * b))
        if a > b > c and 0.7 <= s <= 0.8 and 1.8 <= b / c <= 2.2:
            return a, b, c


def _umbilics(a, b, c):
    """The four umbilics of (x/a)^2 + (y/b)^2 + (z/c)^2 = 1, a > b > c."""
    x = a * math.sqrt((a * a - b * b) / (a * a - c * c))
    z = c * math.sqrt((b * b - c * c) / (a * a - c * c))
    return [(sx * x, 0.0, sz * z) for sx in (1, -1) for sz in (1, -1)]


def _ellipsoid_doc(a, b, c):
    """Six cube-face charts of (x/a)^2 + (y/b)^2 + (z/c)^2 = 1, the layout
    of the shipped ellipsoid_321 problem."""
    n = "sqrt(1+u^2+v^2)"
    A, B, C = _num(a), _num(b), _num(c)
    specs = [
        ("face+x", f"{A}/{n}", f"{B}*u/{n}", f"{C}*v/{n}"),
        ("face-x", f"-{A}/{n}", f"{B}*u/{n}", f"{C}*v/{n}"),
        ("face+y", f"{A}*v/{n}", f"{B}/{n}", f"{C}*u/{n}"),
        ("face-y", f"{A}*v/{n}", f"-{B}/{n}", f"{C}*u/{n}"),
        ("face+z", f"{A}*u/{n}", f"{B}*v/{n}", f"{C}/{n}"),
        ("face-z", f"{A}*u/{n}", f"{B}*v/{n}", f"-{C}/{n}"),
    ]
    patches = [{"name": nm, "x": x, "y": y, "z": z,
                "domain": {"u": [-1, 1], "v": [-1, 1]}, "weight": "1"}
               for nm, x, y, z in specs]
    return {"version": 1,
            "surface": {"patches": patches,
                        "bde": {"source": "curvature_lines"}},
            "quadrature": {"order": 32}, "grid_density": 32}


# ---------------------------------------------------------------------------
# Workloads


def _surface_theorem(rng, root, d):
    a, b, c = _ellipsoid_axes(rng)
    cases = [Case("ellipsoid", "verify-theorem",
                  _write(d, "ellipsoid", _ellipsoid_doc(a, b, c)),
                  {"code": 0, "rhs": 8,
                   "points3": _umbilics(a, b, c)})]
    shipped = {
        "sphere_meridian_field": {"code": 0, "rhs": 4,
                                  "points3": [(0.0, 0.0, 1.0),
                                              (0.0, 0.0, -1.0)]},
        "torus_constant_web": {"code": 0, "rhs": 0, "points3": []},
        "sphere_all_umbilic": {"code": 2, "error": "NonIsolatedZero"},
    }
    for name, expect in shipped.items():
        cases.append(Case(name, "verify-theorem",
                          _copy_shipped(root, d, name), expect))
    return cases


def _plane_mix(rng, root, d):
    cases = []
    makers = (("projective", _projective_web), ("circle", _circle_system),
              ("punctured", _punctured_system))
    for k in range(PLANE_PER_KIND):
        for kind, make in makers:
            doc, points = make(rng, k)
            name = f"{kind}{k:02d}"
            cases.append(Case(name, "analyze", _write(d, name, doc),
                              {"code": 0, "points": points}))
    for name, points in SHIPPED_PLANE.items():
        cases.append(Case(name, "analyze", _copy_shipped(root, d, name),
                          {"code": 0, "points": points}))
    return cases


def _plot_expect(zeros, roots):
    """Marks at the zeros, and one segment per root at every cell centre
    except a centre that is a zero, where the fiber is singular."""
    xmin, xmax, ymin, ymax = _PLOT_DOMAIN
    step = (xmax - xmin) / PLOT_GRID

    def on_centre(t, lo):
        i = round((t - lo) / step - 0.5)
        return abs(lo + (i + 0.5) * step - t) < 1e-9

    hit = sum(1 for x, y in zeros if on_centre(x, xmin) and on_centre(y, ymin))
    return {"marks": zeros, "segments": roots * (PLOT_GRID ** 2 - hit),
            "domain": _PLOT_DOMAIN}


def _web_plot(rng, root, d):
    cases = []
    for k in range(PLOT_WEBS):
        doc, points = _projective_web(rng, k)
        name = f"web{k:02d}"
        cases.append(Case(name, "plot", _write(d, name, doc),
                          _plot_expect([p["at"] for p in points], 2),
                          grid=PLOT_GRID))
    for name, roots in SHIPPED_PLOT_ROOTS.items():
        marks = [p["at"] for p in SHIPPED_PLANE[name]]
        cases.append(Case(name, "plot", _copy_shipped(root, d, name),
                          _plot_expect(marks, roots), grid=PLOT_GRID))
    return cases


_BUILDERS = {"surface_theorem": _surface_theorem, "plane_mix": _plane_mix,
             "web_plot": _web_plot}
WORKLOADS = tuple(_BUILDERS)


def make_cases(workload: str, seed: int, root: str, dirname: str):
    """Write the workload's problem files for ``seed`` into ``dirname``.

    ``root`` is the checkout holding the shipped ``problems/``.  The same
    seed always gives the same files."""
    rng = random.Random(f"{workload}:{seed}")
    cases = _BUILDERS[workload](rng, root, dirname)
    suffix = {"plot": ".svg"}
    for c in cases:
        c.output = os.path.join(dirname,
                                c.name + suffix.get(c.command, ".report.json"))
    return cases
