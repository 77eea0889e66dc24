"""Index classes of orbits and the aggregate index of a singular point.

Each orbit of the local monodromy yields a closed lift over k loop
traversals (k the orbit size); the class of its fiber projection in the
fundamental group of the fiber is an integer winding number m.  The
pairing normalization is fixed once: the cohomology class used to read
indices pairs to 1 with the positive generator of the fiber's fundamental
group, so m is the one canonical integer invariant and every other
convention derives from it:

* ``normalized_index``  m/k  — the index of the point per orbit under the
  generator-dual pairing, an exact rational;
* ``classical_line_index``  m/(2k)  — the line-field index in half-turn
  units (RP^1 fibers only): +-1/2 at generic umbilics;
* ``fukui_index``  m/(2n)  — the binary-n-form normalization obtained by
  reading the same lift in the doubled unit-tangent cover; only
  ``alternative_normalizations`` returns it, and reports do not carry it.

Indices are exact ``Fraction`` values; floating point appears only in
lifts and closure defects.  The loops are tracked at the tolerances of
the fiber system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .expr import DomainError, ExprError
from .fiber import FiberKind, FiberSystem, NonIsolatedZero, SingularPoint
from .monodromy import (LoopSpec, MonodromyResult, SingularOnLoop,
                        TrackedPath, orbit_lift, track_loop, track_loops)

__all__ = [
    "OrbitIndexReport", "PointIndexReport", "LineFieldNormalizations",
    "IndexError_", "OpenPath", "ClosureDefectTooLarge", "WrongFiber",
    "winding_class", "index_report", "index_reports",
    "alternative_normalizations",
    "CLOSURE_DEFECT_TOL",
]

# relative closure-defect bound (fraction of the fiber period)
CLOSURE_DEFECT_TOL = 1e-6
# smallest singular value of Dc at which a point's local degree is read
DEGREE_SIGMA_MIN = 1e-6
# the tracking failures that a loop of radius "auto" retries at half radius
_RETRIED = (SingularOnLoop, DomainError)


class IndexError_(Exception):
    """Base class for index-computation errors (trailing underscore keeps
    the builtin IndexError untouched)."""


class OpenPath(IndexError_):
    """Winding requested for a path that does not close in the fiber."""


class ClosureDefectTooLarge(IndexError_):
    """The lift's deviation from an exact period multiple exceeds the
    tolerance; the tracking is not trustworthy."""


class WrongFiber(IndexError_):
    """Operation defined only for RP^1 (projective) fibers."""


@dataclass(frozen=True)
class OrbitIndexReport:
    """Index data of one orbit of the local monodromy."""
    kind: FiberKind
    orbit: tuple
    size: int
    winding: int
    normalized_index: Fraction
    classical_line_index: Fraction | None
    closure_defect: float


@dataclass(frozen=True)
class PointIndexReport:
    """Aggregate index of a singular point.

    ``total_index`` is the sum of m/k over orbits (the index with respect
    to the generator-dual class); ``uniform_orbit_size`` is the common
    orbit size N(x) when all orbits agree, else None.
    """
    point: tuple
    kind: FiberKind
    orbit_reports: tuple
    total_index: Fraction
    uniform_orbit_size: int | None
    monodromy: MonodromyResult


@dataclass(frozen=True)
class LineFieldNormalizations:
    classical_line_index: Fraction
    fukui_index: Fraction


def winding_class(path: TrackedPath) -> int:
    """Integer class of a closed lift in the fiber's fundamental group.

    m = (lift_end - lift_start) / period rounded to the nearest integer;
    the rounding defect must stay below CLOSURE_DEFECT_TOL * period.
    """
    gap = path.kind.distance(path.start_root, path.end_root)
    if gap > 1e-6:
        raise OpenPath(f"path endpoints differ by {gap:.3e} in the fiber")
    period = path.kind.period
    change = path.lift_change
    m = round(change / period)
    defect = abs(change - m * period)
    if defect >= CLOSURE_DEFECT_TOL * period:
        raise ClosureDefectTooLarge(
            f"closure defect {defect:.3e} exceeds "
            f"{CLOSURE_DEFECT_TOL * period:.3e}")
    if path.logmod is not None:
        mod_defect = abs(path.logmod[-1] - path.logmod[0])
        if mod_defect >= 1e-6:
            raise ClosureDefectTooLarge(
                f"log-modulus closure defect {mod_defect:.3e}")
    return int(m)


def orbit_index(result: MonodromyResult, orbit) -> OrbitIndexReport:
    """Index report of one orbit of a monodromy result."""
    path = orbit_lift(result, orbit)
    k = len(orbit)
    period = result.kind.period
    m = winding_class(path)
    defect = abs(path.lift_change - m * period)
    classical = (Fraction(m, 2 * k)
                 if result.kind is FiberKind.PROJECTIVE else None)
    return OrbitIndexReport(
        kind=result.kind, orbit=tuple(orbit), size=k, winding=m,
        normalized_index=Fraction(m, k), classical_line_index=classical,
        closure_defect=defect)


def _loop_misfit(sp: SingularPoint, loop: LoopSpec):
    """The ValueError of a loop that does not fit ``sp``, else None."""
    if loop.center != sp.position:
        return ValueError("loop is not centered at the singular point")
    if loop.radius >= sp.isolation_radius:
        return ValueError(
            f"loop radius {loop.radius} is not below the isolation radius "
            f"{sp.isolation_radius}")
    return None


def _check_degree(sys: FiberSystem, sp: SingularPoint,
                  result: MonodromyResult):
    """Raise NonIsolatedZero where the loop's counterclockwise winding,
    the summed lift changes of its tracked roots in fiber periods (halved
    on RP^1), is not the point's local degree sign det Dc.  Dc, on
    Python floats, is from the rows of ``residual_vector``: their
    alternating sums a_0 - a_2 + ... and a_1 - a_3 + ... on RP^1, the
    first two rows on S^1 and C*.  No verdict where the Jacobian fails to
    evaluate, where ``sp`` is off the singular set (residual above
    ``singular_tol``) or where the smallest singular value of Dc is below
    DEGREE_SIGMA_MIN."""
    try:
        r, J = sys.residual_vector(sp.x, sp.y)
    except ExprError:
        return
    if sum(v * v for v in r.tolist()) > sys.singular_tol:
        return
    rows = J.tolist()
    if sys.kind is FiberKind.PROJECTIVE:
        sums = [[0.0, 0.0], [0.0, 0.0]]
        for i, (gx, gy) in enumerate(rows):
            s = -1.0 if i % 4 >= 2 else 1.0
            sums[i % 2][0] += s * gx
            sums[i % 2][1] += s * gy
        rows = sums
    (a, b), (c, d) = rows[:2]
    det = a * d - b * c
    # the singular values are (h1 + h2)/2 and |h1 - h2|/2, whose product
    # is |det|
    sigma_max = 0.5 * (math.hypot(a + d, c - b) + math.hypot(a - d, b + c))
    if not (sigma_max > 0.0
            and abs(det) / sigma_max >= DEGREE_SIGMA_MIN):   # NaN fails too
        return
    degree = 1 if det > 0.0 else -1
    turns = round(sum(p.lift_change for p in result.paths)
                  / sys.kind.period) * result.loop.orientation
    winding = Fraction(turns, 2 if sys.kind is FiberKind.PROJECTIVE else 1)
    if winding != degree:
        raise NonIsolatedZero(
            f"the loop of radius {result.loop.radius} around ({sp.x}, "
            f"{sp.y}) winds {winding} times, but the point's local degree "
            f"is {degree}: another zero lies inside the loop")


def _point_report(sys: FiberSystem, sp: SingularPoint,
                  result: MonodromyResult) -> PointIndexReport:
    _check_degree(sys, sp, result)
    reports = tuple(orbit_index(result, orbit) for orbit in result.orbits)
    total = sum((r.normalized_index for r in reports), Fraction(0))
    sizes = {r.size for r in reports}
    uniform = sizes.pop() if len(sizes) == 1 else None
    return PointIndexReport(
        point=sp.position, kind=sys.kind, orbit_reports=reports,
        total_index=total, uniform_orbit_size=uniform, monodromy=result)


def index_report(sys: FiberSystem, sp: SingularPoint,
                 loop: LoopSpec | None = None) -> PointIndexReport:
    """Track a loop around ``sp`` (``track_loop``) and assemble the
    per-orbit indices.

    With no explicit loop, a counterclockwise circle of radius
    isolation_radius/2 is used.  An explicit loop must be centered at the
    point with radius below its isolation radius, which is geometric
    (else ValueError).  The loop's winding must match the point's local
    degree, else NonIsolatedZero: a check by degree bookkeeping, sampled
    on the tracked loop, not proven.  ``index_reports`` does the same for
    many points with their loops tracked together.
    """
    if loop is None:
        loop = LoopSpec(center=sp.position, radius=sp.isolation_radius / 2.0)
    misfit = _loop_misfit(sp, loop)
    if misfit is not None:
        raise misfit
    return _point_report(sys, sp, track_loop(sys, loop))


def index_reports(sys: FiberSystem, points, loops, halve=False):
    """``(point, index_report)`` for each singular point of ``points``
    with its explicit loop of ``loops``, as a generator in point order.
    The loops that fit their points are tracked together first
    (``track_loops``); then each report is assembled in turn, and the
    first point that fails raises what ``index_report`` would raise for
    it: the ValueError of a loop that does not fit, else its tracking or
    index error.

    With ``halve`` (the loops of a loop radius "auto"), a loop whose
    tracking fails at a fiber solve or an evaluation is tracked again at
    half its radius, and its point's isolation radius halves with it, so
    the point is yielded with the radius its report used.  Each round
    tracks every loop retried in one ``track_loops`` call, at most 10
    rounds and not below radius 1e-8; a point whose loop still fails
    raises NonIsolatedZero."""
    points, loops = list(points), list(loops)
    misfits = [_loop_misfit(sp, loop) for sp, loop in zip(points, loops)]
    results = [None] * len(points)
    todo = [k for k, e in enumerate(misfits) if e is None]
    for _ in range(10):
        for k, result in zip(todo, track_loops(sys,
                                               [loops[k] for k in todo])):
            results[k] = result
        todo = [k for k in todo if halve and loops[k].radius >= 2e-8
                and isinstance(results[k], _RETRIED)]
        if not todo:
            break
        for k in todo:
            points[k] = replace(points[k], isolation_radius=0.5
                                * points[k].isolation_radius)
            loops[k] = replace(loops[k], radius=0.5 * loops[k].radius)
    for sp, misfit, result in zip(points, misfits, results):
        if misfit is not None:
            raise misfit
        if halve and isinstance(result, _RETRIED):
            raise NonIsolatedZero(
                f"isolation probe failed for the zero near ({sp.x}, {sp.y})")
        if isinstance(result, Exception):
            raise result
        yield sp, _point_report(sys, sp, result)


def alternative_normalizations(report: OrbitIndexReport, degree: int
                               ) -> LineFieldNormalizations:
    """Derived normalizations of an RP^1 orbit index for a degree-n form.

    The classical line index counts the winding in half turns, m/(2k),
    which is also the unit-tangent (S^1TM) reading; the binary-n-form
    normalization divides the doubled-cover winding by 2n.
    All zero when the winding class is zero.
    """
    if report.kind is not FiberKind.PROJECTIVE:
        raise WrongFiber(
            "alternative normalizations are defined for projective fibers")
    m, k = report.winding, report.size
    return LineFieldNormalizations(
        classical_line_index=Fraction(m, 2 * k),
        fukui_index=Fraction(m, 2 * degree))
