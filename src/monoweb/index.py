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

from dataclasses import dataclass
from fractions import Fraction

from .fiber import FiberKind, FiberSystem, SingularPoint
from .monodromy import (LoopSpec, MonodromyResult, TrackedPath, orbit_lift,
                        track_loop, track_loops)

__all__ = [
    "OrbitIndexReport", "PointIndexReport", "LineFieldNormalizations",
    "IndexError_", "OpenPath", "ClosureDefectTooLarge", "WrongFiber",
    "winding_class", "index_report", "index_reports",
    "alternative_normalizations",
    "CLOSURE_DEFECT_TOL",
]

# relative closure-defect bound (fraction of the fiber period)
CLOSURE_DEFECT_TOL = 1e-6


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
            f"loop radius {loop.radius} is not below the probed "
            f"isolation radius {sp.isolation_radius}")
    return None


def _point_report(sys: FiberSystem, sp: SingularPoint,
                  result: MonodromyResult) -> PointIndexReport:
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
    point with radius below the probed isolation radius (else
    ValueError).  ``index_reports`` does the same for many points with
    their loops tracked together.
    """
    if loop is None:
        loop = LoopSpec(center=sp.position, radius=sp.isolation_radius / 2.0)
    misfit = _loop_misfit(sp, loop)
    if misfit is not None:
        raise misfit
    return _point_report(sys, sp, track_loop(sys, loop))


def index_reports(sys: FiberSystem, points, loops):
    """``index_report`` of each singular point of ``points`` with its
    explicit loop of ``loops``, as a generator in point order.  The loops
    that fit their points are tracked together first (``track_loops``);
    then each report is assembled in turn, and the first point that fails
    raises what ``index_report`` would raise for it: the ValueError of a
    loop that does not fit, else its tracking or index error."""
    misfits = [_loop_misfit(sp, loop) for sp, loop in zip(points, loops)]
    results = iter(track_loops(
        sys, [loop for loop, e in zip(loops, misfits) if e is None]))
    for sp, misfit in zip(points, misfits):
        if misfit is not None:
            raise misfit
        result = next(results)
        if isinstance(result, Exception):
            raise result
        yield _point_report(sys, sp, result)


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
