"""Continuation of fiber roots along loops and the local monodromy action.

A loop around an isolated singular point is sampled, the fiber is solved
at every sample, and roots are matched between consecutive samples by
nearest neighbour (``_match``).  A step is accepted only when every root
moves less than half the local minimum root separation, which makes the
nearest-neighbour matching the unique one realised by continuous
continuation; otherwise the step is bisected (up to a depth cap).  The
same matcher closes the loop and labels the end of ``transport_fiber``.

Nothing here depends on the fiber variant.  The roots carry it: each
root's ``distance`` is the fiber metric, its ``angle`` is the coordinate
the lift unwraps (modulo ``FiberKind.period``), and ``solve`` returns the
fiber in canonical order, which gives the labels.

The initial samples are solved in one batch (``FiberSystem.solve_many``)
before matching starts.  A sample whose batched solve fails is solved
again when matching reaches it, so the error names its loop parameter;
bisection midpoints are solved one at a time.

One full traversal in the positive (counterclockwise) direction induces
the permutation of the fiber that generates the local monodromy group;
its cycles are the orbits.  ``orbit_lift`` concatenates the per-root
paths along a cycle into the closed loop that covers the base circle
``k`` times (``k`` the orbit size).

Tracking runs for distinct loops are independent and may execute
concurrently; results are immutable once returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fiber import (FiberError, FiberKind, FiberSystem, SEP_FLOOR,
                    SINGULAR_TOL, SingularFiber, fiber_distance,
                    min_root_separation, solve_fiber)

__all__ = [
    "LoopSpec", "TrackedPath", "MonodromyResult",
    "TrackingError", "StepCollapse", "SingularOnLoop", "AmbiguousMatching",
    "NotClosed",
    "track_loop", "orbit_lift", "transport_fiber",
]

_TWO_PI = 2.0 * math.pi


class TrackingError(Exception):
    """Base class for continuation failures."""


class StepCollapse(TrackingError):
    """Bisection depth exhausted; the path runs too close to a
    degeneracy of the fiber."""


class SingularOnLoop(TrackingError):
    """The fiber could not be solved at a sample of the path."""


class AmbiguousMatching(TrackingError):
    """Two candidate matches at indistinguishable distance."""


class NotClosed(TrackingError):
    """A lift that must close failed to return to its starting root."""


@dataclass(frozen=True)
class LoopSpec:
    """Circle around a singular point, traversed once.

    orientation +1 is counterclockwise in base coordinates (the positive
    generator); -1 is the inverse loop.  ``start_angle`` fixes the base
    point on the circle (a reporting convention; the monodromy data is
    independent of it up to transport).
    """
    center: tuple
    radius: float
    orientation: int = 1
    samples: int = 64
    max_depth: int = 12
    start_angle: float = 0.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        if self.samples < 32:
            raise ValueError("need at least 32 initial samples")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")

    def point(self, t: float):
        th = self.start_angle + _TWO_PI * self.orientation * t
        return (self.center[0] + self.radius * math.cos(th),
                self.center[1] + self.radius * math.sin(th))

    @property
    def base_point(self):
        return self.point(0.0)


@dataclass(frozen=True)
class TrackedPath:
    """Samples of one continuously-continued fiber root.

    ``lift`` is the unwrapped fiber coordinate: the angle lift for RP^1
    (period pi) and S^1 (period 2 pi), the unwrapped argument for C*.
    ``logmod`` carries log|w| for C* paths, else None.
    """
    kind: FiberKind
    ts: tuple
    roots: tuple
    lift: tuple
    logmod: tuple = None

    @property
    def start_root(self):
        return self.roots[0]

    @property
    def end_root(self):
        return self.roots[-1]

    @property
    def lift_change(self) -> float:
        return self.lift[-1] - self.lift[0]

    def __len__(self):
        return len(self.ts)


@dataclass(frozen=True)
class MonodromyResult:
    """Permutation of the fiber over the loop's base point.

    ``sigma[i] = j`` means the lift starting at root ``i`` terminates at
    root ``j`` (0-based labels in the canonical root order at the base
    point).  ``orbits`` are the cycles of sigma, each ordered by first
    encounter along the loop and starting at its smallest label.
    """
    kind: FiberKind
    loop: LoopSpec
    base_point: tuple
    roots0: tuple
    sigma: tuple
    orbits: tuple
    paths: tuple
    samples_solved: int
    depth_reached: int

    @property
    def sheet_count(self) -> int:
        return len(self.roots0)

    def is_identity(self) -> bool:
        return all(s == i for i, s in enumerate(self.sigma))


# ---------------------------------------------------------------------------
# Core tracking engine


def _wrap(d: float, period: float) -> float:
    """Wrap d into (-period/2, period/2]."""
    w = math.fmod(d + period / 2.0, period)
    if w <= 0.0:
        w += period
    return w - period / 2.0


def _match(prev, new, bound):
    """For each root of ``prev``, the index of its nearest root in ``new``.

    None when a nearest distance reaches ``bound`` or two roots of prev
    share a nearest root; AmbiguousMatching when the two nearest distances
    of a root are within 1e-9.  The roots are checked in order, so the
    first failure decides."""
    out = []
    for r in prev:
        (d0, k0), *rest = sorted([(r.distance(s), k)
                                  for k, s in enumerate(new)])
        if d0 >= bound:
            return None
        if rest and rest[0][0] - d0 < 1e-9:
            raise AmbiguousMatching(
                f"two matches within 1e-9 while continuing a root "
                f"(distances {d0:.3e} and {rest[0][0]:.3e})")
        if k0 in out:
            return None
        out.append(k0)
    return out


class _Tracker:
    """Adaptive continuation of a full ordered fiber along a base path.

    ``presolved`` maps a path parameter t to the roots of a batched solve
    at t, or None where that solve failed."""

    def __init__(self, sys: FiberSystem, path_fn, singular_tol, sep_floor,
                 max_depth, presolved):
        self.sys = sys
        self.path_fn = path_fn
        self.singular_tol = singular_tol
        self.sep_floor = sep_floor
        self.max_depth = max_depth
        self.presolved = presolved
        self.solves = 0
        self.depth_reached = 0

    def solve_at(self, t: float):
        self.solves += 1
        roots = self.presolved.get(t)
        if roots is not None:
            return roots
        # a bisection midpoint, or a sample whose batched solve failed:
        # solving the point alone raises the error, here named with t
        p = self.path_fn(t)
        try:
            return solve_fiber(self.sys, p, singular_tol=self.singular_tol,
                               sep_floor=self.sep_floor)
        except SingularFiber as e:
            raise SingularOnLoop(
                f"singular fiber at t={t:.6g}, point {p}: {e}") from e
        except FiberError as e:
            raise SingularOnLoop(
                f"fiber solve failed at t={t:.6g}, point {p}: {e}") from e

    def advance(self, t0, roots0, sep0, t1, depth, out):
        """Continue the ordered fiber from t0 to t1, appending accepted
        samples (t, roots) to out.  ``sep0`` is the minimum root
        separation at t0; returns the roots at t1 and theirs."""
        self.depth_reached = max(self.depth_reached,
                                 self.max_depth - depth)
        roots1 = self.solve_at(t1)
        sep1 = min_root_separation(roots1)
        order = _match(roots0, roots1, 0.5 * min(sep0, sep1))
        if order is not None:
            matched = tuple(roots1[k] for k in order)
            out.append((t1, matched))
            return matched, sep1
        if depth <= 0:
            raise StepCollapse(
                f"step {t0:.6g} -> {t1:.6g} could not be refined further; "
                "the path passes too close to a fiber degeneracy")
        tm = 0.5 * (t0 + t1)
        mid, sep_mid = self.advance(t0, roots0, sep0, tm, depth - 1, out)
        return self.advance(tm, mid, sep_mid, t1, depth - 1, out)


def _run_track(sys, path_fn, samples, max_depth, singular_tol, sep_floor):
    """Track the whole fiber along path_fn over [0, 1].

    The samples t = j/samples are solved in one batch first; only
    bisection midpoints are solved one at a time.  Returns the accepted
    (t, roots) samples, the roots ordered as the canonical fiber at t = 0,
    and the tracker.
    """
    ts = [j / samples for j in range(samples + 1)]
    presolved = dict(zip(ts, sys.solve_many([path_fn(t) for t in ts],
                                            singular_tol, sep_floor)))
    tracker = _Tracker(sys, path_fn, singular_tol, sep_floor, max_depth,
                       presolved)
    roots = tracker.solve_at(0.0)
    out = [(0.0, roots)]
    cur, sep = roots, min_root_separation(roots)
    for t in ts[1:]:
        cur, sep = tracker.advance(out[-1][0], cur, sep, t, max_depth, out)
    return out, tracker


def _build_paths(kind, samples):
    """Per-root TrackedPath objects from the (t, ordered roots) samples."""
    n = len(samples[0][1])
    ts = tuple(t for t, _ in samples)
    paths = []
    for i in range(n):
        roots = tuple(s[1][i] for s in samples)
        lift = [roots[0].angle]
        for a, b in zip(roots, roots[1:]):
            lift.append(lift[-1] + _wrap(b.angle - a.angle, kind.period))
        logmod = None
        if kind is FiberKind.PUNCTURED_PLANE:
            logmod = tuple(math.log(r.modulus) for r in roots)
        paths.append(TrackedPath(kind, ts, roots, tuple(lift), logmod))
    return paths


# ---------------------------------------------------------------------------
# Public operations


def track_loop(sys: FiberSystem, loop: LoopSpec,
               singular_tol: float = SINGULAR_TOL,
               sep_floor: float = SEP_FLOOR) -> MonodromyResult:
    """Monodromy permutation induced by one traversal of ``loop``."""
    samples, tracker = _run_track(sys, loop.point, loop.samples,
                                  loop.max_depth, singular_tol, sep_floor)
    roots0 = samples[0][1]
    paths = _build_paths(sys.kind, samples)

    # match the final fiber back onto the initial one
    sigma = _match(samples[-1][1], roots0, math.inf)
    if sigma is None:
        raise AmbiguousMatching(
            "closing the loop: two tracked endpoints map to the same "
            "initial root")

    orbits = _cycles(sigma)
    return MonodromyResult(
        kind=sys.kind, loop=loop, base_point=loop.base_point,
        roots0=roots0, sigma=tuple(sigma), orbits=orbits,
        paths=tuple(paths), samples_solved=tracker.solves,
        depth_reached=tracker.depth_reached)


def _cycles(sigma):
    n = len(sigma)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = sigma[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = sigma[j]
        out.append(tuple(cyc))
    return tuple(out)


def orbit_lift(result: MonodromyResult, orbit) -> TrackedPath:
    """Closed path over ``len(orbit)`` loop traversals through the orbit.

    Concatenates the single-traversal lifts along the cycle order; the
    lift coordinate is continuous across junctions (shifted by exact
    period multiples only, so closure defects stay visible).  Raises
    NotClosed when the concatenation fails to return to its start.
    """
    orbit = tuple(orbit)
    if orbit not in result.orbits:
        raise ValueError(f"{orbit} is not an orbit of this result")
    period = result.kind.period

    ts = list(result.paths[orbit[0]].ts)
    roots = list(result.paths[orbit[0]].roots)
    lift = list(result.paths[orbit[0]].lift)
    logmod = (list(result.paths[orbit[0]].logmod)
              if result.paths[orbit[0]].logmod is not None else None)

    for lap, i in enumerate(orbit[1:], start=1):
        p = result.paths[i]
        d = fiber_distance(roots[-1], p.roots[0])
        if d > 1e-6:
            raise NotClosed(
                f"junction mismatch while lifting an orbit: {d:.3e}")
        shift = round((lift[-1] - p.lift[0]) / period) * period
        ts.extend(t + lap for t in p.ts[1:])
        roots.extend(p.roots[1:])
        lift.extend(v + shift for v in p.lift[1:])
        if logmod is not None:
            logmod.extend(p.logmod[1:])

    if fiber_distance(roots[-1], roots[0]) > 1e-6:
        raise NotClosed(
            "orbit lift does not return to its starting root: "
            f"{fiber_distance(roots[-1], roots[0]):.3e}")

    return TrackedPath(result.kind, tuple(ts), tuple(roots), tuple(lift),
                       tuple(logmod) if logmod is not None else None)


def transport_fiber(sys: FiberSystem, src, dst, samples: int = 32,
                    max_depth: int = 12,
                    singular_tol: float = SINGULAR_TOL,
                    sep_floor: float = SEP_FLOOR):
    """Bijection between the canonical fibers over two base points.

    Tracks the fiber along the straight segment src -> dst; returns a
    tuple ``m`` with ``m[i] = j`` when the root with canonical label i
    over src continues to the root with canonical label j over dst.
    """
    def seg(t):
        return (src[0] + t * (dst[0] - src[0]),
                src[1] + t * (dst[1] - src[1]))

    samples_list, tracker = _run_track(sys, seg, max(samples, 32), max_depth,
                                       singular_tol, sep_floor)
    # the tracked end fiber is the t = 1 solve, whose order is canonical,
    # reordered along the paths; a finished track solved every sample
    return tuple(_match(samples_list[-1][1], tracker.presolved[1.0],
                        math.inf))
