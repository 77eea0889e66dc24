"""Continuation of fiber roots along loops and the local monodromy action.

A loop around an isolated singular point is sampled, the fiber is solved
at every sample, and roots are matched between consecutive samples by
nearest neighbour (``_match``).  A step is accepted only when every root
moves less than half the local minimum root separation, which makes the
nearest-neighbour matching the unique one realised by continuous
continuation; otherwise the step is bisected (up to a depth cap).  The
same matcher closes the loop, and ``transport_fiber`` labels the end of
its segment by the tracked order there.

Nothing here depends on the fiber variant.  Roots are raw fiber
coordinates (phi on RP^1, psi on S^1, complex w on C*) and the kind
gives the rest: ``FiberKind.distance`` is the fiber metric, the angle
(arg w on C*) is the coordinate the lift unwraps modulo
``FiberKind.period``, and the root kernels return each fiber in
canonical order, which gives the labels, with its separation.

Tracking refines paths level by level, many paths at once
(``track_loops``): each level solves the new points of every path (the
samples, then the midpoints of rejected steps) in one batch
(``FiberSystem._fibers``, where each point's fiber is the one it has
alone) and matches all of their steps in one call.  A path's result is
the one it has when tracked alone, and ``track_loop`` is the one-loop
case.  A failed solve raises ``SingularOnLoop``, naming its loop
parameter.

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

import numpy as np

from .fiber import (FiberError, FiberKind, FiberSystem, SEP_FLOOR,
                    SINGULAR_TOL, SingularFiber)

__all__ = [
    "LoopSpec", "TrackedPath", "MonodromyResult",
    "TrackingError", "StepCollapse", "SingularOnLoop", "AmbiguousMatching",
    "NotClosed",
    "track_loop", "track_loops", "orbit_lift", "transport_fiber",
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

    ``roots`` are the raw fiber coordinates (floats; complex on C*).
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


def _match(kind, prev, new, bound):
    """Nearest-root matching of each row of ``prev`` onto the same row of
    ``new`` (both (S, n) root arrays), as ``(order, verdict)``.

    ``order[s, i]`` is the index in ``new[s]`` of the root nearest
    ``prev[s, i]``.  ``verdict[s]`` is True when step s is accepted;
    False when a nearest distance reaches ``bound`` (a scalar or one
    bound per step) or two roots of ``prev[s]`` share a nearest root; and
    an AmbiguousMatching, for the caller to raise, when the two nearest
    distances of a root are within 1e-9.  The roots of a row are checked
    in order, so the first failure decides."""
    # the roots of a failed sample may be inf or NaN; tracking accepts no
    # step that touches one
    with np.errstate(invalid="ignore"):
        D = kind.distance(prev[:, :, None], new[:, None, :])
        near = np.sort(D, axis=2)
        tie = np.zeros(near.shape[:2], dtype=bool)
        if new.shape[1] > 1:
            tie = near[:, :, 1] - near[:, :, 0] < 1e-9
    order = D.argmin(axis=2)
    far = near[:, :, 0] >= np.reshape(bound, (-1, 1))
    shared = np.tril(order[:, :, None] == order[:, None, :], -1).any(axis=2)
    fail = far | tie | shared
    steps, first = np.arange(len(fail)), fail.argmax(axis=1)
    verdict = (~fail[steps, first]).tolist()
    for s in np.flatnonzero(tie[steps, first] & ~far[steps, first]).tolist():
        d0, d1 = near[s, first[s], :2].tolist()
        verdict[s] = AmbiguousMatching(
            f"two matches within 1e-9 while continuing a root "
            f"(distances {d0:.3e} and {d1:.3e})")
    return order, verdict


def _solve_error(t, point, error):
    """What tracking raises where the fiber solve at the loop parameter
    t (the base point ``point``) failed with ``error``."""
    if not isinstance(error, FiberError):
        return error
    what = ("singular fiber" if isinstance(error, SingularFiber)
            else "fiber solve failed")
    exc = SingularOnLoop(f"{what} at t={t:.6g}, point {point}: {error}")
    exc.__cause__ = error
    return exc


class _Path:
    """One path of ``_run_track``: its solved parameters ``t`` with their
    points, roots, separations and errors, the points of the next level
    still to be solved, the steps a -> b (indices into t) of this level,
    and what is settled: the accepted steps of each level and the
    failures, as (t, error)."""

    def __init__(self, fn, samples, max_depth):
        self.fn, self.max_depth = fn, max_depth
        self.t = np.arange(samples + 1) / samples
        self.new = [fn(x) for x in self.t.tolist()]
        self.points, self.errors = [], []
        self.roots = self.sep = None
        self.a, self.b = np.arange(samples), np.arange(1, samples + 1)
        self.accepted, self.failures = [], []
        self.depth = 0

    def add(self, roots, sep, errors):
        """Take the fibers of the points in ``new``."""
        self.points += self.new
        self.errors += errors
        if self.roots is not None:
            roots = np.concatenate([self.roots, roots])
            sep = np.concatenate([self.sep, sep])
        self.roots, self.sep = roots, sep

    def steps(self):
        """This level's steps: the roots at both ends and the bound."""
        a, b, sep = self.a, self.b, self.sep
        return self.roots[a], self.roots[b], 0.5 * np.minimum(sep[a], sep[b])

    def judge(self, order, verdict, depth):
        """Settle the steps of level ``depth`` by their ``_match`` result;
        True when rejected steps are split and their midpoints are in
        ``new``, False when the path is done."""
        a, b, t = self.a, self.b, self.t
        failed = np.array([e is not None for e in self.errors])
        bad = failed[a] | failed[b]
        ok = np.array([v is True for v in verdict]) & ~bad
        split = (np.array([v is False for v in verdict]) & ~bad
                 & (depth < self.max_depth))
        self.accepted.append((a[ok], b[ok], order[ok]))
        for s in np.flatnonzero(~ok & ~bad & ~split):
            self.failures.append((t[a[s]], verdict[s] or StepCollapse(
                f"step {t[a[s]]:.6g} -> {t[b[s]]:.6g} could not be refined "
                "further; the path passes too close to a fiber degeneracy")))
        self.depth = depth
        if not split.any():
            self.failures += [(t[k], _solve_error(t[k], self.points[k],
                                                  self.errors[k]))
                              for k in np.flatnonzero(failed)]
            return False
        mid = 0.5 * (t[a[split]] + t[b[split]])
        m = np.arange(len(t), len(t) + len(mid))
        self.a, self.b = np.concatenate([a[split], m]), np.concatenate(
            [m, b[split]])
        self.t = np.concatenate([t, mid])
        self.new = [self.fn(x) for x in mid.tolist()]
        return True

    def result(self):
        """The earliest failure, or (ts, R, perm, solved, depth) as
        ``_run_track`` describes them."""
        if self.failures:
            return min(self.failures, key=lambda f: f[0])[1]
        # compose the nearest-index permutations in t order
        a, b, order = (np.concatenate(x) for x in zip(*self.accepted))
        walk = np.argsort(self.t[a])
        perms = [np.arange(self.roots.shape[1])]
        for o in order[walk]:
            perms.append(o[perms[-1]])
        b = np.concatenate([[0], b[walk]])
        R = self.roots[b[:, None], np.array(perms)]
        return (tuple(self.t[b].tolist()), R, perms[-1], len(self.t),
                self.depth)


def _run_track(sys, paths, singular_tol, sep_floor):
    """Track the whole fiber along each path of ``paths``, given as
    (path_fn, samples, max_depth) over [0, 1].

    Level 0 solves the samples t = j/samples of every path in one batch.
    Each level matches the steps of every path still refining in one
    call, with one bound per step, and splits each path's rejected steps
    at their midpoints, up to its ``max_depth``; the midpoints of every
    path are solved in one batch of ``FiberSystem._fibers``, which gives
    each point the fiber it has alone, so no path depends on the others.  A
    failed solve fails a path at its t, and an ambiguous step or one
    rejected at the path's last level at its start.

    Returns, for each path, its earliest failure, or the accepted
    parameters, the roots there as a (T, n) array ordered as the
    canonical fiber at t = 0, the indices of the tracked roots in the
    canonical fiber at t = 1, the number of points solved and the deepest
    level reached.
    """
    tracks = [_Path(*p) for p in paths]
    live, depth = tracks, 0
    while live:
        roots, sep, errors = sys._fibers(
            [p for tr in live for p in tr.new], singular_tol, sep_floor)
        ends = np.cumsum([0, *(len(tr.new) for tr in live)]).tolist()
        for tr, lo, hi in zip(live, ends, ends[1:]):
            tr.add(roots[lo:hi], sep[lo:hi], errors[lo:hi])
        prev, new, bound = (np.concatenate(x)
                            for x in zip(*(tr.steps() for tr in live)))
        order, verdict = _match(sys.kind, prev, new, bound)
        ends = np.cumsum([0, *(len(tr.a) for tr in live)]).tolist()
        live = [tr for tr, lo, hi in zip(live, ends, ends[1:])
                if tr.judge(order[lo:hi], verdict[lo:hi], depth)]
        depth += 1
    return [tr.result() for tr in tracks]


def _build_paths(kind, ts, R):
    """Per-root TrackedPath objects from the accepted parameters ts and
    the (T, n) roots R in tracked order.  The lift adds the wrapped angle
    steps in sequence (np.cumsum), and the C* angle and log-modulus are
    scalar math.atan2 and math.log(math.hypot), as the reports pin."""
    logmod = [None] * R.shape[1]
    angle = R
    if kind is FiberKind.PUNCTURED_PLANE:
        re, im = R.real.ravel().tolist(), R.imag.ravel().tolist()
        angle = np.reshape(list(map(math.atan2, im, re)), R.shape)
        logmod = np.reshape(list(map(math.log, map(math.hypot, re, im))),
                            R.shape).T.tolist()
    period = kind.period
    step = np.fmod(np.diff(angle, axis=0) + period / 2.0, period)
    step = np.where(step <= 0.0, step + period, step) - period / 2.0
    lift = np.cumsum(np.concatenate([angle[:1], step]), axis=0)
    return [TrackedPath(kind, ts, tuple(roots), tuple(lf),
                        None if lm is None else tuple(lm))
            for roots, lf, lm in zip(R.T.tolist(), lift.T.tolist(), logmod)]


# ---------------------------------------------------------------------------
# Public operations


def track_loops(sys: FiberSystem, loops,
                singular_tol: float = SINGULAR_TOL,
                sep_floor: float = SEP_FLOOR) -> list:
    """The MonodromyResult of each of ``loops``, or the error that fails
    it (a TrackingError, or the DomainError of a failed evaluation).  The
    loops are tracked together (``_run_track``) and closed, each last
    fiber matched back onto its first, in one ``_match`` call; each
    loop's result is the one it has when tracked alone."""
    tracked = _run_track(sys, [(loop.point, loop.samples, loop.max_depth)
                               for loop in loops], singular_tol, sep_floor)
    done = [k for k, r in enumerate(tracked) if not isinstance(r, Exception)]
    if not done:
        return tracked
    sigmas, verdicts = _match(
        sys.kind, np.concatenate([tracked[k][1][-1:] for k in done]),
        np.concatenate([tracked[k][1][:1] for k in done]), math.inf)
    for k, sigma, verdict in zip(done, sigmas, verdicts):
        ts, R, _, solved, depth = tracked[k]
        if verdict is not True:
            tracked[k] = verdict or AmbiguousMatching(
                "closing the loop: two tracked endpoints map to the same "
                "initial root")
            continue
        sigma = tuple(sigma.tolist())
        tracked[k] = MonodromyResult(
            kind=sys.kind, loop=loops[k], base_point=loops[k].base_point,
            roots0=tuple(R[0].tolist()), sigma=sigma, orbits=_cycles(sigma),
            paths=tuple(_build_paths(sys.kind, ts, R)),
            samples_solved=solved, depth_reached=depth)
    return tracked


def track_loop(sys: FiberSystem, loop: LoopSpec,
               singular_tol: float = SINGULAR_TOL,
               sep_floor: float = SEP_FLOOR) -> MonodromyResult:
    """Monodromy permutation induced by one traversal of ``loop``: the
    one-loop case of ``track_loops``, raising its error."""
    [result] = track_loops(sys, [loop], singular_tol, sep_floor)
    if isinstance(result, Exception):
        raise result
    return result


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
        d = result.kind.distance(roots[-1], p.roots[0])
        if d > 1e-6:
            raise NotClosed(
                f"junction mismatch while lifting an orbit: {d:.3e}")
        shift = round((lift[-1] - p.lift[0]) / period) * period
        ts.extend(t + lap for t in p.ts[1:])
        roots.extend(p.roots[1:])
        lift.extend(v + shift for v in p.lift[1:])
        if logmod is not None:
            logmod.extend(p.logmod[1:])

    d = result.kind.distance(roots[-1], roots[0])
    if d > 1e-6:
        raise NotClosed(
            f"orbit lift does not return to its starting root: {d:.3e}")

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

    [result] = _run_track(sys, [(seg, max(samples, 32), max_depth)],
                          singular_tol, sep_floor)
    if isinstance(result, Exception):
        raise result
    return tuple(result[2].tolist())
