"""Fiber systems for branched sections: root solving and singular sets.

Three concrete fiber variants are supported:

* ``ProjectiveSystem`` — a binary differential form of degree n whose real
  projective roots are n tangent directions (fiber RP^1),
* ``CircleSystem`` — relations w^m = v(z)/|v(z)| on the unit circle
  (fiber S^1),
* ``PuncturedPlaneSystem`` — polynomial relations P(z, w) = 0 with
  w in C \\ {0} (fiber C*).

Away from the singular set the fiber over a base point is a fixed finite
set of roots; ``solve_fiber`` returns it, and ``find_singularities``
locates the points where it degenerates and probes their isolation.
``FiberSystem.solve`` solves one base point and ``solve_many`` many in
one batch; loop tracking, the isolation probes and plotting read the
same batch as arrays (``_fibers``).  All of them run the variant's root
kernel, so a point has the same roots either way.  A batch evaluates the
coefficients of all its points by ``expr.eval_rows``: one call of the
compiled function's vector form ``f.vector``, which rounds as the scalar
code does, and at a point where that call signals a floating-point event
or gives a non-finite value, the scalar code, which names the point.  So
each point's coefficients, and its fiber, are the ones it has alone.

A variant supplies three things: the expression ``components`` whose
common zeros are the singular set; a stacked root kernel,
``_roots_many``, which returns ``(roots, sep, errors)`` for a stack of
rows of coefficient values: the fibers in canonical order as a (k, n)
array (phi on RP^1, psi on S^1, complex w on C*), each row's minimum
root separation, and for each row None or the FiberError that explains
why it has no fiber; and a root class, whose objects only ``solve`` and
``solve_many`` make.  The fiber metric is ``FiberKind.distance`` on raw
coordinates, and ``FiberKind.separation`` is the one place a fiber's
separation is computed.  The residual, its grid scan, its exact
Jacobian, ``solve`` and ``solve_many`` come from the base class, and
nothing else in the package depends on the variant internals.

System values are immutable after construction and all operations are
re-entrant (the cached compiled evaluators are memoized under the GIL),
so concurrent calls on one system are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import ClassVar

import numpy as np

from .expr import (DomainError, Expr, ExprError, Num, add, call_compiled,
                   compile_value, div, eval_rows, mul, parse, sub)

__all__ = [
    "FiberKind", "Rect", "RP1Angle", "CircleAngle", "ComplexPoint",
    "BinaryForm", "FiberSystem", "ProjectiveSystem", "CircleSystem",
    "PuncturedPlaneSystem", "SingularPoint",
    "FiberError", "SingularFiber", "ComplexRoots", "IllConditioned",
    "NonIsolatedZero", "NoConvergence",
    "solve_fiber", "find_singularities", "SINGULAR_TOL", "SEP_FLOOR",
]

SINGULAR_TOL = 1e-10   # squared-residual threshold for "in the singular set"
SEP_FLOOR = 1e-6       # minimum allowed pairwise root separation

_TWO_PI = 2.0 * math.pi


class FiberError(Exception):
    """Base class for fiber-solving errors."""


class SingularFiber(FiberError):
    """The defining data vanishes at the base point (point of the singular
    set), or a root degenerates to the puncture/infinity."""


class ComplexRoots(FiberError):
    """Fewer real projective roots than the degree; the form violates the
    everywhere-n-real-roots requirement at this point."""


class IllConditioned(FiberError):
    """Two fiber roots closer than the separation floor."""


class NonIsolatedZero(FiberError):
    """The singular set is not discrete (zero curve or surface)."""


class NoConvergence(FiberError):
    """Refinement did not bring a singular-point candidate below the
    residual tolerance."""


class FiberKind(Enum):
    PROJECTIVE = "projective"
    CIRCLE = "circle"
    PUNCTURED_PLANE = "punctured_plane"

    @property
    def period(self) -> float:
        """Period of the fiber angle: pi on RP^1, 2 pi on S^1 and C*."""
        return math.pi if self is FiberKind.PROJECTIVE else _TWO_PI

    def distance(self, a, b):
        """Fiber distance between the roots a and b, elementwise: the
        wrapped angle difference on RP^1 and S^1, the complex modulus of
        a - b on C*."""
        if self is FiberKind.PUNCTURED_PLANE:
            d = np.subtract(a, b)
            return np.hypot(d.real, d.imag)
        p = self.period
        d = np.abs(_mod_array(a, p) - _mod_array(b, p))
        return np.minimum(d, p - d)

    def separation(self, R):
        """Minimum distance between two roots of each row of R; +inf for
        a row of one root.  On RP^1 and S^1 a row is sorted in [0,
        period), so the nearest pair is cyclically adjacent: the minimum
        of the gaps and of period - (last - first), which is the float
        the all-pairs minimum gives, as rounding is monotone."""
        if R.shape[1] < 2:
            return np.full(len(R), math.inf)
        if self is FiberKind.PUNCTURED_PLANE:
            i, j = np.triu_indices(R.shape[1], 1)
            return self.distance(R[:, i], R[:, j]).min(axis=1)
        return np.minimum(np.diff(R, axis=1).min(axis=1),
                          self.period - (R[:, -1] - R[:, 0]))


# ---------------------------------------------------------------------------
# Geometry of the base domain


@dataclass(frozen=True)
class Rect:
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("empty rectangle")

    def contains(self, x: float, y: float, margin: float = 0.0) -> bool:
        return (self.xmin + margin <= x <= self.xmax - margin
                and self.ymin + margin <= y <= self.ymax - margin)

    def boundary_distance(self, x: float, y: float) -> float:
        return min(x - self.xmin, self.xmax - x, y - self.ymin, self.ymax - y)

    @property
    def diag(self) -> float:
        return math.hypot(self.xmax - self.xmin, self.ymax - self.ymin)

    def grid(self, n: int):
        return (np.linspace(self.xmin, self.xmax, n),
                np.linspace(self.ymin, self.ymax, n))


# ---------------------------------------------------------------------------
# Fiber roots, as ``solve`` returns them.  A solved fiber is in canonical
# order: by phi, by psi, or by (arg mod 2 pi, modulus) on C*.


@dataclass(frozen=True, slots=True)
class RP1Angle:
    """A tangent line, as an angle canonical in [0, pi)."""
    phi: float


@dataclass(frozen=True, slots=True)
class CircleAngle:
    """A unit vector, as an angle canonical in [0, 2*pi)."""
    psi: float


@dataclass(frozen=True, slots=True)
class ComplexPoint:
    """A point of C*; modulus is strictly positive."""
    re: float
    im: float

    @property
    def modulus(self) -> float:
        return math.hypot(self.re, self.im)

    @property
    def arg(self) -> float:
        return math.atan2(self.im, self.re)


# ---------------------------------------------------------------------------
# Binary forms


@dataclass(frozen=True)
class BinaryForm:
    """Symmetric degree-n form a_0 dx^n + a_1 dx^(n-1) dy + ... + a_n dy^n.

    ``coeffs[i]`` is the coefficient of dx^(n-i) dy^i.  A tangent direction
    [p : q] solves the form when sum_i a_i p^(n-i) q^i = 0.
    """
    degree: int
    coeffs: tuple
    variables: tuple = ("x", "y")

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError(
                f"degree {self.degree} needs {self.degree + 1} coefficients, "
                f"got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @classmethod
    def from_strings(cls, sources, variables=("x", "y")) -> "BinaryForm":
        coeffs = tuple(parse(s, variables) for s in sources)
        return cls(len(coeffs) - 1, coeffs, tuple(variables))

    def scaled(self, factor: Expr) -> "BinaryForm":
        return BinaryForm(self.degree,
                          tuple(mul(factor, c) for c in self.coeffs),
                          self.variables)


# ---------------------------------------------------------------------------
# Fiber systems


@dataclass(frozen=True)
class FiberSystem:
    """Base class.  A concrete system declares ``components``, expressions
    in its ``variables`` that vanish together exactly on the singular set,
    the root kernel ``_roots_many`` and ``_root``, the root object of one
    kernel entry.  The residual, its grid scan and its Jacobian are
    computed here from the compiled components, and ``solve`` and
    ``solve_many`` from the kernel."""
    domain: Rect
    declared_singular: tuple = ()

    kind: ClassVar[FiberKind]

    @property
    def sheet_count(self) -> int:
        raise NotImplementedError

    @property
    def components(self) -> tuple:
        raise NotImplementedError

    @cached_property
    def _component_fn(self):
        return compile_value(*self.components, variables=self.variables)

    @cached_property
    def _component_grad_fn(self):
        # each component followed by its two partial derivatives
        return compile_value(*self.components, variables=self.variables,
                             gradient=True)

    def component_values(self, x, y):
        return call_compiled(self._component_fn, x, y,
                             "coefficient evaluation")

    @property
    def _solve_fn(self):
        """The compiled function whose values the root kernel reads, one
        row of them per point."""
        return self._component_fn

    def _roots_many(self, A, singular_tol, sep_floor):
        """The variant's stacked root kernel on the finite rows of
        ``_solve_fn`` values in A: ``(roots, sep, errors)``, row i of
        ``roots`` the fiber of row i and ``sep[i]`` its minimum root
        separation unless ``errors[i]`` is a FiberError."""
        raise NotImplementedError

    def _fibers(self, points, singular_tol, sep_floor):
        """``(roots, sep, errors)`` for the (x, y) of ``points``, a (k, 2)
        array or a sequence of pairs, as from the kernel: ``errors[k]`` is
        None or the error ``solve`` raises at point k, a DomainError where
        the evaluation fails or is not finite, else the kernel's, with the
        point named as given.  The rows of all the points come from
        ``eval_rows``, so each is the one its point has alone, and share
        one call of ``_roots_many``."""
        A, errors = eval_rows(self._solve_fn, points,
                              "coefficient evaluation")
        where = np.flatnonzero(~np.isnan(A[:, 0]))   # a failed row is NaN
        sep = np.zeros(len(A))
        if not len(where):
            return np.zeros((len(A), self.sheet_count)), sep, errors
        batch, batch_sep, batch_errors = self._roots_many(
            A if len(where) == len(A) else A[where], singular_tol, sep_floor)
        roots = np.zeros((len(A), batch.shape[1]), batch.dtype)
        roots[where] = batch
        sep[where] = batch_sep
        for k, e in zip(where.tolist(), batch_errors):
            if e is not None:
                x, y = points[k]   # a float64 prints as a float does
                errors[k] = type(e)(f"{e} at ({x}, {y})")
        return roots, sep, errors

    # root objects are made only here, from .tolist() rows (Python floats)
    def solve(self, x, y, singular_tol=SINGULAR_TOL, sep_floor=SEP_FLOOR):
        """The fiber over (x, y) in canonical order.  Raises the variant's
        FiberError, or DomainError where the evaluation fails."""
        roots, _, [error] = self._fibers([(x, y)], singular_tol, sep_floor)
        if error is not None:
            raise error
        return tuple(map(self._root, roots.tolist()[0]))

    def solve_many(self, points, singular_tol=SINGULAR_TOL,
                   sep_floor=SEP_FLOOR):
        """``solve`` at each (x, y) of ``points`` in one batch: a list with
        the fiber of each point, or None where ``solve`` raises."""
        roots, _, errors = self._fibers(points, singular_tol, sep_floor)
        return [tuple(map(self._root, row)) if error is None else None
                for row, error in zip(roots.tolist(), errors)]

    def residual(self, x, y) -> float:
        """Sum of squared components: smooth, nonnegative and zero exactly
        on the singular set; used by the grid scan."""
        return sum(r * r for r in self.component_values(x, y))

    def residual_grid(self, X, Y):
        """Residual on a meshgrid; +inf where evaluation fails.  Each grid
        point's residual is the one it has alone (``eval_rows``), and a
        residual that overflows is +inf at its own point only."""
        P = np.empty((2, len(X), len(Y)))
        P[0], P[1] = X[:, None], Y   # the meshgrid's X and Y
        A, _ = eval_rows(self._component_fn, P.reshape(2, -1).T,
                         "coefficient evaluation")
        acc = np.zeros(len(A))
        with np.errstate(over="ignore"):
            for v in A.T:
                acc += v * v
        acc[np.isnan(acc)] = math.inf   # a failed row is NaN
        return acc.reshape(P.shape[1:])

    def residual_vector(self, x, y):
        """The components r(x, y) and their exact Jacobian, for
        Gauss-Newton refinement: (r, J) with r of shape (k,) and J of
        shape (k, 2).  Raises DomainError where the evaluation fails or a
        value is not finite."""
        vals = np.array(call_compiled(self._component_grad_fn, x, y,
                                      "Jacobian evaluation"),
                        dtype=float).reshape(-1, 3)
        if not np.isfinite(vals).all():
            raise DomainError(f"Jacobian evaluation is not finite at "
                              f"({x}, {y})")
        return vals[:, 0], vals[:, 1:]


@dataclass(frozen=True)
class ProjectiveSystem(FiberSystem):
    """Branched section of the projective tangent bundle cut out by a
    binary differential form (fiber RP^1).  Components: the form's
    coefficients."""
    form: BinaryForm = None

    kind: ClassVar[FiberKind] = FiberKind.PROJECTIVE
    _root: ClassVar = RP1Angle

    def __post_init__(self):
        if self.form is None:
            raise ValueError("form is required")

    @property
    def sheet_count(self) -> int:
        return self.form.degree

    @property
    def variables(self) -> tuple:
        return self.form.variables

    @property
    def components(self) -> tuple:
        return self.form.coeffs

    def _roots_many(self, A, singular_tol, sep_floor):
        return _projective_roots_many(A, singular_tol, sep_floor)


@dataclass(frozen=True)
class CircleSystem(FiberSystem):
    """Relation w^m = v(z)/|v(z)| on the unit circle (fiber S^1); the
    singular set is the zero set of v.  Components: (Re v, Im v)."""
    sheets: int = 0
    v_re: Expr = None
    v_im: Expr = None
    variables: tuple = ("x", "y")

    kind: ClassVar[FiberKind] = FiberKind.CIRCLE
    _root: ClassVar = CircleAngle

    def __post_init__(self):
        if self.sheets < 1 or self.v_re is None or self.v_im is None:
            raise ValueError("sheets >= 1 and both components of v required")

    @property
    def sheet_count(self) -> int:
        return self.sheets

    @property
    def components(self) -> tuple:
        return (self.v_re, self.v_im)

    def _roots_many(self, A, singular_tol, sep_floor):
        return _circle_roots_many(A, self.sheets, singular_tol)


@dataclass(frozen=True)
class PuncturedPlaneSystem(FiberSystem):
    """Polynomial relation sum_k c_k(z) w^k = 0 with w in C* (fiber C*).

    Coefficients are given as (re, im) expression pairs in the base
    coordinates (x, y) with z = x + i y.  Components: the (re, im) pairs
    of c_0/c_n and of the root discriminant prod_{i<j} (w_i - w_j)^2."""
    degree_w: int = 0
    coeffs: tuple = ()   # tuple of (Expr, Expr) pairs, index = power of w
    variables: tuple = ("x", "y")

    kind: ClassVar[FiberKind] = FiberKind.PUNCTURED_PLANE
    _root: ClassVar = staticmethod(lambda w: ComplexPoint(w.real, w.imag))

    def __post_init__(self):
        if self.degree_w < 1:
            raise ValueError("degree_w must be >= 1")
        if len(self.coeffs) != self.degree_w + 1:
            raise ValueError("need degree_w + 1 coefficient pairs")

    @property
    def sheet_count(self) -> int:
        return self.degree_w

    @cached_property
    def components(self) -> tuple:
        # prod_{i<j} (w_i - w_j)^2
        #     = Res(P, dP/dw) / ((-1)^(n(n-1)/2) c_n^(2n-1))
        n, c = self.degree_w, self.coeffs
        dc = [(mul(Num(k), c[k][0]), mul(Num(k), c[k][1]))
              for k in range(n, 0, -1)]
        res = _determinant(_sylvester(c[::-1], dc))
        lead = (Num((-1.0) ** (n * (n - 1) // 2)), Num(0.0))
        for _ in range(2 * n - 1):
            lead = _cmul(lead, c[n])
        return (*_cdiv(c[0], c[n]), *_cdiv(res, lead))

    @cached_property
    def _solve_fn(self):
        return compile_value(*(e for pair in self.coeffs for e in pair),
                             variables=self.variables)

    def _roots_many(self, A, singular_tol, sep_floor):
        return _punctured_roots_many(A, singular_tol, sep_floor)


# Complex arithmetic on (re, im) expression pairs


def _cmul(p, q):
    (a, b), (c, d) = p, q
    return sub(mul(a, c), mul(b, d)), add(mul(a, d), mul(b, c))


def _cdiv(p, q):
    (a, b), (c, d) = p, q
    den = add(mul(c, c), mul(d, d))
    return (div(add(mul(a, c), mul(b, d)), den),
            div(sub(mul(b, c), mul(a, d)), den))


def _sylvester(p, q):
    """Sylvester matrix of two polynomials given by descending
    coefficients; its determinant is their resultant."""
    m, n = len(p) - 1, len(q) - 1
    zero = (Num(0.0), Num(0.0))
    return ([[zero] * i + list(p) + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + list(q) + [zero] * (m - 1 - i)
               for i in range(m)])


def _determinant(rows):
    """Determinant of a matrix of (re, im) pairs by expansion along the
    rows.  Each minor (the columns left for the rows below) is built once,
    terms with a zero entry fold away, and nothing is divided."""
    @cache
    def minor(cols):
        if not cols:
            return (Num(1.0), Num(0.0))
        row = rows[len(rows) - len(cols)]
        re, im = Num(0.0), Num(0.0)
        for k, j in enumerate(cols):
            t_re, t_im = _cmul(row[j], minor(cols[:k] + cols[k + 1:]))
            step = sub if k % 2 else add
            re, im = step(re, t_re), step(im, t_im)
        return re, im
    return minor(tuple(range(len(rows))))


# ---------------------------------------------------------------------------
# Root kernels, one per variant.  A kernel solves a stack of rows, and each
# row's roots depend on that row alone.  The golden reports pin the roots to
# the bit, which fixes two choices below: np.float_power, which calls pow()
# as Python's ** does (np.power with a scalar exponent may square instead),
# and a scalar math.atan2 (np.arctan2 can differ in the last bit).


def _mod_array(a, period):
    """a modulo period, in [0, period): a value just below 0 plus the
    period rounds to the period, which is canonically 0.0."""
    r = np.fmod(a, period)
    r = np.where(r < 0.0, r + period, r)
    return np.where(r < period, r, 0.0)


def _reject(errors, ok, rows, error):
    """Give ``error`` to each of the row indices ``rows`` that passed every
    earlier check, and mark them all failed: a row reports the first check
    it fails."""
    if len(rows):
        for r in rows[ok[rows]].tolist():
            errors[r] = error
        ok[rows] = False


def _poly_angle_values(A, phi):
    """g(phi) = sum_i a_i cos^(n-i) phi sin^i phi and dg/dphi for each row
    of coefficients A at the angle of the same index in phi."""
    n = A.shape[1] - 1
    c, s = np.cos(phi), np.sin(phi)
    # pow(x, 0) and pow(x, 1) are exactly 1 and x
    cp = [np.ones_like(c), c] + [np.float_power(c, np.full_like(c, k))
                                 for k in range(2, n + 1)]
    sp = [np.ones_like(s), s] + [np.float_power(s, np.full_like(s, k))
                                 for k in range(2, n + 1)]
    g = np.zeros_like(phi)
    dg = np.zeros_like(phi)
    for i in range(n + 1):
        a = A[:, i]
        g = g + a * cp[n - i] * sp[i]
        t1 = 0.0 if i == n else (n - i) * cp[n - i - 1] * sp[i + 1]
        t2 = 0.0 if i == 0 else i * cp[n - i + 1] * sp[i - 1]
        dg = dg + a * (t2 - t1)
    return g, dg


def _polish_angles(A, phi, iters=4):
    """Newton steps on g for each row of A; an angle stops once dg/dphi
    vanishes or its step falls below 1e-15."""
    live = np.ones(phi.shape, dtype=bool)
    for _ in range(iters):
        g, dg = _poly_angle_values(A, phi)
        live &= dg != 0.0
        step = g / dg
        phi = np.where(live, phi - step, phi)
        live &= ~(np.abs(step) < 1e-15)
        if not live.any():
            break
    return phi


def _projective_roots_many(A, singular_tol, sep_floor):
    """The real projective roots of sum_i a_i p^(n-i) q^i for each row of
    coefficients A, as ``(phi, sep, errors)``: the angles in [0, pi), in
    increasing order, their separations, and the FiberError of each row
    that has no fiber.

    Each row is solved in one chart: in t = q/p (leading a_n; infinity is
    [0:1], phi = pi/2) when |a_n| >= |a_0|, else in s = p/q (leading a_0;
    infinity is [1:0], phi = 0).  Leading chart coefficients within 1e-13
    of the largest are roots at infinity, and trailing zeros are roots at
    zero.  Rows are grouped by those two counts, and each group shares one
    eigvals call on the stacked companion matrices that np.roots builds.
    The real chart roots are polished on the angle.  A row whose chart
    root is complex, fails to polish or lies within 1e-11 of another root
    has fewer than n real roots."""
    k, n = A.shape[0], A.shape[1] - 1
    errors = [None] * k
    ok = np.ones(k, dtype=bool)
    fewer = ComplexRoots(f"fewer than {n} distinct real projective roots")
    with np.errstate(all="ignore"):
        sq = A[:, 0] * A[:, 0]
        for i in range(1, n + 1):      # in the order of residual's sum()
            sq = sq + A[:, i] * A[:, i]
        absA = np.abs(A)
        scale = absA.max(axis=1)
        use_a = absA[:, -1] >= absA[:, 0]
        C = np.where(use_a[:, None], A[:, ::-1], A)   # descending, by chart
        lead = np.cumprod(np.abs(C) <= 1e-13 * scale[:, None],
                          axis=1).sum(axis=1)
        trail = np.cumprod(C[:, ::-1] == 0.0, axis=1).sum(axis=1)
        _reject(errors, ok, np.flatnonzero((sq <= singular_tol)
                                        | (lead + trail > n)),
                SingularFiber("all form coefficients vanish within "
                              "tolerance"))

        t = np.zeros((k, n))   # chart roots from column lead on
        for l, z in set(zip(lead[ok].tolist(), trail[ok].tolist())):
            m = n - l - z
            if m == 0:
                continue
            rows = np.flatnonzero(ok & (lead == l) & (trail == z))
            P = C[rows, l:n + 1 - z]
            comp = np.zeros((len(rows), m, m))
            comp[:, 0, :] = -P[:, 1:] / P[:, :1]
            comp[:, 1:, :-1] = np.eye(m - 1)
            try:
                ev = np.linalg.eigvals(comp)
            except np.linalg.LinAlgError as e:
                _reject(errors, ok, rows,
                        FiberError(f"eigenvalues failed: {e}"))
                continue
            cplx = np.abs(ev.imag) > 1e-6 * (1.0 + np.abs(ev.real))
            _reject(errors, ok, rows[cplx.any(axis=1)], fewer)
            t[rows, l:l + m] = ev.real

        rows, cols = np.nonzero(ok[:, None] & (np.arange(n) >= lead[:, None]))
        phi = np.array([math.atan2(v, 1.0) if a else math.atan2(1.0, v)
                        for v, a in zip(t[rows, cols].tolist(),
                                        use_a[rows].tolist())])
        phi = _polish_angles(A[rows], phi)
        g, _ = _poly_angle_values(A[rows], phi)
        # a NaN g (the polish overflowed) fails the test too
        _reject(errors, ok, rows[~(np.abs(g) <= 1e-8 * scale[rows])], fewer)

        angles = np.repeat(np.where(use_a, math.pi / 2, 0.0)[:, None], n,
                           axis=1)
        angles[rows, cols] = phi
        angles = np.sort(_mod_array(angles, math.pi), axis=1)
        sep = FiberKind.PROJECTIVE.separation(angles)
        _reject(errors, ok, np.flatnonzero(sep <= 1e-11), fewer)
        _reject(errors, ok, np.flatnonzero(sep < sep_floor),
                IllConditioned(f"projective roots closer than the "
                               f"separation floor {sep_floor}"))
    return angles, sep, errors


def _circle_roots_many(V, m, singular_tol):
    """The m-th roots of v/|v| for each row (Re v, Im v) of V, as
    ``(psi, sep, errors)``: the angles in [0, 2 pi), in increasing order,
    their separations, and SingularFiber for each row where v
    vanishes."""
    with np.errstate(all="ignore"):
        ok = V[:, 0] * V[:, 0] + V[:, 1] * V[:, 1] > singular_tol
    base = np.array([math.atan2(im, re) for re, im in V.tolist()])
    psi = np.sort(_mod_array((base[:, None] + _TWO_PI * np.arange(m)) / m,
                             _TWO_PI), axis=1)
    singular = SingularFiber("defining data vanishes")
    return (psi, FiberKind.CIRCLE.separation(psi),
            [None if good else singular for good in ok.tolist()])


def _horner(P, W):
    """``np.polyval`` of row i of P at each entry of row i of W."""
    y = np.zeros_like(W)
    for i in range(P.shape[1]):
        y = y * W + P[:, i:i + 1]
    return y


def _punctured_roots_many(A, singular_tol, sep_floor):
    """The roots in C* of sum_k c_k w^k for each row of A, the (re, im)
    pairs of c_0 .. c_n, as ``(W, sep, errors)``: the complex roots in
    canonical order, by (arg mod 2 pi, modulus), their separations, and
    the FiberError of each row that has no fiber.

    The rows that pass the coefficient checks share one eigvals call on
    the stacked companion matrices that np.roots builds, and three Newton
    steps polish all their roots at once, each root stopping once its
    step is below 1e-15 of its modulus.  Complex moduli are np.hypot,
    which equals abs() of a complex scalar (np.abs of a complex array
    can differ in the last bit)."""
    k, n = A.shape[0], A.shape[1] // 2 - 1
    errors = [None] * k
    ok = np.ones(k, dtype=bool)
    out = np.zeros((k, n), dtype=complex)
    sep = np.zeros(k)
    with np.errstate(all="ignore"):
        mod = np.hypot(A[:, 0::2], A[:, 1::2])
        scale = mod.max(axis=1)
        for fails, why in (
                (scale * scale <= singular_tol, "all coefficients vanish"),
                (mod[:, -1] <= 1e-13 * scale, "a root escapes to infinity: "
                 "the leading coefficient vanishes"),
                # divided by scale first: scale * scale overflows from 1.3e154
                ((mod[:, 0] / scale) ** 2 <= singular_tol,
                 "a root collapses to the puncture: the constant "
                 "coefficient vanishes")):
            _reject(errors, ok, np.flatnonzero(fails), SingularFiber(why))
        rows = np.flatnonzero(ok)
        if not len(rows):
            return out, sep, errors
        P = np.empty((len(rows), n + 1), dtype=complex)   # descending in w
        P.real = A[rows, -2::-2]
        P.imag = A[rows, -1::-2]
        comp = np.zeros((len(rows), n, n), dtype=complex)
        comp[:, 0, :] = -P[:, 1:] / P[:, :1]
        comp[:, 1:, :-1] = np.eye(n - 1)
        try:
            W = np.linalg.eigvals(comp)
        except np.linalg.LinAlgError as e:
            _reject(errors, ok, rows, FiberError(f"eigenvalues failed: {e}"))
            return out, sep, errors
        dP = P[:, :-1] * np.arange(n, 0, -1)
        live = np.ones(W.shape, dtype=bool)
        for _ in range(3):
            y, dy = _horner(P, W), _horner(dP, W)
            live &= dy != 0
            step = y / dy
            W = np.where(live, W - step, W)
            live &= ~(np.hypot(step.real, step.imag)
                      < 1e-15 * (1.0 + np.hypot(W.real, W.imag)))
            if not live.any():
                break
        mod = np.hypot(W.real, W.imag)
        arg = np.reshape(list(map(math.atan2, W.imag.ravel().tolist(),
                                  W.real.ravel().tolist())), W.shape)
        order = np.lexsort((mod, _mod_array(arg, _TWO_PI)))
        out[rows] = W = np.take_along_axis(W, order, axis=1)
        sep[rows] = FiberKind.PUNCTURED_PLANE.separation(W)
        _reject(errors, ok, rows[(mod <= sep_floor).any(axis=1)],
                SingularFiber("a root lies within the separation floor of "
                              "the puncture"))
        _reject(errors, ok, rows[sep[rows] < sep_floor],
                IllConditioned(f"fiber roots closer than {sep_floor}"))
    return out, sep, errors


# ---------------------------------------------------------------------------
# Public operations


def solve_fiber(sys: FiberSystem, base, singular_tol=SINGULAR_TOL,
                sep_floor=SEP_FLOOR):
    """All fiber roots over ``base``; count equals the sheet number."""
    x, y = base
    return sys.solve(x, y, singular_tol=singular_tol, sep_floor=sep_floor)


@dataclass(frozen=True)
class SingularPoint:
    x: float
    y: float
    isolation_radius: float
    residual: float

    @property
    def position(self):
        return (self.x, self.y)


def _gauss_newton(sys, x, y, max_iter=80):
    """Refine a singular-point candidate; returns (x, y, residual).  Each
    accepted step lowers the residual, so the last point is the best.  The
    iterates are Python floats; the step comes from ``np.linalg.lstsq`` and
    its length from ``np.hypot``."""
    cur = _safe_residual(sys, x, y)
    for _ in range(max_iter):
        try:
            r, J = sys.residual_vector(x, y)
        except ExprError:
            break
        try:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        s0, s1 = step.tolist()
        if not (math.isfinite(s0) and math.isfinite(s1)):
            break
        # damped acceptance
        lam = 1.0
        for _ in range(8):
            nx, ny = x + lam * s0, y + lam * s1
            res = _safe_residual(sys, nx, ny)
            if res < cur:
                break
            lam *= 0.5
        else:
            break
        x, y, cur = nx, ny, res
        if np.hypot(lam * s0, lam * s1) < 1e-14 * (1.0 + abs(x) + abs(y)):
            break
    return x, y, cur


def _safe_residual(sys, x, y):
    try:
        r = sys.residual(x, y)
    except ExprError:
        return math.inf
    return r if math.isfinite(r) else math.inf


def _grid_local_minima(R):
    """Indices of grid cells that are <= all existing neighbours, in
    row-major order.  A non-finite cell is never a minimum; a NaN
    neighbour never disqualifies one."""
    n0, n1 = R.shape
    padded = np.full((n0 + 2, n1 + 2), math.inf)
    padded[1:-1, 1:-1] = R
    keep = np.isfinite(R)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                keep &= ~(padded[di:di + n0, dj:dj + n1] < R)
    i, j = np.nonzero(keep)
    return list(zip(i.tolist(), j.tolist()))


def _segment_max_residual(sys, p, q, samples=17):
    worst = 0.0
    for k in range(samples):
        t = k / (samples - 1)
        x = p[0] + t * (q[0] - p[0])
        y = p[1] + t * (q[1] - p[1])
        worst = max(worst, _safe_residual(sys, x, y))
    return worst


def _isolation_radii(sys, points, tol, sep_floor, probe_angles=64):
    """The probed isolation radius of each of ``points``, the sorted
    positions of the singular points found.  A point's first ring has
    radius 0.9 min(distance to the domain boundary, half the distance to
    the nearest other point), and its ring is halved until the fiber can
    be solved at all of its ``probe_angles`` points, at most 10 rounds
    and not below 1e-8.  Each round solves the rings of every point not
    yet probed in one ``_fibers`` call.  Raises the NonIsolatedZero of
    the first point that cannot be probed."""
    dom = sys.domain
    radius = []
    for k, (x, y) in enumerate(points):
        d_near = min((math.hypot(x - ox, y - oy)
                      for j, (ox, oy) in enumerate(points) if j != k),
                     default=math.inf)
        radius.append(0.9 * min(dom.boundary_distance(x, y), d_near / 2.0))
    probed = [False] * len(points)
    live = [k for k, r in enumerate(radius) if r > 0.0]
    angles = [_TWO_PI * k / probe_angles for k in range(probe_angles)]
    cos = np.array([math.cos(th) for th in angles])
    sin = np.array([math.sin(th) for th in angles])
    for _ in range(10):
        if not live:
            break
        X, Y = np.array([points[k] for k in live]).T[:, :, None]
        r = np.array([radius[k] for k in live])[:, None]
        ring = np.stack([X + r * cos, Y + r * sin], axis=-1).reshape(-1, 2)
        _, _, errors = sys._fibers(ring, tol, sep_floor)
        failed = np.array([e is not None for e in errors]).reshape(
            len(live), probe_angles).any(axis=1).tolist()
        still = []
        for k, bad in zip(live, failed):
            if not bad:
                probed[k] = True
                continue
            radius[k] *= 0.5
            if radius[k] >= 1e-8:
                still.append(k)
        live = still
    for (x, y), r, ok in zip(points, radius, probed):
        if r <= 0.0:
            raise NonIsolatedZero(f"cannot probe isolation of ({x}, {y}): "
                                  "no room inside domain")
        if not ok:
            raise NonIsolatedZero(
                f"isolation probe failed for the zero near ({x}, {y})")
    return radius


def find_singularities(sys: FiberSystem, grid_density: int = 48,
                       tol: float = SINGULAR_TOL,
                       sep_floor: float = SEP_FLOOR):
    """Locate the isolated points of the singular set.

    Scans the domain grid for local minima of the squared residual,
    refines candidates by damped Gauss-Newton, merges duplicates (and
    residual-flat plateaus around one zero), and checks isolation by
    probing a surrounding circle, the circles of all points together
    (``_isolation_radii``).  Declared singular points of the system are
    verified and take precedence over refined candidates they merge
    with.
    """
    if grid_density < 8:
        raise ValueError("grid_density must be >= 8")
    dom = sys.domain
    X, Y = dom.grid(grid_density)
    R = sys.residual_grid(X, Y)

    finite = np.isfinite(R)
    if not finite.any():
        raise DomainError(
            "the residual overflows or fails at every grid point of the "
            f"domain [{dom.xmin}, {dom.xmax}] x [{dom.ymin}, {dom.ymax}]")
    frac_zero = float(np.count_nonzero(R[finite] <= tol)) / R.size
    if frac_zero > 0.10:
        raise NonIsolatedZero(
            f"{frac_zero:.0%} of grid points have residual below "
            "tolerance; the singular set is not discrete")

    minima = _grid_local_minima(R)
    # skip seeds sitting on a flat high-residual landscape (no nearby zero)
    med = float(np.median(R[finite]))
    cutoff = max(100.0 * tol, 0.25 * med)
    minima = [(i, j) for i, j in minima if R[i, j] <= cutoff]
    minima.sort(key=lambda ij: R[ij])
    seeds = [(float(X[i]), float(Y[j])) for i, j in minima[:256]]
    declared = [tuple(map(float, p)) for p in sys.declared_singular]

    candidates = []  # (x, y, residual, is_declared)
    for x, y in declared:
        res = _safe_residual(sys, x, y)
        if res <= tol:
            candidates.append((x, y, res, True))
        else:
            rx, ry, rres = _gauss_newton(sys, x, y)
            if rres <= tol and dom.contains(rx, ry):
                candidates.append((rx, ry, rres, True))
            else:
                raise NoConvergence(
                    f"declared singular point ({x}, {y}) does not verify: "
                    f"residual {res:.3e} > tolerance {tol:.3e}")
    for x, y in seeds:
        rx, ry, rres = _gauss_newton(sys, x, y)
        if rres <= tol and dom.contains(rx, ry):
            candidates.append((rx, ry, rres, False))

    if not candidates:
        return []

    # union-find merge of duplicates / flat plateaus around one zero
    parent = list(range(len(candidates)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    merge_radius = max(10.0 * tol, 1e-9)
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            pi, pj = candidates[i], candidates[j]
            d = math.hypot(pi[0] - pj[0], pi[1] - pj[1])
            if d <= merge_radius or _segment_max_residual(
                    sys, pi[:2], pj[:2]) <= 10.0 * tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    clusters = {}
    for i in range(len(candidates)):
        clusters.setdefault(find(i), []).append(candidates[i])

    points = []
    for members in clusters.values():
        extent = max((math.hypot(a[0] - b[0], a[1] - b[1])
                      for a in members for b in members), default=0.0)
        if extent > 0.2 * dom.diag:
            raise NonIsolatedZero(
                "refined candidates from distinct basins merge along a "
                "residual plateau; the singular set is not discrete")
        rep = min(members, key=lambda m: (not m[3], m[2]))
        points.append(rep)

    points.sort(key=lambda m: (m[0], m[1]))
    radii = _isolation_radii(sys, [(p[0], p[1]) for p in points], tol,
                             sep_floor)
    return [SingularPoint(x, y, radius, res)
            for (x, y, res, _), radius in zip(points, radii)]
