"""Fiber systems for branched sections: root solving and singular sets.

Three concrete fiber variants are supported:

* ``ProjectiveSystem`` — a binary differential form of degree n whose real
  projective roots are n tangent directions (fiber RP^1),
* ``CircleSystem`` — relations w^m = v(z)/|v(z)| on the unit circle
  (fiber S^1),
* ``PuncturedPlaneSystem`` — polynomial relations P(z, w) = 0 with
  w in C \\ {0} (fiber C*).

Away from the singular set the fiber over a base point is a fixed finite
set of roots; ``solve_fiber`` returns it, ``find_singularities`` locates
the points where it degenerates and probes their isolation, and
``ProjectiveSystem.solve_many`` solves many base points in one batch (for
plotting) with the same roots as one ``solve`` per point.  Extending to
other fiber types means adding a subclass with a ``solve`` hook and the
expression ``components`` whose common zeros are the singular set; the
residual, its grid scan and its exact Jacobian come from the base class,
and nothing else in the package depends on the variant internals.

System values are immutable after construction and all operations are
re-entrant (the cached compiled evaluators are memoized under the GIL),
so concurrent calls on one system are safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import ClassVar

import numpy as np

from .expr import (DomainError, Expr, ExprError, Num, add, call_compiled,
                   compile_value, compile_value_vec, diff, div, mul, parse,
                   sub)

__all__ = [
    "FiberKind", "Rect", "RP1Angle", "CircleAngle", "ComplexPoint",
    "BinaryForm", "FiberSystem", "ProjectiveSystem", "CircleSystem",
    "PuncturedPlaneSystem", "SingularPoint",
    "FiberError", "SingularFiber", "ComplexRoots", "IllConditioned",
    "MixedVariants", "NonIsolatedZero", "NoConvergence",
    "solve_fiber", "min_root_separation", "find_singularities",
    "fiber_distance", "SINGULAR_TOL", "SEP_FLOOR",
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


class MixedVariants(FiberError):
    """Roots of different fiber variants in one operation."""


class NonIsolatedZero(FiberError):
    """The singular set is not discrete (zero curve or surface)."""


class NoConvergence(FiberError):
    """Refinement failed to certify a singular-point candidate."""


class FiberKind(Enum):
    PROJECTIVE = "projective"
    CIRCLE = "circle"
    PUNCTURED_PLANE = "punctured_plane"

    @property
    def period(self) -> float:
        """Period of the fiber angle: pi on RP^1, 2 pi on S^1 and C*."""
        return math.pi if self is FiberKind.PROJECTIVE else _TWO_PI


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
# Fiber roots


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


def _mod(a: float, period: float) -> float:
    r = math.fmod(a, period)
    if r < 0.0:
        r += period
    return r


def rp1_distance(a: float, b: float) -> float:
    d = abs(_mod(a, math.pi) - _mod(b, math.pi))
    return min(d, math.pi - d)


def circle_distance(a: float, b: float) -> float:
    d = abs(_mod(a, _TWO_PI) - _mod(b, _TWO_PI))
    return min(d, _TWO_PI - d)


def fiber_distance(a, b) -> float:
    """Distance between two fiber roots of the same variant."""
    if isinstance(a, RP1Angle) and isinstance(b, RP1Angle):
        return rp1_distance(a.phi, b.phi)
    if isinstance(a, CircleAngle) and isinstance(b, CircleAngle):
        return circle_distance(a.psi, b.psi)
    if isinstance(a, ComplexPoint) and isinstance(b, ComplexPoint):
        return math.hypot(a.re - b.re, a.im - b.im)
    raise MixedVariants(f"cannot compare {type(a).__name__} "
                        f"with {type(b).__name__}")


def min_root_separation(roots) -> float:
    """Minimum pairwise fiber distance; +inf for a single root."""
    roots = list(roots)
    if not roots:
        raise ValueError("empty root set")
    best = math.inf
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            best = min(best, fiber_distance(roots[i], roots[j]))
    return best


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
    """Base class.  A concrete system implements ``solve`` and declares
    ``components``: expressions in its ``variables`` that vanish together
    exactly on the singular set.  The residual, its grid scan and its
    Jacobian are computed here from the compiled components."""
    domain: Rect
    declared_singular: tuple = ()

    kind: ClassVar[FiberKind]

    @property
    def sheet_count(self) -> int:
        raise NotImplementedError

    def solve(self, x, y, singular_tol=SINGULAR_TOL, sep_floor=SEP_FLOOR):
        raise NotImplementedError

    @property
    def components(self) -> tuple:
        raise NotImplementedError

    @cached_property
    def _component_fn(self):
        return compile_value(*self.components, variables=self.variables)

    @cached_property
    def _component_vec_fn(self):
        return compile_value_vec(*self.components, variables=self.variables)

    @cached_property
    def _component_grad_fn(self):
        # each component followed by its two partial derivatives
        u, v = self.variables
        return compile_value(*(d for e in self.components
                               for d in (e, diff(e, u), diff(e, v))),
                             variables=self.variables)

    def component_values(self, x, y, what="coefficient evaluation"):
        return call_compiled(self._component_fn, x, y, what)

    def residual(self, x, y) -> float:
        """Sum of squared components: smooth, nonnegative and zero exactly
        on the singular set; used by the grid scan."""
        return sum(r * r for r in self.component_values(x, y))

    def residual_grid(self, X, Y):
        """Residual on a meshgrid; +inf where evaluation fails."""
        XX, YY = np.meshgrid(X, Y, indexing="ij")
        try:
            with np.errstate(all="raise"):
                acc = sum((v * v for v in self._component_vec_fn(XX, YY)),
                          np.zeros_like(XX))
            if np.all(np.isfinite(acc)):
                return acc
        except (FloatingPointError, ValueError, ZeroDivisionError,
                OverflowError):
            pass
        out = np.empty_like(XX)
        for i, x in enumerate(X.tolist()):
            for j, y in enumerate(Y.tolist()):
                try:
                    out[i, j] = self.residual(x, y)
                except ExprError:
                    out[i, j] = math.inf
        return out

    def residual_vector(self, x, y):
        """The components r(x, y) and their exact Jacobian, for
        Gauss-Newton refinement: (r, J) with r of shape (k,) and J of
        shape (k, 2)."""
        vals = np.array(call_compiled(self._component_grad_fn, x, y,
                                      "Jacobian evaluation"),
                        dtype=float).reshape(-1, 3)
        return vals[:, 0], vals[:, 1:]


@dataclass(frozen=True)
class ProjectiveSystem(FiberSystem):
    """Branched section of the projective tangent bundle cut out by a
    binary differential form (fiber RP^1).  Components: the form's
    coefficients."""
    form: BinaryForm = None

    kind: ClassVar[FiberKind] = FiberKind.PROJECTIVE

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

    def solve(self, x, y, singular_tol=SINGULAR_TOL, sep_floor=SEP_FLOOR):
        avals = self.component_values(x, y)
        if not all(map(math.isfinite, avals)):
            raise DomainError(
                f"coefficient evaluation is not finite at ({x}, {y})")
        return _projective_roots(avals, singular_tol, sep_floor)

    def solve_many(self, points, singular_tol=SINGULAR_TOL,
                   sep_floor=SEP_FLOOR):
        """``solve`` at each (x, y) of ``points``, batched: a list with the
        root tuple of each point, or None where ``solve`` raises FiberError
        or DomainError.  The roots equal ``solve``'s bit for bit: generic
        points share the eigenvalue solves and the Newton polish of
        ``_projective_roots_many``, and every other point is handed to
        ``solve`` itself."""
        nan_row = (math.nan,) * (self.form.degree + 1)
        avals = []
        for x, y in points:
            try:
                avals.append(self.component_values(x, y))
            except DomainError:
                avals.append(nan_row)
        out = _projective_roots_many(
            np.array(avals, dtype=float).reshape(-1, len(nan_row)),
            singular_tol, sep_floor)
        for k, (x, y) in enumerate(points):
            if out[k] is None:
                try:
                    out[k] = self.solve(x, y, singular_tol, sep_floor)
                except (FiberError, DomainError):
                    pass
        return out


@dataclass(frozen=True)
class CircleSystem(FiberSystem):
    """Relation w^m = v(z)/|v(z)| on the unit circle (fiber S^1); the
    singular set is the zero set of v.  Components: (Re v, Im v)."""
    sheets: int = 0
    v_re: Expr = None
    v_im: Expr = None
    variables: tuple = ("x", "y")

    kind: ClassVar[FiberKind] = FiberKind.CIRCLE

    def __post_init__(self):
        if self.sheets < 1 or self.v_re is None or self.v_im is None:
            raise ValueError("sheets >= 1 and both components of v required")

    @property
    def sheet_count(self) -> int:
        return self.sheets

    @property
    def components(self) -> tuple:
        return (self.v_re, self.v_im)

    def solve(self, x, y, singular_tol=SINGULAR_TOL, sep_floor=SEP_FLOOR):
        vre, vim = self.component_values(x, y, "relation evaluation")
        if vre * vre + vim * vim <= singular_tol:
            raise SingularFiber(f"defining data vanishes at ({x}, {y})")
        base = math.atan2(vim, vre)
        m = self.sheets
        return tuple(CircleAngle(_mod((base + _TWO_PI * k) / m, _TWO_PI))
                     for k in range(m))


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
    def _value_fn(self):
        return compile_value(*(e for pair in self.coeffs for e in pair),
                             variables=self.variables)

    def coeff_values(self, x, y):
        vals = call_compiled(self._value_fn, x, y, "coefficient evaluation")
        return [complex(re, im) for re, im in zip(vals[::2], vals[1::2])]

    def solve(self, x, y, singular_tol=SINGULAR_TOL, sep_floor=SEP_FLOOR):
        c = self.coeff_values(x, y)
        scale = max(abs(v) for v in c)
        if scale * scale <= singular_tol:
            raise SingularFiber(f"all coefficients vanish at ({x}, {y})")
        if abs(c[-1]) <= 1e-13 * scale:
            raise SingularFiber(
                f"leading coefficient vanishes at ({x}, {y}); "
                "a root escapes to infinity")
        if abs(c[0]) * abs(c[0]) <= singular_tol * scale * scale:
            raise SingularFiber(
                f"constant coefficient vanishes at ({x}, {y}); "
                "a root collapses to the puncture")
        poly = np.array(c[::-1], dtype=complex)
        roots = np.roots(poly)
        roots = [_polish_complex(poly, w) for w in roots]
        if any(abs(w) <= sep_floor for w in roots):
            raise SingularFiber(
                f"a root lies within the separation floor of the puncture "
                f"at ({x}, {y})")
        pts = tuple(ComplexPoint(w.real, w.imag)
                    for w in sorted(roots, key=lambda w: (_mod(
                        cmath.phase(w), _TWO_PI), abs(w))))
        if min_root_separation(pts) < sep_floor:
            raise IllConditioned(
                f"fiber roots closer than {sep_floor} at ({x}, {y})")
        return pts


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


def _polish_complex(poly, w, iters=3):
    dpoly = np.polyder(poly)
    for _ in range(iters):
        p = np.polyval(poly, w)
        dp = np.polyval(dpoly, w)
        if dp == 0:
            break
        step = p / dp
        w = w - step
        if abs(step) < 1e-15 * (1.0 + abs(w)):
            break
    return w


# ---------------------------------------------------------------------------
# Projective root solving


def _poly_angle_value(avals, phi):
    n = len(avals) - 1
    c, s = math.cos(phi), math.sin(phi)
    g = 0.0
    dg = 0.0
    for i, a in enumerate(avals):
        g += a * c ** (n - i) * s ** i
        t1 = 0.0 if i == n else (n - i) * c ** (n - i - 1) * s ** (i + 1)
        t2 = 0.0 if i == 0 else i * c ** (n - i + 1) * s ** (i - 1)
        dg += a * (t2 - t1)
    return g, dg


def _polish_angle(avals, phi, iters=4):
    for _ in range(iters):
        g, dg = _poly_angle_value(avals, phi)
        if dg == 0.0:
            break
        step = g / dg
        phi -= step
        if abs(step) < 1e-15:
            break
    return phi


def _projective_roots(avals, singular_tol, sep_floor):
    """All real projective roots of sum a_i p^(n-i) q^i, as RP1Angle."""
    n = len(avals) - 1
    if sum(a * a for a in avals) <= singular_tol:
        raise SingularFiber("all form coefficients vanish within tolerance")
    scale = max(abs(a) for a in avals)
    drop_tol = 1e-13 * scale

    # chart A solves in t = q/p (leading a_n, infinity = [0:1], phi = pi/2);
    # chart B solves in s = p/q (leading a_0, infinity = [1:0], phi = 0).
    use_a = abs(avals[-1]) >= abs(avals[0])
    if use_a:
        coeffs = list(avals[::-1])   # descending in t
        inf_angle = math.pi / 2
        to_angle = lambda t: math.atan2(t, 1.0)
    else:
        coeffs = list(avals)         # descending in s
        inf_angle = 0.0
        to_angle = lambda s: math.atan2(1.0, s)

    at_infinity = 0
    while coeffs and abs(coeffs[0]) <= drop_tol:
        coeffs.pop(0)
        at_infinity += 1

    angles = [inf_angle] * at_infinity
    if len(coeffs) > 1:
        for r in np.roots(np.array(coeffs, dtype=float)):
            if abs(r.imag) > 1e-6 * (1.0 + abs(r.real)):
                continue
            phi = _polish_angle(avals, to_angle(r.real))
            g, _ = _poly_angle_value(avals, phi)
            if abs(g) > 1e-8 * scale:
                continue
            angles.append(phi)

    canon = sorted(_mod(phi, math.pi) for phi in angles)
    # dedupe near-machine duplicates (conjugate pairs that collapsed onto
    # one real root); genuine roots this close fail the separation floor
    dedup = []
    for phi in canon:
        if dedup and rp1_distance(dedup[-1], phi) <= 1e-11:
            continue
        dedup.append(phi)
    if dedup and len(dedup) > 1 and rp1_distance(dedup[0], dedup[-1]) <= 1e-11:
        dedup.pop()

    if len(dedup) < n:
        raise ComplexRoots(
            f"only {len(dedup)} real projective roots of a degree-{n} form")
    if len(dedup) > n:
        # over-collection can only come from the real filter being too lax
        raise IllConditioned("root identification ambiguous")

    roots = tuple(RP1Angle(phi) for phi in dedup)
    if n > 1 and min_root_separation(roots) < sep_floor:
        raise IllConditioned(
            f"projective roots closer than the separation floor {sep_floor}")
    return roots


# Batched projective root solving.  Each step repeats the floating-point
# operations of the scalar code above in the same order, so the roots are
# equal bit for bit: np.cos, np.sin and np.fmod agree with math here, and
# np.float_power calls pow() as Python's ** does (np.power with a scalar
# exponent may square instead).  math.atan2 stays scalar: np.arctan2 can
# differ in the last bit.


def _mod_array(a, period):
    r = np.fmod(a, period)
    return np.where(r < 0.0, r + period, r)


def _poly_angle_values(A, phi):
    """``_poly_angle_value`` for each row of coefficients A at the angle
    of the same index in phi."""
    n = A.shape[1] - 1
    c, s = np.cos(phi), np.sin(phi)
    cp = [np.float_power(c, np.full_like(c, k)) for k in range(n + 1)]
    sp = [np.float_power(s, np.full_like(s, k)) for k in range(n + 1)]
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
    """``_polish_angle`` for each row of A; each angle stops where the
    scalar loop would stop."""
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
    """``_projective_roots`` for each row of coefficients A, as a list of
    root tuples.  A row gets None where the scalar code leaves its generic
    branch (a singular or non-finite row, complex roots, a root rejected
    after polishing, a dedupe, a separation failure); the caller solves
    those rows one at a time.

    Rows are grouped by the number of leading chart coefficients dropped
    as roots at infinity and of trailing zeros (roots at zero).  Each group
    shares one eigvals call on the stacked companion matrices that np.roots
    builds, so the chart roots are those of np.roots."""
    k, n = A.shape[0], A.shape[1] - 1
    with np.errstate(all="ignore"):
        sq = A[:, 0] * A[:, 0]
        for i in range(1, n + 1):      # the order of sum(), not np.sum
            sq = sq + A[:, i] * A[:, i]
        absA = np.abs(A)
        scale = absA.max(axis=1)
        use_a = absA[:, -1] >= absA[:, 0]
        C = np.where(use_a[:, None], A[:, ::-1], A)   # descending, by chart
        lead = np.cumprod(np.abs(C) <= 1e-13 * scale[:, None],
                          axis=1).sum(axis=1)
        trail = np.cumprod(C[:, ::-1] == 0.0, axis=1).sum(axis=1)
        ok = (np.isfinite(A).all(axis=1) & (sq > singular_tol)
              & (lead + trail <= n))

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
            except np.linalg.LinAlgError:
                ok[rows] = False
                continue
            cplx = np.abs(ev.imag) > 1e-6 * (1.0 + np.abs(ev.real))
            ok[rows[cplx.any(axis=1)]] = False
            t[rows, l:l + m] = ev.real

        rows, cols = np.nonzero(ok[:, None] & (np.arange(n) >= lead[:, None]))
        phi = np.array([math.atan2(v, 1.0) if a else math.atan2(1.0, v)
                        for v, a in zip(t[rows, cols].tolist(),
                                        use_a[rows].tolist())])
        phi = _polish_angles(A[rows], phi)
        g, _ = _poly_angle_values(A[rows], phi)
        ok[rows[~(np.isfinite(phi) & (np.abs(g) <= 1e-8 * scale[rows]))]] = \
            False

        angles = np.repeat(np.where(use_a, math.pi / 2, 0.0)[:, None], n,
                           axis=1)
        angles[rows, cols] = phi
        angles = np.sort(_mod_array(angles, math.pi), axis=1)
        if n > 1:
            i, j = np.triu_indices(n, 1)
            d = np.abs(_mod_array(angles[:, i], math.pi)
                       - _mod_array(angles[:, j], math.pi))
            sep = np.minimum(d, math.pi - d).min(axis=1)
            ok &= (sep > 1e-11) & (sep >= sep_floor)
    return [tuple(map(RP1Angle, row)) if good else None
            for row, good in zip(angles.tolist(), ok.tolist())]


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
    accepted step lowers the residual, so the last point is the best."""
    cur = _safe_residual(sys, x, y)
    for _ in range(max_iter):
        try:
            r, J = sys.residual_vector(x, y)
        except ExprError:
            break
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(J))):
            break
        try:
            step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        # damped acceptance
        lam = 1.0
        for _ in range(8):
            nx, ny = x + lam * step[0], y + lam * step[1]
            res = _safe_residual(sys, nx, ny)
            if res < cur:
                break
            lam *= 0.5
        else:
            break
        x, y, cur = nx, ny, res
        if np.hypot(*(lam * step)) < 1e-14 * (1.0 + abs(x) + abs(y)):
            break
    return x, y, cur


def _safe_residual(sys, x, y):
    try:
        r = sys.residual(x, y)
    except ExprError:
        return math.inf
    return r if math.isfinite(r) else math.inf


def _grid_local_minima(R):
    """Indices of grid cells that are <= all existing neighbours."""
    n0, n1 = R.shape
    out = []
    for i in range(n0):
        for j in range(n1):
            v = R[i, j]
            if not math.isfinite(v):
                continue
            ok = True
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if di == 0 and dj == 0:
                        continue
                    a, b = i + di, j + dj
                    if 0 <= a < n0 and 0 <= b < n1 and R[a, b] < v:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append((i, j))
    return out


def _segment_max_residual(sys, p, q, samples=17):
    worst = 0.0
    for k in range(samples):
        t = k / (samples - 1)
        x = p[0] + t * (q[0] - p[0])
        y = p[1] + t * (q[1] - p[1])
        worst = max(worst, _safe_residual(sys, x, y))
    return worst


def _certify_isolation(sys, x, y, others, tol, sep_floor, probe_angles=64):
    dom = sys.domain
    d_bound = dom.boundary_distance(x, y)
    d_near = min((math.hypot(x - ox, y - oy) for ox, oy in others),
                 default=math.inf)
    r0 = 0.9 * min(d_bound, d_near / 2.0)
    if r0 <= 0.0:
        raise NonIsolatedZero(
            f"cannot probe isolation of ({x}, {y}): no room inside domain")
    r = r0
    for _ in range(10):
        ok = True
        for k in range(probe_angles):
            th = _TWO_PI * k / probe_angles
            try:
                sys.solve(x + r * math.cos(th), y + r * math.sin(th),
                          singular_tol=tol, sep_floor=sep_floor)
            except (FiberError, DomainError):
                ok = False
                break
        if ok:
            return r
        r *= 0.5
        if r < 1e-8:
            break
    raise NonIsolatedZero(
        f"could not certify isolation of the zero near ({x}, {y})")


def find_singularities(sys: FiberSystem, grid_density: int = 48,
                       tol: float = SINGULAR_TOL,
                       sep_floor: float = SEP_FLOOR):
    """Locate the isolated points of the singular set.

    Scans the domain grid for local minima of the squared residual,
    refines candidates by damped Gauss-Newton, merges duplicates (and
    residual-flat plateaus around one zero), and checks isolation by
    probing a surrounding circle.  Declared singular points of the system
    are verified and take precedence over refined candidates they merge
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
    positions = [(p[0], p[1]) for p in points]
    out = []
    for idx, (x, y, res, _) in enumerate(points):
        others = positions[:idx] + positions[idx + 1:]
        radius = _certify_isolation(sys, x, y, others, tol, sep_floor)
        out.append(SingularPoint(x, y, radius, res))
    return out
