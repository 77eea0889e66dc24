"""Parametric surfaces, curvature-line equations, and the index-sum check.

A closed surface is described as a list of parametric patches with
partition-of-unity weights (no atlas transition machinery).  From a patch
the curvature-line binary form is assembled symbolically; its singular
points are the umbilics.  ``verify_index_theorem`` computes both sides of
the index-sum identity independently: the right side by loop tracking at
every owned singular point (exact rational), the left side as
(n/pi) * integral of Gaussian curvature by tensor-product Gauss-Legendre
quadrature.  The identity is the assertion under test; the report never
adjusts one side to match the other.

The (n/pi) reduction constant of the curvature integral is validated by
the shipped sphere case with a degree-1 direction field (two index-2
singular points, integral 4*pi) and the ellipsoid case; see the tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .expr import (DomainError, Expr, add, call_compiled, compile_value,
                   compile_value_vec, diff, div, mul, parse, sub)
from .expr import call as expr_call
from .fiber import (BinaryForm, ProjectiveSystem, Rect, SEP_FLOOR,
                    SINGULAR_TOL, SingularPoint, find_singularities)
from .index import PointIndexReport, index_report
from .monodromy import LoopSpec

__all__ = [
    "SurfacePatch", "WeightedPatch", "FundamentalForms", "TheoremReport",
    "PointRecord", "GeometryError", "DegenerateImmersion",
    "WeightsNotPartition", "SingularPointOnPatchBoundary",
    "fundamental_forms", "gaussian_curvature_brioschi", "curvature_line_bde",
    "integrate_gauss_curvature", "locate_on_patch", "verify_index_theorem",
]


class GeometryError(Exception):
    """Base class for surface-machinery errors."""


class DegenerateImmersion(GeometryError):
    """EG - F^2 is not strictly positive on the parameter rectangle."""


class WeightsNotPartition(GeometryError):
    """Patch weights fail to sum to 1 at a probe point."""


class SingularPointOnPatchBoundary(GeometryError):
    """A singular point has no patch owning it with weight 1 on a
    tracking loop."""


# Points per side of the grid that seeds the nearest-point search.
SEED_GRID = 8


def _dot(a, b) -> Expr:
    return add(add(mul(a[0], b[0]), mul(a[1], b[1])), mul(a[2], b[2]))


def _cross(a, b):
    return (sub(mul(a[1], b[2]), mul(a[2], b[1])),
            sub(mul(a[2], b[0]), mul(a[0], b[2])),
            sub(mul(a[0], b[1]), mul(a[1], b[0])))


def _stack(values, shape):
    """The outputs of a vectorized compiled function as one array of
    shape (outputs, *shape); an output that does not depend on the
    variables is broadcast."""
    out = np.empty((len(values), *shape))
    for row, t in zip(out, values):
        row[...] = t
    return out


@dataclass(frozen=True)
class SurfacePatch:
    """Parametric surface piece (x(u,v), y(u,v), z(u,v)) over a rectangle.

    Derivative expressions are built once by symbolic differentiation and
    compiled; second derivatives come from differentiating the first-
    derivative expressions.  Construction fails with DegenerateImmersion
    when EG - F^2 is not positive on a probe grid.
    """
    x: Expr
    y: Expr
    z: Expr
    domain: Rect
    name: str = ""
    variables: tuple = ("u", "v")

    def __post_init__(self):
        probe = self._frame_grids(*self.domain.grid(9))
        w2 = probe["W2"]
        if not np.all(np.isfinite(w2)) or np.any(w2 <= 0.0):
            raise DegenerateImmersion(
                f"patch {self.name or '<unnamed>'}: EG - F^2 is not "
                "strictly positive on the parameter rectangle")

    @classmethod
    def from_strings(cls, x, y, z, domain, name="", variables=("u", "v")):
        return cls(parse(x, variables), parse(y, variables),
                   parse(z, variables), domain, name, tuple(variables))

    # --- symbolic frames ---------------------------------------------------

    @cached_property
    def coords(self):
        return (self.x, self.y, self.z)

    @cached_property
    def d1(self):
        u, v = self.variables
        du = tuple(diff(c, u) for c in self.coords)
        dv = tuple(diff(c, v) for c in self.coords)
        return du, dv

    @cached_property
    def d2(self):
        u, v = self.variables
        du, dv = self.d1
        duu = tuple(diff(c, u) for c in du)
        duv = tuple(diff(c, v) for c in du)
        dvv = tuple(diff(c, v) for c in dv)
        return duu, duv, dvv

    @cached_property
    def _frame_exprs(self):
        """su, sv, suu, suv, svv, component by component."""
        return tuple(c for grp in self.d1 + self.d2 for c in grp)

    @cached_property
    def _position_fn(self):
        return compile_value(*self.coords, variables=self.variables)

    @cached_property
    def _position_vec_fn(self):
        return compile_value_vec(*self.coords, variables=self.variables)

    @cached_property
    def _seed_grid(self):
        """Flattened U, V of a meshgrid and the positions on it, shape
        (3, SEED_GRID**2), that seed ``locate_on_patch``."""
        U, V = self.domain.grid(SEED_GRID)
        UU, VV = np.meshgrid(U, V, indexing="ij")
        with np.errstate(all="ignore"):
            px = _stack(self._position_vec_fn(UU, VV), UU.shape)
        return UU.ravel(), VV.ravel(), px.reshape(3, -1)

    @cached_property
    def _chart_fn(self):
        """Position, su and sv."""
        return compile_value(*self.coords, *self._frame_exprs[:6],
                             variables=self.variables)

    @cached_property
    def _chart_vec_fn(self):
        """Position, su and sv, vectorized."""
        return compile_value_vec(*self.coords, *self._frame_exprs[:6],
                                 variables=self.variables)

    @cached_property
    def _frame_vec_fn(self):
        return compile_value_vec(*self._frame_exprs, variables=self.variables)

    @cached_property
    def _brioschi_fn(self):
        """E, F, G, E_u, E_v, E_vv, F_u, F_v, F_uv, G_u, G_v, G_uu."""
        u, v = self.variables
        du, dv = self.d1
        E, F, G = _dot(du, du), _dot(du, dv), _dot(dv, dv)
        E_v, F_u, G_u = diff(E, v), diff(F, u), diff(G, u)
        return compile_value(
            E, F, G, diff(E, u), E_v, diff(E_v, v), F_u, diff(F, v),
            diff(F_u, v), G_u, diff(G, v), diff(G_u, u),
            variables=self.variables)

    # --- numeric evaluation -------------------------------------------------

    def position(self, u: float, v: float):
        return np.array(call_compiled(self._position_fn, u, v,
                                  "patch evaluation"))

    def chart(self, u: float, v: float):
        """Position, su and sv as one tuple of nine floats."""
        return call_compiled(self._chart_fn, u, v, "patch evaluation")

    def _frame_grids(self, U, V):
        """Fundamental-form ingredients on a meshgrid (vectorized)."""
        UU, VV = np.meshgrid(U, V, indexing="ij")
        with np.errstate(all="raise"):
            try:
                vals = _stack(self._frame_vec_fn(UU, VV), UU.shape)
            except (FloatingPointError, ValueError, ZeroDivisionError,
                    OverflowError) as e:
                raise DomainError(
                    f"patch grid evaluation failed: {e}") from None
        su, sv, suu, suv, svv = (vals[k:k + 3] for k in range(0, 15, 3))
        E = np.einsum("kij,kij->ij", su, su)
        F = np.einsum("kij,kij->ij", su, sv)
        G = np.einsum("kij,kij->ij", sv, sv)
        n = np.cross(su, sv, axis=0)
        W2 = np.einsum("kij,kij->ij", n, n)
        Lt = np.einsum("kij,kij->ij", n, suu)
        Mt = np.einsum("kij,kij->ij", n, suv)
        Nt = np.einsum("kij,kij->ij", n, svv)
        return {"E": E, "F": F, "G": G, "W2": W2,
                "Lt": Lt, "Mt": Mt, "Nt": Nt}


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float
    K: float
    area_element: float


def fundamental_forms(patch: SurfacePatch, u: float, v: float
                      ) -> FundamentalForms:
    """First and second fundamental forms and Gaussian curvature, from the
    grid code of the curvature quadrature on a 1 x 1 grid."""
    g = {k: float(a[0, 0]) for k, a in
         patch._frame_grids(np.array([u]), np.array([v])).items()}
    E, F, G, W2 = g["E"], g["F"], g["G"], g["W2"]
    if W2 <= 0.0 or not math.isfinite(W2):
        raise DegenerateImmersion(f"EG - F^2 = {W2} at ({u}, {v})")
    W = math.sqrt(W2)
    L, M, N = g["Lt"] / W, g["Mt"] / W, g["Nt"] / W
    K = (L * N - M * M) / W2
    return FundamentalForms(E, F, G, L, M, N, K, W)


def gaussian_curvature_brioschi(patch: SurfacePatch, u: float, v: float
                                ) -> float:
    """Intrinsic Gaussian curvature from the first fundamental form only
    (Brioschi formula); an independent oracle for the shape-operator
    route in ``fundamental_forms``."""
    (E, F, G, E_u, E_v, E_vv, F_u, F_v, F_uv, G_u, G_v,
     G_uu) = patch._brioschi_fn(u, v)
    M1 = np.array([
        [-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v],
        [F_v - 0.5 * G_u, E, F],
        [0.5 * G_v, F, G],
    ])
    M2 = np.array([
        [0.0, 0.5 * E_v, 0.5 * G_u],
        [0.5 * E_v, E, F],
        [0.5 * G_u, F, G],
    ])
    W2 = E * G - F ** 2
    return float((np.linalg.det(M1) - np.linalg.det(M2)) / W2 ** 2)


def curvature_line_bde(patch: SurfacePatch) -> BinaryForm:
    """Degree-2 form whose roots are the principal directions.

    Coefficients are normalized by (EG - F^2)^(3/2), which makes them
    scale-free across patch compression; the singular points are exactly
    the umbilics.
    """
    du, dv = patch.d1
    duu, duv, dvv = patch.d2
    E = _dot(du, du)
    F = _dot(du, dv)
    G = _dot(dv, dv)
    n = _cross(du, dv)
    W2 = _dot(n, n)
    Lt = _dot(n, duu)
    Mt = _dot(n, duv)
    Nt = _dot(n, dvv)
    denom = mul(W2, expr_call("sqrt", W2))
    a0 = div(sub(mul(E, Mt), mul(F, Lt)), denom)
    a1 = div(sub(mul(E, Nt), mul(G, Lt)), denom)
    a2 = div(sub(mul(F, Nt), mul(G, Mt)), denom)
    return BinaryForm(2, (a0, a1, a2), patch.variables)


# ---------------------------------------------------------------------------
# Closed surfaces: weighted patch lists


@dataclass(frozen=True)
class WeightedPatch:
    """A patch with its partition-of-unity weight (in patch coordinates)."""
    patch: SurfacePatch
    weight: Expr

    @cached_property
    def weight_fn(self):
        return compile_value(self.weight, variables=self.patch.variables)

    @cached_property
    def weight_vec_fn(self):
        return compile_value_vec(self.weight,
                                 variables=self.patch.variables)


def _eval_rows(vec_fn, point_fn, u, v):
    """A compiled patch function at the points (u[i], v[i]), shape
    (outputs, k): one call of the vectorized ``vec_fn``, or, if that
    raises, ``point_fn`` point by point, whose DomainError names the
    failing point."""
    try:
        with np.errstate(all="raise"):
            return _stack(vec_fn(u, v), u.shape)
    except (FloatingPointError, ValueError, ZeroDivisionError,
            OverflowError):
        return np.array([point_fn(a, b)
                         for a, b in zip(u.tolist(), v.tolist())]).T


def locate_on_patch(patch: SurfacePatch, points, max_iter: int = 40):
    """Nearest parameter points of ``patch`` to a stack of 3D points.

    ``points`` has shape (k, 3); returns three length-k arrays
    (u, v, dist).  Each row runs clamped Gauss-Newton on |r(u,v) - p|^2
    from its nearest node of a coarse seed grid, with the step solved
    from the 2x2 normal equations (determinant EG - F^2).  Iterates are
    clamped into the rectangle, so points whose true preimage lies
    outside it report the boundary distance.  A row stops without moving
    at a non-finite step; after a move it stops at a fixed point of the
    clamped step, where every further iteration would repeat it, or at a
    step below 1e-14 (1 + |u| + |v|).  The rows still running share one
    vectorized chart call per iteration.
    """
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    dom = patch.domain
    us, vs, px = patch._seed_grid
    d2 = ((px[:, None, :] - p.T[:, :, None]) ** 2).sum(axis=0)
    seed = np.nanargmin(d2, axis=1)
    u, v = us[seed], vs[seed]

    live = np.arange(len(p))
    for _ in range(max_iter):
        if not live.size:
            break
        r, su, sv = _eval_rows(patch._chart_vec_fn, patch.chart,
                               u[live], v[live]).reshape(3, 3, -1)
        with np.errstate(all="ignore"):
            d = p[live].T - r
            E, F, G = (su * su).sum(0), (su * sv).sum(0), (sv * sv).sum(0)
            bu, bv = (su * d).sum(0), (sv * d).sum(0)
            det = E * G - F * F
            du = (G * bu - F * bv) / det
            dv = (E * bv - F * bu) / det
        ok = np.isfinite(du) & np.isfinite(dv)
        live, du, dv = live[ok], du[ok], dv[ok]
        u0, v0 = u[live], v[live]
        u1 = np.minimum(np.maximum(u0 + du, dom.xmin), dom.xmax)
        v1 = np.minimum(np.maximum(v0 + dv, dom.ymin), dom.ymax)
        u[live], v[live] = u1, v1
        done = (((u1 == u0) & (v1 == v0))
                | (np.hypot(du, dv) < 1e-14 * (1.0 + abs(u1) + abs(v1))))
        live = live[~done]
    at = _eval_rows(patch._position_vec_fn, patch.position, u, v)
    return u, v, np.linalg.norm(at - p.T, axis=0)


def check_partition_of_unity(wpatches, probes_per_patch: int = 8,
                             tol: float = 1e-8, seed: int = 0):
    """Verify the declared weights sum to 1 at random probe points.

    Each probe is mapped to 3D, and every probe of every patch is located
    on each patch in one batched ``locate_on_patch`` call per patch.
    Probe by probe, the weights of the patches containing it (distance
    below a surface tolerance) are summed in patch order; the first probe
    whose sum is not 1 raises WeightsNotPartition.
    """
    rng = random.Random(seed)
    probes = []
    for wp in wpatches:
        dom = wp.patch.domain
        mx = 0.05 * (dom.xmax - dom.xmin)
        my = 0.05 * (dom.ymax - dom.ymin)
        for _ in range(probes_per_patch):
            u = rng.uniform(dom.xmin + mx, dom.xmax - mx)
            v = rng.uniform(dom.ymin + my, dom.ymax - my)
            probes.append((wp, wp.patch.position(u, v)))
    points = np.array([p3 for _, p3 in probes])
    located = [locate_on_patch(other.patch, points) for other in wpatches]
    for k, (wp, p3) in enumerate(probes):
        loc_tol = 1e-6 * (1.0 + float(np.linalg.norm(p3)))
        total = 0.0
        for other, (ou, ov, dist) in zip(wpatches, located):
            if dist[k] <= loc_tol:
                total += call_compiled(other.weight_fn, float(ou[k]),
                                       float(ov[k]), "weight evaluation")
        if abs(total - 1.0) > tol:
            raise WeightsNotPartition(
                f"weights sum to {total:.12f} (not 1) at the probe "
                f"point {tuple(p3)} from patch "
                f"{wp.patch.name or '<unnamed>'}")


def _patch_curvature_integral(wp: WeightedPatch, nodes, weights) -> float:
    dom = wp.patch.domain
    hu = 0.5 * (dom.xmax - dom.xmin)
    hv = 0.5 * (dom.ymax - dom.ymin)
    cu = 0.5 * (dom.xmax + dom.xmin)
    cv = 0.5 * (dom.ymax + dom.ymin)
    U = cu + hu * nodes
    V = cv + hv * nodes
    g = wp.patch._frame_grids(U, V)
    UU, VV = np.meshgrid(U, V, indexing="ij")
    with np.errstate(all="raise"):
        try:
            wgt = np.broadcast_to(
                np.asarray(wp.weight_vec_fn(UU, VV), dtype=float), UU.shape)
        except (FloatingPointError, ValueError, ZeroDivisionError,
                OverflowError) as e:
            raise DomainError(f"weight evaluation failed: {e}") from None
    # K * dA = (Lt*Nt - Mt^2) / W2^(3/2)  (unnormalized second form)
    kw = (g["Lt"] * g["Nt"] - g["Mt"] ** 2) / g["W2"] ** 1.5
    wij = np.outer(weights, weights)
    return float(hu * hv * np.sum(wij * wgt * kw))


def integrate_gauss_curvature(wpatches, quadrature_order: int = 32,
                              check_partition: bool = True, seed: int = 0):
    """Weighted Gaussian-curvature integral over a closed patched surface.

    Returns (value, error_estimate); the estimate compares the requested
    order against half the order (Richardson-style difference).
    """
    if check_partition:
        check_partition_of_unity(wpatches, seed=seed)
    rule_hi = np.polynomial.legendre.leggauss(quadrature_order)
    rule_lo = np.polynomial.legendre.leggauss(max(4, quadrature_order // 2))
    hi = sum(_patch_curvature_integral(wp, *rule_hi) for wp in wpatches)
    lo = sum(_patch_curvature_integral(wp, *rule_lo) for wp in wpatches)
    return hi, abs(hi - lo)


# ---------------------------------------------------------------------------
# The index-sum identity


@dataclass(frozen=True)
class PointRecord:
    patch_name: str
    singular_point: SingularPoint
    position3: tuple
    report: PointIndexReport


@dataclass(frozen=True)
class TheoremReport:
    """Both sides of the index-sum identity, computed independently."""
    sheet_count: int
    point_records: tuple
    hypothesis_ok: bool
    rhs: Fraction | None
    lhs: float
    lhs_error: float
    difference: float | None
    orientation_flipped: bool | None
    euler_characteristic_estimate: float
    tolerance: float
    identity_ok: bool | None
    notes: tuple = ()


def _weight_one_radius(wfn, sp: SingularPoint, margin: float,
                       samples: int = 32) -> float:
    """Largest loop radius (at most isolation/2) on which the owning
    patch weight stays within ``margin`` of 1."""
    try:
        w0 = call_compiled(wfn, sp.x, sp.y, "weight evaluation")
    except DomainError:
        raise SingularPointOnPatchBoundary(
            f"weight undefined at the singular point ({sp.x}, {sp.y})")
    if w0 < 1.0 - margin:
        raise SingularPointOnPatchBoundary(
            f"owning-patch weight {w0:.9f} at ({sp.x}, {sp.y}) is below "
            f"1 - {margin}")
    r = sp.isolation_radius / 2.0
    for _ in range(40):
        ok = True
        for k in range(samples):
            th = 2.0 * math.pi * k / samples
            try:
                w = call_compiled(wfn, sp.x + r * math.cos(th),
                                  sp.y + r * math.sin(th),
                                  "weight evaluation")
            except DomainError:
                ok = False
                break
            if w < 1.0 - margin:
                ok = False
                break
        if ok:
            return r
        r *= 0.6
        if r < 1e-6 * sp.isolation_radius:
            break
    raise SingularPointOnPatchBoundary(
        f"no loop radius around ({sp.x}, {sp.y}) keeps the patch weight "
        f"within {margin} of 1")


def verify_index_theorem(wpatches, bde_source="curvature_lines",
                         quadrature_order: int = 32,
                         grid_density: int = 48,
                         singular_tol: float = SINGULAR_TOL,
                         sep_floor: float = SEP_FLOOR,
                         weight_one_margin: float = 1e-6,
                         identity_tol_floor: float = 1e-3,
                         check_partition: bool = True,
                         seed: int = 0) -> TheoremReport:
    """Compute rhs = sum N(x) * total_index(x) by loop tracking and
    lhs = (n/pi) * curvature integral by quadrature, and compare.

    ``bde_source`` is either "curvature_lines" (the form is assembled from
    each patch) or a list of explicit BinaryForm values, one per patch in
    patch coordinates.  Each singular point is owned by the patch whose
    weight exceeds 1/2 there; the tracking loop must stay in the owning
    patch's weight-1 region.
    """
    wpatches = list(wpatches)
    if bde_source == "curvature_lines":
        forms = [curvature_line_bde(wp.patch) for wp in wpatches]
    else:
        forms = list(bde_source)
        if len(forms) != len(wpatches):
            raise ValueError("need one explicit form per patch")
    degrees = {f.degree for f in forms}
    if len(degrees) != 1:
        raise ValueError(f"patch forms disagree on the sheet count: "
                         f"{sorted(degrees)}")
    n = degrees.pop()

    records = []
    unowned = []
    for i, (wp, form) in enumerate(zip(wpatches, forms)):
        name = wp.patch.name or f"patch{i}"
        sys = ProjectiveSystem(wp.patch.domain, form=form)
        pts = find_singularities(sys, grid_density=grid_density,
                                 tol=singular_tol, sep_floor=sep_floor)
        for sp in pts:
            p3 = tuple(wp.patch.position(sp.x, sp.y))
            try:
                w = call_compiled(wp.weight_fn, sp.x, sp.y,
                                  "weight evaluation")
            except DomainError:
                w = 0.0
            if w >= 0.5:
                radius = _weight_one_radius(wp.weight_fn, sp,
                                            weight_one_margin)
                rep = index_report(sys, sp, LoopSpec((sp.x, sp.y), radius),
                                   singular_tol=singular_tol,
                                   sep_floor=sep_floor)
                records.append(PointRecord(name, sp, p3, rep))
            else:
                unowned.append((name, sp, p3))

    scale3 = 1.0 + max((np.linalg.norm(r.position3) for r in records),
                       default=1.0)
    for name, sp, p3 in unowned:
        best = min((float(np.linalg.norm(np.array(p3) - np.array(r.position3)))
                    for r in records), default=math.inf)
        if best > 1e-5 * scale3:
            raise SingularPointOnPatchBoundary(
                f"singular point {p3} (patch {name}, weight < 1/2) has no "
                "owning patch")

    notes = []
    hypothesis_ok = all(r.report.uniform_orbit_size is not None
                        for r in records)
    rhs = None
    if hypothesis_ok:
        rhs = sum((r.report.uniform_orbit_size * r.report.total_index
                   for r in records), Fraction(0))
        if rhs.denominator != 1:
            raise GeometryError(
                f"internal inconsistency: rhs {rhs} is not an integer "
                "although all orbit sizes are uniform")
    else:
        notes.append("orbit sizes differ at some singular point; N(x) "
                     "undefined and the identity is not evaluated")

    integral, q_err = integrate_gauss_curvature(
        wpatches, quadrature_order=quadrature_order,
        check_partition=check_partition, seed=seed)
    lhs = n / math.pi * integral
    lhs_err = n / math.pi * q_err
    tolerance = max(identity_tol_floor, 10.0 * lhs_err)

    difference = None
    orientation_flipped = None
    identity_ok = None
    if rhs is not None:
        rhs_f = float(rhs)
        difference = abs(abs(lhs) - abs(rhs_f))
        orientation_flipped = bool(rhs_f != 0.0 and lhs * rhs_f < 0.0)
        identity_ok = difference < tolerance
        if orientation_flipped:
            notes.append("lhs and rhs agree in absolute value but differ "
                         "in sign (global orientation flip)")

    return TheoremReport(
        sheet_count=n,
        point_records=tuple(records),
        hypothesis_ok=hypothesis_ok,
        rhs=rhs,
        lhs=lhs,
        lhs_error=lhs_err,
        difference=difference,
        orientation_flipped=orientation_flipped,
        euler_characteristic_estimate=lhs / (2.0 * n),
        tolerance=tolerance,
        identity_ok=identity_ok,
        notes=tuple(notes))
