"""Parametric surfaces, curvature-line equations, and the index-sum check.

A closed surface is described as a list of parametric patches with
partition-of-unity weights (no atlas transition machinery).  From a patch
the curvature-line binary form is assembled symbolically; its singular
points are the umbilics.  Its coefficients are one fixed formula in the
15 frame values su, sv, suu, suv, svv, so ``verify_index_theorem``
compiles that formula and its Jacobian once, and the system of each
patch evaluates them on the patch's compiled frame and frame jets (the
frame values with their derivatives in u and v).

``verify_index_theorem`` computes both sides of the index-sum identity
independently: the right side by loop tracking at every owned singular
point (exact rational), the left side as (n/pi) * integral of Gaussian
curvature by tensor-product Gauss-Legendre quadrature.  The identity is
the assertion under test; the report never adjusts one side to match
the other.

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

from .expr import (VEC_ERRORS, DomainError, Expr, Var, add, call_compiled,
                   compile_value, diff, div, eval_rows, mul, parse,
                   stack_vec, sub, vec_errstate)
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

# Points per call of the compiled frame code in ``_frame_grids``.  Each of
# its temporaries (over a hundred on the stereographic sphere) is an array
# of that many values, and all of them live until the call returns.
FRAME_BLOCK = 2048

# The partition-of-unity check: random probe points per patch, and how far
# the weights at a probe may sum from 1.
PARTITION_PROBES = 8
PARTITION_TOL = 1e-8

# A surface point's tracking loop stays where its owning patch's weight is
# within this margin of 1.
WEIGHT_ONE_MARGIN = 1e-6

# The least tolerance of the index theorem's identity, whatever the
# quadrature's error estimate.
IDENTITY_TOL_FLOOR = 1e-3


def _dot(a, b) -> Expr:
    return add(add(mul(a[0], b[0]), mul(a[1], b[1])), mul(a[2], b[2]))


def _cross(a, b):
    return (sub(mul(a[1], b[2]), mul(a[2], b[1])),
            sub(mul(a[2], b[0]), mul(a[0], b[2])),
            sub(mul(a[0], b[1]), mul(a[1], b[0])))


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

    # one diff() memo per variable, so a subtree that several components
    # share is differentiated once

    @cached_property
    def d1(self):
        u, v = self.variables
        mu, mv = {}, {}
        du = tuple(diff(c, u, mu) for c in self.coords)
        dv = tuple(diff(c, v, mv) for c in self.coords)
        return du, dv

    @cached_property
    def d2(self):
        u, v = self.variables
        du, dv = self.d1
        mu, mv = {}, {}
        duu = tuple(diff(c, u, mu) for c in du)
        duv = tuple(diff(c, v, mv) for c in du)
        dvv = tuple(diff(c, v, mv) for c in dv)
        return duu, duv, dvv

    @cached_property
    def _frame_exprs(self):
        """su, sv, suu, suv, svv, component by component."""
        return tuple(c for grp in self.d1 + self.d2 for c in grp)

    @cached_property
    def _position_fn(self):
        return compile_value(*self.coords, variables=self.variables)

    @cached_property
    def _seed_grid(self):
        """Flattened U, V of a meshgrid and the positions on it, shape
        (3, SEED_GRID**2), that seed ``locate_on_patch``."""
        U, V = self.domain.grid(SEED_GRID)
        UU, VV = np.meshgrid(U, V, indexing="ij")
        with np.errstate(all="ignore"):
            px = stack_vec(self._position_fn.vector(UU, VV), UU.shape)
        return UU.ravel(), VV.ravel(), px.reshape(3, -1)

    @cached_property
    def _chart_fn(self):
        """Position, su and sv."""
        return compile_value(*self.coords, *self._frame_exprs[:6],
                             variables=self.variables)

    @cached_property
    def _frame_fn(self):
        """su, sv, suu, suv, svv, component by component."""
        return compile_value(*self._frame_exprs, variables=self.variables)

    @cached_property
    def _jet_fn(self):
        """The frame jets: each value of ``_frame_fn`` followed by its
        derivatives in u and v.  Compiled on first use, by the
        Gauss-Newton refinement of a curvature-line face."""
        return compile_value(*self._frame_exprs, variables=self.variables,
                             gradient=True)

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

    def _frame_grids(self, U, V):
        """Fundamental-form ingredients on a meshgrid (vectorized, one call
        of the frame code per block of rows)."""
        UU, VV = np.meshgrid(U, V, indexing="ij")
        vals = np.empty((15, *UU.shape))
        rows = max(1, FRAME_BLOCK // max(1, len(V)))
        try:
            with vec_errstate():
                for i in range(0, len(U), rows):
                    block = slice(i, i + rows)
                    vals[:, block] = stack_vec(
                        self._frame_fn.vector(UU[block], VV[block]),
                        UU[block].shape)
        except VEC_ERRORS as e:
            raise DomainError(f"patch grid evaluation failed: {e}") from None
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


def _curvature_coeffs(su, sv, suu, suv, svv):
    """The coefficients a0, a1, a2 of the curvature-line form, from the
    frame vectors."""
    E = _dot(su, su)
    F = _dot(su, sv)
    G = _dot(sv, sv)
    n = _cross(su, sv)
    W2 = _dot(n, n)
    Lt = _dot(n, suu)
    Mt = _dot(n, suv)
    Nt = _dot(n, svv)
    denom = mul(W2, expr_call("sqrt", W2))
    a0 = div(sub(mul(E, Mt), mul(F, Lt)), denom)
    a1 = div(sub(mul(E, Nt), mul(G, Lt)), denom)
    a2 = div(sub(mul(F, Nt), mul(G, Mt)), denom)
    return a0, a1, a2


def curvature_line_bde(patch: SurfacePatch) -> BinaryForm:
    """Degree-2 form whose roots are the principal directions.

    Coefficients are normalized by (EG - F^2)^(3/2), which makes them
    scale-free across patch compression; the singular points are exactly
    the umbilics.
    """
    return BinaryForm(2, _curvature_coeffs(*patch.d1, *patch.d2),
                      patch.variables)


# The inputs of the compiled curvature-line formula: the frame values in
# the order of ``SurfacePatch._frame_fn``, and the jets in the order of
# ``SurfacePatch._jet_fn``, each frame value followed by its derivatives.
_FRAME = tuple(f"{vec}_{c}" for vec in ("su", "sv", "suu", "suv", "svv")
               for c in "xyz")
_JETS = tuple(f"{name}{d}" for name in _FRAME for d in ("", "_du", "_dv"))


def _literal_key(literals):
    """A pattern of literal inputs as a dict key: repr keeps 0.0 and -0.0
    apart, which compare equal."""
    return tuple(None if n is None else repr(n.value) for n in literals)


class _CurvatureFormula:
    """The curvature-line coefficients compiled as a function of the frame
    values, and their Jacobian as a function of the frame jets, for the
    faces of one surface.

    The folds that build a face's coefficient trees fire on literal
    operands, so an input that a face's frame code returns as a literal
    (the 1 of su = (1, 0, z_u) on a graph chart) is substituted into the
    formula before it is compiled.  Then the formula's code performs the
    operations of the face's own coefficient code on the same values, and
    gives the same bits.  One compiled function is kept per pattern of
    literal inputs; charts without literals share one.
    """

    def __init__(self):
        self._values = {}
        self._jacobians = {}

    def values(self, literals):
        """The coefficients as a function of the frame values, for a frame
        code whose ``literals`` these are."""
        key = _literal_key(literals)
        fn = self._values.get(key)
        if fn is None:
            frame = [Var(name) if lit is None else lit
                     for name, lit in zip(_FRAME, literals)]
            fn = self._values[key] = compile_value(
                *_curvature_coeffs(*_vectors(frame)), variables=_FRAME)
        return fn

    def jacobian(self, literals):
        """The coefficients, each followed by its derivatives in u and v,
        as a function of the jets, for a jet code whose ``literals`` these
        are: forward mode started from the tangents of the frame."""
        key = _literal_key(literals)
        fn = self._jacobians.get(key)
        if fn is None:
            frame, du, dv = [], {}, {}
            for k, name in enumerate(_FRAME):
                lit, lit_u, lit_v = literals[3 * k:3 * k + 3]
                if lit is not None:   # then its tangents are 0
                    frame.append(lit)
                    continue
                frame.append(Var(name))
                du[name] = Var(name + "_du") if lit_u is None else lit_u
                dv[name] = Var(name + "_dv") if lit_v is None else lit_v
            fn = self._jacobians[key] = compile_value(
                *_curvature_coeffs(*_vectors(frame)), variables=_JETS,
                gradient=(du, dv))
        return fn


def _vectors(frame):
    """su, sv, suu, suv, svv from the 15 frame values."""
    return [frame[k:k + 3] for k in range(0, 15, 3)]


@dataclass(frozen=True)
class _CurvatureLineSystem(ProjectiveSystem):
    """``ProjectiveSystem(patch.domain, form=curvature_line_bde(patch))``
    whose code is composed: the coefficients are ``formula`` applied to
    the patch's frame values, and their Jacobian is ``formula``'s Jacobian
    applied to the frame jets.  Each face compiles only its jets; its
    frame code is the one the patch compiled on construction."""
    patch: SurfacePatch = None
    formula: _CurvatureFormula = None

    @cached_property
    def _component_fn(self):
        frame = self.patch._frame_fn
        coeffs = self.formula.values(frame.literals)

        def fn(u, v):
            return coeffs(*frame(u, v))

        fn.vector = lambda u, v: coeffs.vector(*frame.vector(u, v))
        fn.literals = coeffs.literals
        return fn

    @cached_property
    def _component_grad_fn(self):
        jets = self.patch._jet_fn
        jacobian = self.formula.jacobian(jets.literals)
        return lambda u, v: jacobian(*jets(u, v))


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
    ``eval_rows`` of the chart per iteration, which raises the error of
    the first point where the chart fails.
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
        rows, errors = eval_rows(patch._chart_fn, np.stack(
            [u[live], v[live]], axis=1), "patch evaluation")
        for error in filter(None, errors):
            raise error
        r, su, sv = rows.T.reshape(3, 3, -1)
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
    at, errors = eval_rows(patch._position_fn, np.stack([u, v], axis=1),
                           "patch evaluation")
    for error in filter(None, errors):
        raise error
    return u, v, np.linalg.norm(at.T - p.T, axis=0)


def check_partition_of_unity(wpatches, seed: int = 0):
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
        for _ in range(PARTITION_PROBES):
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
        if abs(total - 1.0) > PARTITION_TOL:
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
    try:
        with vec_errstate():
            wgt = np.broadcast_to(wp.weight_fn.vector(UU, VV), UU.shape)
    except VEC_ERRORS as e:
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


def _weight_one_radius(wfn, sp: SingularPoint, samples: int = 32) -> float:
    """Largest loop radius (at most isolation/2) on which the owning
    patch weight stays within ``WEIGHT_ONE_MARGIN`` of 1 at each of
    ``samples`` points, which one ``eval_rows`` call evaluates."""
    try:
        w0 = call_compiled(wfn, sp.x, sp.y, "weight evaluation")
    except DomainError:
        raise SingularPointOnPatchBoundary(
            f"weight undefined at the singular point ({sp.x}, {sp.y})")
    if w0 < 1.0 - WEIGHT_ONE_MARGIN:
        raise SingularPointOnPatchBoundary(
            f"owning-patch weight {w0:.9f} at ({sp.x}, {sp.y}) is below "
            f"1 - {WEIGHT_ONE_MARGIN}")
    r = sp.isolation_radius / 2.0
    angles = [2.0 * math.pi * k / samples for k in range(samples)]
    for _ in range(40):
        ring = [(sp.x + r * math.cos(th), sp.y + r * math.sin(th))
                for th in angles]
        w, _ = eval_rows(wfn, ring, "weight evaluation")
        if (w >= 1.0 - WEIGHT_ONE_MARGIN).all():   # a failed row is NaN
            return r
        r *= 0.6
        if r < 1e-6 * sp.isolation_radius:
            break
    raise SingularPointOnPatchBoundary(
        f"no loop radius around ({sp.x}, {sp.y}) keeps the patch weight "
        f"within {WEIGHT_ONE_MARGIN} of 1")


def verify_index_theorem(wpatches, bde_source="curvature_lines",
                         quadrature_order: int = 32,
                         grid_density: int = 48,
                         singular_tol: float = SINGULAR_TOL,
                         sep_floor: float = SEP_FLOOR,
                         seed: int = 0, samples: int = 64,
                         max_depth: int = 12) -> TheoremReport:
    """Compute rhs = sum N(x) * total_index(x) by loop tracking and
    lhs = (n/pi) * curvature integral by quadrature, and compare.

    ``bde_source`` is either "curvature_lines" (the form is assembled from
    each patch) or a list of explicit BinaryForm values, one per patch in
    patch coordinates.  With "curvature_lines" the coefficient formula
    and its Jacobian are compiled once per call for all the patches (once
    per pattern of literal frame values, see ``_CurvatureFormula``), and
    each patch compiles only its frame jets, when it first refines a
    singular point.  Each singular point is owned by the patch whose
    weight exceeds 1/2 there; the tracking loop must stay in the owning
    patch's weight-1 region, so its radius is the weight-one radius, and
    its ``samples`` and ``max_depth`` are those of ``LoopSpec``.
    """
    wpatches = list(wpatches)
    if bde_source == "curvature_lines":
        forms = [curvature_line_bde(wp.patch) for wp in wpatches]
        formula = _CurvatureFormula()
        systems = [_CurvatureLineSystem(wp.patch.domain, form=form,
                                        patch=wp.patch, formula=formula)
                   for wp, form in zip(wpatches, forms)]
    else:
        forms = list(bde_source)
        if len(forms) != len(wpatches):
            raise ValueError("need one explicit form per patch")
        systems = [ProjectiveSystem(wp.patch.domain, form=form)
                   for wp, form in zip(wpatches, forms)]
    degrees = {f.degree for f in forms}
    if len(degrees) != 1:
        raise ValueError(f"patch forms disagree on the sheet count: "
                         f"{sorted(degrees)}")
    n = degrees.pop()

    records = []
    unowned = []
    for i, (wp, sys) in enumerate(zip(wpatches, systems)):
        name = wp.patch.name or f"patch{i}"
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
                radius = _weight_one_radius(wp.weight_fn, sp)
                loop = LoopSpec((sp.x, sp.y), radius, samples=samples,
                                max_depth=max_depth)
                rep = index_report(sys, sp, loop, singular_tol=singular_tol,
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
        wpatches, quadrature_order=quadrature_order, seed=seed)
    lhs = n / math.pi * integral
    lhs_err = n / math.pi * q_err
    tolerance = max(IDENTITY_TOL_FLOOR, 10.0 * lhs_err)

    difference = None
    orientation_flipped = None
    identity_ok = None
    if rhs is not None:
        rhs_f = float(rhs)
        # both sides are independent of the charts' orientation, so a
        # sign mismatch is a defect and fails the identity
        difference = abs(lhs - rhs_f)
        orientation_flipped = bool(rhs_f != 0.0 and lhs * rhs_f < 0.0)
        identity_ok = difference < tolerance
        if orientation_flipped:
            notes.append("lhs and rhs differ in sign; neither side depends "
                         "on orientation, so one of them is wrong")

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
