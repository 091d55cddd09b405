"""The two step-2 Carnot group models and their geodesic machinery.

Model "36" lives on R^3 + R^3 with a 3-dimensional horizontal distribution;
points are stored as G_3 multivectors q = x + z with a grade-1 part x and a
grade-2 part z.  Model "47" lives on R + R^3 + R^3 with a 4-dimensional
distribution split into a preferred axis and an involutive complement;
points are G_4 multivectors q = x e1 + l + y with l spanned by e2, e3, e4
and y spanned by e1^e2, e1^e3, e1^e4.

Coordinate conventions, fixed by requiring the closed-form geodesics below
to solve the left-invariant horizontal systems:

* 36: the classical z coordinates (z_1, z_2, z_3) embed into bivectors as
  z_bivec = z_vec I, i.e. (z_1, z_2, z_3) -> z_1 e23 - z_2 e13 + z_3 e12,
  equivalently z_vec = (z_23, -z_13, z_12).  Under this identification the
  vertical equation dz = (1/2) x cross h becomes dz_bivec = (1/2) x ^ h.
* 47: y_i is literally the coefficient on e1 ^ e_{i+1}; the vertical
  equation is dy = (1/2)(x hbar - h0 l) componentwise.

Both conventions are pinned numerically by the worked reference targets in
the test suite.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateConfiguration, RotorDomain
from .flags import DEGENERATE_TOL
from .ga import (
    Multivector,
    Rotor,
    blade_index,
    geometric_product,
    grade_project,
    inner_product,
    outer_product,
    pseudoscalar,
    sandwich,
)

_E1_4 = "e1"
# the cross product of 3-vectors, u x v = u[_NEXT] v[_PREV] - u[_PREV] v[_NEXT]
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]
# the algebra names bound in this module, handed to the shared invariant
# formulas (see _ga_invariants_36)
_GA = sys.modules[__name__]


class Model(str, Enum):
    """The two supported growth vectors."""

    M36 = "36"
    M47 = "47"


def _as_model(model) -> Model:
    if isinstance(model, Model):
        return model
    return Model(str(model))


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class _ModelPoint:
    """Group element stored as a dense multivector ``mv`` on the subspace of
    the model ``_model``; coefficients off it up to 1e-9 are zeroed."""

    mv: Multivector

    def __post_init__(self):
        spec = _SPECS[self._model]
        coeffs = spec.on_subspace(self.mv.coeffs)
        if coeffs is not self.mv.coeffs:
            object.__setattr__(self, "mv", Multivector(spec.dim, coeffs))

    @classmethod
    def origin(cls):
        return cls(Multivector.zero(_SPECS[cls._model].dim))


@dataclass(frozen=True)
class Model36Point(_ModelPoint):
    """Group element of the 6-dimensional model, stored as q = x + z in G_3."""

    _model = Model.M36

    @classmethod
    def from_parts(cls, x_coords, z_coeffs) -> "Model36Point":
        """Build from grade-1 coordinates and bivector coefficients (e12, e13, e23)."""
        return cls(_SPECS[Model.M36].mv(np.concatenate([x_coords, z_coeffs])))

    @property
    def x_coords(self) -> np.ndarray:
        return self.mv.coeffs[_SPECS[Model.M36].index[:3]]

    @property
    def z_coeffs(self) -> np.ndarray:
        """Bivector coefficients on (e12, e13, e23)."""
        return self.mv.coeffs[_SPECS[Model.M36].index[3:]]

    @property
    def z_vector(self) -> np.ndarray:
        """Classical vertical coordinates (z_1, z_2, z_3)."""
        return np.array(_SPECS[Model.M36].coordinates(self.mv.coeffs)[3:])


@dataclass(frozen=True)
class Model47Point(_ModelPoint):
    """Group element of the 7-dimensional model, stored in G_4 as
    q = x e1 + l + y with l in span(e2,e3,e4) and y in e1 ^ span(e2,e3,e4)."""

    _model = Model.M47

    @classmethod
    def from_parts(cls, x: float, l_coords, y_coords) -> "Model47Point":
        return cls(_SPECS[Model.M47].mv(np.concatenate([[x], l_coords, y_coords])))

    @property
    def x(self) -> float:
        return float(self.mv.coeffs[1])

    @property
    def l_coords(self) -> np.ndarray:
        return self.mv.coeffs[_SPECS[Model.M47].index[1:4]]

    @property
    def y_coords(self) -> np.ndarray:
        """Bivector coefficients on (e12, e13, e14)."""
        return self.mv.coeffs[_SPECS[Model.M47].index[4:]]


# ---------------------------------------------------------------------------
# group structure


def _group_product(model, p, q):
    """q q' = q + q' + (1/2) h ^ h' with h, h' the grade-1 parts: the bracket
    of the distribution is the wedge of the horizontal parts, kept on the
    model's bivector blades (the involutive complement of 47 drops l ^ l')."""
    spec = _spec(model)
    a, b = spec.point_mv(p), spec.point_mv(q)
    wedge = outer_product(grade_project(a, 1), grade_project(b, 1)).coeffs
    return spec.point_cls(a + b + 0.5 * Multivector(spec.dim, np.where(spec.off, 0.0, wedge)))


def group_product_36(p: Model36Point, q: Model36Point) -> Model36Point:
    """Group law (x, z) (x', z') = (x + x', z + z' + (1/2) x ^ x')."""
    return _group_product(Model.M36, p, q)


def group_inverse_36(p: Model36Point) -> Model36Point:
    return Model36Point(-p.mv)


def group_product_47(p: Model47Point, q: Model47Point) -> Model47Point:
    """Group law (x, l, y) (x', l', y') = (x + x', l + l', y + y' + (1/2)(x l' - x' l))."""
    return _group_product(Model.M47, p, q)


def group_inverse_47(p: Model47Point) -> Model47Point:
    return Model47Point(-p.mv)


def omega_matrix(model, k1: float, k2: float, k3: float) -> np.ndarray:
    """Skew-symmetric system matrix of the vertical momentum equation
    dh = -Omega h: the matrix of h -> -h . k (left contraction), with k1, k2,
    k3 on the model's bivector blades in ``blades`` order."""
    spec = _spec(model)
    minus_k = spec.mv(np.r_[np.zeros(spec.dim), -k1, -k2, -k3])  # bivectors follow the vectors
    basis = (Multivector.basis_vector(spec.dim, j) for j in range(1, spec.dim + 1))
    return np.column_stack([inner_product(e, minus_k).vector_coords() for e in basis])


# ---------------------------------------------------------------------------
# fiber solutions


def fiber_solution_36(kvec, cvec, t: float) -> np.ndarray:
    """Momentum h(t) solving dh = -Omega h in the eigenspace-adapted basis.

    ``cvec`` holds the three expansion constants against the adapted
    orthonormal basis (v1, v2, v3) with v3 spanning ker(Omega).  For a zero
    curvature vector the momentum is constant and the basis is the standard
    one.
    """
    k1, k2, k3 = (float(v) for v in kvec)
    c1, c2, c3 = (float(v) for v in cvec)
    kk = np.hypot(np.hypot(k1, k2), k3)
    if kk == 0.0:
        return np.array([c1, c2, c3])
    perp = k2 * k2 + k3 * k3
    if perp > 1e-24:
        den = np.sqrt(perp)
        v1 = np.array([-k1 * k3, k1 * k2, perp]) / (kk * den)
        v2 = np.array([-k2, -k3, 0.0]) / den
        v3 = np.array([k3, -k2, k1]) / kk
    else:
        # kernel along e3 up to sign; any orthonormal pair of the
        # complement with Omega v1 = -K v2 serves as (v1, v2)
        v3 = np.array([k3, -k2, k1]) / kk
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = -omega_matrix(Model.M36, k1, k2, k3)[:, 0] / kk
    s, c = np.sin(kk * t), np.cos(kk * t)
    return (c1 * c - c2 * s) * v1 + (c1 * s + c2 * c) * v2 + c3 * v3


def fiber_solution_47(kvec, cvec, t: float) -> np.ndarray:
    """Momentum (h0, hbar)(t) of the 4-dimensional model.

    ``cvec`` holds (C1, C2, C3, C4): the first two drive the oscillation
    between the axis coordinate and the curvature direction, the last two
    weight the kernel combination C3 (-k3, 0, k1) + C4 (-k2, k1, 0), which is
    the constant drift of hbar.  For zero curvature the momentum is the
    constant (C1, C2, C3, C4).
    """
    k1, k2, k3 = (float(v) for v in kvec)
    c1, c2, c3, c4 = (float(v) for v in cvec)
    kk = np.hypot(np.hypot(k1, k2), k3)
    if kk == 0.0:
        return np.array([c1, c2, c3, c4])
    r1 = np.array([k1, k2, k3]) / kk
    drift = c3 * np.array([-k3, 0.0, k1]) + c4 * np.array([-k2, k1, 0.0])
    s, c = np.sin(kk * t), np.cos(kk * t)
    h0 = kk * (c2 * c - c1 * s)
    hbar = kk * (c2 * s + c1 * c) * r1 + drift
    return np.concatenate([[h0], hbar])


# ---------------------------------------------------------------------------
# representative geodesics


@dataclass(frozen=True)
class GeodesicParams36:
    """Constants of a representative geodesic of the 6-dimensional model.

    Arc-length parameterization corresponds to the level set D^2 + C3^2 = 1;
    the level defect is not enforced here because the moduli solver needs to
    evaluate off-level candidates, but every solver output satisfies it.
    K = 0 selects the straight-line branch.
    """

    K: float
    D: float
    C3: float
    t_final: float

    def __post_init__(self):
        if self.K < 0 or self.D < 0:
            raise ValueError("K and D must be non-negative")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")

    @property
    def level(self) -> float:
        return _level_36(self.K, self.D, self.C3)


@dataclass(frozen=True)
class GeodesicParams47:
    """Constants of a representative geodesic of the 7-dimensional model.

    Arc length corresponds to K^2 (C1^2 + C2^2) + C^2 = 1.  K = 0 selects
    the straight-line branch along the drift axis.
    """

    K: float
    C1: float
    C2: float
    C: float
    t_final: float

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("K must be non-negative")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")

    @property
    def level(self) -> float:
        return _level_47(self.K, self.C1, self.C2, self.C)


def _level_36(K, D, C3):
    return D * D + C3 * C3


def _level_47(K, C1, C2, C):
    return K * K * (C1 * C1 + C2 * C2) + C * C


def _geodesic_cols_36(K, D, C3, t) -> tuple:
    """Coefficient columns (x1, x2, x3, z12, z13, z23) of the representative
    curve for K != 0, from scalars or columns; K t, its sine and cosine and
    the prefactors are computed once."""
    kt = K * t
    s, c = np.sin(kt), np.cos(kt)
    dk = D / K
    kk2 = 2.0 * K * K
    h = C3 * D / kk2
    return (
        dk * (1.0 - c),
        dk * s,
        C3 * t,
        -D * D / kk2 * (kt - s),
        h * (kt - 2.0 * s + kt * c),
        h * (2.0 - kt * s - 2.0 * c),
    )


def _geodesic_cols_47(K, C1, C2, C, t) -> tuple:
    """Coefficient columns (x, l1, l2, l3, y12, y13, y14) of the representative
    curve for K != 0, as for the other model."""
    kt = K * t
    s, c = np.sin(kt), np.cos(kt)
    c1kt, c22 = C1 * kt, 2.0 * C2
    zero = kt - kt  # +0.0, scalar or column like the other entries
    return (
        C1 * c + C2 * s - C1,
        C1 * s - C2 * c + C2,
        C * t,
        zero,
        0.5 * (C1 * C1 + C2 * C2) * (kt - s),
        C / (2.0 * K) * ((2.0 * C1 - C2 * kt) * s - (c1kt + c22) * c + c22 - c1kt),
        zero,
    )


def _geodesic_raw_36(K, D, C3, t) -> np.ndarray:
    """Coefficients (x1, x2, x3, z12, z13, z23) of the representative curve;
    columns give one row each (the K = 0 line is taken for scalar K only)."""
    if not isinstance(K, np.ndarray) and K == 0.0:
        return np.array([0.0, D * t, C3 * t, 0.0, 0.0, 0.0])
    return np.array(_geodesic_cols_36(K, D, C3, t)).T


def _geodesic_raw_47(K, C1, C2, C, t) -> np.ndarray:
    """Coefficients (x, l1, l2, l3, y12, y13, y14) of the representative curve;
    scalars or columns as for the other model."""
    if not isinstance(K, np.ndarray) and K == 0.0:
        return np.array([0.0, 0.0, C * t, 0.0, 0.0, 0.0, 0.0])
    return np.array(_geodesic_cols_47(K, C1, C2, C, t)).T


def representative_geodesic_36(params: GeodesicParams36, t: float) -> Model36Point:
    """Closed-form moduli representative at time t, starting from the origin."""
    return Model36Point(_SPECS[Model.M36].mv(_geodesic_raw_36(params.K, params.D, params.C3, t)))


def representative_geodesic_47(params: GeodesicParams47, t: float) -> Model47Point:
    raw = _geodesic_raw_47(params.K, params.C1, params.C2, params.C, t)
    return Model47Point(_SPECS[Model.M47].mv(raw))


# ---------------------------------------------------------------------------
# invariants


@dataclass(frozen=True)
class Invariants36:
    """Moduli coordinates of a 6-dimensional model point."""

    xx: float
    zz: float
    xz_star: float

    def as_tuple(self):
        return (self.xx, self.zz, self.xz_star)


@dataclass(frozen=True)
class Invariants47:
    """Moduli coordinates of a 7-dimensional model point."""

    x: float
    ll: float
    ly_e1: float
    yy: float

    def as_tuple(self):
        return (self.x, self.ll, self.ly_e1, self.yy)


_I3 = pseudoscalar(3)
_E1 = Multivector.basis_vector(4, 1)


def _ga_invariants_36(mv: Multivector, ga) -> tuple:
    """(x.x, z.z, (x^z)*) of a dense G_3 element.

    ``ga`` is the module whose algebra names the formula calls: each caller
    hands over its own, so a wrapper on a module's names (the benchmark's
    tracer) counts the calls in the layer that makes them.
    """
    x = ga.grade_project(mv, 1)
    z = ga.grade_project(mv, 2)
    return (
        ga.inner_product(x, x).scalar_part,
        ga.inner_product(z, z).scalar_part,
        ga.geometric_product(ga.outer_product(x, z), _I3).scalar_part,
    )


def _ga_invariants_47(mv: Multivector, ga) -> tuple:
    """(x, l.l, (l.y) e1, y.y) of a dense G_4 element; ``ga`` as above."""
    g1 = ga.grade_project(mv, 1)
    xc = g1.coeff(_E1_4)
    lvec = g1 - Multivector.blade(4, _E1_4, xc)
    y = ga.grade_project(mv, 2)
    return (
        xc,
        ga.inner_product(lvec, lvec).scalar_part,
        ga.geometric_product(ga.inner_product(lvec, y), _E1).scalar_part,
        ga.inner_product(y, y).scalar_part,
    )


def _invariant_cols_36(cols, out: np.ndarray) -> None:
    """``_ga_invariants_36`` of raw coefficient columns, written into the first
    three columns of ``out``: each sum runs in the order the algebra kernel
    accumulates it, so the values agree bit for bit."""
    x1, x2, x3, z12, z13, z23 = cols
    out[:, 0] = x1 * x1 + x2 * x2 + x3 * x3
    out[:, 1] = -(z12 * z12 + z13 * z13 + z23 * z23)
    out[:, 2] = -(x1 * z23 - x2 * z13 + x3 * z12)


def _invariant_cols_47(cols, out: np.ndarray) -> None:
    """Closed forms of ``_ga_invariants_47`` on raw coefficient columns, written
    into the first four columns of ``out``."""
    x, l1, l2, l3, y12, y13, y14 = cols
    out[:, 0] = x
    out[:, 1] = l1 * l1 + l2 * l2 + l3 * l3
    out[:, 2] = -(l1 * y12 + l2 * y13 + l3 * y14)
    out[:, 3] = -(y12 * y12 + y13 * y13 + y14 * y14)


def invariants_36(point) -> Invariants36:
    """Rotation invariants (x.x, z.z, (x^z)*), evaluated by algebra operations."""
    return invariants(Model.M36, point)


def invariants_47(point) -> Invariants47:
    """Invariants (x, l.l, (l.y) e1, y.y) of the symmetry action fixing e1."""
    return invariants(Model.M47, point)


def invariants(model, point):
    """Invariants of a point of the model, or of a bare multivector."""
    spec = _spec(model)
    mv = point if isinstance(point, Multivector) else spec.point_mv(point)
    return spec.invariants_cls(*spec.ga_invariants(mv, _GA))


# ---------------------------------------------------------------------------
# symmetry action


def so3_action(model, rotor: Rotor, point, tol: float = 1e-9):
    """Apply the rotation symmetry to a group element by conjugation; a rotor
    moving ``spec.fixed_axes`` (e1 for 47, whose symmetry rotates only the
    involutive complement) raises RotorDomain."""
    spec = _spec(model)
    mv = spec.point_mv(point)
    for name in spec.fixed_axes:
        axis = Multivector.blade(spec.dim, name)
        if float(np.max(np.abs(sandwich(rotor, axis).coeffs - axis.coeffs))) > tol:
            raise RotorDomain(f"rotor moves {name}; the model symmetry fixes it")
    return spec.point_cls(sandwich(rotor, mv))


def flag_margin(model, point) -> float:
    """Distance of a point from the locus where its flag degenerates, between
    0 and 1: the sine of the angle between the two flag vectors (x and z's
    dual vector for 36, l and y for 47), for 47 the smaller of it and the
    |cosine|.  It is 0 when either vector has a norm below 1e-6; a point of
    the other model raises ValueError."""
    spec = _spec(model)
    a, b = spec.flag_vectors(spec.point_mv(point).coeffs[spec.index])
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-6 or nb < 1e-6:
        return 0.0
    a, b = a / na, b / nb
    cross = float(np.linalg.norm(np.cross(a, b)))
    return min(abs(float(a @ b)), cross) if spec.fixed_axes else cross


# ---------------------------------------------------------------------------
# printed closed-form invariants (audit surface)


def invariant_closed_forms(model, params, t: float):
    """Closed-form invariant expressions as printed in the source material.

    Kept verbatim for auditing against the algebra-evaluated invariants;
    several terms are suspected transcription artifacts and the algebra path
    is canonical.  See the printed-formula audit in the test suite.
    """
    model = _as_model(model)
    _spec(model).check_params(params)
    if model is Model.M36:
        K, D, C3 = params.K, params.D, params.C3
        s, c = np.sin(K * t), np.cos(K * t)
        xx = -2.0 * D * D / (K * K) * (c - 1.0) + C3 * C3 * t * t
        zz = (
            -(D * D)
            / (4.0 * K**4)
            * (
                (4.0 * C3 * C3 * K * K - 4.0 * C3 * C3 - D * D) * c * c
                + 2.0 * K * C3 * C3 * (2.0 * t * (K - 1.0) * s + t * t * K - 4.0) * c
                - 2.0 * K * t * (4.0 * C3 * C3 + D * D) * s
                + t * t * (2.0 * C3 * C3 + D * D) * K * K
                + D * D
                + 8.0 * C3 * C3
            )
        )
        xzs = (
            D
            * D
            * C3
            / (2.0 * K**3)
            * (
                (-2.0 * K + 2.0) * c * c
                + (2.0 * K + 2.0) * c
                + K * K * t * t
                + K * t * s
                - 4.0
            )
        )
        return (xx, zz, xzs)
    K, C1, C2, C = params.K, params.C1, params.C2, params.C
    s, c = np.sin(K * t), np.cos(K * t)
    kt = K * t
    x = C1 * (c - 1.0) + C2 * s
    ll = (C1 * s + C2 * (1.0 - c)) ** 2 + (C * t) ** 2
    bracket = C1 * (2.0 * s - kt * c - kt) + C2 * (2.0 - 2.0 * c - kt * s)
    lye1 = 0.5 * (
        (C1 * C1 + C2 * C2) * (C1 * s + C2 * (1.0 - c)) * (kt - c)
        + C * C / K * t * bracket
    )
    yy = 0.25 * (
        (C1 * C1 + C2 * C2) ** 2 * (kt - c) ** 2 + C * C / (K * K) * bracket**2
    )
    return (x, ll, lye1, yy)


# ---------------------------------------------------------------------------
# per-model specs: what the solver, the pipeline and the CLI read


def _starts_36(k0, t0, raw):
    theta = 0.1 + raw[:, 2] * (np.pi - 0.2)
    return np.column_stack([k0, np.sin(theta), np.cos(theta), t0])


def _starts_47(k0, t0, raw):
    alpha = 0.1 + raw[:, 2] * (np.pi - 0.2)
    psi = raw[:, 3] * 2.0 * np.pi
    r = np.sin(alpha) / k0
    return np.column_stack([k0, r * np.cos(psi), r * np.sin(psi), np.cos(alpha), t0])


# A Carnot dilation K -> K/l, t -> l t scales the (3,6) invariants by
# (l^2, l^4, l^3): a root is fixed by its winding w = K t and its angle theta
# (D = sin theta, C3 = cos theta), and its arrival time is sqrt(a) / sqrt(I0)
# of its unit-time curve.  Below w = 0.05 the z-columns cancel digits that
# the forward check, evaluating the same closed forms, cannot see
_W_MIN = 0.05


def _unit_invariants_36(w, theta) -> np.ndarray:
    """(I0, I1, I2) of the unit-time curves on the grid w x theta."""
    W, T = (a.ravel() for a in np.meshgrid(w, theta, indexing="ij"))
    out = np.empty((len(W), 3))
    _invariant_cols_36(_geodesic_cols_36(W, np.sin(T), np.cos(T), 1.0), out)
    return out.reshape(len(w), len(theta), 3)


@cache
def _seed_table_36() -> tuple:
    """Read-only (g, w_c, theta_c, H_c), built on the first (3,6) solve: the
    scale-free invariants g = (I1 / I0^2, I2 / I0^1.5) on 128 windings in
    [_W_MIN, 4 pi] (a quarter geometric below 0.5) times 64 angles in
    [0, pi], and the cell centres with their H_c = sqrt(I0)."""
    w = np.concatenate([np.geomspace(_W_MIN, 0.5, 32, endpoint=False),
                        np.linspace(0.5, 4.0 * np.pi, 96)])
    theta = np.linspace(0.0, np.pi, 64)
    w_c, theta_c = 0.5 * (w[1:] + w[:-1]), 0.5 * (theta[1:] + theta[:-1])
    with np.errstate(all="ignore"):
        inv = _unit_invariants_36(w, theta)
        g = np.stack([inv[..., 1] / inv[..., 0] ** 2, inv[..., 2] / inv[..., 0] ** 1.5], axis=-1)
        h_c = np.sqrt(_unit_invariants_36(w_c, theta_c)[..., 0])
    for a in (g, w_c, theta_c, h_c):
        a.flags.writeable = False
    return g, w_c, theta_c, h_c


def _seeds_36(target, max_starts: int) -> np.ndarray:
    """Newton starts (K, D, C3, t) for the invariants (a, b, c): at the
    centre of each table cell over whose corners both components of
    g - (b / a^2, c / a^1.5) change sign, in increasing winding, with
    t = sqrt(a) / H_c and K = w_c / t; the first ``max_starts`` finite
    rows.  A straight target (b = c = 0) or one with a <= 0 gets none."""
    a, b, c = target
    if not a > 0.0 or b == c == 0.0:
        return np.empty((0, 4))
    g, w_c, theta_c, h_c = _seed_table_36()
    with np.errstate(all="ignore"):
        above = g > np.array([b / a**2, c / a**1.5])
        corners = np.stack([above[:-1, :-1], above[1:, :-1], above[:-1, 1:], above[1:, 1:]])
        i, j = np.nonzero((corners.any(axis=0) & ~corners.all(axis=0)).all(axis=-1))
        t = np.sqrt(a) / h_c[i, j]
        seeds = np.column_stack([w_c[i] / t, np.sin(theta_c[j]), np.cos(theta_c[j]), t])
    return seeds[np.isfinite(seeds).all(axis=1)][:max_starts]


def _rk4_rhs_36(k, s):
    """Derivatives of the state components (x in e1..e3, z in e12, e13, e23,
    momentum h): dx = h, dz = x ^ h / 2 and dh = -Omega h written out from
    ``omega_matrix``.  Each entry is a float or a numpy column of draws."""
    k1, k2, k3 = k
    x1, x2, x3, _, _, _, h1, h2, h3 = s
    return (
        h1, h2, h3,
        0.5 * (x1 * h2 - x2 * h1), 0.5 * (x1 * h3 - x3 * h1), 0.5 * (x2 * h3 - x3 * h2),
        -k1 * h2 - k2 * h3, k1 * h1 - k3 * h3, k2 * h1 + k3 * h2,
    )


def _rk4_rhs_47(k, s):
    """Derivatives of the state components (x on e1, l on e2..e4, y on e12..e14,
    momentum (h0, hbar)): dx = h0, dl = hbar, dy = (x hbar - h0 l) / 2 and
    dh = -Omega h written out from ``omega_matrix``."""
    k1, k2, k3 = k
    x, l1, l2, l3, _, _, _, h0, h1, h2, h3 = s
    return (
        h0, h1, h2, h3,
        0.5 * (x * h1 - h0 * l1), 0.5 * (x * h2 - h0 * l2), 0.5 * (x * h3 - h0 * l3),
        -k1 * h1 - k2 * h2 - k3 * h3, k1 * h0, k2 * h0, k3 * h0,
    )


def _aligned_fiber_36(params):
    if params.K == 0.0:
        return np.zeros(3), np.array([0.0, params.D, params.C3])
    return np.array([-params.K, 0.0, 0.0]), np.array([0.0, -params.D, -params.C3])


def _aligned_fiber_47(params):
    if params.K == 0.0:
        return np.zeros(3), np.array([0.0, 0.0, params.C, 0.0])
    return (
        np.array([params.K, 0.0, 0.0]),
        np.array([params.C1, params.C2, 0.0, params.C / params.K]),
    )


@dataclass(frozen=True)
class _ModelSpec:
    """What differs between the two models; the rest is derived from it.

    The shared data format is the raw coefficient vector in the model's
    blade order ``blades``, which ``index`` maps onto the dense Multivector:
    the raw geodesics return it and the RK4 state begins with it.  A raw
    parameter vector u holds the params fields in order, so
    ``params_cls(*u)`` builds params and ``u[:-1]`` drops the arrival time.
    """

    blades: tuple  # raw order
    columns: tuple  # classical coordinates: (name, raw position, sign)
    point_cls: type
    params_cls: type
    invariants_cls: type
    geodesic_raw: Callable  # (*u[:-1], t) -> raw vector
    geodesic_cols: Callable  # (*u[:-1], t) columns, K != 0 -> raw coefficient columns
    ga_invariants: Callable  # (dense Multivector, algebra module) -> invariant tuple
    invariant_cols: Callable  # (raw columns, out block) -> ga_invariants bit for bit in out[:, :n_inv]
    level: Callable  # (*u[:-1]) -> arc-length level, 1 on unit-speed curves
    fold_abs: int  # sign fold: (K, u[2]) flip when K < 0, then u[fold_abs] -> |u[fold_abs]|
    t_floor: Callable  # invariants -> lower bound on the arrival time
    start: Callable  # (K column, t column, unit-cube draws) -> (S, d) start rows
    geodesic: Callable  # (params, t) -> point on the representative curve
    fiber: Callable
    rk4_rhs: Callable  # (momenta k, state components) -> their derivatives
    aligned_fiber: Callable  # params -> (kvec, fiber constants)
    collinear: str  # why the flag degenerates where its two vectors are collinear
    fixed_axes: tuple = ()  # basis vectors every symmetry rotor must fix
    # (invariants, max_starts) -> (S, d) starts run before the drawn ones,
    # which run only if these give no root
    seeds: Callable | None = None

    @cached_property
    def index(self) -> np.ndarray:
        return np.array([blade_index(b) for b in self.blades])

    @cached_property
    def dim(self) -> int:
        return int(self.index.max()).bit_length()

    @cached_property
    def param_names(self) -> tuple:
        return tuple(f.name for f in fields(self.params_cls))

    @cached_property
    def invariant_names(self) -> tuple:
        return tuple(f.name for f in fields(self.invariants_cls))

    def point_mv(self, point) -> Multivector:
        """``point.mv``; raises ValueError unless ``point`` is a point of this model."""
        if not isinstance(point, self.point_cls):
            raise ValueError(f"expected a {self.point_cls.__name__}, got {type(point).__name__}")
        return point.mv

    def check_params(self, params):
        """``params``; raises ValueError unless they are params of this model."""
        if not isinstance(params, self.params_cls):
            raise ValueError(f"expected {self.params_cls.__name__}, got {type(params).__name__}")
        return params

    def mv(self, raw) -> Multivector:
        c = np.zeros(1 << self.dim)
        c[self.index] = raw
        return Multivector(self.dim, c)

    @cached_property
    def off(self) -> np.ndarray:
        """Mask of the dense coefficients off the model subspace."""
        mask = np.ones(1 << self.dim, bool)
        mask[self.index] = False
        return mask

    def on_subspace(self, coeffs: np.ndarray) -> np.ndarray:
        """One dense row or a block of rows with its coefficients off the model
        subspace zeroed, or ``coeffs`` itself when they are zero already; raises
        ValueError for rows of another algebra or an off coefficient above 1e-9."""
        if np.shape(coeffs)[-1:] != self.off.shape:
            raise ValueError(f"{self.point_cls.__name__} lives in G_{self.dim}")
        off = coeffs[..., self.off]
        if np.any(np.abs(off) > 1e-9):
            raise ValueError("point leaves the model subspace")
        return np.where(self.off, 0.0, coeffs) if np.any(off) else coeffs

    def coordinates(self, coeffs: np.ndarray) -> list:
        """Classical coordinates of one dense row or a block of rows, in ``columns``
        order; rows off the model subspace raise as in ``on_subspace``."""
        raw = self.on_subspace(coeffs)[..., self.index]
        return [sign * raw[..., pos] for _, pos, sign in self.columns]

    def invariants_raw(self, raw: np.ndarray) -> np.ndarray:
        """``invariant_cols`` on raw rows, (n, len(blades)) -> (n, n_inv)."""
        out = np.empty((len(raw), len(self.invariant_names)))
        self.invariant_cols(raw.T, out)
        return out

    def geodesic_mv(self, u, t) -> Multivector:
        """Representative curve of raw parameters u at time t."""
        return self.mv(self.geodesic_raw(*u[:-1], t))

    @cached_property
    def _flag_axes(self) -> tuple:
        """Raw positions and signs, six each, of the two vectors the flag is
        built from: the classical coordinates after the fixed axes, three
        horizontal (x, or l), then three vertical (z's dual vector, or y)."""
        cols = self.columns[len(self.fixed_axes):]
        return tuple(np.array([c[k] for c in cols]) for k in (1, 2))

    @cached_property
    def _action_blocks(self) -> tuple:
        """Flat indices, in a matrix on raw vectors, of the two 3 x 3 blocks
        that move the flag vectors, and the sign of each block entry."""
        pos, sign = (v.reshape(2, 3) for v in self._flag_axes)
        flat = pos[:, :, None] * len(self.blades) + pos[:, None, :]
        return flat.ravel(), sign[:, :, None] * sign[:, None, :]

    def flag_vectors(self, raw) -> tuple:
        """The two 3-vectors of the flag of a raw coefficient vector."""
        pos, sign = self._flag_axes
        v = raw[pos] * sign
        return v[:3], v[3:]

    def frame(self, raw) -> np.ndarray:
        """Right-handed orthonormal frame, as columns, of the flag of
        ``frame_flag_36/47`` from a raw coefficient vector: the first column
        along the first flag vector, the second in its plane with the other
        (for 36 the plane x ^ z_vec = -(x ^ z I)), the third their cross
        product.  The rotation between the frames of two points aligns their
        flags; the fixed axes need no column, since every symmetry fixes them.
        Raises DegenerateConfiguration, with the same message, where
        ``frame_flag_36/47`` does."""
        a, b = self.flag_vectors(raw)
        na, nb = np.sqrt(a @ a), np.sqrt(b @ b)
        if na <= DEGENERATE_TOL or nb <= DEGENERATE_TOL:
            raise DegenerateConfiguration("point has a vanishing vector or bivector part")
        a, b = a / na, b / nb
        if self.fixed_axes and abs(a @ b) <= DEGENERATE_TOL:  # the norm of l . y, along e1
            raise DegenerateConfiguration("contraction of the vector onto the bivector vanishes")
        c = a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT]
        if np.sqrt(c @ c) <= DEGENERATE_TOL:  # |a x b|, the norm of a ^ b
            raise DegenerateConfiguration(self.collinear)
        # near the locus a x b has a relative error of about 1e-16 / |a x b|; a
        # projection off a keeps the frame orthonormal to rounding all the same
        c = c - (c @ a) * a
        c = c / np.sqrt(c @ c)
        return np.column_stack((a, c[_NEXT] * a[_PREV] - c[_PREV] * a[_NEXT], c))

    def action(self, q) -> np.ndarray:
        """Matrix on raw vectors of the rotation q of the frames: both flag
        vectors go by q, and the fixed axes stay."""
        flat, signs = self._action_blocks
        a = np.eye(len(self.blades))
        a.flat[flat] = q * signs
        return a


_SPECS = {
    Model.M36: _ModelSpec(
        blades=("e1", "e2", "e3", "e12", "e13", "e23"),
        columns=(
            ("x1", 0, 1.0), ("x2", 1, 1.0), ("x3", 2, 1.0),
            ("z1", 5, 1.0), ("z2", 4, -1.0), ("z3", 3, 1.0),
        ),
        point_cls=Model36Point,
        params_cls=GeodesicParams36,
        invariants_cls=Invariants36,
        geodesic_raw=_geodesic_raw_36,
        geodesic_cols=_geodesic_cols_36,
        ga_invariants=_ga_invariants_36,
        invariant_cols=_invariant_cols_36,
        level=_level_36,
        fold_abs=1,
        t_floor=lambda inv: np.sqrt(max(inv[0], 0.0)),
        start=_starts_36,
        geodesic=representative_geodesic_36,
        fiber=fiber_solution_36,
        rk4_rhs=_rk4_rhs_36,
        aligned_fiber=_aligned_fiber_36,
        collinear="vector part is parallel to the bivector normal",
        seeds=_seeds_36,
    ),
    Model.M47: _ModelSpec(
        blades=("e1", "e2", "e3", "e4", "e12", "e13", "e14"),
        columns=(
            ("x", 0, 1.0), ("l1", 1, 1.0), ("l2", 2, 1.0), ("l3", 3, 1.0),
            ("y1", 4, 1.0), ("y2", 5, 1.0), ("y3", 6, 1.0),
        ),
        point_cls=Model47Point,
        params_cls=GeodesicParams47,
        invariants_cls=Invariants47,
        geodesic_raw=_geodesic_raw_47,
        geodesic_cols=_geodesic_cols_47,
        ga_invariants=_ga_invariants_47,
        invariant_cols=_invariant_cols_47,
        level=_level_47,
        fold_abs=3,
        t_floor=lambda inv: np.sqrt(max(inv[0] ** 2 + inv[1], 0.0)),
        start=_starts_47,
        geodesic=representative_geodesic_47,
        fiber=fiber_solution_47,
        rk4_rhs=_rk4_rhs_47,
        aligned_fiber=_aligned_fiber_47,
        collinear="bivector is dependent on the vector direction",
        fixed_axes=(_E1_4,),
    ),
}


def _spec(model) -> _ModelSpec:
    return _SPECS[_as_model(model)]
