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
from functools import cached_property

import numpy as np

from .errors import RotorDomain
from .flags import frame_flag_36, frame_flag_47
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
class Model36Point:
    """Group element of the 6-dimensional model, stored as q = x + z in G_3."""

    mv: Multivector

    def __post_init__(self):
        if self.mv.dim != 3:
            raise ValueError("Model36Point lives in G_3")
        junk = abs(self.mv.coeffs[0]) + abs(self.mv.coeffs[7])
        if junk > 1e-9:
            raise ValueError("point has scalar or pseudoscalar contamination")
        if junk != 0.0:
            cleaned = self.mv.coeffs.copy()
            cleaned[0] = 0.0
            cleaned[7] = 0.0
            object.__setattr__(self, "mv", Multivector(3, cleaned))

    @classmethod
    def origin(cls) -> "Model36Point":
        return cls(Multivector.zero(3))

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
        return np.array(_SPECS[Model.M36].coordinates(self.mv)[3:])


@dataclass(frozen=True)
class Model47Point:
    """Group element of the 7-dimensional model, stored in G_4 as
    q = x e1 + l + y with l in span(e2,e3,e4) and y in e1 ^ span(e2,e3,e4)."""

    mv: Multivector

    def __post_init__(self):
        if self.mv.dim != 4:
            raise ValueError("Model47Point lives in G_4")
        c = self.mv.coeffs
        bad = [0, 6, 10, 12, 7, 11, 13, 14, 15]  # scalar, e23,e24,e34, grades 3-4
        junk = float(np.max(np.abs(c[bad])))
        if junk > 1e-9:
            raise ValueError("point leaves the model subspace of G_4")
        if junk != 0.0:
            cleaned = c.copy()
            cleaned[bad] = 0.0
            object.__setattr__(self, "mv", Multivector(4, cleaned))

    @classmethod
    def origin(cls) -> "Model47Point":
        return cls(Multivector.zero(4))

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


def group_product_36(p: Model36Point, q: Model36Point) -> Model36Point:
    """Group law (x, z) (x', z') = (x + x', z + z' + (1/2) x ^ x')."""
    xp = grade_project(p.mv, 1)
    xq = grade_project(q.mv, 1)
    z = grade_project(p.mv, 2) + grade_project(q.mv, 2) + 0.5 * outer_product(xp, xq)
    return Model36Point(xp + xq + z)


def group_inverse_36(p: Model36Point) -> Model36Point:
    return Model36Point(-p.mv)


def group_product_47(p: Model47Point, q: Model47Point) -> Model47Point:
    """Group law (x, l, y) (x', l', y') = (x + x', l + l', y + y' + (1/2)(x l' - x' l)).

    The vertical correction comes from the bracket [x Y_0 + l, x' Y_0 + l']
    of the distribution split, matching the left-invariant fields of the
    model; the y coordinates are the e1 ^ e_{i+1} coefficients.
    """
    e1 = Multivector.basis_vector(4, 1)
    lp = Multivector.from_vector(4, np.concatenate([[0.0], p.l_coords]))
    lq = Multivector.from_vector(4, np.concatenate([[0.0], q.l_coords]))
    y = (
        grade_project(p.mv, 2)
        + grade_project(q.mv, 2)
        + 0.5 * (outer_product(e1 * p.x, lq) - outer_product(e1 * q.x, lp))
    )
    x = p.x + q.x
    return Model47Point(Multivector.blade(4, "e1", x) + lp + lq + y)


def group_inverse_47(p: Model47Point) -> Model47Point:
    return Model47Point(-p.mv)


def omega_matrix(model, k1: float, k2: float, k3: float) -> np.ndarray:
    """Skew-symmetric system matrix of the vertical momentum equation."""
    model = _as_model(model)
    if model is Model.M36:
        return np.array([[0.0, k1, k2], [-k1, 0.0, k3], [-k2, -k3, 0.0]])
    return np.array(
        [
            [0.0, k1, k2, k3],
            [-k1, 0.0, 0.0, 0.0],
            [-k2, 0.0, 0.0, 0.0],
            [-k3, 0.0, 0.0, 0.0],
        ]
    )


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
        omega = omega_matrix(Model.M36, k1, k2, k3)
        v2 = -(omega @ v1) / kk
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


def _geodesic_raw_36(K: float, D: float, C3: float, t: float) -> np.ndarray:
    """Coefficients (x1, x2, x3, z12, z13, z23) of the representative curve."""
    if K == 0.0:
        return np.array([0.0, D * t, C3 * t, 0.0, 0.0, 0.0])
    s, c = np.sin(K * t), np.cos(K * t)
    kt = K * t
    return np.array(
        [
            D / K * (1.0 - c),
            D / K * s,
            C3 * t,
            -D * D / (2.0 * K * K) * (kt - s),
            C3 * D / (2.0 * K * K) * (kt - 2.0 * s + kt * c),
            C3 * D / (2.0 * K * K) * (2.0 - kt * s - 2.0 * c),
        ]
    )


def _geodesic_raw_47(K: float, C1: float, C2: float, C: float, t: float) -> np.ndarray:
    """Coefficients (x, l1, l2, l3, y12, y13, y14) of the representative curve."""
    if K == 0.0:
        return np.array([0.0, 0.0, C * t, 0.0, 0.0, 0.0, 0.0])
    s, c = np.sin(K * t), np.cos(K * t)
    kt = K * t
    return np.array(
        [
            C1 * c + C2 * s - C1,
            C1 * s - C2 * c + C2,
            C * t,
            0.0,
            0.5 * (C1 * C1 + C2 * C2) * (kt - s),
            C
            / (2.0 * K)
            * ((2.0 * C1 - C2 * kt) * s - (C1 * kt + 2.0 * C2) * c + 2.0 * C2 - C1 * kt),
            0.0,
        ]
    )


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


def invariants_36(point) -> Invariants36:
    """Rotation invariants (x.x, z.z, (x^z)*), evaluated by algebra operations."""
    return invariants(Model.M36, point)


def invariants_47(point) -> Invariants47:
    """Invariants (x, l.l, (l.y) e1, y.y) of the symmetry action fixing e1."""
    return invariants(Model.M47, point)


def invariants(model, point):
    spec = _spec(model)
    mv = point.mv if isinstance(point, spec.point_cls) else point
    return spec.invariants_cls(*spec.ga_invariants(mv, _GA))


# ---------------------------------------------------------------------------
# symmetry action


def so3_action(model, rotor: Rotor, point, tol: float = 1e-9):
    """Apply the rotation symmetry to a group element.

    For the 6-dimensional model the rotor acts on both grade parts by
    conjugation.  For the 7-dimensional model the rotor must fix e1 (the
    symmetry only rotates the involutive complement); a rotor moving e1
    raises RotorDomain.
    """
    model = _as_model(model)
    if model is Model.M36:
        if point.mv.dim != 3:
            raise ValueError("model/point mismatch")
        return Model36Point(sandwich(rotor, point.mv))
    e1 = Multivector.basis_vector(4, 1)
    moved = sandwich(rotor, e1)
    if float(np.max(np.abs(moved.coeffs - e1.coeffs))) > tol:
        raise RotorDomain("rotor moves e1; the model symmetry fixes the first axis")
    return Model47Point(sandwich(rotor, point.mv))


# ---------------------------------------------------------------------------
# printed closed-form invariants (audit surface)


def invariant_closed_forms(model, params, t: float):
    """Closed-form invariant expressions as printed in the source material.

    Kept verbatim for auditing against the algebra-evaluated invariants;
    several terms are suspected transcription artifacts and the algebra path
    is canonical.  See the printed-formula audit in the test suite.
    """
    model = _as_model(model)
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
    return [np.array([k, np.sin(th), np.cos(th), t]) for k, t, th in zip(k0, t0, theta)]


def _starts_47(k0, t0, raw):
    alpha = 0.1 + raw[:, 2] * (np.pi - 0.2)
    psi = raw[:, 3] * 2.0 * np.pi
    out = []
    for k, t, al, ps in zip(k0, t0, alpha, psi):
        r = np.sin(al) / k
        out.append(np.array([k, r * np.cos(ps), r * np.sin(ps), np.cos(al), t]))
    return out


def _rk4_rhs_36(s, omega):
    x = s[0:3]
    h = s[6:9]
    dz = 0.5 * np.array(
        [x[0] * h[1] - x[1] * h[0], x[0] * h[2] - x[2] * h[0], x[1] * h[2] - x[2] * h[1]]
    )
    return np.concatenate([h, dz, -omega @ h])


def _rk4_rhs_47(s, omega):
    x = s[0]
    l = s[1:4]
    h = s[7:11]
    dy = 0.5 * (x * h[1:4] - h[0] * l)
    return np.concatenate([[h[0]], h[1:4], dy, -omega @ h])


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
    ga_invariants: Callable  # (dense Multivector, algebra module) -> invariant tuple
    level: Callable  # (*u[:-1]) -> arc-length level, 1 on unit-speed curves
    fold_abs: int  # sign fold: (K, u[2]) flip when K < 0, then u[fold_abs] -> |u[fold_abs]|
    t_floor: Callable  # invariants -> lower bound on the arrival time
    start: Callable  # (K column, t column, unit-cube draws) -> start vectors
    flag: Callable  # dense Multivector -> flag
    geodesic: Callable  # (params, t) -> point on the representative curve
    fiber: Callable
    rk4_rhs: Callable  # (state, omega) -> d state / dt
    aligned_fiber: Callable  # params -> (kvec, fiber constants)

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

    def mv(self, raw) -> Multivector:
        c = np.zeros(1 << self.dim)
        c[self.index] = raw
        return Multivector(self.dim, c)

    def coordinates(self, mv: Multivector) -> list:
        """Classical coordinates of a dense element, in ``columns`` order."""
        raw = mv.coeffs[self.index]
        return [sign * raw[pos] for _, pos, sign in self.columns]

    def geodesic_mv(self, u, t) -> Multivector:
        """Representative curve of raw parameters u at time t."""
        return self.mv(self.geodesic_raw(*u[:-1], t))


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
        ga_invariants=_ga_invariants_36,
        level=_level_36,
        fold_abs=1,
        t_floor=lambda inv: np.sqrt(max(inv[0], 0.0)),
        start=_starts_36,
        flag=frame_flag_36,
        geodesic=representative_geodesic_36,
        fiber=fiber_solution_36,
        rk4_rhs=_rk4_rhs_36,
        aligned_fiber=_aligned_fiber_36,
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
        ga_invariants=_ga_invariants_47,
        level=_level_47,
        fold_abs=3,
        t_floor=lambda inv: np.sqrt(max(inv[0] ** 2 + inv[1], 0.0)),
        start=_starts_47,
        flag=frame_flag_47,
        geodesic=representative_geodesic_47,
        fiber=fiber_solution_47,
        rk4_rhs=_rk4_rhs_47,
        aligned_fiber=_aligned_fiber_47,
    ),
}


def _spec(model) -> _ModelSpec:
    return _SPECS[_as_model(model)]
