"""Numerical inversion of the moduli maps, plus the independent RK4 oracle.

Given target invariants, the solver searches for representative-geodesic
constants and an arrival time whose endpoint invariants match the target
and whose constants sit on the arc-length level set.  The nonlinear system
is square (4 equations for the 6-dimensional model, 5 for the other) and
smooth, so a damped Newton iteration from quasi-random multistart points
over a bounded box is enough; no global solver is used.

The RK4 integrator at the bottom solves the coupled base and momentum
systems directly from the structure constants.  It never enters the solve
loop; it exists to validate the closed forms against an independent route.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .errors import InfeasibleTarget
from .ga import geometric_product, grade_project, inner_product, outer_product
from .models import Model, _as_model, _spec, omega_matrix

_BIG = 1e12
# the invariant formulas of models call the algebra through the module they
# are handed; the solver hands over this one, so the residual's algebra calls
# go through the names imported above
_GA = sys.modules[__name__]


def _residual_raw(spec, u: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Invariant mismatch plus level-set defect at a raw parameter vector."""
    if abs(u[0]) < 1e-10:
        return np.full(len(u), _BIG)
    vals = spec.geodesic_raw(*u)
    if not np.all(np.isfinite(vals)):
        return np.full(len(u), _BIG)
    inv = np.array(spec.ga_invariants(spec.mv(vals), _GA))
    return np.concatenate([inv - target, [spec.level(*u[:-1]) - 1.0]])


def residual(model, params, t: float, target) -> np.ndarray:
    """Public residual: invariant mismatch of the representative geodesic at
    time t against the target, with the level-set defect appended."""
    spec = _spec(model)
    target = np.asarray(target, float)
    u = np.array([getattr(params, name) for name in spec.param_names[:-1]] + [t])
    n = len(spec.invariant_names)
    if target.shape != (n,):
        raise ValueError(f"target for this model has {n} invariants")
    return _residual_raw(spec, u, target)


def _line_search(f, u, fu, step):
    """Halving line search on the residual norm, down to 2^-20."""
    base = np.linalg.norm(fu)
    lam = 1.0
    while lam >= 2.0**-20:
        cand = u + lam * step
        fc = f(cand)
        if np.linalg.norm(fc) < (1.0 - 1e-4 * lam) * base:
            return cand, fc, True
        lam *= 0.5
    return u, fu, False


def _newton(f, u0: np.ndarray, max_iter: int = 50, tol: float = 1e-10):
    """Damped Newton with central-difference Jacobian and halving line search.

    Near folds of the invariant map the Jacobian turns singular and the pure
    Newton direction stalls; a Levenberg-style regularized step is tried
    before giving up on an iteration.
    """
    u = np.asarray(u0, float)
    fu = f(u)
    for _ in range(max_iter):
        if np.max(np.abs(fu)) < tol:
            return u, fu, True
        d = len(u)
        jac = np.empty((d, d))
        for j in range(d):
            h = 1e-7 * max(1.0, abs(u[j]))
            up = u.copy()
            up[j] += h
            um = u.copy()
            um[j] -= h
            jac[:, j] = (f(up) - f(um)) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, -fu)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -fu, rcond=None)
        if not np.all(np.isfinite(step)):
            return u, fu, False
        u, fu, moved = _line_search(f, u, fu, step)
        if not moved:
            jtj = jac.T @ jac
            jtf = jac.T @ fu
            diag = np.diag(np.maximum(np.diag(jtj), 1e-12))
            for mu in (1e-8, 1e-4, 1e-2, 1.0, 1e2):
                try:
                    step = np.linalg.solve(jtj + mu * diag, -jtf)
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(step)):
                    continue
                u, fu, moved = _line_search(f, u, fu, step)
                if moved:
                    break
        if not moved:
            break
    return u, fu, bool(np.max(np.abs(fu)) < tol)


@dataclass
class SolveRequest:
    """Inputs of a moduli solve.

    ``target`` is the invariant tuple of the steering target; bounds confine
    the frequency K to (0, k_max] and the arrival time to (0, t_max].
    ``tolerance`` bounds the forward-checked residual of accepted roots.
    ``early_stop`` optionally ends the multistart scan once that many
    distinct roots were accepted (a speed knob; results stay deterministic).
    """

    model: Model
    target: tuple
    k_max: float = 10.0
    t_max: float = 20.0
    tolerance: float = 1e-9
    max_starts: int = 64
    seed: int = 0
    early_stop: int | None = None
    dedup_radius: float = 1e-6

    def __post_init__(self):
        self.model = _as_model(self.model)
        want = len(_spec(self.model).invariant_names)
        if len(self.target) != want:
            raise ValueError(f"model {self.model.value} takes {want} invariants")
        if self.k_max <= 0 or self.t_max <= 0 or self.tolerance <= 0:
            raise ValueError("bounds and tolerance must be positive")
        if self.max_starts < 1:
            raise ValueError("max_starts must be at least 1")


@dataclass(frozen=True)
class SolveSolution:
    params: object
    residual_norm: float

    @property
    def t_final(self) -> float:
        return self.params.t_final


@dataclass(frozen=True)
class SolveResult:
    solutions: tuple
    starts_attempted: int
    converged: int


def _starts(req: SolveRequest, spec) -> list:
    sampler = qmc.LatinHypercube(d=len(spec.param_names) - 1, seed=req.seed)
    raw = sampler.random(req.max_starts)
    # unit-speed horizontal curves cannot beat the straight line, so the
    # arrival time is at least the horizontal displacement of the target
    t_lo = min(max(0.2, 0.999 * spec.t_floor(req.target)), 0.9 * req.t_max)
    k0 = 0.05 + raw[:, 0] * (req.k_max - 0.05)
    t0 = t_lo + raw[:, 1] * (req.t_max - t_lo)
    return spec.start(k0, t0, raw)


def _canonicalize(spec, u: np.ndarray) -> np.ndarray:
    """Fold the documented sign symmetries to a canonical representative.

    36: D -> |D| (a half-turn about the drift axis gives the same moduli
    curve); a joint flip of (K, C3) likewise.  47: a joint flip of (K, C2),
    and C -> |C| (flipping the drift direction is a rotation of the orbit).
    """
    u = u.copy()
    if u[0] < 0:
        u[0], u[2] = -u[0], -u[2]
    u[spec.fold_abs] = abs(u[spec.fold_abs])
    return u


def _orbit_signature(spec, u: np.ndarray) -> np.ndarray:
    """Invariant curve fingerprint used to identify orbit-equivalent roots."""
    t = u[-1]
    sig = [t]
    for frac in (0.25, 0.5, 0.75, 1.0):
        sig.extend(spec.ga_invariants(spec.geodesic_mv(u, frac * t), _GA))
    return np.array(sig)


def solve(req: SolveRequest) -> SolveResult:
    """Multistart damped Newton over the bounded parameter box.

    Accepted roots are canonicalized, forward-checked against the target
    (independently of the Newton residual), deduplicated both by parameter
    distance and by invariant-curve signature, and sorted by arrival time.
    Raises InfeasibleTarget when no start converges at all.
    """
    spec = _spec(req.model)
    target = np.asarray(req.target, float)

    def f(u):
        return _residual_raw(spec, u, target)

    roots = []
    signatures = []
    converged = 0
    attempted = 0
    for u0 in _starts(req, spec):
        attempted += 1
        u, fu, ok = _newton(f, u0)
        if not ok:
            continue
        converged += 1
        u = _canonicalize(spec, u)
        k, t = u[0], u[-1]
        if not (0.0 < k <= req.k_max and 0.0 < t <= req.t_max):
            continue
        res = f(u)
        rnorm = float(np.max(np.abs(res)))
        if rnorm > req.tolerance:
            continue
        if any(np.max(np.abs(u - r[0])) <= req.dedup_radius for r in roots):
            continue
        sig = _orbit_signature(spec, u)
        scale = max(1.0, float(np.max(np.abs(sig))))
        if any(np.max(np.abs(sig - s)) <= 1e-6 * scale for s in signatures):
            continue
        roots.append((u, rnorm))
        signatures.append(sig)
        if req.early_stop is not None and len(roots) >= req.early_stop:
            break

    if converged == 0:
        raise InfeasibleTarget(
            "no start converged; the target may be outside the sampled "
            "reachable set or the bounds too tight"
        )

    roots.sort(key=lambda r: r[0][-1])
    sols = [
        SolveSolution(params=spec.params_cls(*(float(v) for v in u)), residual_norm=rnorm)
        for u, rnorm in roots
    ]
    return SolveResult(solutions=tuple(sols), starts_attempted=attempted, converged=converged)


# ---------------------------------------------------------------------------
# RK4 oracle


def rk4_endpoint(model, kvec, constants, t_final: float, steps: int):
    """Endpoint of the coupled base and momentum system, integrated by
    classical fixed-step RK4 from the origin.

    ``kvec`` holds the three constant vertical momenta; ``constants`` are
    the fiber expansion constants handed to the fiber solution at t = 0.
    This path never uses the closed-form trigonometric solutions, so it is
    a genuine cross-check for them.
    """
    spec = _spec(model)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    kvec = np.asarray(kvec, float)
    dt = t_final / steps
    omega = omega_matrix(model, *kvec)
    n = len(spec.blades)
    state = np.concatenate([np.zeros(n), spec.fiber(kvec, constants, 0.0)])
    for _ in range(steps):
        k1 = spec.rk4_rhs(state, omega)
        k2 = spec.rk4_rhs(state + 0.5 * dt * k1, omega)
        k3 = spec.rk4_rhs(state + 0.5 * dt * k2, omega)
        k4 = spec.rk4_rhs(state + dt * k3, omega)
        state = state + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return spec.point_cls(spec.mv(state[:n]))


def aligned_fiber_inputs(model, params):
    """Map representative-geodesic constants to the (kvec, constants) pair
    whose momentum solution reproduces the representative exactly.

    For the 6-dimensional model the aligned curvature vector is (-K, 0, 0)
    with constants (0, -D, -C3); for the other it is (K, 0, 0) with
    constants (C1, C2, 0, C/K).  Used by the oracle-equivalence tests.
    """
    return _spec(model).aligned_fiber(params)
