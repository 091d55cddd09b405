"""End-to-end steering pipeline: invariants, moduli solve, rotor alignment.

Steering a target point q_t from the origin proceeds in five steps:
compute the rotation invariants of q_t; solve the moduli system for
representative-geodesic constants and an arrival time; evaluate the
representative endpoint q_o, which shares the invariants of q_t; align the
flags attached to q_o and q_t by a rotor R; and push the whole
representative curve through R.  The resulting trajectory runs from the
origin to q_t with the final point matching up to solver tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from numbers import Real

import numpy as np

from .errors import InfeasibleTarget
from .flags import align_flags, frame_flag_36, frame_flag_47
from .ga import Multivector, Rotor, blade_index, sandwich
from .models import Model, _as_model, _spec, invariants
from .models import representative_geodesic_36, representative_geodesic_47
from .solver import SolveRequest, solve


@dataclass
class SteerOptions:
    """Knobs of the steering pipeline; defaults match the solver defaults."""

    k_max: float = 10.0
    t_max: float = 20.0
    tolerance: float = 1e-9
    max_starts: int = 64
    seed: int = 0
    samples: int = 200
    acceptance_bound: float = 5e-2
    early_stop: int | None = None

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("at least two trajectory samples are required")


@dataclass
class SteerReport:
    """Everything the pipeline produced, sufficient to re-verify offline."""

    model: Model
    target: Multivector
    invariants: tuple
    params: object
    residual_norm: float
    rotor: Rotor
    times: np.ndarray
    points: list
    endpoint: Multivector
    endpoint_error: float
    acceptance_bound: float
    diagnostics: dict = field(default_factory=dict)


def point_from_blade_map(model, data: dict) -> Multivector:
    """Build a model point from a blade-keyed coefficient map.

    Keys are blade names ("e1", "e12", ...); only blades inside the model
    subspace are accepted, which keeps the embedding unambiguous.
    """
    model = _as_model(model)
    spec = _spec(model)
    c = np.zeros(1 << spec.dim)
    for key, value in data.items():
        if key not in spec.blades:
            raise ValueError(
                f"blade {key!r} is not part of model {model.value}; "
                f"allowed: {', '.join(spec.blades)}"
            )
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"coefficient of {key!r} must be a real number, got {value!r}")
        c[blade_index(key)] = float(value)
    return Multivector(spec.dim, c)


def point_to_blade_map(model, mv: Multivector) -> dict:
    spec = _spec(model)
    return {key: float(v) for key, v in zip(spec.blades, mv.coeffs[spec.index])}


def coordinate_row(model, mv: Multivector) -> list:
    """Classical coordinates of a point, in the conventional order."""
    spec = _spec(model)
    return spec.coordinates(spec.point_cls(mv).mv)


def coordinate_columns(model) -> tuple:
    return tuple(name for name, _, _ in _spec(model).columns)


def _bound(fn):
    """This module's binding of the per-model function ``fn``: the flag builders
    and representative curves are called through the names imported here, so a
    wrapper on one of them (the benchmark's traced run) sees every call."""
    return globals()[fn.__name__]


def compute_invariants(model, mv: Multivector) -> tuple:
    return invariants(model, _spec(model).point_cls(mv)).as_tuple()


def steer(model, target: Multivector, options: SteerOptions | None = None) -> SteerReport:
    """Run the full pipeline for one target point.

    Raises InfeasibleTarget when the moduli solve fails or the endpoint
    misses the acceptance bound, and DegenerateConfiguration when the
    target does not define a usable flag (remedy: perturb the target).
    """
    model = _as_model(model)
    spec = _spec(model)
    opts = options or SteerOptions()
    inv = invariants(model, spec.point_cls(target)).as_tuple()

    req = SolveRequest(
        model=model,
        target=inv,
        k_max=opts.k_max,
        t_max=opts.t_max,
        tolerance=opts.tolerance,
        max_starts=opts.max_starts,
        seed=opts.seed,
        early_stop=opts.early_stop,
    )
    result = solve(req)
    if not result.solutions:
        raise InfeasibleTarget(
            "all converged roots fell outside the bounds or tolerance"
        )
    chosen = result.solutions[0]  # minimal arrival time
    params = chosen.params

    # flag degeneracy is an invariant condition, so the representative is
    # degenerate exactly when the target is; no fallback root would help
    flag, geodesic = _bound(spec.flag), _bound(spec.geodesic)
    origin_end = geodesic(params, params.t_final)
    rotor = align_flags(flag(origin_end.mv), flag(target))

    times = np.linspace(0.0, params.t_final, opts.samples)
    points = [sandwich(rotor, geodesic(params, t).mv) for t in times]
    endpoint = points[-1]
    err = float(np.max(np.abs(endpoint.coeffs - target.coeffs)))
    if err > opts.acceptance_bound:
        raise InfeasibleTarget(
            f"steered endpoint misses the target by {err:.3e}, "
            f"beyond the acceptance bound {opts.acceptance_bound:.3e}"
        )
    return SteerReport(
        model=model,
        target=target,
        invariants=inv,
        params=params,
        residual_norm=chosen.residual_norm,
        rotor=rotor,
        times=times,
        points=points,
        endpoint=endpoint,
        endpoint_error=err,
        acceptance_bound=opts.acceptance_bound,
        diagnostics={
            "starts_attempted": result.starts_attempted,
            "converged": result.converged,
            "roots": len(result.solutions),
            "seed": opts.seed,
            "tolerance": opts.tolerance,
        },
    )


# ---------------------------------------------------------------------------
# report serialization and verification


def report_to_dict(report: SteerReport) -> dict:
    model = report.model
    traj = {"t": [float(t) for t in report.times]}
    columns = coordinate_columns(model)
    for name in columns:
        traj[name] = []
    for mv in report.points:
        for name, value in zip(columns, coordinate_row(model, mv)):
            traj[name].append(float(value))
    return {
        "model": model.value,
        "target": point_to_blade_map(model, report.target),
        "invariants": [float(v) for v in report.invariants],
        "params": asdict(report.params),
        "residual_norm": float(report.residual_norm),
        "rotor": [float(v) for v in report.rotor.coeffs],
        "trajectory": traj,
        "endpoint": point_to_blade_map(model, report.endpoint),
        "endpoint_error": float(report.endpoint_error),
        "acceptance_bound": float(report.acceptance_bound),
        "diagnostics": dict(report.diagnostics),
    }


def verify_report(data: dict) -> tuple[bool, list[str]]:
    """Re-evaluate a serialized report and check its claims.

    Returns (all_passed, per-check lines).  Checks: rotor unitality, the
    arc-length level condition of the solved constants, the invariant match
    between the stored tuple and the stored target, and the endpoint error
    recomputed from scratch against the acceptance bound.
    """
    lines = []
    ok_all = True

    def check(name: str, ok: bool, detail: str):
        nonlocal ok_all
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        ok_all = ok_all and ok

    model = _as_model(data["model"])
    spec = _spec(model)
    target = point_from_blade_map(model, data["target"])
    params = spec.params_cls(*(data["params"][name] for name in spec.param_names))
    bound = float(data["acceptance_bound"])

    rotor_mv = Multivector(spec.dim, np.asarray(data["rotor"], float))
    try:
        rotor = Rotor(rotor_mv, tol=1e-8)
        check("rotor-unitality", True, "R ~R = 1 within 1e-8")
    except ValueError as exc:
        rotor = None
        check("rotor-unitality", False, str(exc))

    level = params.level
    check("level-condition", abs(level - 1.0) <= 1e-6, f"|level - 1| = {abs(level - 1.0):.3e}")

    stored_inv = np.asarray(data["invariants"], float)
    actual_inv = np.asarray(compute_invariants(model, target), float)
    inv_gap = float(np.max(np.abs(stored_inv - actual_inv)))
    check("invariant-match", inv_gap <= 1e-8, f"max gap {inv_gap:.3e}")

    if rotor is not None:
        end = sandwich(rotor, _bound(spec.geodesic)(params, params.t_final).mv)
        err = float(np.max(np.abs(end.coeffs - target.coeffs)))
        check("endpoint-error", err <= bound, f"{err:.3e} vs bound {bound:.3e}")
    else:
        check("endpoint-error", False, "skipped: invalid rotor")

    return ok_all, lines
