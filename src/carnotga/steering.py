"""End-to-end steering pipeline: invariants, moduli solve, rotor alignment.

Steering a target point q_t from the origin proceeds in five steps:
compute the rotation invariants of q_t; solve the moduli system for
representative-geodesic constants and an arrival time; evaluate the
representative endpoint q_o, which shares the invariants of q_t; align the
flags attached to q_o and q_t by a rotor R; and push the whole
representative curve through R.  The resulting trajectory runs from the
origin to q_t with the final point matching up to solver tolerance.

The alignment reads the flags' orthonormal frames (``spec.frame`` of the
model's ``_ModelSpec``) off the raw coefficients: the rotation Q taking the
frame of q_o onto that of q_t pushes the curve forward as one block matrix
on raw coefficients (``spec.action``), and R is ``Rotor.from_matrix`` of
it.  The paper's flag walk, ``flags.align_flags`` on the flags of q_o and
q_t, gives a rotor of the same action and is the reference the tests
compare R against.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, astuple, dataclass, field
from numbers import Real

import numpy as np

from .errors import InfeasibleTarget
# the paper's flag walk, the reference of the frame-built rotor in the tests;
# its names stay bound here, where tracing wraps this module's calls
from .flags import align_flags, frame_flag_36, frame_flag_47  # noqa: F401
from .ga import Multivector, Rotor, blade_index, sandwich
from .models import Model, _as_model, _spec, invariants
from .models import representative_geodesic_36, representative_geodesic_47
from .solver import SolveOptions, _require_integer, solve


@dataclass(kw_only=True)
class SteerOptions(SolveOptions):
    """Knobs of the steering pipeline: the solve options plus the trajectory
    sample count and the acceptance bound on the endpoint error."""

    samples: int = 200
    acceptance_bound: float = 5e-2

    def __post_init__(self):
        _require_integer("samples", self.samples)
        if self.samples < 2:
            raise ValueError("at least two trajectory samples are required")
        if not self.acceptance_bound > 0:
            raise ValueError("acceptance bound must be positive")
        super().__post_init__()


@dataclass
class SteerReport:
    """Everything the pipeline produced, sufficient to re-verify offline;
    ``coeffs`` holds the trajectory, one dense row per entry of ``times``."""

    model: Model
    target: Multivector
    invariants: tuple
    params: object
    residual_norm: float
    rotor: Rotor
    times: np.ndarray
    coeffs: np.ndarray
    endpoint_error: float
    acceptance_bound: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def points(self) -> list:
        """The trajectory as one Multivector per sample."""
        return [Multivector(self.target.dim, row) for row in self.coeffs]

    @property
    def endpoint(self) -> Multivector:
        """The last trajectory row."""
        return Multivector(self.target.dim, self.coeffs[-1])


def point_from_blade_map(model, data: dict) -> Multivector:
    """Build a model point from a blade-keyed coefficient map.

    Keys are blade names ("e1", "e12", ...); only blades inside the model
    subspace are accepted, which keeps the embedding unambiguous.
    """
    model = _as_model(model)
    spec = _spec(model)
    if not isinstance(data, Mapping):
        raise ValueError(f"a point must be a blade-keyed map, got {type(data).__name__}")
    c = np.zeros(1 << spec.dim)
    for key, value in data.items():
        if key not in spec.blades:
            raise ValueError(
                f"blade {key!r} is not part of model {model.value}; "
                f"allowed: {', '.join(spec.blades)}"
            )
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"coefficient of {key!r} must be a real number, got {value!r}")
        try:
            c[blade_index(key)] = float(value)
        except OverflowError:
            raise ValueError(f"coefficient of {key!r} does not fit a float") from None
    return Multivector(spec.dim, c)


def point_to_blade_map(model, mv: Multivector) -> dict:
    spec = _spec(model)
    return {key: float(v) for key, v in zip(spec.blades, mv.coeffs[spec.index])}


def coordinate_columns(model) -> tuple:
    return tuple(name for name, _, _ in _spec(model).columns)


def _bound(fn):
    """This module's binding of the per-model function ``fn``: the
    representative curves are called through the names imported here, so a
    wrapper on one of them (the benchmark's traced run) sees every call."""
    return globals()[fn.__name__]


def compute_invariants(model, mv: Multivector) -> tuple:
    """Rotation invariants of a point; a product that overflows a float
    raises ValueError as a non-finite coefficient, without a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        return invariants(model, _spec(model).point_cls(mv)).as_tuple()


def steer(model, target: Multivector, options: SteerOptions | None = None) -> SteerReport:
    """Run the full pipeline for one target point.

    Raises DegenerateConfiguration when the target does not define a usable
    flag (remedy: perturb the target), before any solve, so a target that is
    both degenerate and unreachable raises it; and InfeasibleTarget when the
    moduli solve accepts no root or the endpoint misses the acceptance bound.
    """
    model = _as_model(model)
    spec = _spec(model)
    opts = options or SteerOptions()
    inv = compute_invariants(model, target)
    # flag degeneracy is an invariant condition, so the representative is
    # degenerate exactly when the target is: the target's frame is built
    # first, and a degenerate target raises without a solve that no root
    # could rescue
    target_frame = spec.frame(target.coeffs[spec.index])

    result = solve(model, inv, opts)
    chosen = result.solutions[0]  # minimal arrival time
    params = chosen.params

    times = np.linspace(0.0, params.t_final, opts.samples)
    raw = spec.geodesic_raw(*astuple(params)[:-1], times)
    # the rotation taking the frame of the representative endpoint onto the
    # target's aligns their flags; its matrix on raw coefficients pushes the
    # whole curve forward in one matmul, and its block on the basis vectors
    # gives the rotor
    action = spec.action(target_frame @ spec.frame(raw[-1]).T)
    coeffs = np.zeros((opts.samples, 1 << spec.dim))
    coeffs[:, spec.index] = raw @ action.T
    rotor = Rotor.from_matrix(action[:spec.dim, :spec.dim])
    err = float(np.max(np.abs(coeffs[-1] - target.coeffs)))
    if not err <= opts.acceptance_bound:  # a NaN error misses too
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
        coeffs=coeffs,
        endpoint_error=err,
        acceptance_bound=opts.acceptance_bound,
        diagnostics={
            "starts_attempted": result.starts_attempted,
            "converged": result.converged,
            "roots": len(result.solutions),
            "residual_rows": result.residual_rows,
            "newton_iterations": result.newton_iterations,
            "start_outcomes": dict(result.start_outcomes),
            "seed": int(opts.seed),
            "tolerance": opts.tolerance,
        },
    )


# ---------------------------------------------------------------------------
# report serialization and verification


def report_to_dict(report: SteerReport) -> dict:
    model = report.model
    traj = {"t": report.times.tolist()}
    for name, col in zip(coordinate_columns(model), _spec(model).coordinates(report.coeffs)):
        traj[name] = col.tolist()
    return {
        "schema_version": 2,  # moves whenever a report key is added, removed or renamed
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
    recomputed from scratch against the acceptance bound.  The report's own
    bound may tighten the default one but never loosen it.
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
    bound = min(float(data["acceptance_bound"]), SteerOptions().acceptance_bound)

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
