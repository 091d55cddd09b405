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

import contextlib
import functools
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import InfeasibleTarget
from .ga import geometric_product, grade_project, inner_product, outer_product
from .models import _as_model, _spec

_HALVINGS = 0.5 ** np.arange(21)  # line-search step sizes 1 down to 2^-20
_ARMIJO = 1.0 - 1e-4 * _HALVINGS  # the norm fraction each step size must beat
# starts per Newton batch under early_stop; a block screens each start as it
# settles and ends once the roots asked for are accepted.  Two runs of 16
# interleaved in-process passes over the benchmark's 48 round-trip targets
# (steer, early_stop=1, starts in increasing K t) read medians of 189/178 ms
# per pass with 2 starts per block, 175/158 with 4 and 164/158 with 8, where
# 4 and 8 lie within each other's quartiles.  First roots over those targets
# and 298 further forward-generated ones: minimal-time in 35+232 of 48+298
# with 2, 38+238 with 4 and 36+218 with 8, mean t/t_min 1.043/1.041,
# 1.039/1.036 and 1.054/1.039 (2-vCPU VM)
_BLOCK = 4
# a start that has taken the Levenberg fallback stops, not converged, once its
# largest residual entry fell by less than _STALL_DROP over its last
# _STALL_WINDOW iterations.  Without it 21 of the 64 M36 and 52 of the 64 M47
# reference starts ran to the 50-iteration cap (2 and 3 with it), and the
# exhaustive reference solves took 1864 and 2791 iterations (1116 and 1424;
# 1306 and 1681 with a window of 15, which found the same roots to the bit).
# A window of 6 loses a reachable small-K (4,7) target, and 2 or 3 lose
# roots of forward-generated targets.
# Without the fallback condition the rule also stops starts that creep along
# a valley and then converge: on one round-trip target it lost the
# minimal-time root (t 7.7436 -> 7.7586)
_STALL_WINDOW = 8
_STALL_DROP = 0.01
_MAX_ITER = 50  # Newton iterations per start at most
_TOL = 1e-10  # a start converges once its largest residual entry is below this
# starts per Newton batch without early_stop; a batch holds about 5 KB per
# start, so this bounds the memory of a solve with many starts
_BATCH = 1024
# what became of each start: accepted, the filter that rejected it, or not
# screened before an early stop
_OUTCOMES = ("accepted", "not_converged", "out_of_bounds", "over_tolerance", "duplicate",
             "not_scanned")
# the invariant formulas of models call the algebra through the module they are
# handed: the forward check, the solver's only algebra call, hands over this one
_GA = sys.modules[__name__]


def _residual_rows(spec, U: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Invariant mismatch plus level-set defect, one row per raw parameter row,
    from the closed-form invariants (``spec.ga_invariants`` is their reference).
    A row the closed forms cannot evaluate (K = 0, an overflow, a NaN or
    infinite parameter) holds NaN or inf, which ``_newton``'s tests reject.
    The caller sets the numpy error context: overflows are expected here."""
    cols = U.T
    out = np.empty((len(U), len(target) + 1))
    spec.invariant_cols(spec.geodesic_cols(*cols), out)
    out[:, :-1] -= target
    out[:, -1] = spec.level(*cols[:-1]) - 1.0
    return out


def residual(model, params, t: float, target) -> np.ndarray:
    """Public residual: invariant mismatch of the representative geodesic at
    time t against the target, with the level-set defect appended.  It runs
    through the raw curve, so K = 0 gives the straight line's residual;
    otherwise it has the bits of ``_residual_rows``."""
    spec = _spec(model)
    spec.check_params(params)
    target = np.asarray(target, float)
    u = np.array([getattr(params, name) for name in spec.param_names[:-1]] + [t])
    n = len(spec.invariant_names)
    if target.shape != (n,):
        raise ValueError(f"target for this model has {n} invariants")
    with np.errstate(all="ignore"):
        inv = spec.invariants_raw(spec.geodesic_raw(*u)[None])[0]
        return np.append(inv - target, spec.level(*u[:-1]) - 1.0)


def _norms(F: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row along the last axis; matmul sums every row
    as ``np.linalg.norm`` sums a single vector (``axis=`` sums in another order);
    a row too large to square has norm inf (``_newton`` silences the overflow)."""
    return np.sqrt((F[..., None, :] @ F[..., :, None])[..., 0, 0])


def _line_search(f, U, FU, steps):
    """Halving line search on each row's residual norm, down to 2^-20: every
    step size of every row goes to ``f`` in one call, and per row the first
    step size that passes the Armijo test wins.  Returns (U, FU, moved); rows
    that did not move come back unchanged."""
    n, d = U.shape
    cands = U[:, None, :] + _HALVINGS[:, None] * steps[:, None, :]
    fcs = f(cands.reshape(-1, d)).reshape(n, len(_HALVINGS), FU.shape[1])
    passed = _norms(fcs) < _ARMIJO * _norms(FU)[:, None]
    moved = passed.any(axis=1)
    rows = np.flatnonzero(moved)
    first = passed.argmax(axis=1)[rows]
    U, FU = U.copy(), FU.copy()
    U[rows], FU[rows] = cands[rows, first], fcs[rows, first]
    return U, FU, moved


def _solve_rows(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A[i] x = b[i] for every row in one batched call.  A batched solve
    fails as a whole if one matrix is exactly singular; then the singular rows
    are found by a zero ``slogdet`` sign, from the LU factorization the solve
    runs, and the others are solved in one batch.  A singular row gets its
    least-squares solution, or NaN if it holds a non-finite entry, on which
    least squares fails."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    out = np.full_like(b, np.nan)
    with np.errstate(invalid="ignore"):  # rows holding NaN
        singular = np.linalg.slogdet(A)[0] == 0.0
        regular = ~singular
        out[regular] = np.linalg.solve(A[regular], b[regular, :, None])[..., 0]
    for i in np.flatnonzero(singular & np.isfinite(A).all(axis=(1, 2))):
        with contextlib.suppress(np.linalg.LinAlgError):
            out[i] = np.linalg.lstsq(A[i], b[i], rcond=None)[0]
    return out


@np.errstate(all="ignore")  # one error context for the run: overflowed rows stop on NaN steps
def _newton(f, U0: np.ndarray, scan=None):
    """Damped Newton with central-difference Jacobian and halving line search,
    run on a stack of starts ``(S, d)`` at once with per-start active masks.

    ``f`` maps parameter rows (n, d) to residual rows; each iteration hands
    it the 2d-point stencils of all active starts in one call and their line
    searches in one more.  Near folds of the invariant map the Jacobian turns
    singular and the pure Newton direction stalls; a Levenberg-style
    regularized step is tried before a start gives up.  A non-finite step
    fails every Armijo test and stops its start.  A start also stops, as not
    converged, once it has taken the Levenberg fallback and its largest entry
    fell by less than ``_STALL_DROP`` over its last ``_STALL_WINDOW``
    iterations; one that creeps without the fallback runs on (it may converge).
    Starts never mix, so a stack returns the bits its rows return one at a
    time.  Returns (U, f(U), converged, Jacobian evaluations), one entry per
    start.

    ``scan``, if given, is called before each iteration as
    ``scan(U, converged, active)``; the rows no longer active hold their final
    values, and a true return ends the run there.
    """
    U = np.array(U0, float)
    FU = f(U)
    S, d = U.shape
    diag_idx = np.arange(d)
    pm_rows, pm_cols = np.arange(2 * d), np.tile(diag_idx, 2)  # the +h, then the -h entries
    its = np.zeros(S, int)
    active = np.ones(S, bool)
    peak = np.empty((_MAX_ITER, S))  # largest residual entry per iteration and start
    levenberg = np.zeros(S, bool)  # starts that have taken the fallback
    for it in range(_MAX_ITER):
        peak[it] = np.abs(FU).max(axis=1)
        ok = peak[it] < _TOL
        active &= ~ok
        if it >= _STALL_WINDOW and levenberg.any():
            active &= ~(levenberg & (peak[it] > (1.0 - _STALL_DROP) * peak[it - _STALL_WINDOW]))
        if scan is not None and scan(U, ok, active):
            break
        rows = np.flatnonzero(active)
        if not len(rows):
            break
        its[rows] = it + 1
        u, fu = U[rows], FU[rows]
        h = 1e-7 * np.maximum(1.0, np.abs(u))
        stencil = np.repeat(u[:, None, :], 2 * d, axis=1)
        stencil[:, pm_rows, pm_cols] += np.concatenate((h, -h), axis=1)
        fs = f(stencil.reshape(-1, d)).reshape(len(rows), 2 * d, fu.shape[1])
        # row j of the difference is column j of the Jacobian; copied C-contiguous
        # because a transposed view sends jac.T @ jac down another BLAS path; an
        # overflowed residual gives inf - inf, and its NaN steps fail every Armijo test
        jac = np.ascontiguousarray(
            ((fs[:, :d] - fs[:, d:]) / (2.0 * h)[:, :, None]).transpose(0, 2, 1))
        step = _solve_rows(jac, -fu)
        u, fu, moved = _line_search(f, u, fu, step)
        stuck = np.flatnonzero(~moved)
        levenberg[rows[stuck]] = True
        if len(stuck):
            jac = jac[stuck]
            jtj = np.swapaxes(jac, 1, 2) @ jac
            jtf = (np.swapaxes(jac, 1, 2) @ fu[stuck, :, None])[..., 0]
            diag = np.zeros_like(jtj)
            diag[:, diag_idx, diag_idx] = np.maximum(np.diagonal(jtj, axis1=1, axis2=2), 1e-12)
            left = np.ones(len(stuck), bool)
            for mu in (1e-8, 1e-4, 1e-2, 1.0, 1e2):
                cand = np.flatnonzero(left)
                step = _solve_rows(jtj[cand] + mu * diag[cand], -jtf[cand])
                at = stuck[cand]
                u[at], fu[at], hit = _line_search(f, u[at], fu[at], step)
                left[cand[hit]] = False
                if not left.any():
                    break
            moved[stuck[~left]] = True
        U[rows], FU[rows] = u, fu
        active[rows[~moved]] = False
    return U, FU, np.abs(FU).max(axis=1) < _TOL, its


def _require_integer(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer; numpy integers pass,
    and bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(kw_only=True)
class SolveOptions:
    """The knobs of a moduli solve; ``SteerOptions`` extends them, and
    ``steer`` hands its options to ``solve`` as they are.

    Bounds confine the frequency K to (0, k_max] and the arrival time to
    (0, t_max].  ``tolerance`` bounds the algebra-evaluated residual of
    accepted roots.  ``seed`` (at least 0) seeds the draw of the
    ``max_starts`` starts.  ``early_stop`` (None or at least 1) ends the
    screening of the starts once that many distinct roots were accepted; the
    roots then depend only on the seed.  Under it the starts go in
    increasing winding K t, ties in their drawn order: geodesics oscillate
    with phase K t and stop minimizing once they wind too far, and
    low-winding starts converge soonest.  Newton runs them in blocks of ``_BLOCK`` and screens each start
    as soon as it settles (converges, stalls or cannot move, as after a
    non-finite step), starts that settle in the same iteration in K t order; the
    block ends once those roots are accepted, and the work counted includes
    the iterations its unscreened starts ran until then.  Without it the
    starts keep their drawn order, up to ``_BATCH`` run as one batch, and
    all are screened after it.  Either way a start that stalls after the
    Levenberg fallback stops early and counts as not converged (see
    ``_newton``).
    """

    k_max: float = 10.0
    t_max: float = 20.0
    tolerance: float = 1e-9
    max_starts: int = 64
    seed: int = 0
    early_stop: int | None = None

    def __post_init__(self):
        for name in ("max_starts", "seed") + (() if self.early_stop is None else ("early_stop",)):
            _require_integer(name, getattr(self, name))
        if not (self.k_max > 0 and self.t_max > 0 and self.tolerance > 0):
            raise ValueError("bounds and tolerance must be positive")
        if not (self.k_max < np.inf and self.t_max < np.inf):
            raise ValueError("bounds must be finite")
        if self.max_starts < 1:
            raise ValueError("max_starts must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.early_stop is not None and self.early_stop < 1:
            raise ValueError("early_stop must be None or at least 1")


@dataclass(frozen=True)
class SolveSolution:
    params: object
    residual_norm: float

    @property
    def t_final(self) -> float:
        return self.params.t_final


@dataclass(frozen=True)
class SolveResult:
    """Accepted roots, at least one, plus the work spent: ``residual_rows``
    counts every parameter row Newton evaluated the residual on,
    ``newton_iterations`` the Jacobian evaluations over all starts.
    ``start_outcomes`` counts the starts by what became of them (keys
    ``_OUTCOMES``: accepted, the screen of ``solve`` that dropped them, or
    not scanned before an early stop); they sum to ``max_starts``."""

    solutions: tuple
    starts_attempted: int
    converged: int
    residual_rows: int
    newton_iterations: int
    start_outcomes: dict


@functools.lru_cache(maxsize=16)
def _latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """The draw of ``scipy.stats.qmc.LatinHypercube(d=d, seed=seed).random(n)``,
    read-only, since each (n, d, seed) is drawn once and then shared."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    draw = (rng.permuted(np.tile(np.arange(1, n + 1), (d, 1)), axis=1).T - u) / n
    draw.flags.writeable = False
    return draw


def _starts(spec, opts: SolveOptions, target) -> np.ndarray:
    """Newton starts, one per row: a scrambled Latin hypercube (McKay et al.
    1979) over the search box, drawn in numpy so the package needs no scipy.
    ``target`` is a float array: a floor that overflows is inf, and the
    clamp below maps it to 0.9 t_max."""
    raw = _latin_hypercube(opts.max_starts, len(spec.param_names) - 1, opts.seed)
    # unit-speed horizontal curves cannot beat the straight line, so the
    # arrival time is at least the horizontal displacement of the target
    with np.errstate(over="ignore"):  # squaring an axis coordinate beyond 1e154
        floor = spec.t_floor(target)
    t_lo = min(max(0.2, 0.999 * floor), 0.9 * opts.t_max)
    k_lo = min(0.05, 0.5 * opts.k_max)
    k0 = k_lo + raw[:, 0] * (opts.k_max - k_lo)
    t0 = t_lo + raw[:, 1] * (opts.t_max - t_lo)
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
    """Invariant curve fingerprint used to identify orbit-equivalent roots:
    the arrival time, then the closed-form invariants at a quarter, half,
    three quarters and all of it (``spec.ga_invariants`` is their reference)."""
    t = u[-1]
    raw = spec.geodesic_raw(*u[:-1], t * np.array([0.25, 0.5, 0.75, 1.0]))
    return np.concatenate([[t], spec.invariants_raw(raw).ravel()])


def solve(model, target, options: SolveOptions | None = None) -> SolveResult:
    """Multistart damped Newton over the bounded parameter box, for the
    invariant tuple ``target`` of the model (default options if None).

    The starts run through one batched Newton: up to ``_BATCH`` at once, or
    in blocks of ``_BLOCK`` under ``early_stop``.  The starts are screened in
    their drawn order after the batch, or under ``early_stop`` while their
    block runs, each as soon as it settles, ties in increasing K t.  Starts
    that stall after the Levenberg fallback stop early, as not converged.
    Each converged start is canonicalized by the sign folds (exact
    symmetries of the residual) and screened in this order: outside the
    bounds, a duplicate, then the forward check.  A duplicate traces the
    curve of an accepted root: their closed-form orbit signatures agree to
    1e-6 of the signature's scale, whatever the parameters' scale.  The
    forward check, the solve's only algebra evaluation, compares the
    endpoint invariants and the level defect with ``tolerance``.  The roots
    are sorted by arrival time.  Raises ValueError for a target of the
    wrong length or one numpy cannot read as floats, and InfeasibleTarget,
    naming the start outcomes, when no root is accepted.
    """
    model = _as_model(model)
    spec = _spec(model)
    want = len(spec.invariant_names)
    if len(target) != want:
        raise ValueError(f"model {model.value} takes {want} invariants")
    opts = options or SolveOptions()
    target = np.asarray(target, float)
    starts = _starts(spec, opts, target)
    # an exhaustive scan needs every start, so they run in batches as large as
    # memory allows; under early_stop small blocks keep the work spent past the
    # last root small, and the starts go in increasing K t (``SolveOptions``
    # says why); both models put K first and t last
    block = _BATCH
    if opts.early_stop is not None:
        block = _BLOCK
        starts = starts[np.argsort(starts[:, 0] * starts[:, -1], kind="stable")]

    rows = 0  # residual rows evaluated, over all starts
    iterations = 0

    def f(U):
        nonlocal rows
        rows += len(U)
        return _residual_rows(spec, U, target)

    roots = []  # (u, residual norm, orbit signature)

    def screen(u, ok) -> str:
        """The outcome of one start; an accepted root is kept."""
        if not ok:
            return "not_converged"
        u = _canonicalize(spec, u)
        k, t = u[0], u[-1]
        if not (0.0 < k <= opts.k_max and 0.0 < t <= opts.t_max):
            return "out_of_bounds"
        sig = _orbit_signature(spec, u)
        scale = max(1.0, float(np.abs(sig).max()))
        if any(np.abs(sig - r[2]).max() <= 1e-6 * scale for r in roots):
            return "duplicate"
        # the forward check: the endpoint invariants through the algebra
        end = spec.ga_invariants(spec.geodesic_mv(u, t), _GA)
        res = np.append(np.subtract(end, target), spec.level(*u[:-1]) - 1.0)
        rnorm = float(np.abs(res).max())
        if not rnorm <= opts.tolerance:  # a NaN residual fails too
            return "over_tolerance"
        roots.append((u, rnorm, sig))
        return "accepted"

    outcomes = dict.fromkeys(_OUTCOMES, 0)
    for lo in range(0, len(starts), block):
        screened = np.zeros(min(block, len(starts) - lo), bool)  # per start of the block

        def scan(U, ok, active) -> bool:
            """Screen the block's starts that settled since the last call, in
            block order; true once early_stop roots are accepted (roots grow
            one at a time; without early_stop no count equals None)."""
            for i in np.flatnonzero(~active & ~screened):
                if len(roots) == opts.early_stop:
                    break
                outcomes[screen(U[i], ok[i])] += 1
                screened[i] = True
            return len(roots) == opts.early_stop

        U, _, ok, its = _newton(f, starts[lo:lo + block],
                                scan=None if opts.early_stop is None else scan)
        iterations += int(its.sum())
        if scan(U, ok, np.zeros(len(U), bool)):
            break
    attempted = sum(outcomes.values())
    outcomes["not_scanned"] = len(starts) - attempted
    converged = attempted - outcomes["not_converged"]

    if not roots:
        counts = ", ".join(f"{k} {v}" for k, v in outcomes.items())
        raise InfeasibleTarget(
            "no root accepted: the target may lie outside the sampled reachable set, "
            f"or the bounds or the tolerance are too tight; start outcomes: {counts}"
        )

    roots.sort(key=lambda r: r[0][-1])
    sols = [
        SolveSolution(params=spec.params_cls(*(float(v) for v in u)), residual_norm=rnorm)
        for u, rnorm, _ in roots
    ]
    return SolveResult(tuple(sols), attempted, converged, rows, iterations, outcomes)


# ---------------------------------------------------------------------------
# RK4 oracle


def _rk4(rhs, k, state, dt, steps: int) -> list:
    """Classical fixed-step RK4 on a list of state components.

    Every component, momentum and step size is a float for one draw or a
    numpy column for a batch of draws; numpy's elementwise + and * round as
    Python floats do, so each batch row has the bits of its single-draw run.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    for _ in range(steps):
        a = rhs(k, state)
        b = rhs(k, [s + half * d for s, d in zip(state, a)])
        c = rhs(k, [s + half * d for s, d in zip(state, b)])
        d = rhs(k, [s + dt * e for s, e in zip(state, c)])
        state = [s + sixth * (p + 2.0 * q + 2.0 * r + w) for s, p, q, r, w in zip(state, a, b, c, d)]
    return state


def _rk4_inputs(spec, kvec, constants, t_final, steps):
    """The oracle's inputs as float arrays of shapes (..., 3), (..., dim) and
    (...); raises ValueError naming the first malformed argument."""
    if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    t_final = np.asarray(t_final, float)
    if not np.all(np.isfinite(t_final)):
        raise ValueError("t_final must be finite")
    kvec = np.asarray(kvec, float)
    if kvec.shape != t_final.shape + (3,) or not np.all(np.isfinite(kvec)):
        raise ValueError(f"kvec must hold 3 finite momenta per draw, got shape {kvec.shape}")
    constants = np.asarray(constants, float)
    if constants.shape != t_final.shape + (spec.dim,) or not np.all(np.isfinite(constants)):
        raise ValueError(f"constants must hold {spec.dim} finite values per draw for this "
                         f"model, got shape {constants.shape}")
    return kvec, constants, t_final


def rk4_endpoint(model, kvec, constants, t_final: float, steps: int):
    """Endpoint of the coupled base and momentum system, integrated by
    classical fixed-step RK4 from the origin.

    ``kvec`` holds the three constant vertical momenta; ``constants`` are
    the fiber expansion constants handed to the fiber solution at t = 0.
    This path never uses the closed-form trigonometric solutions, so it is
    a genuine cross-check for them.  The integration runs on Python floats.
    """
    spec = _spec(model)
    kvec, constants, t_final = _rk4_inputs(spec, kvec, constants, t_final, steps)
    state = [0.0] * len(spec.blades) + spec.fiber(kvec, constants, 0.0).tolist()
    raw = _rk4(spec.rk4_rhs, kvec.tolist(), state, float(t_final) / steps, steps)
    return spec.point_cls(spec.mv(raw[:len(spec.blades)]))


def rk4_endpoints(model, kvecs, constants, t_finals, steps: int) -> np.ndarray:
    """``rk4_endpoint`` for a batch of B draws at once: ``kvecs`` (B, 3),
    ``constants`` (B, dim) and ``t_finals`` (B,) give the raw endpoint rows
    (B, len(blades)) in the model's blade order, each row with the bits of
    its single-draw call."""
    spec = _spec(model)
    kvecs, constants, t_finals = _rk4_inputs(spec, kvecs, constants, t_finals, steps)
    if t_finals.ndim != 1:
        raise ValueError(f"t_finals must be one value per draw, got shape {t_finals.shape}")
    n, batch = len(spec.blades), len(t_finals)
    momenta = np.array([spec.fiber(k, c, 0.0) for k, c in zip(kvecs, constants)])
    state = [np.zeros(batch)] * n + list(momenta.reshape(batch, spec.dim).T)
    raw = _rk4(spec.rk4_rhs, list(kvecs.T), state, t_finals / steps, steps)
    return np.column_stack(raw[:n])


def aligned_fiber_inputs(model, params):
    """Map representative-geodesic constants to the (kvec, constants) pair
    whose momentum solution reproduces the representative exactly.

    For the 6-dimensional model the aligned curvature vector is (-K, 0, 0)
    with constants (0, -D, -C3); for the other it is (K, 0, 0) with
    constants (C1, C2, 0, C/K).  Used by the oracle-equivalence tests.
    """
    spec = _spec(model)
    return spec.aligned_fiber(spec.check_params(params))
