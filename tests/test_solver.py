"""Moduli solver: residuals, multistart Newton recovery of the documented
roots, round trips, determinism, and the RK4 oracle."""

import contextlib
import itertools
import json
import subprocess
import sys
import time
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from scipy.stats import qmc

from carnotga import (
    GeodesicParams36,
    GeodesicParams47,
    InfeasibleTarget,
    Model,
    SolveOptions,
    SteerOptions,
    aligned_fiber_inputs,
    compute_invariants,
    flag_margin,
    invariants_36,
    invariants_47,
    omega_matrix,
    point_from_blade_map,
    representative_geodesic_36,
    representative_geodesic_47,
    residual,
    rk4_endpoint,
    rk4_endpoints,
    solve,
)
from carnotga.models import _SPECS, _seed_table_36, _spec, invariants
from carnotga import solver
from carnotga.solver import (
    _OUTCOMES, _canonicalize, _latin_hypercube, _newton, _norms, _orbit_signature,
    _residual_rows, _starts)
from conftest import (
    REF36_CONSTANTS, REF36_INVARIANTS, REF36_TARGET, REF47_CONSTANTS, REF47_INVARIANTS)
from test_models import params36, params47, random_params36, random_params47


# --------------------------------------------------------------------------
# residual


def test_residual_at_reference_constants_is_small():
    res = residual(Model.M36, params36(), REF36_CONSTANTS["t"], REF36_INVARIANTS)
    assert np.linalg.norm(res) < 1e-2  # four-decimal roundings
    res47 = residual(Model.M47, params47(), REF47_CONSTANTS["t"], REF47_INVARIANTS)
    assert np.linalg.norm(res47) < 1e-2


def test_residual_self_consistency(rng):
    for _ in range(10):
        p = random_params36(rng)
        target = invariants_36(representative_geodesic_36(p, p.t_final)).as_tuple()
        res = residual(Model.M36, p, p.t_final, target)
        assert np.max(np.abs(res)) < 1e-9
    for _ in range(10):
        p = random_params47(rng)
        target = invariants_47(representative_geodesic_47(p, p.t_final)).as_tuple()
        res = residual(Model.M47, p, p.t_final, target)
        assert np.max(np.abs(res)) < 1e-9


def test_residual_reports_level_violation():
    p = GeodesicParams36(K=1.0, D=0.5, C3=0.5, t_final=1.0)  # level 0.5, defect -0.5
    res = residual(Model.M36, p, 1.0, (0.0, 0.0, 0.0))
    assert res[-1] == pytest.approx(-0.5)


def test_residual_validates_target_shape():
    with pytest.raises(ValueError):
        residual(Model.M36, params36(), 1.0, (1.0, 2.0))


def test_residual_rows_stack_equals_single_rows(rng):
    for model in Model:
        spec = _spec(model)
        U = rng.uniform(-3.0, 3.0, size=(64, len(spec.param_names)))
        U[::7, 0] = 0.0  # K = 0: the closed forms divide by K
        U[3, 0], U[3, -1] = 2.0, 1e308  # K t overflows: non-finite curve point
        U[8, 0] = 1e-300  # D / K overflows for (3,6); (4,7) evaluates the row
        U[9, 2] = np.nan  # a NaN parameter
        U[10, -1] = np.inf  # t = inf
        U[11, -2] = 1e160  # a huge C: invariants and level overflow, the curve does not
        target = rng.uniform(-5.0, 5.0, size=len(spec.invariant_names))
        with np.errstate(all="ignore"):  # the error context Newton runs the rows in
            rows = _residual_rows(spec, U, target)
            singles = np.array([_residual_rows(spec, u[None], target)[0] for u in U])
            mirrored = _residual_rows(spec, np.abs(U), target)
        assert rows.tobytes() == singles.tobytes()
        # a row the closed forms cannot evaluate holds NaN or inf
        line = U[:, 0] == 0.0
        failed = line.copy()
        failed[[3, 9, 10, 11]] = True
        failed[8] = model is Model.M36
        assert (~np.isfinite(rows).all(axis=1)).tolist() == failed.tolist()
        # the public residual sets its own context: the same rows, in the
        # params' domain, raise no warnings there; on the K = 0 rows it
        # evaluates the straight line, which the algebra checks
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            public = np.array([residual(model, spec.params_cls(*u), u[-1], target)
                               for u in np.abs(U)])
        assert public[~line].tobytes() == mirrored[~line].tobytes()
        for u, row in zip(np.abs(U[line]), public[line]):
            inv = invariants(model, spec.geodesic_mv(u, u[-1])).as_tuple()
            assert np.all(row[:-1] == np.array(inv) - target)
            assert row[-1] == spec.level(*u[:-1]) - 1.0
        # the composed route through the raw curve rows gives the same bits
        with np.errstate(all="ignore"):
            composed = np.column_stack([
                spec.invariants_raw(spec.geodesic_raw(*U.T)) - target,
                spec.level(*U[:, :-1].T) - 1.0])
        assert rows.tobytes() == composed.tobytes()
        # the algebra evaluation stays the reference of the closed forms; its
        # multivectors hold finite coefficients only
        finite = np.isfinite(rows).all(axis=1)
        for u, row in zip(U[finite], rows[finite]):
            inv = invariants(model, spec.geodesic_mv(u, u[-1])).as_tuple()
            assert np.all(row[:-1] == np.array(inv) - target)
            assert row[-1] == spec.level(*u[:-1]) - 1.0


def test_residual_vanishes_at_a_straight_line_endpoint():
    # K = 0 parameters are a straight horizontal segment, a geodesic like any
    # other: the residual against its own endpoint invariants is zero
    for model, params in ((Model.M36, GeodesicParams36(K=0.0, D=0.6, C3=0.8, t_final=2.0)),
                          (Model.M47, GeodesicParams47(K=0.0, C1=0.3, C2=-0.2, C=1.0,
                                                       t_final=2.0))):
        end = invariants(model, _spec(model).geodesic(params, params.t_final)).as_tuple()
        assert np.all(residual(model, params, params.t_final, end) == 0.0)


def test_sign_folds_are_exact_symmetries_of_the_residual(rng):
    # solve screens the canonical image of a converged start, so each sign
    # fold must keep every residual entry's bits
    for model in Model:
        spec = _spec(model)
        U = rng.uniform(-3.0, 3.0, size=(2000, len(spec.param_names)))
        target = rng.uniform(-5.0, 5.0, size=len(spec.invariant_names))
        want = _residual_rows(spec, U, target).tobytes()
        joint, folded = U.copy(), U.copy()
        joint[:, [0, 2]] *= -1.0
        folded[:, spec.fold_abs] *= -1.0
        canonical = np.array([_canonicalize(spec, u) for u in U])
        for image in (joint, folded, canonical):
            assert _residual_rows(spec, image, target).tobytes() == want


# --------------------------------------------------------------------------
# solve


def test_reference_solves_golden():
    # roots of the reference solves at the default seed, as the first solver
    # (one start at a time, scalar residuals) found them; bits beyond 1e-12
    # follow the platform's libm and LAPACK; a start the stall stop ended
    # counts as not converged.  The (3,6) target runs the five seeds of the
    # grid, which all converge, to the same root.  The third target, one of
    # the benchmark's round-trip targets, pins its two first roots of 17: the
    # start that finds the minimal-time one creeps along a valley without the
    # Levenberg fallback, and a stall rule that ignored the fallback lost that root
    cases = (
        (Model.M36, REF36_INVARIANTS, 5, 5, 1, [
            GeodesicParams36(K=0.9885730720302317, D=0.6885102270518171,
                             C3=0.725226631643554, t_final=5.023644821636999),
        ]),
        (Model.M47, REF47_INVARIANTS, 64, 11, 2, [
            GeodesicParams47(K=0.8357905887916619, C1=-0.7815971269293542,
                             C2=-0.5323519008614755, C=0.6126137060458265,
                             t_final=6.074809369775649),
            GeodesicParams47(K=1.2495276031101614, C1=-0.6890452592237009,
                             C2=0.19909800363182134, C=0.4436449900949563,
                             t_final=8.215794421068876),
        ]),
        (Model.M47, (-0.02608362500630859, 54.46226541733543, 7.103938046056359,
                     -1.1263999112522631), 64, 30, 17, [
            GeodesicParams47(K=0.8019127374867009, C1=0.14187657305153187,
                             C2=0.35005587672818694, C=0.9530242856662937,
                             t_final=7.743610957162047),
            GeodesicParams47(K=0.8193715706696504, C1=0.14509705266386136,
                             C2=-0.34758147544389184, C=0.951186328439764,
                             t_final=7.758573360564061),
        ]),
    )
    for model, target, starts, converged, n_roots, roots in cases:
        result = solve(model, target)
        assert (result.starts_attempted, result.converged, len(result.solutions)) == (
            starts, converged, n_roots)
        for sol, want in zip(result.solutions, roots):
            np.testing.assert_allclose(astuple(sol.params), astuple(want), rtol=1e-12, atol=0)
        # one row per start, then a 2d-row stencil per Newton iteration
        d = len(astuple(roots[0]))
        assert result.newton_iterations >= converged
        assert result.residual_rows >= starts + result.newton_iterations * 2 * d


def _count_line_searches(monkeypatch) -> list:
    """Count the calls of ``solver._line_search`` in the returned list's one
    entry.  ``_newton`` runs one Newton line search per iteration and one per
    Levenberg rung, so a count above the iterations shows the fallback ran."""
    searches = [0]

    def line_search(*args, line_search=solver._line_search):
        searches[0] += 1
        return line_search(*args)

    monkeypatch.setattr(solver, "_line_search", line_search)
    return searches


def test_newton_stack_equals_single_starts(monkeypatch):
    # the batched Newton gives each start the bits it gets alone, including
    # starts that need the Levenberg fallback and one whose step is not finite
    finite = []  # per solve, which rows got a finite step

    def solve_rows(A, b, solve_rows=solver._solve_rows):
        x = solve_rows(A, b)
        finite.append(np.all(np.isfinite(x), axis=1))
        return x

    monkeypatch.setattr(solver, "_solve_rows", solve_rows)
    searches = _count_line_searches(monkeypatch)
    for model, target in ((Model.M36, REF36_INVARIANTS), (Model.M47, REF47_INVARIANTS)):
        spec = _spec(model)
        U0 = _starts(spec, SolveOptions(), target)[:12].copy()
        U0[5, 1] = 1e100  # the invariants overflow: a non-finite Jacobian and step
        target = np.asarray(target, float)
        d = U0.shape[1]
        counted = [0] * (1 + len(U0))  # residual rows of the stack, then of each start

        def f(U, k):
            counted[k] += len(U)
            return _residual_rows(spec, U, target)

        finite.clear()
        searches[0] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflowed start warns nothing
            U, FU, ok, its = _newton(lambda U: f(U, 0), U0)
            assert searches[0] > its.max()  # Levenberg steps taken
            assert not all(fin.all() for fin in finite)
            singles = [_newton(lambda U, k=k: f(U, k), u0[None]) for k, u0 in enumerate(U0, 1)]
        assert U.tobytes() == np.concatenate([r[0] for r in singles]).tobytes()
        assert FU.tobytes() == np.concatenate([r[1] for r in singles]).tobytes()
        assert ok.tolist() == [bool(r[2][0]) for r in singles]
        assert its.tolist() == [int(r[3][0]) for r in singles]
        assert counted[0] == sum(counted[1:])
        # the start with the non-finite step stops after one iteration: its
        # Newton line search and all five Levenberg rungs fail every step size
        assert ok.any() and not ok[5] and its[5] == 1
        assert counted[6] == 1 + 2 * d + 6 * len(solver._HALVINGS)


def test_solve_lets_no_warning_escape():
    # overflowed residuals, Jacobians and steps stop their starts silently:
    # a target point with coordinates near 1e150 (invariants near 1e300), a
    # K bound of 1e300 and a target whose arrival-time floor overflows,
    # under both scans
    points = ((Model.M36, {"e1": 1e150, "e2": -2e150, "e3": 3e150, "e12": 1e150, "e13": -2e150,
                           "e23": 2e150}),
              (Model.M47, {"e1": 1e150, "e2": 2e150, "e3": 1e150, "e4": 3e150, "e12": -1e150,
                           "e13": 2e150, "e14": 2e150}))
    cases = [(model, compute_invariants(model, point_from_blade_map(model, point)), {})
             for model, point in points]
    # (3,6): a t bound puts the grid's root (t 5.02) out, so the drawn starts run
    cases += [(Model.M36, REF36_INVARIANTS, {"k_max": 1e300, "t_max": 5.0}),
              (Model.M47, REF47_INVARIANTS, {"k_max": 1e300}),
              # an array target whose arrival-time floor overflows in numpy
              (Model.M47, np.array([1e160, 1.0, 0.0, 0.0]), {})]
    for model, target, knobs in cases:
        for early_stop in (None, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _outcome_or_raise(model, target, early_stop=early_stop, **knobs)


def _creep(U):
    """A synthetic residual on rows (x, y) for the stall stop.  Its first entry,
    the largest, is sign(x) |x|^q; a full Newton step maps x to -x (1/q - 1),
    so with q = 0.5004 (|x| >= 1) the entry falls by 0.6% per 8 iterations
    and with q = 0.501 (|x| < 1) by 1.4%.  Its second entry
    0.3 + (|y| - 0.1)^2 is flat for |y| <= 0.1; from just outside the flat
    stretch the Newton step in y overshoots it at every step size, only the
    Levenberg fallback lands in it, and from there the steps in y are zero."""
    x, y = U.T
    r = np.abs(x)
    return np.column_stack([np.sign(x) * r ** np.where(r >= 1.0, 0.5004, 0.501),
                            0.3 + np.maximum(np.abs(y) - 0.1, 0.0) ** 2])


def test_newton_stops_stalled_starts_after_the_fallback(monkeypatch):
    searches = _count_line_searches(monkeypatch)
    edge = 0.1 + 3e-7  # just outside the flat stretch in y
    starts = np.array([
        [100.0, edge],  # the fallback, then 0.6% per window: stops at the window
        [100.0, 0.0],  # the same plateau without the fallback: runs on (a valley)
        [0.5, edge],  # the fallback, then 1.5% per window: runs on
        [np.nan, 0.0],  # a non-finite residual: its steps fail every step size,
        [np.inf, 0.0],  # the fallback's too, and it stops
    ])
    singles = []
    for u0 in starts:
        searches[0] = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the non-finite starts warn nothing
            singles.append(_newton(_creep, u0[None]))
        singles[-1] += (searches[0] > singles[-1][3][0],)  # the fallback ran
    U, FU, ok, its = (np.concatenate([r[k] for r in singles]) for k in range(4))
    assert [r[4] for r in singles] == [True, False, True, True, True]
    assert not ok.any()
    assert its.tolist() == [solver._STALL_WINDOW, 50, 50, 1, 1]
    # the largest entry's drop over the first window: under 1% on the first two
    calls = itertools.count()
    window = _newton(_creep, starts[:3],
                     scan=lambda U, ok, active: next(calls) == solver._STALL_WINDOW)[1]
    drop = 1.0 - np.abs(window[:, 0] / _creep(starts[:3])[:, 0])
    assert drop[0] < solver._STALL_DROP and drop[1] < solver._STALL_DROP <= drop[2]
    assert np.isnan(FU[3]).any() and np.isinf(FU[4]).any()
    # the rule is per start, so a stack that mixes these rows gives each its bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _newton(_creep, starts)
    for got, want in zip(stacked, (U, FU, ok, its)):
        assert got.tobytes() == want.tobytes()


def _solve_one(a, v):
    """The per-row reference of ``_solve_rows``: one solve, least squares on a
    singular matrix, NaN where that fails too.  On a matrix holding inf or NaN
    least squares raises or, for some with inf, never returns."""
    try:
        return np.linalg.solve(a, v)
    except np.linalg.LinAlgError:
        if np.isfinite(a).all():
            with contextlib.suppress(np.linalg.LinAlgError):
                return np.linalg.lstsq(a, v, rcond=None)[0]
        return np.full_like(v, np.nan)


def test_solve_rows_equal_single_solves(rng, capfd):
    for d in (4, 5):
        A = rng.standard_normal((9, d, d))
        b = rng.standard_normal((9, d))
        A[1, :, 2] = 0.0  # exactly singular: a zero column
        A[2, 3] = 0.0  # or a zero row
        A[3, 0, 1] = np.nan
        A[4, 2, 2] = np.inf
        A[5, :, 0] = 0.0
        A[5, 1, 3] = np.nan  # singular and NaN
        A[6, :, 1] = 0.0
        A[6, 0, 0] = -np.inf  # singular and inf
        b[7, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(A, b[..., None])  # the whole batch falls back
        with np.errstate(all="ignore"):
            want = np.array([_solve_one(a, v) for a, v in zip(A, b)])
        capfd.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solver._solve_rows(A, b)
        assert got.tobytes() == want.tobytes()
        # least squares never sees a non-finite matrix, so LAPACK prints nothing
        assert capfd.readouterr() == ("", "")
        # singular rows get least squares, or NaN on a non-finite matrix
        assert np.isfinite(got[[0, 1, 2, 8]]).all() and np.isnan(got[[5, 6]]).all()


def test_levenberg_systems_are_never_singular(rng):
    # the systems of _newton's Levenberg ladder, J^T J + mu diag(max(diag(J^T J),
    # 1e-12)) for mu >= 1e-8, are positive definite for every finite J: the
    # batched solve never falls back, so no rung needs least squares
    ladder = (1e-8, 1e-4, 1e-2, 1.0, 1e2)  # the rungs of _newton
    for d in (4, 5):
        J = rng.standard_normal((60, d, d))
        J[10:20, :, 1] = 0.0  # rank-deficient: a zero column
        J[20:30, :, 3] = J[20:30, :, 0]  # or a repeated one
        J[30:45] *= 1e150  # finite draws at the edges of the range
        J[45:60] *= 1e-150
        J[[35, 50], :, 2] = 0.0
        F = rng.standard_normal((60, d))
        jtj = np.swapaxes(J, 1, 2) @ J
        jtf = (np.swapaxes(J, 1, 2) @ F[:, :, None])[..., 0]
        diag = np.zeros_like(jtj)
        diag[:, np.arange(d), np.arange(d)] = np.maximum(
            np.diagonal(jtj, axis1=1, axis2=2), 1e-12)
        for mu in ladder:
            A = jtj + mu * diag
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                want = np.linalg.solve(A, -jtf[..., None])[..., 0]  # raises if one is singular
                got = solver._solve_rows(A, -jtf)
            assert np.isfinite(got).all() and got.tobytes() == want.tobytes()


def test_line_search_norms_equal_linalg_norm(rng):
    # the Armijo test compares the norms np.linalg.norm gives one vector
    for d in (4, 5):
        F = rng.standard_normal((2000, d)) * 10.0 ** rng.uniform(-8, 8, size=(2000, 1))
        want = np.array([np.linalg.norm(row) for row in F])
        assert _norms(F).tobytes() == want.tobytes()
        assert _norms(F.reshape(100, 20, d)).tobytes() == want.tobytes()


def test_start_outcomes():
    # (3,6) runs the five seeds of its grid, (4,7) its 64 drawn starts
    cases = (
        (Model.M36, REF36_INVARIANTS, (1, 0, 0, 0, 4, 0), 1),
        (Model.M47, REF47_INVARIANTS, (2, 53, 2, 0, 7, 0), 1),
    )
    for model, target, counts, scanned in cases:
        result = solve(model, target)
        assert tuple(result.start_outcomes) == _OUTCOMES
        assert tuple(result.start_outcomes.values()) == counts
        starts = sum(counts)
        # early stop: the starts are screened as they settle, up to the first root
        result = solve(model, target, SolveOptions(early_stop=1))
        assert result.starts_attempted == scanned
        out = result.start_outcomes
        assert out["accepted"] == 1 and out["not_scanned"] == starts - scanned
        assert sum(out.values()) == starts


def test_orbit_signature_equals_algebra_bit_for_bit(rng):
    # the signature is built from the closed forms; the algebra evaluation
    # of the same curve points is its reference
    for model in Model:
        spec = _spec(model)
        for _ in range(300):
            u = rng.uniform(-3.0, 3.0, size=len(spec.param_names))
            u[0], u[-1] = rng.uniform(0.05, 10.0), rng.uniform(0.2, 20.0)
            t = u[-1]
            want = [t]
            for frac in (0.25, 0.5, 0.75, 1.0):
                want.extend(spec.ga_invariants(spec.geodesic_mv(u, frac * t), solver))
            assert _orbit_signature(spec, u).tobytes() == np.array(want).tobytes()


def test_orbit_signature_merges_roots_of_one_curve():
    # a straight segment of length 1 (x.x = 1, z = 0): a root with D = 0
    # leaves K free, so starts converge to roots far apart in K that trace one
    # curve; the orbit signature merges them
    result = solve(Model.M36, (1.0, 0.0, 0.0))
    assert tuple(result.start_outcomes.values()) == (1, 4, 50, 0, 9, 0)


def test_orbit_signature_merges_small_k_roots(monkeypatch):
    # at small K the constants C1, C2 = sin(a) / K reach 1e3: three starts
    # converge to one curve at canonical parameters more than 1e-6 apart, so
    # an absolute parameter radius would keep them apart; the signature,
    # relative to its own scale, merges them into one root
    p = GeodesicParams47(K=0.0006559752433199661, C1=747.2129710108619, C2=-1035.8172912390714,
                         C=0.5459575719440838, t_final=4.942775831394661)
    target = invariants_47(representative_geodesic_47(p, p.t_final)).as_tuple()
    candidates = []  # the canonical parameters of every in-bounds converged start

    def recording(spec, u, signature=_orbit_signature):
        candidates.append(u)
        return signature(spec, u)

    monkeypatch.setattr(solver, "_orbit_signature", recording)
    result = solve(Model.M47, target)
    (root,) = result.solutions
    assert result.converged == len(candidates) == 3
    assert result.start_outcomes["accepted"] == 1
    assert result.start_outcomes["duplicate"] == len(candidates) - 1
    assert candidates[0].tolist() == list(astuple(root.params))
    for a, b in itertools.combinations(candidates, 2):
        assert np.abs(a - b).max() > 1e-6


def _criterion_9_targets(count: int) -> list:
    """``count`` invariant targets per model drawn as criterion 9 draws them:
    forward-generated endpoints kept 5e-2 from the collinearity locus (its
    rotations keep the invariants, so they are left out)."""
    rng = np.random.default_rng(91)
    targets = []
    for model, draw, geodesic, inv in (
            (Model.M36, random_params36, representative_geodesic_36, invariants_36),
            (Model.M47, random_params47, representative_geodesic_47, invariants_47)):
        kept = 0
        while kept < count:
            p = draw(rng)
            q = geodesic(p, p.t_final)
            if flag_margin(model, q) >= 5e-2:
                targets.append((model, inv(q).as_tuple()))
                kept += 1
    return targets


def test_early_stop_ends_the_block_at_the_scanned_root(monkeypatch):
    # the oracle runs every Newton block to completion and hands its starts
    # back sorted by the iteration they settled at (``its``), then by block
    # position, to the screen after the run: the order in which the running
    # block screens them
    newton = solver._newton

    def settled_in_order(f, U0, scan=None):
        U, FU, ok, its = newton(f, U0)
        order = np.argsort(its, kind="stable")
        return U[order], FU[order], ok[order], its[order]

    stops = []  # the running starts of each block when its scan ended it

    def spying(f, U0, scan=None):
        def spy(U, ok, active):
            done = scan(U, ok, active)
            if done:
                stops.append(active.copy())
            return done
        return newton(f, U0, scan=spy)

    def oracle(*args):
        with monkeypatch.context() as m:
            m.setattr(solver, "_newton", settled_in_order)
            return solve(*args)

    monkeypatch.setattr(solver, "_newton", spying)
    cases = _criterion_9_targets(6) + [(Model.M36, REF36_INVARIANTS), (Model.M47, REF47_INVARIANTS)]
    runs = {}
    for model, target in cases:
        for early_stop in (1, 2):
            args = model, target, SolveOptions(early_stop=early_stop)
            stops.clear()
            got, want = solve(*args), oracle(*args)
            runs[model, target, early_stop] = got, want, list(stops)
            assert got.solutions == want.solutions
            assert got.start_outcomes == want.start_outcomes
            assert (got.starts_attempted, got.converged) == (want.starts_attempted, want.converged)
            assert got.residual_rows <= want.residual_rows
            assert got.newton_iterations <= want.newton_iterations
    # the documented 6-dim target accepts the third grid seed of its first
    # block while the first two are still iterating
    got, want, stops = runs[Model.M36, REF36_INVARIANTS, 1]
    assert got.starts_attempted == 1 and [s.tolist() for s in stops] == [[True, True, False, False]]
    assert got.residual_rows < want.residual_rows
    assert got.newton_iterations < want.newton_iterations


def test_early_stop_roots_keep_their_bits():
    # the early-stop path end to end, bit for bit: root and residual norm by
    # float.hex, then start outcomes, Newton iterations and residual rows.
    # The (3,6) starts are the grid seeds, 7, 8 and 5 of them here
    cases = (
        (("0x1.10778dee958a2p+0", "0x1.9380ec956dc03p-2", "-0x1.d69307ed2ff50p-1",
          "0x1.e37d3eba35ebfp+2"), "0x1.1d00000000000p-38", (1, 0, 0, 0, 0, 6), 12, 352),
        (("0x1.12fbd5b9139f8p+0", "0x1.24d922fbbf4c3p-1", "-0x1.a3fb1acc02cd7p-1",
          "0x1.05d270976b2a7p+3"), "0x1.7800000000000p-46", (1, 0, 0, 0, 0, 7), 20, 584),
        (("0x1.1143cb38ef1cbp+0", "0x1.c109dad213786p-2", "-0x1.cc2596d09716bp-1",
          "0x1.0bf7f434db5f0p+2"), "0x1.97ad800000000p-36", (1, 0, 0, 0, 0, 4), 12, 352),
        (("0x1.0128751f53bb7p+0", "0x1.a094b34840a1ap-3", "-0x1.e873f887ad651p-2",
          "0x1.b50c970c4b649p-1", "0x1.d29b4fba2ef8ap+2"), "0x1.aa34000000000p-34",
         (1, 0, 0, 0, 0, 63), 32, 996),
        (("0x1.1cc610d7e3485p+0", "0x1.0f74f6b9f2eaep-3", "0x1.be07d63f59b15p-1",
          "0x1.954e1e21327f9p-3", "0x1.46b2ba8f528f0p+2"), "0x1.ecf0000000000p-36",
         (1, 0, 0, 0, 0, 63), 44, 1368),
        (("0x1.ec650483d5e04p-2", "-0x1.0ee00a59b2d8bp-1", "0x1.d8aae121443e5p-2",
          "0x1.e1f0140b08679p-1", "0x1.16beb7a7abdc3p+2"), "0x1.0000000000000p-51",
         (1, 0, 0, 0, 0, 63), 40, 1244),
    )
    for (model, target), (root, rnorm, outcomes, iterations, rows) in zip(
            _criterion_9_targets(3), cases):
        result = solve(model, target, SolveOptions(early_stop=1))
        (sol,) = result.solutions
        assert tuple(float(v).hex() for v in astuple(sol.params)) == root
        assert float(sol.residual_norm).hex() == rnorm
        assert tuple(result.start_outcomes.values()) == outcomes
        assert (result.newton_iterations, result.residual_rows) == (iterations, rows)


def test_early_stop_scans_starts_by_winding(monkeypatch):
    # under early_stop the Newton blocks take the starts in increasing K t,
    # ties in drawn order; the exhaustive solve takes them as drawn, in one
    # batch.  The starts are the grid seeds for (3,6), which give these
    # targets a root, so the drawn starts never run; for (4,7) the drawn ones
    newton = solver._newton
    blocks = []

    def recording(f, U0, scan=None):
        blocks.append(U0.copy())
        return newton(f, U0, scan=scan)

    monkeypatch.setattr(solver, "_newton", recording)
    cases = _criterion_9_targets(1) + [(Model.M36, REF36_INVARIANTS), (Model.M47, REF47_INVARIANTS)]
    for model, target in cases:
        spec = _spec(model)
        drawn = (_starts(spec, SolveOptions(), target) if spec.seeds is None
                 else spec.seeds(np.asarray(target), 64))
        by_winding = drawn[np.argsort(drawn[:, 0] * drawn[:, -1], kind="stable")]
        for early_stop in (1, 64):  # 64 roots are never reached: every block runs
            blocks.clear()
            solve(model, target, SolveOptions(early_stop=early_stop))
            assert all(len(b) == solver._BLOCK for b in blocks[:-1])
            assert 0 < len(blocks[-1]) <= solver._BLOCK
            rows = np.concatenate(blocks)
            assert rows.tobytes() == by_winding[:len(rows)].tobytes()
            assert early_stop == 1 or len(rows) == len(drawn)
        blocks.clear()
        solve(model, target)
        assert len(blocks) == 1 and blocks[0].tobytes() == drawn.tobytes()


def _outcome_or_raise(model, target, **knobs):
    """The solutions and start outcomes of a solve, or the InfeasibleTarget text."""
    try:
        result = solve(model, target, SolveOptions(**knobs))
    except InfeasibleTarget as exc:
        return str(exc)
    return result.solutions, result.start_outcomes


def test_early_stop_keeps_feasibility(monkeypatch):
    # early_stop (1 or 2) accepts the first start that passes the bounds and
    # the tolerance, whatever the order; so it raises exactly when the
    # exhaustive solve does, and then with the same message and outcomes.
    # Here it also finds as many roots as asked for, or all the exhaustive
    # solve finds
    newton = solver._newton
    iterations = []  # Newton iterations of the current solve

    def counting(f, U0, scan=None):
        out = newton(f, U0, scan=scan)
        iterations.append(int(out[3].sum()))
        return out

    monkeypatch.setattr(solver, "_newton", counting)
    rng = np.random.default_rng(91)
    cases = [(model, target, {}, None) for model, target in _criterion_9_targets(2)]
    # random invariant tuples, mostly unreachable; the unreachable ones with a
    # bound on the Newton iterations of either solve.  The stall stop keeps
    # them there: without it they took 1776, 3156, 3200 and 3049 iterations
    # (1219, 1919, 1852 and 1956 with it)
    caps = iter([1400, 2200, None, 2100, 2250, None])
    for _ in range(3):
        for model in Model:
            n = len(_spec(model).invariant_names)
            cases.append((model, tuple(rng.uniform(-10.0, 10.0, size=n)), {}, next(caps)))
    for model, target in ((Model.M36, REF36_INVARIANTS), (Model.M47, REF47_INVARIANTS)):
        for knobs in ({"t_max": 5.0}, {"tolerance": 1e-16}):  # converged, none accepted
            cases.append((model, target, knobs, None))
    kinds = set()
    for model, target, knobs, cap in cases:
        iterations.clear()
        want = _outcome_or_raise(model, target, **knobs)
        exhaustive = sum(iterations)
        for early_stop in (1, 2):
            iterations.clear()
            got = _outcome_or_raise(model, target, early_stop=early_stop, **knobs)
            if cap is not None:
                assert isinstance(want, str) and max(exhaustive, sum(iterations)) <= cap
            if isinstance(want, str):
                assert got == want
                kinds.add("infeasible")
            else:
                assert not isinstance(got, str) and len(got[0]) == min(early_stop, len(want[0]))
                kinds.add("solved")
    assert kinds == {"infeasible", "solved"}


def test_early_stop_first_roots_stay_near_minimal():
    """The first root under early_stop=1 against the exhaustive solve's
    minimal-time root, on 24 criterion-9 targets per model: 43 of the 48 are
    minimal (24 of 24 for (3,6), whose starts are the grid seeds), with mean
    t/t_min 1.0015 and max 1.0427; the bounds below were measured with drawn
    starts for both models (37 of 48, mean 1.0212, max 1.4768).
    ``test_grid_seeds_find_no_longer_roots`` holds the (3,6) count."""
    ratios = []
    for model, target in _criterion_9_targets(24):
        first = solve(model, target, SolveOptions(early_stop=1)).solutions[0]
        minimal = solve(model, target).solutions[0]
        ratios.append(first.t_final / minimal.t_final)
    ratios = np.array(ratios)
    assert np.sum(np.abs(ratios - 1.0) <= 1e-9) >= 37
    assert ratios.mean() <= 1.022 and ratios.max() <= 1.477


def _drawn_starts_only(monkeypatch, model):
    """Solve ``model`` from the drawn starts alone, as without grid seeds."""
    monkeypatch.setitem(_SPECS, model, replace(_spec(model), seeds=None))


def _solve_bits(model, target, **knobs) -> str:
    """Every bit of a solve as text, or the InfeasibleTarget message."""
    try:
        r = solve(model, target, SolveOptions(**knobs))
    except InfeasibleTarget as exc:
        return str(exc)
    roots = [[float(v).hex() for v in (*astuple(s.params), s.residual_norm)] for s in r.solutions]
    return repr((roots, r.start_outcomes, r.starts_attempted, r.converged, r.residual_rows,
                 r.newton_iterations))


def test_grid_seeds_find_no_longer_roots(monkeypatch):
    """On the (3,6) criterion-9 targets of ``_criterion_9_targets(24)``: the
    exhaustive first root from the grid seeds is never longer than the one
    from the drawn starts alone (here one is shorter, and 23 agree to 1e-11),
    and under early_stop=1 all 24 first roots are minimal (17 with the drawn
    starts alone, max t/t_min 1.4768)."""
    targets = [target for model, target in _criterion_9_targets(24) if model is Model.M36]
    seeded = [solve(Model.M36, target).solutions[0].t_final for target in targets]
    first = [solve(Model.M36, target, SolveOptions(early_stop=1)).solutions[0].t_final
             for target in targets]
    with monkeypatch.context() as m:
        _drawn_starts_only(m, Model.M36)
        drawn = [solve(Model.M36, target).solutions[0].t_final for target in targets]
    seeded, first, drawn = np.array(seeded), np.array(first), np.array(drawn)
    assert np.all(seeded <= drawn * (1.0 + 1e-9))
    minimal = np.abs(first / np.minimum(seeded, drawn) - 1.0) <= 1e-9
    assert minimal.sum() >= 24


def test_straight_targets_keep_the_drawn_starts_bits(monkeypatch):
    # a straight (3,6) target (z = 0) gets no grid seed: the drawn starts run
    # as they do without the seeds, to the bit
    cases = [((L * L, 0.0, 0.0), knobs) for L in (1.0, 5.0, 9.0)
             for knobs in ({}, {"early_stop": 1}, {"early_stop": 2})]
    got = [_solve_bits(Model.M36, target, **knobs) for target, knobs in cases]
    _drawn_starts_only(monkeypatch, Model.M36)
    assert got == [_solve_bits(Model.M36, target, **knobs) for target, knobs in cases]


def test_seed_table_is_built_on_the_first_seeded_solve():
    # importing the package and computing invariants leave the table unbuilt
    # (the cache is empty); a (3,6) solve builds it once, read-only
    inline = json.dumps({"model": "36", "point": REF36_TARGET})
    code = (
        "import carnotga.cli, carnotga.models as models\n"
        f"assert carnotga.cli.main(['invariants', '--target', {inline!r}]) == 0\n"
        "assert models._seed_table_36.cache_info().currsize == 0\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    solve(Model.M36, REF36_INVARIANTS, SolveOptions(early_stop=1))
    table = _seed_table_36()
    assert _seed_table_36.cache_info().currsize == 1 and _seed_table_36() is table
    assert [a.shape for a in table] == [(128, 64, 2), (127,), (63,), (127, 63)]
    assert not any(a.flags.writeable for a in table)


def test_solve_results_do_not_depend_on_batch_size(monkeypatch):
    want = solve(Model.M47, REF47_INVARIANTS, SolveOptions(max_starts=24))
    monkeypatch.setattr(solver, "_BATCH", 5)
    got = solve(Model.M47, REF47_INVARIANTS, SolveOptions(max_starts=24))
    assert got == want


def test_solve_reference_case_36():
    t0 = time.monotonic()
    result = solve(Model.M36, REF36_INVARIANTS)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    c = REF36_CONSTANTS
    want = np.array([c["K"], c["D"], c["C3"], c["t"]])
    hits = [
        s
        for s in result.solutions
        if np.max(np.abs(np.array([s.params.K, s.params.D, s.params.C3, s.params.t_final]) - want))
        < 5e-3
    ]
    assert hits, [s.params for s in result.solutions]
    # minimal arrival time comes first and the reference root is that one here
    assert result.solutions[0] in hits
    assert result.converged >= 1
    assert result.starts_attempted == 5  # the grid seeds


def test_solve_reference_case_47():
    result = solve(Model.M47, REF47_INVARIANTS)
    c = REF47_CONSTANTS
    want = np.array([c["K"], c["C1"], c["C2"], c["C"], c["t"]])
    hits = []
    for s in result.solutions:
        got = np.array([s.params.K, s.params.C1, s.params.C2, s.params.C, s.params.t_final])
        # C >= 0 is canonical; the drift flip is the documented orbit symmetry
        if np.max(np.abs(got - want)) < 5e-3:
            hits.append(s)
    assert hits, [s.params for s in result.solutions]
    assert result.solutions[0] in hits


def test_solve_outputs_respect_bounds_and_level():
    result = solve(Model.M36, REF36_INVARIANTS, SolveOptions(t_max=20.0))
    for s in result.solutions:
        p = s.params
        assert 0.0 < p.K <= 10.0
        assert 0.0 < p.t_final <= 20.0
        assert abs(p.level - 1.0) < 1e-9
        assert s.residual_norm <= 1e-9


def test_solve_forward_check(rng):
    """Every returned root reproduces the target invariants when evaluated
    forward, independently of the Newton residual."""
    p = random_params36(rng)
    target = invariants_36(representative_geodesic_36(p, p.t_final)).as_tuple()
    result = solve(Model.M36, target, SolveOptions(max_starts=32))
    assert result.solutions
    for s in result.solutions:
        got = invariants_36(representative_geodesic_36(s.params, s.params.t_final)).as_tuple()
        assert np.max(np.abs(np.array(got) - np.array(target))) < 1e-6


def test_solve_forward_check_can_fail(monkeypatch):
    # closed forms that miss the algebra by 1e-6 in one invariant: Newton
    # solves the biased system, and the algebra evaluation of every converged
    # root in the bounds misses the target
    for model, target in ((Model.M36, REF36_INVARIANTS), (Model.M47, REF47_INVARIANTS)):
        spec = _spec(model)

        def biased(cols, out, exact=spec.invariant_cols):
            exact(cols, out)
            out[:, 1] += 1e-6

        monkeypatch.setitem(_SPECS, model, replace(spec, invariant_cols=biased))
        with pytest.raises(InfeasibleTarget, match=r"accepted 0, .* over_tolerance [1-9]"):
            solve(model, target)


def test_solve_roundtrip_47(rng):
    p = random_params47(rng)
    target = invariants_47(representative_geodesic_47(p, p.t_final)).as_tuple()
    result = solve(Model.M47, target, SolveOptions(max_starts=32, early_stop=1))
    assert result.solutions
    s = result.solutions[0]
    got = invariants_47(representative_geodesic_47(s.params, s.params.t_final)).as_tuple()
    assert np.max(np.abs(np.array(got) - np.array(target))) < 1e-6


def test_solve_determinism():
    a = solve(Model.M36, REF36_INVARIANTS, SolveOptions(max_starts=16, seed=7))
    b = solve(Model.M36, REF36_INVARIANTS, SolveOptions(max_starts=16, seed=7))
    assert len(a.solutions) == len(b.solutions)
    for sa, sb in zip(a.solutions, b.solutions):
        assert sa.params == sb.params
        assert sa.residual_norm == sb.residual_norm
    assert (a.starts_attempted, a.converged) == (b.starts_attempted, b.converged)


def test_solve_infeasible_target_raises():
    # 8 grid seeds, then 8 drawn starts: none converges
    with pytest.raises(InfeasibleTarget, match="start outcomes: accepted 0, not_converged 16,"):
        solve(Model.M36, (1e8, -1e8, 1e8), SolveOptions(max_starts=8, t_max=5.0))


def test_solve_request_validation():
    with pytest.raises(ValueError, match="^model 36 takes 3 invariants$"):
        solve(Model.M36, (1.0, 2.0))
    with pytest.raises(ValueError, match="could not convert string to float"):
        solve(Model.M36, ("a", "b", "c"))
    # the steering options reject every bad solver knob at construction, with
    # the text the solve options give
    for bad in ({"k_max": -1.0}, {"k_max": np.nan}, {"t_max": np.nan}, {"tolerance": np.nan},
                {"k_max": np.inf}, {"t_max": np.inf},
                {"early_stop": 0}, {"early_stop": -1}, {"max_starts": 0}, {"seed": -1}):
        with pytest.raises(ValueError) as want:
            SolveOptions(**bad)
        with pytest.raises(ValueError) as got:
            SteerOptions(**bad)
        assert str(got.value) == str(want.value)
    # a negative seed is named before numpy's generator rejects it in the solve
    with pytest.raises(ValueError, match="^seed must be at least 0$"):
        SolveOptions(seed=-1)
    assert SteerOptions(early_stop=1).early_stop == 1
    knobs = fields(SolveOptions)
    assert len(knobs) == 6
    assert all(getattr(SteerOptions(), f.name) == f.default for f in knobs)


@pytest.mark.parametrize("name, value", [
    ("max_starts", 8.0), ("max_starts", True), ("seed", 2.0), ("seed", False),
    ("early_stop", 1.5), ("early_stop", True), ("samples", 2.5), ("samples", True),
])
def test_options_reject_counts_that_are_not_integers(name, value):
    # such counts raised TypeError deep in numpy, or for early_stop meant no
    # early stop; numpy integers stay accepted
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
        SteerOptions(**{name: value})
    if name != "samples":
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            SolveOptions(**{name: value})
    assert getattr(SteerOptions(**{name: np.int64(3)}), name) == 3


def test_k_starts_lie_in_the_search_box():
    # the K starts spread over (0, k_max] for every bound; from k_max 0.1 up
    # they start at 0.05 and keep the draws they always had
    for model, target in ((Model.M36, REF36_INVARIANTS), (Model.M47, REF47_INVARIANTS)):
        spec = _spec(model)
        raw = _latin_hypercube(64, len(spec.param_names) - 1, 0)[:, 0]
        for k_max in (1e-3, 0.01, 0.04, 0.05, 0.1, 10.0):
            k0 = _starts(spec, SolveOptions(k_max=k_max), target)[:, 0]
            assert np.all((k0 > 0.0) & (k0 <= k_max))
            assert len(np.unique(k0)) == 64
            if k_max >= 0.1:
                assert k0.tobytes() == (0.05 + raw * (k_max - 0.05)).tobytes()


def test_latin_hypercube_matches_scipy():
    # the solver's starts are scipy's default scrambled Latin hypercube,
    # drawn without scipy; scipy stays the reference byte for byte
    for d in (3, 4):
        for n in (1, 7, 64):
            for seed in (0, 1, 11, 2021):
                got = _latin_hypercube(n, d, seed)
                want = qmc.LatinHypercube(d=d, seed=seed).random(n)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                # memoized, so every solve at this seed shares the one read-only draw
                assert _latin_hypercube(n, d, seed) is got and not got.flags.writeable


# --------------------------------------------------------------------------
# RK4 oracle


def test_rk4_zero_curvature_straight_line():
    p = rk4_endpoint(Model.M36, [0, 0, 0], [0.6, 0.0, 0.8], 3.0, 64)
    assert np.allclose(p.x_coords, [1.8, 0.0, 2.4], atol=1e-12)
    assert np.allclose(p.z_coeffs, 0.0, atol=1e-12)
    p47 = rk4_endpoint(Model.M47, [0, 0, 0], [0.0, 0.0, 1.0, 0.0], 2.0, 64)
    assert p47.x == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(p47.y_coords, 0.0, atol=1e-12)


def _rk4_batch_against_closed_form(model, params, closed_form):
    kvecs, consts = zip(*(aligned_fiber_inputs(model, p) for p in params))
    raw = rk4_endpoints(model, kvecs, consts, [p.t_final for p in params], 4096)
    for row, p in zip(raw, params):
        want = closed_form(p, p.t_final)
        assert np.max(np.abs(_spec(model).mv(row).coeffs - want.mv.coeffs)) < 1e-8


def test_rk4_agrees_with_closed_form_36(rng):
    # a K = 0 line joins the draws, here and for 47: its aligned momenta vanish
    params = [random_params36(rng) for _ in range(5)]
    params.append(GeodesicParams36(0.0, 0.6, 0.8, 2.5))
    _rk4_batch_against_closed_form(Model.M36, params, representative_geodesic_36)


def test_rk4_agrees_with_closed_form_47(rng):
    params = [random_params47(rng) for _ in range(5)]
    params.append(GeodesicParams47(0.0, 0.3, -0.2, 1.0, 2.5))
    _rk4_batch_against_closed_form(Model.M47, params, representative_geodesic_47)


def _rhs_reference(model, k, s):
    """The state derivative as one numpy expression, the reference for the
    componentwise form: ``concatenate([h, dz, -omega_matrix(model, *k) @ h])``."""
    if model is Model.M36:
        x, h = s[0:3], s[6:9]
        dz = 0.5 * np.array(
            [x[0] * h[1] - x[1] * h[0], x[0] * h[2] - x[2] * h[0], x[1] * h[2] - x[2] * h[1]])
    else:
        x, l, h = s[0], s[1:4], s[7:11]
        dz = 0.5 * (x * h[1:4] - h[0] * l)
    return np.concatenate([h, dz, -omega_matrix(model, *k) @ h])


@pytest.mark.parametrize("model", [Model.M36, Model.M47])
def test_rk4_rhs_is_minus_omega_h(model):
    """The componentwise right-hand side is the structure-constant system:
    within a few ulp of the numpy product, whose summation order BLAS picks,
    and equal when k2 = k3 = 0, where every row of -Omega h has one nonzero
    term.  A zero's sign may differ there: base components start at +0 and
    +0 + -0 is +0, so it never reaches an endpoint."""
    spec = _spec(model)
    rng = np.random.default_rng(7)
    m = len(spec.blades)
    for _ in range(200):
        k = rng.normal(size=3)
        s = rng.normal(size=m + spec.dim)
        got = np.array(spec.rk4_rhs(k.tolist(), s.tolist()))
        want = _rhs_reference(model, k, s)
        assert np.array_equal(got[:m], want[:m])
        h = s[m:]
        ulp = np.finfo(float).eps * (np.abs(omega_matrix(model, *k)) @ np.abs(h))
        assert np.all(np.abs(got[m:] - want[m:]) <= 4 * ulp)
        k[1:] = 0.0
        got = np.array(spec.rk4_rhs(k.tolist(), s.tolist()))
        assert np.array_equal(got, _rhs_reference(model, k, s))


@pytest.mark.parametrize("model", [Model.M36, Model.M47])
def test_rk4_batch_rows_equal_single_draws(model):
    spec = _spec(model)
    rng = np.random.default_rng(11)
    kvecs = rng.normal(size=(5, 3))
    kvecs[2] = 0.0  # zero curvature: constant momentum
    kvecs[3, 1:] = 0.0  # aligned
    consts = rng.normal(size=(5, spec.dim))
    times = rng.uniform(0.5, 6.0, size=5)
    raw = rk4_endpoints(model, kvecs, consts, times, 300)
    assert raw.shape == (5, len(spec.blades))
    for row, k, c, t in zip(raw, kvecs, consts, times):
        single = rk4_endpoint(model, k, c, t, 300).mv.coeffs[spec.index]
        assert row.tobytes() == single.tobytes()


def test_rk4_documented_targets_golden_endpoints():
    """Aligned 4096-step endpoints of both documented targets, in raw blade
    order, pinned bit for bit."""
    golden = {
        Model.M36: (GeodesicParams36(*(REF36_CONSTANTS[n] for n in ("K", "D", "C3", "t"))), [
            "0x1.0aff47c05b7d3p-1", "-0x1.5924345745b45p-1", "0x1.d2519548fcfefp+1",
            "-0x1.706b88940c341p+0", "0x1.0a7882da388c2p+1", "0x1.9c46eb4ef8728p+0"]),
        Model.M47: (GeodesicParams47(*(REF47_CONSTANTS[n] for n in ("K", "C1", "C2", "C", "t"))), [
            "0x1.0000172c4b7dap+0", "0x1.8d0a824fed05dp-2", "0x1.dc5792631944cp+1",
            "0x0.0p+0", "0x1.58160b09f3389p+1", "0x1.55072eacf4350p+0", "0x0.0p+0"]),
    }
    for model, (p, want) in golden.items():
        kvec, cvec = aligned_fiber_inputs(model, p)
        got = rk4_endpoint(model, kvec, cvec, p.t_final, 4096).mv.coeffs[_spec(model).index]
        assert [float(v).hex() for v in got] == want


def test_rk4_error_drops_sixteenfold_when_steps_double():
    p = GeodesicParams36(K=1.4, D=0.6, C3=0.8, t_final=8.0)
    kvec, cvec = aligned_fiber_inputs(Model.M36, p)
    want = representative_geodesic_36(p, 8.0).mv.coeffs

    def err(steps):
        got = rk4_endpoint(Model.M36, kvec, cvec, 8.0, steps).mv.coeffs
        return np.max(np.abs(got - want))

    e1, e2 = err(32), err(64)
    assert 10.0 < e1 / e2 < 25.0


def test_rk4_convergence_order():
    p = GeodesicParams47(K=1.1, C1=0.5, C2=-0.4, C=0.55, t_final=7.0)
    # normalize to the level set so the curve is a genuine geodesic
    lvl = np.sqrt(p.level)
    p = GeodesicParams47(K=p.K, C1=p.C1 / lvl, C2=p.C2 / lvl, C=p.C / lvl, t_final=p.t_final)
    kvec, cvec = aligned_fiber_inputs(Model.M47, p)
    want = representative_geodesic_47(p, p.t_final).mv.coeffs
    errors = []
    steps_list = [32, 64, 128, 256]
    for steps in steps_list:
        got = rk4_endpoint(Model.M47, kvec, cvec, p.t_final, steps).mv.coeffs
        errors.append(np.max(np.abs(got - want)))
    orders = [
        np.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)
    ]
    assert all(3.7 <= o <= 4.3 for o in orders), orders


def test_rk4_validates_steps():
    bad = [
        ("steps", (Model.M36, [0, 0, 0], [1, 0, 0], 1.0, 0)),
        ("steps", (Model.M36, [0, 0, 0], [1, 0, 0], 1.0, 2.5)),
        ("steps", (Model.M36, [0, 0, 0], [1, 0, 0], 1.0, True)),
        ("t_final", (Model.M36, [0, 0, 0], [1, 0, 0], float("nan"), 8)),
        ("t_final", (Model.M47, [0, 0, 0], [1, 0, 0, 0], float("inf"), 8)),
        ("kvec", (Model.M36, [0, 0], [1, 0, 0], 1.0, 8)),
        ("kvec", (Model.M47, [0, 0, 0, 0], [1, 0, 0, 0], 1.0, 8)),
        ("constants", (Model.M47, [0, 0, 0], [1, 0, 0], 1.0, 8)),
        ("constants", (Model.M36, [0, 0, 0], [1, 0, 0, 0], 1.0, 8)),
    ]
    for name, args in bad:
        with pytest.raises(ValueError, match=name):
            rk4_endpoint(*args)
    with pytest.raises(ValueError, match="t_finals"):
        rk4_endpoints(Model.M36, [0, 0, 0], [1, 0, 0], 1.0, 8)
    with pytest.raises(ValueError, match="constants"):
        rk4_endpoints(Model.M36, [[0, 0, 0]] * 2, [[1, 0, 0]], [1.0, 2.0], 8)
