"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to watch them stream).

Criteria recap: exact invariants of both reference targets; recovery of the
documented solver roots at their stated tolerance inside the runtime budget;
end-to-end steering of both reference targets; a thousand random frame
alignments per algebra including the antipodal-recovery path; closed-form
geodesics against the RK4 oracle with a measured convergence order; rotation
invariance and arc length on a thousand random draws; two hundred random
round trips per model at 1e-6; and the printed-formula audit, which reports
discrepancies without failing on the known transcription artifacts.
"""

import time

import numpy as np

from carnotga import (
    FramePair,
    GeodesicParams36,
    GeodesicParams47,
    Model,
    Model36Point,
    Model47Point,
    Multivector,
    SteerOptions,
    align_bases,
    aligned_fiber_inputs,
    flag_margin,
    invariant_closed_forms,
    invariants_36,
    invariants_47,
    point_from_blade_map,
    representative_geodesic_36,
    representative_geodesic_47,
    rk4_endpoint,
    rk4_endpoints,
    sandwich,
    so3_action,
    solve,
    steer,
)
from carnotga.models import _geodesic_raw_36, _geodesic_raw_47, _spec
from conftest import (
    REF36_CONSTANTS,
    REF36_INVARIANTS,
    REF36_QO,
    REF36_TARGET,
    REF47_CONSTANTS,
    REF47_INVARIANTS,
    REF47_TARGET,
    blades_to_mv,
    random_frame,
    random_rotor,
)


def _report(num, description, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


def _random_params36(rng):
    k = rng.uniform(0.3, 3.0)
    th = rng.uniform(0.15, np.pi - 0.15)
    return GeodesicParams36(
        K=k, D=float(np.sin(th)), C3=float(np.cos(th)), t_final=float(rng.uniform(1.0, 9.0))
    )


def _random_params47(rng):
    k = rng.uniform(0.3, 3.0)
    al = rng.uniform(0.15, np.pi - 0.15)
    ps = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sin(al) / k
    return GeodesicParams47(
        K=k,
        C1=float(r * np.cos(ps)),
        C2=float(r * np.sin(ps)),
        C=float(np.cos(al)),
        t_final=float(rng.uniform(1.0, 9.0)),
    )


def test_criterion_1_reference_invariants_36():
    target = point_from_blade_map(Model.M36, REF36_TARGET)
    got = invariants_36(Model36Point(target)).as_tuple()
    gap = float(np.max(np.abs(np.array(got) - np.array(REF36_INVARIANTS))))
    _report(1, "documented 6-dim target invariants are exact", gap <= 1e-12, f"gap {gap:.1e}")


def test_criterion_2_reference_solve_36():
    t0 = time.monotonic()
    result = solve(Model.M36, REF36_INVARIANTS)
    elapsed = time.monotonic() - t0
    c = REF36_CONSTANTS
    want = np.array([c["K"], c["D"], c["C3"], c["t"]])
    best = np.inf
    for s in result.solutions:
        got = np.array([s.params.K, s.params.D, s.params.C3, s.params.t_final])
        best = min(best, float(np.max(np.abs(got - want))))
    ok = best < 5e-3 and elapsed < 10.0
    _report(2, "6-dim moduli solve recovers the documented root", ok,
            f"gap {best:.1e}, {elapsed:.1f}s")


def test_criterion_3_reference_steer_36():
    target = point_from_blade_map(Model.M36, REF36_TARGET)
    report = steer(Model.M36, target, SteerOptions(samples=100))
    qo = representative_geodesic_36(report.params, report.params.t_final)
    qo_gap = float(np.max(np.abs(qo.mv.coeffs - blades_to_mv(3, REF36_QO).coeffs)))
    ok = report.endpoint_error < 5e-2 and qo_gap < 5e-3
    _report(3, "6-dim end-to-end steering hits the documented target", ok,
            f"endpoint {report.endpoint_error:.1e}, representative gap {qo_gap:.1e}")


def test_criterion_4_reference_invariants_47():
    target = point_from_blade_map(Model.M47, REF47_TARGET)
    got = invariants_47(Model47Point(target)).as_tuple()
    gap = float(np.max(np.abs(np.array(got) - np.array(REF47_INVARIANTS))))
    _report(4, "documented 7-dim target invariants are exact", gap <= 1e-12, f"gap {gap:.1e}")


def test_criterion_5_reference_solve_and_steer_47():
    result = solve(Model.M47, REF47_INVARIANTS)
    c = REF47_CONSTANTS
    want = np.array([c["K"], c["C1"], c["C2"], c["C"], c["t"]])
    best = np.inf
    for s in result.solutions:
        got = np.array([s.params.K, s.params.C1, s.params.C2, s.params.C, s.params.t_final])
        best = min(best, float(np.max(np.abs(got - want))))
    target = point_from_blade_map(Model.M47, REF47_TARGET)
    report = steer(Model.M47, target, SteerOptions(samples=50))
    e1 = Multivector.basis_vector(4, 1)
    e1_gap = float(np.max(np.abs(sandwich(report.rotor, e1).coeffs - e1.coeffs)))
    ok = best < 5e-3 and report.endpoint_error < 5e-2 and e1_gap < 1e-10
    _report(5, "7-dim solve and steering match the documented case", ok,
            f"root gap {best:.1e}, endpoint {report.endpoint_error:.1e}, e1 drift {e1_gap:.1e}")


def test_criterion_6_rotor_alignment_property_suite():
    rng = np.random.default_rng(61)
    failures = 0
    worst = 0.0
    for dim in (3, 4):
        for trial in range(1000):
            frame = random_frame(rng, dim)
            rot_true = random_rotor(rng, dim)
            ys = tuple(sandwich(rot_true, x) for x in frame)
            rot = align_bases(FramePair(tuple(frame), ys))
            gap = max(
                float(np.max(np.abs(sandwich(rot, x).coeffs - y.coeffs)))
                for x, y in zip(frame, ys)
            )
            worst = max(worst, gap)
            if gap >= 1e-9:
                failures += 1
    # the antipodal-recovery path, exercised through constructed half turns
    ok_anti = True
    for dim in (3, 4):
        basis = [Multivector.basis_vector(dim, i) for i in range(1, dim + 1)]
        ys = [-basis[0], -basis[1], *basis[2:]]
        rot = align_bases(FramePair(tuple(basis), tuple(ys)))
        gap = max(
            float(np.max(np.abs(sandwich(rot, x).coeffs - y.coeffs)))
            for x, y in zip(basis, ys)
        )
        ok_anti = ok_anti and gap < 1e-9
    ok = failures == 0 and ok_anti
    _report(6, "1000 random frame alignments per algebra at 1e-9", ok,
            f"failures {failures}, worst {worst:.1e}, antipodal path ok {ok_anti}")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(71)
    worst = 0.0
    for model, draw, closed_form in (
        (Model.M36, _random_params36, representative_geodesic_36),
        (Model.M47, _random_params47, representative_geodesic_47),
    ):
        # all 100 draws first, in the order of one integration per draw, then one batch
        draws = [(draw(rng), float(rng.uniform(0.5, 10.0))) for _ in range(100)]
        kvs, cvs = zip(*(aligned_fiber_inputs(model, p) for p, _ in draws))
        raw = rk4_endpoints(model, kvs, cvs, [t for _, t in draws], 4096)
        got = np.array([_spec(model).mv(row).coeffs for row in raw])
        want = np.array([closed_form(p, t).mv.coeffs for p, t in draws])
        worst = max(worst, float(np.max(np.abs(got - want))))

    orders = []
    for model, params in (
        (Model.M36, GeodesicParams36(K=1.3, D=0.6, C3=0.8, t_final=8.0)),
        (Model.M47, GeodesicParams47(K=1.1, C1=0.45, C2=-0.35, C=0.65, t_final=8.0)),
    ):
        if model is Model.M47:
            lvl = np.sqrt(params.level)
            params = GeodesicParams47(
                K=params.K, C1=params.C1 / lvl, C2=params.C2 / lvl, C=params.C / lvl,
                t_final=params.t_final,
            )
        kv, cv = aligned_fiber_inputs(model, params)
        if model is Model.M36:
            want = representative_geodesic_36(params, 8.0).mv.coeffs
        else:
            want = representative_geodesic_47(params, 8.0).mv.coeffs
        errs = []
        for steps in (32, 64, 128, 256):
            got = rk4_endpoint(model, kv, cv, 8.0, steps).mv.coeffs
            errs.append(float(np.max(np.abs(got - want))))
        orders.extend(np.log2(errs[i] / errs[i + 1]) for i in range(3))
    order_ok = all(3.7 <= o <= 4.3 for o in orders)
    ok = worst < 1e-6 and order_ok
    _report(7, "closed forms match the RK4 oracle at 4096 steps", ok,
            f"worst {worst:.1e}, orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_8_invariance_and_arc_length():
    rng = np.random.default_rng(81)
    worst_inv = 0.0
    for _ in range(1000):
        q = Model36Point.from_parts(rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3))
        rot = random_rotor(rng, 3)
        before = np.array(invariants_36(q).as_tuple())
        after = np.array(invariants_36(so3_action(Model.M36, rot, q)).as_tuple())
        worst_inv = max(worst_inv, float(np.max(np.abs(before - after))))
    for _ in range(1000):
        q = Model47Point.from_parts(
            rng.uniform(-2, 2), rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)
        )
        rot = random_rotor(rng, 4, fix_e1=True)
        before = np.array(invariants_47(q).as_tuple())
        after = np.array(invariants_47(so3_action(Model.M47, rot, q)).as_tuple())
        worst_inv = max(worst_inv, float(np.max(np.abs(before - after))))

    eps = 1e-5
    worst_speed = 0.0
    for _ in range(40):
        p = _random_params36(rng)
        for t in np.linspace(0.3, p.t_final - 0.3, 5):
            a = _geodesic_raw_36(p.K, p.D, p.C3, t - eps)[:3]
            b = _geodesic_raw_36(p.K, p.D, p.C3, t + eps)[:3]
            worst_speed = max(worst_speed, abs(np.linalg.norm((b - a) / (2 * eps)) - 1.0))
    for _ in range(40):
        p = _random_params47(rng)
        for t in np.linspace(0.3, p.t_final - 0.3, 5):
            a = _geodesic_raw_47(p.K, p.C1, p.C2, p.C, t - eps)[:4]
            b = _geodesic_raw_47(p.K, p.C1, p.C2, p.C, t + eps)[:4]
            worst_speed = max(worst_speed, abs(np.linalg.norm((b - a) / (2 * eps)) - 1.0))
    ok = worst_inv < 1e-9 and worst_speed < 1e-6
    _report(8, "1000 invariance pairs per model and unit-speed geodesics", ok,
            f"invariant drift {worst_inv:.1e}, speed defect {worst_speed:.1e}")


def test_criterion_9_roundtrip_steering():
    """Forward-generate targets, steer back, demand 1e-6 endpoints.

    The generator keeps a 5e-2 margin from the collinearity locus where the
    vector and bivector parts align: there the attached flags degenerate and
    the moduli map folds (its Jacobian drops rank), so both the alignment
    and any local solve are ill-conditioned by the same geometry.  Away
    from that thin set the pipeline must round-trip exactly.
    """
    rng = np.random.default_rng(91)
    opts = SteerOptions(max_starts=64, early_stop=1, tolerance=1e-9, samples=2)
    margin = 5e-2
    worst = 0.0
    count36 = 0
    while count36 < 200:
        p = _random_params36(rng)
        qo = representative_geodesic_36(p, p.t_final)
        if flag_margin(Model.M36, qo) < margin:
            continue
        rot = random_rotor(rng, 3)
        target = sandwich(rot, qo.mv)
        report = steer(Model.M36, target, opts)
        worst = max(worst, report.endpoint_error)
        count36 += 1
    count47 = 0
    while count47 < 200:
        p = _random_params47(rng)
        qo = representative_geodesic_47(p, p.t_final)
        if flag_margin(Model.M47, qo) < margin:
            continue
        rot = random_rotor(rng, 4, fix_e1=True)
        target = sandwich(rot, qo.mv)
        report = steer(Model.M47, target, opts)
        worst = max(worst, report.endpoint_error)
        count47 += 1
    ok = worst < 1e-6
    _report(9, "200 forward-generated round trips per model at 1e-6", ok,
            f"worst endpoint error {worst:.1e}")


def test_criterion_10_printed_formula_audit(capsys):
    rng = np.random.default_rng(101)
    report_lines = []
    failures = []
    for model in (Model.M36, Model.M47):
        names = ("xx", "zz", "xz_star") if model is Model.M36 else ("x", "ll", "ly_e1", "yy")
        gaps = np.zeros(len(names))
        for _ in range(20):
            p = _random_params36(rng) if model is Model.M36 else _random_params47(rng)
            for t in np.linspace(0.2, p.t_final, 20):
                printed = np.array(invariant_closed_forms(model, p, float(t)))
                if model is Model.M36:
                    actual = np.array(
                        invariants_36(representative_geodesic_36(p, float(t))).as_tuple()
                    )
                else:
                    actual = np.array(
                        invariants_47(representative_geodesic_47(p, float(t))).as_tuple()
                    )
                gaps = np.maximum(gaps, np.abs(printed - actual))
        for name, gap in zip(names, gaps):
            verdict = "agrees" if gap < 1e-8 else "DISCREPANT (known transcription artifact)"
            report_lines.append(
                f"  model {model.value} invariant {name}: max gap {gap:.3e} -> {verdict}"
            )
        # the artifact-free components must agree; the others are reported only
        clean = (0,) if model is Model.M36 else (0, 1)
        for idx in clean:
            if gaps[idx] >= 1e-8:
                failures.append(f"model {model.value} component {names[idx]}")
    print("printed-formula audit report:")
    for line in report_lines:
        print(line)
    _report(10, "printed-formula audit emitted; algebra path canonical",
            not failures, "; ".join(failures) if failures else "report above")
