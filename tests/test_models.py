"""Group laws, fiber solutions, closed-form geodesics, invariants, and the
symmetry action, validated against matrix exponentials, finite differences,
and the documented reference computations."""

import numpy as np
import pytest
from scipy.linalg import expm

from carnotga import (
    GeodesicParams36,
    GeodesicParams47,
    Model,
    Model36Point,
    Model47Point,
    Multivector,
    Rotor,
    RotorDomain,
    aligned_fiber_inputs,
    blade_name,
    fiber_solution_36,
    fiber_solution_47,
    flag_margin,
    group_inverse_36,
    group_inverse_47,
    group_product_36,
    group_product_47,
    grade_project,
    invariant_closed_forms,
    invariants,
    invariants_36,
    invariants_47,
    normalize,
    omega_matrix,
    outer_product,
    representative_geodesic_36,
    representative_geodesic_47,
    residual,
    sandwich,
    so3_action,
)
from carnotga.models import _geodesic_raw_36, _geodesic_raw_47, _spec
from conftest import (
    REF36_CONSTANTS,
    REF36_QO,
    REF36_ROTOR_STEP1,
    REF36_ROTOR_STEP2,
    REF47_CONSTANTS,
    REF47_QO,
    blades_to_mv,
    random_rotor,
)


def params36(c=REF36_CONSTANTS):
    return GeodesicParams36(K=c["K"], D=c["D"], C3=c["C3"], t_final=c["t"])


def params47(c=REF47_CONSTANTS):
    return GeodesicParams47(K=c["K"], C1=c["C1"], C2=c["C2"], C=c["C"], t_final=c["t"])


def random_params36(rng):
    k = rng.uniform(0.3, 3.0)
    th = rng.uniform(0.15, np.pi - 0.15)
    return GeodesicParams36(
        K=k, D=float(np.sin(th)), C3=float(np.cos(th)), t_final=rng.uniform(1.0, 9.0)
    )


def random_params47(rng):
    k = rng.uniform(0.3, 3.0)
    al = rng.uniform(0.15, np.pi - 0.15)
    ps = rng.uniform(0.0, 2.0 * np.pi)
    r = np.sin(al) / k
    return GeodesicParams47(
        K=k,
        C1=float(r * np.cos(ps)),
        C2=float(r * np.sin(ps)),
        C=float(np.cos(al)),
        t_final=rng.uniform(1.0, 9.0),
    )


def random_point36(rng):
    return Model36Point.from_parts(rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3))


def random_point47(rng):
    return Model47Point.from_parts(
        rng.uniform(-2, 2), rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3)
    )


# --------------------------------------------------------------------------
# points


_OFF_BLADES = [
    (model, blade)
    for model in Model
    for blade in range(1 << _spec(model).dim)
    if blade not in _spec(model).index
]


@pytest.mark.parametrize(
    "model, blade", _OFF_BLADES, ids=[f"{m.value}-{blade_name(b)}" for m, b in _OFF_BLADES]
)
def test_point_subspace_check(model, blade):
    # a coefficient off the model subspace above 1e-9 raises, one below is
    # zeroed, and a multivector of the other algebra raises
    spec = _spec(model)
    clean = spec.point_cls(spec.mv(np.linspace(-1.5, 2.0, len(spec.blades))))

    def off_by(value):
        coeffs = clean.mv.coeffs.copy()
        coeffs[blade] = value
        return Multivector(spec.dim, coeffs)

    for value in (2e-9, -2e-9):
        with pytest.raises(ValueError):
            spec.point_cls(off_by(value))
    assert spec.point_cls(off_by(5e-10)).mv.coeffs.tobytes() == clean.mv.coeffs.tobytes()
    with pytest.raises(ValueError):
        spec.point_cls(Multivector.zero(7 - spec.dim))


# --------------------------------------------------------------------------
# group structure


def test_group_36_identity_and_inverse(rng):
    origin = Model36Point.origin()
    q = random_point36(rng)
    assert group_product_36(origin, q).mv.isclose(q.mv, atol=1e-14)
    assert group_product_36(q, origin).mv.isclose(q.mv, atol=1e-14)
    assert group_product_36(q, group_inverse_36(q)).mv.isclose(origin.mv, atol=1e-14)


def test_group_36_example():
    p = Model36Point.from_parts([1, 0, 0], [0, 0, 0])
    q = Model36Point.from_parts([0, 1, 0], [0, 0, 0])
    out = group_product_36(p, q)
    assert np.allclose(out.x_coords, [1, 1, 0])
    # vertical correction (1/2) e1 ^ e2, i.e. (0, 0, 1/2) in classical coordinates
    assert np.allclose(out.z_coeffs, [0.5, 0, 0])
    assert np.allclose(out.z_vector, [0, 0, 0.5])


def test_group_36_associativity(rng):
    for _ in range(20):
        a, b, c = (random_point36(rng) for _ in range(3))
        left = group_product_36(group_product_36(a, b), c)
        right = group_product_36(a, group_product_36(b, c))
        assert left.mv.isclose(right.mv, atol=1e-12)


def test_group_47_identity_and_inverse(rng):
    origin = Model47Point.origin()
    q = random_point47(rng)
    assert group_product_47(origin, q).mv.isclose(q.mv, atol=1e-14)
    assert group_product_47(q, group_inverse_47(q)).mv.isclose(origin.mv, atol=1e-14)


def test_group_47_vertical_correction():
    # the correction couples the axis coordinate with the complement:
    # translating along the axis then along e2 picks up (1/2) x l' on e1^e2
    p = Model47Point.from_parts(1.0, [0, 0, 0], [0, 0, 0])
    q = Model47Point.from_parts(0.0, [1, 0, 0], [0, 0, 0])
    out = group_product_47(p, q)
    assert np.allclose(out.y_coords, [0.5, 0, 0])
    # two complement translations commute: the involutive part is abelian
    r = Model47Point.from_parts(0.0, [0, 1, 0], [0, 0, 0])
    out2 = group_product_47(q, r)
    assert np.allclose(out2.y_coords, [0, 0, 0])


def test_group_47_associativity(rng):
    for _ in range(20):
        a, b, c = (random_point47(rng) for _ in range(3))
        left = group_product_47(group_product_47(a, b), c)
        right = group_product_47(a, group_product_47(b, c))
        assert left.mv.isclose(right.mv, atol=1e-12)


def test_group_laws_match_geodesic_flows(rng):
    """Left translation of a geodesic tail reproduces the full geodesic:
    q(s + t) = q(s) . (tail translated to the origin), which ties the group
    law to the same vector fields the closed forms solve."""
    p = random_params36(rng)
    s, t = 0.6, 1.1
    q_s = representative_geodesic_36(p, s)
    q_st = representative_geodesic_36(p, s + t)
    # the tail from s, translated back to the origin:
    tail = group_product_36(group_inverse_36(q_s), q_st)
    rebuilt = group_product_36(q_s, tail)
    assert rebuilt.mv.isclose(q_st.mv, atol=1e-12)


def _law_36(p, q):
    """The (3,6) law written out: (x, z) (x', z') = (x + x', z + z' + (1/2) x ^ x')."""
    xp = grade_project(p.mv, 1)
    xq = grade_project(q.mv, 1)
    z = grade_project(p.mv, 2) + grade_project(q.mv, 2) + 0.5 * outer_product(xp, xq)
    return Model36Point(xp + xq + z)


def _law_47(p, q):
    """The (4,7) law written out: y + y' + (1/2)(x l' - x' l) on e1 ^ e_{i+1}."""
    e1 = Multivector.basis_vector(4, 1)
    lp = Multivector.from_vector(4, np.concatenate([[0.0], p.l_coords]))
    lq = Multivector.from_vector(4, np.concatenate([[0.0], q.l_coords]))
    y = (
        grade_project(p.mv, 2)
        + grade_project(q.mv, 2)
        + 0.5 * (outer_product(e1 * p.x, lq) - outer_product(e1 * q.x, lp))
    )
    return Model47Point(Multivector.blade(4, "e1", p.x + q.x) + lp + lq + y)


def test_group_laws_equal_the_written_out_laws_bit_for_bit(rng):
    # the group law is read off the wedge of the grade-1 parts; the laws as
    # written out per model are its reference.  Some coefficients are exact
    # zeros, so the sign of a zero sum is pinned too
    for model, law, product in ((Model.M36, _law_36, group_product_36),
                                (Model.M47, _law_47, group_product_47)):
        spec = _spec(model)
        for _ in range(500):
            shape = (2, len(spec.blades))
            a, b = rng.normal(size=shape) * rng.choice([0.0, 1.0, 1e4], size=shape)
            p, q = spec.point_cls(spec.mv(a)), spec.point_cls(spec.mv(b))
            assert product(p, q).mv.coeffs.tobytes() == law(p, q).mv.coeffs.tobytes()


def test_points_params_of_the_other_model_raise_value_error():
    p36, p47 = Model36Point.origin(), Model47Point.origin()
    rotors = {Model.M36: Rotor.identity(3), Model.M47: Rotor.identity(4)}
    cases = [
        (invariants, Model.M36, p47), (invariants, Model.M47, p36),
        (invariants_36, p47), (invariants_47, p36),
        (group_product_36, p36, p47), (group_product_36, p47, p47),
        (group_product_47, p47, p36), (group_product_47, p36, p36),
        (so3_action, Model.M36, rotors[Model.M36], p47),
        (so3_action, Model.M47, rotors[Model.M47], p36),
        (residual, Model.M36, params47(), 1.0, (0.0, 0.0, 0.0)),
        (residual, Model.M47, params36(), 1.0, (0.0, 0.0, 0.0, 0.0)),
        (invariant_closed_forms, Model.M36, params47(), 1.0),
        (invariant_closed_forms, Model.M47, params36(), 1.0),
        (aligned_fiber_inputs, Model.M36, params47()),
        (aligned_fiber_inputs, Model.M47, params36()),
        (flag_margin, Model.M36, p47), (flag_margin, Model.M47, p36),
    ]
    for fn, *args in cases:
        with pytest.raises(ValueError, match="Model36Point|Model47Point|GeodesicParams"):
            fn(*args)


def test_so3_equivariance_of_group_law(rng):
    for _ in range(10):
        rot = random_rotor(rng, 3)
        a, b = random_point36(rng), random_point36(rng)
        left = so3_action(Model.M36, rot, group_product_36(a, b))
        right = group_product_36(so3_action(Model.M36, rot, a), so3_action(Model.M36, rot, b))
        assert left.mv.isclose(right.mv, atol=1e-10)
    for _ in range(10):
        rot = random_rotor(rng, 4, fix_e1=True)
        a, b = random_point47(rng), random_point47(rng)
        left = so3_action(Model.M47, rot, group_product_47(a, b))
        right = group_product_47(so3_action(Model.M47, rot, a), so3_action(Model.M47, rot, b))
        assert left.mv.isclose(right.mv, atol=1e-10)


# --------------------------------------------------------------------------
# omega matrices and fiber solutions


def test_omega_matrix_36_substitution():
    got = omega_matrix(Model.M36, 1.0, 0.0, 0.0)
    assert np.array_equal(got, np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float))


def test_omega_matrix_47_zero():
    assert np.array_equal(omega_matrix(Model.M47, 0, 0, 0), np.zeros((4, 4)))


def _omega_literal(model, k1, k2, k3):
    """Omega written out per model."""
    if model is Model.M36:
        return np.array([[0.0, k1, k2], [-k1, 0.0, k3], [-k2, -k3, 0.0]])
    return np.array(
        [[0.0, k1, k2, k3], [-k1, 0.0, 0.0, 0.0], [-k2, 0.0, 0.0, 0.0], [-k3, 0.0, 0.0, 0.0]]
    )


def test_omega_matrix_equals_the_written_out_matrices(rng):
    # omega_matrix is the matrix of h -> -h . k; compared by value, since an
    # entry -k_i of the written-out matrix is -0.0 where the contraction gives
    # +0.0 when that k_i is exactly 0
    for model in Model:
        for _ in range(200):
            k = rng.normal(size=3) * rng.choice([0.0, 1.0], size=3)
            assert np.array_equal(omega_matrix(model, *k), _omega_literal(model, *k))


def test_omega_skew_symmetry(rng):
    for model, size in ((Model.M36, 3), (Model.M47, 4)):
        k = rng.uniform(-2, 2, size=3)
        om = omega_matrix(model, *k)
        assert om.shape == (size, size)
        assert np.allclose(om + om.T, 0.0)


def test_fiber_36_zero_curvature_is_constant():
    h = fiber_solution_36([0, 0, 0], [0.2, -0.4, 0.3], 5.0)
    assert np.allclose(h, [0.2, -0.4, 0.3])


def test_fiber_36_matches_matrix_exponential(rng):
    for _ in range(30):
        k = rng.uniform(-2, 2, size=3)
        c = rng.uniform(-1, 1, size=3)
        t = rng.uniform(0, 8)
        h0 = fiber_solution_36(k, c, 0.0)
        want = expm(-t * omega_matrix(Model.M36, *k)) @ h0
        got = fiber_solution_36(k, c, t)
        assert np.max(np.abs(got - want)) < 1e-10


def test_fiber_36_degenerate_axis_branch(rng):
    # curvature vector along the first component only: the generic
    # eigenvector formulas divide by zero, the adapted-basis branch must not
    for k1 in (1.3, -0.7):
        c = rng.uniform(-1, 1, size=3)
        t = 3.7
        h0 = fiber_solution_36([k1, 0, 0], c, 0.0)
        want = expm(-t * omega_matrix(Model.M36, k1, 0, 0)) @ h0
        got = fiber_solution_36([k1, 0, 0], c, t)
        assert np.max(np.abs(got - want)) < 1e-10


def test_fiber_36_norm_is_constant(rng):
    k = rng.uniform(-2, 2, size=3)
    c = rng.uniform(-1, 1, size=3)
    n0 = np.linalg.norm(fiber_solution_36(k, c, 0.0))
    for t in (0.5, 2.0, 7.0):
        assert np.linalg.norm(fiber_solution_36(k, c, t)) == pytest.approx(n0, abs=1e-12)


def test_fiber_47_zero_curvature_is_constant():
    h = fiber_solution_47([0, 0, 0], [0.1, 0.2, 0.3, 0.4], 2.0)
    assert np.allclose(h, [0.1, 0.2, 0.3, 0.4])


def test_fiber_47_initial_value():
    k = np.array([0.8, -0.3, 0.5])
    c1, c2, c3, c4 = 0.3, -0.2, 0.7, 0.1
    kk = np.linalg.norm(k)
    h = fiber_solution_47(k, [c1, c2, c3, c4], 0.0)
    r1 = k / kk
    drift = c3 * np.array([-k[2], 0, k[0]]) + c4 * np.array([-k[1], k[0], 0])
    assert h[0] == pytest.approx(kk * c2)
    assert np.allclose(h[1:], kk * c1 * r1 + drift)


def test_fiber_47_matches_matrix_exponential(rng):
    for _ in range(30):
        k = rng.uniform(-2, 2, size=3)
        c = rng.uniform(-1, 1, size=4)
        t = rng.uniform(0, 8)
        h0 = fiber_solution_47(k, c, 0.0)
        want = expm(-t * omega_matrix(Model.M47, *k)) @ h0
        got = fiber_solution_47(k, c, t)
        assert np.max(np.abs(got - want)) < 1e-10
    # degenerate first component
    k = np.array([0.0, 1.1, -0.4])
    c = rng.uniform(-1, 1, size=4)
    h0 = fiber_solution_47(k, c, 0.0)
    want = expm(-5.0 * omega_matrix(Model.M47, *k)) @ h0
    assert np.max(np.abs(fiber_solution_47(k, c, 5.0) - want)) < 1e-10


# --------------------------------------------------------------------------
# representative geodesics


def test_geodesic_36_starts_at_origin():
    p = params36()
    assert representative_geodesic_36(p, 0.0).mv.isclose(Multivector.zero(3), atol=1e-15)


def test_geodesic_36_reference_endpoint(ref36_target):
    c = REF36_CONSTANTS
    q = representative_geodesic_36(params36(), c["t"])
    want = blades_to_mv(3, REF36_QO)
    assert np.max(np.abs(q.mv.coeffs - want.coeffs)) < 1e-3
    # its invariants agree with the target's (that is the point of the moduli step)
    got = np.array(invariants_36(q).as_tuple())
    assert np.max(np.abs(got - np.array(invariants_36(Model36Point(ref36_target)).as_tuple()))) < 2e-3


def test_geodesic_47_starts_at_origin():
    assert representative_geodesic_47(params47(), 0.0).mv.isclose(Multivector.zero(4), atol=1e-15)


def test_geodesic_47_reference_endpoint(ref47_target):
    c = REF47_CONSTANTS
    q = representative_geodesic_47(params47(), c["t"])
    want = blades_to_mv(4, REF47_QO)
    assert np.max(np.abs(q.mv.coeffs - want.coeffs)) < 1e-3
    got = np.array(invariants_47(q).as_tuple())
    assert np.max(np.abs(got - np.array(invariants_47(Model47Point(ref47_target)).as_tuple()))) < 2e-3


def test_geodesic_36_straight_line_branch():
    p = GeodesicParams36(K=0.0, D=0.6, C3=0.8, t_final=5.0)
    q = representative_geodesic_36(p, 2.0)
    assert np.allclose(q.x_coords, [0.0, 1.2, 1.6])
    assert np.allclose(q.z_coeffs, 0.0)


def test_geodesic_arc_length(rng):
    """The grade-1 part moves at unit speed: finite differences of the
    closed forms at a small step."""
    eps = 1e-5
    for _ in range(10):
        p = random_params36(rng)
        for t in np.linspace(0.3, p.t_final - 0.3, 5):
            a = _geodesic_raw_36(p.K, p.D, p.C3, t - eps)[:3]
            b = _geodesic_raw_36(p.K, p.D, p.C3, t + eps)[:3]
            speed = np.linalg.norm((b - a) / (2 * eps))
            assert abs(speed - 1.0) < 1e-6
    for _ in range(10):
        p = random_params47(rng)
        for t in np.linspace(0.3, p.t_final - 0.3, 5):
            a = _geodesic_raw_47(p.K, p.C1, p.C2, p.C, t - eps)[:4]
            b = _geodesic_raw_47(p.K, p.C1, p.C2, p.C, t + eps)[:4]
            speed = np.linalg.norm((b - a) / (2 * eps))
            assert abs(speed - 1.0) < 1e-6


def test_geodesic_36_satisfies_vertical_equation(rng):
    """Finite-difference derivative of the grade-2 part equals (1/2) x ^ h
    under this module's embedding of the classical vertical coordinates."""
    eps = 1e-5
    for _ in range(8):
        p = random_params36(rng)
        for t in np.linspace(0.4, p.t_final - 0.4, 4):
            minus = representative_geodesic_36(p, t - eps)
            plus = representative_geodesic_36(p, t + eps)
            zdot = (plus.z_coeffs - minus.z_coeffs) / (2 * eps)
            x = representative_geodesic_36(p, t).mv
            h = Multivector.from_vector(
                3,
                [
                    p.D * np.sin(p.K * t),
                    p.D * np.cos(p.K * t),
                    p.C3,
                ],
            )
            from carnotga import grade_project

            want = 0.5 * outer_product(grade_project(x, 1), h)
            got = np.array([zdot[0], zdot[1], zdot[2]])
            assert np.max(np.abs(got - np.array([want.coeffs[3], want.coeffs[5], want.coeffs[6]]))) < 1e-5


def test_geodesic_47_satisfies_vertical_equation(rng):
    eps = 1e-5
    for _ in range(8):
        p = random_params47(rng)
        for t in np.linspace(0.4, p.t_final - 0.4, 4):
            minus = representative_geodesic_47(p, t - eps)
            plus = representative_geodesic_47(p, t + eps)
            ydot = (plus.y_coords - minus.y_coords) / (2 * eps)
            point = representative_geodesic_47(p, t)
            h0 = p.K * (p.C2 * np.cos(p.K * t) - p.C1 * np.sin(p.K * t))
            hbar = np.array(
                [p.K * (p.C2 * np.sin(p.K * t) + p.C1 * np.cos(p.K * t)), p.C, 0.0]
            )
            want = 0.5 * (point.x * hbar - h0 * point.l_coords)
            assert np.max(np.abs(ydot - want)) < 1e-5


# --------------------------------------------------------------------------
# invariants


def test_invariants_36_reference_exact(ref36_target):
    inv = invariants_36(Model36Point(ref36_target))
    assert inv.as_tuple() == pytest.approx((14.0, -9.0, 3.0), abs=1e-12)


def test_invariants_47_reference_exact(ref47_target):
    inv = invariants_47(Model47Point(ref47_target))
    assert inv.as_tuple() == pytest.approx((1.0, 14.0, -6.0, -9.0), abs=1e-12)


def test_invariants_at_origin():
    assert invariants_36(Model36Point.origin()).as_tuple() == (0.0, 0.0, 0.0)
    assert invariants_47(Model47Point.origin()).as_tuple() == (0.0, 0.0, 0.0, 0.0)


def test_invariants_raw_equal_algebra_bit_for_bit(rng):
    # the solver's closed forms against the algebra evaluation they replace
    for model in Model:
        spec = _spec(model)
        raw = rng.uniform(-3.0, 3.0, size=(2000, len(spec.blades)))
        got = spec.invariants_raw(raw)
        want = np.array([invariants(model, spec.mv(r)).as_tuple() for r in raw])
        assert got.shape == want.shape
        assert np.all(got == want)


def test_geodesic_raw_rows_equal_scalar_calls(rng):
    for geodesic_raw, d in ((_geodesic_raw_36, 4), (_geodesic_raw_47, 5)):
        U = rng.uniform(-3.0, 3.0, size=(200, d))
        rows = geodesic_raw(*U.T)
        want = np.array([geodesic_raw(*u) for u in U])
        assert rows.shape == want.shape
        assert rows.tobytes() == want.tobytes()


def test_invariants_36_rotation_invariance(rng):
    for _ in range(30):
        q = random_point36(rng)
        rot = random_rotor(rng, 3)
        before = np.array(invariants_36(q).as_tuple())
        after = np.array(invariants_36(so3_action(Model.M36, rot, q)).as_tuple())
        assert np.max(np.abs(before - after)) < 1e-9


def test_invariants_47_rotation_invariance(rng):
    for _ in range(30):
        q = random_point47(rng)
        rot = random_rotor(rng, 4, fix_e1=True)
        before = np.array(invariants_47(q).as_tuple())
        after = np.array(invariants_47(so3_action(Model.M47, rot, q)).as_tuple())
        assert np.max(np.abs(before - after)) < 1e-9


def test_invariants_sign_structure(rng):
    q = random_point36(rng)
    inv = invariants_36(q)
    assert inv.xx >= 0
    assert inv.zz <= 0  # bivector square norms are non-positive under contraction
    q47 = random_point47(rng)
    inv47 = invariants_47(q47)
    assert inv47.ll >= 0
    assert inv47.yy <= 0


# --------------------------------------------------------------------------
# symmetry action


def test_so3_action_identity(rng):
    q = random_point36(rng)
    assert so3_action(Model.M36, Rotor.identity(3), q).mv.isclose(q.mv)


def test_so3_action_reference_rotors(ref36_target):
    """The documented rotors of the first reference case map the
    representative endpoint onto the target."""
    c = REF36_CONSTANTS
    qo = representative_geodesic_36(params36(), c["t"])
    r2 = blades_to_mv(3, REF36_ROTOR_STEP2)
    r1 = blades_to_mv(3, REF36_ROTOR_STEP1)
    from carnotga import geometric_product

    rot = Rotor(normalize(geometric_product(r1, r2)), tol=1e-3)
    mapped = so3_action(Model.M36, rot, qo)
    assert np.max(np.abs(mapped.mv.coeffs - ref36_target.coeffs)) < 5e-3


def test_so3_action_rejects_e1_moving_rotor(rng):
    q = random_point47(rng)
    # a generic rotor moves e1
    while True:
        rot = random_rotor(rng, 4)
        e1 = Multivector.basis_vector(4, 1)
        if np.max(np.abs(sandwich(rot, e1).coeffs - e1.coeffs)) > 1e-3:
            break
    with pytest.raises(RotorDomain):
        so3_action(Model.M47, rot, q)


def test_spec_action_equals_the_algebra_action(rng):
    # spec.action(q), the matrix steer pushes raw coefficients through, against
    # so3_action by the rotor of q (of diag(1, q) for 47): 200 rotations per
    # model, every fourth a half-turn.  The flag vectors it rotates are the
    # points' own coordinates, bit for bit
    for model in Model:
        spec = _spec(model)
        for i in range(200):
            if i % 4:
                q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
                q *= np.sign(np.linalg.det(q))  # det(-q) = -det(q)
            else:
                n = rng.normal(size=3)
                q = 2.0 * np.outer(n, n) / (n @ n) - np.eye(3)
            matrix = np.eye(spec.dim)
            matrix[-3:, -3:] = q
            raw = rng.uniform(-2.0, 2.0, size=len(spec.blades))
            point = spec.point_cls(spec.mv(raw))
            want = so3_action(model, Rotor.from_matrix(matrix), point).mv.coeffs[spec.index]
            assert np.abs(spec.action(q) @ raw - want).max() < 1e-13
            coords = ((point.x_coords, point.z_vector) if model is Model.M36
                      else (point.l_coords, point.y_coords))
            assert [v.tobytes() for v in spec.flag_vectors(raw)] == [v.tobytes() for v in coords]


# --------------------------------------------------------------------------
# printed closed-form invariants (audit surface)


def test_closed_forms_zero_at_time_zero():
    """The true invariants vanish at t = 0; the transcribed expressions do so
    only in their artifact-free components.  The 36 z.z expression leaves a
    residue proportional to (K - 1)^2 and the 47 y.y one leaves
    (C1^2 + C2^2)^2 / 4, which documents the suspected artifacts."""
    got36 = invariant_closed_forms(Model.M36, params36(), 0.0)
    assert got36[0] == pytest.approx(0.0, abs=1e-12)
    assert got36[2] == pytest.approx(0.0, abs=1e-12)
    p = params36()
    residue = -(p.D * p.C3 * (p.K - 1.0)) ** 2 / p.K**4 * 1.0
    assert got36[1] == pytest.approx(residue, abs=1e-12)
    got47 = invariant_closed_forms(Model.M47, params47(), 0.0)
    assert got47[0] == pytest.approx(0.0, abs=1e-12)
    assert got47[1] == pytest.approx(0.0, abs=1e-12)
    assert got47[2] == pytest.approx(0.0, abs=1e-12)
    p47 = params47()
    assert got47[3] == pytest.approx(0.25 * (p47.C1**2 + p47.C2**2) ** 2, abs=1e-12)


def test_closed_forms_first_component_agrees(rng):
    """The transcribed expressions for x.x (model 36) and x, l.l (model 47)
    are artifact-free and must match the algebra-evaluated invariants."""
    for _ in range(15):
        p = random_params36(rng)
        t = rng.uniform(0.2, p.t_final)
        printed = invariant_closed_forms(Model.M36, p, t)
        actual = invariants_36(representative_geodesic_36(p, t)).as_tuple()
        assert printed[0] == pytest.approx(actual[0], abs=1e-9)
    for _ in range(15):
        p = random_params47(rng)
        t = rng.uniform(0.2, p.t_final)
        printed = invariant_closed_forms(Model.M47, p, t)
        actual = invariants_47(representative_geodesic_47(p, t)).as_tuple()
        assert printed[0] == pytest.approx(actual[0], abs=1e-9)
        assert printed[1] == pytest.approx(actual[1], abs=1e-9)


def test_closed_forms_reference_xx_loose():
    c = REF36_CONSTANTS
    printed = invariant_closed_forms(Model.M36, params36(), c["t"])
    assert printed[0] == pytest.approx(14.0, abs=1e-2)
