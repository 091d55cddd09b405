"""Flag construction and frame alignment, checked against a rotation-matrix
oracle and against the documented reference rotors."""

import numpy as np
import pytest

from carnotga import (
    AntipodalVectors,
    DegenerateConfiguration,
    DependentVectors,
    Flag,
    FlagMismatch,
    FramePair,
    Model,
    Model36Point,
    Model47Point,
    Multivector,
    Rotor,
    align_bases,
    align_flags,
    dual,
    flag_from_basis,
    flag_margin,
    frame_flag_36,
    frame_flag_47,
    geometric_product,
    grade_project,
    normalize,
    outer_product,
    pseudoscalar,
    reverse,
    rotor_between_vectors,
    sandwich,
)
from carnotga.flags import flag_is_nested
from carnotga.models import _spec
from conftest import (
    REF36_ROTOR_STEP1,
    REF36_ROTOR_STEP2,
    REF47_ROTOR_STEP2,
    REF47_ROTOR_STEP3,
    blades_to_mv,
    mv,
    random_frame,
    random_rotor,
    random_unit_vector,
)


def e(dim, i):
    return Multivector.basis_vector(dim, i)


# --------------------------------------------------------------------------
# rotor between two vectors


def test_rotor_between_identical_vectors_is_identity():
    rot = rotor_between_vectors(e(3, 1), e(3, 1))
    assert rot.mv.isclose(Multivector.scalar(3, 1.0))


def test_rotor_between_orthogonal_vectors_halves_the_angle():
    rot = rotor_between_vectors(e(3, 1), e(3, 2))
    expected = Multivector.scalar(3, np.cos(np.pi / 4)) + mv(3, e12=-np.sin(np.pi / 4))
    assert rot.mv.isclose(expected, atol=1e-12)
    assert sandwich(rot, e(3, 1)).isclose(e(3, 2), atol=1e-12)


def test_rotor_between_antipodal_vectors_raises():
    with pytest.raises(AntipodalVectors):
        rotor_between_vectors(e(3, 1), -e(3, 1))


def test_rotor_between_requires_unit_vectors():
    with pytest.raises(ValueError):
        rotor_between_vectors(mv(3, e1=2.0), e(3, 2))


def test_rotor_acts_trivially_on_plane_complement(rng):
    for _ in range(20):
        x = random_unit_vector(rng, 3)
        y = random_unit_vector(rng, 3)
        if float(np.dot(x.vector_coords(), y.vector_coords())) < -0.99:
            continue
        plane = outer_product(x, y)
        if plane.norm() < 1e-3:
            continue
        n = normalize(dual(plane))
        rot = rotor_between_vectors(x, y)
        assert sandwich(rot, n).isclose(n, atol=1e-10)


# --------------------------------------------------------------------------
# flags


def test_flag_from_standard_basis():
    flag = flag_from_basis([e(3, 1), e(3, 2), e(3, 3)])
    assert flag.blades[0].isclose(e(3, 1))
    assert flag.blades[1].isclose(mv(3, e12=1.0))
    assert flag.blades[2].isclose(pseudoscalar(3))


def test_flag_from_permuted_basis_keeps_orientation():
    flag = flag_from_basis([e(3, 2), e(3, 1), e(3, 3)])
    assert flag.blades[0].isclose(e(3, 2))
    assert flag.blades[1].isclose(mv(3, e12=-1.0))
    assert flag.blades[2].isclose(-pseudoscalar(3))


def test_flag_rejects_dependent_vectors():
    with pytest.raises(DependentVectors):
        flag_from_basis([e(3, 1), e(3, 1) + mv(3, e2=1e-15), e(3, 3)])


def test_flag_requires_grade_match():
    with pytest.raises(ValueError):
        Flag((mv(3, e12=1.0), pseudoscalar(3), pseudoscalar(3)))


def test_flag_nesting_check(rng):
    for _ in range(10):
        flag = flag_from_basis(random_frame(rng, 3))
        assert flag_is_nested(flag, tol=1e-8)


# --------------------------------------------------------------------------
# flag alignment


def test_align_identical_flags_gives_identity_action(rng):
    frame = random_frame(rng, 3)
    flag = flag_from_basis(frame)
    rot = align_flags(flag, flag)
    for v in frame:
        assert sandwich(rot, v).isclose(v, atol=1e-10)


def test_align_quarter_turn_case():
    v = flag_from_basis([e(3, 1), e(3, 2), e(3, 3)])
    w = flag_from_basis([e(3, 2), -e(3, 1), e(3, 3)])
    rot = align_flags(v, w)
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(rot.matrix(), want, atol=1e-12)
    for a, b in zip(v.blades, w.blades):
        assert sandwich(rot, a).isclose(b, atol=1e-12)


@pytest.mark.parametrize("dim", [3, 4])
def test_align_flags_recovers_random_rotation(dim, rng):
    for _ in range(50):
        frame = random_frame(rng, dim)
        rot_true = random_rotor(rng, dim)
        ys = [sandwich(rot_true, x) for x in frame]
        rot = align_flags(flag_from_basis(frame), flag_from_basis(ys))
        for x, y in zip(frame, ys):
            assert np.max(np.abs(sandwich(rot, x).coeffs - y.coeffs)) < 1e-9


def test_align_flags_blade_postcondition(rng):
    frame = random_frame(rng, 4)
    rot_true = random_rotor(rng, 4)
    ys = [sandwich(rot_true, x) for x in frame]
    v = flag_from_basis(frame)
    w = flag_from_basis(ys)
    rot = align_flags(v, w)
    for a, b in zip(v.blades, w.blades):
        assert np.max(np.abs(sandwich(rot, a).coeffs - b.coeffs)) < 1e-9


def test_align_flags_partial_rotors_preserve_later_stages(rng):
    """After the step handling stage j, the cumulative rotor already maps
    every stage from j - 1 upward onto its target and never disturbs the
    stages matched earlier."""
    for _ in range(10):
        frame = random_frame(rng, 4)
        rot_true = random_rotor(rng, 4)
        ys = [sandwich(rot_true, x) for x in frame]
        v = flag_from_basis(frame)
        w = flag_from_basis(ys)
        _, steps = align_flags(v, w, return_steps=True)
        dim = 4
        acc = Multivector.scalar(dim, 1.0)
        for step_index, step in enumerate(steps):
            acc = geometric_product(step, acc)
            j = dim - 1 - step_index  # stage the step just aligned
            for i in range(j, dim + 1):
                got = sandwich(acc, v.blades[i - 1])
                assert np.max(np.abs(got.coeffs - w.blades[i - 1].coeffs)) < 1e-9


def test_align_flags_top_blade_mismatch():
    v = flag_from_basis([e(3, 1), e(3, 2), e(3, 3)])
    w = flag_from_basis([e(3, 2), e(3, 1), e(3, 3)])  # reflected orientation
    with pytest.raises(FlagMismatch):
        align_flags(v, w)


def test_align_flags_antipodal_recovery():
    # the first stages are opposite lines; the step-1 normals are antipodal
    v = flag_from_basis([e(3, 1), e(3, 2), e(3, 3)])
    w = flag_from_basis([-e(3, 1), -e(3, 2), e(3, 3)])
    rot = align_flags(v, w)
    assert sandwich(rot, e(3, 1)).isclose(-e(3, 1), atol=1e-10)
    assert sandwich(rot, e(3, 2)).isclose(-e(3, 2), atol=1e-10)
    assert sandwich(rot, e(3, 3)).isclose(e(3, 3), atol=1e-10)


def test_align_flags_antipodal_recovery_4d():
    v = flag_from_basis([e(4, 2), e(4, 3), e(4, 1), e(4, 4)])
    w = flag_from_basis([-e(4, 2), -e(4, 3), e(4, 1), e(4, 4)])
    rot = align_flags(v, w)
    for a, b in zip(v.blades, w.blades):
        assert np.max(np.abs(sandwich(rot, a).coeffs - b.coeffs)) < 1e-10


def test_align_flags_loop_variant_agrees(rng):
    """Using the target-side next blade in the hyperplane construction agrees
    with using the updated source-side blade (they coincide by induction)."""
    for _ in range(20):
        frame = random_frame(rng, 3)
        rot_true = random_rotor(rng, 3)
        ys = [sandwich(rot_true, x) for x in frame]
        v = flag_from_basis(frame)
        w = flag_from_basis(ys)
        rot = align_flags(v, w)

        # variant: hyperplanes from the updated source flag
        acc = Multivector.scalar(3, 1.0)
        for i in range(2, 0, -1):
            vi = sandwich(acc, v.blades[i - 1])
            v_next = sandwich(acc, v.blades[i])
            nxt_dual = dual(v_next)
            h_v = outer_product(vi, nxt_dual)
            h_w = outer_product(w.blades[i - 1], dual(w.blades[i]))
            n_v = normalize(dual(h_v))
            n_w = normalize(dual(h_w))
            step = normalize(geometric_product(n_w, n_v) + 1.0)
            acc = geometric_product(step, acc)
        for x in frame:
            a = sandwich(rot, x)
            b = sandwich(Rotor(acc, tol=1e-9), x)
            assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-9


# --------------------------------------------------------------------------
# base alignment


def test_align_bases_identity(rng):
    frame = random_frame(rng, 3)
    rot = align_bases(FramePair(tuple(frame), tuple(frame)))
    for x in frame:
        assert sandwich(rot, x).isclose(x, atol=1e-10)


def test_align_bases_matches_matrix_oracle(rng):
    # known rotation: quarter turn about the third axis composed with a
    # half-angle tilt, built directly as an orthogonal matrix
    c, s = np.cos(0.7), np.sin(0.7)
    m1 = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    c2, s2 = np.cos(-1.2), np.sin(-1.2)
    m2 = np.array([[1.0, 0.0, 0.0], [0.0, c2, -s2], [0.0, s2, c2]])
    rot_mat = m1 @ m2
    frame = random_frame(rng, 3)
    ys = [Multivector.from_vector(3, rot_mat @ x.vector_coords()) for x in frame]
    rot = align_bases(FramePair(tuple(frame), tuple(ys)))
    assert np.allclose(rot.matrix(), rot_mat, atol=1e-9)


def test_align_bases_rejects_gram_mismatch():
    xs = (e(3, 1), e(3, 2), e(3, 3))
    ys = (2.0 * e(3, 1), e(3, 2), e(3, 3))
    with pytest.raises(FlagMismatch):
        align_bases(FramePair(xs, ys))


def test_align_bases_rejects_reflection():
    xs = (e(3, 1), e(3, 2), e(3, 3))
    ys = (e(3, 2), e(3, 1), e(3, 3))  # equal Grams, opposite pseudoscalar
    with pytest.raises(FlagMismatch):
        align_bases(FramePair(xs, ys))


def test_align_bases_roundtrip_property(rng):
    for dim in (3, 4):
        for _ in range(25):
            frame = random_frame(rng, dim)
            rot_true = random_rotor(rng, dim)
            ys = tuple(sandwich(rot_true, x) for x in frame)
            rot = align_bases(FramePair(tuple(frame), ys))
            for x, y in zip(frame, ys):
                assert np.max(np.abs(sandwich(rot, x).coeffs - y.coeffs)) < 1e-9


# --------------------------------------------------------------------------
# model flags


def test_frame_flag_36_reference_target(ref36_target):
    flag = frame_flag_36(ref36_target)
    x = grade_project(ref36_target, 1)
    zs = dual(grade_project(ref36_target, 2))
    assert flag.blades[0].isclose(normalize(x), atol=1e-12)
    assert flag.blades[1].isclose(normalize(outer_product(normalize(x), normalize(zs))), atol=1e-12)
    assert flag.blades[2].isclose(pseudoscalar(3))
    assert flag_is_nested(flag, tol=1e-9)


def test_frame_flag_36_fixed_dual_sign():
    q = mv(3, e1=1.0, e12=1.0)
    flag = frame_flag_36(q)
    # dual(e12) = -e3 under the A* = A I convention
    assert flag.blades[0].isclose(mv(3, e1=1.0))
    assert flag.blades[1].isclose(mv(3, e13=-1.0))


def test_frame_flag_36_degenerate_cases():
    with pytest.raises(DegenerateConfiguration):
        frame_flag_36(mv(3, e1=1.0, e23=1.0))  # x parallel to the bivector normal
    with pytest.raises(DegenerateConfiguration):
        frame_flag_36(mv(3, e1=1.0))  # no bivector part
    with pytest.raises(DegenerateConfiguration):
        frame_flag_36(mv(3, e12=1.0))  # no vector part


def test_frame_flag_47_reference_target(ref47_target):
    flag = frame_flag_47(ref47_target)
    assert len(flag) == 4
    assert flag_is_nested(flag, tol=1e-9)
    # the second stage contains e1, so its blade wedges e1 to zero
    assert outer_product(Multivector.basis_vector(4, 1), flag.blades[1]).norm() < 1e-12


def test_frame_flag_47_degenerate_cases():
    # grade-2 part proportional to e1 ^ l: the 3-space stage collapses
    q = mv(4, e2=1.0, e12=-1.0)
    with pytest.raises(DegenerateConfiguration):
        frame_flag_47(q)
    # contraction of l onto y vanishes: the plane stage collapses
    q2 = mv(4, e2=1.0, e13=1.0)
    with pytest.raises(DegenerateConfiguration):
        frame_flag_47(q2)


def test_frame_flag_47_random_nesting(rng):
    count = 0
    while count < 15:
        l = rng.uniform(-1, 1, size=3)
        w = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(np.cross(l, w)) < 0.1 or abs(np.dot(l, w)) < 0.1:
            continue
        q = mv(
            4,
            e1=rng.uniform(-1, 1),
            e2=l[0],
            e3=l[1],
            e4=l[2],
            e12=w[0],
            e13=w[1],
            e14=w[2],
        )
        flag = frame_flag_47(q)
        assert flag_is_nested(flag, tol=1e-8)
        count += 1


def test_flag_margin_equals_the_written_out_formula(rng):
    # 36: sin of the angle between x and z_vec = (z23, -z13, z12); 47: the
    # smaller of |cos| and sin of the angle between l and (y12, y13, y14);
    # 0 when a part is below 1e-6.  Bit for bit on random points, a quarter
    # with a vanishing vector part, a quarter with a vanishing bivector part
    # and a quarter on the collinearity locus
    cases = ((Model.M36, Model36Point, ("e1", "e2", "e3"),
              ((1.0, "e23"), (-1.0, "e13"), (1.0, "e12"))),
             (Model.M47, Model47Point, ("e2", "e3", "e4"),
              ((1.0, "e12"), (1.0, "e13"), (1.0, "e14"))))
    for model, point_cls, vec, biv in cases:
        dim = point_cls.origin().mv.dim
        for i in range(400):
            a, b = rng.uniform(-2.0, 2.0, size=(2, 3))
            a *= i % 4 != 1
            b = b * (i % 4 != 2) if i % 4 != 3 else rng.uniform(-2.0, 2.0) * a
            c = dict(zip(vec, a)) | {name: sign * v for (sign, name), v in zip(biv, b)}
            if model is Model.M47:
                c["e1"] = rng.uniform(-2.0, 2.0)
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na < 1e-6 or nb < 1e-6:
                want = 0.0
            else:
                sine = float(np.linalg.norm(np.cross(a / na, b / nb)))
                want = sine if model is Model.M36 else float(min(abs(np.dot(a / na, b / nb)), sine))
            got = flag_margin(model, point_cls(blades_to_mv(dim, c)))
            assert got == want and 0.0 <= got <= 1.0
            assert got < 1e-12 if i % 4 else got > 0.0


def test_model_flag_alignment_fixes_e1(rng):
    """Aligning the flags of two points with equal invariants never moves e1."""
    e1 = Multivector.basis_vector(4, 1)
    for _ in range(25):
        l = rng.uniform(-1, 1, size=3)
        w = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(np.cross(l, w)) < 0.1 or abs(np.dot(l, w)) < 0.1:
            continue
        q = mv(4, e1=0.5, e2=l[0], e3=l[1], e4=l[2], e12=w[0], e13=w[1], e14=w[2])
        rot_true = random_rotor(rng, 4, fix_e1=True)
        q2 = sandwich(rot_true, q)
        rot = align_flags(frame_flag_47(q), frame_flag_47(q2))
        assert np.max(np.abs(sandwich(rot, e1).coeffs - e1.coeffs)) < 1e-10
        assert np.max(np.abs(sandwich(rot, q).coeffs - q2.coeffs)) < 1e-8


def test_model_flag_alignment_innermost_step_trivial(rng):
    """For flags of invariant-matched points of the 4-dimensional model the
    line stage is already aligned when its turn comes; checked empirically."""
    for _ in range(15):
        l = rng.uniform(-1, 1, size=3)
        w = rng.uniform(-1, 1, size=3)
        if np.linalg.norm(np.cross(l, w)) < 0.1 or abs(np.dot(l, w)) < 0.1:
            continue
        q = mv(4, e1=0.2, e2=l[0], e3=l[1], e4=l[2], e12=w[0], e13=w[1], e14=w[2])
        rot_true = random_rotor(rng, 4, fix_e1=True)
        q2 = sandwich(rot_true, q)
        _, steps = align_flags(
            frame_flag_47(q), frame_flag_47(q2), return_steps=True
        )
        innermost = steps[-1]
        assert innermost.isclose(Multivector.scalar(4, 1.0), atol=1e-8) or innermost.isclose(
            Multivector.scalar(4, -1.0), atol=1e-8
        )


# --------------------------------------------------------------------------
# reference rotors


def test_reference_alignment_steps_36(ref36_target):
    """The alignment steps for the reference case reproduce the documented
    step rotors to their printed precision."""
    from carnotga import GeodesicParams36, representative_geodesic_36
    from conftest import REF36_CONSTANTS as c

    params = GeodesicParams36(K=c["K"], D=c["D"], C3=c["C3"], t_final=c["t"])
    qo = representative_geodesic_36(params, c["t"])
    rot, steps = align_flags(
        frame_flag_36(qo.mv), frame_flag_36(ref36_target), return_steps=True
    )
    step2 = blades_to_mv(3, REF36_ROTOR_STEP2)
    step1 = blades_to_mv(3, REF36_ROTOR_STEP1)
    assert np.max(np.abs(steps[0].coeffs - step2.coeffs)) < 5e-4
    assert np.max(np.abs(steps[1].coeffs - step1.coeffs)) < 5e-4
    mapped = sandwich(rot, qo.mv)
    assert np.max(np.abs(mapped.coeffs - ref36_target.coeffs)) < 5e-3


def test_reference_alignment_steps_47(ref47_target):
    """The documented rotors of the second reference case are the reverses of
    the aligning steps (they map the target flag back onto the origin flag);
    the composed actions agree."""
    from carnotga import GeodesicParams47, representative_geodesic_47
    from conftest import REF47_CONSTANTS as c

    params = GeodesicParams47(K=c["K"], C1=c["C1"], C2=c["C2"], C=c["C"], t_final=c["t"])
    qo = representative_geodesic_47(params, c["t"])
    rot, steps = align_flags(
        frame_flag_47(qo.mv), frame_flag_47(ref47_target), return_steps=True
    )
    step3_doc = blades_to_mv(4, REF47_ROTOR_STEP3)
    assert np.max(np.abs(steps[0].coeffs - reverse(step3_doc).coeffs)) < 5e-4
    # innermost step is trivial, as documented
    assert steps[-1].isclose(Multivector.scalar(4, 1.0), atol=1e-6)
    # composing the documented factors in reverse gives the same action
    step2_doc = blades_to_mv(4, REF47_ROTOR_STEP2)
    composed = Rotor(
        normalize(geometric_product(reverse(step3_doc), reverse(step2_doc))), tol=1e-3
    )
    got = sandwich(composed, qo.mv)
    want = sandwich(rot, qo.mv)
    assert np.max(np.abs(got.coeffs - want.coeffs)) < 5e-3
    assert np.max(np.abs(want.coeffs - ref47_target.coeffs)) < 5e-3


def test_flag_frames_degenerate_where_the_flags_do(rng):
    # spec.frame reads raw coefficients and raises DegenerateConfiguration,
    # with the same message, exactly where frame_flag_36/47 raise it.  400
    # random points per model: a quarter generic, a quarter with a vector or
    # bivector part that vanishes or nearly does, a quarter on the
    # collinearity locus (for 47 also where l . y vanishes) and a quarter near
    # it.  Where it does not raise, the frame is orthonormal and right-handed
    # and its first column is the flag's line; at generic points its first
    # two columns span the flag's plane, for 36 with the opposite orientation
    # (x ^ z_vec = -(x ^ z I)), for 47 together with e1 its 3-space
    for model, flag_of in ((Model.M36, frame_flag_36), (Model.M47, frame_flag_47)):
        spec = _spec(model)
        dim = spec.dim
        raised = 0
        for i in range(400):
            a, b = rng.uniform(-2.0, 2.0, size=(2, 3))
            tiny = 10.0 ** rng.uniform(-12.0, -6.0)
            if i % 4 == 1:
                a, b = (a * tiny, b) if i % 8 == 1 else (a, b * tiny)
            elif i % 4 >= 2:
                perpendicular = model is Model.M47 and i % 8 >= 6
                b = b - (a @ b) / (a @ a) * a if perpendicular else rng.uniform(-2.0, 2.0) * a
                if i % 4 == 3:
                    b = b + tiny * rng.uniform(-1.0, 1.0, size=3)
            # 36: x = a and (z23, -z13, z12) = b, so the dual vector z I is -b; 47: l = a, y = b
            raw = np.r_[a, b[2], -b[1], b[0]] if model is Model.M36 else np.r_[rng.uniform(-2, 2), a, b]
            point = spec.mv(raw)
            try:
                flag = flag_of(point)
            except DegenerateConfiguration as exc:
                raised += 1
                with pytest.raises(DegenerateConfiguration, match=f"^{exc}$"):
                    spec.frame(raw)
                continue
            frame = spec.frame(raw)
            assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-12
            assert np.linalg.det(frame) == pytest.approx(1.0, abs=1e-12)
            f1, f2 = (Multivector.from_vector(dim, np.r_[np.zeros(dim - 3), col]) for col in frame.T[:2])
            assert f1.isclose(flag.blades[0], atol=1e-12)
            if i % 4 == 0:  # near the locus the plane is known to about 1e-16 / margin
                span = outer_product(f1, f2) if model is Model.M36 else outer_product(outer_product(f1, e(4, 1)), f2)
                assert span.isclose(-flag.blades[1] if model is Model.M36 else flag.blades[2], atol=1e-12)
        assert 150 <= raised <= 300
