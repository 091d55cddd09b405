"""Algebra kernel tests: fixed examples, a brute-force table oracle, and
hypothesis properties for the identities everything downstream leans on."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotga import (
    Multivector,
    NearZeroNorm,
    Rotor,
    dual,
    geometric_product,
    grade_project,
    inner_product,
    norm,
    normalize,
    outer_product,
    pseudoscalar,
    reverse,
    rotor_between_vectors,
    sandwich,
)
from conftest import mv, random_rotor, random_unit_vector

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def mv_strategy(dim):
    return st.lists(coeff, min_size=1 << dim, max_size=1 << dim).map(
        lambda c: Multivector(dim, c)
    )


def vector_strategy(dim):
    return st.lists(coeff, min_size=dim, max_size=dim).map(
        lambda c: Multivector.from_vector(dim, c)
    )


# --------------------------------------------------------------------------
# brute-force product oracle on basis blades


def _oracle_blade_product(a_bits, b_bits, dim):
    """Multiply basis blades by explicit list manipulation: concatenate the
    ascending factor lists, bubble-sort counting swaps, cancel equal
    neighbours (square +1).  Independent of the bit-twiddling kernel."""
    factors = [i for i in range(dim) if a_bits >> i & 1] + [
        i for i in range(dim) if b_bits >> i & 1
    ]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            if factors[i] > factors[i + 1]:
                factors[i], factors[i + 1] = factors[i + 1], factors[i]
                sign = -sign
                changed = True
    out = []
    for f in factors:
        if out and out[-1] == f:
            out.pop()
        else:
            out.append(f)
    bits = 0
    for f in out:
        bits |= 1 << f
    return bits, sign


def test_geometric_product_matches_bruteforce_oracle_g3():
    dim = 3
    for a in range(8):
        for b in range(8):
            ea = Multivector(dim, np.eye(8)[a])
            eb = Multivector(dim, np.eye(8)[b])
            got = geometric_product(ea, eb)
            bits, sign = _oracle_blade_product(a, b, dim)
            want = np.zeros(8)
            want[bits] = sign
            assert np.allclose(got.coeffs, want), (a, b)


# --------------------------------------------------------------------------
# fixed examples


def test_geometric_product_basis_cases():
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    assert geometric_product(e1, e1).isclose(Multivector.scalar(3, 1.0))
    assert geometric_product(e1, e2).isclose(mv(3, e12=1.0))


def test_geometric_product_reflection_composition():
    # (1 + e2 e1) e1 (1 + e1 e2) doubles the rotated vector: 2 e2
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    left = geometric_product(e2, e1) + 1.0
    right = geometric_product(e1, e2) + 1.0
    out = geometric_product(geometric_product(left, e1), right)
    assert out.isclose(mv(3, e2=2.0))


def test_geometric_product_dimension_mismatch():
    with pytest.raises(ValueError):
        geometric_product(Multivector.zero(3), Multivector.zero(4))


def test_outer_product_cases():
    e1 = Multivector.basis_vector(3, 1)
    assert outer_product(e1, e1).isclose(Multivector.zero(3))
    assert outer_product(e1, mv(3, e23=1.0)).isclose(pseudoscalar(3))
    a = mv(3, e1=2.0, e2=-1.0)
    b = mv(3, e1=1.0, e3=3.0)
    assert outer_product(a, b).isclose(mv(3, e12=1.0, e13=6.0, e23=-3.0))


def test_inner_product_cases():
    e1 = Multivector.basis_vector(3, 1)
    e3 = Multivector.basis_vector(3, 3)
    b12 = mv(3, e12=1.0)
    assert inner_product(e1, e1).isclose(Multivector.scalar(3, 1.0))
    # signed deletion: the convention is pinned so that u v = u.v + u^v holds
    assert inner_product(e1, b12).isclose(mv(3, e2=1.0))
    assert inner_product(Multivector.basis_vector(3, 2), b12).isclose(mv(3, e1=-1.0))
    assert inner_product(e3, b12).isclose(Multivector.zero(3))


def test_inner_product_scalar_rules():
    one = Multivector.scalar(3, 1.0)
    assert inner_product(one, mv(3, e12=2.0)).isclose(Multivector.zero(3))
    assert inner_product(one, Multivector.basis_vector(3, 1)).isclose(Multivector.zero(3))
    # scalar against scalar is plain multiplication
    assert inner_product(Multivector.scalar(3, 3.0), Multivector.scalar(3, 5.0)).isclose(
        Multivector.scalar(3, 15.0)
    )
    # grade of the left argument above the right contracts to zero
    assert inner_product(mv(3, e12=1.0), Multivector.basis_vector(3, 1)).isclose(
        Multivector.zero(3)
    )


def test_dual_cases():
    assert dual(Multivector.scalar(3, 1.0)).isclose(pseudoscalar(3))
    assert dual(mv(3, e12=1.0)).isclose(mv(3, e3=-1.0))


def test_cross_product_identity_example():
    e1 = Multivector.basis_vector(3, 1)
    e2 = Multivector.basis_vector(3, 2)
    assert (-dual(outer_product(e1, e2))).isclose(Multivector.basis_vector(3, 3))


@given(u=vector_strategy(3), v=vector_strategy(3))
@settings(max_examples=60, deadline=None)
def test_cross_product_identity_random(u, v):
    got = -dual(outer_product(u, v))
    want = np.cross(u.vector_coords(), v.vector_coords())
    assert np.allclose(got.vector_coords(), want, atol=1e-12)
    assert got.grades_present(tol=1e-13) <= {1}


def test_reverse_cases():
    assert reverse(mv(3, e12=1.0)).isclose(mv(3, e12=-1.0))
    a = mv(3, e1=2.0) + 3.0
    assert reverse(a).isclose(a)


@pytest.mark.parametrize("sugar, plain", [
    (lambda a, b: a ^ b, outer_product),
    (lambda a, b: a | b, inner_product),
    (lambda a, b: ~a, lambda a, b: reverse(a)),
    (lambda a, b: a * b, geometric_product),
    (lambda a, b: a - 2.0,
     lambda a, b: Multivector(a.dim, np.append(a.coeffs[0] - 2.0, a.coeffs[1:]))),
    (lambda a, b: norm(a), lambda a, b: a.norm()),
], ids=["outer", "inner", "reverse", "geometric", "scalar_sub", "norm"])
def test_operator_sugar_gives_the_bits_of_the_named_operation(sugar, plain):
    rng = np.random.default_rng(17)
    for dim in (3, 4):
        a, b = (Multivector(dim, rng.uniform(-1.0, 1.0, size=1 << dim)) for _ in range(2))
        got, want = sugar(a, b), plain(a, b)
        if isinstance(want, Multivector):
            got, want = got.coeffs, want.coeffs
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_norm_cases():
    assert mv(3, e1=3.0).norm() == pytest.approx(3.0)
    assert mv(3, e12=1.0, e23=1.0).norm() == pytest.approx(np.sqrt(2.0))
    with pytest.raises(NearZeroNorm):
        normalize(Multivector.zero(3))


def test_norm_equals_algebraic_magnitude(rng):
    # |a|^2 = <a ~a>_0 in the positive-definite metric
    for _ in range(20):
        a = Multivector(3, rng.uniform(-1, 1, size=8))
        alg = geometric_product(a, reverse(a)).scalar_part
        assert a.norm() ** 2 == pytest.approx(alg, abs=1e-12)


def test_grade_project_cases():
    a = mv(3, e1=1.0, e12=1.0) + 1.0
    assert grade_project(a, 1).isclose(mv(3, e1=1.0))
    with pytest.raises(ValueError):
        grade_project(a, 5)


@given(a=mv_strategy(3))
@settings(max_examples=60, deadline=None)
def test_grade_partition(a):
    total = Multivector.zero(3)
    for r in range(4):
        total = total + grade_project(a, r)
    assert total.isclose(a)


def test_sandwich_identity_rotor():
    a = mv(3, e1=1.0, e23=-2.0)
    assert sandwich(Rotor.identity(3), a).isclose(a)


def test_multivector_validation():
    with pytest.raises(ValueError):
        Multivector(3, [0.0] * 7)
    with pytest.raises(ValueError):
        Multivector(3, [np.nan] + [0.0] * 7)
    with pytest.raises(ValueError):
        Multivector(3, [np.inf] + [0.0] * 7)


def test_rotor_rejects_bad_elements():
    with pytest.raises(ValueError):
        Rotor(mv(3, e1=1.0))  # odd grade
    with pytest.raises(ValueError):
        Rotor(Multivector.scalar(3, 2.0))  # not unit


# --------------------------------------------------------------------------
# properties


@given(a=mv_strategy(3), b=mv_strategy(3), c=mv_strategy(3))
@settings(max_examples=60, deadline=None)
def test_associativity(a, b, c):
    left = geometric_product(geometric_product(a, b), c)
    right = geometric_product(a, geometric_product(b, c))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


@given(u=vector_strategy(4), v=vector_strategy(4))
@settings(max_examples=60, deadline=None)
def test_vector_product_decomposition(u, v):
    whole = geometric_product(u, v)
    split = inner_product(u, v) + outer_product(u, v)
    assert np.allclose(whole.coeffs, split.coeffs, atol=1e-13)


@pytest.mark.parametrize("dim", [3, 4])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_duality_identity(dim, data):
    x = data.draw(vector_strategy(dim))
    a = data.draw(mv_strategy(dim))
    left = geometric_product(outer_product(x, a), pseudoscalar(dim))
    right = inner_product(x, dual(a))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


@given(a=mv_strategy(4), b=mv_strategy(4))
@settings(max_examples=60, deadline=None)
def test_reverse_anti_automorphism(a, b):
    left = reverse(geometric_product(a, b))
    right = geometric_product(reverse(b), reverse(a))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


@pytest.mark.parametrize("dim", [3, 4])
def test_rotor_unitality_and_isometry(dim, rng):
    for _ in range(25):
        rot = random_rotor(rng, dim)
        check = geometric_product(rot.mv, reverse(rot.mv))
        defect = check.coeffs.copy()
        defect[0] -= 1.0
        assert np.max(np.abs(defect)) < 1e-12
        a = Multivector(dim, rng.uniform(-1, 1, size=1 << dim))
        b = Multivector(dim, rng.uniform(-1, 1, size=1 << dim))
        ra, rb = sandwich(rot, a), sandwich(rot, b)
        assert ra.norm() == pytest.approx(a.norm(), abs=1e-10)
        ip_before = inner_product(a, b).scalar_part
        ip_after = inner_product(ra, rb).scalar_part
        assert ip_after == pytest.approx(ip_before, abs=1e-10)


@pytest.mark.parametrize("dim", [3, 4])
def test_sandwich_preserves_grades_of_blades(dim, rng):
    for _ in range(10):
        rot = random_rotor(rng, dim)
        v = random_unit_vector(rng, dim)
        out = sandwich(rot, v)
        assert out.grades_present(tol=1e-12) <= {1}
        biv = outer_product(v, random_unit_vector(rng, dim))
        if biv.norm() > 1e-6:
            out2 = sandwich(rot, biv)
            assert out2.grades_present(tol=1e-12) <= {2}


def test_rotor_between_vectors_maps_and_preserves(rng):
    for _ in range(25):
        x = random_unit_vector(rng, 3)
        y = random_unit_vector(rng, 3)
        if float(np.dot(x.vector_coords(), y.vector_coords())) < -0.999:
            continue
        rot = rotor_between_vectors(x, y)
        assert np.allclose(sandwich(rot, x).coeffs, y.coeffs, atol=1e-12)


@pytest.mark.parametrize("dim", [3, 4])
def test_rotor_from_matrix_acts_as_the_rotor(dim, rng):
    # random rotors as in criterion 6, then rotors fixing e1 as the symmetry
    # of the 47 model does: the extracted rotor acts as the drawn one on
    # every basis blade, and a drawn rotor fixing e1 gives one without e1
    blades = [Multivector(dim, row) for row in np.eye(1 << dim)]
    e1 = Multivector.basis_vector(dim, 1)
    draws = [(random_rotor(rng, dim), False) for _ in range(300)]
    draws += [(random_rotor(rng, dim, fix_e1=True), True) for _ in range(300 if dim == 4 else 0)]
    for rot, fixes_e1 in draws:
        got = Rotor.from_matrix(rot.matrix())
        for a in blades:
            assert np.max(np.abs(sandwich(got, a).coeffs - sandwich(rot, a).coeffs)) < 1e-12
        if fixes_e1:
            assert np.all(got.coeffs[[3, 5, 9, 15]] == 0.0)  # e12, e13, e14, e1234
            assert np.max(np.abs(sandwich(got, e1).coeffs - e1.coeffs)) < 1e-15


@pytest.mark.parametrize("dim", [3, 4])
def test_rotor_from_matrix_is_exact_at_half_turns(dim):
    # the identity and every half-turn in a coordinate plane (and in G_4 the
    # turns of two planes at once) come back exactly
    for signs in itertools.product((1.0, -1.0), repeat=dim):
        if np.prod(signs) < 0:
            continue
        want = np.diag(signs)
        got = Rotor.from_matrix(want)
        assert np.array_equal(got.matrix(), want)
        assert np.count_nonzero(got.coeffs) == 1
    assert np.array_equal(Rotor.from_matrix(np.eye(dim)).coeffs, Rotor.identity(dim).coeffs)


def test_rotor_from_matrix_rejects_other_matrices():
    for bad in (np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, 1.0, 1.0, -1.0]), 2.0 * np.eye(3),
                np.eye(2), np.eye(5), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError):
            Rotor.from_matrix(bad)
