"""Rotor construction between congruent frames via complete flags.

Two bases of R^m with equal Gram matrices and equal top wedge are related by
a rotation.  The rotor realizing it is built in m - 1 steps: walk the nested
flag blades from the hyperplane down to the line, and at each stage rotate
the current image of the flag onto the target flag inside the subspace that
previous steps already matched.  Each step reduces to the two-vector rotor
formula applied to hyperplane normals, so the whole construction stays in
the algebra (no matrices, no eigen decompositions).

The step rotor between unit hyperplane normals n_v, n_w is normalize(1 +
n_w n_v), which maps n_v to n_w.  When the normals are antipodal that
formula degenerates; the recovery composes a half-turn in a plane spanned by
n_w and a unit vector picked inside the stage subspace, which flips the
stage blade onto its target while fixing the already-aligned stages.

The model flags also have orthonormal frames, read off raw coefficients by
``_ModelSpec.frame`` in ``models``: the steering pipeline builds its rotor
from the rotation between two such frames, and this flag walk is its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalVectors,
    DegenerateConfiguration,
    DependentVectors,
    FlagMismatch,
)
from .ga import (
    Multivector,
    Rotor,
    dual,
    geometric_product,
    grade_project,
    inner_product,
    normalize,
    outer_product,
    pseudoscalar,
    reverse,
    sandwich,
)

# stage norms below this, after the inputs themselves are normalized, are
# treated as degenerate rather than regularized
DEGENERATE_TOL = 1e-9

# threshold on 1 + n_w . n_v below which the two-vector rotor formula is
# abandoned for the half-turn recovery
ANTIPODAL_TOL = 1e-10


@dataclass(frozen=True)
class Flag:
    """Complete flag encoded as normalized partial-wedge blades.

    ``blades[i]`` has grade i + 1; the represented subspace chain is the
    outer-product null space of each blade.  Blades are normalized on
    construction, so only their orientation carries information beyond the
    subspace itself.
    """

    blades: tuple

    def __post_init__(self):
        if not self.blades:
            raise ValueError("flag needs at least one blade")
        dim = self.blades[0].dim
        normed = []
        for i, b in enumerate(self.blades):
            if b.dim != dim:
                raise ValueError("flag blades live in different algebras")
            if b.grades_present(tol=1e-14) != {i + 1}:
                raise ValueError(f"flag stage {i + 1} is not a pure grade-{i + 1} blade")
            normed.append(normalize(b))
        object.__setattr__(self, "blades", tuple(normed))

    @property
    def dim(self) -> int:
        return self.blades[0].dim

    def __len__(self) -> int:
        return len(self.blades)


@dataclass(frozen=True)
class FramePair:
    """Two bases of R^m expected to be congruent (equal Grams, equal top wedge)."""

    xs: tuple
    ys: tuple

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        object.__setattr__(self, "ys", tuple(self.ys))
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("frame lists must be non-empty and of equal length")
        dim = self.xs[0].dim
        for v in (*self.xs, *self.ys):
            if v.dim != dim or v.grades_present(tol=1e-14) - {1}:
                raise ValueError("frames must consist of grade-1 vectors")
        if len(self.xs) != dim:
            raise ValueError(f"expected {dim} vectors per frame, got {len(self.xs)}")

    @property
    def dim(self) -> int:
        return self.xs[0].dim

    def gram_defect(self) -> float:
        """Largest difference between corresponding Gram entries."""
        worst = 0.0
        for i, (xi, yi) in enumerate(zip(self.xs, self.ys)):
            for xj, yj in zip(self.xs[i:], self.ys[i:]):
                gx = inner_product(xi, xj).scalar_part
                gy = inner_product(yi, yj).scalar_part
                worst = max(worst, abs(gx - gy))
        return worst

    def pseudoscalar_defect(self) -> float:
        px = _wedge_all(self.xs)
        py = _wedge_all(self.ys)
        return float(np.max(np.abs(px.coeffs - py.coeffs)))

    def validate(self, tol: float = 1e-9):
        scale = max(1.0, max(v.norm() for v in self.xs) ** 2)
        if self.gram_defect() > tol * scale:
            raise FlagMismatch("frames have different Gram matrices")
        if self.pseudoscalar_defect() > tol * scale ** (self.dim / 2):
            raise FlagMismatch("frames have different pseudoscalars")


def _wedge_all(vectors) -> Multivector:
    acc = vectors[0]
    for v in vectors[1:]:
        acc = outer_product(acc, v)
    return acc


def rotor_between_vectors(x: Multivector, y: Multivector, tol: float = 1e-9) -> Rotor:
    """Rotor mapping unit vector x to unit vector y in the plane x^y.

    Built as normalize(1 + y x), which equals cos(t/2) + sin(t/2) on the
    unit bivector of y^x for the angle t between the vectors, and acts
    trivially on the orthogonal complement of the plane.
    """
    for v in (x, y):
        if v.grades_present(tol=1e-14) - {1}:
            raise ValueError("rotor_between_vectors expects grade-1 inputs")
        if abs(v.norm() - 1.0) > tol:
            raise ValueError("rotor_between_vectors expects unit inputs")
    d = inner_product(y, x).scalar_part
    if 1.0 + d <= ANTIPODAL_TOL:
        raise AntipodalVectors("vectors are antipodal; the rotor plane is undefined")
    u = geometric_product(y, x) + 1.0
    return Rotor(normalize(u))


def flag_from_basis(vectors, tol: float = 1e-12) -> Flag:
    """Complete flag of partial wedges x_1, x_1^x_2, ..., x_1^...^x_m."""
    vectors = list(vectors)
    if not vectors:
        raise ValueError("empty basis")
    dim = vectors[0].dim
    if len(vectors) != dim:
        raise ValueError(f"expected {dim} vectors for a complete flag in G_{dim}")
    blades = []
    acc = None
    for v in vectors:
        acc = v if acc is None else outer_product(acc, v)
        if acc.norm() <= tol:
            raise DependentVectors(
                f"partial wedge of the first {len(blades) + 1} vectors is numerically zero"
            )
        blades.append(acc)
    return Flag(tuple(blades))


def _project_vector(a: Multivector, blade: Multivector) -> Multivector:
    """Orthogonal projection of vector a onto the subspace of a unit blade."""
    g = max(blade.grades_present(tol=1e-14), default=0)
    if g == 1:
        return geometric_product(inner_product(a, blade), blade)
    return inner_product(inner_product(a, blade), reverse(blade))


def _subspace_unit(blade: Multivector, n_w: Multivector) -> Multivector:
    """Unit vector inside the blade's subspace, preferring directions away
    from e1 so that symmetry constraints on the first axis survive recovery."""
    dim = blade.dim
    candidates = []
    for k in range(1, dim + 1):
        p = _project_vector(Multivector.basis_vector(dim, k), blade)
        nrm = p.norm()
        if nrm > 1e-6:
            u = p / nrm
            candidates.append((abs(u.coeffs[1]), k, u))
    if not candidates:
        raise FlagMismatch("could not find a direction inside a flag stage")
    candidates.sort(key=lambda c: (round(c[0], 6), c[1]))
    u = candidates[0][2]
    # strip any numerical leakage along the normal
    u = u - geometric_product(inner_product(u, n_w), n_w)
    return normalize(u)


def align_flags(v_flag: Flag, w_flag: Flag, tol: float = 1e-9, return_steps: bool = False):
    """Rotor R with sandwich(R, V_i) = W_i for every stage of two flags.

    The loop runs from the hyperplane stage down to the line, updating the
    source flag by the partial rotor before each step.  Requires equal-length
    flags over the same algebra whose top blades already coincide.
    """
    if v_flag.dim != w_flag.dim or len(v_flag) != len(w_flag):
        raise FlagMismatch("flags have different length or dimension")
    dim = v_flag.dim
    if len(v_flag) != dim:
        raise FlagMismatch("complete flags are required")
    top_gap = np.max(np.abs(v_flag.blades[-1].coeffs - w_flag.blades[-1].coeffs))
    if top_gap > tol:
        raise FlagMismatch(
            f"top blades differ by {top_gap:.3e}; frames are not co-oriented"
        )

    acc = Multivector.scalar(dim, 1.0)
    steps = []
    for i in range(dim - 1, 0, -1):
        vi = sandwich(acc, v_flag.blades[i - 1])
        w_next_dual = dual(w_flag.blades[i])
        h_v = outer_product(vi, w_next_dual)
        h_w = outer_product(w_flag.blades[i - 1], w_next_dual)
        if h_v.norm() <= DEGENERATE_TOL or h_w.norm() <= DEGENERATE_TOL:
            raise FlagMismatch(f"stage {i} does not sit inside stage {i + 1}")
        n_v = normalize(dual(h_v))
        n_w = normalize(dual(h_w))
        d = inner_product(n_w, n_v).scalar_part
        if 1.0 + d <= ANTIPODAL_TOL:
            # antipodal normals: half-turn in a plane spanned by n_w and a
            # direction inside the stage, which flips the stage blade onto
            # its target and fixes every previously aligned stage
            u = _subspace_unit(vi, n_w)
            step = geometric_product(u, n_w)
        else:
            step = normalize(geometric_product(n_w, n_v) + 1.0)
        steps.append(step)
        acc = geometric_product(step, acc)

    rotor = Rotor(acc, tol=1e-9)
    if return_steps:
        return rotor, steps
    return rotor


def align_bases(pair: FramePair, tol: float = 1e-9) -> Rotor:
    """Rotor mapping each pair.xs[i] to pair.ys[i] for congruent frames."""
    pair.validate(tol=tol)
    v = flag_from_basis(pair.xs)
    w = flag_from_basis(pair.ys)
    return align_flags(v, w, tol=max(tol, 1e-9) * 10.0)


def frame_flag_36(q: Multivector) -> Flag:
    """Flag attached to a point of the 6-dimensional model.

    Stages: the line of the grade-1 part x, the plane spanned by x and the
    dual vector of the grade-2 part z, and the full space.
    """
    if q.dim != 3:
        raise ValueError("frame_flag_36 expects a G_3 element")
    x = grade_project(q, 1)
    z = grade_project(q, 2)
    if x.norm() <= DEGENERATE_TOL or z.norm() <= DEGENERATE_TOL:
        raise DegenerateConfiguration("point has a vanishing vector or bivector part")
    xh = normalize(x)
    zsh = normalize(dual(z))
    plane = outer_product(xh, zsh)
    if plane.norm() <= DEGENERATE_TOL:
        raise DegenerateConfiguration("vector part is parallel to the bivector normal")
    return Flag((xh, plane, pseudoscalar(3)))


def frame_flag_47(q: Multivector) -> Flag:
    """Flag attached to a point of the 7-dimensional model.

    Stages: the line of the component of the grade-1 part orthogonal to e1,
    the plane it spans with the contraction of that component onto the
    grade-2 part, the 3-space it spans with the grade-2 part, and the full
    space.  Alignment of two such flags fixes e1 whenever the attached
    invariants agree, since e1 then sits identically inside both chains.
    """
    if q.dim != 4:
        raise ValueError("frame_flag_47 expects a G_4 element")
    g1 = grade_project(q, 1)
    lvec = g1 - Multivector.blade(4, "e1", g1.coeff("e1"))
    y = grade_project(q, 2)
    if lvec.norm() <= DEGENERATE_TOL or y.norm() <= DEGENERATE_TOL:
        raise DegenerateConfiguration("point has a vanishing vector or bivector part")
    lh = normalize(lvec)
    yh = normalize(y)
    m = inner_product(lh, yh)
    if m.norm() <= DEGENERATE_TOL:
        raise DegenerateConfiguration("contraction of the vector onto the bivector vanishes")
    plane = outer_product(lh, normalize(m))
    if plane.norm() <= DEGENERATE_TOL:
        raise DegenerateConfiguration("flag plane stage collapses")
    space = outer_product(lh, yh)
    if space.norm() <= DEGENERATE_TOL:
        raise DegenerateConfiguration("bivector is dependent on the vector direction")
    return Flag((lh, plane, space, pseudoscalar(4)))


def flag_is_nested(flag: Flag, tol: float = 1e-9) -> bool:
    """Check the subspace chain numerically: every direction inside stage i
    must wedge to zero against stage i + 1."""
    dim = flag.dim
    for i in range(len(flag) - 1):
        blade = flag.blades[i]
        nxt = flag.blades[i + 1]
        for k in range(1, dim + 1):
            p = _project_vector(Multivector.basis_vector(dim, k), blade)
            if p.norm() <= tol:
                continue
            if outer_product(normalize(p), nxt).norm() > tol * 10:
                return False
    return True
