"""Dense geometric algebra kernel for the Euclidean algebras G_m, 1 <= m <= 6.

A multivector is a dense array of 2^m real coefficients indexed by bitmask:
bit i of the index marks the presence of the basis vector e_{i+1}, and every
basis blade is written with ascending factor order, so index 0b101 stands for
e1^e3.  The bilinear form is positive definite, which keeps blade squares and
norms non-negative and makes the coefficient array an orthonormal expansion.

Product conventions, fixed once here and relied on everywhere downstream:

* geometric product: e_A e_B = sign(A, B) e_{A xor B}, with sign(A, B) the
  parity of sorting the concatenation of the two ascending index lists
  (repeated indices contract to +1),
* outer product: the A & B == 0 part of the geometric product,
* inner product: the left contraction.  On basis blades it keeps the pairs
  with A a subset of B and equals the corresponding geometric product term,
  so for a vector u and a blade B it is the signed deletion
  u . (e_{i_1}^...^e_{i_r}) = sum_k (-1)^(k+1) (u . e_{i_k}) e_{B minus i_k}.
  A scalar contracts to zero against anything of grade >= 1, while the
  contraction of a scalar with a scalar is plain multiplication.
* dual: A* = A I with I = e_1...e_m, so I*I = -1 for m = 3 and +1 for m = 4.

These choices satisfy u v = u.v + u^v on vectors and the duality identity
(x^A)I = x.(AI), and they reproduce the worked reference computations used
in the test suite, which is what pins the signs.
"""

from __future__ import annotations

import numpy as np

from .errors import NearZeroNorm

MAX_DIM = 6
EPS = 1e-12

_BLADE_CHARS = "123456"


def _reordering_sign(a: int, b: int) -> float:
    """Parity of merging two ascending blade index lists."""
    a >>= 1
    swaps = 0
    while a:
        swaps += bin(a & b).count("1")
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


class _Tables:
    """Per-dimension product tables, built once and cached."""

    def __init__(self, dim: int):
        n = 1 << dim
        self.n = n
        idx = np.empty((n, n), dtype=np.intp)
        sign = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                idx[a, b] = a ^ b
                sign[a, b] = _reordering_sign(a, b)
        self.flat_idx = idx.ravel()
        self.gp_sign = sign
        grades = np.array([bin(i).count("1") for i in range(n)], dtype=np.intp)
        self.grades = grades
        disjoint = np.array([[(a & b) == 0 for b in range(n)] for a in range(n)])
        self.outer_sign = np.where(disjoint, sign, 0.0)
        # left contraction: A must sit inside B; a scalar contracts to zero
        # against grade >= 1 but multiplies plain scalars
        subset = np.array([[(a & b) == a for b in range(n)] for a in range(n)])
        scalar_kill = np.array([[a == 0 and b != 0 for b in range(n)] for a in range(n)])
        self.inner_sign = np.where(subset & ~scalar_kill, sign, 0.0)
        self.reverse_sign = np.where(grades % 4 < 2, 1.0, -1.0)


_TABLES: dict[int, _Tables] = {}


def _tables(dim: int) -> _Tables:
    tab = _TABLES.get(dim)
    if tab is None:
        tab = _Tables(dim)
        _TABLES[dim] = tab
    return tab


def blade_name(index: int) -> str:
    """Human-readable name of a basis blade ("1", "e2", "e13", ...)."""
    if index == 0:
        return "1"
    return "e" + "".join(c for i, c in enumerate(_BLADE_CHARS) if index >> i & 1)


def blade_index(name: str) -> int:
    """Inverse of :func:`blade_name`; raises ValueError on malformed names."""
    if name == "1":
        return 0
    if not name.startswith("e") or len(name) < 2:
        raise ValueError(f"bad blade name {name!r}")
    index = 0
    prev = 0
    for c in name[1:]:
        pos = _BLADE_CHARS.find(c)
        if pos < 0:
            raise ValueError(f"bad blade name {name!r}")
        if pos + 1 <= prev:
            raise ValueError(f"blade indices must ascend in {name!r}")
        prev = pos + 1
        index |= 1 << pos
    return index


class Multivector:
    """Dense element of G_m with value semantics.

    The coefficient array is copied on construction and frozen, so instances
    can be shared freely.  Operators: ``*`` geometric product, ``^`` outer
    product, ``|`` inner product (left contraction), ``~`` reverse.  Note the
    low precedence of ``^`` and ``|``; parenthesize mixed expressions.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs):
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dimension {dim} outside supported range 1..{MAX_DIM}")
        arr = np.array(coeffs, dtype=float)
        if arr.shape != (1 << dim,):
            raise ValueError(f"expected {1 << dim} coefficients, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite multivector coefficient")
        arr.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim, np.zeros(1 << dim))

    @classmethod
    def scalar(cls, dim: int, value: float) -> "Multivector":
        c = np.zeros(1 << dim)
        c[0] = value
        return cls(dim, c)

    @classmethod
    def basis_vector(cls, dim: int, i: int) -> "Multivector":
        """Unit basis vector e_i, 1-based to match the blade naming."""
        if not 1 <= i <= dim:
            raise ValueError(f"basis index {i} outside 1..{dim}")
        c = np.zeros(1 << dim)
        c[1 << (i - 1)] = 1.0
        return cls(dim, c)

    @classmethod
    def from_vector(cls, dim: int, coords) -> "Multivector":
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (dim,):
            raise ValueError(f"expected {dim} vector coordinates")
        c = np.zeros(1 << dim)
        for i in range(dim):
            c[1 << i] = coords[i]
        return cls(dim, c)

    @classmethod
    def blade(cls, dim: int, name: str, value: float = 1.0) -> "Multivector":
        c = np.zeros(1 << dim)
        idx = blade_index(name)
        if idx >= 1 << dim:
            raise ValueError(f"blade {name!r} does not exist in G_{dim}")
        c[idx] = value
        return cls(dim, c)

    # structure ----------------------------------------------------------

    @property
    def scalar_part(self) -> float:
        return float(self.coeffs[0])

    def vector_coords(self) -> np.ndarray:
        """Grade-1 coordinates as a plain length-m array."""
        return np.array([self.coeffs[1 << i] for i in range(self.dim)])

    def grades_present(self, tol: float = 0.0) -> set[int]:
        tab = _tables(self.dim)
        return {int(g) for g, c in zip(tab.grades, self.coeffs) if abs(c) > tol}

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def coeff(self, name: str) -> float:
        return float(self.coeffs[blade_index(name)])

    def isclose(self, other: "Multivector", atol: float = 1e-12) -> bool:
        return self.dim == other.dim and bool(
            np.all(np.abs(self.coeffs - other.coeffs) <= atol)
        )

    # operators ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Multivector):
            _check_dims(self, other)
            return Multivector(self.dim, self.coeffs + other.coeffs)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] += other
            return Multivector(self.dim, c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Multivector):
            _check_dims(self, other)
            return Multivector(self.dim, self.coeffs - other.coeffs)
        if isinstance(other, (int, float)):
            c = self.coeffs.copy()
            c[0] -= other
            return Multivector(self.dim, c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            c = -self.coeffs
            c[0] += other
            return Multivector(self.dim, c)
        return NotImplemented

    def __neg__(self):
        return Multivector(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return geometric_product(self, other)
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs * other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Multivector(self.dim, self.coeffs / other)
        return NotImplemented

    def __xor__(self, other):
        return outer_product(self, other)

    def __or__(self, other):
        return inner_product(self, other)

    def __invert__(self):
        return reverse(self)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c != 0.0:
                terms.append(f"{c:+.6g}*{blade_name(i)}")
        return "Multivector(" + (" ".join(terms) if terms else "0") + ")"


def _check_dims(a: Multivector, b: Multivector):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: G_{a.dim} vs G_{b.dim}")


def _bilinear(a: Multivector, b: Multivector, sign_table: np.ndarray) -> Multivector:
    tab = _tables(a.dim)
    w = (a.coeffs[:, None] * b.coeffs[None, :]) * sign_table
    out = np.bincount(tab.flat_idx, weights=w.ravel(), minlength=tab.n)
    return Multivector(a.dim, out)


def geometric_product(a: Multivector, b: Multivector) -> Multivector:
    """Associative geometric product of two multivectors of equal dimension."""
    _check_dims(a, b)
    return _bilinear(a, b, _tables(a.dim).gp_sign)


def outer_product(a: Multivector, b: Multivector) -> Multivector:
    """Antisymmetric outer (wedge) product."""
    _check_dims(a, b)
    return _bilinear(a, b, _tables(a.dim).outer_sign)


def inner_product(a: Multivector, b: Multivector) -> Multivector:
    """Left contraction a . b.

    On a vector against a blade this is the signed deletion of matching
    factors; grades of ``a`` exceeding those of ``b`` contract to zero, a
    scalar contracts to zero against grade >= 1, and two scalars multiply.
    """
    _check_dims(a, b)
    return _bilinear(a, b, _tables(a.dim).inner_sign)


def reverse(a: Multivector) -> Multivector:
    """Reverse the factor order of every blade: sign (-1)^(r(r-1)/2) on grade r."""
    return Multivector(a.dim, a.coeffs * _tables(a.dim).reverse_sign)


def pseudoscalar(dim: int) -> Multivector:
    c = np.zeros(1 << dim)
    c[-1] = 1.0
    return Multivector(dim, c)


def dual(a: Multivector) -> Multivector:
    """Multiplication by the pseudoscalar, A* = A I."""
    return geometric_product(a, pseudoscalar(a.dim))


def grade_project(a: Multivector, r: int) -> Multivector:
    if not 0 <= r <= a.dim:
        raise ValueError(f"grade {r} outside 0..{a.dim}")
    tab = _tables(a.dim)
    return Multivector(a.dim, np.where(tab.grades == r, a.coeffs, 0.0))


def norm(a: Multivector) -> float:
    """Euclidean norm of the coefficient array; equals sqrt(<a ~a>_0) here."""
    return a.norm()


def normalize(a: Multivector, eps: float = EPS) -> Multivector:
    n = a.norm()
    if n <= eps:
        raise NearZeroNorm(f"cannot normalize element of norm {n:.3e}")
    return Multivector(a.dim, a.coeffs / n)


def sandwich(r, a: Multivector) -> Multivector:
    """Conjugation R a ~R; accepts a Rotor or a bare even multivector."""
    mv = r.mv if isinstance(r, Rotor) else r
    return geometric_product(geometric_product(mv, a), reverse(mv))


class Rotor:
    """Even-grade unit multivector acting by sandwich conjugation.

    Construction validates unitality (R ~R = 1) and evenness within ``tol``.
    Rotors are sign-ambiguous: R and -R act identically, so comparisons
    should always go through the action, never the coefficients.
    """

    __slots__ = ("mv",)

    def __init__(self, mv: Multivector, tol: float = 1e-12):
        tab = _tables(mv.dim)
        odd = np.where(tab.grades % 2 == 1, mv.coeffs, 0.0)
        if np.max(np.abs(odd)) > tol:
            raise ValueError("rotor has odd-grade coefficients")
        check = geometric_product(mv, reverse(mv))
        defect = check.coeffs.copy()
        defect[0] -= 1.0
        if np.max(np.abs(defect)) > tol:
            raise ValueError("rotor is not unit: R ~R differs from 1")
        object.__setattr__(self, "mv", mv)

    def __setattr__(self, name, value):
        raise AttributeError("Rotor is immutable")

    @classmethod
    def identity(cls, dim: int) -> "Rotor":
        return cls(Multivector.scalar(dim, 1.0))

    @classmethod
    def from_matrix(cls, matrix) -> "Rotor":
        """Rotor acting on the basis vectors as the m x m rotation ``matrix``
        (columns are the images, as ``matrix()`` gives them), for m = 3 or 4;
        raises ValueError for any other matrix.

        In G_3 the rotor is the quaternion of the matrix by Shepperd's
        extraction, which divides by its largest component and so is exact
        at half-turns.  In G_4 the rotor is the one taking e1 to its image,
        after the extraction on e2, e3, e4 of the rest, which fixes e1."""
        m = np.asarray(matrix, float)
        dim = len(m)
        if m.shape not in ((3, 3), (4, 4)) or not np.isfinite(m).all():
            raise ValueError(f"expected a finite 3 x 3 or 4 x 4 matrix, got shape {m.shape}")
        if np.abs(m.T @ m - np.eye(dim)).max() > 1e-9 or np.linalg.det(m) < 0:
            raise ValueError("matrix is not a rotation")
        if dim == 3:
            return cls(Multivector(3, _shepperd(m, (1, 2, 4))))
        lead = Multivector.scalar(4, 1.0)
        if (m[:, 0] != (1.0, 0.0, 0.0, 0.0)).any():
            image = Multivector.from_vector(4, m[:, 0])
            e1 = Multivector.basis_vector(4, 1)
            if m[0, 0] >= 0:
                lead = normalize(geometric_product(image, e1) + 1.0)
            else:  # the half-turn e1 e2 takes e1 to -e1, then on to its image
                lead = geometric_product(normalize(1.0 - geometric_product(image, e1)),
                                         Multivector.blade(4, "e12"))
            m = cls(lead).matrix().T @ m
        rest = Multivector(4, _shepperd(m[1:, 1:], (2, 4, 8)))
        return cls(geometric_product(lead, rest))

    @property
    def dim(self) -> int:
        return self.mv.dim

    @property
    def coeffs(self) -> np.ndarray:
        return self.mv.coeffs

    def apply(self, a: Multivector) -> Multivector:
        return sandwich(self, a)

    def __mul__(self, other):
        if isinstance(other, Rotor):
            return Rotor(geometric_product(self.mv, other.mv), tol=1e-9)
        return NotImplemented

    def matrix(self) -> np.ndarray:
        """Action on basis vectors as an m x m rotation matrix (columns)."""
        dim = self.dim
        cols = []
        for i in range(1, dim + 1):
            cols.append(self.apply(Multivector.basis_vector(dim, i)).vector_coords())
        return np.array(cols).T

    def __repr__(self):
        return f"Rotor({self.mv!r})"


def _shepperd(m: np.ndarray, axes: tuple) -> np.ndarray:
    """Dense rotor coefficients of the 3 x 3 rotation ``m`` acting on the basis
    vectors whose blade indices are ``axes``, by Shepperd's extraction (J.
    Guidance & Control 1(3), 1978).  The symmetric matrix below is 4 q q^T for
    the unit quaternion q = (w, x, y, z) of ``m``; its row with the largest
    diagonal entry 4 q_i^2 gives q = row / (2 q_i), with q_i signed so that
    w >= 0.  The rotor is w - z a1a2 + y a1a3 - x a2a3 on the axes a1, a2, a3."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    k = np.array([
        [1.0 + m00 + m11 + m22, m21 - m12, m02 - m20, m10 - m01],
        [m21 - m12, 1.0 + m00 - m11 - m22, m01 + m10, m02 + m20],
        [m02 - m20, m01 + m10, 1.0 - m00 + m11 - m22, m12 + m21],
        [m10 - m01, m02 + m20, m12 + m21, 1.0 - m00 - m11 + m22],
    ])
    i = int(np.argmax(np.diagonal(k)))
    w, x, y, z = k[i] / np.copysign(2.0 * np.sqrt(k[i, i]), k[i, 0])  # w >= 0
    a1, a2, a3 = axes
    c = np.zeros(2 * a3)
    c[0], c[a1 | a2], c[a1 | a3], c[a2 | a3] = w, -z, y, -x
    return c
