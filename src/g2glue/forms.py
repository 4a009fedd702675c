"""Constant-coefficient exterior algebra on R^7 and the G2 pointwise calculus.

Conventions used throughout the package:

  * coordinates are x^1 .. x^7; x^1 is the cylinder coordinate t and
    x^2 .. x^7 span the 6-torus cross-section,
  * the reference volume form is dx^1 ^ ... ^ dx^7,
  * the model 3-form is

        phi0 = dx^123 + dx^145 + dx^167 + dx^246 - dx^257 - dx^347 - dx^356,

    which splits as Omega0 + dx^1 ^ omega0 with
    omega0 = dx^23 + dx^45 + dx^67 and
    Omega0 = dx^246 - dx^257 - dx^347 - dx^356 (the real part of the
    complex volume form for z1 = x2 + i x3, z2 = x4 + i x5, z3 = x6 + i x7),
  * a 3-form phi induces the symmetric bilinear form

        B_ij * vol = (e_i . phi) ^ (e_j . phi) ^ phi

    (``.`` is contraction) and the candidate metric g = s * B with
    s = KAPPA * det(B)^(-1/9), KAPPA = 36^(-1/9).  The calibration makes
    g(phi0) the identity: B(phi0) = 6 * Id exactly, so s = 1/6 there.

Coefficients may be floats or ``fractions.Fraction``; all structural
operations (wedge, contraction, pullback, the bilinear form B) are exact on
Fraction input, and the metric normalization stays exact whenever
36 * det(B) is the ninth power of a rational, which covers the calibration
checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import ratmat

AXES7 = (1, 2, 3, 4, 5, 6, 7)
AXES6 = (2, 3, 4, 5, 6, 7)

# Calibration constant for the induced metric, fixed so that phi0 gives
# the Euclidean metric.
KAPPA = float(36.0 ** (-1.0 / 9.0))


class NotStable(ValueError):
    """The 3-form does not lie in the open orbit defining a metric."""


@lru_cache(maxsize=None)
def basis_indices(axes: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    """Increasing multi-indices of length k drawn from ``axes``."""
    return tuple(itertools.combinations(axes, k))


@lru_cache(maxsize=None)
def basis_position(axes: tuple[int, ...], k: int) -> dict[tuple[int, ...], int]:
    return {idx: p for p, idx in enumerate(basis_indices(axes, k))}


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign and sorted index of dx^a ^ dx^b, or (0, ()) if they collide.

    The sign is that of the permutation sorting a + b: -1 to the number of
    its inversions.
    """
    if set(a) & set(b):
        return 0, ()
    merged = a + b
    inversions = sum(x > y for i, x in enumerate(merged) for y in merged[i + 1:])
    return (-1) ** inversions, tuple(sorted(merged))


@lru_cache(maxsize=None)
def _wedge_table(n: int, k1: int, k2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The wedge of a k1- and a k2-form on R^n as read-only (a, b, ind).

    For coefficient rows x and y, x ^ y = (x[..., a] * y[..., b]) @ ind:
    row r is the r-th disjoint pair (I, J) = (a[r], b[r]) in lexicographic
    order, and the integer matrix ind holds its sign in the column of I + J.
    """
    axes = tuple(range(n))
    pos = basis_position(axes, k1 + k2)
    rows = []
    for i, ii in enumerate(basis_indices(axes, k1)):
        for j, jj in enumerate(basis_indices(axes, k2)):
            s, merged = _merge_sign(ii, jj)
            if s:
                rows.append((i, j, pos[merged], s))
    a, b, col, sign = np.array(rows, dtype=np.intp).reshape(-1, 4).T
    ind = np.zeros((len(rows), math.comb(n, k1 + k2)), dtype=np.int64)
    ind[np.arange(len(rows)), col] = sign
    for arr in (a, b, ind):
        arr.flags.writeable = False
    return a, b, ind


@lru_cache(maxsize=None)
def _contract_table(n: int, k: int) -> np.ndarray:
    """Interior products on R^n from degree k, read-only: slice p of this
    integer (n, C(n, k-1), C(n, k)) array is e_p . (p 0-based), the
    adjoint of dx^p ^ (.) in _wedge_table(n, 1, k - 1)."""
    a, b, ind = _wedge_table(n, 1, k - 1)
    table = np.zeros((n, math.comb(n, k - 1), math.comb(n, k)), dtype=np.int64)
    table[a, b] = ind
    table.flags.writeable = False
    return table


def _compound(a: np.ndarray, k: int) -> np.ndarray:
    """The k-th compound matrix: entry (I, J) is det(a[I, J]).

    Rows and columns run over the increasing k-subsets of range(n) in
    basis_indices order, so Cauchy-Binet reads compound(A B) =
    compound(A) compound(B).  Object (Fraction) input stays exact, one
    ratmat.det per minor; any other input takes one batched np.linalg.det
    over all minors.  k = 0 gives [[1]].
    """
    n = a.shape[0]
    sub = np.array(basis_indices(tuple(range(n)), k), dtype=np.intp)
    if a.dtype != object:
        return np.linalg.det(a[sub[:, None, :, None], sub[None, :, None, :]])
    return np.array([[ratmat.det(a[np.ix_(rows, cols)]) for cols in sub]
                     for rows in sub], dtype=object)


class ConstForm:
    """A constant-coefficient k-form over a fixed ordered index set.

    Coefficients are stored sparsely as {increasing multi-index: scalar}.
    Instances are treated as immutable.
    """

    __slots__ = ("axes", "degree", "coeffs")

    def __init__(self, axes: tuple[int, ...], degree: int, coeffs: dict | None = None):
        if not 0 <= degree <= len(axes):
            raise ValueError(f"degree {degree} out of range for {len(axes)} axes")
        self.axes = tuple(axes)
        self.degree = degree
        clean = {}
        for idx, c in (coeffs or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or tuple(sorted(idx)) != idx or any(i not in axes for i in idx):
                raise ValueError(f"bad multi-index {idx} for degree {degree}")
            if c != 0:
                clean[idx] = c
        self.coeffs = clean

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "ConstForm") -> "ConstForm":
        if self.axes != other.axes or self.degree != other.degree:
            raise ValueError("forms live on different spaces or degrees")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0) + c
        return ConstForm(self.axes, self.degree, out)

    def __sub__(self, other: "ConstForm") -> "ConstForm":
        return self + other.scale(-1)

    def scale(self, s) -> "ConstForm":
        return ConstForm(self.axes, self.degree, {i: s * c for i, c in self.coeffs.items()})

    __rmul__ = scale

    def __neg__(self) -> "ConstForm":
        return self.scale(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConstForm) and self.axes == other.axes
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"ConstForm(axes={self.axes}, degree={self.degree}, 0)"
        terms = " + ".join(f"{c}*dx^{''.join(map(str, i))}" for i, c in sorted(self.coeffs.items()))
        return f"ConstForm({terms})"

    # -- exterior operations ----------------------------------------------
    # Both run the integer tables on object coefficient vectors, so each
    # product and sum is the coefficients' own arithmetic: exact on Fractions.

    def wedge(self, other: "ConstForm") -> "ConstForm":
        """Wedge product; only pairs of stored coefficients enter, summed
        in basis order."""
        if self.axes != other.axes:
            raise ValueError("forms live on different spaces")
        a, b, ind = _wedge_table(len(self.axes), self.degree, other.degree)
        rows, cols = ind.nonzero()
        x, y = self.tovector(object)[a], other.tovector(object)[b]
        held = (x != 0) & (y != 0)
        out = np.zeros(ind.shape[1], dtype=object)
        np.add.at(out, cols[held], ind[rows, cols][held] * x[held] * y[held])
        return ConstForm.fromvector(self.axes, self.degree + other.degree, out)

    def contract(self, axis: int) -> "ConstForm":
        """Interior product with the coordinate vector e_axis."""
        if self.degree == 0 or axis not in self.axes:
            return ConstForm(self.axes, self.degree - 1)
        table = _contract_table(len(self.axes), self.degree)[self.axes.index(axis)]
        rows, cols = table.nonzero()
        out = np.zeros(len(table), dtype=object)
        out[rows] = table[rows, cols] * self.tovector(object)[cols]
        return ConstForm.fromvector(self.axes, self.degree - 1, out)

    def pullback(self, a: np.ndarray) -> "ConstForm":
        """Pullback under the linear map with matrix ``a`` in these axes.

        (A* alpha)(v_1, .., v_k) = alpha(A v_1, .., A v_k), so the new
        coefficient on dx^J is sum_I alpha_I det(A[I, J]): the coefficient
        vector maps by the transposed compound matrix, Lambda^k(A)^T c.
        Exact when ``a`` is an object (Fraction) array.
        """
        n = len(self.axes)
        a = np.asarray(a)
        if a.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}")
        exact = a.dtype == object
        if not exact:
            a = a.astype(float)
        vec = _compound(a, self.degree).T @ _vector(self, exact)
        return ConstForm.fromvector(self.axes, self.degree, vec)

    # -- coefficient vector bridge ----------------------------------------

    def tovector(self, dtype=float) -> np.ndarray:
        idx = basis_indices(self.axes, self.degree)
        return np.array([self.coeffs.get(i, 0) for i in idx], dtype=dtype)

    @classmethod
    def fromvector(cls, axes: tuple[int, ...], degree: int, vec) -> "ConstForm":
        idx = basis_indices(axes, degree)
        return cls(axes, degree, {i: vec[p] for p, i in enumerate(idx) if vec[p] != 0})

    def is_exact_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.coeffs.values())

    def norm(self) -> float:
        return math.sqrt(float(sum(c * c for c in self.coeffs.values())))


class KForm7(ConstForm):
    """Constant k-form on R^7 in coordinates x^1..x^7."""

    def __init__(self, degree: int, coeffs: dict | None = None):
        super().__init__(AXES7, degree, coeffs)


class KForm6(ConstForm):
    """Constant k-form on the cross-section, coordinates x^2..x^7."""

    def __init__(self, degree: int, coeffs: dict | None = None):
        super().__init__(AXES6, degree, coeffs)


def _vector(f: ConstForm, exact: bool) -> np.ndarray:
    """f's coefficient vector: object when ``exact``, else float or complex."""
    if exact:
        return f.tovector(object)
    return f.tovector(complex if np.iscomplexobj(list(f.coeffs.values())) else float)


@dataclass(frozen=True)
class Metric7:
    """Symmetric positive definite 7x7 metric on R^7."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat)
        if m.shape != (7, 7):
            raise ValueError("metric must be 7x7")
        if m.dtype != object:
            m = np.asarray(m, dtype=float)
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError("metric must be symmetric")
            if np.linalg.eigvalsh(m).min() <= 0:
                raise ValueError("metric must be positive definite")
        object.__setattr__(self, "mat", m)


# -- model forms -----------------------------------------------------------

_PHI0_TERMS = {(1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): 1,
               (2, 4, 6): 1, (2, 5, 7): -1, (3, 4, 7): -1, (3, 5, 6): -1}


def phi0(exact: bool = False) -> KForm7:
    """The flat G2 model 3-form; Fraction coefficients when ``exact``."""
    one = Fraction(1) if exact else 1.0
    return KForm7(3, {i: one * c for i, c in _PHI0_TERMS.items()})


def omega0(exact: bool = False) -> KForm6:
    one = Fraction(1) if exact else 1.0
    return KForm6(2, {(2, 3): one, (4, 5): one, (6, 7): one})


def Omega0(exact: bool = False) -> KForm6:
    one = Fraction(1) if exact else 1.0
    return KForm6(3, {(2, 4, 6): one, (2, 5, 7): -one, (3, 4, 7): -one, (3, 5, 6): -one})


# -- induced bilinear form and metric --------------------------------------

def gram_from_3form(phi: ConstForm) -> np.ndarray:
    """Matrix B with (e_i . phi) ^ (e_j . phi) ^ phi = B_ij * vol.

    Float input goes through gram_batch.  Rational input is scaled to
    Python ints by the lcm D of its denominators, taken through the same
    U Q U^T products over ints and divided by D^3, so B is exact (object
    dtype, Fraction entries).  phi must live on seven axes.
    """
    if phi.degree != 3:
        raise ValueError("the bilinear form is defined for 3-forms")
    if len(phi.axes) != 7:
        raise ValueError(f"the bilinear form wants 7 axes, not {len(phi.axes)}")
    if not phi.is_exact_rational():
        return gram_batch(phi.tovector())
    vec = phi.tovector(object)
    d = math.lcm(*(c.denominator for c in vec))
    ints = np.array([int(c.numerator) * (d // int(c.denominator)) for c in vec], dtype=object)
    u_mat, q_mat = _gram_matrices(object)
    u = (u_mat @ ints).reshape(7, 21)
    return u @ (q_mat @ ints).reshape(21, 21) @ u.T * Fraction(1, d ** 3)


def _iroot(n: int, k: int) -> int:
    """Integer part of the k-th root of n >= 0, by Newton's method on ints."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)          # 2^ceil(bits / k) >= root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _exact_root(q: Fraction, k: int) -> Fraction | None:
    """Rational r with r^k == q, if one exists; for odd k, r has q's sign."""
    if q < 0 and k % 2 == 0:
        return None
    num, den = abs(int(q.numerator)), int(q.denominator)
    rn, rd = _iroot(num, k), _iroot(den, k)
    if rn ** k != num or rd ** k != den:
        return None
    return Fraction(rn if q >= 0 else -rn, rd)


def metric_from_3form(phi: ConstForm) -> Metric7:
    """Metric induced by a stable 3-form on R^7.

    g = s * B with s = KAPPA * det(B)^(-1/9) (real ninth root, carrying the
    sign of det B so orientation-reversing images still give a positive
    matrix).  Raises NotStable when det B = 0 or the result is not
    positive definite.

    On Fraction input the scale s is computed exactly whenever 36 * det(B)
    is a rational ninth power; otherwise the result falls back to floats.
    """
    if len(phi.axes) != 7:
        raise ValueError("induced metric wants a 3-form on R^7")
    b = gram_from_3form(phi)
    if b.dtype == object:
        detb = ratmat.det(b)
        if detb == 0:
            raise NotStable("degenerate 3-form: det B = 0")
        root = _exact_root(36 * detb, 9)
        if root is not None:
            g = (1 / root) * b
        else:
            # From logs: det B of a large or small rational form overflows a float.
            log_det = math.log(abs(detb.numerator)) - math.log(detb.denominator)
            s = math.copysign(KAPPA * math.exp(-log_det / 9.0), -1 if detb < 0 else 1)
            g = s * ratmat.tofloat(b)
    else:
        detb = float(np.linalg.det(b))
        if detb == 0 or not math.isfinite(detb):
            raise NotStable("degenerate 3-form: det B = 0")
        s = math.copysign(KAPPA * abs(detb) ** (-1.0 / 9.0), detb)
        g = s * b
    if np.linalg.eigvalsh(np.asarray(g, dtype=float)).min() <= 0:
        raise NotStable("3-form is outside the open orbit: metric not definite")
    return Metric7(g)


def is_g2_form(phi: ConstForm) -> bool:
    """Whether phi is a 3-form on R^7 inducing a positive definite metric."""
    if phi.degree != 3 or len(phi.axes) != 7:
        return False
    try:
        metric_from_3form(phi)
    except NotStable:
        return False
    return True


# -- Hodge star ------------------------------------------------------------

@lru_cache(maxsize=None)
def _hodge_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(comp, signs) for the star from k- to (n-k)-forms on R^n: for the
    j-th (n-k)-index J, the position of its complement Jc among the
    k-indices and the sign of dx^Jc ^ dx^J."""
    a, b, ind = _wedge_table(n, k, n - k)
    order = np.argsort(b)
    return a[order], ind[order, 0]


def _star_matrix(g: np.ndarray, k: int) -> np.ndarray:
    """Matrix of the Hodge star on k-forms for the n x n metric g:

        *[J, I] = sqrt(det g) * sign(Jc, J) * Lambda^k(g^-1)[Jc, I].

    Exact on an object (Fraction) g whose determinant is a rational
    square; any other g is taken in floats.
    """
    comp, signs = _hodge_table(len(g), k)
    if g.dtype == object:
        scale = _exact_root(ratmat.det(g), 2)
        if scale is not None:
            return scale * signs[:, None] * _compound(ratmat.inv(g), k)[comp]
        g = ratmat.tofloat(g)
    g = np.asarray(g, dtype=float)
    scale = math.sqrt(float(np.linalg.det(g)))
    return scale * signs[:, None] * _compound(np.linalg.inv(g), k)[comp]


def hodge_star(metric, alpha: ConstForm) -> ConstForm:
    """Hodge star of alpha, defined by a ^ (*b) = <a, b>_g vol_g.

    ``metric`` is a Metric7 or a raw symmetric matrix over alpha's axes;
    _star_matrix is applied to alpha's coefficient vector.  Exact on
    Fraction input when det g is a rational square, as for the identity.
    """
    g = metric.mat if isinstance(metric, Metric7) else np.asarray(metric)
    axes = alpha.axes
    n = len(axes)
    if g.shape != (n, n):
        raise ValueError("metric size does not match form axes")
    if g.dtype == object and not alpha.is_exact_rational():
        g = ratmat.tofloat(g)
    smat = _star_matrix(g, alpha.degree)
    vec = smat @ _vector(alpha, smat.dtype == object)
    return ConstForm.fromvector(axes, n - alpha.degree, vec)


# -- cylindrical splitting -------------------------------------------------

def split_cylindrical(phi: ConstForm, sign: int) -> tuple[KForm6, KForm6]:
    """Split phi = Omega + sign * dx^1 ^ omega into cross-section forms."""
    if len(phi.axes) != 7:
        raise ValueError("expected a form on R^7")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    big = {i: c for i, c in phi.coeffs.items() if 1 not in i}
    om = {i: sign * c for i, c in phi.contract(1).coeffs.items()}
    return KForm6(phi.degree, big), KForm6(phi.degree - 1, om)


def assemble_cylindrical(big: ConstForm, small: ConstForm, sign: int) -> KForm7:
    """Inverse of split_cylindrical: Omega + sign * dx^1 ^ omega on R^7."""
    if big.axes != AXES6 or small.axes != AXES6:
        raise ValueError("expected cross-section forms")
    if small.degree != big.degree - 1:
        raise ValueError("degree mismatch between the two pieces")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = dict(big.coeffs)
    out.update({(1,) + i: sign * c for i, c in small.coeffs.items()})
    return KForm7(big.degree, out)


# -- SU(3) tangent relations on the cross-section --------------------------

def su3_tangent_residual(big: KForm6, small: KForm6, sigma: KForm6, tau: KForm6
                         ) -> tuple[float, float]:
    """Residuals of the two linear relations cutting out the tangent cone of
    cross-section structures at (big, small) = (Omega, omega).

    r1 is |c| where sigma ^ *Omega - tau ^ omega^2 = c * vol_X, and r2 is
    the metric norm of the 5-form sigma ^ omega + Omega ^ tau.  The
    cross-section metric comes from the induced 7D metric of
    Omega + dx^1 ^ omega (which must be definite).
    """
    if (big.degree, small.degree, sigma.degree, tau.degree) != (3, 2, 3, 2):
        raise ValueError("expected degrees (3, 2) for the structure and (3, 2) for the tangent")
    phi = assemble_cylindrical(big, small, 1)
    g6 = ratmat.tofloat(metric_from_3form(phi).mat)[1:, 1:]
    big, small, sigma, tau = (ConstForm(f.axes, f.degree, {i: float(c) for i, c in f.coeffs.items()})
                              for f in (big, small, sigma, tau))
    six_form = sigma.wedge(hodge_star(g6, big)) - tau.wedge(small).wedge(small)
    r1 = abs(six_form.coeffs.get(AXES6, 0.0)) / math.sqrt(float(np.linalg.det(g6)))
    # r2 = sqrt(c . Lambda^5(g^-1) . c) for the 5-form's coefficients c
    c = (sigma.wedge(small) + big.wedge(tau)).tovector()
    r2 = math.sqrt(max(float(c @ _compound(np.linalg.inv(g6), 5) @ c), 0.0))
    return r1, r2


# -- vectorized pointwise kernels ------------------------------------------
#
# gram_from_3form / metric_from_3form / hodge_star on arrays of coefficient
# rows, for the sampled torsion pipeline.  No stable row reaches
# numpy.linalg:
#
#   Every sign comes from two integer tables, _wedge_table (dx^I ^ dx^J)
#     and _contract_table (e_p . ); ConstForm.wedge and contract, the
#     star's signs, dx^a ^ (.) in fields and U and Q are read off them.
#   B = U Q U^T: U (7 x 21) holds the contractions e_p . c in the 2-form
#     basis, U[p, ab] = phi_abp, and Q (21 x 21) the coefficients of vol in
#     dx^u ^ dx^v ^ c; both are linear in c.  _gram_uqu forms them a
#     block of rows at a time, so their scratch does not grow with n;
#     gram_from_3form forms them once over Python ints for exact input.
#   On a batch whose rows all hold the model's dt-free block, as every
#     sample of a xi = 0 neck does, only the 15 dt coefficients vary and
#     B is a cubic in them: 81 integer terms, derived once from U and Q
#     (_dt_cubic_terms) and summed row by row without forming U or Q.
#   _eliminate factors each B once.  det B is the product of the pivots,
#     and g = s B is positive definite exactly when every pivot has the
#     sign of det B (Sylvester's criterion, as Cholesky tests it); _scale
#     reads s off the pivots for metric_batch and star3_batch alike.
#   star3_batch reads psi off Bryant's identity (math/0305124, section 2),
#     true for the metric g that phi induces and psi oriented by phi:
#         phi_abp phi_cdq g^pq = g_ac g_bd - g_ad g_bc + psi_abcd.
#     Its one elimination, of [B | phi_ab.], factors B and solves
#     B^-1 phi_ab. for five pairs (a, b), one of which lies in every
#     quadruple; g = s B and g^-1 = B^-1 / s.  The star for dx^1..7 is
#     eps psi with eps = sign(det B), the orientation of phi.  A run of
#     consecutive rows equal bit for bit is factored once.

@lru_cache(maxsize=None)
def _gram_matrices(dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """Flat structure matrices (u, q) of the bilinear form, in ``dtype``.

    For a coefficient row c, (c @ u.T).reshape(7, 21) is U, whose row i
    is the 2-form e_{i+1} . c, and (c @ q.T).reshape(21, 21) is Q, whose
    entry (u, v) is the coefficient of vol in dx^U ^ dx^V ^ c: the sign
    of dx^U ^ dx^V times that of the 4-form's wedge with its complement.
    """
    a, b, ind = _wedge_table(7, 2, 2)
    a4, b4, top = _wedge_table(7, 4, 3)
    vol = np.zeros((35, 35), dtype=np.int64)
    vol[a4, b4] = top[:, 0]
    q = np.zeros((21, 21, 35), dtype=np.int64)
    q[a, b] = ind @ vol
    u = _contract_table(7, 3).reshape(7 * 21, 35)
    return u.astype(dtype), q.reshape(21 * 21, 35).astype(dtype)


# Rows per block of the U Q U^T reference.  U, Q and U Q take 735 doubles
# a row, so a block bounds them at about 3 MB whatever the batch size.
_GRAM_BLOCK = 512

# The model's dt-free block, Omega0's: columns 15..34 of phi0.
_MODEL_FREE = phi0().tovector()[15:]
_MODEL_FREE.flags.writeable = False


def _gram_uqu(rows: np.ndarray) -> np.ndarray:
    """B = U Q U^T, (n, 7, 7), for coefficient rows (n, 35): U and Q are
    the linear images of each row under the structure matrices of
    _gram_matrices, formed a block of _GRAM_BLOCK rows at a time."""
    u_mat, q_mat = _gram_matrices()
    b = np.empty((len(rows), 7, 7))
    for i in range(0, len(rows), _GRAM_BLOCK):
        block = rows[i:i + _GRAM_BLOCK]
        u = (block @ u_mat.T).reshape(-1, 7, 21)
        uq = u @ (block @ q_mat.T).reshape(-1, 21, 21)
        b[i:i + _GRAM_BLOCK] = uq @ np.swapaxes(u, -1, -2)
    return b


@lru_cache(maxsize=1)
def _dt_cubic_terms() -> tuple[np.ndarray, ...]:
    """B of a row whose dt-free block is the model's, as a cubic in its 15
    dt coefficients beta: terms (p, r, s, coef) and where they go.

    With x = (1, beta), U = sum_p x_p U_p and Q = sum_r x_r Q_r, where U_0
    and Q_0 are the structure matrices contracted with the model's
    dt-free block and U_p, Q_p (p >= 1) those of dt column p - 1.  So
    B = sum x_p x_r x_s U_p Q_r U_s^T, a cubic whose constant term B(Omega0)
    is 0 (no dt): 15 linear, 36 quadratic and 15 cubic monomials (the last
    only in B_11, Pfaffian-like in beta), 81 terms in all.  Term k adds
    coef[k] x_p x_r x_s to flat upper entry ``upper[e]``, mirrored to
    ``lower[e]``, for the e with starts[e] <= k < starts[e + 1].  The
    coefficients are small integers, so the products and the sums over
    permutations that form them are exact.
    """
    u_mat, q_mat = _gram_matrices()
    us = np.vstack([u_mat[:, 15:] @ _MODEL_FREE, u_mat[:, :15].T]).reshape(112, 21)
    qs = np.vstack([q_mat[:, 15:] @ _MODEL_FREE, q_mat[:, :15].T]).reshape(16, 21, 21)
    uq = (us @ qs.transpose(1, 0, 2).reshape(21, 336)).reshape(16, 7, 16, 21)
    left = uq.transpose(0, 2, 1, 3).reshape(-1, 21)     # rows (p, r, i) of U_p Q_r
    # Only the nonzero rows of either factor, about 200 and 50, are
    # multiplied, which keeps the build near a millisecond.
    lrow, srow = np.flatnonzero(left.any(axis=1)), np.flatnonzero(us.any(axis=1))
    t = left[lrow] @ us[srow].T                         # (U_p Q_r U_s^T)[i, j]
    a, c = np.nonzero(t)
    p, r, i = np.unravel_index(lrow[a], (16, 16, 7))
    s, j = np.divmod(srow[c], 7)
    # Each upper entry sums its terms over the orderings of (p, r, s).
    up = i <= j
    keys, where = np.unique(np.ravel_multi_index(
        (7 * i[up] + j[up], *np.sort([p[up], r[up], s[up]], axis=0)), (49, 16, 16, 16)),
        return_inverse=True)
    coef = np.bincount(where, weights=t[a, c][up])
    entry, p, r, s = np.unravel_index(keys[coef != 0], (49, 16, 16, 16))
    starts = np.flatnonzero(np.diff(entry, prepend=-1))
    i, j = np.divmod(entry[starts], 7)
    tables = (p, r, s, coef[coef != 0], 7 * i + j, 7 * j + i, starts)
    for arr in tables:
        arr.flags.writeable = False
    return tables


def _gram_dt_cubic(rows: np.ndarray) -> np.ndarray:
    """B^T (49, n) of rows (n, 35) that hold the model's dt-free block, from
    their dt block alone (_dt_cubic_terms).  Exactly symmetric; each entry
    sums its terms in a fixed order, elementwise over the rows, so no
    row's B depends on the batch."""
    p, r, s, coef, upper, lower, starts = _dt_cubic_terms()
    x = np.empty((16, len(rows)))
    x[0] = 1.0
    x[1:] = rows[:, :15].T
    held = np.add.reduceat(x[p] * x[r] * x[s] * coef[:, None], starts, axis=0)
    bt = np.zeros((49, len(rows)))
    bt[upper] = held
    bt[lower] = held
    return bt


def gram_batch(coeffs: np.ndarray) -> np.ndarray:
    """Bilinear forms B for a batch of 3-forms.

    ``coeffs`` has shape (..., 35), rows ordered like
    basis_indices(AXES7, 3); the result has shape (..., 7, 7) and agrees
    with gram_from_3form row by row.  When every row of the batch holds
    the model's dt-free block (Omega0's, as on every sample of a xi = 0
    neck), B is the cubic in the rows' 15 dt coefficients of
    _dt_cubic_terms, exactly symmetric; any other batch takes U Q U^T
    (_gram_uqu), the reference.  The rule is per batch, so rows starred
    together share one path.  On either path no row's B depends on the
    other rows or on the blocks.
    """
    c = np.asarray(coeffs, dtype=float)
    rows = c.reshape(-1, 35)
    if (rows[:, 15:] == _MODEL_FREE).all():
        b = _gram_dt_cubic(rows).T
    else:
        b = _gram_uqu(rows).reshape(-1, 49)
    return b.reshape(c.shape[:-1] + (7, 7))


def _eliminate(aug: np.ndarray) -> np.ndarray:
    """Gaussian elimination without pivoting on aug = [a | y], in place.

    ``aug`` is (m, m + r, n), batch axis last.  Returns the pivots (m, n)
    of each a and leaves a^-1 y in aug[:, m:]; a zero pivot leaves inf or nan.
    """
    m = len(aug)
    for k in range(m):
        aug[k, k + 1:] /= aug[k, k]
        aug[k + 1:, k + 1:] -= aug[k + 1:, k, None] * aug[k, None, k + 1:]
    for k in range(m - 1, 0, -1):
        aug[:k, m:] -= aug[:k, k, None] * aug[k, None, m:]
    return aug[range(m), range(m)]


def _scale(piv: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Metric scales s (n,), g = s B, from the pivots (7, n) of the rows
    (n, 7, 7) of B: s = KAPPA |det B|^(-1/9) with the sign of det B.

    Raises NotStable if any row is degenerate or, failing that, lies
    outside the positive-definite orbit.  Call under np.errstate(all=
    "ignore"): a non-finite or huge row must end in NotStable, not in a
    numpy warning.
    """
    det = piv.prod(axis=0)
    stable = (((piv > 0).all(axis=0) | (piv < 0).all(axis=0))
              & np.isfinite(det) & (np.abs(det) >= 1e-250))
    if not stable.all():
        det = np.linalg.det(rows[~stable])   # tells the two failures apart
        if not np.all(np.isfinite(det)) or np.any(np.abs(det) < 1e-250):
            raise NotStable("degenerate 3-form in batch")
        raise NotStable("batch contains a 3-form with indefinite induced form")
    return np.copysign(KAPPA * np.abs(det) ** (-1.0 / 9.0), det)


def metric_batch(coeffs: np.ndarray) -> np.ndarray:
    """Induced metrics, shape (..., 7, 7), for a batch of stable 3-forms.

    Raises NotStable if any row is degenerate or, failing that, lies
    outside the positive-definite orbit.
    """
    with np.errstate(all="ignore"):
        b = gram_batch(coeffs)
        rows = b.reshape(-1, 7, 7)
        s = _scale(_eliminate(np.moveaxis(rows, 0, -1).copy()), rows)
    return s.reshape(b.shape[:-2] + (1, 1)) * b


# Any four axes hold two of one part {1, 2, 3}, {4, 5} or {6, 7}, so one
# of these pairs (0-based) lies in every quadruple, and one of the last
# three in every quadruple without axis 0.
_RAISED_PAIRS = ((0, 1), (0, 2), (1, 2), (3, 4), (5, 6))


@lru_cache(maxsize=2)
def _star3_tables(dt_free: bool) -> tuple[np.ndarray, ...]:
    """Tables for star3_batch over the 35 quadruples, or with ``dt_free``
    the last 15 (no axis 0) and the raised pairs they use.  The J-th is
    sign[J] * (a, b, c, d) with (a, b) the r-th of R raised pairs and p
    the i-th axis off c and d: rows R p + r of raise_mat @ c and 5 J + i of
    low_mat @ c are phi_abp and phi_cdp, entry (yp, yr)[J, i] of the
    eliminated [B | phi_ab.] is (phi_ab. B^-1)_p, and g[:, J] holds the
    entries B_ac, B_bd, B_ad and B_bc of the flattened B."""
    u_mat = _gram_matrices()[0]
    pos2 = basis_position(tuple(range(7)), 2)
    pairs = _RAISED_PAIRS[2:] if dt_free else _RAISED_PAIRS
    raise_rows = [21 * p + pos2[ab] for p in range(7) for ab in pairs]
    sign, yp, yr, low_rows, g = [], [], [], [], []
    for quad in basis_indices(tuple(range(7)), 4)[20 if dt_free else 0:]:
        r, (a, b) = next((r, ab) for r, ab in enumerate(pairs)
                         if set(ab) <= set(quad))
        c, d = (x for x in quad if x not in (a, b))
        sign.append(_merge_sign((a, b), (c, d))[0])
        ps = [p for p in range(7) if p not in (c, d)]    # phi_cdp = 0 for the rest
        yp.append(ps)
        yr.append([7 + r] * len(ps))
        low_rows += [21 * p + pos2[c, d] for p in ps]
        g.append([7 * a + c, 7 * b + d, 7 * a + d, 7 * b + c])
    return (u_mat[raise_rows], u_mat[low_rows],
            *map(np.array, (sign, yp, yr, np.transpose(g))))


def star3_batch(coeffs: np.ndarray, *, dt_free: bool = False) -> np.ndarray:
    """Hodge star of a batch of 3-forms, each for the metric it induces.

    ``coeffs`` (..., 35); returns hodge_star's 4-form rows (..., 35) as
    eps psi.  One elimination of [B | phi_ab.] gives det B, the stability
    test and the scale s of metric_batch, and B^-1 phi_ab.; the identity
    is then read with g = s B and g^-1 = B^-1 / s.  Raises NotStable as
    metric_batch does, with the same messages.  ``dt_free`` forms only
    the 15 dt-free components, all that d(star phi) reads on a xi = 0
    field, eliminating with the 3 raised pairs they use: (..., 15), bitwise
    the full star's last 15.  Each run of consecutive rows equal bit for
    bit, such as the model samples where a neck's perturbations vanish, is
    factored once (gram_batch sees one row of it), bitwise as if each row
    were starred.
    """
    c = np.asarray(coeffs, dtype=float)
    raise_mat, low_mat, sign, yp, yr, g = _star3_tables(dt_free)
    rows = c.reshape(-1, 35)
    # Rows equal in value and in the sign of every entry are equal bit for
    # bit: NaN, the one value with other encodings, is never equal.
    same = ((rows[1:] == rows[:-1])
            & (np.signbit(rows[1:]) == np.signbit(rows[:-1]))).all(axis=1)
    first = np.ones(len(rows), dtype=bool)
    first[1:] = ~same
    if not first.all():
        rows = rows[first]
    ct, n = rows.T, len(rows)
    with np.errstate(all="ignore"):
        b = gram_batch(rows)
        raised = (raise_mat @ ct).reshape(7, len(raise_mat) // 7, n)
        aug = np.concatenate([b.transpose(1, 2, 0), raised], axis=1)
        s = _scale(_eliminate(aug), b)
    gt = s * b.reshape(n, 49).T
    low = (low_mat @ ct).reshape(len(sign), 5, n)
    psi = sign[:, None] * (np.einsum("jpn,jpn->jn", aug[yp, yr], low) / s
                           - gt[g[0]] * gt[g[1]] + gt[g[2]] * gt[g[3]])
    psi = np.sign(s) * psi
    if n < len(first):
        psi = psi[:, np.cumsum(first) - 1]
    return psi.T.reshape(c.shape[:-1] + (len(sign),))
