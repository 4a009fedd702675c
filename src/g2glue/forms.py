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
    out = np.empty((len(sub), len(sub)), dtype=object)
    for i, rows in enumerate(sub):
        for j, cols in enumerate(sub):
            out[i, j] = ratmat.det(a[np.ix_(rows, cols)])
    return out


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

    def wedge(self, other: "ConstForm") -> "ConstForm":
        if self.axes != other.axes:
            raise ValueError("forms live on different spaces")
        out: dict = {}
        for ia, ca in self.coeffs.items():
            for ib, cb in other.coeffs.items():
                sign, idx = _merge_sign(ia, ib)
                if sign:
                    out[idx] = out.get(idx, 0) + sign * ca * cb
        return ConstForm(self.axes, self.degree + other.degree, out)

    def contract(self, axis: int) -> "ConstForm":
        """Interior product with the coordinate vector e_axis."""
        out: dict = {}
        for idx, c in self.coeffs.items():
            if axis in idx:
                p = idx.index(axis)
                rest = idx[:p] + idx[p + 1:]
                out[rest] = out.get(rest, 0) + ((-1) ** p) * c
        return ConstForm(self.axes, self.degree - 1, out)

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

    Exact (object dtype, Fraction entries) when the input has rational
    coefficients; float otherwise, through gram_batch on R^7.
    """
    if phi.degree != 3:
        raise ValueError("the bilinear form is defined for 3-forms")
    axes = phi.axes
    exact = phi.is_exact_rational()
    if not exact and axes == AXES7:
        return gram_batch(phi.tovector())
    n = len(axes)
    top = tuple(axes)
    b = np.empty((n, n), dtype=object) if exact else np.zeros((n, n))
    contr = [phi.contract(ax) for ax in axes]
    for i in range(n):
        for j in range(i, n):
            w = contr[i].wedge(contr[j]).wedge(phi)
            c = w.coeffs.get(top, Fraction(0) if exact else 0.0)
            b[i, j] = c
            b[j, i] = c
    return b


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


def _exact_ninth_root(q: Fraction) -> Fraction | None:
    """Rational r with r^9 == q, if one exists."""
    if q == 0:
        return Fraction(0)
    sign = 1 if q > 0 else -1
    q = abs(q)
    rn = _iroot(q.numerator, 9)
    rd = _iroot(q.denominator, 9)
    if rn ** 9 != q.numerator or rd ** 9 != q.denominator:
        return None
    return sign * Fraction(rn, rd)


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
        root = _exact_ninth_root(36 * detb)
        if root is not None:
            g = (1 / root) * b
            gf = ratmat.tofloat(g)
        else:
            # From logs: det B of a large or small rational form overflows a float.
            log_det = math.log(abs(detb.numerator)) - math.log(detb.denominator)
            s = math.copysign(KAPPA * math.exp(-log_det / 9.0), -1 if detb < 0 else 1)
            g = s * ratmat.tofloat(b)
            gf = g
    else:
        detb = float(np.linalg.det(b))
        if detb == 0 or not math.isfinite(detb):
            raise NotStable("degenerate 3-form: det B = 0")
        s = math.copysign(KAPPA * abs(detb) ** (-1.0 / 9.0), detb)
        g = s * b
        gf = g
    if np.linalg.eigvalsh(gf).min() <= 0:
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
    """(comp, signs) for the star from k-forms to (n-k)-forms on R^n.

    For the j-th (n-k)-index J of basis_indices, comp[j] is the position
    of its complement Jc among the k-indices and signs[j] the sign of the
    permutation (Jc, J).
    """
    axes = tuple(range(n))
    pos = basis_position(axes, k)
    comp, signs = [], []
    for jdx in basis_indices(axes, n - k):
        jc = tuple(ax for ax in axes if ax not in jdx)
        comp.append(pos[jc])
        signs.append(_merge_sign(jc, jdx)[0])
    return np.array(comp, dtype=np.intp), np.array(signs, dtype=np.intp)


def _sqrt_exact(q):
    if isinstance(q, Fraction):
        rn = math.isqrt(q.numerator)
        rd = math.isqrt(q.denominator)
        if rn * rn == q.numerator and rd * rd == q.denominator:
            return Fraction(rn, rd)
    return math.sqrt(float(q))


def _star_matrix(g: np.ndarray, k: int) -> np.ndarray:
    """Matrix of the Hodge star on k-forms for the n x n metric g:

        *[J, I] = sqrt(det g) * sign(Jc, J) * Lambda^k(g^-1)[Jc, I].

    Exact on an object (Fraction) g whose determinant is a rational
    square; any other g is taken in floats.
    """
    comp, signs = _hodge_table(len(g), k)
    if g.dtype == object:
        scale = _sqrt_exact(ratmat.det(g))
        if isinstance(scale, Fraction):
            return scale * signs[:, None] * _compound(ratmat.inv(g), k)[comp]
        g = ratmat.tofloat(g)
    g = np.asarray(g, dtype=float)
    scale = math.sqrt(float(np.linalg.det(g)))
    return scale * signs[:, None] * _compound(np.linalg.inv(g), k)[comp]


def hodge_star(metric, alpha: ConstForm) -> ConstForm:
    """Hodge star of alpha, defined by a ^ (*b) = <a, b>_g vol_g.

    ``metric`` is a Metric7 or a raw symmetric matrix over alpha's axes.
    The result is the star matrix of _star_matrix, built from the compound
    matrix Lambda^k(g^-1), applied to alpha's coefficient vector:

        (*b)_J = sqrt(det g) * sign(Jc, J) * sum_I det(g^{-1}[Jc, I]) b_I.

    Exact on Fraction input when det g is a perfect rational square (in
    particular for the identity metric).
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
    omega_part = phi.contract(1)
    big = {i: c for i, c in phi.coeffs.items() if 1 not in i}
    om = {i: sign * c for i, c in omega_part.coeffs.items()}
    return KForm6(phi.degree, big), KForm6(phi.degree - 1, om)


def assemble_cylindrical(big: ConstForm, small: ConstForm, sign: int) -> KForm7:
    """Inverse of split_cylindrical: Omega + sign * dx^1 ^ omega on R^7."""
    if big.axes != AXES6 or small.axes != AXES6:
        raise ValueError("expected cross-section forms")
    if small.degree != big.degree - 1:
        raise ValueError("degree mismatch between the two pieces")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = {i: c for i, c in big.coeffs.items()}
    for i, c in small.coeffs.items():
        out[(1,) + i] = sign * c
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
#   B = U Q U^T: U (7 x 21) holds the contractions e_p . c in the 2-form
#     basis, U[p, ab] = phi_abp, and Q (21 x 21) the coefficients of vol in
#     dx^u ^ dx^v ^ c; both are linear in c.
#   metric_batch factors B once by _eliminate.  det B is the product of
#     the pivots, and g = s B is positive definite exactly when every pivot
#     has the sign of det B (Sylvester's criterion, as Cholesky tests it).
#   star3_batch reads psi off Bryant's identity (math/0305124, section 2),
#     true for the metric g that phi induces and psi oriented by phi:
#         phi_abp phi_cdq g^pq = g_ac g_bd - g_ad g_bc + psi_abcd.
#     One elimination solves phi_ab. g^-1 for five pairs (a, b), one of
#     which lies in every quadruple.  The star for dx^1..7 is eps psi with
#     eps = sign(det B), the orientation of phi, read off the sign of
#     phi ^ psi = 7 eps sqrt(det g) vol.

@lru_cache(maxsize=1)
def _gram_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Flat structure matrices (u, q) for the batched bilinear form.

    For a coefficient row c, (c @ u.T).reshape(7, 21) is U, whose row i
    is the 2-form e_{i+1} . c, and (c @ q.T).reshape(21, 21) is Q, whose
    entry (u, v) is the coefficient of vol in dx^U ^ dx^V ^ c.
    """
    basis3 = basis_indices(AXES7, 3)
    basis2 = basis_indices(AXES7, 2)
    pos2 = basis_position(AXES7, 2)
    pos3 = basis_position(AXES7, 3)
    ct = np.zeros((7, 21, 35))
    for a, ia in enumerate(basis3):
        for p, ax in enumerate(ia):
            rest = ia[:p] + ia[p + 1:]
            ct[ax - 1, pos2[rest], a] = (-1.0) ** p
    qt = np.zeros((21, 21, 35))
    for u, iu in enumerate(basis2):
        for v, iv in enumerate(basis2):
            s1, merged = _merge_sign(iu, iv)
            if s1 == 0:
                continue
            rest = tuple(ax for ax in AXES7 if ax not in merged)
            s2, _ = _merge_sign(merged, rest)
            qt[u, v, pos3[rest]] = s1 * s2
    return ct.reshape(7 * 21, 35), qt.reshape(21 * 21, 35)


def gram_batch(coeffs: np.ndarray) -> np.ndarray:
    """Bilinear forms B = U Q U^T for a batch of 3-forms.

    ``coeffs`` has shape (..., 35), rows ordered like
    basis_indices(AXES7, 3); the result has shape (..., 7, 7) and agrees
    with gram_from_3form row by row.  U and Q are the linear images of
    each row under the structure matrices of _gram_matrices.
    """
    c = np.asarray(coeffs, dtype=float)
    u_mat, q_mat = _gram_matrices()
    lead = c.shape[:-1]
    u = (c @ u_mat.T).reshape(lead + (7, 21))
    q = (c @ q_mat.T).reshape(lead + (21, 21))
    return u @ q @ np.swapaxes(u, -1, -2)


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


def metric_batch(coeffs: np.ndarray) -> np.ndarray:
    """Induced metrics, shape (..., 7, 7), for a batch of stable 3-forms.

    Raises NotStable if any row is degenerate or, failing that, lies
    outside the positive-definite orbit.
    """
    # A non-finite or huge row must end in NotStable, not in a numpy warning.
    with np.errstate(all="ignore"):
        b = gram_batch(coeffs)
        rows = b.reshape(-1, 7, 7)
        piv = _eliminate(np.moveaxis(rows, 0, -1).copy())
        det = piv.prod(axis=0)
        stable = (((piv > 0).all(axis=0) | (piv < 0).all(axis=0))
                  & np.isfinite(det) & (np.abs(det) >= 1e-250))
        if not stable.all():
            det = np.linalg.det(rows[~stable])   # tells the two failures apart
            if not np.all(np.isfinite(det)) or np.any(np.abs(det) < 1e-250):
                raise NotStable("degenerate 3-form in batch")
            raise NotStable("batch contains a 3-form with indefinite induced form")
    s = np.copysign(KAPPA * np.abs(det) ** (-1.0 / 9.0), det)
    return s.reshape(b.shape[:-2] + (1, 1)) * b


# Any four axes hold two of one part {1, 2, 3}, {4, 5} or {6, 7}, so one
# of these pairs (0-based) lies in every quadruple.
_RAISED_PAIRS = ((0, 1), (0, 2), (1, 2), (3, 4), (5, 6))


@lru_cache(maxsize=1)
def _star3_tables() -> tuple[np.ndarray, ...]:
    """Row tables for star3_batch, the J-th quadruple taken as
    sign[J] * (a, b, c, d) with (a, b) the r-th raised pair:
    raise_rows[p, r] and u[J, i] are the rows of phi_abp and phi_cdp in U,
    y[J, i] the row of (phi_ab. g^-1)_p, p the i-th axis off c and d, and
    g[:, J] those of g_ac, g_bd, g_ad and g_bc in g."""
    pos2 = basis_position(tuple(range(7)), 2)
    raise_rows = [[21 * p + pos2[ab] for ab in _RAISED_PAIRS] for p in range(7)]
    sign, y, u, g = [], [], [], []
    for quad in basis_indices(tuple(range(7)), 4):
        r, (a, b) = next((r, ab) for r, ab in enumerate(_RAISED_PAIRS)
                         if set(ab) <= set(quad))
        c, d = (x for x in quad if x not in (a, b))
        sign.append(_merge_sign((a, b), (c, d))[0])
        ps = [p for p in range(7) if p not in (c, d)]    # phi_cdp = 0 for the rest
        y.append([5 * p + r for p in ps])
        u.append([21 * p + pos2[c, d] for p in ps])
        g.append([7 * a + c, 7 * b + d, 7 * a + d, 7 * b + c])
    return tuple(map(np.array, (raise_rows, sign, y, u, np.transpose(g))))


def star3_batch(metrics: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Hodge star of a batch of 3-forms, each for the metric it induces.

    ``metrics`` (..., 7, 7) must be metric_batch(coeffs), ``coeffs``
    (..., 35); returns hodge_star's 4-form rows (..., 35) as eps psi.
    """
    ct = np.asarray(coeffs, dtype=float).reshape(-1, 35).T
    n = ct.shape[1]
    gt = np.asarray(metrics, dtype=float).reshape(n, 49).T
    raise_rows, sign, y, u, g = _star3_tables()
    ut = _gram_matrices()[0] @ ct
    aug = np.concatenate([gt.reshape(7, 7, n), ut[raise_rows]], axis=1)
    _eliminate(aug)
    psi = sign[:, None] * (np.einsum("jpn,jpn->jn", aug[:, 7:].reshape(35, n)[y], ut[u])
                           - gt[g[0]] * gt[g[1]] + gt[g[2]] * gt[g[3]])
    comp, signs = _hodge_table(7, 3)
    eps = np.sign(signs @ (ct[comp] * psi))
    return (eps * psi).T.reshape(np.shape(coeffs))
