"""Small exact linear algebra over Fraction entries.

numpy object arrays carry ``fractions.Fraction`` scalars through ``+``, ``*``
and ``@`` without losing exactness, but ``numpy.linalg`` refuses them.  The
handful of dense routines needed for exact-arithmetic paths (determinants,
inverses, ranks, solves on matrices of size at most a few dozen) live here.
Everything is plain fraction-free-ish Gaussian elimination with partial
"pivot on first nonzero"; speed is irrelevant at these sizes.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def asfrac(a) -> np.ndarray:
    """Copy ``a`` into an object array of Fractions."""
    arr = np.asarray(a)
    out = np.empty(arr.shape, dtype=object)
    flat_in = arr.reshape(-1)
    flat_out = out.reshape(-1)
    for i, v in enumerate(flat_in):
        flat_out[i] = v if isinstance(v, Fraction) else Fraction(v)
    return out


def tofloat(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=object).astype(float)


def det(a: np.ndarray) -> Fraction:
    """Exact determinant by elimination with row pivoting."""
    m = asfrac(a)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("det needs a square matrix")
    sign = 1
    out = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r, c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[[c, p]] = m[[p, c]]
            sign = -sign
        out *= m[c, c]
        piv = m[c, c]
        for r in range(c + 1, n):
            if m[r, c] != 0:
                m[r, c:] = m[r, c:] - (m[r, c] / piv) * m[c, c:]
    return sign * out


def rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = asfrac(a)
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if p is None:
            continue
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = m[r] / m[r, c]
        for i in range(rows):
            if i != r and m[i, c] != 0:
                m[i] = m[i] - m[i, c] * m[r]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: np.ndarray) -> int:
    if 0 in np.asarray(a).shape:
        return 0
    return len(rref(a)[1])


def inv(a: np.ndarray) -> np.ndarray:
    """Exact inverse; raises ValueError on singular input."""
    m = asfrac(a)
    n = m.shape[0]
    aug = np.concatenate([m, asfrac(np.eye(n, dtype=int))], axis=1)
    red, piv = rref(aug)
    if piv[:n] != list(range(n)):
        raise ValueError("singular matrix")
    return red[:, n:]


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact solve of a square system."""
    return inv(a) @ asfrac(b)


def nullspace(a: np.ndarray) -> np.ndarray:
    """Columns span the exact kernel of ``a``."""
    m = asfrac(a)
    rows, cols = m.shape
    red, piv = rref(m)
    free = [c for c in range(cols) if c not in piv]
    basis = np.zeros((cols, len(free)), dtype=object)
    basis[...] = Fraction(0)
    for j, fc in enumerate(free):
        basis[fc, j] = Fraction(1)
        for i, pc in enumerate(piv):
            basis[pc, j] = -red[i, fc]
    return basis
