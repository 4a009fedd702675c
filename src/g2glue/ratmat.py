"""Small exact linear algebra over Fraction entries.

numpy object arrays carry ``fractions.Fraction`` scalars through ``+``, ``*``
and ``@`` without losing exactness, but ``numpy.linalg`` refuses them.  The
handful of dense routines needed for exact-arithmetic paths (determinants,
inverses, ranks, solves on matrices of size at most a few dozen) live here.
All of them eliminate with "pivot on first nonzero"; ``det``, which exact
minors call many times, runs fraction-free on integers.
"""

from __future__ import annotations

import math
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
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each row is scaled to integers by the lcm of its denominators, so the
    elimination runs on Python ints: every Bareiss quotient is exact, and
    a zero pivot swaps in the first row below with a nonzero entry.
    """
    m = np.asarray(a)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("det needs a square matrix")
    rows, scale = [], 1
    for row in m.tolist():
        row = [v if isinstance(v, Fraction) else Fraction(v) for v in row]
        lcm = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (lcm // v.denominator) for v in row])
        scale *= lcm
    sign, prev = 1, 1
    for c in range(n - 1):
        p = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        piv = rows[c]
        for row in rows[c + 1:]:
            lead = row[c]
            for j in range(c + 1, n):
                row[j] = (row[j] * piv[c] - lead * piv[j]) // prev
        prev = piv[c]
    return Fraction(sign * rows[-1][-1] if n else 1, scale)


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

