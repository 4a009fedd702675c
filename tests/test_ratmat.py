"""Exact linear algebra over Fractions."""

from fractions import Fraction

import numpy as np
import pytest

from g2glue import ratmat


def elimination_det(a):
    """Determinant by row-pivoted Gaussian elimination over Fractions."""
    m = [[Fraction(v) for v in row] for row in np.asarray(a).tolist()]
    n, out = len(m), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def small_matrices(rng, count):
    """Integer and rational matrices of size 0..6, with singular ones and
    ones whose leading entries vanish, so a row swap is needed."""
    for trial in range(count):
        n = int(rng.integers(0, 7))
        a = rng.integers(-3, 4, (n, n)).astype(object)
        if trial % 2:
            a = np.array([[Fraction(int(x), int(rng.integers(1, 9))) for x in row]
                          for row in a], dtype=object).reshape(n, n)
        if trial % 3 == 1 and n > 1:
            a[0, :] = 0
            a[0, -1] = Fraction(2, 3)
            a[:-1, 0] = 0
        if trial % 5 == 2 and n > 1:
            a[-1] = 2 * a[0]
        yield a


def test_det_matches_elimination():
    swaps = singular = 0
    for a in small_matrices(np.random.default_rng(31), 600):
        got = ratmat.det(a)
        assert type(got) is Fraction and got == elimination_det(a)
        swaps += len(a) > 1 and a[0, 0] == 0
        singular += got == 0
    assert swaps > 50 and singular > 50


def test_det_of_floats_and_edge_shapes():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((5, 5))
    assert ratmat.det(a) == elimination_det(a)
    assert float(ratmat.det(a)) == pytest.approx(np.linalg.det(a), rel=1e-12)
    assert ratmat.det(np.zeros((0, 0))) == 1
    assert ratmat.det([[Fraction(5, 2)]]) == Fraction(5, 2)
    for bad in (np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(ValueError, match="square"):
            ratmat.det(bad)


def test_numpy_scalars_enter_as_python_numbers():
    # Entries up to 1e6: a 7 x 7 determinant near 1e42 overflows int64, so
    # every exact product must run on Python ints.
    a = np.random.default_rng(0).integers(-10**6, 10**6, (7, 7))
    want = elimination_det(a.tolist())
    assert want.denominator == 1 and -1.2e42 < want < -1.1e42
    frac = ratmat.asfrac(a)
    assert all(type(v.numerator) is int for v in frac.flat)
    assert ratmat.det(frac) == ratmat.det(a) == want
    assert ratmat.rank(a) == 7
    half = ratmat.asfrac(np.array([np.float64(0.5), np.float32(0.25)]))
    assert half.tolist() == [Fraction(1, 2), Fraction(1, 4)]
    assert all(type(v.numerator) is int for v in half)
