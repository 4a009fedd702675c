"""Pointwise exterior algebra and G2 metric tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2glue import forms, ratmat
from g2glue.forms import (
    AXES6,
    AXES7,
    ConstForm,
    KForm6,
    KForm7,
    NotStable,
    Omega0,
    assemble_cylindrical,
    basis_indices,
    gram_from_3form,
    hodge_star,
    is_g2_form,
    metric_from_3form,
    omega0,
    phi0,
    split_cylindrical,
    su3_tangent_residual,
)

RNG = np.random.default_rng(20240817)


def random_form(axes, degree, rng=RNG, scale=1.0):
    vec = scale * rng.standard_normal(len(basis_indices(axes, degree)))
    return ConstForm.fromvector(axes, degree, vec)


def random_spd(n, rng=RNG):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


# -- wedge / contraction basics -------------------------------------------

def test_wedge_signs():
    a = KForm7(1, {(1,): 1.0})
    b = KForm7(1, {(2,): 1.0})
    assert a.wedge(b).coeffs == {(1, 2): 1.0}
    assert b.wedge(a).coeffs == {(1, 2): -1.0}
    assert not a.wedge(a).coeffs


def test_wedge_graded_commutativity():
    for ka, kb in [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3)]:
        a = random_form(AXES7, ka)
        b = random_form(AXES7, kb)
        lhs = a.wedge(b)
        rhs = b.wedge(a).scale((-1.0) ** (ka * kb))
        diff = lhs - rhs
        assert diff.norm() < 1e-12


def test_wedge_associativity():
    a, b, c = (random_form(AXES7, k) for k in (1, 2, 3))
    assert (a.wedge(b).wedge(c) - a.wedge(b.wedge(c))).norm() < 1e-12


def test_contraction_antiderivation():
    # i_v(a ^ b) = (i_v a) ^ b + (-1)^deg(a) a ^ (i_v b)
    a = random_form(AXES7, 2)
    b = random_form(AXES7, 3)
    for ax in (1, 4, 7):
        lhs = a.wedge(b).contract(ax)
        rhs = a.contract(ax).wedge(b) + a.wedge(b.contract(ax)).scale((-1.0) ** 2)
        assert (lhs - rhs).norm() < 1e-12


def test_pullback_functorial():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((7, 7))
    b = rng.standard_normal((7, 7))
    f = random_form(AXES7, 3, rng)
    # (AB)* f = B* (A* f)
    lhs = f.pullback(a @ b)
    rhs = f.pullback(a).pullback(b)
    assert (lhs - rhs).norm() < 1e-9 * max(1.0, lhs.norm())


def test_pullback_respects_wedge():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((7, 7))
    f = random_form(AXES7, 2, rng)
    g = random_form(AXES7, 1, rng)
    lhs = f.wedge(g).pullback(a)
    rhs = f.pullback(a).wedge(g.pullback(a))
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


# -- the sign tables against a dict reference ------------------------------
#
# The scalar loops below are the reference for the integer tables of
# forms: every coefficient of a table-based result must equal theirs.

def merge_sign(a, b):
    """Sign and sorted index of dx^a ^ dx^b, (0, ()) if they collide."""
    if set(a) & set(b):
        return 0, ()
    merged = a + b
    inversions = sum(x > y for i, x in enumerate(merged) for y in merged[i + 1:])
    return (-1) ** inversions, tuple(sorted(merged))


def dict_wedge(f, g):
    out = {}
    for ia, ca in f.coeffs.items():
        for ib, cb in g.coeffs.items():
            sign, idx = merge_sign(ia, ib)
            if sign:
                out[idx] = out.get(idx, 0) + sign * ca * cb
    return ConstForm(f.axes, f.degree + g.degree, out)


def dict_contract(f, axis):
    out = {}
    for idx, c in f.coeffs.items():
        if axis in idx:
            p = idx.index(axis)
            rest = idx[:p] + idx[p + 1:]
            out[rest] = out.get(rest, 0) + ((-1) ** p) * c
    return ConstForm(f.axes, f.degree - 1, out)


def dict_gram(phi):
    """B as nested lists, each entry (e_i . phi) ^ (e_j . phi) ^ phi."""
    contr = [dict_contract(phi, ax) for ax in phi.axes]
    b = [[0] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(i, 7):
            w = dict_wedge(dict_wedge(contr[i], contr[j]), phi)
            b[i][j] = b[j][i] = w.coeffs.get(phi.axes, 0)
    return b


def sparse_form(axes, degree, rng, kind):
    """A random form in basis order with about a third of its slots empty:
    Fraction coefficients with denominators up to 12, or floats."""
    vals = []
    for _ in basis_indices(axes, degree):
        if rng.random() < 0.35:
            vals.append(0)
        elif kind == "fraction":
            vals.append(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))))
        else:
            vals.append(float(rng.standard_normal()))
    return ConstForm.fromvector(axes, degree, vals)


def same_coeffs(got, want):
    """Equal coefficients of the same types (floats bit for bit)."""
    return (got.degree == want.degree and got.coeffs == want.coeffs
            and all(type(got.coeffs[i]) is type(c) for i, c in want.coeffs.items()))


@pytest.mark.parametrize("kind", ["fraction", "float"])
@pytest.mark.parametrize("axes", [AXES6, AXES7], ids=["AXES6", "AXES7"])
def test_table_wedge_and_contract_match_the_dict_reference(axes, kind):
    rng = np.random.default_rng(1800 + len(axes))
    n = len(axes)
    for k1 in range(n + 1):
        a = sparse_form(axes, k1, rng, kind)
        for k2 in range(n + 1 - k1):
            b = sparse_form(axes, k2, rng, kind)
            assert same_coeffs(a.wedge(b), dict_wedge(a, b)), (k1, k2)
        if k1:
            for ax in axes + (0,):
                assert same_coeffs(a.contract(ax), dict_contract(a, ax)), (k1, ax)
    with pytest.raises(ValueError, match="out of range"):
        ConstForm(axes, 4, {}).wedge(ConstForm(axes, n - 3, {}))
    with pytest.raises(ValueError, match="out of range"):
        ConstForm(axes, 0, {(): 1}).contract(axes[0])


def test_table_wedge_keeps_an_inf_off_empty_slots():
    a = KForm7(2, {(1, 2): math.inf, (3, 4): 1.0})
    b = KForm7(1, {(5,): 2.0})
    assert same_coeffs(a.wedge(b), dict_wedge(a, b))
    assert a.wedge(b).coeffs == {(1, 2, 5): math.inf, (3, 4, 5): 2.0}


def test_exact_gram_matches_the_dict_reference():
    rng = np.random.default_rng(1801)
    cases = [phi0(exact=True)]
    while len(cases) < 25:
        vec = [Fraction(int(rng.integers(-20, 21)), int(rng.integers(1, 31)))
               if rng.random() < 0.8 else 0 for _ in range(35)]
        if any(isinstance(c, Fraction) and c.denominator > 1 for c in vec):
            cases.append(ConstForm.fromvector(AXES7, 3, vec))
    for phi in cases:
        got = gram_from_3form(phi)
        assert got.dtype == object and got.shape == (7, 7)
        assert all(isinstance(c, Fraction) for c in got.ravel())
        assert got.tolist() == dict_gram(phi)
    # Fractions of numpy int64 parts, whose products would wrap, are
    # taken to Python ints first.
    big = {i: Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
           for i in basis_indices(AXES7, 3)}
    wide = KForm7(3, {i: Fraction(np.int64(c.numerator), np.int64(c.denominator))
                      for i, c in big.items()})
    assert gram_from_3form(wide).tolist() == gram_from_3form(KForm7(3, big)).tolist()


@pytest.mark.parametrize("axes", [AXES6, tuple(range(1, 9))], ids=["6", "8"])
@pytest.mark.parametrize("one", [1, 1.0], ids=["exact", "float"])
def test_gram_wants_seven_axes(axes, one):
    phi = ConstForm(axes, 3, {axes[:3]: one, axes[3:6]: one})
    with pytest.raises(ValueError, match="7 axes"):
        gram_from_3form(phi)


def old_axis_wedge_matrix(axis, degree):
    """fields._axis_wedge_matrix as it was written before the tables."""
    poso = forms.basis_position(AXES7, degree + 1)
    mat = np.zeros((math.comb(7, degree + 1), math.comb(7, degree)))
    for c, idx in enumerate(basis_indices(AXES7, degree)):
        s, merged = merge_sign((axis,), idx)
        if s:
            mat[poso[merged], c] = s
    return mat


def old_gram_matrices():
    """forms._gram_matrices as it was written before the tables."""
    pos2 = forms.basis_position(AXES7, 2)
    pos3 = forms.basis_position(AXES7, 3)
    ct = np.zeros((7, 21, 35))
    for a, ia in enumerate(basis_indices(AXES7, 3)):
        for p, ax in enumerate(ia):
            ct[ax - 1, pos2[ia[:p] + ia[p + 1:]], a] = (-1.0) ** p
    qt = np.zeros((21, 21, 35))
    for u, iu in enumerate(basis_indices(AXES7, 2)):
        for v, iv in enumerate(basis_indices(AXES7, 2)):
            s1, merged = merge_sign(iu, iv)
            if s1:
                rest = tuple(ax for ax in AXES7 if ax not in merged)
                qt[u, v, pos3[rest]] = s1 * merge_sign(merged, rest)[0]
    return ct.reshape(7 * 21, 35), qt.reshape(21 * 21, 35)


def same_array(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.tobytes() == want.tobytes())


def test_tables_rebuild_the_float_kernel_matrices_bitwise():
    from g2glue.fields import _axis_wedge_matrix
    for axis in AXES7:
        for degree in range(8):
            assert same_array(_axis_wedge_matrix(axis, degree),
                              old_axis_wedge_matrix(axis, degree)), (axis, degree)
    for got, want in zip(forms._gram_matrices(), old_gram_matrices()):
        assert same_array(got, want)
    for got, want in zip(forms._gram_matrices(object), old_gram_matrices()):
        assert got.dtype == object and np.array_equal(got.astype(float), want)
        assert all(type(c) is int for c in got.ravel())


# -- model form and calibration -------------------------------------------

def test_gram_phi0_exact():
    b = gram_from_3form(phi0(exact=True))
    for i in range(7):
        for j in range(7):
            assert b[i, j] == (6 if i == j else 0)


def test_metric_phi0_exact_identity():
    g = metric_from_3form(phi0(exact=True))
    assert g.mat.dtype == object
    for i in range(7):
        for j in range(7):
            assert g.mat[i, j] == (1 if i == j else 0)


def test_metric_scaling_exact():
    # coefficient scale lambda^3 gives metric scale lambda^2, exactly
    for lam in (Fraction(1, 2), Fraction(2), Fraction(3, 5)):
        g = metric_from_3form(phi0(exact=True).scale(lam ** 3))
        for i in range(7):
            for j in range(7):
                assert g.mat[i, j] == (lam ** 2 if i == j else 0)


def test_metric_exact_far_from_unit_scale():
    # det B of phi0 * 10^21 is 6^7 10^441, too large for a float; 36 det B
    # is the ninth power of 6 10^49, so the metric stays exact.
    g = metric_from_3form(phi0(exact=True).scale(Fraction(10 ** 21))).mat
    assert g.dtype == object
    assert all(g[i, j] == (10 ** 14 if i == j else 0) for i in range(7) for j in range(7))
    # 10^20 and 10^-20 give no rational ninth root: float metrics.
    for s, want in ((Fraction(10 ** 20), 10 ** (40 / 3)), (Fraction(1, 10 ** 20), 10 ** (-40 / 3))):
        g = np.asarray(metric_from_3form(phi0(exact=True).scale(s)).mat, dtype=float)
        assert np.abs(g - want * np.eye(7)).max() <= 1e-12 * want


def test_star_phi0_expansion():
    g = metric_from_3form(phi0())
    sp = hodge_star(g, phi0())
    want = {(2, 3, 4, 5): 1.0, (2, 3, 6, 7): 1.0, (4, 5, 6, 7): 1.0,
            (1, 3, 5, 7): 1.0, (1, 2, 4, 7): -1.0, (1, 2, 5, 6): -1.0,
            (1, 3, 4, 6): -1.0}
    assert set(sp.coeffs) == set(want)
    for idx, c in want.items():
        assert abs(sp.coeffs[idx] - c) < 1e-14


def test_phi_wedge_star_phi():
    g = metric_from_3form(phi0())
    sp = hodge_star(g, phi0())
    top = phi0().wedge(sp)
    assert abs(top.coeffs[AXES7] - 7.0) < 1e-12


def test_gram_pullback_equivariance():
    rng = np.random.default_rng(99)
    p = phi0()
    b0 = gram_from_3form(p)
    for _ in range(100):
        a = rng.standard_normal((7, 7))
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        b = gram_from_3form(p.pullback(a))
        want = np.linalg.det(a) * a.T @ b0 @ a
        assert np.abs(b - want).max() <= 1e-9 * np.abs(want).max()


def test_metric_pullback_gives_ata():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.standard_normal((7, 7))
        if abs(np.linalg.det(a)) < 1e-2:
            continue
        g = metric_from_3form(phi0().pullback(a))
        want = a.T @ a
        assert np.abs(np.asarray(g.mat, dtype=float) - want).max() < 1e-9 * np.abs(want).max()


def test_degenerate_form_rejected():
    with pytest.raises(NotStable):
        metric_from_3form(KForm7(3, {(1, 2, 3): 1.0}))
    assert not is_g2_form(KForm7(3, {(1, 2, 3): 1.0}))


def test_stability_open():
    rng = np.random.default_rng(11)
    pert = random_form(AXES7, 3, rng, scale=1e-3)
    assert is_g2_form(phi0() + pert)


# -- Hodge star ------------------------------------------------------------

@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5, 6, 7])
def test_double_star_identity(degree):
    rng = np.random.default_rng(degree)
    for _ in range(5):
        g = random_spd(7, rng)
        al = random_form(AXES7, degree, rng)
        ss = hodge_star(g, hodge_star(g, al))
        assert (ss - al).norm() < 1e-10 * max(1.0, al.norm())


def test_star_defining_property():
    # a ^ *b == <a, b>_g vol_g, with the pairing computed from minors
    rng = np.random.default_rng(3)
    g = random_spd(7, rng)
    ginv = np.linalg.inv(g)
    a = random_form(AXES7, 3, rng)
    b = random_form(AXES7, 3, rng)
    pairing = 0.0
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            rows = [i - 1 for i in ia]
            cols = [i - 1 for i in ib]
            pairing += ca * cb * np.linalg.det(ginv[np.ix_(rows, cols)])
    lhs = a.wedge(hodge_star(g, b)).coeffs.get(AXES7, 0.0)
    want = pairing * math.sqrt(np.linalg.det(g))
    assert abs(lhs - want) < 1e-10 * max(1.0, abs(want))


def test_star_exact_at_identity():
    g = metric_from_3form(phi0(exact=True))
    w = random_form(AXES7, 2)
    exact_w = ConstForm(AXES7, 2, {i: Fraction(str(round(c, 3))) for i, c in w.coeffs.items()})
    ss = hodge_star(g, hodge_star(g, exact_w))
    assert ss.coeffs == exact_w.coeffs  # Fraction arithmetic all the way


# -- compound matrices -----------------------------------------------------

def test_compound_cauchy_binet():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((7, 7))
    b = rng.standard_normal((7, 7))
    ia = ratmat.asfrac(rng.integers(-3, 4, (7, 7)))
    ib = ratmat.asfrac(rng.integers(-3, 4, (7, 7)))
    for k in range(8):
        lhs = forms._compound(a @ b, k)
        rhs = forms._compound(a, k) @ forms._compound(b, k)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())
        # Exact products of 35 x 35 Fraction matrices take seconds, so the
        # exact identity is checked on an integer vector.
        v = ratmat.asfrac(rng.integers(-3, 4, len(lhs)))
        exact = forms._compound(ia @ ib, k)
        assert exact.dtype == object
        assert (exact @ v == forms._compound(ia, k) @ (forms._compound(ib, k) @ v)).all()


def test_compound_identity_first_and_top():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((7, 7))
    ia = ratmat.asfrac(rng.integers(-3, 4, (7, 7)))
    for k in range(8):
        n = len(basis_indices(AXES7, k))
        assert np.array_equal(forms._compound(np.eye(7), k), np.eye(n))
        assert (forms._compound(ratmat.asfrac(np.eye(7, dtype=int)), k) == np.eye(n)).all()
    assert np.abs(forms._compound(a, 1) - a).max() <= 1e-15 * np.abs(a).max()
    assert (forms._compound(ia, 1) == ia).all()
    assert forms._compound(a, 0).tolist() == [[1.0]]
    assert forms._compound(ia, 0).tolist() == [[1]]
    assert abs(forms._compound(a, 7)[0, 0] - np.linalg.det(a)) <= 1e-12 * abs(np.linalg.det(a))
    assert forms._compound(ia, 7).tolist() == [[ratmat.det(ia)]]


def test_star_and_pullback_exact_match_float_off_identity():
    # det diag(1, 4, 9, 1, 4, 1, 1) = 12^2, so the exact star stays rational.
    rng = np.random.default_rng(37)
    gf = np.diag([1.0, 4.0, 9.0, 1.0, 4.0, 1.0, 1.0])
    gq = ratmat.asfrac(np.diag([1, 4, 9, 1, 4, 1, 1]))
    aq = ratmat.asfrac(rng.integers(-2, 3, (7, 7)))
    af = ratmat.tofloat(aq)
    for k in range(8):
        vec = [Fraction(int(n), 8) for n in rng.integers(-16, 17, len(basis_indices(AXES7, k)))]
        form = ConstForm.fromvector(AXES7, k, vec)
        for exact, approx in ((hodge_star(gq, form), hodge_star(gf, form)),
                              (form.pullback(aq), form.pullback(af))):
            assert exact.is_exact_rational()
            want = exact.tovector()
            assert np.abs(approx.tovector() - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


# -- cylindrical splitting -------------------------------------------------

def test_split_assemble_roundtrip():
    for sign in (1, -1):
        big, small = split_cylindrical(phi0(), sign)
        back = assemble_cylindrical(big, small, sign)
        assert (back - phi0()).norm() < 1e-15


def test_split_phi0_model_pieces():
    big, small = split_cylindrical(phi0(), 1)
    assert (big - Omega0()).norm() < 1e-15
    assert (small - omega0()).norm() < 1e-15


def test_split_sign_flip():
    phi_minus = assemble_cylindrical(Omega0(), omega0(), -1)
    big, small = split_cylindrical(phi_minus, -1)
    assert (small - omega0()).norm() < 1e-15


# -- SU(3) tangent relations ----------------------------------------------

def test_su3_residual_zero_tangent():
    r1, r2 = su3_tangent_residual(Omega0(), omega0(), KForm6(3), KForm6(2))
    assert r1 == 0.0 and r2 == 0.0


def test_su3_residual_omega_direction():
    # (sigma, tau) = (0, omega0) violates the volume-matching relation:
    # tau ^ omega^2 = omega^3 = 6 vol
    r1, r2 = su3_tangent_residual(Omega0(), omega0(), KForm6(3), omega0())
    assert abs(r1 - 6.0) < 1e-10
    # Omega0 ^ omega0 = 0, so the 5-form relation is untouched
    assert r2 < 1e-12


def test_su3_kernel_via_nullspace():
    # build the joint linear map (sigma, tau) -> (r1 coefficient, 5-form)
    # and check su3_tangent_residual vanishes along its numeric kernel
    big, small = Omega0(), omega0()
    n3 = len(basis_indices(AXES6, 3))
    n2 = len(basis_indices(AXES6, 2))
    cols = []
    for j in range(n3 + n2):
        sv = np.zeros(n3)
        tv = np.zeros(n2)
        if j < n3:
            sv[j] = 1.0
        else:
            tv[j - n3] = 1.0
        sigma = ConstForm.fromvector(AXES6, 3, sv)
        tau = ConstForm.fromvector(AXES6, 2, tv)
        g6 = np.eye(6)
        six = sigma.wedge(hodge_star(g6, big)) - tau.wedge(small).wedge(small)
        five = sigma.wedge(small) + big.wedge(tau)
        col = [six.coeffs.get(AXES6, 0.0)]
        col += [five.coeffs.get(i, 0.0) for i in basis_indices(AXES6, 5)]
        cols.append(col)
    mat = np.array(cols).T
    _, s, vt = np.linalg.svd(mat)
    kernel = vt[(s < 1e-10).sum() * 0 + (s > 1e-10).sum():]
    assert kernel.shape[0] == (n3 + n2) - np.linalg.matrix_rank(mat)
    rng = np.random.default_rng(17)
    mix = kernel.T @ rng.standard_normal(kernel.shape[0])
    sigma = ConstForm.fromvector(AXES6, 3, mix[:n3])
    tau = ConstForm.fromvector(AXES6, 2, mix[n3:])
    r1, r2 = su3_tangent_residual(big, small, sigma, tau)
    assert r1 < 1e-10 and r2 < 1e-10


def test_su3_rejects_degenerate_structure():
    with pytest.raises(NotStable):
        su3_tangent_residual(Omega0(), KForm6(2), KForm6(3), KForm6(2))


def test_reversed_orientation_still_stable():
    # Omega0 - dt ^ omega0 is the mirror-image structure; its induced
    # metric is still the identity thanks to the signed ninth root
    phi_minus = assemble_cylindrical(Omega0(), omega0(), -1)
    g = metric_from_3form(phi_minus)
    assert np.abs(np.asarray(g.mat, dtype=float) - np.eye(7)).max() < 1e-12


# -- batched kernels -------------------------------------------------------

def stable_rows(rng, count):
    """``2 * count`` stable 3-forms: phi0 plus noise on the 1/512 grid,
    then phi0 pulled back by maps I + R/8 with R in {-1, 0, 1}^49
    (condition number about 2, coefficients on the same grid)."""
    base = phi0().tovector()
    rows = [base + rng.integers(-32, 33, 35) / 512 for _ in range(count)]
    for _ in range(count):
        a = np.eye(7) + rng.integers(-1, 2, (7, 7)) / 8
        rows.append(phi0().pullback(a).tovector())
    return np.array(rows)


def rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_batched_kernels_match_dict_reference():
    coeffs = stable_rows(np.random.default_rng(41), 120)
    b = forms.gram_batch(coeffs)
    g = forms.metric_batch(coeffs)
    s = forms.star3_batch(coeffs)
    for k, c in enumerate(coeffs):
        phi = ConstForm.fromvector(AXES7, 3, c)
        metric = metric_from_3form(phi).mat
        assert rel_err(g[k], metric) <= 1e-12
        assert rel_err(s[k], hodge_star(metric, phi).tovector()) <= 1e-12
    # Float gram_from_3form on R^7 is gram_batch itself, and the exact
    # path runs the same structure matrices over ints; a spread of rows,
    # rounded to the 1/512 grid, is checked against it.  The independent
    # reference is dict_gram, in test_exact_gram_matches_the_dict_reference.
    for k in range(0, len(coeffs), 15):
        num = np.rint(coeffs[k] * 512)
        exact = ConstForm.fromvector(AXES7, 3, [int(x) for x in num])
        want = ratmat.tofloat(gram_from_3form(exact)) / 512.0 ** 3
        assert rel_err(b[k], want) <= 1e-12
        float_form = ConstForm.fromvector(AXES7, 3, num / 512)
        assert rel_err(gram_from_3form(float_form), want) <= 1e-12


def test_batched_kernels_keep_leading_shape():
    coeffs = stable_rows(np.random.default_rng(43), 12)
    b = forms.gram_batch(coeffs)
    g = forms.metric_batch(coeffs)
    s = forms.star3_batch(coeffs)
    shaped = coeffs.reshape(4, 6, 35)
    b46 = forms.gram_batch(shaped)
    g46 = forms.metric_batch(shaped)
    assert b46.shape == (4, 6, 7, 7)
    assert rel_err(b46.reshape(-1, 7, 7), b) <= 1e-14
    assert rel_err(g46.reshape(-1, 7, 7), g) <= 1e-14
    s46 = forms.star3_batch(shaped)
    assert s46.shape == (4, 6, 35)
    assert rel_err(s46.reshape(-1, 35), s) <= 1e-14
    one = coeffs[:1]
    assert forms.gram_batch(one).shape == (1, 7, 7)
    g1 = forms.metric_batch(one)
    assert rel_err(g1[0], g[0]) <= 1e-14
    assert rel_err(forms.star3_batch(one)[0], s[0]) <= 1e-14


def test_gram_rows_do_not_depend_on_the_blocks():
    coeffs = stable_rows(np.random.default_rng(97), 600)
    assert len(coeffs) > 2 * forms._GRAM_BLOCK
    whole = forms.gram_batch(coeffs)
    assert np.array_equal(whole, [forms.gram_batch(c) for c in coeffs])
    assert np.array_equal(forms.gram_batch(coeffs.reshape(40, 30, 35)),
                          whole.reshape(40, 30, 7, 7))


def model_block_rows(rng, count, scale):
    """Rows with the model's dt-free block, Omega0's, and the dt block
    omega0's plus Gaussian noise of the given scale, as every sample of a
    xi = 0 neck has."""
    rows = np.tile(phi0().tovector(), (count, 1))
    rows[:, :15] += scale * rng.standard_normal((count, 15))
    return rows


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 0.3])
def test_model_block_gram_matches_the_uqu_reference(scale):
    coeffs = model_block_rows(np.random.default_rng(101), 300, scale)
    got = forms.gram_batch(coeffs)
    want = forms._gram_uqu(coeffs)
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 2e-15 * (1.0 + np.abs(want).max(axis=(1, 2))))
    assert np.array_equal(got, np.swapaxes(got, 1, 2))
    assert np.array_equal(got, [forms.gram_batch(c) for c in coeffs])
    assert np.array_equal(forms.gram_batch(phi0().tovector()), 6.0 * np.eye(7))


def test_model_block_gram_keeps_shapes():
    coeffs = model_block_rows(np.random.default_rng(103), 24, 0.1)
    whole = forms.gram_batch(coeffs)
    assert forms.gram_batch(coeffs.reshape(4, 6, 35)).tobytes() == whole.tobytes()
    assert forms.gram_batch(coeffs.reshape(4, 6, 35)).shape == (4, 6, 7, 7)
    assert forms.gram_batch(coeffs[5]).shape == (7, 7)
    assert forms.gram_batch(coeffs[5]).tobytes() == whole[5].tobytes()
    empty = np.tile(phi0().tovector(), (0, 1))
    assert forms.gram_batch(empty).shape == (0, 7, 7)
    assert forms.gram_batch(empty.reshape(0, 3, 35)).shape == (0, 3, 7, 7)


def test_one_row_off_the_model_block_sends_its_batch_to_the_reference():
    coeffs = model_block_rows(np.random.default_rng(107), 40, 0.1)
    assert (forms.gram_batch(coeffs).tobytes()
            == forms._gram_dt_cubic(coeffs).T.tobytes())
    col = 15 + np.flatnonzero(forms._MODEL_FREE)[0]
    coeffs[17, col] = np.nextafter(coeffs[17, col], np.inf)
    assert forms.gram_batch(coeffs).tobytes() == forms._gram_uqu(coeffs).tobytes()


def test_batched_metric_rejects_a_degenerate_row():
    coeffs = stable_rows(np.random.default_rng(47), 4)
    coeffs[3] = KForm7(3, {(1, 2, 3): 1.0}).tovector()
    with pytest.raises(NotStable):
        forms.metric_batch(coeffs)
    with pytest.raises(NotStable):
        forms.metric_batch(coeffs[3:4])


def reversed_rows(rng, count):
    """Rows near Omega0 - dx^1 ^ omega0, whose orientation is opposite to
    dx^1..7: det B < 0 on every one."""
    base = assemble_cylindrical(Omega0(), omega0(), -1).tovector()
    return base + 1e-3 * rng.standard_normal((count, 35))


def test_batched_star_on_orientation_reversed_rows():
    coeffs = reversed_rows(np.random.default_rng(53), 40)
    assert np.all(np.linalg.det(forms.gram_batch(coeffs)) < 0)
    g = forms.metric_batch(coeffs)
    s = forms.star3_batch(coeffs)
    for k, c in enumerate(coeffs):
        phi = ConstForm.fromvector(AXES7, 3, c)
        metric = metric_from_3form(phi).mat
        assert rel_err(g[k], metric) <= 1e-12
        assert rel_err(s[k], hodge_star(metric, phi).tovector()) <= 1e-12


def test_batched_star_wedges_to_seven_volumes():
    # psi = eps * (*phi), eps = sign(det B) the orientation of phi, has
    # phi ^ psi = 7 eps sqrt(det g) dx^1..7 on either orientation.
    rng = np.random.default_rng(59)
    coeffs = np.vstack([stable_rows(rng, 10), reversed_rows(rng, 20)])
    eps = np.sign(np.linalg.det(forms.gram_batch(coeffs)))
    assert set(eps) == {-1.0, 1.0}
    g = forms.metric_batch(coeffs)
    s = forms.star3_batch(coeffs)
    for c, e, gk, sk in zip(coeffs, eps, g, s):
        phi = ConstForm.fromvector(AXES7, 3, c)
        psi = ConstForm.fromvector(AXES7, 4, e * sk)
        want = 7.0 * e * math.sqrt(np.linalg.det(gk))
        assert abs(phi.wedge(psi).coeffs[AXES7] - want) <= 1e-12 * abs(want)


def test_batched_kernels_leave_their_inputs_alone():
    coeffs = np.vstack([stable_rows(np.random.default_rng(61), 3),
                        reversed_rows(np.random.default_rng(67), 2)])
    for batch in (coeffs, coeffs[:1], coeffs[6:7], coeffs.reshape(2, 4, 35)):
        kept = batch.copy()
        g = forms.metric_batch(batch)
        s = forms.star3_batch(batch)
        assert np.array_equal(batch, kept)
        assert not np.shares_memory(g, batch) and not np.shares_memory(s, batch)


def split_form():
    """The split G2 form: det B = -6^7 and B = diag(6, 6, -6, 6, -6, -6, 6)."""
    return phi0().tovector() * np.where(
        np.arange(35) == basis_indices(AXES7, 3).index((3, 5, 6)), -1.0, 1.0)


DEGENERATE = "degenerate 3-form in batch"
INDEFINITE = "batch contains a 3-form with indefinite induced form"


def unstable_rows():
    """(row, message) pairs: the NotStable message metric_batch raises on
    that row, alone or among stable rows."""
    shear = np.eye(7)
    shear[2, 0] = 1.0                       # e1 -> e1 + e3, a null vector
    null_lead = ConstForm.fromvector(AXES7, 3, split_form()).pullback(shear)
    nan_row = phi0().tovector()
    nan_row[4] = np.nan
    inf_row = phi0().tovector()
    inf_row[9] = -np.inf
    return [(KForm7(3, {(1, 2, 3): 1.0}).tovector(), DEGENERATE),
            (split_form(), INDEFINITE),
            (null_lead.tovector(), INDEFINITE),
            (nan_row, DEGENERATE),
            (inf_row, DEGENERATE)]


def test_unstable_rows_premises():
    (degenerate, _), (split, _), (null_lead, _), *_ = unstable_rows()
    assert np.linalg.det(forms.gram_batch(degenerate)) == 0.0
    b = forms.gram_batch(split)
    assert np.array_equal(b, np.diag([6.0, 6, -6, 6, -6, -6, 6]))
    b = forms.gram_batch(null_lead)
    assert b[0, 0] == 0.0 and abs(np.linalg.det(b)) > 1e5


def test_non_finite_rows_hold_the_model_block():
    # Alone, the nan and inf rows take gram_batch's dt cubic, so the
    # message tests below cover that path as well as U Q U^T.
    for row, _ in unstable_rows()[3:]:
        assert np.array_equal(row[15:], forms._MODEL_FREE)


UNSTABLE_IDS = ["degenerate", "split", "null-leading-pivot", "nan", "inf"]


def check_messages(kernel, index):
    row, message = unstable_rows()[index]
    batch = stable_rows(np.random.default_rng(71), 3)
    batch[2] = row
    for rows in (batch, row[None], row):
        with pytest.raises(NotStable) as info:
            kernel(rows)
        assert type(info.value) is NotStable and str(info.value) == message


@pytest.mark.parametrize("index", range(5), ids=UNSTABLE_IDS)
def test_batched_metric_messages(index):
    check_messages(forms.metric_batch, index)


@pytest.mark.parametrize("index", range(5), ids=UNSTABLE_IDS)
def test_batched_star_messages(index):
    check_messages(forms.star3_batch, index)


@pytest.mark.parametrize("index", range(5), ids=UNSTABLE_IDS)
def test_dt_free_star_messages(index):
    check_messages(lambda rows: forms.star3_batch(rows, dt_free=True), index)


# Rows on the 1/512 grid within 1/16 of phi0 or of its orientation
# reversal, each component drawn alone: all stable.
STABLE_ROWS = st.lists(
    st.tuples(st.booleans(),
              st.lists(st.integers(-32, 32), min_size=35, max_size=35)),
    min_size=1, max_size=24)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(STABLE_ROWS, st.booleans())
def test_dt_free_star_is_the_full_stars_last_15(drawn, one_row):
    bases = (phi0().tovector(),
             assemble_cylindrical(Omega0(), omega0(), -1).tovector())
    coeffs = np.array([bases[rev] + np.array(steps) / 512
                       for rev, steps in drawn])
    if one_row:
        coeffs = coeffs[0]
    got = forms.star3_batch(coeffs, dt_free=True)
    assert got.shape == coeffs.shape[:-1] + (15,)
    assert got.tobytes() == forms.star3_batch(coeffs)[..., 20:].tobytes()


def runs_of_rows(rng):
    """(distinct, repeats): neighbouring distinct rows differ, two of them
    only in the sign of a zero, so they are separate runs."""
    model = phi0().tovector()
    signed = model.copy()
    signed[5] = -0.0
    mixed = np.vstack([model, stable_rows(rng, 2), model, signed, model,
                       model_block_rows(rng, 2, 0.1)])
    block = np.vstack([model, model_block_rows(rng, 3, 0.1), model, signed])
    return [(mixed, [5, 1, 3, 2, 1, 4, 1, 2, 6, 1]), (block, [4, 1, 2, 1, 7, 3])]


@pytest.mark.parametrize("dt_free", [False, True])
def test_star_factors_each_run_of_equal_rows_once(monkeypatch, dt_free):
    seen = []
    real = forms.gram_batch

    def counting(rows):
        seen.append(len(rows))
        return real(rows)

    for distinct, repeats in runs_of_rows(np.random.default_rng(109)):
        assert len(repeats) == len(distinct)
        want = np.repeat(forms.star3_batch(distinct, dt_free=dt_free), repeats, axis=0)
        monkeypatch.setattr(forms, "gram_batch", counting)
        seen.clear()
        got = forms.star3_batch(np.repeat(distinct, repeats, axis=0), dt_free=dt_free)
        monkeypatch.setattr(forms, "gram_batch", real)
        assert seen == [len(distinct)]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_batched_metric_reports_degenerate_before_indefinite():
    (degenerate, _), (split, _), *_ = unstable_rows()
    batch = stable_rows(np.random.default_rng(73), 3)
    batch[0] = split
    batch[5] = degenerate
    for kernel in (forms.metric_batch, forms.star3_batch):
        with pytest.raises(NotStable, match=DEGENERATE):
            kernel(batch)


def test_batched_kernels_skip_lapack_on_stable_rows(monkeypatch):
    coeffs = np.vstack([stable_rows(np.random.default_rng(79), 20),
                        reversed_rows(np.random.default_rng(83), 20)])
    want_g = forms.metric_batch(coeffs)
    want_s = forms.star3_batch(coeffs)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called on a stable batch")

    for name in ("det", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert np.array_equal(forms.metric_batch(coeffs), want_g)
    assert np.array_equal(forms.star3_batch(coeffs), want_s)


def two_kernel_star(coeffs):
    """The star as two factorizations: metric_batch eliminates B for
    g = s B, then [g | phi_ab.] is eliminated again for g^-1 phi_ab., the
    identity is read with g, and eps off the sign of phi ^ psi."""
    g = forms.metric_batch(coeffs)
    ct = np.asarray(coeffs, dtype=float).reshape(-1, 35).T
    n = ct.shape[1]
    gt = g.reshape(n, 49).T
    raise_mat, low_mat, sign, yp, yr, gi = forms._star3_tables(False)
    aug = np.concatenate([gt.reshape(7, 7, n), (raise_mat @ ct).reshape(7, 5, n)],
                         axis=1)
    forms._eliminate(aug)
    low = (low_mat @ ct).reshape(35, 5, n)
    psi = sign[:, None] * (np.einsum("jpn,jpn->jn", aug[yp, yr], low)
                           - gt[gi[0]] * gt[gi[1]] + gt[gi[2]] * gt[gi[3]])
    comp, signs = forms._hodge_table(7, 3)
    eps = np.sign(signs @ (ct[comp] * psi))
    return (eps * psi).T.reshape(np.shape(coeffs))


def test_one_pass_star_matches_the_two_kernel_formula():
    rng = np.random.default_rng(89)
    coeffs = np.vstack([stable_rows(rng, 30), reversed_rows(rng, 60)])
    assert set(np.sign(np.linalg.det(forms.gram_batch(coeffs)))) == {-1.0, 1.0}
    for batch in (coeffs, coeffs.reshape(10, 12, 35), coeffs[0], coeffs[-1]):
        got = forms.star3_batch(batch)
        assert got.shape == batch.shape
        assert rel_err(got, two_kernel_star(batch)) <= 1e-14
    empty = np.zeros((0, 35))
    assert forms.star3_batch(empty).shape == (0, 35)
    assert forms.star3_batch(empty, dt_free=True).shape == (0, 15)
    assert two_kernel_star(empty).shape == (0, 35)
