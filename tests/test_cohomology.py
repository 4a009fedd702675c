"""Diagram engine: validation, subspaces, gluing map, derivative model."""

import dataclasses

import numpy as np
import pytest

from g2glue import cohomology
from g2glue.cohomology import (
    B1NotZero,
    HarmonicPair,
    InconsistentTargets,
    SingularBoundary,
    boundary_class_check,
    derivative_model,
    diagram_from_json,
    diagram_to_json,
    gluing_matrix,
    load_diagram,
    product_diagram,
    sample_pair,
    save_diagram,
    shift_C,
    singular_levels,
    subspaces,
    synth_diagram,
    validate_C,
    validate_diagram,
    yh_full,
)

PALINDROME = (1, 0, 3, 4, 3, 0, 1)


@pytest.fixture(scope="module")
def rigged():
    return synth_diagram(3, 2, (-6.0, -3.0))


@pytest.fixture(scope="module")
def product():
    return product_diagram(PALINDROME)


def kmat(d, m):
    return np.vstack([d.mat("istar_plus", m), d.mat("istar_minus", m)])


# ---------------------------------------------------------------------------
# validation


def test_product_diagram_passes_all_checks(product):
    rep = validate_diagram(product)
    assert rep.ok, [f.name for f in rep.failures]
    assert validate_C(product).ok


def test_product_diagram_needs_seven_dims():
    with pytest.raises(ValueError, match="per degree"):
        product_diagram((1, 2, 3))


def test_synth_passes_float_and_exact(rigged):
    assert validate_diagram(rigged).ok
    assert validate_diagram(rigged, exact=True).ok


@pytest.mark.parametrize("seed,k", [(0, 0), (1, 1), (2, 3), (9, 4)])
def test_synth_soundness_across_targets(seed, k):
    spec = tuple(-1.0 - 2.0 * i for i in range(k))
    d = synth_diagram(seed, k, spec)
    assert validate_diagram(d).ok
    assert validate_C(d).ok
    got = singular_levels(d, 3)
    want = np.sort([-lam / 2 for lam in spec])
    assert np.allclose(got, want, atol=1e-10)


def test_synth_rejects_mismatched_targets():
    with pytest.raises(InconsistentTargets):
        synth_diagram(0, 2, (-6.0,))
    with pytest.raises(InconsistentTargets):
        synth_diagram(0, -1, ())


def test_synth_deterministic_per_seed():
    a = synth_diagram(17, 2, (-5.0, -1.0))
    b = synth_diagram(17, 2, (-5.0, -1.0))
    c = synth_diagram(18, 2, (-5.0, -1.0))
    for m in range(8):
        for key in a.degrees[m].maps:
            assert np.array_equal(a.degrees[m].maps[key], b.degrees[m].maps[key])
    assert any(
        not np.array_equal(a.degrees[m].maps[key], c.degrees[m].maps[key])
        for m in range(8) for key in a.degrees[m].maps)


def test_scrambled_pairing_stays_positive(rigged):
    for blk in rigged.degrees:
        if blk.ip_x.size:
            assert np.linalg.eigvalsh(blk.ip_x).min() > 0


def test_corruption_of_connecting_map_detected(rigged):
    blk = rigged.degrees[3]
    bad = np.array(blk.maps["mv_delta"], copy=True)
    bad[0, 0] += 1e-3
    maps = dict(blk.maps)
    maps["mv_delta"] = bad
    broken = dataclasses.replace(rigged, degrees=tuple(
        dataclasses.replace(b, maps=maps) if b.m == 3 else b
        for b in rigged.degrees))
    rep = validate_diagram(broken)
    assert not rep.ok
    assert any("delta-factor" in f.name for f in rep.failures)


def test_corruption_of_total_restriction_detected(rigged):
    blk = rigged.degrees[3]
    bad = np.array(blk.maps["istar_plus"], copy=True)
    bad[0, 0] += 1e-3
    maps = dict(blk.maps)
    maps["istar_plus"] = bad
    broken = dataclasses.replace(rigged, degrees=tuple(
        dataclasses.replace(b, maps=maps) if b.m == 3 else b
        for b in rigged.degrees))
    assert not validate_diagram(broken).ok


def test_half_dimension_check_runs_only_without_degree_one(rigged):
    rep = validate_diagram(rigged)
    assert any(c.name.startswith("halfdim") for c in rep.checks)
    d = synth_diagram(4, 0, (), b1_zero=False)
    assert d.dim("H_M", 1) == 1
    rep = validate_diagram(d)
    assert rep.ok
    assert not any(c.name.startswith("halfdim") for c in rep.checks)


# ---------------------------------------------------------------------------
# subspaces


def test_product_subspaces_trivial(product):
    for m in (2, 3):
        sub = subspaces(product, m)
        assert sub.e_plus.shape[1] == 0
        assert sub.e_common.shape[1] == 0
        assert sub.a_common.shape[1] == product.dim("H_X", m)
        assert np.all(sub.projector == 0)


def test_rigged_subspace_dimensions(rigged):
    sub = subspaces(rigged, 2)
    assert sub.e_common.shape[1] == 2
    assert np.linalg.matrix_rank(sub.projector) == 2


def test_projector_axioms(rigged):
    sub = subspaces(rigged, 2)
    gram = rigged.gram(2)
    p = sub.projector
    assert np.abs(p @ p - p).max() < 1e-12
    assert np.abs(gram @ p - (gram @ p).T).max() < 1e-12


def test_boundary_images_orthogonal_to_complements(rigged):
    for m in (1, 2, 3, 4):
        sub = subspaces(rigged, m)
        gram = rigged.gram(m)
        if sub.a_plus.size and sub.e_plus.size:
            assert np.abs(sub.a_plus.T @ gram @ sub.e_plus).max() < 1e-10


def test_rank_nullspace_and_span_share_one_cut():
    # s₀ = 1 and a last singular value of 3e-10: above 1e-10·s₀, below the
    # rule's 1e-10·max(shape)·s₀ = 5e-10, so every decision drops it.
    rng = np.random.default_rng(0)
    q1, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q1 @ np.diag([1.0, 0.7, 0.4, 0.1, 3e-10]) @ q2.T
    assert cohomology._rank(a) == 4
    assert cohomology._nullspace(a).shape[1] == 1
    assert cohomology._gram_orth(a, np.eye(5)).shape[1] == 4


def two_planes(angle):
    """Degree-2 boundary images: two planes in R⁴ at principal angles
    ``angle``, ``angle``."""
    obj = diagram_to_json(product_diagram((1, 0, 4, 0, 0, 0, 0)))
    c, s = np.cos(angle), np.sin(angle)
    plus, minus = np.zeros((4, 4)), np.zeros((4, 4))
    plus[0, 0] = plus[1, 1] = 1.0
    minus[[0, 2], 0] = minus[[1, 3], 1] = c, s
    maps = obj["degrees"][2]["maps"]
    maps["jstar_plus"], maps["jstar_minus"] = plus.tolist(), minus.tolist()
    return diagram_from_json(obj)


@pytest.mark.parametrize("angle,common", [
    (0.0, 2), (1e-12, 2), (1e-6, 0), (0.1, 0)])
def test_planes_meet_only_below_the_rank_cut(angle, common):
    sub = subspaces(two_planes(angle), 2)
    assert sub.a_plus.shape[1] == sub.a_minus.shape[1] == 2
    assert sub.a_common.shape[1] == sub.e_common.shape[1] == common


# ---------------------------------------------------------------------------
# neck correction


def test_validate_C_zero_correction_passes(product):
    rep = validate_C(product)
    assert rep.ok


def test_antisymmetric_seed_fails_selfadjointness():
    d = synth_diagram(6, 2, (0.0, 0.0), scramble=False)
    blk = d.degrees[3]
    cp = np.array(blk.c_plus, copy=True)
    # Construction order puts the two neck classes after the shared one in
    # the degree-2 section basis and their supports first among the
    # compactly supported coordinates.
    cp[0, 2] = 1.0
    cp[1, 1] = -1.0
    broken = dataclasses.replace(d, degrees=tuple(
        dataclasses.replace(b, c_plus=cp) if b.m == 3 else b
        for b in d.degrees))
    rep = validate_C(broken)
    assert not rep.ok
    assert any("selfadjoint" in f.name for f in rep.failures)


def test_degenerate_boundary_raises():
    d = synth_diagram(6, 1, (-2.0,), scramble=False)
    blk = d.degrees[3]
    maps = dict(blk.maps)
    maps["del_plus"] = np.zeros_like(blk.maps["del_plus"])
    broken = dataclasses.replace(d, degrees=tuple(
        dataclasses.replace(b, maps=maps) if b.m == 3 else b
        for b in d.degrees))
    with pytest.raises(SingularBoundary):
        singular_levels(broken, 3)


@pytest.mark.parametrize("path", [
    lambda d: gluing_matrix(d, 3, 2.0),
    lambda d: cohomology._yh_exact(d, 3, np.zeros(d.dim("H_X", 2)), 2.0),
    lambda d: validate_C(d),
    lambda d: derivative_model(d, np.zeros(d.dim("H_X", 2)), 2.0),
], ids=["gluing_matrix", "yh_exact", "validate_C", "derivative_model"])
def test_degenerate_boundary_raises_on_every_path(path):
    d = synth_diagram(6, 1, (-2.0,))
    blk = d.degrees[3]
    maps = {**blk.maps, "del_plus": np.zeros_like(blk.maps["del_plus"])}
    broken = dataclasses.replace(d, degrees=tuple(
        dataclasses.replace(b, maps=maps) if b.m == 3 else b
        for b in d.degrees))
    with pytest.raises(SingularBoundary):
        path(broken)


def test_shift_moves_levels_by_half(rigged):
    base = singular_levels(rigged, 3)
    for lam in (1.0, -3.5, 0.25):
        moved = singular_levels(shift_C(rigged, lam), 3)
        assert np.abs(moved - (base - lam / 2)).max() < 1e-12


def test_shifted_diagram_still_validates(rigged):
    shifted = shift_C(rigged, 2.5)
    assert validate_diagram(shifted).ok
    assert validate_C(shifted).ok


# ---------------------------------------------------------------------------
# harmonic gluing map


def test_yh_exact_zero_input(rigged):
    out = cohomology._yh_exact(rigged, 3, np.zeros(rigged.dim("H_X", 2)), 4.0)
    assert np.all(out == 0)


def test_yh_exact_collapses_without_correction():
    d = synth_diagram(8, 2, (0.0, 0.0))
    sub = subspaces(d, 2)
    tau = sub.e_common @ np.array([0.7, -0.2])
    for length in (1.0, 4.5):
        want = 2.0 * length * (d.mat("mv_delta", 3) @ tau)
        assert np.allclose(cohomology._yh_exact(d, 3, tau, length), want, atol=1e-12)


def test_yh_exact_rejects_bad_parameter(rigged):
    sub = subspaces(rigged, 2)
    stray = sub.a_plus[:, 0]
    with pytest.raises(ValueError, match="orthogonal"):
        cohomology._yh_exact(rigged, 3, stray, 3.0)


def test_yh_full_restriction_roundtrip(rigged):
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = sample_pair(rigged, 3, rng)
        v = yh_full(rigged, 3, p, 6.0)
        back = kmat(rigged, 3) @ v
        want = np.concatenate([p.a_plus, p.a_minus])
        assert np.abs(back - want).max() < 1e-10


def test_yh_full_zero_pair_is_exact_part(rigged):
    sub = subspaces(rigged, 2)
    tau = sub.e_common[:, 0]
    p = HarmonicPair(3, np.zeros(rigged.dim("H_Mplus", 3)),
                     np.zeros(rigged.dim("H_Mminus", 3)), tau)
    assert np.allclose(yh_full(rigged, 3, p, 2.0),
                       cohomology._yh_exact(rigged, 3, tau, 2.0), atol=1e-13)


def test_yh_full_rejects_mismatched_pair(rigged):
    rng = np.random.default_rng(2)
    a_plus = rng.standard_normal(rigged.dim("H_Mplus", 3))
    a_minus = rng.standard_normal(rigged.dim("H_Mminus", 3))
    pair = HarmonicPair(3, a_plus, a_minus, np.zeros(rigged.dim("H_X", 2)))
    with pytest.raises(ValueError, match="disagree|realizable"):
        yh_full(rigged, 3, pair, 3.0)


def test_shift_law(rigged):
    rng = np.random.default_rng(11)
    delta = rigged.mat("mv_delta", 3)
    for _ in range(25):
        p = sample_pair(rigged, 3, rng)
        length = float(rng.uniform(0.5, 12.0))
        h = float(rng.uniform(-2.0, 2.0))
        lhs = yh_full(rigged, 3, p, length + h) - yh_full(rigged, 3, p, length)
        assert np.abs(lhs - 2.0 * h * (delta @ p.tau)).max() < 1e-12


def test_section_ambiguity_lies_in_connecting_image(rigged):
    rng = np.random.default_rng(23)
    p = sample_pair(rigged, 3, rng)
    k = kmat(rigged, 3)
    base = np.linalg.pinv(k)
    drift = rigged.mat("mv_delta", 3) @ subspaces(rigged, 2).e_common[:, 0]
    other = base + np.outer(drift, rng.standard_normal(k.shape[0]))
    v1 = yh_full(rigged, 3, p, 4.0)
    # The same map, its matching part lifted through ``other``.
    target = np.concatenate([p.a_plus, p.a_minus])
    v2 = other @ target + cohomology._yh_exact(rigged, 3, p.tau, 4.0)
    diff = v2 - v1
    delta = rigged.mat("mv_delta", 3)
    sol, *_ = np.linalg.lstsq(delta, diff, rcond=None)
    assert np.abs(delta @ sol - diff).max() < 1e-10


def test_rank_oracle_matches_levels(rigged):
    levels = singular_levels(rigged, 3)
    hm = rigged.dim("H_M", 3)
    rng = np.random.default_rng(31)
    samples = list(levels) + list(rng.uniform(0.3, 10.0, size=12))
    for length in samples:
        gm = gluing_matrix(rigged, 3, float(length))
        s = np.linalg.svd(gm, compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-8 * max(1.0, s[0])))
        deficient = rank < hm
        predicted = bool(np.min(np.abs(2.0 * length + (-2.0 * levels))) < 1e-8)
        assert deficient == predicted


def test_product_gluing_never_degenerates(product):
    for length in (0.5, 3.0, 11.0):
        gm = gluing_matrix(product, 3, length)
        assert np.linalg.matrix_rank(gm) == product.dim("H_M", 3)
    assert singular_levels(product, 3).size == 0


@pytest.fixture(scope="module", params=range(5), ids=lambda k: f"e2d{k}")
def e2d_diagram(request):
    """dim_e2d 0..4, singular levels at 0.75, 1.75, 2.75, 3.75."""
    k = request.param
    return synth_diagram(29 + k, k, tuple(-1.5 - 2.0 * i for i in range(k)))


def counted_subspaces(monkeypatch):
    calls = []

    def counting(d, m):
        calls.append(m)
        return subspaces(d, m)

    monkeypatch.setattr(cohomology, "subspaces", counting)
    return calls


def test_gluing_matrix_takes_subspaces_once(e2d_diagram, monkeypatch):
    # A warm diagram solves nothing more; a rebuilt copy starts empty and
    # solves degree 2 once, whatever the number of lengths.
    gluing_matrix(e2d_diagram, 3, 0.0)
    calls = counted_subspaces(monkeypatch)
    fresh = dataclasses.replace(e2d_diagram)
    for length in (0.75, 4.0):
        gluing_matrix(e2d_diagram, 3, length)
        gluing_matrix(fresh, 3, length)
    assert calls == [2]


def test_gluing_matrix_exact_block_is_yh_exact(e2d_diagram):
    d = e2d_diagram
    hm = d.dim("H_M", 3)
    basis = subspaces(d, 2).e_common
    for length in (*singular_levels(d, 3), 2.2, 6.0):
        gm = gluing_matrix(d, 3, length)
        assert gm.shape == (hm, hm + basis.shape[1])
        want = np.zeros((hm, 0))
        if basis.shape[1]:
            want = np.column_stack([cohomology._yh_exact(d, 3, e, length)
                                    for e in basis.T])
        scale = float(np.abs(want).max(initial=1.0))
        assert np.abs(gm[:, hm:] - want).max(initial=0.0) <= 1e-12 * scale


def test_gluing_matrix_is_affine_in_length(e2d_diagram):
    d = e2d_diagram
    hm = d.dim("H_M", 3)
    delta_e = d.mat("mv_delta", 3) @ subspaces(d, 2).e_common
    for length, h in ((0.75, 1.0), (2.2, -1.45), (6.0, 3.5)):
        base = gluing_matrix(d, 3, length)
        diff = gluing_matrix(d, 3, length + h) - base
        want = np.hstack([np.zeros((hm, hm)), 2.0 * h * delta_e])
        scale = 1.0 + float(np.abs(base).max(initial=0.0))
        assert np.abs(diff - want).max(initial=0.0) <= 1e-12 * scale


def test_plan_backed_calls_equal_fresh_calls_bitwise(e2d_diagram):
    # The warm diagram answers from its kept solves; a rebuilt copy solves
    # them again.
    d = e2d_diagram
    assert validate_C(d).ok
    cold = dataclasses.replace(d)
    for m in range(8):
        assert np.array_equal(singular_levels(d, m), singular_levels(cold, m))
    omega = subspaces(d, 2).a_common[:, 0]
    for length in (*singular_levels(d, 3), 2.2, 6.0):
        assert np.array_equal(gluing_matrix(d, 3, length),
                              gluing_matrix(cold, 3, length))
        got = derivative_model(d, omega, length)
        want = derivative_model(cold, omega, length)
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.f_spectrum, want.f_spectrum)
        assert got.sigma_min == want.sigma_min
        assert got.bijective == want.bijective


def test_plan_solves_each_degree_once(e2d_diagram, monkeypatch):
    calls = counted_subspaces(monkeypatch)
    d = dataclasses.replace(e2d_diagram)
    omega = d.subspaces(2).a_common[:, 0]
    for length in (0.75, 2.2, 6.0):
        gluing_matrix(d, 3, length)
        derivative_model(d, omega, length)
    assert calls == [2]


def test_shifts_reuse_the_diagram_subspaces(e2d_diagram, monkeypatch):
    # Criterion 8's pattern: the shift moves only C, so across the diagram
    # and its shifts each degree's subspaces are solved once.
    calls = counted_subspaces(monkeypatch)
    d = dataclasses.replace(e2d_diagram)
    assert validate_C(d).ok
    for m in range(8):
        singular_levels(d, m)
    for lam in (1.7, -2.3, 0.5):
        singular_levels(shift_C(d, lam), 3)
    assert len(calls) == len(set(calls)) and 2 in calls, calls


def test_plan_backed_samples_equal_fresh_samples_bitwise(e2d_diagram,
                                                         monkeypatch):
    warm = e2d_diagram
    warm.operator(3)
    calls = counted_subspaces(monkeypatch)
    cold = dataclasses.replace(warm)
    rng_w, rng_c = np.random.default_rng(5), np.random.default_rng(5)
    for length in (0.75, 2.2, 6.0):
        want, got = sample_pair(warm, 3, rng_w), sample_pair(cold, 3, rng_c)
        assert np.array_equal(got.tau, want.tau)
        assert np.array_equal(got.a_plus, want.a_plus)
        assert np.array_equal(cohomology._yh_exact(cold, 3, got.tau, length),
                              cohomology._yh_exact(warm, 3, want.tau, length))
        assert np.array_equal(yh_full(cold, 3, got, length),
                              yh_full(warm, 3, want, length))
    assert calls == [2]


def test_gluing_map_solves_one_section_per_degree(e2d_diagram, monkeypatch):
    # yh_full and gluing_matrix read one kept pinv(K) per degree, however
    # many pairs they map.
    real_pinv, calls = np.linalg.pinv, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real_pinv(*args, **kwargs)

    d = dataclasses.replace(e2d_diagram)
    rng = np.random.default_rng(8)
    monkeypatch.setattr(np.linalg, "pinv", counting)
    for m in (2, 3):
        for _ in range(100):
            yh_full(d, m, sample_pair(d, m, rng), 2.2)
        gluing_matrix(d, m, 2.2)
    assert len(calls) <= 2


def test_plan_arrays_are_read_only(rigged):
    # Every call shares the diagram's arrays and its kept solves; a write
    # in place must fail rather than change the answer of later calls.
    sub = rigged.subspaces(2)
    omega = sub.a_common[:, 0]
    derivative_model(rigged, omega, 2.0)
    gluing_matrix(rigged, 3, 2.0)
    for arr in (rigged.mat("mv_delta", 3), rigged.gram(2), rigged.c_mat(1, 3),
                *rigged.operator(3), sub.e_common, sub.a_common,
                sub.projector, rigged._fixed["section", 3],
                rigged._fixed["side", 3, 1], rigged._fixed["side", 3, -1],
                *rigged._solved["compressed", omega.tobytes(), 1e-10]):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    with pytest.raises(TypeError):
        rigged.degrees[3].maps["del_plus"] = 2.0 * rigged.mat("del_plus", 3)
    model = derivative_model(rigged, omega, 2.0)
    model.f_spectrum[:] = 0.0
    again = derivative_model(rigged, omega, 2.0)
    assert np.array_equal(again.f_spectrum, derivative_model(
        dataclasses.replace(rigged), omega, 2.0).f_spectrum)


def test_validate_C_solves_the_shifted_operator_afresh(rigged):
    # A diagram whose operators are already solved must not lend them to
    # its shift, or the shift rule would compare op with itself.
    for m in range(8):
        singular_levels(rigged, m)
    assert validate_C(rigged).ok
    blk = rigged.degrees[3]
    c_plus = blk.c_plus.copy()
    c_plus[0, 0] += 1e-3
    moved = dataclasses.replace(
        rigged, degrees=tuple(dataclasses.replace(b, c_plus=c_plus)
                              if b.m == 3 else b for b in rigged.degrees))
    singular_levels(moved, 3)
    names = {f.name for f in validate_C(moved).failures}
    assert names & {"corr-shift-rule", "corr-selfadjoint-plus"}, names


# ---------------------------------------------------------------------------
# derivative model


def test_product_derivative_always_bijective(product):
    w = np.zeros(product.dim("H_X", 2))
    w[0] = 1.0
    for length in (0.5, 2.0, 9.0):
        dm = derivative_model(product, w, length)
        assert dm.bijective
        assert dm.f_spectrum.size == 0


def test_rigged_derivative_fails_at_predicted_length():
    d = synth_diagram(11, 1, (-4.0,))
    w = subspaces(d, 2).a_common[:, 0]
    for length in (1.0, 1.5, 2.5, 4.0):
        assert derivative_model(d, w, length).bijective
    assert not derivative_model(d, w, 2.0).bijective


def test_derivative_sigma_grows_affinely():
    d = synth_diagram(11, 1, (-4.0,))
    w = subspaces(d, 2).a_common[:, 0]
    lengths = np.arange(5.0, 13.0)
    sigmas = [derivative_model(d, w, float(v)).sigma_min for v in lengths]
    slope, _ = np.polyfit(lengths, sigmas, 1)
    assert slope > 0
    resid = np.polyval(np.polyfit(lengths, sigmas, 1), lengths) - sigmas
    assert np.abs(resid).max() < 1e-8


def test_derivative_requires_trivial_degree_one():
    d = synth_diagram(13, 0, (), b1_zero=False)
    with pytest.raises(B1NotZero):
        derivative_model(d, np.zeros(d.dim("H_X", 2)), 3.0)


def test_derivative_compresses_along_distinguished_class(rigged):
    sub = subspaces(rigged, 2)
    w = sub.e_common[:, 0] + sub.a_common[:, 0]
    dm = derivative_model(rigged, w, 5.0)
    assert dm.f_spectrum.size == 1
    full = singular_levels(rigged, 3)
    assert full.size == 2


# ---------------------------------------------------------------------------
# membership


def test_product_membership_universal(product):
    rng = np.random.default_rng(1)
    bc = boundary_class_check(product,
                              rng.standard_normal(product.dim("H_X", 3)),
                              rng.standard_normal(product.dim("H_X", 4)))
    assert bc.plus and bc.minus


def test_zero_classes_belong(rigged):
    bc = boundary_class_check(rigged, np.zeros(rigged.dim("H_X", 3)),
                              np.zeros(rigged.dim("H_X", 4)))
    assert bc.plus and bc.minus


def test_complement_class_rejected(rigged):
    sub = subspaces(rigged, 3)
    outside = sub.e_plus[:, 0]
    bc = boundary_class_check(rigged, outside, np.zeros(rigged.dim("H_X", 4)))
    assert not bc.structure3_plus
    assert not bc.plus


def test_membership_detects_each_side(rigged):
    sub = subspaces(rigged, 3)
    inside_plus = sub.a_plus[:, 0]
    bc = boundary_class_check(rigged, inside_plus,
                              np.zeros(rigged.dim("H_X", 4)))
    assert bc.structure3_plus


def test_class_in_minus_image_only(rigged):
    # The column of the minus image farthest from the plus one.
    sub, gram = subspaces(rigged, 3), rigged.gram(3)
    off = sub.a_minus - sub.a_plus @ (sub.a_plus.T @ gram @ sub.a_minus)
    cls = 3.0 * sub.a_minus[:, np.abs(off).max(axis=0).argmax()]
    bc = boundary_class_check(rigged, cls, np.zeros(rigged.dim("H_X", 4)))
    assert bc.structure3_minus and bc.minus
    assert not bc.structure3_plus and not bc.plus


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_exact(rigged):
    back = diagram_from_json(diagram_to_json(rigged))
    for m in range(8):
        a, b = rigged.degrees[m], back.degrees[m]
        assert a.dims == b.dims
        assert np.array_equal(a.ip_x, b.ip_x)
        assert np.array_equal(a.c_plus, b.c_plus)
        for key in a.maps:
            assert np.array_equal(a.maps[key], b.maps[key])


def test_file_roundtrip(tmp_path, rigged):
    path = tmp_path / "diagram.json"
    save_diagram(rigged, path)
    back = load_diagram(path)
    assert validate_diagram(back).ok
    assert np.allclose(singular_levels(back, 3), singular_levels(rigged, 3))


def test_malformed_shape_rejected(rigged):
    obj = diagram_to_json(rigged)
    obj["degrees"][3]["maps"]["mv_delta"] = [[1.0]]
    with pytest.raises(ValueError, match="shape"):
        diagram_from_json(obj)


def test_non_finite_entry_rejected(rigged):
    obj = diagram_to_json(rigged)
    obj["degrees"][2]["C_plus"] = [[float("inf")] * len(row)
                                   for row in obj["degrees"][2]["C_plus"]]
    assert np.asarray(obj["degrees"][2]["C_plus"]).size
    with pytest.raises(ValueError, match="non-finite"):
        diagram_from_json(obj)


def test_pairing_must_be_symmetric_positive_definite(rigged):
    m = next(m for m in range(8) if rigged.dim("H_X", m) >= 2)
    obj = diagram_to_json(rigged)
    obj["degrees"][m]["ip_X"][0][1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        diagram_from_json(obj)
    obj = diagram_to_json(rigged)
    obj["degrees"][m]["ip_X"] = (-rigged.gram(m)).tolist()
    with pytest.raises(ValueError, match="positive definite"):
        diagram_from_json(obj)
