"""Neck assembly tests: cutoffs, tail integrals, surgery, torsion, reduction."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from g2glue import gluing
from g2glue.fields import (
    CylStructure,
    _axis_wedge_matrix,
    NoLimit,
    SpectralForm,
    TGrid,
    ZERO_XI,
    estimate_decay_rate,
    exterior_d,
    harmonic_project,
    norm_sup,
)
from g2glue.forms import AXES7, Omega0, basis_position, omega0, phi0
from g2glue.gluing import (
    AboveSmallness,
    CutoffSpec,
    Diverged,
    GluingReport,
    MismatchedLimits,
    NeckTooShort,
    NotClosed,
    closed_perturbation_structure,
    estimate_L0,
    eta_correction,
    fit_torsion_slope,
    flat_structure,
    glue_fields,
    integral_to_infinity,
    modulated_shear_structure,
    sheared_structure,
    sweep_reports,
    torsion_reduce,
    torsion_residual,
)
from g2glue.gluing import _cumulative_from_right, _panel_weights

MODEL = phi0().tovector()
POS3 = basis_position(AXES7, 3)


@pytest.fixture(scope="module")
def flat_pair():
    return flat_structure(1), flat_structure(-1)


@pytest.fixture(scope="module")
def flat_glued(flat_pair):
    return glue_fields(*flat_pair, 5.0)


# -- cutoff profiles -------------------------------------------------------

def test_unknown_cutoff_shape_rejected():
    with pytest.raises(ValueError, match="shape"):
        CutoffSpec("cubic")


@pytest.mark.parametrize("shape", ["quintic", "septic", "nonic", "exp"])
def test_cutoff_endpoints_and_derivative(shape):
    cut = CutoffSpec(shape)
    t = np.linspace(0.0, 8.0, 1601)
    r = cut.rho(t, 7.0)
    assert np.all(r[t <= 5.0] == 0.0)
    assert np.all(r[t >= 6.0] == 1.0)
    assert np.all(np.diff(r) >= -1e-15)
    h = 1e-6
    fd = (cut.rho(t + h, 7.0) - cut.rho(t - h, 7.0)) / (2 * h)
    assert np.abs(cut.drho(t, 7.0) - fd).max() < 1e-5


# -- tail integration ------------------------------------------------------

def test_panel_weights_exact_on_degree_seven():
    w = _panel_weights()
    nodes = np.arange(8.0)
    for k in range(8):
        exact = (np.arange(1.0, 8.0) ** (k + 1) - np.arange(7.0) ** (k + 1)) / (k + 1)
        scale = np.abs(w) @ nodes**k + 1.0
        assert (np.abs(w @ nodes**k - exact) / scale).max() < 1e-15


def test_cumulative_integral_polynomial():
    grid = np.linspace(0.0, 3.0, 25)
    h = grid[1] - grid[0]
    y = (grid**5 - 2 * grid**2)[:, None]
    out = _cumulative_from_right(y, h)
    anti = grid**6 / 6 - 2 * grid**3 / 3
    assert np.abs(out[:, 0] - (anti[-1] - anti)).max() < 1e-13


@pytest.mark.parametrize("rate", [1.0, 0.6])
def test_tail_integral_exponential_oracle(rate):
    grid = TGrid.interval(0.0, 11.0, 64)
    arr = np.exp(-rate * grid.points).astype(complex)[:, None] * np.ones(21)
    f = SpectralForm(2, 2, grid, {ZERO_XI: arr})
    tails = integral_to_infinity(f)
    want = np.exp(-rate * grid.points)[:, None] / rate
    assert np.abs(tails[ZERO_XI] - want).max() < 1e-12


def test_tail_integral_needs_decay():
    grid = TGrid.interval(0.0, 11.0, 64)
    arr = np.ones((grid.n, 21), dtype=complex)
    f = SpectralForm(2, 2, grid, {ZERO_XI: arr})
    with pytest.raises(NoLimit):
        integral_to_infinity(f)


# -- the eta correction ----------------------------------------------------

def zeta_slot():
    arr_slot = POS3[(1, 2, 4)]
    pos2 = basis_position((1,) + tuple(range(2, 8)), 2)
    return arr_slot, pos2[(2, 4)]


def test_eta_vanishes_without_dt_part():
    grid = TGrid.interval(0.0, 11.0, 64)
    arr = np.tile(MODEL.astype(complex), (grid.n, 1))
    alpha = SpectralForm(3, 2, grid, {ZERO_XI: arr})
    eta = eta_correction(alpha, CutoffSpec(), 6.0)
    assert norm_sup(eta) == 0.0


def test_eta_matches_exponential_closed_form():
    grid = TGrid.interval(0.0, 11.0, 64)
    slot3, slot2 = zeta_slot()
    arr = np.zeros((grid.n, 35), dtype=complex)
    arr[:, slot3] = -np.exp(-grid.points)
    alpha = SpectralForm(3, 2, grid, {ZERO_XI: arr})
    eta = eta_correction(alpha, CutoffSpec(), 6.0)
    rho = CutoffSpec().rho(grid.points, 6.0)
    got = eta.modes[ZERO_XI][:, slot2]
    assert np.abs(got - (-rho * np.exp(-grid.points))).max() < 1e-12
    head = eta.modes[ZERO_XI][grid.points < 4.0]
    assert np.abs(head).max() == 0.0


def test_eta_rejects_nonclosed_input():
    grid = TGrid.interval(0.0, 11.0, 64)
    arr = np.zeros((grid.n, 35), dtype=complex)
    arr[:, POS3[(2, 3, 4)]] = np.exp(-grid.points)
    alpha = SpectralForm(3, 2, grid, {ZERO_XI: arr})
    with pytest.raises(NotClosed):
        eta_correction(alpha, CutoffSpec(), 6.0)


def test_alpha_plus_d_eta_translation_invariant():
    st = closed_perturbation_structure(1, amplitude=5e-2)
    alpha = st.total()
    eta = eta_correction(alpha, CutoffSpec(), 6.0)
    total = alpha + exterior_d(eta)
    # past t = L-1 the correction is the bare tail integral; the first two
    # rows are excluded so the difference stencil reads only that region
    clear = alpha.grid.points >= 5.0 + 2 * alpha.grid.h
    rows = total.modes[ZERO_XI][clear]
    drift = np.abs(rows - rows[-1]).max()
    assert drift < 1e-10


# -- neck surgery ----------------------------------------------------------

def test_glue_validates_signs(flat_pair):
    plus, _ = flat_pair
    with pytest.raises(ValueError, match="sign"):
        glue_fields(plus, plus, 5.0)


def test_glue_rejects_mismatched_cross_sections(flat_pair):
    plus, minus = flat_pair
    bent = CylStructure(Omega0(), omega0().scale(1.0 + 1e-6), -1,
                        minus.perturbation, 1.0)
    with pytest.raises(MismatchedLimits):
        glue_fields(plus, bent, 5.0)


def test_glue_rejects_short_neck(flat_pair):
    with pytest.raises(NeckTooShort):
        glue_fields(*flat_pair, 3.5)


def test_glue_rejects_fractional_step_length(flat_pair):
    with pytest.raises(ValueError, match="whole number"):
        glue_fields(*flat_pair, 5.0071)


def test_glue_needs_room_past_the_seam():
    plus = flat_structure(1, extent=6.0)
    minus = flat_structure(-1, extent=6.0)
    with pytest.raises(NeckTooShort, match="extend"):
        glue_fields(plus, minus, 5.5)
    glue_fields(plus, minus, 5.0)


def test_glue_rejects_mismatched_sampling():
    plus = flat_structure(1, density=64)
    minus = flat_structure(-1, density=32)
    with pytest.raises(ValueError, match="spacing"):
        glue_fields(plus, minus, 5.0)


def test_glue_rejects_non_finite_samples():
    # CylStructure refuses NaN samples, so set them past its constructor.
    plus = modulated_shear_structure(1)
    pert = plus.perturbation
    nan_modes = {xi: np.full_like(a, np.nan) for xi, a in pert.modes.items()}
    object.__setattr__(plus, "perturbation", SpectralForm(
        3, pert.band, pert.grid, nan_modes, check=False))
    with pytest.raises(ValueError, match="glued mode"):
        glue_fields(plus, flat_structure(-1), 5.0)


def test_glue_rejects_support_at_inner_end():
    grid = TGrid.interval(0.0, 11.0, 64)
    slot3, _ = zeta_slot()
    arr = np.zeros((grid.n, 35), dtype=complex)
    arr[:, slot3] = -1e-3 * np.exp(-grid.points)
    pert = SpectralForm(3, 2, grid, {ZERO_XI: arr})
    st = CylStructure(Omega0(), omega0(), 1, pert, 1.0)
    with pytest.raises(ValueError, match="inner end"):
        glue_fields(st, flat_structure(-1), 5.0)


def test_flat_glue_is_the_constant_model(flat_glued):
    meas = torsion_residual(flat_glued)
    assert meas.d_sup == 0.0 and meas.dstar_sup == 0.0
    assert meas.d_l2 == 0.0 and meas.dstar_l2 == 0.0
    arr = flat_glued.field.modes[ZERO_XI]
    assert np.array_equal(arr, np.tile(MODEL.astype(complex), (arr.shape[0], 1)))


def test_glued_modes_stay_conjugate_paired():
    plus = modulated_shear_structure(1)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    for xi, arr in glued.field.modes.items():
        mirror = tuple(-v for v in xi)
        assert mirror in glued.field.modes
        assert np.array_equal(glued.field.modes[mirror], np.conj(arr))


def test_closed_perturbation_glues_closed_and_flat_past_cutoff():
    plus = closed_perturbation_structure(1, amplitude=5e-2)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    meas = torsion_residual(glued)
    assert meas.d_sup == 0.0
    assert meas.dstar_sup > 1e-6
    arr = glued.field.modes[ZERO_XI]
    t = glued.field.grid.points
    outer = arr[(t > 4.0) & (t < 6.0)]
    assert np.array_equal(outer, np.tile(MODEL.astype(complex), (len(outer), 1)))


def test_glued_class_independent_of_cutoff_profile():
    plus = sheared_structure(1)
    minus = flat_structure(-1)
    classes = {}
    for shape in ("quintic", "nonic", "exp"):
        glued = glue_fields(plus, minus, 5.0, CutoffSpec(shape))
        classes[shape] = harmonic_project(glued.field).modes[ZERO_XI][0]
    assert np.abs(classes["nonic"] - classes["exp"]).max() < 1e-12
    # the default profile has two continuous derivatives, so its sampled
    # surgery term aliases at the 1e-10 level instead of machine precision
    assert np.abs(classes["quintic"] - classes["exp"]).max() < 1e-9


def test_flat_glue_class_is_length_independent(flat_pair):
    for L in (5.0, 6.0):
        glued = glue_fields(*flat_pair, L)
        hp = harmonic_project(glued.field).modes[ZERO_XI]
        assert np.array_equal(hp[0], MODEL.astype(complex))


# -- torsion measurement ---------------------------------------------------

def test_exact_perturbation_keeps_d_and_moves_dstar(flat_glued):
    grid = flat_glued.field.grid
    rng = np.random.default_rng(7)
    xi = (1, 0, 0, 0, 0, 0)
    prof = np.outer(np.exp(1j * 2 * np.pi * grid.points / grid.length),
                    rng.standard_normal(21) + 1j * rng.standard_normal(21))
    chi = SpectralForm(2, 2, grid, {xi: prof, tuple(-v for v in xi): np.conj(prof)})
    pert = exterior_d(chi)
    pert = pert.scale(1e-3 / norm_sup(pert))
    meas = torsion_residual(flat_glued.with_field(flat_glued.field + pert))
    assert meas.d_sup < 1e-13
    assert meas.dstar_sup > 1e-5


def test_rigid_shear_glues_torsion_free():
    glued = glue_fields(sheared_structure(1), flat_structure(-1), 5.0)
    meas = torsion_residual(glued)
    assert meas.d_sup == 0.0
    assert meas.dstar_sup < 1e-12


def test_torsion_decay_rate_matches_perturbation_rate():
    minus = flat_structure(-1)
    for rate in (1.0, 1.3):
        plus = modulated_shear_structure(1, rate=rate)
        measured = estimate_decay_rate(plus.perturbation, (3.0, 10.0))
        reports = sweep_reports(plus, minus, [4.0, 5.0, 6.0, 7.0])
        slope = reports[0].slope
        assert abs(slope + measured) < 0.1 * measured
        assert abs(measured - rate) < 0.05


# -- torsion reduction -----------------------------------------------------

def test_reduce_is_a_noop_on_torsion_free_input(flat_glued):
    out, report = torsion_reduce(flat_glued)
    assert out.field is flat_glued.field
    assert report.iterations == 0
    assert report.converged


def exact_perturbed(flat_glued, seed, eps=1e-3):
    grid = flat_glued.field.grid
    rng = np.random.default_rng(seed)
    w = 2 * np.pi / grid.length
    t = grid.points
    xi = (1, 0, 0, 0, 0, 0)
    a0 = np.outer((np.cos(w * t) + 0.5 * np.sin(2 * w * t)).astype(complex),
                  rng.standard_normal(21))
    a1 = np.outer(np.exp(1j * w * t),
                  rng.standard_normal(21) + 1j * rng.standard_normal(21))
    chi = SpectralForm(2, 2, grid, {ZERO_XI: a0, xi: a1,
                                    tuple(-v for v in xi): np.conj(a1)})
    pert = exterior_d(chi)
    return flat_glued.with_field(
        flat_glued.field + pert.scale(eps / norm_sup(pert)))


def test_reduce_converges_and_preserves_the_class(flat_glued):
    start = exact_perturbed(flat_glued, seed=3)
    pin = harmonic_project(start.field).modes[ZERO_XI][0]
    out, report = torsion_reduce(start, tol=1e-10, max_iter=25)
    assert report.converged and report.iterations <= 25
    assert max(report.torsion_d_sup, report.torsion_ds_sup) <= 1e-10
    got = harmonic_project(out.field).modes[ZERO_XI][0]
    free = slice(15, 35)
    assert np.array_equal(got[free], pin[free])
    assert np.abs(got[:15] - pin[:15]).max() < 2e-15


def test_reduce_stars_the_field_once_per_step(monkeypatch):
    plus = closed_perturbation_structure(1, amplitude=1e-3)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    calls = []
    real = gluing.induced_4form

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gluing, "induced_4form", counting)
    out, report = torsion_reduce(glued, tol=1e-10)
    assert report.iterations >= 1
    assert len(calls) == report.iterations + 1
    monkeypatch.undo()
    meas = torsion_residual(out.field)
    assert (report.torsion_d_l2, report.torsion_d_sup,
            report.torsion_ds_l2, report.torsion_ds_sup) == (
        meas.d_l2, meas.d_sup, meas.dstar_l2, meas.dstar_sup)


def test_reduce_rejects_large_torsion(flat_glued):
    start = exact_perturbed(flat_glued, seed=5, eps=0.5)
    with pytest.raises(ValueError, match="smallness"):
        torsion_reduce(start)


def test_reduce_raises_diverged_at_the_closedness_floor():
    plus = modulated_shear_structure(1, amplitude=0.05)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    with pytest.raises(Diverged):
        torsion_reduce(glued, tol=1e-7)


def test_stopped_reductions_carry_steps_and_last_torsion(flat_glued):
    start = exact_perturbed(flat_glued, seed=5, eps=0.5)
    with pytest.raises(AboveSmallness) as info:
        torsion_reduce(start)
    meas = torsion_residual(start)
    assert info.value.iterations == 0
    assert info.value.measure == meas
    plus = modulated_shear_structure(1, amplitude=0.05)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    with pytest.raises(Diverged) as info:
        torsion_reduce(glued, tol=1e-10)
    assert info.value.iterations == 5
    assert info.value.measure.worst > 1e-10


# -- the per-mode solve ----------------------------------------------------

def explicit_pinv(xi, omega, n_t):
    """pinv(A(n)) for A(n) = D5(n) M D3(n), D(n) = i (n w W_t + sum xi_d W_d)."""
    m = gluing.star_derivative_matrix()
    out = []
    for n in np.fft.fftfreq(n_t, d=1.0 / n_t):
        d3 = n * omega * _axis_wedge_matrix(1, 2)
        d5 = n * omega * _axis_wedge_matrix(1, 4)
        for d in range(6):
            d3 = d3 + xi[d] * _axis_wedge_matrix(d + 2, 2)
            d5 = d5 + xi[d] * _axis_wedge_matrix(d + 2, 4)
        out.append((1j * d5) @ m @ (1j * d3))
    return np.linalg.pinv(np.array(out), rcond=1e-9)


@pytest.mark.parametrize("length", [4.0, 5.25, 7.5])
def test_closed_form_xi0_solve_matches_explicit_pinv(length):
    n_t = round(2 * length * 64)
    omega = np.pi / length
    rng = np.random.default_rng(7)
    rhat = rng.standard_normal((n_t, 21)) + 1j * rng.standard_normal((n_t, 21))
    got = gluing._mode_solver(omega, n_t)(ZERO_XI, rhat)
    want = -np.einsum("nij,nj->ni", explicit_pinv(ZERO_XI, omega, n_t), rhat)
    assert not got[0].any() and not want[0].any()
    nyquist = n_t // 2
    assert np.fft.fftfreq(n_t, d=1.0 / n_t)[nyquist] == -n_t / 2
    assert np.abs(want[nyquist]).max() > 0.0
    for n in range(1, n_t):
        assert np.abs(got[n] - want[n]).max() <= 1e-12 * np.abs(want[n]).max()


def test_nonzero_xi_solve_matches_explicit_pinv():
    length, n_t = 5.0, 640
    omega = np.pi / length
    xi = (1, 0, -2, 0, 0, 0)
    rng = np.random.default_rng(8)
    rhat = rng.standard_normal((n_t, 21)) + 1j * rng.standard_normal((n_t, 21))
    solve = gluing._mode_solver(omega, n_t)
    got = solve(xi, rhat)
    want = -np.einsum("nij,nj->ni", explicit_pinv(xi, omega, n_t), rhat)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(solve(xi, rhat), got)


def test_reductions_retain_nothing_per_length(flat_pair):
    retained = []
    tracemalloc.start()
    try:
        for length in (5.0, 5.5, 6.0, 6.5, 7.0):
            start = exact_perturbed(glue_fields(*flat_pair, length), seed=3)
            _, report = torsion_reduce(start, tol=1e-10)
            assert report.converged and report.iterations >= 1
            del start, report
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert retained[4] - retained[1] < 1_000_000


# -- reports and sweeps ----------------------------------------------------

def test_report_serialization_roundtrip():
    rep = GluingReport(5.0, 1e-3, 2e-3, 3e-4, 4e-4, 2, True, slope=-1.0)
    obj = rep.to_json_obj()
    assert obj["L"] == 5.0 and obj["iters"] == 2 and obj["slope"] == -1.0
    assert set(obj) == {"L", "torsion_d_L2", "torsion_d_sup", "torsion_ds_L2",
                        "torsion_ds_sup", "iters", "converged", "slope"}
    row = rep.to_csv_row()
    assert row.split(",")[0] == "5.0" and row.split(",")[-1] == "true"
    assert len(row.split(",")) == len(GluingReport.CSV_HEADER.split(","))


def test_slope_fit_needs_two_positive_points():
    rep = GluingReport(5.0, 0.0, 0.0, 0.0, 0.0, 0, True)
    assert fit_torsion_slope([rep, rep]) is None


def test_sweep_flat_pair_reduced(flat_pair):
    reports = sweep_reports(*flat_pair, [5.0, 6.0], reduce_tol=1e-10)
    for rep in reports:
        assert rep.converged and rep.iterations == 0
        assert rep.slope is None


# -- the convergence threshold --------------------------------------------

def test_estimate_L0_flat_pair_takes_smallest_length(flat_pair):
    assert estimate_L0(*flat_pair, [4.0, 5.0, 6.0]) == 4.0


def test_estimate_L0_monotone_in_amplitude_and_tol():
    minus = flat_structure(-1)
    big = modulated_shear_structure(1, amplitude=0.05)
    small = modulated_shear_structure(1, amplitude=0.005)
    lengths = [5.0, 7.0]
    l_big = estimate_L0(big, minus, lengths, tol=1e-7)
    l_small = estimate_L0(small, minus, lengths, tol=1e-7)
    assert l_small <= l_big
    assert (l_big, l_small) == (7.0, 5.0)
    assert estimate_L0(big, minus, lengths, tol=1e-6) <= l_big


def test_estimate_L0_sentinel_when_nothing_converges():
    plus = modulated_shear_structure(1, amplitude=0.05)
    assert estimate_L0(plus, flat_structure(-1), [5.0], tol=1e-9) == math.inf


# -- synthetic structure validation ---------------------------------------

def test_modulated_shear_validates_axes():
    with pytest.raises(ValueError, match="torus"):
        modulated_shear_structure(1, direction=1)
    with pytest.raises(ValueError, match="well-defined"):
        modulated_shear_structure(1, direction=3, modulation=3)


@pytest.mark.parametrize("component", [(2, 2), (4, 2), (1, 3), (2, 8),
                                       (2,), (2, 3, 4), (2.0, 3), "23", 5,
                                       None])
def test_closed_perturbation_validates_component(component):
    with pytest.raises(ValueError, match="component"):
        closed_perturbation_structure(1, component=component)


def test_closed_perturbation_takes_a_component_list():
    got = closed_perturbation_structure(1, component=[3, 5]).perturbation
    want = closed_perturbation_structure(1, component=(3, 5)).perturbation
    assert np.array_equal(got.modes[ZERO_XI], want.modes[ZERO_XI])
    assert np.flatnonzero(got.modes[ZERO_XI].any(axis=0)).tolist() == [
        POS3[(1, 3, 5)]]


def test_sheared_structure_rejects_steep_drift():
    with pytest.raises(ValueError, match="monotone"):
        sheared_structure(1, drift=5.0)
