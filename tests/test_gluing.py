"""Neck assembly tests: cutoffs, tail integrals, surgery, torsion, reduction."""

import dataclasses
import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from g2glue import gluing, ratmat
from g2glue.fields import (
    _PANEL_WEIGHTS,
    _axis_wedge_matrix,
    _cumulative_from_right,
    _d_mode,
    NoLimit,
    SpectralForm,
    TGrid,
    ZERO_XI,
    estimate_decay_rate,
    exterior_d,
    harmonic_project,
    integral_to_infinity,
    norm_l2,
    norm_sup,
)
from g2glue.forms import AXES7, Omega0, basis_position, omega0, phi0
from g2glue.gluing import (
    CylStructure,
    GluingReport,
    MismatchedLimits,
    NeckTooShort,
    closed_perturbation_structure,
    fit_torsion_slope,
    flat_structure,
    glue_fields,
    induced_4form,
    modulated_shear_structure,
    sheared_structure,
    torsion_reduce,
    torsion_residual,
)

MODEL = phi0().tovector()
POS3 = basis_position(AXES7, 3)
DT24 = POS3[(1, 2, 4)]


@pytest.fixture(scope="module")
def flat_pair():
    return flat_structure(1), flat_structure(-1)


@pytest.fixture(scope="module")
def flat_glued(flat_pair):
    return glue_fields(*flat_pair, 5.0)


# -- cutoff profiles -------------------------------------------------------

# Both ramps rise from 0 to 1 on [5, 6]: the neck cutoff at L = 7, and the
# envelope of the synthetic perturbations (0 to 1 on [0.75, 1.75]) read
# 4.25 later.
RAMPS = {
    "quintic": (lambda t: gluing._rho(t, 7.0), lambda t: gluing._drho(t, 7.0)),
    "exp": (lambda t: gluing._envelope(t - 4.25)[0],
            lambda t: gluing._envelope(t - 4.25)[1]),
}


@pytest.mark.parametrize("shape", sorted(RAMPS))
def test_cutoff_endpoints_and_derivative(shape):
    rho, drho = RAMPS[shape]
    t = np.linspace(0.0, 8.0, 1601)
    r = rho(t)
    assert np.all(r[t <= 5.0] == 0.0)
    assert np.all(r[t >= 6.0] == 1.0)
    assert np.all(np.diff(r) >= -1e-15)
    h = 1e-6
    fd = (rho(t + h) - rho(t - h)) / (2 * h)
    assert np.abs(drho(t) - fd).max() < 1e-5


# -- tail integration ------------------------------------------------------

def exact_panel_weights():
    """Row p integrates the degree-7 interpolant on nodes 0..7 over
    [p, p+1]: the Fraction solve of its 8 x 8 Vandermonde moment system."""
    v = np.empty((8, 8), dtype=object)
    for k in range(8):
        for j in range(8):
            v[k, j] = Fraction(j ** k)
    rows = []
    for p in range(7):
        rhs = np.empty((8, 1), dtype=object)
        for k in range(8):
            rhs[k, 0] = Fraction((p + 1) ** (k + 1) - p ** (k + 1), k + 1)
        rows.append(list((ratmat.inv(v) @ ratmat.asfrac(rhs))[:, 0]))
    return rows


def test_panel_weights_are_the_exact_solves():
    exact = exact_panel_weights()
    assert all((x * 120960).denominator == 1 for row in exact for x in row)
    assert all(sum(row) == 1 for row in exact)
    assert np.array_equal(_PANEL_WEIGHTS, [[float(x) for x in row] for row in exact])
    assert not _PANEL_WEIGHTS.flags.writeable


def test_panel_weights_exact_on_degree_seven():
    w = _PANEL_WEIGHTS
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
#
# glue_fields replaces each closed half alpha by alpha + d(eta), with
# eta = rho I the cutoff 2-form of the gluing module: rho the quintic
# cutoff on [L-2, L-1] and I the tail integral of alpha's dt part.

def decaying_half(slot):
    """Plus half perturbed by 1e-2 E(t) e^{-t} in one 3-form slot."""
    grid = TGrid.interval(0.0, 11.0, 64)
    arr = np.zeros((grid.n, 35))
    arr[:, slot] = 1e-2 * gluing._envelope(grid.points)[0] * np.exp(-grid.points)
    pert = SpectralForm(3, 2, grid, {ZERO_XI: arr}, check=False)
    return CylStructure(Omega0(), omega0(), 1, pert, 1.0)


@pytest.fixture(scope="module")
def class_moving_half():
    """Closed half whose dt tail f dt^dx2^dx4 moves the glued class."""
    return decaying_half(DT24)


def test_eta_vanishes_without_dt_part():
    # A dt-free perturbation (not closed, which glue_fields does not
    # check) has no tail integral, so the surgery only cuts it off:
    # model + (1 - rho) beta, with an untouched dt block.
    slot = POS3[(2, 3, 4)]
    plus = decaying_half(slot)
    glued = glue_fields(plus, flat_structure(-1), 6.0)
    arr = glued.modes[ZERO_XI]
    assert np.array_equal(arr[:, :15], np.tile(MODEL[:15], (len(arr), 1)))
    t = plus.perturbation.grid.points
    f = plus.perturbation.modes[ZERO_XI][:, slot]
    want = MODEL[slot] + (1.0 - gluing._rho(t, 6.0)) * f
    q = round(6.0 * 64)
    assert np.abs(arr[: q + 1, slot] - want[: q + 1]).max() < 1e-15


def test_eta_matches_exponential_closed_form(class_moving_half):
    # Past the envelope f = 1e-2 e^{-t} and I = f, so on [L-2, L] the glued
    # dt slot is (1 - rho) f + rho' I = 1e-2 e^{-t} (1 - rho + rho').
    length = 6.0
    glued = glue_fields(class_moving_half, flat_structure(-1), length)
    t = glued.grid.points
    band = (t >= length - 2.0) & (t <= length)
    got = glued.modes[ZERO_XI][band, DT24] - MODEL[DT24]
    tb = t[band]
    want = 1e-2 * np.exp(-tb) * (1.0 - gluing._rho(tb, length)
                                 + gluing._drho(tb, length))
    assert np.abs(got - want).max() < 1e-15


def test_alpha_plus_d_eta_translation_invariant():
    length = 6.0
    st = closed_perturbation_structure(1, amplitude=5e-2)
    alpha = st.total()
    t = alpha.grid.points
    rho = gluing._rho(t, length)
    eta = {}
    for xi, (_, _, acc) in st._tail_parts.items():
        # I as a 2-form, laid out as decompose_cyl lays out gamma: the
        # 3-form's 15 dt slots are the 2-form's dt-free columns.
        tail = np.zeros((len(t), 21), dtype=acc.dtype)
        tail[:, 6:] = acc
        eta[xi] = rho[:, None] * tail
    eta = SpectralForm(2, alpha.band, alpha.grid, eta, check=False)
    total = alpha + exterior_d(eta)
    # past t = L-1 the correction is the bare tail integral; the first two
    # rows are excluded so the difference stencil reads only that region
    clear = t >= length - 1.0 + 2 * alpha.grid.h
    rows = total.modes[ZERO_XI][clear]
    drift = np.abs(rows - rows[-1]).max()
    assert drift < 1e-10
    # The glued half is alpha + d(eta).  The grid derivative of eta is
    # only accurate off the kinks of rho's third derivative, so the band
    # around [L-2, L-1] is left out.
    q = round(length * 64)
    glued = glue_fields(st, flat_structure(-1), length).modes[ZERO_XI][: q + 1]
    tq = t[: q + 1]
    away = (tq < length - 2.1) | (tq > length - 0.9)
    assert np.abs(glued - total.modes[ZERO_XI][: q + 1])[away].max() < 1e-11


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


@pytest.mark.parametrize("length", [4.0, 5.25, 7.5])
def test_the_neck_is_the_circle_of_length_2l(flat_pair, length):
    assert glue_fields(*flat_pair, length).grid == TGrid.circle(2 * length, 64)


def test_glue_needs_room_past_the_seam():
    plus = flat_structure(1, extent=6.0)
    minus = flat_structure(-1, extent=6.0)
    with pytest.raises(ValueError, match="extend") as info:
        glue_fields(plus, minus, 5.5)
    assert not isinstance(info.value, NeckTooShort)
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


def dt24_half(sign, profile):
    """Half with the model pair whose dt24 slot is profile(t) on [0, 11]."""
    grid = TGrid.interval(0.0, 11.0, 64)
    arr = np.zeros((grid.n, 35), dtype=complex)
    arr[:, DT24] = profile(grid.points)
    pert = SpectralForm(3, 2, grid, {ZERO_XI: arr})
    return CylStructure(Omega0(), omega0(), sign, pert, 1.0)


def held_at_the_inner_end(t):
    return -1e-3 * np.exp(-t)


def with_a_limit(t):
    return 1e-3 * gluing._envelope(t)[0]


def refused_alike_at_every_length(profile, error, message):
    # A half's own conditions are checked once per half, not per length,
    # but a half that fails one, plus or minus, is refused by the same
    # error each time it is glued.
    for sign in (1, -1):
        half, other = dt24_half(sign, profile), flat_structure(-sign)
        pair = (half, other) if sign == 1 else (other, half)
        for length in (4.0, 5.0, 7.5, 5.0):
            with pytest.raises(ValueError) as info:
                glue_fields(*pair, length)
            assert type(info.value) is error
            assert str(info.value) == message


def test_glue_rejects_support_at_inner_end():
    refused_alike_at_every_length(
        held_at_the_inner_end, ValueError,
        "perturbation must vanish near the inner end t = 0")


def test_glue_rejects_a_perturbation_with_a_limit_at_every_length():
    refused_alike_at_every_length(
        with_a_limit, MismatchedLimits,
        "perturbation does not decay to zero, so the declared cross-section "
        "pair is not the limit")


@pytest.mark.parametrize("grid", [TGrid.interval(1.0, 12.0, 64),
                                  TGrid.circle(11.0, 64)])
def test_a_half_off_an_interval_from_0_is_refused_when_built(grid):
    pert = SpectralForm.zero(3, 2, grid)
    with pytest.raises(ValueError, match="start at 0 on an interval"):
        CylStructure(Omega0(), omega0(), 1, pert, 1.0)


def test_a_sweep_decomposes_each_half_once(monkeypatch):
    calls = []
    real = gluing.decompose_cyl

    def counting(f):
        calls.append(1)
        return real(f)

    monkeypatch.setattr(gluing, "decompose_cyl", counting)
    plus, minus = closed_perturbation_structure(1, amplitude=2e-3), flat_structure(-1)
    first = glue_fields(plus, minus, 5.0)
    for length in (6.0, 7.5, 5.0):
        again = glue_fields(plus, minus, length)
    assert len(calls) == 2
    fresh = glue_fields(closed_perturbation_structure(1, amplitude=2e-3),
                        flat_structure(-1), 5.0)
    assert len(calls) == 4
    for other in (again, fresh):
        assert set(other.modes) == set(first.modes)
        for xi, a in first.modes.items():
            assert np.array_equal(other.modes[xi], a)


def test_flat_glue_is_the_constant_model(flat_glued):
    meas = torsion_residual(flat_glued)
    assert meas.d_sup == 0.0 and meas.dstar_sup == 0.0
    assert meas.d_l2 == 0.0 and meas.dstar_l2 == 0.0
    arr = flat_glued.modes[ZERO_XI]
    assert np.array_equal(arr, np.tile(MODEL.astype(complex), (arr.shape[0], 1)))


def test_glued_modes_stay_conjugate_paired():
    plus = modulated_shear_structure(1)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    for xi, arr in glued.modes.items():
        mirror = tuple(-v for v in xi)
        assert mirror in glued.modes
        assert np.array_equal(glued.modes[mirror], np.conj(arr))


def test_closed_perturbation_glues_closed_and_flat_past_cutoff():
    plus = closed_perturbation_structure(1, amplitude=5e-2)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    meas = torsion_residual(glued)
    assert meas.d_sup == 0.0
    assert meas.dstar_sup > 1e-6
    arr = glued.modes[ZERO_XI]
    t = glued.grid.points
    outer = arr[(t > 4.0) & (t < 6.0)]
    assert np.array_equal(outer, np.tile(MODEL.astype(complex), (len(outer), 1)))


def test_glued_class_independent_of_cutoff_profile(class_moving_half):
    # Integrating (1 - rho) f + rho' I over [0, L] by parts leaves I(0),
    # whatever rho is: 2L (class - model) in the dt block is the tail
    # integral I+(0), and the dt-free block is the model's.
    i0 = class_moving_half._tail_parts[ZERO_XI][2][0]
    assert np.abs(i0).max() > 1e-3
    for length in (5.0, 6.0, 8.0):
        glued = glue_fields(class_moving_half, flat_structure(-1), length)
        hp = harmonic_project(glued).modes[ZERO_XI][0]
        assert np.array_equal(hp[15:], MODEL[15:])
        assert np.abs(2.0 * length * (hp[:15] - MODEL[:15]) - i0).max() < 1e-10


def test_flat_glue_class_is_length_independent(flat_pair):
    for L in (5.0, 6.0):
        glued = glue_fields(*flat_pair, L)
        hp = harmonic_project(glued).modes[ZERO_XI]
        assert np.array_equal(hp[0], MODEL.astype(complex))


# -- torsion measurement ---------------------------------------------------

def test_exact_perturbation_keeps_d_and_moves_dstar(flat_glued):
    grid = flat_glued.grid
    rng = np.random.default_rng(7)
    xi = (1, 0, 0, 0, 0, 0)
    prof = np.outer(np.exp(1j * 2 * np.pi * grid.points / grid.length),
                    rng.standard_normal(21) + 1j * rng.standard_normal(21))
    chi = SpectralForm(2, 2, grid, {xi: prof, tuple(-v for v in xi): np.conj(prof)})
    pert = exterior_d(chi)
    pert = pert.scale(1e-3 / norm_sup(pert))
    meas = torsion_residual(flat_glued + pert)
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
        lengths = [4.0, 5.0, 6.0, 7.0]
        torsion = [torsion_residual(glue_fields(plus, minus, length)).dstar_sup
                   for length in lengths]
        slope = np.polyfit(lengths, np.log(torsion), 1)[0]
        assert abs(slope + measured) < 0.1 * measured
        assert abs(measured - rate) < 0.05


# -- torsion reduction -----------------------------------------------------

def test_reduce_is_a_noop_on_torsion_free_input(flat_glued):
    out, report = torsion_reduce(flat_glued)
    assert out is flat_glued
    assert report.iterations == 0
    assert report.converged


def exact_perturbed(flat_glued, seed, eps=1e-3):
    grid = flat_glued.grid
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
    return flat_glued + pert.scale(eps / norm_sup(pert))


def test_reduce_converges_and_preserves_the_class(flat_glued):
    start = exact_perturbed(flat_glued, seed=3)
    pin = harmonic_project(start).modes[ZERO_XI][0]
    out, report = torsion_reduce(start, tol=1e-10, max_iter=25)
    assert report.converged and report.iterations <= 25
    assert max(report.torsion_d_sup, report.torsion_ds_sup) <= 1e-10
    got = harmonic_project(out).modes[ZERO_XI][0]
    free = slice(15, 35)
    assert np.array_equal(got[free], pin[free])
    assert np.abs(got[:15] - pin[:15]).max() < 2e-15


def test_reduce_stars_the_field_once_per_step(monkeypatch):
    plus = closed_perturbation_structure(1, amplitude=1e-3)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    calls = []
    real = gluing.star3_batch

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(gluing, "star3_batch", counting)
    out, report = torsion_reduce(glued, tol=1e-10)
    assert report.iterations >= 1
    assert len(calls) == report.iterations + 1
    monkeypatch.undo()
    meas = torsion_residual(out)
    assert (report.torsion_d_l2, report.torsion_d_sup,
            report.torsion_ds_l2, report.torsion_ds_sup) == (
        meas.d_l2, meas.d_sup, meas.dstar_l2, meas.dstar_sup)


def test_reduce_rejects_an_interval_field():
    # The mode solver assumes the neck circle, so a half's own field on
    # its interval grid is refused before anything is measured.
    field = closed_perturbation_structure(1).total()
    assert not field.grid.periodic
    with pytest.raises(ValueError, match="periodic neck"):
        torsion_reduce(field)


def test_reduce_rejects_large_torsion(flat_glued):
    start = exact_perturbed(flat_glued, seed=5, eps=0.5)
    out, report = torsion_reduce(start)
    assert out is start
    assert (report.stop_reason, report.iterations) == ("above-smallness", 0)
    assert not report.converged


def test_reduce_reports_diverged_at_the_closedness_floor():
    plus = modulated_shear_structure(1, amplitude=0.05)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    out, report = torsion_reduce(glued, tol=1e-7)
    assert report.stop_reason == "diverged" and not report.converged
    # The field it stopped at, not the input: the steps before the stall
    # lowered the torsion.
    assert torsion_residual(out).worst < torsion_residual(glued).worst


def test_stopped_reductions_carry_steps_and_last_torsion(flat_glued):
    start = exact_perturbed(flat_glued, seed=5, eps=0.5)
    _, report = torsion_reduce(start)
    assert report == GluingReport.from_measure(
        5.0, torsion_residual(start), 0, "above-smallness")
    plus = modulated_shear_structure(1, amplitude=0.05)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    out, report = torsion_reduce(glued, tol=1e-10)
    assert (report.stop_reason, report.iterations) == ("diverged", 5)
    assert max(report.torsion_d_sup, report.torsion_ds_sup) > 1e-10
    assert report == GluingReport.from_measure(
        5.0, torsion_residual(out), 5, "diverged")


@pytest.mark.parametrize("reason", [True, "done"])
def test_report_rejects_an_unknown_stop_reason(reason):
    with pytest.raises(ValueError, match="stop reason"):
        GluingReport(5.0, 0.0, 0.0, 0.0, 0.0, 2, reason)


def test_worst_torsion_propagates_nan():
    assert math.isnan(gluing.TorsionMeasure(0.0, 1e-12, math.nan, math.nan).worst)
    assert math.isnan(gluing.TorsionMeasure(0.0, math.nan, 0.0, 1e-12).worst)
    assert gluing.TorsionMeasure(0.0, 1e-12, 0.0, 3e-12).worst == 3e-12


def test_reduce_never_converges_on_a_nan_torsion(monkeypatch):
    real = gluing.torsion_residual

    def nan_dstar(field, dphi=None):
        return dataclasses.replace(real(field, dphi=dphi), dstar_l2=math.nan,
                                   dstar_sup=math.nan)

    monkeypatch.setattr(gluing, "torsion_residual", nan_dstar)
    plus = closed_perturbation_structure(1, amplitude=1e-3)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    _, report = torsion_reduce(glued, tol=1e-10)
    assert report.torsion_d_sup <= 1e-10
    assert report.stop_reason == "diverged" and not report.converged


def test_floor_steps_ignore_roundoff_drift(monkeypatch):
    # At the closedness floor (L = 5 above) the worst torsion moves by about
    # 1e-10 relative per step.  A drift of 1e-9 per step on top of it must
    # not count as progress: the reducer still stops after the third
    # stalled step instead of running on to max_iter.
    real = gluing.torsion_residual
    calls = []

    def drifting(field, dphi=None):
        meas = real(field, dphi=dphi)
        calls.append(1)
        drift = 1.0 - 1e-9 * max(0, len(calls) - 3)
        return dataclasses.replace(meas, d_sup=meas.d_sup * drift)

    monkeypatch.setattr(gluing, "torsion_residual", drifting)
    plus = modulated_shear_structure(1, amplitude=0.05)
    glued = glue_fields(plus, flat_structure(-1), 5.0)
    _, report = torsion_reduce(glued, tol=1e-10)
    assert (report.stop_reason, report.iterations) == ("diverged", 5)


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
    grid = TGrid(0.0, 2 * length, n_t, periodic=True)
    got = gluing._solve(grid, ZERO_XI, rhat)
    want = -np.einsum("nij,nj->ni", explicit_pinv(ZERO_XI, omega, n_t), rhat)
    assert not got[0].any() and not want[0].any()
    nyquist = n_t // 2
    assert np.fft.fftfreq(n_t, d=1.0 / n_t)[nyquist] == -n_t / 2
    assert np.abs(want[nyquist]).max() > 0.0
    for n in range(1, n_t):
        assert np.abs(got[n] - want[n]).max() <= 1e-12 * np.abs(want[n]).max()


@pytest.mark.parametrize("n_t", [640, 641])
@pytest.mark.parametrize("xi", [(1, 0, -2, 0, 0, 0), (0, 0, 0, 0, 0, -1),
                                (2, -2, 0, 2, -1, 2)])
def test_nonzero_xi_solve_matches_explicit_pinv(xi, n_t):
    omega = np.pi / 5.0
    rng = np.random.default_rng(8)
    rhat = rng.standard_normal((n_t, 21)) + 1j * rng.standard_normal((n_t, 21))
    grid = TGrid(0.0, 10.0, n_t, periodic=True)
    got = gluing._solve(grid, xi, rhat)
    want = -np.einsum("nij,nj->ni", explicit_pinv(xi, omega, n_t), rhat)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(gluing._solve(grid, xi, rhat), got)


def test_flat_pencil_is_a_scaled_partial_isometry():
    # A(k) has rank 8 with every nonzero singular value |k|^2, which is
    # what lets _solve use A^T / |k|^4 as the pseudoinverse.
    omega, n_t = np.pi / 5.0, 640
    rng = np.random.default_rng(11)
    for _ in range(20):
        xi = tuple(int(v) for v in rng.integers(-2, 3, size=6))
        t_tt, t_mix, t_xx = gluing._t_blocks(xi)
        for n in (1, 7, -3, -n_t // 2):
            wn = omega * n
            s = np.linalg.svd(-(wn ** 2 * t_tt + wn * t_mix + t_xx),
                              compute_uv=False)
            k2 = wn ** 2 + sum(v * v for v in xi)
            top = s[s > 1e-9 * s[0]]
            assert top.size == 8, (xi, n)
            assert np.abs(top - k2).max() <= 1e-12 * k2, (xi, n)


@pytest.mark.parametrize("n_t", [640, 641])
def test_xi0_solve_on_the_real_half_spectrum(n_t):
    r = np.random.default_rng(9).standard_normal((n_t, 21))
    grid = TGrid(0.0, 10.0, n_t, periodic=True)
    half = gluing._solve(grid, ZERO_XI, np.fft.rfft(r, axis=0))
    full = gluing._solve(grid, ZERO_XI, np.fft.fft(r, axis=0))[: n_t // 2 + 1]
    assert half.shape == full.shape
    assert np.abs(half - full).max() <= 1e-14 * np.abs(full).max()


@pytest.mark.parametrize("length", [5.0, 6.5])
def test_reduction_keeps_the_xi0_mode_exactly_real(length):
    plus = closed_perturbation_structure(1, amplitude=2e-3)
    glued = glue_fields(plus, flat_structure(-1), length)
    assert glued.modes[ZERO_XI].dtype == np.float64
    out, report = torsion_reduce(glued, tol=1e-10)
    assert (report.stop_reason, report.iterations) == ("converged", 2)
    assert out.modes[ZERO_XI].dtype == np.float64
    assert torsion_residual(out).dstar.modes[ZERO_XI].dtype == np.float64


# -- the spectral update ---------------------------------------------------

def neck_at_5(kind):
    plus = (closed_perturbation_structure(1, amplitude=2e-3) if kind == "closed"
            else modulated_shear_structure(1))
    return glue_fields(plus, flat_structure(-1), 5.0)


def sample_space_update(dstar):
    """d sigma with sigma sampled first, then differentiated by exterior_d."""
    grid = dstar.grid
    modes = {}
    for xi, arr in dstar.modes.items():
        if xi == ZERO_XI:
            shat = gluing._solve(grid, xi, np.fft.rfft(arr.real, axis=0))
            modes[xi] = np.fft.irfft(shat, grid.n, axis=0)
        else:
            shat = gluing._solve(grid, xi, np.fft.fft(arr, axis=0))
            modes[xi] = np.fft.ifft(shat, axis=0)
    return exterior_d(SpectralForm(2, dstar.band, grid, modes, check=False))


@pytest.mark.parametrize("kind", ["closed", "modulated"])
def test_spectral_update_matches_the_sample_space_step(kind):
    glued = neck_at_5(kind)
    meas = torsion_residual(glued)
    want = sample_space_update(meas.dstar)
    # A step from the zero field is the update d sigma itself.
    got = gluing._step(SpectralForm(3, glued.band, glued.grid), meas)
    assert set(got.modes) == set(want.modes)
    scale = want.amplitude()
    assert scale > 0.0
    for xi, a in want.modes.items():
        assert np.abs(got.modes[xi] - a).max() <= 1e-13 * scale, xi
    out, report = torsion_reduce(glued, max_iter=1)
    assert (report.stop_reason, report.iterations) == ("max_iter", 1)
    stepped = glued + want
    assert set(out.modes) == set(stepped.modes)
    for xi, a in stepped.modes.items():
        assert np.abs(out.modes[xi] - a).max() <= 1e-13 * stepped.amplitude()


@pytest.mark.parametrize("kind", ["closed", "modulated"])
def test_xi0_update_leaves_the_class_coefficients_exactly_alone(kind):
    glued = neck_at_5(kind)
    meas = torsion_residual(glued)
    grid = glued.grid
    shat = gluing._solve(grid, ZERO_XI, xi0_spectrum(meas))
    assert shat.shape == (grid.n // 2 + 1, 21)
    assert np.abs(shat[1:]).max() > 0.0
    assert not shat[0].any()
    before = glued.modes[ZERO_XI]
    after = gluing._step(glued, meas).modes[ZERO_XI]
    assert after.dtype == np.float64
    assert np.abs(after[:, :15] - before[:, :15]).max() > 0.0
    assert np.array_equal(after[:, 15:], before[:, 15:])


def xi0_spectrum(meas):
    """The t-spectrum of dstar's xi = 0 mode that a step solves against:
    the measure's own on a xi = 0 field, the forward transform otherwise."""
    if meas.dstar_hat is not None:
        return meas.dstar_hat
    return meas.dstar.grid.forward(meas.dstar.modes[ZERO_XI])


def full_column_xi0_update(grid, rhat):
    """The xi = 0 update from the 21-column spectrum rhat, with all three
    blocks of the solve applied and all 35 columns of d sigma transformed
    back."""
    t_tt, t_mix, t_xx = gluing._t_blocks(ZERO_XI)
    w = grid.wavenumbers(rhat)[:, None]
    k2 = w ** 2
    k4 = np.where(k2 > 0.0, k2 ** 2, np.inf)
    shat = (w ** 2 * (rhat @ t_tt) + w * (rhat @ t_mix) + rhat @ t_xx) / k4
    return grid.inverse(_d_mode(ZERO_XI, shat, grid.ddt_spectrum(shat[:, 6:]), 2))


@pytest.mark.parametrize("kind", ["closed", "modulated"])
def test_xi0_update_is_the_full_column_update_bitwise(kind):
    glued = neck_at_5(kind)
    meas = torsion_residual(glued)
    t_tt, t_mix, t_xx = gluing._t_blocks(ZERO_XI)
    assert not t_mix.any() and not t_xx.any() and t_tt.any()
    want = full_column_xi0_update(glued.grid, xi0_spectrum(meas))
    assert want.shape == (glued.grid.n, 35) and np.abs(want).max() > 0.0
    # A step from the zero field adds the update onto 0.0.
    got = gluing._step(SpectralForm(3, glued.band, glued.grid), meas)
    assert got.modes[ZERO_XI].tobytes() == (0.0 + want).tobytes()


@pytest.mark.parametrize("kind", ["closed", "modulated"])
def test_measured_xi0_spectrum_is_the_transform_of_dstar(kind):
    # The xi = 0 measure hands on the spectrum it inverts to get dstar: its
    # dt block is the samples' own transform up to roundoff, and its
    # dt-free block is exact zeros.  Any other field hands on none.
    glued = neck_at_5(kind)
    meas = torsion_residual(glued)
    if kind == "modulated":
        assert meas.dstar_hat is None
        return
    grid = glued.grid
    assert meas.dstar_hat.shape == (grid.n // 2 + 1, 21)
    assert not meas.dstar_hat[:, 15:].any()
    assert np.array_equal(grid.inverse(meas.dstar_hat), meas.dstar.modes[ZERO_XI])
    again = grid.forward(meas.dstar.modes[ZERO_XI])
    scale = np.abs(again).max()
    assert scale > 0.0
    assert np.abs(meas.dstar_hat - again).max() <= 1e-13 * scale


def recorded_transforms(monkeypatch, where, names):
    """Patch each named transform of ``where`` to log (name, columns)."""
    seen = []
    for name in names:
        real = getattr(where, name)

        def recording(y, *args, real=real, name=name, **kwargs):
            seen.append((name, y[0].size))
            return real(y, *args, **kwargs)

        monkeypatch.setattr(where, name, recording)
    return seen


@pytest.mark.parametrize("kind", ["closed", "modulated"])
def test_xi0_step_transforms_only_the_dt_columns(monkeypatch, kind):
    # A xi = 0 step makes no forward transform and hands numpy only the
    # nonzero columns of its update; each xi != 0 mode still passes 21
    # columns forward and 35 back through the grid's pair.
    glued = neck_at_5(kind)
    meas = torsion_residual(glued)
    update = gluing._step(SpectralForm(3, glued.band, glued.grid), meas)
    nonzero = int(update.modes[ZERO_XI].any(axis=0).sum())
    assert 0 < nonzero < 15
    pair = []
    for name in ("forward", "inverse"):
        real = getattr(TGrid, name)

        def recording(self, y, real=real, name=name):
            pair.append((name, y.shape[1]))
            return real(self, y)

        monkeypatch.setattr(TGrid, name, recording)
    fft = recorded_transforms(monkeypatch, np.fft, ("rfft", "irfft"))
    gluing._step(glued, meas)
    others = len(meas.dstar.modes) - 1
    assert (kind == "closed") == (others == 0)
    assert [cols for name, cols in fft if name == "irfft"] == [nonzero]
    if kind == "closed":
        assert pair == [("inverse", 35)]
        assert fft == [("irfft", nonzero)]
    else:
        assert sorted(pair) == sorted([("forward", 21), ("inverse", 35)]
                                      * (others + 1))


def test_xi0_reduction_hands_numpy_only_the_varying_columns(monkeypatch):
    # closed-perturbation vs flat at L = 8.40625 (n = 4 * 269, a Bluestein
    # size): 8 numpy transforms over 40 columns for the whole reduction.
    # The glued phi's 20 dt-free columns are constant, so d(phi) takes
    # none; each measure transforms the star's 5 varying dt-free columns
    # both ways, and each step inverts its update's 5 nonzero columns.
    plus = closed_perturbation_structure(1, amplitude=2e-3)
    glued = glue_fields(plus, flat_structure(-1), 8.40625)
    assert glued.grid.n == 1076
    seen = recorded_transforms(monkeypatch, np.fft, ("rfft", "irfft", "fft", "ifft"))
    _, report = torsion_reduce(glued, tol=1e-10)
    assert (report.stop_reason, report.iterations) == ("converged", 2)
    assert len(seen) == 8 and sum(cols for _, cols in seen) == 40


def test_reduce_differentiates_only_inside_torsion_residual(monkeypatch):
    # On the xi = 0 neck exterior_d runs once, for d(phi), which its steps
    # leave bitwise alone; d(induced 4-form) is the grid derivative of the
    # star's dt-free block.  On the modulated neck it runs twice per
    # measure, for d(phi) and d(induced 4-form).
    calls = []
    real = gluing.exterior_d

    def counting(f):
        calls.append(1)
        return real(f)

    monkeypatch.setattr(gluing, "exterior_d", counting)
    _, report = torsion_reduce(neck_at_5("closed"), tol=1e-10)
    assert report.iterations == 2 and report.converged
    assert len(calls) == 1
    calls.clear()
    _, report = torsion_reduce(neck_at_5("modulated"), tol=1e-10)
    assert report.iterations >= 2
    assert len(calls) == 2 * (report.iterations + 1)


def test_reused_dphi_is_the_steps_dphi_bitwise(monkeypatch):
    handed = []
    real = gluing.torsion_residual

    def checking(field, dphi=None):
        meas = real(field, dphi=dphi)
        if dphi is not None:
            want = exterior_d(field)
            assert meas.dphi is dphi
            assert set(dphi.modes) == set(want.modes) == {ZERO_XI}
            assert np.array_equal(dphi.modes[ZERO_XI], want.modes[ZERO_XI])
            handed.append(dphi)
        return meas

    monkeypatch.setattr(gluing, "torsion_residual", checking)
    _, report = torsion_reduce(neck_at_5("closed"), tol=1e-10)
    assert report.converged and len(handed) == report.iterations == 2


def test_torsion_residual_takes_a_given_dphi(flat_glued):
    field = exact_perturbed(flat_glued, seed=3)
    meas = torsion_residual(field)
    assert np.array_equal(meas.dphi.modes[ZERO_XI],
                          exterior_d(field).modes[ZERO_XI])
    doubled = torsion_residual(field, dphi=2.0 * meas.dphi)
    assert (doubled.d_l2, doubled.d_sup) == (2.0 * meas.d_l2, 2.0 * meas.d_sup)
    assert (doubled.dstar_l2, doubled.dstar_sup) == (meas.dstar_l2, meas.dstar_sup)


@pytest.mark.parametrize("kind", ["closed", "flat", "interval"])
def test_xi0_dstar_is_d_of_the_induced_4form_bitwise(kind, flat_glued):
    # On a xi = 0 field torsion_residual stars only the dt-free block and
    # differentiates it on the grid; the full star through exterior_d is
    # the reference, bit for bit.
    field = {"closed": lambda: neck_at_5("closed"),
             "flat": lambda: flat_glued,
             "interval": lambda: closed_perturbation_structure(1).total()}[kind]()
    assert field.modes.keys() == {ZERO_XI}
    meas = torsion_residual(field)
    want = exterior_d(induced_4form(field))
    got = meas.dstar
    assert (got.degree, got.band, got.grid) == (5, want.band, want.grid)
    assert got.modes.keys() == want.modes.keys() == {ZERO_XI}
    a, b = got.modes[ZERO_XI], want.modes[ZERO_XI]
    assert a.dtype == b.dtype == np.float64
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (meas.dstar_l2, meas.dstar_sup) == (norm_l2(want), norm_sup(want))
    assert kind == "flat" or meas.dstar_sup > 0.0


def test_xi0_dstar_refuses_non_finite_stars(monkeypatch, flat_glued):
    real = gluing.star3_batch

    def poisoned(coeffs, **kwargs):
        out = real(coeffs, **kwargs).copy()
        out[3, 2] = np.nan
        return out

    monkeypatch.setattr(gluing, "star3_batch", poisoned)
    with pytest.raises(ValueError, match=r"1 non-finite samples.*\(3, 2\)"):
        torsion_residual(flat_glued)


def test_torsion_residual_rejects_a_dphi_of_another_shape(flat_glued):
    field = exact_perturbed(flat_glued, seed=3)
    dphi = torsion_residual(field).dphi
    for wrong in (torsion_residual(field).dstar, dphi._like({}),
                  dphi._like(dphi.modes, band=field.band + 1)):
        with pytest.raises(ValueError, match="dphi must be"):
            torsion_residual(field, dphi=wrong)


def test_reduction_keeps_the_exactly_rounded_class():
    # The exactly rounded t-mean of the xi = 0 mode, glued vs reduced.  The
    # updates have a zero (xi, n) = (0, 0) coefficient, so only the rounding
    # of adding them to the samples moves the exact sum: up to about 1e-17
    # of the mean on the model columns, whose rounded means stay 1.0.
    minus = flat_structure(-1)
    for amplitude in (5e-4, 1e-3, 2e-3, 5e-3):
        plus = closed_perturbation_structure(1, amplitude=amplitude)
        for length in (4.0, 4.203125, 4.25, 5.0, 7.0, 8.40625):
            glued = glue_fields(plus, minus, length)
            out, report = torsion_reduce(glued, tol=1e-10)
            assert report.converged and report.iterations >= 1
            before = glued.modes[ZERO_XI].real
            after = out.modes[ZERO_XI].real
            n_t = len(before)
            for c in range(35):
                moved = math.fsum(after[:, c]) / n_t - math.fsum(before[:, c]) / n_t
                assert abs(moved) < 1e-18, (amplitude, length, c, moved)


@pytest.mark.parametrize("length", [4.203125, 5.5, 7.484375, 8.40625])
def test_the_glued_xi0_neck_is_exactly_closed(length):
    # The glued phi's dt-free block is constant along t, so d(phi) is an
    # exact 0, also at lengths whose sample counts (n = 538, 704, 958 and
    # 1076) numpy's transform of a constant misses by roundoff.
    plus = closed_perturbation_structure(1, amplitude=2e-3)
    glued = glue_fields(plus, flat_structure(-1), length)
    free = glued.modes[ZERO_XI][:, 15:]
    assert (free == free[0]).all()
    meas = torsion_residual(glued)
    assert (meas.d_sup, meas.d_l2) == (0.0, 0.0)
    assert meas.dstar_sup > 0.0


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
    rep = GluingReport(5.0, 1e-3, 2e-3, 3e-4, 4e-4, 2, "converged", slope=-1.0)
    obj = rep.to_json_obj()
    assert obj["L"] == 5.0 and obj["iters"] == 2 and obj["slope"] == -1.0
    assert set(obj) == {"L", "torsion_d_L2", "torsion_d_sup", "torsion_ds_L2",
                        "torsion_ds_sup", "iters", "converged", "slope"}


def test_slope_fit_needs_two_positive_points():
    rep = GluingReport(5.0, 0.0, 0.0, 0.0, 0.0, 0, "converged")
    assert fit_torsion_slope([rep, rep]) is None


def sweep_row(plus, minus, length, tol):
    """One glue-sweep row: the reduction report of the glued neck."""
    return torsion_reduce(glue_fields(plus, minus, length), tol=tol)[1]


def test_sweep_flat_pair_reduced(flat_pair):
    reports = [sweep_row(*flat_pair, length, 1e-10) for length in (5.0, 6.0)]
    for rep in reports:
        assert rep.converged and rep.iterations == 0
        assert rep.slope is None
    assert fit_torsion_slope(reports) is None


def test_sweep_rows_carry_float_lengths(flat_pair):
    rep = sweep_row(*flat_pair, 5, 1e-10)
    assert type(rep.length) is float and rep.length == 5.0


def test_sweep_converges_sooner_at_smaller_amplitude():
    minus = flat_structure(-1)
    big = modulated_shear_structure(1, amplitude=0.05)
    small = modulated_shear_structure(1, amplitude=0.005)
    flags = [sweep_row(big, minus, length, 1e-7).converged
             for length in (5.0, 7.0)]
    assert flags == [False, True]
    assert sweep_row(small, minus, 5.0, 1e-7).converged


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
