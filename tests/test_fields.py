"""Spectral cylinder field tests: calculus, norms, asymptotics, serialization."""

import numpy as np
import pytest

from g2glue import fields as F
from g2glue.forms import AXES7, ConstForm, basis_indices, phi0
from g2glue.fields import (
    CylStructure,
    NoDecay,
    NoLimit,
    NonFlatMetric,
    RealityError,
    SpectralForm,
    TGrid,
    WindowTooSmall,
    ZERO_XI,
    codifferential,
    decompose_cyl,
    dt_wedge,
    estimate_decay_rate,
    exterior_d,
    from_payload,
    harmonic_project,
    inner_l2,
    norm_l2,
    norm_sup,
    sample_physical,
    spectral_from_samples,
    to_payload,
)

CIRCLE = TGrid.circle(6.0, density=16)
INTERVAL = TGrid.interval(0.0, 6.0, density=16)


def rand_field(degree, band, grid, rng, active=(0, 3), nmodes=4, envelope=None):
    nc = len(basis_indices(AXES7, degree))
    modes = {}
    for _ in range(nmodes):
        xi = [0] * 6
        for d in active:
            xi[d] = int(rng.integers(-band, band + 1))
        xi = tuple(xi)
        if xi in modes or tuple(-v for v in xi) in modes:
            continue
        arr = rng.standard_normal((grid.n, nc)) + 1j * rng.standard_normal((grid.n, nc))
        if envelope is not None:
            arr = envelope[:, None] * arr
        if xi == ZERO_XI:
            arr = arr.real.astype(complex)
        modes[xi] = arr
    return SpectralForm(degree, band, grid, modes)


# -- construction ----------------------------------------------------------

def test_band_rejected_at_construction():
    arr = np.ones((CIRCLE.n, 7), dtype=complex)
    with pytest.raises(ValueError, match="band"):
        SpectralForm(1, 2, CIRCLE, {(3, 0, 0, 0, 0, 0): arr})


def test_reality_violation_rejected():
    a = np.ones((CIRCLE.n, 7), dtype=complex)
    xi = (1, 0, 0, 0, 0, 0)
    neg = (-1, 0, 0, 0, 0, 0)
    with pytest.raises(RealityError):
        SpectralForm(1, 2, CIRCLE, {xi: a, neg: 3j * a})


def test_missing_conjugate_filled_in():
    a = (1 + 2j) * np.ones((CIRCLE.n, 7))
    f = SpectralForm(1, 2, CIRCLE, {(1, 0, 0, 0, 0, 0): a})
    assert (-1, 0, 0, 0, 0, 0) in f.modes
    assert np.allclose(f.modes[(-1, 0, 0, 0, 0, 0)], np.conj(a))


def test_modes_frozen():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    with pytest.raises(ValueError):
        f.modes[ZERO_XI][0, 0] = 5.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        SpectralForm(1, 2, CIRCLE, {ZERO_XI: np.ones((CIRCLE.n, 6))})


# -- exterior derivative ---------------------------------------------------

def test_d_constant_zero_form():
    f = SpectralForm(0, 2, CIRCLE, {ZERO_XI: np.ones((CIRCLE.n, 1), dtype=complex)})
    assert exterior_d(f).amplitude() == 0.0


def test_d_single_mode_zero_form():
    xi = (1, 0, -2, 0, 0, 0)
    f = SpectralForm(0, 2, CIRCLE, {xi: np.ones((CIRCLE.n, 1), dtype=complex)})
    vec = exterior_d(f).modes[xi][0]
    basis1 = basis_indices(AXES7, 1)
    want = np.zeros(7, dtype=complex)
    for d in range(6):
        want[basis1.index((d + 2,))] = 1j * xi[d]
    assert np.abs(vec - want).max() == 0.0


@pytest.mark.parametrize("grid,tol", [(CIRCLE, 1e-13), (INTERVAL, 1e-10)])
def test_d_squared_zero(grid, tol):
    rng = np.random.default_rng(2)
    for degree in (1, 2, 3):
        f = rand_field(degree, 2, grid, rng)
        dd = exterior_d(exterior_d(f))
        assert dd.amplitude() <= tol * f.amplitude()


def test_d_matches_sampled_t_derivative():
    # t-only field with a known closed form: f = sin(2 pi t / P) dx^2
    t = CIRCLE.points
    p = CIRCLE.length
    arr = np.zeros((CIRCLE.n, 7), dtype=complex)
    arr[:, 1] = np.sin(2 * np.pi * t / p)
    f = SpectralForm(1, 2, CIRCLE, {ZERO_XI: arr})
    df = exterior_d(f)
    got = df.modes[ZERO_XI][:, 0]  # dt ^ dx^2 component
    want = (2 * np.pi / p) * np.cos(2 * np.pi * t / p)
    assert np.abs(got - want).max() < 1e-12


# -- codifferential --------------------------------------------------------

def test_codiff_constant_is_zero():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    assert codifferential(f).amplitude() == 0.0


def test_codiff_dt_harmonic_on_neck():
    f = SpectralForm.from_constant(ConstForm(AXES7, 1, {(1,): 1.0}), CIRCLE)
    assert codifferential(f).amplitude() == 0.0


def test_adjointness_periodic():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 7))
    m = m @ m.T + 7 * np.eye(7)
    for metric in (None, m):
        for _ in range(25):
            a = rand_field(2, 2, CIRCLE, rng)
            b = rand_field(3, 2, CIRCLE, rng)
            lhs = inner_l2(exterior_d(a), b, metric)
            rhs = inner_l2(a, codifferential(b, metric), metric)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_adjointness_interval_interior_support():
    rng = np.random.default_rng(4)
    t = INTERVAL.points
    env = np.exp(-0.5 * ((t - 3.0) / 0.6) ** 2)
    env[t < 1.0] = 0.0
    env[t > 5.0] = 0.0
    for _ in range(25):
        a = rand_field(2, 2, INTERVAL, rng, envelope=env)
        b = rand_field(3, 2, INTERVAL, rng, envelope=env)
        lhs = inner_l2(exterior_d(a), b)
        rhs = inner_l2(a, codifferential(b))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_codiff_rejects_varying_metric():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    stack = np.tile(np.eye(7), (CIRCLE.n, 1, 1))
    with pytest.raises(NonFlatMetric):
        codifferential(f, stack)


# -- norms -----------------------------------------------------------------

def test_parseval_mode_vs_quadrature():
    rng = np.random.default_rng(5)
    for grid in (CIRCLE, INTERVAL):
        f = rand_field(3, 2, grid, rng, active=(1, 4), nmodes=3)
        phys, _ = sample_physical(f)
        dens = (phys.reshape(grid.n, -1, f.ncomp) ** 2).mean(axis=1).sum(axis=1)
        quad = np.sqrt(float(grid.weights @ dens))
        assert abs(norm_l2(f) - quad) <= 1e-10 * quad


def test_norm_sup_constant_field():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    assert abs(norm_sup(f) - np.sqrt(7.0)) < 1e-12


def test_physical_roundtrip():
    rng = np.random.default_rng(6)
    f = rand_field(3, 2, CIRCLE, rng, active=(2,), nmodes=3)
    phys, _ = sample_physical(f)
    back = spectral_from_samples(phys, 3, 2, CIRCLE)
    assert (back - f).amplitude() < 1e-12 * max(1.0, f.amplitude())


@pytest.mark.parametrize("active", [(), (2,)])
def test_physical_sampling_bitwise_equals_six_axis_fft(active):
    rng = np.random.default_rng(9)
    f = rand_field(3, 2, CIRCLE, rng, active=active, nmodes=3)
    phys, dims = sample_physical(f)
    assert sum(m > 1 for m in dims) == len(active)
    spec = np.zeros((CIRCLE.n,) + dims + (35,), dtype=complex)
    for xi, a in f.modes.items():
        spec[(slice(None),) + tuple(xi[d] % dims[d] for d in range(6))] += a
    axes = tuple(range(1, 7))
    want = np.real(np.fft.ifftn(spec, axes=axes) * np.prod(dims))
    assert np.array_equal(phys, want)
    back = spectral_from_samples(phys, 3, 2, CIRCLE)
    full = np.fft.fftn(phys.astype(complex), axes=axes) / np.prod(dims)
    assert set(f.modes) <= set(back.modes)
    for xi, a in back.modes.items():
        pos = tuple(xi[d] % dims[d] for d in range(6))
        assert np.array_equal(a, full[(slice(None),) + pos])


# -- harmonic projection ---------------------------------------------------

def test_harmonic_project_constant_fixed():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    assert (harmonic_project(f) - f).amplitude() < 1e-15


def test_harmonic_project_kills_pure_mode():
    xi = (0, 1, 0, 0, 0, 0)
    arr = np.ones((CIRCLE.n, 35), dtype=complex)
    f = SpectralForm(3, 2, CIRCLE, {xi: arr})
    assert harmonic_project(f).amplitude() == 0.0


def test_harmonic_project_idempotent_and_orthogonal():
    rng = np.random.default_rng(7)
    f = rand_field(3, 2, CIRCLE, rng, nmodes=5)
    pf = harmonic_project(f)
    assert (harmonic_project(pf) - pf).amplitude() < 1e-14
    r = f - pf
    for _ in range(10):
        cform = ConstForm.fromvector(AXES7, 3, rng.standard_normal(35))
        cf = SpectralForm.from_constant(cform, CIRCLE)
        assert abs(inner_l2(r, cf)) <= 1e-12 * max(1.0, norm_l2(r))


def test_harmonic_project_rejects_t_varying_interval():
    rng = np.random.default_rng(8)
    f = rand_field(3, 2, INTERVAL, rng)
    with pytest.raises(ValueError, match="periodic or t-independent"):
        harmonic_project(f)


# -- asymptotics -----------------------------------------------------------

def test_decompose_translation_invariant():
    f = SpectralForm.from_constant(phi0(), INTERVAL)
    lim, beta, gamma = decompose_cyl(f)
    assert (lim - f).amplitude() < 1e-15
    assert beta.amplitude() == 0.0 and gamma.amplitude() == 0.0


def test_decompose_exponential_free_part():
    rng = np.random.default_rng(9)
    sig = rng.standard_normal(35)
    sig[:15] = 0.0  # dt-free
    lim = rng.standard_normal(35)
    t = INTERVAL.points
    arr = (lim[None, :] + np.exp(-t)[:, None] * sig[None, :]).astype(complex)
    f = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr})
    al, be, ga = decompose_cyl(f)
    assert np.abs(al.modes[ZERO_XI][0].real - lim).max() < 1e-9
    assert ga.amplitude() < 1e-12
    recon = al + be + dt_wedge(ga)
    assert (recon - f).amplitude() < 1e-13


def test_decompose_exponential_dt_part():
    rng = np.random.default_rng(10)
    tau = rng.standard_normal(15)
    t = INTERVAL.points
    arr = np.zeros((INTERVAL.n, 35), dtype=complex)
    arr[:, :15] = np.exp(-2.0 * t)[:, None] * tau[None, :]
    f = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr})
    al, be, ga = decompose_cyl(f)
    assert al.amplitude() < 1e-9 and be.amplitude() < 1e-12
    got = ga.modes[ZERO_XI][:, ga.free_slice].real
    assert np.abs(got - np.exp(-2.0 * t)[:, None] * tau[None, :]).max() < 1e-9


def test_decompose_growing_input_raises():
    t = INTERVAL.points
    arr = np.zeros((INTERVAL.n, 35), dtype=complex)
    arr[:, 20] = np.exp(0.5 * t)
    f = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr})
    with pytest.raises(NoLimit):
        decompose_cyl(f)


def test_decay_rate_oracles():
    rng = np.random.default_rng(11)
    sig = rng.standard_normal(35)
    t = INTERVAL.points
    for rate in (1.0, 2.0):
        arr = (np.exp(-rate * t)[:, None] * sig[None, :]).astype(complex)
        f = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr})
        assert abs(estimate_decay_rate(f, (1.0, 5.0)) - rate) < 1e-6


def test_decay_rate_errors():
    f = SpectralForm.from_constant(phi0(), INTERVAL)
    with pytest.raises(NoDecay):
        estimate_decay_rate(f, (1.0, 5.0))
    with pytest.raises(WindowTooSmall):
        estimate_decay_rate(f, (1.0, 1.05))


# -- structures and serialization ------------------------------------------

def test_cyl_structure_validation():
    from g2glue.forms import Omega0, omega0
    t = INTERVAL.points
    arr = np.zeros((INTERVAL.n, 35), dtype=complex)
    arr[:, 20] = 1e-3 * np.exp(-t)
    pert = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr})
    s = CylStructure(Omega0(), omega0(), 1, pert, 1.0)
    assert abs(s.fitted_decay() - 1.0) < 1e-6
    with pytest.raises(ValueError, match="sign"):
        CylStructure(Omega0(), omega0(), 2, pert, 1.0)
    with pytest.raises(ValueError, match="stable"):
        CylStructure(Omega0().scale(0.0), omega0(), 1, pert, 1.0)
    arr[3, 20] = np.inf
    bad = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr}, check=False)
    with pytest.raises(ValueError, match="finite"):
        CylStructure(Omega0(), omega0(), 1, bad, 1.0)


def test_payload_roundtrip():
    import json
    rng = np.random.default_rng(12)
    f = rand_field(2, 2, CIRCLE, rng, nmodes=3)
    blob = json.dumps(to_payload(f))
    back = from_payload(json.loads(blob))
    assert (back - f).amplitude() == 0.0
    assert back.degree == f.degree and back.band == f.band and back.grid == f.grid


def test_payload_validates_reality():
    f = SpectralForm.from_constant(phi0(), CIRCLE, band=1)
    obj = to_payload(f)
    obj["modes"].append({"xi": [1, 0, 0, 0, 0, 0],
                         "samples": [[1.0, 0.0]] * (CIRCLE.n * 35)})
    obj["modes"].append({"xi": [-1, 0, 0, 0, 0, 0],
                         "samples": [[0.0, 5.0]] * (CIRCLE.n * 35)})
    with pytest.raises(RealityError):
        from_payload(obj)


# -- wedge -----------------------------------------------------------------

def test_wedge_matches_pointwise():
    rng = np.random.default_rng(13)
    av = rng.standard_normal(35)
    bv = rng.standard_normal(21)
    a = SpectralForm.from_constant(ConstForm.fromvector(AXES7, 3, av), CIRCLE)
    b = SpectralForm.from_constant(ConstForm.fromvector(AXES7, 2, bv), CIRCLE)
    got = a.wedge(b).modes[ZERO_XI][0].real
    want = ConstForm.fromvector(AXES7, 3, av).wedge(
        ConstForm.fromvector(AXES7, 2, bv)).tovector()
    assert np.abs(got - want).max() < 1e-13


def test_wedge_band_overflow_rejected():
    rng = np.random.default_rng(14)
    a = rand_field(1, 2, CIRCLE, rng)
    b = rand_field(1, 3, CIRCLE, rng, active=(1,))
    with pytest.raises(ValueError, match="band"):
        a.wedge(b)


def test_leibniz_rule():
    # needs t-band-limited factors: the spectral derivative differentiates
    # the trig interpolant, and the product must stay resolved on the grid
    rng = np.random.default_rng(15)
    t = CIRCLE.points
    w = 2 * np.pi / CIRCLE.length

    def smooth_field(degree, xi, freq):
        nc = len(basis_indices(AXES7, degree))
        prof = np.cos(freq * w * t) + 0.3 * np.sin(w * t)
        arr = np.outer(prof, rng.standard_normal(nc)).astype(complex)
        return SpectralForm(degree, 1, CIRCLE, {xi: arr})

    a = smooth_field(1, (1, 0, 0, 0, 0, 0), 2)
    b = smooth_field(2, (0, 0, 0, -1, 0, 0), 3)
    lhs = exterior_d(a.wedge(b))
    rhs = exterior_d(a).wedge(b) + (-1.0) * a.wedge(exterior_d(b))
    scale = max(1.0, lhs.amplitude())
    assert (lhs - rhs).amplitude() < 1e-10 * scale
