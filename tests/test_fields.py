"""Spectral cylinder field tests: calculus, norms, asymptotics."""

import math
import re

import numpy as np
import pytest

from g2glue import fields as F, forms
from g2glue.forms import AXES7, ConstForm, basis_indices, phi0
from g2glue.fields import (
    NoDecay,
    NoLimit,
    RealityError,
    SpectralForm,
    TGrid,
    WindowTooSmall,
    ZERO_XI,
    _axis_wedge_matrix,
    codifferential,
    decompose_cyl,
    estimate_decay_rate,
    exterior_d,
    harmonic_project,
    inner_l2,
    norm_l2,
    norm_sup,
    sample_physical,
    spectral_from_samples,
)
from g2glue.gluing import CylStructure

CIRCLE = TGrid.circle(6.0, density=16)
INTERVAL = TGrid.interval(0.0, 6.0, density=16)


def mirror(xi):
    return tuple(-v for v in xi)


def rand_field(degree, band, grid, rng, active=(0, 3), nmodes=4, envelope=None):
    nc = len(basis_indices(AXES7, degree))
    modes = {}
    for _ in range(nmodes):
        xi = [0] * 6
        for d in active:
            xi[d] = int(rng.integers(-band, band + 1))
        xi = tuple(xi)
        if xi in modes or mirror(xi) in modes:
            continue
        arr = rng.standard_normal((grid.n, nc)) + 1j * rng.standard_normal((grid.n, nc))
        if envelope is not None:
            arr = envelope[:, None] * arr
        if xi == ZERO_XI:
            arr = arr.real.astype(complex)
        if not F._is_canonical(xi):
            xi, arr = mirror(xi), np.conj(arr)   # the same real field
        modes[xi] = arr
    return SpectralForm(degree, band, grid, modes)


# -- construction ----------------------------------------------------------

@pytest.mark.parametrize("density", [0, -64, 0.0, math.nan])
def test_grid_constructors_refuse_a_density_that_is_not_positive(density):
    with pytest.raises(ValueError, match="density"):
        TGrid.interval(0.0, 1.0, density)
    with pytest.raises(ValueError, match="density"):
        TGrid.circle(1.0, density)


@pytest.mark.parametrize("extent, density", [
    (6.0, 1), (0.1, 64), (math.nan, 64), (math.inf, 64), (3.0, 2.0)])
def test_grid_constructors_refuse_an_extent_too_short_or_not_finite(extent,
                                                                    density):
    # Each names the extent and the density, where the 8-sample floor
    # once respaced the grid (6 at density 1 got h = 6/7) or a NaN
    # extent failed converting to an integer.
    for make in (lambda: TGrid.interval(0.0, extent, density),
                 lambda: TGrid.circle(extent, density)):
        with pytest.raises(ValueError) as info:
            make()
        assert f"extent {extent!r}" in str(info.value)
        assert f"density {density!r}" in str(info.value)


@pytest.mark.parametrize("extent", [0.0, -2.0, -math.inf])
def test_grid_constructors_refuse_an_extent_that_is_not_positive(extent):
    with pytest.raises(ValueError, match="grid needs b > a"):
        TGrid.interval(0.0, extent, 64)
    with pytest.raises(ValueError, match="grid needs b > a"):
        TGrid.circle(extent, 64)


def test_the_shortest_grids_keep_their_spacing():
    interval = TGrid.interval(0.0, 7.0, 1)
    assert (interval.n, interval.h) == (8, 1.0)
    circle = TGrid.circle(4.0, 2)
    assert (circle.n, circle.h) == (8, 0.5)


def test_band_rejected_at_construction():
    arr = np.ones((CIRCLE.n, 7), dtype=complex)
    with pytest.raises(ValueError, match="band"):
        SpectralForm(1, 2, CIRCLE, {(3, 0, 0, 0, 0, 0): arr})


def test_reality_violation_rejected():
    # An inconsistent +-xi pair cannot be built: the mirrored key is refused.
    a = np.ones((CIRCLE.n, 7), dtype=complex)
    xi = (1, 0, 0, 0, 0, 0)
    neg = (-1, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"mode \(-1, 0, 0, 0, 0, 0\)"):
        SpectralForm(1, 2, CIRCLE, {xi: a, neg: 3j * a})
    # The same pair holding a NaN.
    b = a.copy()
    b[2, 3] = math.nan
    with pytest.raises(ValueError, match=r"mode \(-1, 0, 0, 0, 0, 0\)"):
        SpectralForm(1, 2, CIRCLE, {xi: b, neg: 3j * b})


def test_mirrored_key_refused():
    # A mirrored key is refused by one ValueError naming it; the same field,
    # keyed by the canonical mode of the pair, is taken.
    a = (1 + 2j) * np.ones((CIRCLE.n, 7))
    for xi in [(-1, 0, 0, 0, 0, 0), (0, 0, -2, 1, 0, 0), (0, 0, 0, 0, 0, -1)]:
        key = re.escape(str(xi))
        with pytest.raises(ValueError, match=f"mode {key} is not canonical") as info:
            SpectralForm(1, 2, CIRCLE, {xi: a})
        assert not isinstance(info.value, RealityError)
        f = SpectralForm(1, 2, CIRCLE, {mirror(xi): np.conj(a)})
        assert list(f.modes) == [mirror(xi)]
        assert np.array_equal(f.modes[mirror(xi)], np.conj(a))


def test_modes_frozen():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    with pytest.raises(ValueError):
        f.modes[ZERO_XI][0, 0] = 5.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        SpectralForm(1, 2, CIRCLE, {ZERO_XI: np.ones((CIRCLE.n, 6))})


# -- the real xi = 0 mode --------------------------------------------------

def assert_real_xi0(f):
    """The xi = 0 mode is a C-contiguous float64 array, the rest complex128."""
    assert ZERO_XI in f.modes
    for xi, a in f.modes.items():
        assert a.dtype == (np.float64 if xi == ZERO_XI else np.complex128)
        assert a.flags.c_contiguous and not a.flags.writeable


@pytest.mark.parametrize("with_pair", [True, False])
@pytest.mark.parametrize("dtype", [float, complex])
def test_constructor_stores_xi0_real(with_pair, dtype):
    rng = np.random.default_rng(21)
    a0 = rng.standard_normal((CIRCLE.n, 7))
    a1 = rng.standard_normal((CIRCLE.n, 7)) + 1j * rng.standard_normal((CIRCLE.n, 7))
    xi = (1, 0, 0, 0, 0, 0)
    modes = {ZERO_XI: a0.astype(dtype), xi: a1} if with_pair else {ZERO_XI: a0.astype(dtype)}
    f = SpectralForm(1, 2, CIRCLE, modes)
    assert_real_xi0(f)
    assert np.array_equal(f.modes[ZERO_XI], a0)
    assert list(f.modes) == ([ZERO_XI, xi] if with_pair else [ZERO_XI])
    if with_pair:
        assert np.array_equal(f.modes[xi], a1)


def test_imaginary_xi0_mode_raises_under_check():
    a = np.ones((CIRCLE.n, 7)) + 1e-3j
    with pytest.raises(RealityError, match="not real"):
        SpectralForm(1, 0, CIRCLE, {ZERO_XI: a})
    # within the self-conjugacy tolerance the real part is kept
    f = SpectralForm(1, 0, CIRCLE, {ZERO_XI: np.ones((CIRCLE.n, 7)) + 1e-10j})
    assert_real_xi0(f)
    assert np.array_equal(f.modes[ZERO_XI], np.ones((CIRCLE.n, 7)))


def test_a_nan_imaginary_xi0_entry_is_not_real():
    # A NaN imaginary part is outside any tolerance: it is refused, not
    # stored as 0.0.
    a = np.ones((CIRCLE.n, 7), dtype=complex)
    a[4, 2] = complex(1.0, math.nan)
    with pytest.raises(RealityError, match="not real"):
        SpectralForm(1, 0, CIRCLE, {ZERO_XI: a})


@pytest.mark.parametrize("where", ["xi0-real-part", "other-mode"])
def test_a_nan_elsewhere_leaves_the_tolerance_finite(where):
    # The scale is taken over finite entries only, so a NaN elsewhere
    # cannot make the tolerance NaN and let an imaginary part of 1 through.
    a0 = np.ones((CIRCLE.n, 7), dtype=complex)
    a0[0, 0] += 1j
    a1 = np.ones((CIRCLE.n, 7), dtype=complex)
    if where == "xi0-real-part":
        a0[3, 1] = math.nan
    else:
        a1[3, 1] = math.nan
    with pytest.raises(RealityError, match="not real"):
        SpectralForm(1, 1, CIRCLE, {ZERO_XI: a0, (1, 0, 0, 0, 0, 0): a1})
    # A NaN real part with a zero imaginary part is a value, not a
    # violation of reality: it is stored.
    a0[0, 0] = 1.0
    f = SpectralForm(1, 1, CIRCLE, {ZERO_XI: a0, (1, 0, 0, 0, 0, 0): a1})
    assert np.isnan(f.modes[ZERO_XI]).any() == (where == "xi0-real-part")


def _xi0_paths():
    rng = np.random.default_rng(22)
    xi = (0, 1, 0, 0, 0, 0)
    a = rng.standard_normal((CIRCLE.n, 7)) + 1j * rng.standard_normal((CIRCLE.n, 7))
    pair = SpectralForm(1, 1, CIRCLE, {xi: a})
    other = SpectralForm(1, 1, CIRCLE, {xi: np.roll(a, 3, axis=0)})
    const = SpectralForm.from_constant(phi0(), CIRCLE, band=1)
    mixed = rand_field(3, 2, CIRCLE, rng, active=(2,), nmodes=3) + const
    t = INTERVAL.points
    decaying = SpectralForm(3, 0, INTERVAL, {
        ZERO_XI: np.outer(2.0 + np.exp(-t), rng.standard_normal(35))})
    phys, _ = sample_physical(mixed)
    return {
        "from_constant": lambda: const,
        "samples-no-axis": lambda: spectral_from_samples(
            sample_physical(const)[0], 3, 1, CIRCLE),
        "samples-active-axis": lambda: spectral_from_samples(phys, 3, 2, CIRCLE),
        "exterior_d": lambda: exterior_d(mixed),
        "wedge-of-pair": lambda: pair.wedge(other),
        "add": lambda: const + mixed,
        "sub": lambda: mixed - const,
        "sub-from-zero": lambda: SpectralForm.zero(3, 1, CIRCLE) - const,
        "add-disjoint": lambda: pair + SpectralForm.from_constant(
            ConstForm.fromvector(AXES7, 1, np.arange(1.0, 8.0)), CIRCLE),
        "decompose-limit": lambda: decompose_cyl(decaying)[0],
        "decompose-free": lambda: decompose_cyl(decaying)[1],
        "decompose-dt": lambda: decompose_cyl(decaying)[2],
        "harmonic_project": lambda: harmonic_project(mixed),
    }


@pytest.mark.parametrize("path", list(_xi0_paths()))
def test_every_path_stores_xi0_real(path):
    f = _xi0_paths()[path]()
    assert_real_xi0(f)


def test_wedge_of_a_conjugate_pair_is_real_at_xi0():
    rng = np.random.default_rng(23)
    xi = (0, 0, 2, 0, 0, 0)
    a = rng.standard_normal((CIRCLE.n, 7)) + 1j * rng.standard_normal((CIRCLE.n, 7))
    b = rng.standard_normal((CIRCLE.n, 21)) + 1j * rng.standard_normal((CIRCLE.n, 21))
    f = SpectralForm(1, 2, CIRCLE, {xi: a})
    g = SpectralForm(2, 2, CIRCLE, {xi: b})
    got = f.wedge(g).modes[ZERO_XI]
    aa, bb, ind = forms._wedge_table(7, 1, 2)
    want = ((a[:, aa] * np.conj(b)[:, bb]) @ ind
            + (np.conj(a)[:, aa] * b[:, bb]) @ ind)
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_sampling_a_xi0_field_builds_no_complex_array():
    f = SpectralForm.from_constant(phi0(), CIRCLE)
    phys, dims = sample_physical(f)
    assert dims == (1,) * 6 and phys.dtype == np.float64
    assert np.shares_memory(phys, f.modes[ZERO_XI])
    assert np.array_equal(phys.reshape(CIRCLE.n, 35), f.modes[ZERO_XI])
    empty, _ = sample_physical(SpectralForm.zero(3, 0, CIRCLE))
    assert empty.shape == (CIRCLE.n,) + (1,) * 6 + (35,) and not empty.any()


# -- non-finite samples ----------------------------------------------------

def test_spectral_from_samples_rejects_a_nan_sample():
    rng = np.random.default_rng(24)
    arr = rng.standard_normal((CIRCLE.n,) + (1,) * 6 + (35,))
    good = spectral_from_samples(arr, 3, 0, CIRCLE)
    assert np.array_equal(good.modes[ZERO_XI], arr.reshape(CIRCLE.n, 35))
    bad = arr.copy()
    bad[5, 0, 0, 0, 0, 0, 0, 7] = np.nan
    with pytest.raises(ValueError, match=r"1 non-finite samples.*\(5, 0, 0, 0, 0, 0, 0, 7\)"):
        spectral_from_samples(bad, 3, 0, CIRCLE)


def test_spectral_from_samples_rejects_inf_on_an_active_axis():
    rng = np.random.default_rng(25)
    f = rand_field(3, 2, CIRCLE, rng, active=(2,), nmodes=3)
    phys, _ = sample_physical(f)
    back = spectral_from_samples(phys, 3, 2, CIRCLE)
    assert (back - f).amplitude() < 1e-12 * max(1.0, f.amplitude())
    bad = phys.copy()
    bad[3, 0, 0, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        spectral_from_samples(bad, 3, 2, CIRCLE)


# -- the t-transform pair --------------------------------------------------

def pair_inputs(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, 5))
    return TGrid(0.0, 10.0, n, periodic=True), real, real + 1j * rng.standard_normal((n, 5))


@pytest.mark.parametrize("n", [640, 641])
def test_forward_is_rfft_of_real_and_fft_of_complex(n):
    grid, real, cplx = pair_inputs(n)
    half, full = grid.forward(real), grid.forward(cplx)
    assert half.shape == (n // 2 + 1, 5) and full.shape == (n, 5)
    assert np.array_equal(half, np.fft.rfft(real, axis=0))
    assert np.array_equal(full, np.fft.fft(cplx, axis=0))


@pytest.mark.parametrize("n", [640, 641])
def test_inverse_picks_irfft_or_ifft_by_row_count(n):
    grid, real, cplx = pair_inputs(n)
    half, full = np.fft.rfft(real, axis=0), np.fft.fft(cplx, axis=0)
    back_real, back_cplx = grid.inverse(half), grid.inverse(full)
    assert back_real.shape == back_cplx.shape == (n, 5)
    assert (back_real.dtype, back_cplx.dtype) == (np.float64, np.complex128)
    assert np.array_equal(back_real, np.fft.irfft(half, n, axis=0))
    assert np.array_equal(back_cplx, np.fft.ifft(full, axis=0))
    assert np.abs(back_real - real).max() <= 1e-14


@pytest.mark.parametrize("n", [640, 641])
def test_ddt_is_the_multiplier_between_the_pair_bitwise(n):
    # The formula TGrid.ddt had before it was built on the pair, and the
    # solver's frequencies as the reducer formed them from the neck length.
    grid, real, cplx = pair_inputs(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    wn = 2.0 * np.pi / grid.length * k
    assert np.array_equal(grid.wavenumbers(grid.forward(cplx)), wn)
    assert np.array_equal(grid.wavenumbers(grid.forward(real)), wn[: n // 2 + 1])
    if n % 2 == 0:
        k[n // 2] = 0.0
    mult = 2j * np.pi * k / grid.length
    want_real = np.fft.irfft(mult[: n // 2 + 1, None] * np.fft.rfft(real, axis=0),
                             n, axis=0)
    want_cplx = np.fft.ifft(mult[:, None] * np.fft.fft(cplx, axis=0), axis=0)
    assert grid.ddt(real).dtype == np.float64
    assert np.array_equal(grid.ddt(real), want_real)
    assert np.array_equal(grid.ddt(cplx), want_cplx)


# Columns 1, 3 and 4 are constant bit for bit.  Column 5 holds a 0.0 and
# a -0.0, equal in value but not in bits, so the forward transform takes
# it; its spectrum is zeros, so the inverse does not.  The signs of the
# zeros numpy gives it depend on the memory layout numpy is handed, so
# only the random columns 0 and 2 are compared bit for bit.
STEADY = np.array([False, True, False, True, True, False])
RANDOM = [0, 2]


def mixed_inputs(n):
    rng = np.random.default_rng(n)
    real = rng.standard_normal((n, 6))
    real[:, 1], real[:, 3], real[:, 4] = 0.0, -2.5, 1.0 / 3.0
    real[:, 5] = 0.0
    real[n // 3, 5] = -0.0
    cplx = real + 1j * rng.standard_normal((n, 6))
    cplx[:, 1], cplx[:, 3], cplx[:, 4] = 0.0, -2.5 + 0.75j, 1.0 / 3.0
    cplx[:, 5] = real[:, 5]
    return TGrid(0.0, 10.0, n, periodic=True), real, cplx


def reference_ddt(grid, y):
    """d/dt as numpy's pair around the multiplier, over every column."""
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    if grid.n % 2 == 0:
        k[grid.n // 2] = 0.0
    mult = (2j * np.pi * k / grid.length)[:, None]
    if np.iscomplexobj(y):
        return np.fft.ifft(mult * np.fft.fft(y, axis=0), axis=0)
    half = grid.n // 2 + 1
    return np.fft.irfft(mult[:half] * np.fft.rfft(y, axis=0), grid.n, axis=0)


def numpy_columns(monkeypatch):
    """Patch numpy's four transforms to log the columns each call gets."""
    seen = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        real = getattr(np.fft, name)

        def recording(a, *args, real=real, name=name, **kwargs):
            seen.append((name, a[0].size))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, recording)
    return seen


@pytest.mark.parametrize("n", [1076, 640])
def test_the_pair_transforms_only_the_varying_columns(n, monkeypatch):
    # n = 1076 = 4 * 269 is a Bluestein size, where numpy's transform of a
    # constant is inexact; 640 is 5-smooth.
    grid, real, cplx = mixed_inputs(n)
    for y in (real, cplx):
        full = np.iscomplexobj(y)
        want = np.fft.fft(y, axis=0) if full else np.fft.rfft(y, axis=0)
        seen = numpy_columns(monkeypatch)
        spec = grid.forward(y)
        assert seen == [("fft" if full else "rfft", 3)]
        assert spec.shape == want.shape and spec.dtype == np.complex128
        assert spec[:, RANDOM].tobytes() == want[:, RANDOM].tobytes()
        assert np.array_equal(spec[:, 5], want[:, 5])
        assert np.array_equal(spec[0, STEADY], n * y[0, STEADY])
        assert not spec[1:, STEADY].any()
        ref = np.fft.ifft(spec, axis=0) if full else np.fft.irfft(spec, n, axis=0)
        seen.clear()
        back = grid.inverse(spec)
        assert seen == [("ifft" if full else "irfft", 2)]
        assert back.dtype == y.dtype
        assert back[:, RANDOM].tobytes() == ref[:, RANDOM].tobytes()
        # A column with no entry at k != 0 comes back as that entry / n.
        dc = spec[0, [1, 3, 4, 5]]
        dc = dc if full else dc.real
        assert np.array_equal(back[:, [1, 3, 4, 5]], np.broadcast_to(dc / n, (n, 4)))
        monkeypatch.undo()
        d = grid.ddt(y)
        assert d.dtype == y.dtype
        assert (d[:, STEADY] == 0.0).all()
        assert d[:, RANDOM].tobytes() == reference_ddt(grid, y)[:, RANDOM].tobytes()


@pytest.mark.parametrize("n", [1076, 640])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_the_pair_still_transforms_a_non_finite_column(n, bad):
    # A non-finite entry in one row, or in every row (constant in value),
    # goes through numpy and reaches ddt's output as numpy's pair gives it.
    grid, real, cplx = mixed_inputs(n)
    for y in (real, cplx):
        y = y.copy()
        y[n // 2, 2] = bad
        y[:, 3] = bad
        with np.errstate(invalid="ignore"):
            want = reference_ddt(grid, y)
            got = grid.ddt(y)
        assert not np.isfinite(got[:, 2]).all() and not np.isfinite(got[:, 3]).all()
        assert np.array_equal(got[:, [2, 3]], want[:, [2, 3]], equal_nan=True)
        assert (got[:, [1, 4]] == 0.0).all()


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


def reference_d(f):
    """d over every column: the full complex t-derivative (the fft round
    trip on a circle, the stencil on an interval), then dt ^, plus the
    torus terms."""
    grid = f.grid
    wt = F._axis_wedge_matrix(1, f.degree)
    k = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    if grid.n % 2 == 0:
        k[grid.n // 2] = 0.0
    mult = 2j * np.pi * k / grid.length
    out = {}
    for xi, m in f.modes.items():
        if grid.periodic:
            dm = np.fft.ifft(mult[:, None] * np.fft.fft(m, axis=0), axis=0)
        else:
            dm = grid.ddt(m)
        acc = dm @ wt.T
        for d in range(6):
            wx = F._axis_wedge_matrix(d + 2, f.degree)
            acc = acc + (1j * xi[d]) * (m @ wx.T)
        out[xi] = acc
    return out


@pytest.mark.parametrize("grid", [CIRCLE, TGrid(0.0, 6.0, 97, periodic=True),
                                  INTERVAL],
                         ids=["circle-even", "circle-odd", "interval"])
def test_d_matches_full_column_reference(grid):
    rng = np.random.default_rng(11)
    for degree in range(7):
        f = (rand_field(degree, 2, grid, rng)
             + rand_field(degree, 2, grid, rng, active=(), nmodes=1))
        assert ZERO_XI in f.modes and len(f.modes) > 1
        got = exterior_d(f).modes
        want = reference_d(f)
        assert got.keys() == want.keys()
        for xi, w in want.items():
            assert np.abs(got[xi] - w).max() <= 1e-13 * np.abs(w).max()
        assert_real_xi0(exterior_d(f))


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
    for _ in range(25):
        a = rand_field(2, 2, CIRCLE, rng)
        b = rand_field(3, 2, CIRCLE, rng)
        lhs = inner_l2(exterior_d(a), b)
        rhs = inner_l2(a, codifferential(b))
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


# -- norms -----------------------------------------------------------------

def test_parseval_mode_vs_quadrature():
    rng = np.random.default_rng(5)
    for grid in (CIRCLE, INTERVAL):
        f = rand_field(3, 2, grid, rng, active=(1, 4), nmodes=3)
        phys, _ = sample_physical(f)
        dens = (phys.reshape(grid.n, -1, f.ncomp) ** 2).mean(axis=1).sum(axis=1)
        quad = np.sqrt(float(grid.weights @ dens))
        assert abs(norm_l2(f) - quad) <= 1e-10 * quad


@pytest.mark.parametrize("grid", [CIRCLE, INTERVAL], ids=["circle", "interval"])
def test_parseval_counts_each_mirror_mode(grid):
    # norm_l2^2 sums the stored modes, each xi != 0 twice for its mirror;
    # the samples hold every mode, so their torus mean of |f|^2 under the
    # t-weights is the same number.
    rng = np.random.default_rng(26)
    f = (rand_field(3, 2, grid, rng, active=(0, 2, 5), nmodes=8)
         + rand_field(3, 2, grid, rng, active=(), nmodes=1))
    assert ZERO_XI in f.modes and sum(map(any, f.modes)) >= 5
    phys, _ = sample_physical(f)
    dens = (phys.reshape(grid.n, -1, f.ncomp) ** 2).sum(axis=2).mean(axis=1)
    quad = float(grid.weights @ dens)
    assert abs(norm_l2(f) ** 2 - quad) <= 1e-13 * quad


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
    # The expanded spectrum: each stored mode and the conjugate at -xi.
    expanded = dict(f.modes)
    expanded.update((mirror(xi), np.conj(a)) for xi, a in f.modes.items() if any(xi))
    spec = np.zeros((CIRCLE.n,) + dims + (35,), dtype=complex)
    for xi, a in expanded.items():
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


def test_harmonic_project_mean_is_summed_pairwise():
    # A neck's worth of O(1) rows: a row-by-row mean is several ulps off
    # the exactly rounded one, the pairwise mean within one.
    grid = TGrid(0.0, 20.0, 1280, periodic=True)
    k = np.arange(1, 36)
    arr = 1.0 + 1e-3 * np.sin(2 * np.pi * np.outer(grid.points, k) / grid.length
                              + 0.3 * k)
    f = SpectralForm(3, 0, grid, {ZERO_XI: arr})
    got = harmonic_project(f).modes[ZERO_XI][0]
    want = np.array([math.fsum(arr[:, c]) / grid.n for c in range(35)])
    assert got.dtype == np.float64
    assert (np.abs(got - want) <= np.spacing(want)).all()


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
    dt_wedge = _axis_wedge_matrix(1, 2)
    recon = al + be + SpectralForm(3, ga.band, ga.grid, {
        xi: a @ dt_wedge.T for xi, a in ga.modes.items()})
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
    bad = SpectralForm(3, 2, INTERVAL, {ZERO_XI: arr})
    with pytest.raises(ValueError, match="finite"):
        CylStructure(Omega0(), omega0(), 1, bad, 1.0)


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
    b = smooth_field(2, (0, 0, 0, 1, 0, 0), 3)
    lhs = exterior_d(a.wedge(b))
    rhs = exterior_d(a).wedge(b) + (-1.0) * a.wedge(exterior_d(b))
    scale = max(1.0, lhs.amplitude())
    assert (lhs - rhs).amplitude() < 1e-10 * scale
