"""Sampled differential forms on the flat cylinder T^6 x I and neck T^6 x S^1.

A field of degree k is a sparse collection of Fourier modes in the torus
directions x^2 .. x^7 (each 2*pi periodic), every mode carrying an array of
coefficient vectors sampled along the cylinder coordinate t = x^1:

    f(t, x) = sum_xi  c_xi(t) * e^{i <xi, x>},   xi in Z^6, |xi|_inf <= band.

Each c_xi(t) is a full 7-dimensional k-form coefficient vector in the
basis order of forms.basis_indices(AXES7, k), so the dt-components occupy
the leading C(6, k-1) slots (multi-indices containing 1) and the dt-free
components the trailing C(6, k) slots.  A field is real, c_{-xi} =
conj(c_xi): it stores the xi = 0 mode as float64 and of each pair +-xi != 0
only the canonical mode, first nonzero entry positive, as complex128.  Only
sample_physical, spectral_from_samples, inner_l2 and wedge meet the -xi modes.

The t-axis is either an interval [a, b] with n inclusive samples (fourth
order finite differences) or a circle of circumference b - a with n
samples and spectral derivatives; TGrid owns the t-Fourier layout of a
circle.  The exterior derivative differentiates in t only the dt-free
columns, the only ones dt ^ (.) keeps, and keeps the xi = 0 mode real.  The
L^2 pairing uses the probability measure on the torus, so Parseval holds
without 2*pi factors, and the trapezoid rule (interval) or uniform rule
(circle) in t.

The asymptotics on an interval live here too: decompose_cyl (limit plus
decaying remainders) and integral_to_infinity (tail integrals); a
half-cylinder end itself is a gluing.CylStructure.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .forms import (
    AXES7,
    ConstForm,
    _contract_table,
    _hodge_table,
    _wedge_table,
)

ZERO_XI = (0, 0, 0, 0, 0, 0)
BAND_MAX = 4
_MAX_INTERVAL_SAMPLES = 2 ** 16


class NoLimit(ValueError):
    """The tail fit found no translation-invariant limit."""


class NoDecay(ValueError):
    """The field does not decay over the requested window."""


class WindowTooSmall(ValueError):
    """Too few samples in the fit window."""


class RealityError(ValueError):
    """A complex xi = 0 coefficient whose imaginary part is not roundoff."""


# -- t-axis discretizations ------------------------------------------------

def _grid_steps(extent: float, density, fewest: int) -> float:
    """extent * density, the steps of spacing 1 / density.  Raises
    ValueError if density or extent is not positive, or, naming both, if
    the steps are not finite, round below ``fewest``, or miss a whole
    number by more than 1e-9 of themselves: a grid is refused, not
    respaced to fit its extent or to reach its 8 samples."""
    if not density > 0:
        raise ValueError(f"grid density must be positive, got {density!r}")
    if extent <= 0:
        raise ValueError("grid needs b > a")
    steps = extent * density
    if (not math.isfinite(steps) or round(steps) < fewest
            or abs(steps - round(steps)) > 1e-9 * steps):
        raise ValueError(f"a grid of extent {extent!r} at density {density!r} "
                         f"has {steps!r} steps of 1 / density, not a whole "
                         f"number of at least {fewest}")
    return steps


def _constant_columns(cols: np.ndarray) -> np.ndarray:
    """Mask of the columns of a 2-D array that are finite and equal, bit for
    bit, in every row.  The middle row rules out most varying columns
    before the full comparison."""
    bits = [p.view(np.uint64)
            for p in ((cols.real, cols.imag) if np.iscomplexobj(cols) else (cols,))]
    steady = np.isfinite(cols[0])
    for b in bits:
        steady &= b[len(b) // 2] == b[0]
    idx = np.flatnonzero(steady)
    if idx.size:
        for b in bits:
            sub = b[:, idx]
            steady[idx] &= (sub == sub[0]).all(axis=0)
    return steady


def _k0_only_columns(cols: np.ndarray) -> np.ndarray:
    """Mask of the columns of a t-spectrum with a finite k = 0 entry and
    exact zeros in every other row."""
    return np.isfinite(cols[0]) & ~cols[1:].any(axis=0)


@dataclass(frozen=True)
class TGrid:
    """Uniform sample grid for the cylinder coordinate.

    Interval grids hold n samples on [a, b] inclusive; circle grids hold n
    samples on [a, b) with period b - a.  Derivatives are fourth-order
    finite differences (interval) or spectral (circle).  A circle grid owns
    the t-Fourier layout: forward, inverse, ddt_spectrum and wavenumbers."""

    a: float
    b: float
    n: int
    periodic: bool = False

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("grid needs b > a")
        if self.n < 8:
            raise ValueError("grid needs at least 8 samples")

    @classmethod
    def interval(cls, a: float, b: float, density: int = 64) -> "TGrid":
        """Raises ValueError as _grid_steps does, or if the grid would pass
        ``_MAX_INTERVAL_SAMPLES`` samples."""
        steps = _grid_steps(b - a, density, 7)
        if not steps < _MAX_INTERVAL_SAMPLES - 0.5:
            raise ValueError(f"grid needs {steps + 1:.3g} samples, more than "
                             f"{_MAX_INTERVAL_SAMPLES}")
        return cls(float(a), float(b), round(steps) + 1)

    @classmethod
    def circle(cls, length: float, density: int = 64) -> "TGrid":
        """Raises ValueError as _grid_steps does."""
        return cls(0.0, float(length), round(_grid_steps(length, density, 8)),
                   periodic=True)

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n if self.periodic else self.n - 1)

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def points(self) -> np.ndarray:
        if self.periodic:
            return self.a + self.h * np.arange(self.n)
        return np.linspace(self.a, self.b, self.n)

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights of the t-rule (trapezoid or uniform)."""
        w = np.full(self.n, self.h)
        if not self.periodic:
            w[0] *= 0.5
            w[-1] *= 0.5
        return w

    @cached_property
    def _ddt_multiplier(self) -> np.ndarray:
        """Spectral d/dt, 2 pi i k / length over the fft frequencies k, 0 at Nyquist."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        if self.n % 2 == 0:
            k[self.n // 2] = 0.0
        return 2j * np.pi * k / self.length

    def forward(self, y: np.ndarray) -> np.ndarray:
        """t-spectrum along axis 0: rfft of a real array, fft of a complex one.

        Only the columns that vary along t are transformed.  A column that
        is finite and constant bit for bit, c in every row, gets its exact
        spectrum: n c at k = 0 and exact zeros elsewhere.  A column holding
        a NaN or an infinity always goes through numpy."""
        full = np.iscomplexobj(y)
        cols = y.reshape(len(y), -1)
        steady = _constant_columns(cols)
        if not steady.any():
            return np.fft.fft(y, axis=0) if full else np.fft.rfft(y, axis=0)
        rows = self.n if full else self.n // 2 + 1
        out = np.zeros((rows, cols.shape[1]), dtype=complex)
        out[0, steady] = self.n * cols[0, steady]
        vary = ~steady
        if vary.any():
            out[:, vary] = (np.fft.fft(cols[:, vary], axis=0) if full
                            else np.fft.rfft(cols[:, vary], axis=0))
        return out.reshape((rows,) + y.shape[1:])

    def inverse(self, yhat: np.ndarray) -> np.ndarray:
        """Samples from a t-spectrum: irfft of n // 2 + 1 rows, ifft of n rows.

        Only the columns with an entry at k != 0 are transformed.  A column
        whose k != 0 rows are exact zeros and whose k = 0 entry a is finite
        comes back as a / n in every row (its real part, from n // 2 + 1
        rows); every other column goes through numpy."""
        half = len(yhat) == self.n // 2 + 1
        cols = yhat.reshape(len(yhat), -1)
        steady = _k0_only_columns(cols)
        if not steady.any():
            return np.fft.irfft(yhat, self.n, axis=0) if half else np.fft.ifft(yhat, axis=0)
        # Every row takes row 0 / n; the varying columns are then overwritten.
        out = np.empty((self.n, cols.shape[1]), dtype=float if half else complex)
        out[:] = (cols[0].real if half else cols[0]) / self.n
        vary = ~steady
        if vary.any():
            out[:, vary] = (np.fft.irfft(cols[:, vary], self.n, axis=0) if half
                            else np.fft.ifft(cols[:, vary], axis=0))
        return out.reshape((self.n,) + yhat.shape[1:])

    def wavenumbers(self, yhat: np.ndarray) -> np.ndarray:
        """2 pi k / length for each row of a t-spectrum, the Nyquist row too."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)[: len(yhat)]
        return 2.0 * np.pi / self.length * k

    def ddt_spectrum(self, yhat: np.ndarray) -> np.ndarray:
        """d/dt on a t-spectrum: each row times its entry of _ddt_multiplier."""
        shape = (-1,) + (1,) * (yhat.ndim - 1)
        return self._ddt_multiplier[: len(yhat)].reshape(shape) * yhat

    def ddt(self, y: np.ndarray) -> np.ndarray:
        """d/dt along axis 0: on a circle the pair around ddt_spectrum, real
        in and out for a real array, so a constant column's derivative is
        exactly 0 and only the varying columns are transformed; on an
        interval the fourth-order stencil."""
        if self.periodic:
            return self.inverse(self.ddt_spectrum(self.forward(y)))
        h12 = 12.0 * self.h
        d = np.empty_like(y, dtype=complex if np.iscomplexobj(y) else float)
        d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / h12
        d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / h12
        d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / h12
        d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / h12
        d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / h12
        return d


# -- spectral fields -------------------------------------------------------

def _ncomp(degree: int) -> int:
    return math.comb(7, degree)


def _dt_count(degree: int) -> int:
    return math.comb(6, degree - 1) if degree >= 1 else 0


def _is_canonical(xi: tuple) -> bool:
    """Whether xi is 0 or its first nonzero entry is positive."""
    return next((v > 0 for v in xi if v), True)


class SpectralForm:
    """Real degree-k form on the cylinder, sparse in torus modes, sampled in t.

    ``modes`` maps 6-tuples xi to arrays of shape (grid.n, C(7, k)): the
    xi = 0 mode as float64, and of each pair +-xi != 0 the canonical mode
    (first nonzero entry positive) as complex128, the mode at -xi being its
    conjugate.  Construction copies the arrays, freezes them, sorts the
    keys, and checks the band bound |xi|_inf <= band and that each key is
    canonical (ValueError naming it).  A complex xi = 0 array keeps its real
    part if its imaginary part is roundoff against the largest finite
    coefficient, and raises RealityError otherwise, a NaN included.
    """

    __slots__ = ("degree", "band", "grid", "modes")

    def __init__(self, degree: int, band: int, grid: TGrid, modes=None):
        if not 0 <= degree <= 7:
            raise ValueError("degree out of range")
        if not 0 <= band <= BAND_MAX:
            raise ValueError(f"mode cutoff must lie in [0, {BAND_MAX}]")
        nc = _ncomp(degree)
        stored: dict[tuple[int, ...], np.ndarray] = {}
        for xi, arr in (modes or {}).items():
            xi = tuple(int(v) for v in xi)
            if len(xi) != 6:
                raise ValueError("mode keys are 6-tuples of integers")
            if max(map(abs, xi), default=0) > band:
                raise ValueError(f"mode {xi} outside the band |xi| <= {band}")
            if not _is_canonical(xi):
                raise ValueError(f"mode {xi} is not canonical: store the conjugate at -xi")
            a = np.asarray(arr) if xi == ZERO_XI else np.array(arr, dtype=complex, order="C")
            if a.shape != (grid.n, nc):
                raise ValueError(f"mode {xi}: expected shape {(grid.n, nc)}, got {a.shape}")
            stored[xi] = a
        zero = stored.get(ZERO_XI)
        if zero is not None:
            if np.iscomplexobj(zero):
                scale = max((np.abs(a[np.isfinite(a)]).max(initial=0.0)
                             for a in stored.values()), default=0.0)
                if not 2.0 * np.abs(zero.imag).max() <= 1e-9 * (1.0 + scale):
                    raise RealityError(f"mode {ZERO_XI} is not real")
            stored[ZERO_XI] = np.array(zero.real, dtype=float, order="C")
        for a in stored.values():
            a.flags.writeable = False
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "band", band)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "modes", dict(sorted(stored.items())))

    def __setattr__(self, name, value):
        raise AttributeError("SpectralForm is immutable")

    # ---- constructors ----

    @classmethod
    def zero(cls, degree: int, band: int, grid: TGrid) -> "SpectralForm":
        return cls(degree, band, grid, {})

    @classmethod
    def from_constant(cls, form: ConstForm, grid: TGrid, band: int = 0) -> "SpectralForm":
        """Embed a constant 7D form as the xi = 0 mode."""
        if form.axes != AXES7:
            raise ValueError("expected a form on all seven axes")
        vec = np.tile(form.tovector(), (grid.n, 1))
        return cls(form.degree, band, grid, {ZERO_XI: vec})

    # ---- bookkeeping ----

    @property
    def ncomp(self) -> int:
        return _ncomp(self.degree)

    @property
    def dt_slice(self) -> slice:
        return slice(0, _dt_count(self.degree))

    @property
    def free_slice(self) -> slice:
        return slice(_dt_count(self.degree), self.ncomp)

    def amplitude(self) -> float:
        """Largest coefficient magnitude over all modes and samples."""
        return max((np.abs(a).max() for a in self.modes.values()), default=0.0)

    def _like(self, modes, degree=None, band=None) -> "SpectralForm":
        return SpectralForm(self.degree if degree is None else degree,
                            self.band if band is None else band,
                            self.grid, modes)

    # ---- linear structure ----

    def _binary(self, other: "SpectralForm", op) -> "SpectralForm":
        if not isinstance(other, SpectralForm):
            return NotImplemented
        if self.degree != other.degree or self.grid != other.grid:
            raise ValueError("mismatched degree or grid")
        out = {xi: op(self.modes.get(xi, 0.0), other.modes.get(xi, 0.0))
               for xi in set(self.modes) | set(other.modes)}
        return SpectralForm(self.degree, max(self.band, other.band), self.grid, out)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scale(self, s) -> "SpectralForm":
        if not isinstance(s, numbers.Real):
            raise ValueError("scaling by a non-real factor breaks reality")
        return self._like({xi: s * a for xi, a in self.modes.items()})

    def __rmul__(self, s):
        return self.scale(s)

    def __neg__(self):
        return self.scale(-1.0)

    # ---- block structure along dt ----

    def free_part(self) -> "SpectralForm":
        """The dt-free part, same degree, dt-components zeroed."""
        out = {}
        for xi, a in self.modes.items():
            b = np.zeros_like(a)
            b[:, self.free_slice] = a[:, self.free_slice]
            out[xi] = b
        return self._like(out)

    def dt_part(self) -> "SpectralForm":
        """The (k-1)-form g on the cross-section with f = free + dt ^ g: f's
        dt block, in order, as g's dt-free block."""
        if self.degree == 0:
            raise ValueError("a 0-form has no dt-component")
        out = {}
        for xi, a in self.modes.items():
            b = np.zeros((self.grid.n, _ncomp(self.degree - 1)), dtype=a.dtype)
            b[:, _dt_count(self.degree - 1):] = a[:, self.dt_slice]
            out[xi] = b
        return self._like(out, degree=self.degree - 1)

    # ---- multiplication ----

    def _all_modes(self) -> dict:
        """The stored modes and their mirrors: every mode of the field."""
        mirrors = {tuple(-v for v in xi): np.conj(a) for xi, a in self.modes.items() if any(xi)}
        return {**self.modes, **mirrors}

    def wedge(self, other: "SpectralForm") -> "SpectralForm":
        """The wedge over every mode pair, mirrors included, kept canonical."""
        if self.grid != other.grid:
            raise ValueError("mismatched grids")
        k = self.degree + other.degree
        if k > 7:
            raise ValueError("wedge degree exceeds 7")
        band = self.band + other.band
        if band > BAND_MAX:
            raise ValueError("wedge would exceed the supported mode band")
        aa, bb, ind = _wedge_table(7, self.degree, other.degree)
        theirs = other._all_modes()
        acc: dict[tuple[int, ...], np.ndarray] = {}
        for x1, m1 in self._all_modes().items():
            for x2, m2 in theirs.items():
                xi = tuple(u + v for u, v in zip(x1, x2))
                if _is_canonical(xi):
                    acc[xi] = acc.get(xi, 0.0) + (m1[:, aa] * m2[:, bb]) @ ind
        return SpectralForm(k, band, self.grid, acc)


@lru_cache(maxsize=None)
def _axis_wedge_matrix(axis: int, degree: int) -> np.ndarray:
    """Matrix of dx^axis ^ (.) from degree to degree + 1: the adjoint of
    e_axis . from degree + 1, so the transpose of its contraction table."""
    return np.ascontiguousarray(_contract_table(7, degree + 1)[axis - 1].T, dtype=float)


# -- exterior calculus -----------------------------------------------------

def _d_mode(xi: tuple, coeffs: np.ndarray, dfree: np.ndarray,
            degree: int) -> np.ndarray:
    """d of one torus mode, from its coefficients and the t-derivative of
    their dt-free columns.

    dt ^ d/dt carries the dt-free block (the trailing C(6, k) columns), in
    order and with sign +1, onto the leading dt slots of degree k + 1, and
    each torus frequency adds i xi_d dx^d ^ (.).  Both steps act row by
    row, so ``coeffs`` and ``dfree`` may be t-samples or t-spectra alike;
    at xi = 0 the result takes the dtype of ``dfree``.
    """
    acc = np.zeros((len(coeffs), _ncomp(degree + 1)),
                   dtype=complex if any(xi) else dfree.dtype)
    acc[:, : dfree.shape[1]] = dfree
    for d in range(6):
        if xi[d]:
            acc = acc + (1j * xi[d]) * (coeffs @ _axis_wedge_matrix(d + 2, degree).T)
    return acc


def exterior_d(f: SpectralForm) -> SpectralForm:
    """Exterior derivative: i*xi on torus modes, grid derivative in t.

    The t-part is dt ^ d/dt, which kills the dt block, so only the dt-free
    columns are differentiated (see _d_mode), by TGrid.ddt.
    """
    if f.degree >= 7:
        raise ValueError("cannot differentiate a top-degree form")
    free = f.free_slice
    out = {}
    for xi, m in f.modes.items():
        out[xi] = _d_mode(xi, m, f.grid.ddt(m[:, free]), f.degree)
    return SpectralForm(f.degree + 1, f.band, f.grid, out)


def _flat_star(f: SpectralForm) -> SpectralForm:
    """The Hodge star of the flat metric, a signed permutation of each
    coefficient vector."""
    comp, signs = _hodge_table(7, f.degree)
    out = {xi: a[:, comp] * signs for xi, a in f.modes.items()}
    return SpectralForm(7 - f.degree, f.band, f.grid, out)


def codifferential(f: SpectralForm) -> SpectralForm:
    """Formal adjoint of exterior_d for the flat metric of the neck.

    Computed as (-1)^k * d * on k-forms (dimension 7).
    """
    if f.degree == 0:
        raise ValueError("codifferential needs degree > 0")
    c = _flat_star(exterior_d(_flat_star(f)))
    return c.scale(float((-1) ** f.degree))


# -- pairings and norms ----------------------------------------------------

def inner_l2(f: SpectralForm, h: SpectralForm) -> float:
    """L^2 pairing of the flat metric: probability measure on the torus,
    t-quadrature in t."""
    if f.degree != h.degree or f.grid != h.grid:
        raise ValueError("mismatched degree or grid")
    w = f.grid.weights
    acc = 0.0
    for xi in sorted(f.modes.keys() & h.modes.keys()):
        dens = np.einsum("ti,ti->t", f.modes[xi].conj(), h.modes[xi])
        # A mode and its mirror contribute the same real part.
        acc += (2.0 if any(xi) else 1.0) * float(np.real(w @ dens))
    return acc


def norm_l2(f: SpectralForm) -> float:
    return math.sqrt(max(inner_l2(f, f), 0.0))


def _active_axes(dims) -> tuple[int, ...]:
    """Array axes of the torus directions with more than one sample."""
    return tuple(d + 1 for d, m in enumerate(dims) if m > 1)


_OVERSAMPLE = 2


def _slot(xi: tuple, dims) -> tuple:
    """Index of mode xi in a torus spectrum: xi_d at fft position xi_d mod M_d."""
    return (slice(None),) + tuple(xi[d] % dims[d] for d in range(6)) + (slice(None),)


def sample_physical(f: SpectralForm) -> tuple[np.ndarray, tuple[int, ...]]:
    """Evaluate on a physical grid: (samples, torus shape).

    Returns an array of shape (grid.n, M_1, .., M_6, ncomp) with M_d = 1
    for torus directions carrying no nonzero frequency and
    M_d = 2 * _OVERSAMPLE * max|xi_d| otherwise (f's own frequencies, not
    its band: see induced_4form), together with the M tuple.
    The grid in each active direction is uniform on [0, 2*pi); the slot of
    each mirror mode -xi holds the conjugate of xi's.  Only the active
    directions are transformed: an FFT over a length-1 axis is the identity,
    so skipping it leaves the samples bitwise unchanged.  With no active
    direction the samples are a read-only view of the real xi = 0 mode.
    """
    maxfreq = [0] * 6
    for xi in f.modes:
        for d in range(6):
            maxfreq[d] = max(maxfreq[d], abs(xi[d]))
    dims = tuple(1 if m == 0 else 2 * _OVERSAMPLE * m for m in maxfreq)
    shape = (f.grid.n,) + dims + (f.ncomp,)
    axes = _active_axes(dims)
    if not axes:
        zero = f.modes.get(ZERO_XI)
        return (np.zeros(shape) if zero is None else zero.reshape(shape)), dims
    spec = np.zeros(shape, dtype=complex)
    for xi, a in f._all_modes().items():
        spec[_slot(xi, dims)] = a
    spec = np.fft.ifftn(spec, axes=axes) * np.prod(dims)
    return np.real(spec), dims


def _require_finite(samples: np.ndarray) -> None:
    """Raise ValueError, naming the first, if any sample is NaN or inf."""
    if samples.size and not np.isfinite(np.abs(samples).max()):
        bad = np.argwhere(~np.isfinite(samples))
        raise ValueError(f"{len(bad)} non-finite samples, the first at index "
                         f"{tuple(int(i) for i in bad[0])}")


def spectral_from_samples(samples: np.ndarray, degree: int, band: int,
                          grid: TGrid) -> SpectralForm:
    """Inverse of sample_physical with band projection.

    ``samples`` has shape (grid.n, M_1, .., M_6, ncomp); the canonical
    frequencies with |xi|_inf <= band representable on the sample grid are
    kept, everything else is discarded (an orthogonal projection, not an
    error), and so is every mode that is exactly 0.  Samples must be
    finite: a NaN or inf raises ValueError before any transform, since it
    would otherwise fail that nonzero test and vanish.
    """
    arr = np.asarray(samples)
    dims = arr.shape[1:-1]
    if len(dims) != 6:
        raise ValueError("expected six torus axes between t and components")
    _require_finite(arr)
    axes = _active_axes(dims)
    spec = np.fft.fftn(arr, axes=axes) / np.prod(dims) if axes else arr
    ranges = []
    for m in dims:
        lim = min(band, (m - 1) // 2)
        ranges.append(range(-lim, lim + 1) if m > 1 else range(0, 1))
    modes = {}
    for xi in filter(_is_canonical, itertools.product(*ranges)):
        a = spec[_slot(xi, dims)]
        if np.abs(a).max() > 0.0:
            modes[xi] = a
    return SpectralForm(degree, band, grid, modes)


def norm_sup(f: SpectralForm) -> float:
    """Largest Euclidean coefficient norm over the physical sample grid."""
    if not f.modes:
        return 0.0
    phys, _ = sample_physical(f)
    return float(np.sqrt((phys ** 2).sum(axis=-1)).max())


# -- harmonic projection and asymptotics -----------------------------------

def harmonic_project(f: SpectralForm) -> SpectralForm:
    """Projection onto the harmonic forms of the cross-section geometry.

    On the flat torus these are the constant-coefficient forms, so the
    projection keeps the t-average of the xi = 0 mode (both the dt-free
    and dt blocks).  Input must be periodic in t or t-independent.

    The average is summed pairwise, along the contiguous rows of the
    transposed samples.  A mean down the sample axis adds one row at a
    time, and over a neck's 1000 or so O(1) rows that rounding reaches
    about 1e-14, which would read as a class change that is not there;
    pairwise summation keeps it near one ulp.
    """
    if not f.grid.periodic:
        scale = f.amplitude()
        for xi, a in f.modes.items():
            if np.abs(a - a[0]).max() > 1e-9 * (1.0 + scale):
                raise ValueError("harmonic projection needs a periodic or t-independent field")
    m0 = f.modes.get(ZERO_XI)
    if m0 is None:
        return SpectralForm.zero(f.degree, f.band, f.grid)
    vec = np.tile(m0.T.copy().mean(axis=1), (f.grid.n, 1))
    return SpectralForm(f.degree, f.band, f.grid, {ZERO_XI: vec})


def estimate_decay_rate(f: SpectralForm, window: tuple[float, float]) -> float:
    """Least-squares slope of -log(sup-norm) against t over the window."""
    t0, t1 = window
    pts = f.grid.points
    mask = (pts >= t0 - 1e-12) & (pts <= t1 + 1e-12)
    if mask.sum() < 4:
        raise WindowTooSmall("decay fit needs at least 4 samples in the window")
    sup = np.zeros(f.grid.n)
    for a in f.modes.values():
        sup = np.maximum(sup, np.abs(a).max(axis=1))
    y = sup[mask]
    if y.max() == 0.0:
        raise NoDecay("field vanishes on the window")
    if (y.max() - y.min()) <= 1e-13 * y.max():
        raise NoDecay("sup-norm is constant over the window")
    if y.min() <= 0.0:
        raise NoDecay("sup-norm hits zero inside the window")
    slope = np.polyfit(pts[mask], np.log(y), 1)[0]
    if slope >= 0.0:
        raise NoDecay("sup-norm does not decay over the window")
    return float(-slope)


def _fit_tail(t: np.ndarray, y: np.ndarray, vartol: float):
    """Fit y ~ A + B e^{-r t} on a window; returns (A, ok).

    ok is False when the variation is above vartol but no positive rate
    fits, i.e. the coefficient has no limit.
    """
    dy = np.diff(y)
    amp = np.abs(dy).max()
    if amp <= vartol:
        return y[-1], True
    mask = np.abs(dy) > 1e-3 * amp
    if mask.sum() < 2:
        return y[-1], True
    tm = t[:-1][mask]
    slope, _ = np.polyfit(tm, np.log(np.abs(dy[mask])), 1)
    if not slope < 0.0:
        return 0.0, False
    r = -slope
    design = np.stack([np.ones_like(t), np.exp(-r * (t - t[0]))], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef[0], True


def decompose_cyl(f: SpectralForm) -> tuple[SpectralForm, SpectralForm, SpectralForm]:
    """Split a half-cylinder field into limit + decaying remainders.

    Returns (limit, free_rest, dt_rest): ``limit`` is t-independent (per
    coefficient fit A + B e^{-rt} over the final quarter of the grid),
    ``free_rest`` the dt-free remainder and ``dt_rest`` the (k-1)-form with
    f = limit + free_rest + dt ^ dt_rest, exact at the grid samples.
    Raises NoLimit when a coefficient with real variation has no
    positive decay rate.
    """
    if f.grid.periodic:
        raise ValueError("limit extraction needs an interval grid")
    w = max(4, -(-f.grid.n // 4))
    t = f.grid.points[-w:]
    vartol = 1e-12 * (1.0 + f.amplitude())
    limit_modes = {}
    rest_modes = {}
    for xi, a in f.modes.items():
        lim = np.empty(f.ncomp, dtype=a.dtype)
        for c in range(f.ncomp):
            val, ok = _fit_tail(t, a[-w:, c].real, vartol)
            if np.iscomplexobj(a):
                im, ok_i = _fit_tail(t, a[-w:, c].imag, vartol)
                val, ok = val + 1j * im, ok and ok_i
            if not ok:
                raise NoLimit(f"mode {xi} component {c} has no translation-invariant limit")
            lim[c] = val
        limit_modes[xi] = np.tile(lim, (f.grid.n, 1))
        rest_modes[xi] = a - limit_modes[xi]
    limit = SpectralForm(f.degree, f.band, f.grid, limit_modes)
    rest = SpectralForm(f.degree, f.band, f.grid, rest_modes)
    return limit, rest.free_part(), rest.dt_part()


# -- tail integration ------------------------------------------------------

# Weights integrating the degree-7 interpolant on 8 uniform nodes over
# each of the 7 unit panels; row p covers [p, p+1].  They are exact:
# integers over 120960, the solutions of the 8 x 8 Vandermonde moment
# systems, each row summing to 120960.
_PANEL_WEIGHTS = np.array([
    [36799, 139849, -121797, 123133, -88547, 41499, -11351, 1375],
    [-1375, 47799, 101349, -44797, 26883, -11547, 2999, -351],
    [351, -4183, 57627, 81693, -20227, 7227, -1719, 191],
    [-191, 1879, -9531, 68323, 68323, -9531, 1879, -191],
    [191, -1719, 7227, -20227, 81693, 57627, -4183, 351],
    [-351, 2999, -11547, 26883, -44797, 101349, 47799, -1375],
    [1375, -11351, 41499, -88547, 123133, -121797, 139849, 36799],
]) / 120960
_PANEL_WEIGHTS.flags.writeable = False


def _cumulative_from_right(y: np.ndarray, h: float) -> np.ndarray:
    """I[i] = integral of y from t_i to t_{n-1}, order-8 panel rule.

    ``y`` is (n, m); the result matches in shape, with I[-1] = 0.
    """
    n = y.shape[0]
    if n < 8:
        raise ValueError("need at least 8 samples to integrate")
    starts = np.clip(np.arange(n - 1) - 3, 0, n - 8)
    pos = np.arange(n - 1) - starts
    stencil = starts[:, None] + np.arange(8)[None, :]
    incr = h * np.einsum("ij,ij...->i...", _PANEL_WEIGHTS[pos], y[stencil])
    out = np.zeros_like(y)
    out[:-1] = np.cumsum(incr[::-1], axis=0)[::-1]
    return out


def _tail_beyond_grid(t: np.ndarray, y: np.ndarray, vartol: float):
    """Integral of the fitted B e^{-rt} continuation past the last sample.

    Fits each column of ``y`` (values over the window ``t``) separately;
    a column with negligible amplitude contributes 0.  Raises NoLimit if
    a non-negligible column fails to decay.
    """
    tail = np.zeros(y.shape[1], dtype=y.dtype)
    for c, col in enumerate(y.T):
        amp = np.abs(col).max()
        if amp <= vartol:
            continue
        mask = np.abs(col) > 1e-3 * amp
        if mask.sum() < 3:
            continue
        slope, _ = np.polyfit(t[mask], np.log(np.abs(col[mask])), 1)
        if not slope < 0.0:
            raise NoLimit("dt-component tail does not decay")
        r = -slope
        e = np.exp(-r * (t - t[-1]))
        b = (col @ e) / (e @ e)          # least squares for B e^{-r(t-T)}
        tail[c] = b / r
    return tail


def integral_to_infinity(f: SpectralForm) -> dict:
    """Per-mode arrays I(t_i) = integral of f from t_i onward.

    On-grid part by the order-8 panel rule, beyond-grid part from a
    fitted exponential continuation of the final quarter.
    """
    if f.grid.periodic:
        raise ValueError("tail integration needs an interval grid")
    w = max(4, -(-f.grid.n // 4))
    twin = f.grid.points[-w:]
    vartol = 1e-13 * (1.0 + f.amplitude())
    return {xi: _cumulative_from_right(a, f.grid.h)
            + _tail_beyond_grid(twin, a[-w:], vartol)[None, :]
            for xi, a in f.modes.items()}
