"""Sampled differential forms on the flat cylinder T^6 x I and neck T^6 x S^1.

A field of degree k is a sparse collection of Fourier modes in the torus
directions x^2 .. x^7 (each 2*pi periodic), every mode carrying an array of
coefficient vectors sampled along the cylinder coordinate t = x^1:

    f(t, x) = sum_xi  c_xi(t) * e^{i <xi, x>},   xi in Z^6, |xi|_inf <= band.

Each c_xi(t) is a full 7-dimensional k-form coefficient vector in the
basis order of forms.basis_indices(AXES7, k), so the dt-components occupy
the leading C(6, k-1) slots (multi-indices containing 1) and the dt-free
components the trailing C(6, k) slots.  Reality of the field is the mode
constraint c_{-xi} = conj(c_xi), validated at construction.

The t-axis is either an interval [a, b] with n inclusive samples (fourth
order finite differences) or a circle of circumference b - a with n
samples and spectral derivatives.  The L^2 pairing uses the probability
measure on the torus, so Parseval holds without 2*pi factors, and the
trapezoid rule (interval) or uniform rule (circle) in t.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import (
    AXES7,
    ConstForm,
    KForm7,
    Metric7,
    basis_indices,
    basis_position,
    _compound,
    _merge_sign,
    _star_matrix,
)

ZERO_XI = (0, 0, 0, 0, 0, 0)
BAND_MAX = 4


class NonFlatMetric(ValueError):
    """The codifferential only supports translation-invariant metrics."""


class NoLimit(ValueError):
    """The tail fit found no translation-invariant limit."""


class NoDecay(ValueError):
    """The field does not decay over the requested window."""


class WindowTooSmall(ValueError):
    """Too few samples in the fit window."""


class RealityError(ValueError):
    """Mode coefficients at xi and -xi are not complex conjugates."""


# -- t-axis discretizations ------------------------------------------------

@dataclass(frozen=True)
class TGrid:
    """Uniform sample grid for the cylinder coordinate.

    Interval grids hold n samples on [a, b] inclusive; circle grids hold n
    samples on [a, b) with period b - a.  Derivatives are fourth-order
    finite differences (interval) or spectral (circle).
    """

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
        return cls(float(a), float(b), max(8, round((b - a) * density) + 1))

    @classmethod
    def circle(cls, length: float, density: int = 64) -> "TGrid":
        return cls(0.0, float(length), max(8, round(length * density)), periodic=True)

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

    def ddt(self, y: np.ndarray) -> np.ndarray:
        """d/dt along axis 0 of a sample array."""
        if self.periodic:
            k = np.fft.fftfreq(self.n, d=1.0 / self.n)
            if self.n % 2 == 0:
                k[self.n // 2] = 0.0
            mult = 2j * np.pi * k / self.length
            shape = (self.n,) + (1,) * (y.ndim - 1)
            return np.fft.ifft(mult.reshape(shape) * np.fft.fft(y, axis=0), axis=0)
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


class SpectralForm:
    """Degree-k form on the cylinder, sparse in torus modes, sampled in t.

    ``modes`` maps 6-tuples xi to complex arrays of shape (grid.n, C(7, k)).
    Construction copies the arrays, freezes them, sorts the keys, checks
    the band bound |xi|_inf <= band, and enforces reality: a missing -xi
    partner is filled in by conjugation, an inconsistent one raises
    RealityError.
    """

    __slots__ = ("degree", "band", "grid", "modes")

    def __init__(self, degree: int, band: int, grid: TGrid, modes=None, check: bool = True):
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
            a = np.array(arr, dtype=complex, order="C")
            if a.shape != (grid.n, nc):
                raise ValueError(f"mode {xi}: expected shape {(grid.n, nc)}, got {a.shape}")
            stored[xi] = a
        if check:
            scale = max((np.abs(a).max() for a in stored.values()), default=0.0)
            tol = 1e-9 * (1.0 + scale)
            for xi in list(stored):
                neg = tuple(-v for v in xi)
                if neg in stored:
                    if np.abs(stored[neg] - np.conj(stored[xi])).max() > tol:
                        raise RealityError(f"modes {xi} and {neg} are not conjugate")
                else:
                    stored[neg] = np.conj(stored[xi])
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
        return cls(degree, band, grid, {}, check=False)

    @classmethod
    def from_constant(cls, form: ConstForm, grid: TGrid, band: int = 0) -> "SpectralForm":
        """Embed a constant 7D form as the xi = 0 mode."""
        if form.axes != AXES7:
            raise ValueError("expected a form on all seven axes")
        vec = np.tile(form.tovector(), (grid.n, 1)).astype(complex)
        return cls(form.degree, band, grid, {ZERO_XI: vec}, check=False)

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
                            self.grid, modes, check=False)

    # ---- linear structure ----

    def _binary(self, other: "SpectralForm", op) -> "SpectralForm":
        if not isinstance(other, SpectralForm):
            return NotImplemented
        if self.degree != other.degree or self.grid != other.grid:
            raise ValueError("mismatched degree or grid")
        out = {}
        for xi in set(self.modes) | set(other.modes):
            z = np.zeros((self.grid.n, self.ncomp), dtype=complex)
            a = self.modes.get(xi, z)
            b = other.modes.get(xi, z)
            out[xi] = op(a, b)
        return SpectralForm(self.degree, max(self.band, other.band), self.grid, out, check=False)

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
        """The (k-1)-form g on the cross-section with f = free + dt ^ g."""
        if self.degree == 0:
            raise ValueError("a 0-form has no dt-component")
        ncm = _ncomp(self.degree - 1)
        lo = ncm - _dt_count(self.degree)  # free block offset of degree k-1
        out = {}
        for xi, a in self.modes.items():
            b = np.zeros((self.grid.n, ncm), dtype=complex)
            b[:, lo:] = a[:, self.dt_slice]
            out[xi] = b
        return self._like(out, degree=self.degree - 1)

    # ---- multiplication ----

    def wedge(self, other: "SpectralForm") -> "SpectralForm":
        if self.grid != other.grid:
            raise ValueError("mismatched grids")
        k = self.degree + other.degree
        if k > 7:
            raise ValueError("wedge degree exceeds 7")
        band = self.band + other.band
        if band > BAND_MAX:
            raise ValueError("wedge would exceed the supported mode band")
        aa, bb, ind = _wedge_arrays(self.degree, other.degree)
        acc: dict[tuple[int, ...], np.ndarray] = {}
        for x1, m1 in self.modes.items():
            for x2, m2 in other.modes.items():
                xi = tuple(u + v for u, v in zip(x1, x2))
                term = (m1[:, aa] * m2[:, bb]) @ ind
                if xi in acc:
                    acc[xi] = acc[xi] + term
                else:
                    acc[xi] = term
        return SpectralForm(k, band, self.grid, acc, check=False)


@lru_cache(maxsize=None)
def _wedge_arrays(k1: int, k2: int):
    """(a, b, ind) with out = (m1[:, a] * m2[:, b]) @ ind for the wedge."""
    b1 = basis_indices(AXES7, k1)
    b2 = basis_indices(AXES7, k2)
    poso = basis_position(AXES7, k1 + k2)
    rows = []
    for i1, idx1 in enumerate(b1):
        for i2, idx2 in enumerate(b2):
            s, merged = _merge_sign(idx1, idx2)
            if s:
                rows.append((i1, i2, poso[merged], s))
    aa = np.array([r[0] for r in rows], dtype=np.intp)
    bb = np.array([r[1] for r in rows], dtype=np.intp)
    ind = np.zeros((len(rows), _ncomp(k1 + k2)))
    for r, (_, _, c, s) in enumerate(rows):
        ind[r, c] = s
    return aa, bb, ind


@lru_cache(maxsize=None)
def _axis_wedge_matrix(axis: int, degree: int) -> np.ndarray:
    """Matrix of dx^axis ^ (.) from degree to degree + 1."""
    src = basis_indices(AXES7, degree)
    poso = basis_position(AXES7, degree + 1)
    mat = np.zeros((_ncomp(degree + 1), _ncomp(degree)))
    for c, idx in enumerate(src):
        s, merged = _merge_sign((axis,), idx)
        if s:
            mat[poso[merged], c] = s
    return mat


def map_components(f: SpectralForm, mat: np.ndarray, degree: int) -> SpectralForm:
    """Apply a constant matrix to every coefficient vector of f."""
    out = {xi: a @ mat.T for xi, a in f.modes.items()}
    return SpectralForm(degree, f.band, f.grid, out, check=False)


def dt_wedge(f: SpectralForm) -> SpectralForm:
    """dt ^ f, one degree up."""
    return map_components(f, _axis_wedge_matrix(1, f.degree), f.degree + 1)


# -- exterior calculus -----------------------------------------------------

def exterior_d(f: SpectralForm) -> SpectralForm:
    """Exterior derivative: i*xi on torus modes, grid derivative in t."""
    if f.degree >= 7:
        raise ValueError("cannot differentiate a top-degree form")
    wt = _axis_wedge_matrix(1, f.degree)
    wx = [_axis_wedge_matrix(d, f.degree) for d in range(2, 8)]
    out = {}
    for xi, m in f.modes.items():
        acc = f.grid.ddt(m) @ wt.T
        for d in range(6):
            if xi[d]:
                acc = acc + (1j * xi[d]) * (m @ wx[d].T)
        out[xi] = acc
    return SpectralForm(f.degree + 1, f.band, f.grid, out, check=False)


def _constant_metric(metric) -> np.ndarray:
    if metric is None:
        return np.eye(7)
    if isinstance(metric, Metric7):
        metric = metric.mat
    g = np.asarray(metric)
    if g.dtype == object:
        g = np.array([[float(v) for v in row] for row in g])
    if g.ndim != 2 or g.shape != (7, 7):
        raise NonFlatMetric("codifferential needs one translation-invariant metric")
    return g.astype(float)


def codifferential(f: SpectralForm, metric=None) -> SpectralForm:
    """Formal adjoint of exterior_d for a translation-invariant metric.

    Computed as (-1)^k * d * on k-forms (dimension 7); ``metric`` is a
    Metric7, a constant 7x7 matrix, or None for the Euclidean one.  A
    sample-dependent metric raises NonFlatMetric.
    """
    if f.degree == 0:
        raise ValueError("codifferential needs degree > 0")
    g = _constant_metric(metric)
    k = f.degree
    a = map_components(f, _star_matrix(g, k), 7 - k)
    b = exterior_d(a)
    c = map_components(b, _star_matrix(g, 8 - k), k - 1)
    return c.scale(float((-1) ** k))


# -- pairings and norms ----------------------------------------------------

def inner_l2(f: SpectralForm, h: SpectralForm, metric=None) -> float:
    """L^2 pairing: probability measure on the torus, t-quadrature in t.

    The pointwise pairing of k-forms is sqrt(det g) Lambda^k(g^-1).
    """
    if f.degree != h.degree or f.grid != h.grid:
        raise ValueError("mismatched degree or grid")
    g = _constant_metric(metric)
    if np.array_equal(g, np.eye(7)):
        pmat = None
    else:
        pmat = math.sqrt(np.linalg.det(g)) * _compound(np.linalg.inv(g), f.degree)
    w = f.grid.weights
    acc = 0.0
    for xi, a in f.modes.items():
        b = h.modes.get(xi)
        if b is None:
            continue
        dens = np.einsum("ti,ti->t", np.conj(a), b if pmat is None else b @ pmat.T)
        acc += float(np.real(w @ dens))
    return acc


def norm_l2(f: SpectralForm, metric=None) -> float:
    return math.sqrt(max(inner_l2(f, f, metric), 0.0))


def _active_axes(dims) -> tuple[int, ...]:
    """Array axes of the torus directions with more than one sample."""
    return tuple(d + 1 for d, m in enumerate(dims) if m > 1)


def sample_physical(f: SpectralForm, oversample: int = 2) -> tuple[np.ndarray, tuple[int, ...]]:
    """Evaluate on a physical grid: (samples, torus shape).

    Returns an array of shape (grid.n, M_1, .., M_6, ncomp) with M_d = 1
    for torus directions carrying no nonzero frequency and
    M_d = 2 * oversample * max|xi_d| otherwise, together with the M tuple.
    The grid in each active direction is uniform on [0, 2*pi).  Only the
    active directions are transformed: an FFT over a length-1 axis is the
    identity, so skipping it leaves the samples bitwise unchanged.
    """
    maxfreq = [0] * 6
    for xi in f.modes:
        for d in range(6):
            maxfreq[d] = max(maxfreq[d], abs(xi[d]))
    dims = tuple(1 if m == 0 else 2 * oversample * m for m in maxfreq)
    spec = np.zeros((f.grid.n,) + dims + (f.ncomp,), dtype=complex)
    for xi, a in f.modes.items():
        pos = tuple(xi[d] % dims[d] for d in range(6))
        spec[(slice(None),) + pos + (slice(None),)] += a
    axes = _active_axes(dims)
    if axes:
        spec = np.fft.ifftn(spec, axes=axes) * np.prod(dims)
    return np.real(spec), dims


def spectral_from_samples(samples: np.ndarray, degree: int, band: int, grid: TGrid,
                          prune_tol: float = 0.0) -> SpectralForm:
    """Inverse of sample_physical with band projection.

    ``samples`` has shape (grid.n, M_1, .., M_6, ncomp); frequencies with
    |xi|_inf <= band representable on the sample grid are kept, everything
    else is discarded (an orthogonal projection, not an error).
    """
    arr = np.asarray(samples)
    dims = arr.shape[1:-1]
    if len(dims) != 6:
        raise ValueError("expected six torus axes between t and components")
    spec = arr.astype(complex)
    axes = _active_axes(dims)
    if axes:
        spec = np.fft.fftn(spec, axes=axes) / np.prod(dims)
    ranges = []
    for m in dims:
        lim = min(band, (m - 1) // 2)
        ranges.append(range(-lim, lim + 1) if m > 1 else range(0, 1))
    modes = {}
    scale = np.abs(arr).max() if arr.size else 0.0
    for xi in itertools.product(*ranges):
        pos = tuple(xi[d] % dims[d] for d in range(6))
        a = spec[(slice(None),) + pos + (slice(None),)]
        if np.abs(a).max() > prune_tol * scale:
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
    """
    if not f.grid.periodic:
        scale = f.amplitude()
        for xi, a in f.modes.items():
            if np.abs(a - a[0]).max() > 1e-9 * (1.0 + scale):
                raise ValueError("harmonic projection needs a periodic or t-independent field")
    m0 = f.modes.get(ZERO_XI)
    if m0 is None:
        return SpectralForm.zero(f.degree, f.band, f.grid)
    mean = np.mean(np.real(m0), axis=0)
    vec = np.tile(mean.astype(complex), (f.grid.n, 1))
    return SpectralForm(f.degree, f.band, f.grid, {ZERO_XI: vec}, check=False)


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
        lim = np.empty(f.ncomp, dtype=complex)
        for c in range(f.ncomp):
            re, ok_r = _fit_tail(t, np.real(a[-w:, c]), vartol)
            im, ok_i = _fit_tail(t, np.imag(a[-w:, c]), vartol)
            if not (ok_r and ok_i):
                raise NoLimit(f"mode {xi} component {c} has no translation-invariant limit")
            lim[c] = re + 1j * im
        limit_modes[xi] = np.tile(lim, (f.grid.n, 1))
        rest_modes[xi] = a - limit_modes[xi]
    limit = SpectralForm(f.degree, f.band, f.grid, limit_modes, check=False)
    rest = SpectralForm(f.degree, f.band, f.grid, rest_modes, check=False)
    return limit, rest.free_part(), rest.dt_part()


# -- half-cylinder structures ----------------------------------------------

@dataclass(frozen=True)
class CylStructure:
    """A G2 half-cylinder end: asymptotic cross-section pair plus decay.

    ``big`` (degree 3) and ``small`` (degree 2) are the limiting
    cross-section forms, ``sign`` fixes the orientation of the dt-part of
    the asymptotic model big + sign * dt ^ small, ``perturbation`` is the
    decaying degree-3 correction on the half-cylinder and ``decay_rate``
    its declared exponential rate.
    """

    big: ConstForm
    small: ConstForm
    sign: int
    perturbation: SpectralForm
    decay_rate: float

    def __post_init__(self):
        from .forms import assemble_cylindrical, is_g2_form
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.decay_rate > 0.0:
            raise ValueError("decay rate must be positive")
        if (self.big.degree, self.small.degree) != (3, 2):
            raise ValueError("expected degrees (3, 2) for the asymptotic pair")
        if self.perturbation.degree != 3:
            raise ValueError("perturbation must be a 3-form")
        if self.perturbation.grid.periodic:
            raise ValueError("half-cylinder fields live on interval grids")
        if not all(np.isfinite(a).all()
                   for a in self.perturbation.modes.values()):
            raise ValueError("perturbation has non-finite samples")
        if not is_g2_form(assemble_cylindrical(self.big, self.small, self.sign)):
            raise ValueError("asymptotic pair does not assemble to a stable form")

    def model(self) -> KForm7:
        from .forms import assemble_cylindrical
        return assemble_cylindrical(self.big, self.small, self.sign)

    def total(self) -> SpectralForm:
        base = SpectralForm.from_constant(self.model(), self.perturbation.grid,
                                          band=self.perturbation.band)
        return base + self.perturbation

    def fitted_decay(self, window: tuple[float, float] | None = None) -> float:
        if window is None:
            g = self.perturbation.grid
            window = (g.a + 0.5 * g.length, g.b)
        return estimate_decay_rate(self.perturbation, window)


# -- serialization ---------------------------------------------------------

def to_payload(f: SpectralForm) -> dict:
    """JSON-ready description: {degree, K, grid, modes:[{xi, samples}]}.

    Samples are [re, im] pairs, row-major over (t, component).
    """
    modes = []
    for xi, a in f.modes.items():
        flat = a.reshape(-1)
        modes.append({"xi": list(xi),
                      "samples": [[float(z.real), float(z.imag)] for z in flat]})
    return {"degree": f.degree, "K": f.band,
            "grid": {"a": f.grid.a, "b": f.grid.b, "n": f.grid.n,
                     "periodic": f.grid.periodic},
            "modes": modes}


def from_payload(obj: dict) -> SpectralForm:
    g = obj["grid"]
    grid = TGrid(float(g["a"]), float(g["b"]), int(g["n"]), bool(g.get("periodic", False)))
    degree = int(obj["degree"])
    band = int(obj["K"])
    nc = _ncomp(degree)
    modes = {}
    for entry in obj["modes"]:
        xi = tuple(int(v) for v in entry["xi"])
        flat = np.array([complex(re, im) for re, im in entry["samples"]])
        modes[xi] = flat.reshape(grid.n, nc)
    return SpectralForm(degree, band, grid, modes)
