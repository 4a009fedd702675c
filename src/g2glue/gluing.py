"""Field-level gluing of two G2 half-cylinders over a shared cross-section.

The construction lives on the periodic neck T^6 x (R / 2L Z).  The plus
half occupies t in [0, L] with its own coordinate t+ = t; the minus half
occupies t in [L, 2L] under the identification t- = 2L - t, which flips
the sign of every dt-component.  Both halves are fully cylindrical
outside the support of their perturbations, so the seam at t = 0 (where
a compact piece would sit in the genuine geometry) is exact; the seam at
t = L is flattened by the cutoff correction below.

Given a half-cylinder field with decomposition limit + beta + dt ^ gamma
(see fields.decompose_cyl), the correction replaces it by

    limit + (1 - rho) beta + dt ^ ((1 - rho) gamma + rho' I),

where rho rises from 0 to 1 on [L-2, L-1] and I(t) is the tail integral
of gamma from t to infinity.  This equals the field plus an exact form
(d of the cutoff 2-form rho I) up to quadrature error, is identically
the translation-invariant limit for t > L-1, and keeps the cohomology
bookkeeping exact because the limit block is never touched.

Torsion is measured as the pair (d phi, d of the induced 4-form), the
4-form star computed sample by sample with the frozen-coefficient
pointwise kernels.  The reduction iterates phi += d sigma with sigma
solved mode by mode from the linearization of the induced-4-form map at
the flat model; updates are exact forms, so the harmonic class of the
field is structurally preserved.  On the torus-constant mode xi = 0 the
linearization at t-frequency n is -(w n)^2 times one fixed 21 x 21
matrix, so its solve is a single cached pseudoinverse scaled per n and
builds nothing per neck length; modes with xi != 0 get a batched
pseudoinverse over the t-frequencies that lives only as long as one
reduction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import ratmat
from .fields import (
    SpectralForm,
    TGrid,
    ZERO_XI,
    NoLimit,
    _axis_wedge_matrix,
    _dt_count,
    _ncomp,
    decompose_cyl,
    exterior_d,
    norm_l2,
    norm_sup,
    sample_physical,
    spectral_from_samples,
)
from .forms import (
    AXES7,
    _star_matrix,
    basis_position,
    hodge_star,
    metric_batch,
    phi0,
    star3_batch,
)


class NotClosed(ValueError):
    """Input field fails the closedness check."""


class MismatchedLimits(ValueError):
    """The two halves do not share the same cross-section pair."""


class NeckTooShort(ValueError):
    """L is too small for the cutoff, or the half grids do not reach L."""


class ReductionStopped(Exception):
    """torsion_reduce gave up; ``iterations`` and ``measure`` record the
    steps it took and the TorsionMeasure of the field it stopped at."""

    def __init__(self, message: str, iterations: int, measure):
        super().__init__(message)
        self.iterations = iterations
        self.measure = measure


class Diverged(ReductionStopped, RuntimeError):
    """Torsion stopped decreasing for three consecutive reduction steps."""


class AboveSmallness(ReductionStopped, ValueError):
    """The initial torsion exceeds the smallness threshold of the reducer."""


# -- cutoff profiles -------------------------------------------------------

_SHAPES = ("quintic", "septic", "nonic", "exp")


@dataclass(frozen=True)
class CutoffSpec:
    """Monotone 0-to-1 profile rising on [L-2, L-1].

    Shapes: polynomial smoothsteps of order 5 (C^2, default), 7 (C^3),
    9 (C^4), and the C-infinity exponential ramp "exp".  Smoother shapes
    cost nothing and keep spectral derivatives of the glued field quiet;
    the default matches the minimum the construction needs.
    """

    shape: str = "quintic"

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown cutoff shape {self.shape!r}")

    def _u(self, t: np.ndarray, length: float) -> np.ndarray:
        return np.clip(np.asarray(t, dtype=float) - (length - 2.0), 0.0, 1.0)

    def rho(self, t: np.ndarray, length: float) -> np.ndarray:
        u = self._u(t, length)
        if self.shape == "quintic":
            return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))
        if self.shape == "septic":
            return u ** 4 * (35.0 + u * (-84.0 + u * (70.0 - 20.0 * u)))
        if self.shape == "nonic":
            return u ** 5 * (126.0 + u * (-420.0 + u * (540.0 + u * (-315.0 + 70.0 * u))))
        return self._exp_ramp(u)

    def drho(self, t: np.ndarray, length: float) -> np.ndarray:
        """Analytic derivative of rho with respect to t."""
        u = self._u(t, length)
        inside = (u > 0.0) & (u < 1.0)
        if self.shape == "quintic":
            d = 30.0 * u ** 2 * (1.0 - u) ** 2
        elif self.shape == "septic":
            d = 140.0 * u ** 3 * (1.0 - u) ** 3
        elif self.shape == "nonic":
            d = 630.0 * u ** 4 * (1.0 - u) ** 4
        else:
            d = self._exp_ramp_deriv(u)
        return np.where(inside, d, 0.0)

    @staticmethod
    def _exp_ramp(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        inside = (u > 0.0) & (u < 1.0)
        ui = u[inside]
        a = np.exp(-1.0 / ui)
        b = np.exp(-1.0 / (1.0 - ui))
        out[inside] = a / (a + b)
        out[u >= 1.0] = 1.0
        return out

    @staticmethod
    def _exp_ramp_deriv(u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        inside = (u > 0.0) & (u < 1.0)
        ui = u[inside]
        a = np.exp(-1.0 / ui)
        b = np.exp(-1.0 / (1.0 - ui))
        da = a / ui ** 2
        db = -b / (1.0 - ui) ** 2
        out[inside] = (da * b - a * db) / (a + b) ** 2
        return out


# -- tail integration ------------------------------------------------------

@lru_cache(maxsize=1)
def _panel_weights() -> np.ndarray:
    """Exact weights integrating the degree-7 interpolant on 8 uniform
    nodes over each of the 7 unit panels; row p covers [p, p+1]."""
    v = np.empty((8, 8), dtype=object)
    for k in range(8):
        for j in range(8):
            v[k, j] = Fraction(j ** k)
    out = np.empty((7, 8))
    for p in range(7):
        rhs = np.empty((8, 1), dtype=object)
        for k in range(8):
            rhs[k, 0] = (Fraction((p + 1) ** (k + 1)) - Fraction(p ** (k + 1))) / (k + 1)
        w = ratmat.solve(v, rhs)
        out[p] = [float(x) for x in w[:, 0]]
    return out


def _cumulative_from_right(y: np.ndarray, h: float) -> np.ndarray:
    """I[i] = integral of y from t_i to t_{n-1}, order-8 panel rule.

    ``y`` is (n, m); the result matches in shape, with I[-1] = 0.
    """
    n = y.shape[0]
    if n < 8:
        raise ValueError("need at least 8 samples to integrate")
    w = _panel_weights()
    starts = np.clip(np.arange(n - 1) - 3, 0, n - 8)
    pos = np.arange(n - 1) - starts
    stencil = starts[:, None] + np.arange(8)[None, :]
    incr = h * np.einsum("ij,ij...->i...", w[pos], y[stencil])
    out = np.zeros_like(y)
    out[:-1] = np.cumsum(incr[::-1], axis=0)[::-1]
    return out


def _tail_beyond_grid(t: np.ndarray, y: np.ndarray, vartol: float):
    """Integral of the fitted B e^{-rt} continuation past the last sample.

    Fits each column of ``y`` (values over the window ``t``) separately;
    a column with negligible amplitude contributes 0.  Raises NoLimit if
    a non-negligible column fails to decay.
    """
    ncol = y.shape[1]
    tail = np.zeros(ncol, dtype=y.dtype)
    for c in range(ncol):
        col = y[:, c]
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
    h = f.grid.h
    w = max(4, -(-f.grid.n // 4))
    twin = f.grid.points[-w:]
    vartol = 1e-13 * (1.0 + f.amplitude())
    out = {}
    for xi, a in f.modes.items():
        acc = _cumulative_from_right(a, h)
        acc = acc + _tail_beyond_grid(twin, a[-w:], vartol)[None, :]
        out[xi] = acc
    return out


# -- the eta correction ----------------------------------------------------

def eta_correction(alpha: SpectralForm, cutoff: CutoffSpec, length: float,
                   closed_tol: float = 1e-6) -> SpectralForm:
    """Cutoff 2-form eta with alpha + d(eta) translation-invariant past L-1.

    eta = rho(t) * I(t) with I the tail integral of the decaying
    dt-component of alpha.  The closedness precondition is checked with
    the grid derivative (finite differences bound the tolerance here).
    """
    if alpha.degree != 3:
        raise ValueError("expected a degree-3 half-cylinder field")
    scale = 1.0 + alpha.amplitude()
    if norm_sup(exterior_d(alpha)) > closed_tol * scale:
        raise NotClosed("input field is not closed at the grid tolerance")
    _, _, gamma = decompose_cyl(alpha)
    tails = integral_to_infinity(gamma)
    rho = cutoff.rho(alpha.grid.points, length)
    modes = {xi: rho[:, None] * acc for xi, acc in tails.items()}
    return SpectralForm(2, alpha.band, alpha.grid, modes, check=False)


# -- gluing ----------------------------------------------------------------

@dataclass(frozen=True)
class GluedField:
    """Degree-3 field on the periodic neck plus the data that built it."""

    field: SpectralForm
    plus: object
    minus: object
    length: float
    cutoff: CutoffSpec

    def with_field(self, field: SpectralForm) -> "GluedField":
        return replace(self, field=field)


def _corrected_half_samples(structure, length: float, cutoff: CutoffSpec,
                            nkeep: int) -> dict:
    """Per-mode corrected samples of one half on its first nkeep points."""
    pert = structure.perturbation
    grid = pert.grid
    t = grid.points
    rho = cutoff.rho(t, length)
    drho = cutoff.drho(t, length)
    limit, beta, gamma = decompose_cyl(pert)
    if limit.amplitude() > 1e-9 * (1.0 + pert.amplitude()):
        raise MismatchedLimits("perturbation does not decay to zero, so the "
                               "declared cross-section pair is not the limit")
    tails = integral_to_infinity(gamma)
    model = structure.model().tovector().astype(complex)
    dtslots = pert.dt_slice
    freeslots = pert.free_slice
    glo = _ncomp(2) - _dt_count(3)  # free-block offset inside the 2-form gamma
    out = {}
    for xi in pert.modes:
        b = beta.modes[xi]
        g = gamma.modes[xi][:, glo:]
        acc = tails[xi][:, glo:]
        samples = np.zeros((nkeep, 35), dtype=complex)
        if xi == ZERO_XI:
            samples += model[None, :]
        samples[:, freeslots] += ((1.0 - rho)[:, None] * b[:, freeslots])[:nkeep]
        samples[:, dtslots] += ((1.0 - rho)[:, None] * g + drho[:, None] * acc)[:nkeep]
        out[xi] = samples
    if ZERO_XI not in out:
        samples = np.tile(model, (nkeep, 1))
        out[ZERO_XI] = samples
    return out


def glue_fields(plus, minus, length: float,
                cutoff: CutoffSpec = CutoffSpec()) -> GluedField:
    """Assemble the corrected halves into one field on the periodic neck.

    ``plus`` and ``minus`` are CylStructures with signs +1 and -1 whose
    cross-section pairs agree to 1e-12.  The neck has circumference
    2 * length; the minus half is transplanted through t -> 2L - t, which
    negates dt-components.  Every ValueError raised here (NeckTooShort and
    MismatchedLimits included) names a violated precondition on the
    inputs: signs, length, grids, limits, support or finiteness.
    """
    if plus.sign != 1 or minus.sign != -1:
        raise ValueError("expected signs +1 and -1 for the two halves")
    if length < 4.0:
        raise NeckTooShort("gluing needs L >= 4")
    dbig = (plus.big - minus.big).norm()
    dsmall = (plus.small - minus.small).norm()
    if max(dbig, dsmall) > 1e-12:
        raise MismatchedLimits(
            f"cross-section pairs differ by {max(dbig, dsmall):.3e}")
    gp, gm = plus.perturbation.grid, minus.perturbation.grid
    for g in (gp, gm):
        if g.periodic or g.a != 0.0:
            raise ValueError("half-cylinder grids start at 0 on an interval")
    if abs(gp.h - gm.h) > 1e-12 * gp.h:
        raise ValueError("half-cylinder grids have different sample spacing")
    density = 1.0 / gp.h
    q = round(length * density)
    if abs(q - length * density) > 1e-9:
        raise ValueError("L must be a whole number of grid steps")
    if gp.b < length + 1.0 or gm.b < length + 1.0:
        raise NeckTooShort("half-cylinder grids must extend past L + 1")
    for st in (plus, minus):
        head = [a[st.perturbation.grid.points < 0.75]
                for a in st.perturbation.modes.values()]
        lead = max((np.abs(h).max() for h in head if h.size), default=0.0)
        if lead > 1e-11 * (1.0 + st.perturbation.amplitude()):
            raise ValueError("perturbation must vanish near the inner end t = 0")

    half_p = _corrected_half_samples(plus, length, cutoff, q + 1)
    half_m = _corrected_half_samples(minus, length, cutoff, q + 1)
    neck = TGrid(0.0, 2.0 * length, 2 * q, periodic=True)
    band = max(plus.perturbation.band, minus.perturbation.band)
    ncomp = 35
    dtslots = slice(0, 15)
    modes = {}
    for xi in set(half_p) | set(half_m):
        arr = np.zeros((2 * q, ncomp), dtype=complex)
        if xi in half_p:
            arr[: q + 1] = half_p[xi]           # t in [0, L]
        if xi in half_m:
            mirrored = half_m[xi][1:q].copy()   # t- in (0, L), seamless ends
            mirrored[:, dtslots] *= -1.0
            arr[q + 1:] = mirrored[::-1]
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite samples in glued mode {xi}")
        if np.abs(arr).max() > 0.0:
            modes[xi] = arr
    return GluedField(SpectralForm(3, band, neck, modes, check=False),
                      plus, minus, float(length), cutoff)


# -- torsion ---------------------------------------------------------------

@dataclass(frozen=True)
class TorsionMeasure:
    """L2 and sup norms of d(phi) and of d(induced 4-form).

    ``dstar`` carries the measured d(induced 4-form) itself, so the
    reducer can solve against it without starring the field again.
    """

    d_l2: float
    d_sup: float
    dstar_l2: float
    dstar_sup: float
    dstar: SpectralForm | None = dataclass_field(default=None, repr=False,
                                                 compare=False)

    @property
    def worst(self) -> float:
        return max(self.d_sup, self.dstar_sup)


def induced_4form(field: SpectralForm, oversample: int = 2) -> SpectralForm:
    """The pointwise star of a degree-3 field with respect to its own
    induced metric, projected back to the field's mode band."""
    phys, _ = sample_physical(field, oversample=oversample)
    shape = phys.shape
    flat = phys.reshape(-1, 35)
    g = metric_batch(flat)
    starred = star3_batch(g, flat).reshape(shape)
    return spectral_from_samples(starred, 4, field.band, field.grid)


def torsion_residual(phi) -> TorsionMeasure:
    """Norms of the two torsion components of a neck field.

    Accepts a GluedField or a bare degree-3 SpectralForm; raises
    NotStable (from the pointwise kernels) if any sample leaves the
    stable orbit.
    """
    field = phi.field if isinstance(phi, GluedField) else phi
    if field.degree != 3:
        raise ValueError("torsion is defined for degree-3 fields")
    d3 = exterior_d(field)
    d4 = exterior_d(induced_4form(field))
    return TorsionMeasure(norm_l2(d3), norm_sup(d3), norm_l2(d4), norm_sup(d4),
                          dstar=d4)


# -- linearization at the flat model ---------------------------------------

@lru_cache(maxsize=1)
def flat_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projections of 3-form space onto the 1-, 7- and
    27-dimensional pieces at the flat model."""
    p = phi0().tovector()
    p1 = np.outer(p, p) / 7.0
    star_p = hodge_star(np.eye(7), phi0())
    cols = []
    for i in range(1, 8):
        cols.append(star_p.contract(i).tovector())
    b = np.array(cols).T
    p7 = b @ np.linalg.inv(b.T @ b) @ b.T
    p27 = np.eye(35) - p1 - p7
    return p1, p7, p27


@lru_cache(maxsize=1)
def star_derivative_matrix() -> np.ndarray:
    """d/ds of the induced-4-form map at the flat model: the 35 x 35
    matrix M with  star_{phi0 + s chi}(phi0 + s chi) = *phi0 + s M chi + O(s^2),
    equal to *0 composed with (4/3, 1, -1) weights on the three pieces."""
    p1, p7, p27 = flat_projectors()
    j = (4.0 / 3.0) * p1 + p7 - p27
    return _star_matrix(np.eye(7), 3) @ j


def _t_blocks(xi: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T_tt, T_tx + T_xt, T_xx): the pieces of the linearized torsion
    operator A(n) = -((w n)^2 T_tt + w n (T_tx + T_xt) + T_xx).

    A(n) = D5(n) M D3(n) takes the 2-form update sigma to the linearized
    residual at t-frequency index n, with D(n) = i (n w W_t + sum_d xi_d W_{x_d})
    and M the star derivative at the flat model.
    """
    m = star_derivative_matrix()
    wt3 = _axis_wedge_matrix(1, 2)
    wt5 = _axis_wedge_matrix(1, 4)
    x3 = np.zeros((35, 21))
    x5 = np.zeros((21, 35))
    for d in range(6):
        if xi[d]:
            x3 += xi[d] * _axis_wedge_matrix(d + 2, 2)
            x5 += xi[d] * _axis_wedge_matrix(d + 2, 4)
    return wt5 @ m @ wt3, wt5 @ m @ x3 + x5 @ m @ wt3, x5 @ m @ x3


@lru_cache(maxsize=1)
def _tt_pinv() -> np.ndarray:
    """Pseudoinverse of T_tt, the whole operator at xi = 0 up to -(w n)^2.

    T_tt has eight singular values equal to 1 and thirteen at roundoff,
    so the rcond=1e-9 cut is the same for every nonzero scale of it.
    """
    return np.linalg.pinv(_t_blocks(ZERO_XI)[0], rcond=1e-9)


def _mode_solver(omega: float, n_t: int):
    """Per-mode solver of the linearized torsion operator for one neck.

    Returns solve(xi, rhat) -> -A(n)^+ rhat row by row, for rhat the
    t-Fourier coefficients (n_t, 21) of a residual mode.  At xi = 0,
    A(n) = -(w n)^2 T_tt, so the solve is T_tt^+ rhat / (w n)^2 (0 at
    n = 0) from one cached 21 x 21 matrix.  Any other mode takes a batched
    pseudoinverse of its quadratic pencil, built on first use and held
    only by the returned function, so nothing sized by the neck outlives
    the reduction that made it.
    """
    n = np.fft.fftfreq(n_t, d=1.0 / n_t)
    wn2 = (omega * n) ** 2
    stacks = {}

    def solve(xi: tuple, rhat: np.ndarray) -> np.ndarray:
        if xi == ZERO_XI:
            shat = rhat @ _tt_pinv().T
            shat[0] = 0.0
            shat[1:] /= wn2[1:, None]
            return shat
        pinv = stacks.get(xi)
        if pinv is None:
            t_tt, t_mix, t_xx = _t_blocks(xi)
            a = -(wn2[:, None, None] * t_tt + omega * n[:, None, None] * t_mix
                  + t_xx)
            pinv = stacks[xi] = np.linalg.pinv(a, rcond=1e-9)
        return -np.einsum("nij,nj->ni", pinv, rhat)

    return solve


def _zero_mean_update(update: SpectralForm) -> SpectralForm:
    """Remove the harmonic block of an update, to bitwise zero."""
    m0 = update.modes.get(ZERO_XI)
    if m0 is None:
        return update
    a = np.array(m0)
    for _ in range(4):
        mean = a.mean(axis=0)
        if not mean.any():
            break
        a = a - mean
    modes = dict(update.modes)
    modes[ZERO_XI] = a
    return SpectralForm(update.degree, update.band, update.grid, modes, check=False)


def _restore_harmonic_block(field: SpectralForm, pin: np.ndarray) -> SpectralForm:
    """Cancel accumulated roundoff drift of the xi = 0 t-mean against ``pin``.

    Exact updates only move the dt block of the xi = 0 mode (d of any
    2-form wedges every xi = 0 t-derivative with dt), so the free block
    of the harmonic projection is already preserved bitwise.  The dt
    block drifts by summation roundoff when updates are added; this
    subtracts the measured drift as a t-constant (constants lie in the
    kernel of the spectral derivative, so the correction is invisible to
    d), leaving the residual below one rounding quantum of the mean.
    """
    m0 = field.modes.get(ZERO_XI)
    if m0 is None:
        return field
    a = np.array(m0)
    best = a
    best_err = np.inf
    seen = set()
    for _ in range(8):
        diff = pin - np.mean(np.real(a), axis=0)
        err = np.abs(diff).max()
        if err < best_err:
            best, best_err = a.copy(), err
        if err == 0.0 or diff.tobytes() in seen:
            break
        seen.add(diff.tobytes())
        a = a + diff
    modes = dict(field.modes)
    modes[ZERO_XI] = best
    return SpectralForm(field.degree, field.band, field.grid, modes, check=False)


@dataclass(frozen=True)
class GluingReport:
    """Outcome record for one neck: torsion norms, iterations, verdict."""

    length: float
    torsion_d_l2: float
    torsion_d_sup: float
    torsion_ds_l2: float
    torsion_ds_sup: float
    iterations: int
    converged: bool
    slope: float | None = None

    @classmethod
    def from_measure(cls, length, meas: TorsionMeasure, iterations, converged,
                     slope=None):
        return cls(length, meas.d_l2, meas.d_sup, meas.dstar_l2, meas.dstar_sup,
                   iterations, converged, slope)

    def to_json_obj(self) -> dict:
        obj = {"L": self.length,
               "torsion_d_L2": self.torsion_d_l2,
               "torsion_d_sup": self.torsion_d_sup,
               "torsion_ds_L2": self.torsion_ds_l2,
               "torsion_ds_sup": self.torsion_ds_sup,
               "iters": self.iterations,
               "converged": self.converged}
        if self.slope is not None:
            obj["slope"] = self.slope
        return obj

    CSV_HEADER = "L,torsion_d_L2,torsion_d_sup,torsion_ds_L2,torsion_ds_sup,iters,converged"

    def to_csv_row(self) -> str:
        return ",".join([repr(self.length),
                         repr(self.torsion_d_l2), repr(self.torsion_d_sup),
                         repr(self.torsion_ds_l2), repr(self.torsion_ds_sup),
                         str(self.iterations), str(self.converged).lower()])


# Relative drop in the worst torsion that counts as progress of a step.
_PROGRESS = 1e-6


def torsion_reduce(glued: GluedField, tol: float = 1e-10, max_iter: int = 25,
                   smallness: float = 0.1) -> tuple[GluedField, GluingReport]:
    """Iteratively remove torsion by adding exact forms.

    Each step solves the flat-model linearization mode by mode (spectral
    pseudoinverse) for a 2-form sigma against d(induced 4-form), then
    updates phi += d sigma with the xi = 0 t-mean pinned, so the harmonic
    block is preserved (its free part bitwise, its dt part to one
    rounding quantum of the mean).  The xi = 0 mode is solved in closed
    form from one cached 21 x 21 pseudoinverse scaled by 1 / (w n)^2;
    every other mode uses a batched pseudoinverse over the t-frequencies,
    built once per reduction and dropped when it returns (see
    _mode_solver).  The residual solved against is the one
    torsion_residual measured at the end of the previous step, so each
    step stars the field once.  Stops at torsion <= tol (sup norms) or
    max_iter; raises Diverged after three consecutive steps that do not
    lower the best torsion so far by more than a relative _PROGRESS (at
    the closedness floor the steps differ only in roundoff, which must not
    decide the step count), AboveSmallness (a ValueError) if
    the initial torsion exceeds the smallness threshold relative to the
    field.  Both carry the steps taken and the last measured torsion.
    The report carries the torsion of the returned field.
    """
    field = glued.field
    meas = torsion_residual(field)
    if meas.worst > smallness * max(norm_sup(field), 1e-30):
        raise AboveSmallness("initial torsion is above the smallness threshold",
                             0, meas)
    m0 = field.modes.get(ZERO_XI)
    pin = (np.mean(np.real(m0), axis=0) if m0 is not None
           else np.zeros(field.ncomp))
    length = glued.length
    omega = 2.0 * np.pi / (2.0 * length)
    solve = _mode_solver(omega, field.grid.n)
    iterations = 0
    worse = 0
    best = meas.worst
    while meas.worst > tol and iterations < max_iter:
        sig_modes = {}
        for xi, arr in meas.dstar.modes.items():
            shat = solve(xi, np.fft.fft(arr, axis=0))
            sig_modes[xi] = np.fft.ifft(shat, axis=0)
        sigma = SpectralForm(2, field.band, field.grid, sig_modes, check=False)
        update = _zero_mean_update(exterior_d(sigma))
        field = _restore_harmonic_block(field + update, pin)
        meas = torsion_residual(field)
        iterations += 1
        if meas.worst >= best * (1.0 - _PROGRESS):
            worse += 1
            if worse >= 3:
                raise Diverged(f"torsion stopped decreasing after {iterations} steps",
                               iterations, meas)
        else:
            worse = 0
            best = meas.worst
    report = GluingReport.from_measure(length, meas, iterations, meas.worst <= tol)
    return glued.with_field(field), report


# -- sweeps and the empirical threshold ------------------------------------

def sweep_reports(plus, minus, lengths, cutoff: CutoffSpec = CutoffSpec(),
                  reduce_tol: float | None = None, max_iter: int = 25) -> list:
    """Glue (and optionally reduce) at each L; fit the torsion decay slope.

    Without a reduce tolerance the reports carry the raw glued torsion.
    The slope is fit_torsion_slope's, attached to every report.
    """
    reports = []
    for length in lengths:
        glued = glue_fields(plus, minus, length, cutoff)
        if reduce_tol is None:
            meas = torsion_residual(glued)
            reports.append(GluingReport.from_measure(length, meas, 0, False))
        else:
            _, rep = torsion_reduce(glued, tol=reduce_tol, max_iter=max_iter)
            reports.append(rep)
    slope = fit_torsion_slope(reports)
    return [replace(r, slope=slope) for r in reports]


def fit_torsion_slope(reports) -> float | None:
    """Gradient of log(dstar sup norm) against L over the unconverged rows.

    Converged rows are left out: their torsion sits at the roundoff floor,
    where a roundoff-level change can flip the sign of a fitted slope.
    None with fewer than two rows left.
    """
    rows = [r for r in reports if not r.converged and r.torsion_ds_sup > 0.0]
    if len(rows) < 2:
        return None
    ls = np.array([r.length for r in rows], dtype=float)
    ys = np.array([r.torsion_ds_sup for r in rows], dtype=float)
    return float(np.polyfit(ls, np.log(ys), 1)[0])


def estimate_L0(plus, minus, lengths, tol: float = 1e-10, max_iter: int = 25,
                cutoff: CutoffSpec = CutoffSpec()) -> float:
    """Smallest sampled L at which the reduction converges; inf if none."""
    for length in sorted(lengths):
        try:
            glued = glue_fields(plus, minus, length, cutoff)
            _, rep = torsion_reduce(glued, tol=tol, max_iter=max_iter)
        except (NeckTooShort, Diverged, ValueError):
            continue
        if rep.converged:
            return float(length)
    return math.inf


# -- synthetic half-cylinder structures ------------------------------------

def _support_envelope(t: np.ndarray, lo: float = 0.75, hi: float = 1.75) -> np.ndarray:
    """C-infinity ramp from 0 to 1 on [lo, hi] (keeps fields off t = 0)."""
    u = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
    return CutoffSpec("exp")._exp_ramp(u)


def _support_envelope_deriv(t: np.ndarray, lo: float = 0.75, hi: float = 1.75) -> np.ndarray:
    u = np.clip((t - lo) / (hi - lo), 0.0, 1.0)
    return CutoffSpec("exp")._exp_ramp_deriv(u) / (hi - lo)


def flat_structure(sign: int, extent: float = 11.0, density: int = 64,
                   band: int = 2):
    """Exactly cylindrical half: the model pair with zero perturbation."""
    from .fields import CylStructure
    from .forms import Omega0, omega0
    grid = TGrid.interval(0.0, extent, density)
    pert = SpectralForm.zero(3, band, grid)
    return CylStructure(Omega0(), omega0(), sign, pert, 1.0)


def sheared_structure(sign: int, rate: float = 1.0, amplitude: float = 0.25,
                      drift: float = 0.2, direction: int = 2,
                      extent: float = 11.0, density: int = 64, band: int = 2):
    """Exactly torsion-free half from a cylinder self-map.

    Pulling the flat model back through (x, t) -> (x + u(t) v, t + w(t))
    gives  model + dt ^ (u' (v . Omega) + w' omega)  with v the unit
    direction vector; u = amplitude * E(t) e^{-rate t} and
    w = drift * E(t) e^{-rate t} for a smooth envelope E vanishing near
    t = 0.  The samples below use the analytic derivatives, so the field
    is a genuine G2 structure to machine precision at every sample.
    """
    from .fields import CylStructure
    from .forms import Omega0, omega0
    if not 2 <= direction <= 7:
        raise ValueError("direction indexes a torus axis, 2..7")
    grid = TGrid.interval(0.0, extent, density)
    t = grid.points
    env = _support_envelope(t)
    denv = _support_envelope_deriv(t)
    decay = np.exp(-rate * t)
    du = amplitude * (denv - rate * env) * decay
    dw = drift * (denv - rate * env) * decay
    if np.abs(dw).max() >= 0.9:
        raise ValueError("drift too large: t -> t + w(t) must stay monotone")
    contracted = Omega0().contract(direction)
    arr = np.zeros((grid.n, 35), dtype=complex)
    pos3 = basis_position(AXES7, 3)
    for idx, c in contracted.coeffs.items():
        arr[:, pos3[(1,) + idx]] += du * c
    for idx, c in omega0().coeffs.items():
        arr[:, pos3[(1,) + idx]] += sign * dw * c
    pert = SpectralForm(3, band, grid, {ZERO_XI: arr}, check=False)
    return CylStructure(Omega0(), omega0(), sign, pert, rate)


def modulated_shear_structure(sign: int, rate: float = 1.0,
                              amplitude: float = 0.05, direction: int = 4,
                              modulation: int = 2, extent: float = 11.0,
                              density: int = 64, band: int = 2):
    """Torsion-free half whose gluing residue decays at the profile rate.

    Pulling the model back through (x, t) -> (x + a(t) cos(x_m) e_j, t)
    with a = amplitude * E(t) e^{-rate t} gives

        model + d(a cos(x_m) (e_j . model)),

    exactly linear in the profile because each basis monomial contains
    dx^j at most once.  Every member is a genuine pullback, hence
    torsion-free on the half-cylinder, but unlike the rigid shear the
    cross-section modulation keeps the neck surgery from landing back on
    the family: the glued field carries a first-order remainder supported
    in the cutoff band, so its torsion scales like e^{-rate L}.
    """
    from .fields import CylStructure
    from .forms import KForm6, Omega0, omega0
    if not 2 <= direction <= 7 or not 2 <= modulation <= 7:
        raise ValueError("direction and modulation index torus axes, 2..7")
    if direction == modulation:
        raise ValueError("modulation along the translated axis is not a "
                         "well-defined torus map")
    grid = TGrid.interval(0.0, extent, density)
    t = grid.points
    env = _support_envelope(t)
    denv = _support_envelope_deriv(t)
    decay = np.exp(-rate * t)
    a = amplitude * env * decay
    da = amplitude * (denv - rate * env) * decay
    t1 = Omega0().contract(direction)
    dxm = KForm6(1, {(modulation,): 1})
    t2 = dxm.wedge(t1)
    t3 = dxm.wedge(omega0().contract(direction))
    arr = np.zeros((grid.n, 35), dtype=complex)
    pos3 = basis_position(AXES7, 3)
    for idx, c in t1.coeffs.items():
        arr[:, pos3[(1,) + idx]] += 0.5 * da * c
    for idx, c in t2.coeffs.items():
        arr[:, pos3[idx]] += 0.5j * a * c
    for idx, c in t3.coeffs.items():
        arr[:, pos3[(1,) + idx]] += 0.5j * sign * a * c
    xi = [0] * 6
    xi[modulation - 2] = 1
    xi = tuple(xi)
    mxi = tuple(-v for v in xi)
    pert = SpectralForm(3, band, grid, {xi: arr, mxi: np.conj(arr)},
                        check=False)
    return CylStructure(Omega0(), omega0(), sign, pert, rate)


def closed_perturbation_structure(sign: int, rate: float = 1.0,
                                  amplitude: float = 1e-2, component=(2, 4),
                                  extent: float = 11.0, density: int = 64,
                                  band: int = 2):
    """Half-cylinder structure perturbed by an exact decaying 3-form.

    The perturbation is d(g(t) zeta) = g'(t) dt ^ zeta for a constant
    cross-section 2-form zeta, with g = amplitude * E(t) e^{-rate t}; it
    is closed by construction and stays in the model cohomology class.
    """
    from .fields import CylStructure
    from .forms import Omega0, omega0
    try:
        axes = tuple(operator.index(c) for c in component)
    except TypeError:
        axes = ()
    if len(axes) != 2 or not 2 <= axes[0] < axes[1] <= 7:
        raise ValueError("component must be two torus axes in increasing "
                         f"order, 2..7, got {component!r}")
    grid = TGrid.interval(0.0, extent, density)
    t = grid.points
    env = _support_envelope(t)
    denv = _support_envelope_deriv(t)
    decay = np.exp(-rate * t)
    dg = amplitude * (denv - rate * env) * decay
    arr = np.zeros((grid.n, 35), dtype=complex)
    arr[:, basis_position(AXES7, 3)[(1,) + axes]] = dg
    pert = SpectralForm(3, band, grid, {ZERO_XI: arr}, check=False)
    return CylStructure(Omega0(), omega0(), sign, pert, rate)
