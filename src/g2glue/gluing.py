"""Field-level gluing of two G2 half-cylinders over a shared cross-section.

The construction lives on the periodic neck T^6 x (R / 2L Z).  The plus
half occupies t in [0, L] with its own coordinate t+ = t; the minus half
occupies t in [L, 2L] under the identification t- = 2L - t, which flips
the sign of every dt-component.  Both halves are fully cylindrical
outside the support of their perturbations, so the seam at t = 0 (where
a compact piece would sit in the genuine geometry) is exact; the seam at
t = L is flattened by the cutoff correction below.

Given a half-cylinder end (a CylStructure) whose field decomposes as
limit + beta + dt ^ gamma (fields.decompose_cyl), the correction replaces
it by

    limit + (1 - rho) beta + dt ^ ((1 - rho) gamma + rho' I),

where the cutoff rho is the quintic smoothstep, rising from 0 to 1 on
[L-2, L-1] with two continuous derivatives, and I(t) is the tail integral
of gamma from t to infinity (fields.integral_to_infinity); each half
prepares beta, gamma and I once, in CylStructure._tail_parts.  This equals
the field plus an exact form, d of the cutoff 2-form eta = rho I, up to
quadrature error; it is identically the translation-invariant limit for
t > L-1, and keeps the cohomology bookkeeping exact because the limit
block is never touched.  Integrating by parts, the glued class differs
from the model only in its dt block, by the halves' I(0) (the minus one
transplanted) over 2L, whatever the cutoff.

Torsion is measured as the pair (d phi, d of the induced 4-form), the
4-form star computed sample by sample with the frozen-coefficient
pointwise kernels; on a xi = 0 field, d of the star is dt ^ d/dt of its
dt-free block, so only those 15 components are starred.  The reduction
iterates phi += d sigma (_step), with sigma solved mode by mode in closed
form from the linearization of the induced-4-form map at the flat model
(_solve).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property, lru_cache

import numpy as np

from .fields import (
    SpectralForm,
    TGrid,
    ZERO_XI,
    _axis_wedge_matrix,
    _d_mode,
    _dt_count,
    _ncomp,
    _require_finite,
    decompose_cyl,
    estimate_decay_rate,
    exterior_d,
    integral_to_infinity,
    norm_l2,
    norm_sup,
    sample_physical,
    spectral_from_samples,
)
from .forms import (
    AXES7,
    ConstForm,
    KForm7,
    Omega0,
    _contract_table,
    _star_matrix,
    assemble_cylindrical,
    basis_position,
    is_g2_form,
    omega0,
    phi0,
    star3_batch,
)


class MismatchedLimits(ValueError):
    """The two halves do not share the same cross-section pair."""


class NeckTooShort(ValueError):
    """L is below the 4 the cutoff needs, so no neck of that length glues."""


# -- cutoff profiles -------------------------------------------------------

def _rho(t: np.ndarray, length: float) -> np.ndarray:
    """The cutoff: the quintic smoothstep (C^2), 0 to 1 on [L-2, L-1]."""
    u = np.clip(np.asarray(t, dtype=float) - (length - 2.0), 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def _drho(t: np.ndarray, length: float) -> np.ndarray:
    """Analytic derivative of _rho with respect to t."""
    u = np.clip(np.asarray(t, dtype=float) - (length - 2.0), 0.0, 1.0)
    return 30.0 * u ** 2 * (1.0 - u) ** 2


# -- half-cylinder ends ----------------------------------------------------

@dataclass(frozen=True)
class CylStructure:
    """A G2 half-cylinder end: asymptotic cross-section pair plus decay.

    ``big`` (degree 3) and ``small`` (degree 2) are the limiting
    cross-section forms, ``sign`` fixes the orientation of the dt-part of
    the asymptotic model big + sign * dt ^ small, ``perturbation`` is the
    decaying degree-3 correction on an interval grid from t = 0, and
    ``decay_rate`` its declared exponential rate.
    """

    big: ConstForm
    small: ConstForm
    sign: int
    perturbation: SpectralForm
    decay_rate: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not self.decay_rate > 0.0:
            raise ValueError("decay rate must be positive")
        if (self.big.degree, self.small.degree) != (3, 2):
            raise ValueError("expected degrees (3, 2) for the asymptotic pair")
        if self.perturbation.degree != 3:
            raise ValueError("perturbation must be a 3-form")
        grid = self.perturbation.grid
        if grid.periodic or grid.a != 0.0:
            raise ValueError("half-cylinder grids start at 0 on an interval")
        if not all(np.isfinite(a).all()
                   for a in self.perturbation.modes.values()):
            raise ValueError("perturbation has non-finite samples")
        if not is_g2_form(assemble_cylindrical(self.big, self.small, self.sign)):
            raise ValueError("asymptotic pair does not assemble to a stable form")

    @cached_property
    def _tail_parts(self) -> dict:
        """The half prepared for the neck once, none of it depending on L:
        per mode, read-only (beta, gamma, I) in the neck's columns, the 20
        dt-free ones of beta, the 15 dt ones of gamma and its tail integral
        I.  Raises a ValueError unless the perturbation vanishes near t = 0,
        and MismatchedLimits unless it decays to zero."""
        pert = self.perturbation
        head = [a[pert.grid.points < 0.75] for a in pert.modes.values()]
        lead = max((np.abs(h).max() for h in head if h.size), default=0.0)
        if lead > 1e-11 * (1.0 + pert.amplitude()):
            raise ValueError("perturbation must vanish near the inner end t = 0")
        limit, beta, gamma = decompose_cyl(pert)
        tails = integral_to_infinity(gamma)
        if limit.amplitude() > 1e-9 * (1.0 + pert.amplitude()):
            raise MismatchedLimits("perturbation does not decay to zero, so the "
                                   "declared cross-section pair is not the limit")
        free, dt = pert.free_slice, gamma.free_slice   # see dt_part
        parts = {}
        for xi in pert.modes:
            tails[xi].flags.writeable = False
            parts[xi] = (beta.modes[xi][:, free], gamma.modes[xi][:, dt],
                         tails[xi][:, dt])
        return parts

    def model(self) -> KForm7:
        return assemble_cylindrical(self.big, self.small, self.sign)

    def total(self) -> SpectralForm:
        base = SpectralForm.from_constant(self.model(), self.perturbation.grid,
                                          band=self.perturbation.band)
        return base + self.perturbation

    def fitted_decay(self, window: tuple[float, float] | None = None) -> float:
        if window is None:                  # the grid's outer half
            window = (0.5 * self.perturbation.grid.b, self.perturbation.grid.b)
        return estimate_decay_rate(self.perturbation, window)


# -- gluing ----------------------------------------------------------------

def _corrected_half_samples(structure, length: float, nkeep: int) -> dict:
    """Per-mode corrected samples of one half on its first nkeep points."""
    t = structure.perturbation.grid.points
    rho, drho = _rho(t, length), _drho(t, length)
    model = structure.model().tovector()
    out = {}
    for xi, (b, g, acc) in structure._tail_parts.items():
        samples = np.zeros((nkeep, 35), dtype=b.dtype)
        if xi == ZERO_XI:
            samples += model[None, :]
        samples[:, 15:] += ((1.0 - rho)[:, None] * b)[:nkeep]
        samples[:, :15] += ((1.0 - rho)[:, None] * g + drho[:, None] * acc)[:nkeep]
        out[xi] = samples
    if ZERO_XI not in out:
        out[ZERO_XI] = np.tile(model, (nkeep, 1))
    return out


def glue_fields(plus, minus, length: float) -> SpectralForm:
    """Assemble the corrected halves into one degree-3 field on the
    periodic neck, whose grid (length 2L) carries L to torsion_reduce.

    ``plus`` and ``minus`` are CylStructures with signs +1 and -1 whose
    cross-section pairs agree to 1e-12.  The neck has circumference
    2 * length; the minus half is transplanted through t -> 2L - t, which
    negates dt-components.  Every ValueError raised here (NeckTooShort and
    MismatchedLimits included) names a violated precondition on the
    inputs: signs, length, grids, limits, support or finiteness.  Only
    L < 4 is a NeckTooShort; half grids that do not reach L + 1 are a
    plain ValueError, since longer halves, not a longer neck, would fix it.
    Each half's support and limit are checked once, by its _tail_parts.
    """
    if plus.sign != 1 or minus.sign != -1:
        raise ValueError("expected signs +1 and -1 for the two halves")
    if length < 4.0:
        raise NeckTooShort("gluing needs L >= 4")
    gap = max((plus.big - minus.big).norm(), (plus.small - minus.small).norm())
    if gap > 1e-12:
        raise MismatchedLimits(f"cross-section pairs differ by {gap:.3e}")
    gp, gm = plus.perturbation.grid, minus.perturbation.grid
    if abs(gp.h - gm.h) > 1e-12 * gp.h:
        raise ValueError("half-cylinder grids have different sample spacing")
    density = 1.0 / gp.h
    q = round(length * density)
    if abs(q - length * density) > 1e-9:
        raise ValueError("L must be a whole number of grid steps")
    if gp.b < length + 1.0 or gm.b < length + 1.0:
        raise ValueError("half-cylinder grids must extend past L + 1")

    half_p = _corrected_half_samples(plus, length, q + 1)
    half_m = _corrected_half_samples(minus, length, q + 1)
    neck = TGrid.circle(2.0 * length, density)
    band = max(plus.perturbation.band, minus.perturbation.band)
    modes = {}
    for xi in set(half_p) | set(half_m):
        arr = np.zeros((2 * q, 35), dtype=complex if any(xi) else float)
        if xi in half_p:
            arr[: q + 1] = half_p[xi]           # t in [0, L]
        if xi in half_m:
            mirrored = half_m[xi][1:q].copy()   # t- in (0, L), seamless ends
            mirrored[:, :15] *= -1.0
            arr[q + 1:] = mirrored[::-1]
        if not np.isfinite(arr).all():
            raise ValueError(f"non-finite samples in glued mode {xi}")
        if np.abs(arr).max() > 0.0:
            modes[xi] = arr
    return SpectralForm(3, band, neck, modes, check=False)


# -- torsion ---------------------------------------------------------------

@dataclass(frozen=True)
class TorsionMeasure:
    """L2 and sup norms of d(phi) and of d(induced 4-form).

    ``dstar`` carries the measured d(induced 4-form) itself, so the
    reducer can solve against it without starring the field again, and
    ``dphi`` the measured d(phi), so a xi = 0 reduction differentiates phi
    once.  On a periodic field holding only the xi = 0 mode, ``dstar_hat``
    is the t-spectrum of dstar's one mode (21 columns, in the grid's
    layout) that the measure forms before its inverse transform, so a step
    solves against it without transforming dstar again; None on any other
    field.
    """

    d_l2: float
    d_sup: float
    dstar_l2: float
    dstar_sup: float
    dstar: SpectralForm | None = dataclass_field(default=None, repr=False,
                                                 compare=False)
    dphi: SpectralForm | None = dataclass_field(default=None, repr=False,
                                                compare=False)
    dstar_hat: np.ndarray | None = dataclass_field(default=None, repr=False,
                                                   compare=False)

    @property
    def worst(self) -> float:
        """The larger sup norm; NaN if either is NaN."""
        return float(np.maximum(self.d_sup, self.dstar_sup))


def induced_4form(field: SpectralForm) -> SpectralForm:
    """The pointwise star of a degree-3 field with respect to its own
    induced metric, each physical sample factored once by star3_batch, kept
    on the modes sample_physical resolves: |xi_d| <= min(band, 2M - 1) where
    the field reaches |xi_d| = M > 0.  So a band-2 field holding only
    xi = +-e_m keeps |xi_m| <= 1 of its star, and the star's higher
    frequencies in the band alias onto the ones kept."""
    phys, _ = sample_physical(field)
    starred = star3_batch(phys.reshape(-1, 35)).reshape(phys.shape)
    return spectral_from_samples(starred, 4, field.band, field.grid)


def torsion_residual(phi: SpectralForm, *,
                     dphi: SpectralForm | None = None) -> TorsionMeasure:
    """Norms of the two torsion components of a degree-3 neck field.

    Raises NotStable (from the pointwise kernels) if any sample leaves the
    stable orbit, and ValueError if a starred sample is not finite.  d(star
    phi) is exterior_d(induced_4form(phi)), bitwise; on a xi = 0 field it
    is formed as dt ^ d/dt of the dt-free block of star phi, starred alone.
    ``dphi``, when given, is taken as d(phi) instead of differentiating
    phi: torsion_reduce passes the previous step's on a xi = 0 field, whose
    d(phi) a step leaves bitwise alone.  It must be a 4-form on phi's grid,
    band and modes (ValueError otherwise); its values are the caller's to
    vouch for.
    """
    if phi.degree != 3:
        raise ValueError("torsion is defined for degree-3 fields")
    if dphi is None:
        d3 = exterior_d(phi)
    elif (dphi.degree != 4 or dphi.grid != phi.grid
          or dphi.band != phi.band or dphi.modes.keys() != phi.modes.keys()):
        raise ValueError("dphi must be a 4-form on phi's grid, band and modes")
    else:
        d3 = dphi
    dstar_hat = None
    if phi.modes.keys() == {ZERO_XI}:
        grid = phi.grid
        star = star3_batch(phi.modes[ZERO_XI], dt_free=True)
        _require_finite(star)
        if grid.periodic:
            dhat = grid.ddt_spectrum(grid.forward(star))
            dstar_hat = _d_mode(ZERO_XI, dhat, dhat, 4)
            dt = grid.inverse(dstar_hat)
        else:
            dt = _d_mode(ZERO_XI, star, grid.ddt(star), 4)
        d4 = SpectralForm(5, phi.band, grid, {ZERO_XI: dt}, check=False)
    else:
        d4 = exterior_d(induced_4form(phi))
    return TorsionMeasure(norm_l2(d3), norm_sup(d3), norm_l2(d4), norm_sup(d4),
                          dstar=d4, dphi=d3, dstar_hat=dstar_hat)


# -- linearization at the flat model ---------------------------------------

@lru_cache(maxsize=1)
def flat_projectors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthogonal projections of 3-form space onto the 1-, 7- and
    27-dimensional pieces at the flat model."""
    p = phi0().tovector()
    p1 = np.outer(p, p) / 7.0
    star_p = _star_matrix(np.eye(7), 3) @ p
    b = (_contract_table(7, 4) @ star_p).T         # column i: e_i+1 . *phi0
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


def _solve(grid: TGrid, xi: tuple, rhat: np.ndarray) -> np.ndarray:
    """-A(n)^+ rhat row by row, for rhat a residual mode's t-spectrum (21
    columns) in the grid's layout (see TGrid.forward).

    A(n) is a scaled partial isometry: its eight nonzero singular values
    all equal |k|^2 = (w n)^2 + |xi|^2, because the star derivative at the
    flat model commutes with G2 and G2 is transitive on S^6.  So
    A^+ = A^T / |k|^4, the three blocks of _t_blocks applied to the rows,
    with 0 at k = 0; nothing is built per neck length.  At xi = 0 the
    blocks T_tx + T_xt and T_xx are exact zeros, so only T_tt is applied.
    """
    t_tt, t_mix, t_xx = _t_blocks(xi)
    w = grid.wavenumbers(rhat)[:, None]
    k2 = w ** 2 + sum(v * v for v in xi)
    k4 = np.where(k2 > 0.0, k2 ** 2, np.inf)
    num = w ** 2 * (rhat @ t_tt)
    if any(xi):
        num = num + w * (rhat @ t_mix) + rhat @ t_xx
    return num / k4


def _step(field: SpectralForm, meas: TorsionMeasure) -> SpectralForm:
    """field + d sigma, for sigma the flat-model solve against the
    measured d(induced 4-form) ``meas.dstar``.

    Per residual mode: its t-spectrum, sigma^ = _solve, then d sigma^ =
    D(n) sigma^ formed on the spectrum itself (the grid's ddt_spectrum on
    the dt-free columns and i xi ^ for xi != 0, the assembly exterior_d
    uses on samples), then one inverse transform; sigma is never sampled.
    On a field holding only the xi = 0 mode the spectrum is the measure's
    ``dstar_hat``, so the step makes no forward transform; on any other
    field each mode of dstar goes through the grid's forward transform.
    The grid's pair transforms only the columns that vary along t, so at
    xi = 0 only the nonzero columns of d sigma's dt block are inverted:
    its dt-free block is exact zeros (dt ^ d/dt writes only dt slots).
    The class is held by construction, with no step that restores it:
    that dt-free block and the update's n = 0 row (_solve returns 0 at
    k = 0) are exact zeros.  So the class's free block stays bitwise, its
    dt block moves only by the rounding of adding a zero-mean update to
    the samples, and d(phi) of a field holding only the xi = 0 mode is
    bitwise unchanged.  Each spectrum dies with its mode's iteration, and
    the update's samples on return, before the caller measures the new
    field.
    """
    grid = field.grid
    free = slice(_dt_count(2), _ncomp(2))
    update = {}
    for xi, arr in meas.dstar.modes.items():
        rhat = grid.forward(arr) if meas.dstar_hat is None else meas.dstar_hat
        shat = _solve(grid, xi, rhat)
        update[xi] = grid.inverse(
            _d_mode(xi, shat, grid.ddt_spectrum(shat[:, free]), 2))
    return field + SpectralForm(3, field.band, grid, update, check=False)


@dataclass(frozen=True)
class GluingReport:
    """Outcome record for one torsion_reduce run: torsion norms, iterations
    and why it stopped, one of STOP_REASONS; any other stop_reason raises
    ValueError."""

    STOP_REASONS = ("converged", "max_iter", "diverged", "above-smallness")

    length: float
    torsion_d_l2: float
    torsion_d_sup: float
    torsion_ds_l2: float
    torsion_ds_sup: float
    iterations: int
    stop_reason: str
    slope: float | None = None

    def __post_init__(self):
        if self.stop_reason not in self.STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @classmethod
    def from_measure(cls, length, meas: TorsionMeasure, iterations,
                     stop_reason, slope=None):
        return cls(length, meas.d_l2, meas.d_sup, meas.dstar_l2, meas.dstar_sup,
                   iterations, stop_reason, slope)

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


# Relative drop in the worst torsion that counts as progress of a step,
# and the largest initial torsion, relative to the field, worth reducing.
_PROGRESS = 1e-6
_SMALLNESS = 0.1


def torsion_reduce(field: SpectralForm, tol: float = 1e-10,
                   max_iter: int = 25) -> tuple[SpectralForm, GluingReport]:
    """Iteratively remove torsion from a glued neck field by adding exact
    forms.

    ``field`` is a degree-3 field on a periodic neck grid, as glue_fields
    builds it; the report's length is L = grid length / 2.  A field on an
    interval grid raises ValueError, since the mode solver assumes the
    neck circle.

    Each step is _step against the measure torsion_residual took at the
    end of the previous step: its d(induced 4-form), and on a xi = 0 field
    that form's t-spectrum.  So each step stars the field once and
    differentiates only inside torsion_residual.  On a field
    holding only the xi = 0 mode a step leaves d(phi) bitwise alone, so
    the measured d(phi) is handed on and phi is differentiated once per
    reduction; a field with any xi != 0 mode is differentiated at every
    step.  A stop is a report, not an error: the field it stopped at comes
    back with its torsion and a stop_reason.  converged: torsion <= tol
    (sup norms).  max_iter: max_iter steps ran.  diverged: three
    consecutive steps did not lower the best torsion so far by more than a
    relative _PROGRESS (at the closedness floor the steps differ only in
    roundoff, which must not decide the step count), or the torsion is
    NaN.  above-smallness: the initial torsion exceeds _SMALLNESS relative
    to the field, and ``field`` itself comes back.
    """
    if not field.grid.periodic:
        raise ValueError("torsion reduction needs a field on the periodic neck")
    meas = torsion_residual(field)
    length = field.grid.length / 2
    if meas.worst > _SMALLNESS * max(norm_sup(field), 1e-30):
        return field, GluingReport.from_measure(length, meas, 0, "above-smallness")
    iterations = 0
    worse = 0
    best = meas.worst
    while meas.worst > tol and iterations < max_iter and worse < 3:
        field = _step(field, meas)
        zero_only = field.modes.keys() == {ZERO_XI}
        meas = torsion_residual(field, dphi=meas.dphi if zero_only else None)
        iterations += 1
        if meas.worst >= best * (1.0 - _PROGRESS):
            worse += 1
        else:
            worse = 0
            best = meas.worst
    reason = ("converged" if meas.worst <= tol else
              "max_iter" if worse < 3 and not math.isnan(meas.worst) else
              "diverged")
    return field, GluingReport.from_measure(length, meas, iterations, reason)


# -- torsion decay ---------------------------------------------------------

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


# -- synthetic half-cylinder structures ------------------------------------

def _model_vectors() -> tuple[np.ndarray, np.ndarray]:
    """Omega0 and omega0 as coefficient vectors on R^7."""
    return KForm7(3, Omega0().coeffs).tovector(), KForm7(2, omega0().coeffs).tovector()


def _envelope(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E and E': a C-infinity ramp from 0 to 1 on [0.75, 1.75] that keeps
    the synthetic perturbations off t = 0."""
    u = np.clip(t - 0.75, 0.0, 1.0)
    env, denv = np.zeros_like(u), np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    a = np.exp(-1.0 / ui)
    b = np.exp(-1.0 / (1.0 - ui))
    env[inside] = a / (a + b)
    env[u >= 1.0] = 1.0
    denv[inside] = (a / ui ** 2 * b + a * (b / (1.0 - ui) ** 2)) / (a + b) ** 2
    return env, denv


def _half(sign: int, rate: float, extent: float, density: int, band: int,
          modes) -> CylStructure:
    """The model pair perturbed on the grid of [0, extent] by the samples,
    keyed by cross-section frequency, of ``modes(E, E', e^{-rate t})``."""
    grid = TGrid.interval(0.0, extent, density)
    env, denv = _envelope(grid.points)
    decay = np.exp(-rate * grid.points)
    pert = SpectralForm(3, band, grid, modes(env, denv, decay), check=False)
    return CylStructure(Omega0(), omega0(), sign, pert, rate)


def flat_structure(sign: int, extent: float = 11.0, density: int = 64,
                   band: int = 2):
    """Exactly cylindrical half: the model pair with zero perturbation."""
    return _half(sign, 1.0, extent, density, band, lambda *_: {})


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
    if not 2 <= direction <= 7:
        raise ValueError("direction indexes a torus axis, 2..7")

    def modes(env, denv, decay):
        du = amplitude * (denv - rate * env) * decay
        dw = drift * (denv - rate * env) * decay
        if np.abs(dw).max() >= 0.9:
            raise ValueError("drift too large: t -> t + w(t) must stay monotone")
        big, small = _model_vectors()
        dt = _axis_wedge_matrix(1, 2)
        # Each term adds onto +0.0, so no -0.0 product reaches the samples.
        arr = np.zeros((env.size, 35))
        arr += np.outer(du, dt @ (_contract_table(7, 3)[direction - 1] @ big))
        arr += np.outer(sign * dw, dt @ small)
        return {ZERO_XI: arr}
    return _half(sign, rate, extent, density, band, modes)


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
    if not 2 <= direction <= 7 or not 2 <= modulation <= 7:
        raise ValueError("direction and modulation index torus axes, 2..7")
    if direction == modulation:
        raise ValueError("modulation along the translated axis is not a "
                         "well-defined torus map")

    def modes(env, denv, decay):
        a = amplitude * env * decay
        da = amplitude * (denv - rate * env) * decay
        big, small = _model_vectors()
        dt = _axis_wedge_matrix(1, 2)
        t1 = _contract_table(7, 3)[direction - 1] @ big
        t3 = _axis_wedge_matrix(modulation, 1) @ (
            _contract_table(7, 2)[direction - 1] @ small)
        arr = np.zeros((env.size, 35), dtype=complex)
        arr += np.outer(0.5 * da, dt @ t1)
        arr += np.outer(0.5j * a, _axis_wedge_matrix(modulation, 2) @ t1)
        arr += np.outer(0.5j * sign * a, dt @ t3)
        xi = tuple(int(d == modulation) for d in range(2, 8))
        return {xi: arr, tuple(-v for v in xi): np.conj(arr)}
    return _half(sign, rate, extent, density, band, modes)


def closed_perturbation_structure(sign: int, rate: float = 1.0,
                                  amplitude: float = 1e-2, component=(2, 4),
                                  extent: float = 11.0, density: int = 64,
                                  band: int = 2):
    """Half-cylinder structure perturbed by an exact decaying 3-form.

    The perturbation is d(g(t) zeta) = g'(t) dt ^ zeta for a constant
    cross-section 2-form zeta, with g = amplitude * E(t) e^{-rate t}; it
    is closed by construction and stays in the model cohomology class.
    """
    try:
        axes = tuple(operator.index(c) for c in component)
    except TypeError:
        axes = ()
    if len(axes) != 2 or not 2 <= axes[0] < axes[1] <= 7:
        raise ValueError("component must be two torus axes in increasing "
                         f"order, 2..7, got {component!r}")

    def modes(env, denv, decay):
        arr = np.zeros((env.size, 35))
        arr[:, basis_position(AXES7, 3)[(1,) + axes]] = (
            amplitude * (denv - rate * env) * decay)
        return {ZERO_XI: arr}
    return _half(sign, rate, extent, density, band, modes)
