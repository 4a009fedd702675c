"""Linear-algebra model of the two-region cohomology diagram.

A generalized connected sum is covered by two open halves meeting in a
cylindrical neck over a compact cross-section.  All the degree-by-degree
bookkeeping of that decomposition (the covering sequence, the two
compactly-supported sequences, the boundary restrictions and their
images) is finite-dimensional linear algebra once bases are fixed, so
this module represents the whole diagram as explicit matrices and checks
the structural identities by rank.

The payoff is the harmonic gluing map in each degree: a matching pair of
classes on the halves, together with an exact-parameter vector drawn
from the common orthogonal complement of the two boundary images,
determines a class on the sum.  Its dependence on the neck length is
affine, it degenerates precisely at a finite set of singular lengths
computed from a self-adjoint operator, and its degree-3 restriction
models the derivative of the nonlinear gluing construction.  A diagram
is immutable once built (its arrays are read-only), so it keeps every
length-independent solve itself: per degree the subspaces, the neck
operator and the pinv(K) section that the gluing matrix and the gluing
map read, per side the boundary-preimage projector, per distinguished
class the compressed derivative operator.  A scan over many lengths
solves each once, and the matrices of one shape that a check or a scan
ranks share one stacked SVD.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import ratmat

__all__ = [
    "B1NotZero",
    "BoundaryMembership",
    "CheckRecord",
    "DegreeBlock",
    "DerivativeModel",
    "DiagramReport",
    "HarmonicPair",
    "InconsistentTargets",
    "SingularBoundary",
    "Subspaces",
    "SumDiagram",
    "boundary_class_check",
    "diagram_from_json",
    "diagram_to_json",
    "derivative_model",
    "gluing_matrix",
    "load_diagram",
    "product_diagram",
    "sample_pair",
    "save_diagram",
    "shift_C",
    "singular_levels",
    "subspaces",
    "synth_diagram",
    "validate_C",
    "validate_diagram",
    "yh_full",
]

N_DEGREES = 8

DIM_KEYS = ("H_X", "H_Mplus", "H_Mminus", "Hcpt_Mplus", "Hcpt_Mminus", "H_M")

MAP_KEYS = (
    "jstar_plus", "jstar_minus",
    "e_plus", "e_minus",
    "del_plus", "del_minus",
    "istar_plus", "istar_minus",
    "ipush_plus", "ipush_minus",
    "mv_delta",
)

# (row node, column node, column degree offset) for each stored map, where
# a node is one of the dimension keys.  The boundary maps and the connecting
# map have their domain one degree below; each correction C± has the shape
# of its side's boundary map.
_MAP_NODES = {
    "jstar_plus": ("H_X", "H_Mplus", 0),
    "jstar_minus": ("H_X", "H_Mminus", 0),
    "e_plus": ("H_Mplus", "Hcpt_Mplus", 0),
    "e_minus": ("H_Mminus", "Hcpt_Mminus", 0),
    "del_plus": ("Hcpt_Mplus", "H_X", -1),
    "del_minus": ("Hcpt_Mminus", "H_X", -1),
    "istar_plus": ("H_Mplus", "H_M", 0),
    "istar_minus": ("H_Mminus", "H_M", 0),
    "ipush_plus": ("H_M", "Hcpt_Mplus", 0),
    "ipush_minus": ("H_M", "Hcpt_Mminus", 0),
    "mv_delta": ("H_M", "H_X", -1),
}

# Relative cut of the one rank rule, see ``_kept``.
_RANK_RTOL = 1e-10
# Neck-coordinate shift by which ``validate_C`` probes the shift rule.
_SHIFT_PROBE = 2.0


def _map_shapes(m: int, sizes: Mapping) -> dict[str, tuple[int, int]]:
    """Shape of every map at degree ``m`` from (node, degree) ``sizes``."""
    return {key: (sizes.get((row, m), 0), sizes.get((col, m + offset), 0))
            for key, (row, col, offset) in _MAP_NODES.items()}


class SingularBoundary(RuntimeError):
    """The boundary map fails to be injective on the exact-parameter space."""


class InconsistentTargets(ValueError):
    """Generator targets contradict each other."""


class B1NotZero(ValueError):
    """The diagram has first cohomology on the total space where none is allowed."""


def _as2d(a, shape: tuple[int, int]) -> np.ndarray:
    """``a`` as a float matrix, an empty one as zeros of ``shape``.
    SumDiagram checks every shape, once."""
    out = np.asarray(a, dtype=float)
    if out.size == 0 and 0 in shape:
        out = np.zeros(shape)
    return out


def _freeze(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Make ``arrays`` read-only and return them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _check_gram(ip: np.ndarray, m: int) -> None:
    """The cross-section pairing, of a checked shape, must be symmetric
    positive definite."""
    if not ip.size:
        return
    if np.abs(ip - ip.T).max() > 1e-12 * np.abs(ip).max():
        raise ValueError(f"ip_X at degree {m} is not symmetric")
    low = np.linalg.eigvalsh(ip)[0]
    if not low > 0.0:
        raise ValueError(f"ip_X at degree {m} is not positive definite: "
                         f"smallest eigenvalue {low:.3e}")


@dataclass(frozen=True)
class DegreeBlock:
    """All diagram data attached to a single degree.

    ``maps`` holds the eleven structure maps at this degree; matrices whose
    domain sits one degree below (the two boundary maps and the connecting
    map of the covering sequence) have column count equal to the
    cross-section dimension of the previous block.  ``ip_x`` is the positive
    definite pairing used for every orthogonality statement on the
    cross-section, and the two ``c_*`` matrices encode the neck correction
    consumed by the harmonic gluing formula.  ``dims`` and ``maps`` are
    kept as read-only views of copies, so no entry can be swapped later.
    """

    m: int
    dims: Mapping[str, int]
    maps: Mapping[str, np.ndarray]
    ip_x: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", MappingProxyType(dict(self.dims)))
        object.__setattr__(self, "maps", MappingProxyType(dict(self.maps)))


@dataclass(frozen=True)
class SumDiagram:
    """Eight degree blocks plus cross-degree shape consistency.

    Construction marks every map, pairing and correction array read-only.
    The diagram keeps each length-independent solve, read-only, from the
    first time it is asked for.  ``_fixed`` holds those C± does not enter,
    which a ``shift_C`` shares: per degree m the ``subspaces``, and the
    ("section", m) and ("side", m, ±1) arrays; ``_solved`` holds the
    ``operator`` per degree and the compressed derivative operators.
    """

    degrees: tuple[DegreeBlock, ...]
    _fixed: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _solved: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _sizes: dict[tuple[str, int], int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.degrees) != N_DEGREES:
            raise ValueError(f"expected {N_DEGREES} degree blocks")
        self._sizes.update(((key, m), n) for m, blk in enumerate(self.degrees)
                           for key, n in blk.dims.items())
        for m, blk in enumerate(self.degrees):
            if blk.m != m:
                raise ValueError("degree blocks out of order")
            missing = set(DIM_KEYS) - set(blk.dims)
            if missing:
                raise ValueError(f"degree {m} missing dims {sorted(missing)}")
            shapes = _map_shapes(m, self._sizes)
            for key, want in shapes.items():
                got = blk.maps[key].shape
                if got != want:
                    raise ValueError(
                        f"{key} at degree {m}: shape {got}, expected {want}")
            hx = blk.dims["H_X"]
            if blk.ip_x.shape != (hx, hx):
                raise ValueError(f"ip_X at degree {m} has wrong shape")
            if blk.c_plus.shape != shapes["del_plus"]:
                raise ValueError(f"C_plus at degree {m} has wrong shape")
            if blk.c_minus.shape != shapes["del_minus"]:
                raise ValueError(f"C_minus at degree {m} has wrong shape")
            _freeze(*blk.maps.values(), blk.ip_x, blk.c_plus, blk.c_minus)

    def dim(self, key: str, m: int) -> int:
        if not 0 <= m < N_DEGREES:
            return 0
        return self.degrees[m].dims[key]

    def mat(self, key: str, m: int) -> np.ndarray:
        """Structure map at degree ``m``, a zero-width matrix out of range."""
        if 0 <= m < N_DEGREES:
            return self.degrees[m].maps[key]
        return np.zeros(_map_shapes(m, self._sizes)[key])

    def gram(self, m: int) -> np.ndarray:
        if 0 <= m < N_DEGREES:
            return self.degrees[m].ip_x
        return np.zeros((0, 0))

    def c_mat(self, side: int, m: int) -> np.ndarray:
        if 0 <= m < N_DEGREES:
            blk = self.degrees[m]
            return blk.c_plus if side > 0 else blk.c_minus
        return np.zeros((0, 0))

    def subspaces(self, m: int) -> Subspaces:
        """``subspaces(self, m)``, solved on first use and kept."""
        if m not in self._fixed:
            # The module-level function, so that wrapping it sees each solve.
            sub = subspaces(self, m)
            _freeze(*(getattr(sub, f.name) for f in fields(sub)))
            self._fixed[m] = sub
        return self._fixed[m]

    def operator(self, m: int):
        """(op, E, Z) of ``_common_operator`` over degree m - 1, kept.

        Its boundary-map rank decisions follow the one rule of ``_kept``;
        no caller's tolerance enters the solve.
        """
        if m not in self._solved:
            self._solved[m] = _freeze(*_common_operator(
                self, m, self.subspaces(m - 1)))
        return self._solved[m]


# ---------------------------------------------------------------------------
# basic subspace machinery


def _kept(s: np.ndarray, shape: tuple[int, ...],
          tol: float = _RANK_RTOL) -> int:
    """The one rank rule: the count of descending singular values ``s`` of
    a ``shape`` matrix above tol·max(shape)·s₀.  The ``pinv`` and ``lstsq``
    calls of the diagram layer drop the rest with rcond = tol·max(shape).
    """
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > tol * max(shape) * s[0]))


def _rank(a: np.ndarray, tol: float = _RANK_RTOL, exact: bool = False) -> int:
    if a.size == 0:
        return 0
    if exact:
        return ratmat.rank(ratmat.asfrac(a))
    return _kept(np.linalg.svd(a, compute_uv=False), a.shape, tol)


def _ranks(mats: list[np.ndarray], tol: float = _RANK_RTOL,
           exact: bool = False) -> list[int]:
    """``_rank`` of each matrix.  Matrices of one shape share one stacked
    SVD, whose singular values are those of the matrices one by one."""
    if exact:
        return [_rank(a, tol, exact) for a in mats]
    ranks, by_shape = [0] * len(mats), {}
    for i, a in enumerate(mats):
        if a.size:
            by_shape.setdefault(a.shape, []).append(i)
    for shape, idx in by_shape.items():
        svals = np.linalg.svd(np.stack([mats[i] for i in idx]),
                              compute_uv=False)
        for i, s in zip(idx, svals):
            ranks[i] = _kept(s, shape, tol)
    return ranks


def _gram_orth(cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span in the pairing w wᵀ."""
    n = w.shape[0]
    if cols.size == 0:
        return np.zeros((n, 0))
    y = w.T @ cols
    u, s, _ = np.linalg.svd(y, full_matrices=False)
    r = _kept(s, y.shape)
    if r == 0:
        return np.zeros((n, 0))
    return np.linalg.solve(w.T, u[:, :r])


def _gram_complement(basis: np.ndarray, gram: np.ndarray,
                     w: np.ndarray) -> np.ndarray:
    """Orthogonal complement of an already-orthonormal basis."""
    # Vectors annihilated by basis^T G form the complement; orthonormalize.
    return _gram_orth(_nullspace(basis.T @ gram), w)


def _nullspace(a: np.ndarray) -> np.ndarray:
    if a.shape[1] == 0:
        return np.zeros((a.shape[1], 0))
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    return vt[_kept(s, a.shape):].T


def _intersect(u: np.ndarray, v: np.ndarray, gram: np.ndarray,
               w: np.ndarray) -> np.ndarray:
    """Intersection of two subspaces given by orthonormal bases.

    Its dimension k is the nullity of [u | -v]; its basis is spanned by the
    k leading principal directions of u against v.
    """
    both = np.hstack([u, -v])
    k = both.shape[1] - _rank(both) if u.shape[1] and v.shape[1] else 0
    if k == 0:
        return np.zeros((gram.shape[0], 0))
    uu, _, _ = np.linalg.svd(u.T @ gram @ v)
    return _gram_orth(u @ uu[:, :k], w)


@dataclass(frozen=True)
class Subspaces:
    """Boundary-image decomposition of the cross-section cohomology.

    ``a_plus``/``a_minus`` span the images of the two restriction maps,
    ``e_plus``/``e_minus`` their orthogonal complements, ``a_common`` and
    ``e_common`` the pairwise intersections, and ``projector`` is the
    orthogonal projector onto ``e_common``.  All bases are orthonormal with
    respect to the stored cross-section pairing.
    """

    a_plus: np.ndarray
    a_minus: np.ndarray
    a_common: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_common: np.ndarray
    projector: np.ndarray


def subspaces(d: SumDiagram, m: int) -> Subspaces:
    """The boundary-image decomposition at degree ``m``.  One Cholesky
    factor w of the pairing serves every basis; equal halves share solves."""
    gram = d.gram(m)
    w = np.linalg.cholesky(gram) if gram.size else gram
    jplus, jminus = d.mat("jstar_plus", m), d.mat("jstar_minus", m)
    a_plus = _gram_orth(jplus, w)
    e_plus = _gram_complement(a_plus, gram, w)
    if jplus.shape == jminus.shape and jplus.tobytes() == jminus.tobytes():
        a_minus, e_minus = a_plus, e_plus
    else:
        a_minus = _gram_orth(jminus, w)
        e_minus = _gram_complement(a_minus, gram, w)
    a_common = _intersect(a_plus, a_minus, gram, w)
    e_common = _intersect(e_plus, e_minus, gram, w)
    projector = e_common @ e_common.T @ gram
    return Subspaces(a_plus, a_minus, a_common, e_plus, e_minus, e_common,
                     projector)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckRecord:
    name: str
    degree: int
    passed: bool
    detail: str


@dataclass(frozen=True)
class DiagramReport:
    checks: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _comp_norm(outgoing: np.ndarray, incoming: np.ndarray) -> float:
    if outgoing.size == 0 or incoming.size == 0:
        return 0.0
    return float(np.abs(outgoing @ incoming).max(initial=0.0))


def validate_diagram(d: SumDiagram, *, tol: float = 1e-10,
                     exact: bool = False) -> DiagramReport:
    """Check every structural identity the diagram is supposed to satisfy.

    Runs rank-exactness and composite-vanishing at each node of the
    covering sequence and of both compactly-supported sequences, the
    factorization of the connecting map through either half, the duality
    rank condition pairing each restriction with the boundary map in
    complementary degree, and the degree-1 half-dimensionality statement
    when the total space has no degree-1 cohomology.  Failures are
    collected in the report rather than raised, so a corrupted diagram can
    be diagnosed in one pass.  ``exact`` switches the rank computations to
    rational arithmetic, which is worthwhile for integer-valued diagrams.
    """
    rec: list[CheckRecord] = []
    # Each map the checks read, with its rank and largest entry taken once.
    mats = {(key, m): d.mat(key, m) for m in range(N_DEGREES + 1)
            for key in ("jstar_plus", "jstar_minus", "e_plus", "e_minus",
                        "del_plus", "del_minus", "mv_delta")}
    for m in range(N_DEGREES):
        mats["kmap", m] = np.vstack([d.mat("istar_plus", m),
                                     d.mat("istar_minus", m)])
        mats["jdiff", m] = np.hstack([mats["jstar_plus", m],
                                      -mats["jstar_minus", m]])
    ranks = dict(zip(mats, _ranks(list(mats.values()), tol, exact)))
    peaks = {key: float(np.abs(a).max()) if a.size else 0.0
             for key, a in mats.items()}

    def node(name, m, incoming, outgoing, dim):
        r_in, r_out = ranks[incoming], ranks[outgoing]
        rec.append(CheckRecord(
            f"{name}-rank", m, r_in + r_out == dim,
            f"rank(in)={r_in} rank(out)={r_out} dim={dim}"))
        comp = _comp_norm(mats[outgoing], mats[incoming])
        scale = 1.0 + peaks[incoming] + peaks[outgoing]
        rec.append(CheckRecord(f"{name}-composite", m, comp <= tol * scale,
                               f"|out∘in|={comp:.3e}"))

    for m in range(N_DEGREES):
        # Covering sequence, three nodes per degree.
        node("cover-total", m, ("mv_delta", m), ("kmap", m), d.dim("H_M", m))
        node("cover-halves", m, ("kmap", m), ("jdiff", m),
             d.dim("H_Mplus", m) + d.dim("H_Mminus", m))
        node("cover-section", m, ("jdiff", m), ("mv_delta", m + 1),
             d.dim("H_X", m))
        for tag in ("plus", "minus"):
            node(f"rel-{tag}-cpt", m, (f"del_{tag}", m), (f"e_{tag}", m),
                 d.dim(f"Hcpt_M{tag}", m))
            node(f"rel-{tag}-half", m, (f"e_{tag}", m), (f"jstar_{tag}", m),
                 d.dim(f"H_M{tag}", m))
            node(f"rel-{tag}-section", m, (f"jstar_{tag}", m),
                 (f"del_{tag}", m + 1), d.dim("H_X", m))
        # Connecting map factors through either half, with opposite signs.
        for sign, tag in ((1.0, "plus"), (-1.0, "minus")):
            prod = d.mat(f"ipush_{tag}", m) @ mats[f"del_{tag}", m]
            diff = mats["mv_delta", m] - sign * prod
            err = float(np.abs(diff).max()) if diff.size else 0.0
            scale = 1.0 + (float(np.abs(prod).max()) if prod.size else 0.0)
            rec.append(CheckRecord(f"delta-factor-{tag}", m, err <= tol * scale,
                                   f"|δ∓push∘bdry|={err:.3e}"))
        # Duality: restriction at degree m pairs with the boundary map whose
        # domain is the complementary cross-section degree 6-m.
        for tag in ("plus", "minus"):
            rj, rd = ranks[f"jstar_{tag}", m], ranks[f"del_{tag}", 7 - m]
            ok = rj + rd == d.dim("H_X", m)
            rec.append(CheckRecord(
                f"duality-{tag}", m, ok,
                f"rank(restriction)={rj} rank(bdry@{7 - m})={rd} "
                f"dim={d.dim('H_X', m)}"))
    if d.dim("H_M", 1) == 0:
        hx1 = d.dim("H_X", 1)
        for tag in ("plus", "minus"):
            rj = ranks[f"jstar_{tag}", 1]
            rec.append(CheckRecord(
                f"halfdim-{tag}", 1, 2 * rj == hx1,
                f"2*rank(restriction)={2 * rj} dim={hx1}"))
    return DiagramReport(tuple(rec))


# ---------------------------------------------------------------------------
# the neck-correction operator


def _side_preimages(d: SumDiagram, m: int, side: int,
                    taus: np.ndarray) -> np.ndarray:
    """Boundary-map preimages of C(taus), reduced to the complement block.

    The boundary map kills exactly the boundary image one degree below, so
    preimages are unique up to that subspace and projecting onto its
    orthogonal complement picks a canonical representative.  Raises
    SingularBoundary when the boundary map degenerates on the complement,
    which an exact diagram never allows.
    """
    dmat = d.mat("del_plus" if side > 0 else "del_minus", m)
    if ("side", m, side) not in d._fixed:
        sub = d.subspaces(m - 1)
        e_basis = sub.e_plus if side > 0 else sub.e_minus
        if e_basis.shape[1] and _rank(dmat @ e_basis) < e_basis.shape[1]:
            raise SingularBoundary(
                f"boundary map on side {'+' if side > 0 else '-'} "
                f"degenerates on the degree-{m - 1} exact-parameter space")
        d._fixed["side", m, side], = _freeze(
            e_basis @ e_basis.T @ d.gram(m - 1))
    cmat = d.c_mat(side, m)
    if taus.size == 0 or cmat.size == 0:
        return np.zeros((d.dim("H_X", m - 1), taus.shape[1]))
    rhs = cmat @ taus
    sol, *_ = np.linalg.lstsq(dmat, rhs, rcond=_RANK_RTOL * max(dmat.shape))
    return d._fixed["side", m, side] @ sol


def _common_operator(d: SumDiagram, m: int, sub: Subspaces):
    """(op, E, Z): neck operator, common-complement basis, preimages of C(E).

    Z sums the two canonical boundary preimages of C(E), column by column;
    this is the one place they are solved.  ``sub`` is
    ``subspaces(d, m - 1)``; ``SumDiagram.operator`` is the caller.
    """
    basis = sub.e_common
    if basis.shape[1] == 0:
        return np.zeros((0, 0)), basis, basis
    z = (_side_preimages(d, m, +1, basis)
         + _side_preimages(d, m, -1, basis))
    op = basis.T @ d.gram(m - 1) @ z
    return 0.5 * (op + op.T), basis, z


def singular_levels(d: SumDiagram, m: int) -> np.ndarray:
    """Neck lengths at which the degree-m harmonic gluing map degenerates.

    Each eigenvalue lam of the neck operator contributes the level -lam/2;
    the map is an isomorphism at every other length.  Sorted ascending.
    """
    op, _, _ = d.operator(m)
    if op.shape[0] == 0:
        return np.zeros(0)
    return np.sort(-0.5 * np.linalg.eigvalsh(op))


def validate_C(d: SumDiagram, *, tol: float = 1e-10) -> DiagramReport:
    """Check the neck-correction matrices against their defining properties.

    Per degree and side: the correction must vanish under the extension
    map, land inside the image of the boundary map, and induce a
    self-adjoint operator on the complement of the boundary image.  The
    ``_SHIFT_PROBE`` shift verifies that moving the neck coordinate acts on
    the combined operator as an exact multiple of the identity; the shifted
    diagram solves its operators afresh.  ``tol`` bounds each residual;
    the boundary-map rank decisions follow the one rule of ``_kept``.
    """
    rec: list[CheckRecord] = []
    shifted = shift_C(d, _SHIFT_PROBE)
    for m in range(1, N_DEGREES):
        if d.dim("H_X", m - 1) == 0:
            continue
        sub = d.subspaces(m - 1)
        for side, tag in ((1, "plus"), (-1, "minus")):
            cmat = d.c_mat(side, m)
            if cmat.size == 0:
                continue
            e_basis = sub.e_plus if side > 0 else sub.e_minus
            emap = d.mat(f"e_{tag}", m)
            kill = _comp_norm(emap, cmat)
            scale = 1.0 + float(np.abs(cmat).max())
            rec.append(CheckRecord(f"corr-killed-{tag}", m,
                                   kill <= tol * scale,
                                   f"|ext∘corr|={kill:.3e}"))
            dmat = d.mat(f"del_{tag}", m)
            img, s, _ = np.linalg.svd(dmat, full_matrices=False)
            img = img[:, :_kept(s, dmat.shape)]
            resid = cmat - img @ (img.T @ cmat) if img.size else cmat
            rnorm = float(np.abs(resid).max()) if resid.size else 0.0
            rec.append(CheckRecord(f"corr-in-bdry-image-{tag}", m,
                                   rnorm <= tol * scale,
                                   f"image residual={rnorm:.3e}"))
            if e_basis.shape[1]:
                z = _side_preimages(d, m, side, e_basis)
                op = e_basis.T @ d.gram(m - 1) @ z
                asym = float(np.abs(op - op.T).max())
                opscale = 1.0 + float(np.abs(op).max())
                rec.append(CheckRecord(f"corr-selfadjoint-{tag}", m,
                                       asym <= tol * opscale,
                                       f"asymmetry={asym:.3e}"))
        op0, _, _ = d.operator(m)
        if op0.shape[0]:
            op1, _, _ = shifted.operator(m)
            drift = float(np.abs(op1 - op0 - _SHIFT_PROBE * np.eye(op0.shape[0])).max())
            rec.append(CheckRecord(
                "corr-shift-rule", m, drift <= tol * (1.0 + abs(_SHIFT_PROBE)),
                f"|shifted-op - op - λI|={drift:.3e}"))
    return DiagramReport(tuple(rec))


def shift_C(d: SumDiagram, lam: float) -> SumDiagram:
    """Move the neck coordinate by ``lam``.

    The shift adds half of ``lam`` times the boundary map to each side's
    correction, so the combined operator on the common complement gains
    exactly ``lam`` times the identity and every singular level drops by
    ``lam / 2``.  The boundary images do not move, so the result shares
    every solve of ``d`` that C± does not enter; its operators are its
    own.
    """
    blocks = []
    for m, blk in enumerate(d.degrees):
        blocks.append(replace(
            blk,
            c_plus=blk.c_plus + 0.5 * lam * d.mat("del_plus", m),
            c_minus=blk.c_minus + 0.5 * lam * d.mat("del_minus", m),
        ))
    shifted = SumDiagram(tuple(blocks))
    object.__setattr__(shifted, "_fixed", d._fixed)
    return shifted


# ---------------------------------------------------------------------------
# the harmonic gluing map


@dataclass(frozen=True)
class HarmonicPair:
    """Input to the harmonic gluing map at a fixed degree.

    ``a_plus`` and ``a_minus`` are classes on the two halves whose
    restrictions to the cross-section agree; ``tau`` parameterizes the
    exact contribution and must lie in the common complement of the two
    boundary images one degree below.
    """

    m: int
    a_plus: np.ndarray
    a_minus: np.ndarray
    tau: np.ndarray


def sample_pair(d: SumDiagram, m: int,
                rng: np.random.Generator) -> HarmonicPair:
    """Random valid input: restrict a random total class, random exact part."""
    y = rng.standard_normal(d.dim("H_M", m))
    sub = d.subspaces(m - 1)
    k = sub.e_common.shape[1]
    tau = sub.e_common @ rng.standard_normal(k) if k else \
        np.zeros(d.dim("H_X", m - 1))
    return HarmonicPair(m, d.mat("istar_plus", m) @ y,
                        d.mat("istar_minus", m) @ y, tau)


def _yh_exact(d: SumDiagram, m: int, tau: np.ndarray, length: float, *,
              tol: float = 1e-10) -> np.ndarray:
    """Exact-parameter part of the harmonic gluing map, affine in the length.

    With E, Z from ``_common_operator`` and c = Eᵀ G τ the coordinates of
    ``tau`` in E, the result is δ(Z c + 2L τ): the connecting map applied
    to the canonical boundary preimages of the corrections plus twice the
    neck length times ``tau`` itself.  The preimage ambiguity lies in the
    boundary images, which the connecting map kills, so the result does
    not depend on that choice.
    """
    tau = np.asarray(tau, dtype=float)
    hx = d.dim("H_X", m - 1)
    if tau.shape != (hx,):
        raise ValueError(f"exact parameter must have length {hx}")
    if hx == 0:
        return np.zeros(d.dim("H_M", m))
    _, basis, z = d.operator(m)
    gram = d.gram(m - 1)
    coords = basis.T @ gram @ tau
    resid = tau - basis @ coords
    norm = float(np.sqrt(max(tau @ gram @ tau, 0.0)))
    if float(np.sqrt(max(resid @ gram @ resid, 0.0))) > tol * (1.0 + norm):
        raise ValueError(
            "exact parameter is not orthogonal to both boundary images")
    return d.mat("mv_delta", m) @ (z @ coords + 2.0 * length * tau)


def _restriction(d: SumDiagram, m: int) -> np.ndarray:
    """K = [istar₊; istar₋]: a total class restricted to both halves."""
    return np.vstack([d.mat("istar_plus", m), d.mat("istar_minus", m)])


def _section(d: SumDiagram, m: int) -> np.ndarray:
    """pinv(K), the section of the two-sided restriction, solved once per
    degree and kept read-only."""
    if ("section", m) not in d._fixed:
        kmap = _restriction(d, m)
        d._fixed["section", m], = _freeze(
            np.linalg.pinv(kmap, rcond=_RANK_RTOL * max(kmap.shape)))
    return d._fixed["section", m]


def yh_full(d: SumDiagram, m: int, pair: HarmonicPair, length: float, *,
            tol: float = 1e-10) -> np.ndarray:
    """Harmonic gluing map: matching pair plus exact parameter to total class.

    The matching part is lifted through the pseudo-inverse of the two-sided
    restriction; another right-inverse would move the output by elements
    of the image of the connecting map only, which never affects rank
    diagnostics.  The restriction of the output back to the halves
    reproduces the input pair.
    """
    if pair.m != m:
        raise ValueError("pair degree does not match request")
    jp = d.mat("jstar_plus", m) @ pair.a_plus
    jm = d.mat("jstar_minus", m) @ pair.a_minus
    scale = 1.0 + float(np.abs(jp).max(initial=0.0)) + \
        float(np.abs(jm).max(initial=0.0))
    if jp.size and float(np.abs(jp - jm).max(initial=0.0)) > tol * scale:
        raise ValueError("pair restrictions disagree on the cross-section")
    kmap = _restriction(d, m)
    target = np.concatenate([pair.a_plus, pair.a_minus])
    y0 = _section(d, m) @ target
    back = kmap @ y0 - target
    if back.size and float(np.abs(back).max(initial=0.0)) > \
            tol * (1.0 + float(np.abs(target).max(initial=0.0))):
        raise ValueError("pair is not realizable by a total class")
    return y0 + _yh_exact(d, m, pair.tau, length, tol=tol)


def gluing_matrix(d: SumDiagram, m: int, length: float) -> np.ndarray:
    """Matrix of the harmonic gluing map over a spanning input set.

    G(L) = [section·K | δ(Z + 2L·E)], affine in the length.  The first
    block holds the images of a basis of total classes (restricted to both
    halves by K, exact part zero); the second holds ``_yh_exact`` of each
    column of the common-complement basis E, with E and Z read from
    ``_common_operator``.  Rank equal to the total-space dimension is the
    brute-force isomorphism test.  ``d`` keeps the section, so a call on
    a solved degree costs two block products.
    """
    _, basis, z = d.operator(m)
    exact = d.mat("mv_delta", m) @ (z + 2.0 * length * basis)
    return np.hstack([_section(d, m) @ _restriction(d, m), exact])


# ---------------------------------------------------------------------------
# degree-3 derivative model and membership checks


@dataclass(frozen=True)
class DerivativeModel:
    """Assembled derivative of the gluing construction at a neck length.

    ``matrix`` acts on the exact block orthogonal to the distinguished
    degree-2 class, extended by the one-dimensional length direction.
    ``f_spectrum`` is the spectrum of the compressed neck operator whose
    eigenvalues determine the singular lengths; ``bijective`` reports
    whether the chosen length avoids them all.  ``sigma_min`` is the
    smallest singular value of the exact block alone: the length column is
    length-independent by construction, so only the exact block can
    degenerate as the length varies, and only its conditioning grows once
    the length clears the singular set.  Infinite when the exact block has
    no columns.
    """

    length: float
    matrix: np.ndarray
    f_spectrum: np.ndarray
    bijective: bool
    sigma_min: float

    @property
    def singular_lengths(self) -> np.ndarray:
        return np.sort(-0.5 * self.f_spectrum)


def derivative_model(d: SumDiagram, omega_class: np.ndarray, length: float, *,
                     tol: float = 1e-10) -> DerivativeModel:
    """Model the derivative of the gluing map in the structure-form degree.

    Requires the total space to have no degree-1 cohomology.  The exact
    block composes the neck operator with the projection orthogonal to the
    distinguished class inside the common complement, the extra direction
    scales the connecting image of that class, and bijectivity holds
    precisely when minus twice the length misses the compressed spectrum.
    ``tol`` is only the norm below which the class counts as orthogonal
    to the common complement.  ``d`` keeps the length-independent part.
    """
    if d.dim("H_M", 1) != 0:
        raise B1NotZero(
            "derivative model requires trivial degree-1 cohomology on the "
            "total space")
    omega_class = np.asarray(omega_class, dtype=float)
    if omega_class.shape != (d.dim("H_X", 2),):
        raise ValueError("distinguished class must live on the degree-2 "
                         "cross-section")
    op, basis, _ = d.operator(3)
    delta = d.mat("mv_delta", 3)
    key = ("compressed", omega_class.tobytes(), tol)
    if key not in d._solved:
        k = basis.shape[1]
        w_coords = basis.T @ d.gram(2) @ omega_class if k else np.zeros(0)
        wnorm = float(np.linalg.norm(w_coords))
        if k and wnorm > tol:
            comp = _nullspace(w_coords.reshape(1, -1) / wnorm)
        else:
            comp = np.eye(k)
        f_mat = comp.T @ op @ comp
        f_mat = 0.5 * (f_mat + f_mat.T)
        spec = np.linalg.eigvalsh(f_mat) if f_mat.size else np.zeros(0)
        d._solved[key] = _freeze(
            comp, comp @ f_mat, spec,
            (2.0 * (delta @ omega_class)).reshape(-1, 1))
    comp, comp_f, spec, class_col = d._solved[key]
    cols = []
    exact_block = np.zeros((d.dim("H_M", 3), 0))
    if comp.shape[1]:
        action = 2.0 * length * comp + comp_f
        exact_block = delta @ (basis @ action)
        cols.append(exact_block)
    cols.append(class_col)
    matrix = np.hstack(cols)
    bij = bool(np.all(np.abs(2.0 * length + spec) >= 1e-8)) if spec.size else True
    if exact_block.size:
        sigma = float(np.linalg.svd(exact_block, compute_uv=False)[-1])
    else:
        sigma = float("inf")
    return DerivativeModel(length, matrix, spec.copy(), bij, sigma)


@dataclass(frozen=True)
class BoundaryMembership:
    """Per-side answer to the necessary-condition membership test."""

    structure3_plus: bool
    structure3_minus: bool
    square4_plus: bool
    square4_minus: bool

    @property
    def plus(self) -> bool:
        return self.structure3_plus and self.square4_plus

    @property
    def minus(self) -> bool:
        return self.structure3_minus and self.square4_minus


def boundary_class_check(d: SumDiagram, structure_class: np.ndarray,
                         square_class: np.ndarray, *,
                         tol: float = 1e-10) -> BoundaryMembership:
    """Test the necessary gluing condition on a candidate class pair.

    The degree-3 structure class and the degree-4 square class must both
    restrict from each half, i.e. lie in the corresponding boundary
    images: a class v is in an image when v minus its projection onto the
    kept basis ``a_plus`` or ``a_minus`` of ``d.subspaces``, orthonormal
    in the pairing, is within tol * (1 + max|v|) of zero.
    """
    inside = []
    for m, vec in ((3, structure_class), (4, square_class)):
        vec = np.asarray(vec, dtype=float)
        sub, gram = d.subspaces(m), d.gram(m)
        bound = tol * (1.0 + float(np.abs(vec).max(initial=0.0)))
        for basis in (sub.a_plus, sub.a_minus):
            resid = vec - basis @ (basis.T @ (gram @ vec))
            inside.append(float(np.abs(resid).max(initial=0.0)) <= bound)
    return BoundaryMembership(*inside)


# ---------------------------------------------------------------------------
# generator


class _Builder:
    """Accumulates strand coordinates and sparse map entries."""

    def __init__(self):
        self.counts = {
            (node, m): 0 for node in DIM_KEYS for m in range(N_DEGREES)}
        self.entries: list[tuple[str, int, int, int, float]] = []
        self.c_entries: list[tuple[int, int, int, int, float]] = []

    def coord(self, node: str, m: int) -> int:
        idx = self.counts[(node, m)]
        self.counts[(node, m)] = idx + 1
        return idx

    def put(self, key: str, m: int, row: int, col: int, val: float) -> None:
        self.entries.append((key, m, row, col, val))

    def put_c(self, side: int, m: int, row: int, col: int, val: float) -> None:
        self.c_entries.append((side, m, row, col, val))

    def blocks(self) -> tuple[DegreeBlock, ...]:
        blocks = []
        for m in range(N_DEGREES):
            dims = {node: self.counts[(node, m)] for node in DIM_KEYS}
            shapes = _map_shapes(m, self.counts)
            blocks.append(DegreeBlock(
                m, dims, {key: np.zeros(shapes[key]) for key in MAP_KEYS},
                np.eye(dims["H_X"]), np.zeros(shapes["del_plus"]),
                np.zeros(shapes["del_minus"])))
        for key, m, row, col, val in self.entries:
            blocks[m].maps[key][row, col] = val
        for side, m, row, col, val in self.c_entries:
            target = blocks[m].c_plus if side > 0 else blocks[m].c_minus
            target[row, col] = val
        return tuple(blocks)


def _strand_shared(b: _Builder, m: int) -> None:
    """A class living on everything at once: both halves, section, total."""
    x = b.coord("H_X", m)
    p = b.coord("H_Mplus", m)
    q = b.coord("H_Mminus", m)
    t = b.coord("H_M", m)
    b.put("jstar_plus", m, x, p, 1.0)
    b.put("jstar_minus", m, x, q, 1.0)
    b.put("istar_plus", m, p, t, 1.0)
    b.put("istar_minus", m, q, t, 1.0)


def _strand_onesided(b: _Builder, m: int, side: int) -> int:
    """A section class restricting from one half only.

    On the opposite half it is detected by the boundary map, which feeds a
    compactly supported class one degree up; that class dies under both
    the extension map and the pushforward, keeping every node exact.
    Returns the section coordinate.
    """
    x = b.coord("H_X", m)
    if side > 0:
        p = b.coord("H_Mplus", m)
        b.put("jstar_plus", m, x, p, 1.0)
        c = b.coord("Hcpt_Mminus", m + 1)
        b.put("del_minus", m + 1, c, x, 1.0)
    else:
        q = b.coord("H_Mminus", m)
        b.put("jstar_minus", m, x, q, 1.0)
        c = b.coord("Hcpt_Mplus", m + 1)
        b.put("del_plus", m + 1, c, x, 1.0)
    return x


def _strand_neck(b: _Builder, m: int) -> tuple[int, int, int]:
    """A section class invisible to both halves.

    Both boundary maps detect it, the connecting map carries it to a fresh
    total-space class one degree up, and the two pushforwards reach that
    class with opposite signs so the factorization identity holds exactly.
    Returns (section coordinate, cpt+ coordinate, cpt- coordinate).
    """
    x = b.coord("H_X", m)
    cp = b.coord("Hcpt_Mplus", m + 1)
    cm = b.coord("Hcpt_Mminus", m + 1)
    z = b.coord("H_M", m + 1)
    b.put("del_plus", m + 1, cp, x, 1.0)
    b.put("del_minus", m + 1, cm, x, 1.0)
    b.put("mv_delta", m + 1, z, x, 1.0)
    b.put("ipush_plus", m + 1, z, cp, 1.0)
    b.put("ipush_minus", m + 1, z, cm, -1.0)
    return x, cp, cm


def _unimodular(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random integer matrix with unit determinant, plus its exact inverse.

    Built from elementary shears and a signed permutation so the inverse
    can be accumulated alongside; all entries stay small integers and
    every float involved is exact.
    """
    t = np.eye(n)
    tinv = np.eye(n)
    if n < 2:
        return t, tinv
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False)
        k = float(rng.integers(-1, 2))
        if k:  # t ← t (I + k e_i e_jᵀ) and tinv ← (I - k e_i e_jᵀ) tinv
            t[:, j] += k * t[:, i]
            tinv[i] -= k * tinv[j]
    perm = rng.permutation(n)
    signs = rng.choice([-1.0, 1.0], size=n)
    # t' = t P S with P the permutation matrix; invert by S P^T on the left.
    t = t[:, perm] * signs
    tinv = (signs[:, None] * tinv[perm])
    return t, tinv


def _conjugate(blocks: tuple[DegreeBlock, ...],
               rng: np.random.Generator) -> tuple[DegreeBlock, ...]:
    """Change basis at every node by random unimodular integer matrices.

    Exactness, factorization, duality ranks, spectra, and self-adjointness
    are all basis-invariant once the cross-section pairing is transported
    along, so the output is an equally valid diagram with none of the
    construction coordinates showing.
    """
    t = {}
    tinv = {}
    for node in DIM_KEYS:
        for m in range(N_DEGREES):
            t[node, m], tinv[node, m] = _unimodular(rng, blocks[m].dims[node])
    moved = []
    for m, blk in enumerate(blocks):
        def move(key, mat):
            if not mat.size:
                return mat
            row, col, offset = _MAP_NODES[key]
            return t[row, m] @ mat @ tinv[col, m + offset]
        maps = {key: move(key, blk.maps[key]) for key in MAP_KEYS}
        tx = tinv["H_X", m]
        ip = tx.T @ blk.ip_x @ tx
        moved.append(DegreeBlock(m, blk.dims, maps, ip,
                                 move("del_plus", blk.c_plus),
                                 move("del_minus", blk.c_minus)))
    return tuple(moved)


def product_diagram(betti: tuple[int, ...]) -> SumDiagram:
    """Degenerate diagram of a cylinder-like pair over one cross-section.

    Every class extends to both halves and to the total space, nothing is
    compactly supported, and all connecting data vanishes; the given
    cross-section dimensions are used verbatim for the halves and the
    total space.  The top degree is empty.
    """
    if len(betti) != 7:
        raise ValueError("need one cross-section dimension per degree 0..6")
    b = _Builder()
    for m, dim in enumerate(betti):
        for _ in range(int(dim)):
            _strand_shared(b, m)
    return SumDiagram(b.blocks())


def synth_diagram(seed: int, dim_e2d: int = 0,
                  spectrum: tuple[float, ...] = (), *,
                  b1_zero: bool = True,
                  scramble: bool = True) -> SumDiagram:
    """Generate a diagram that passes every validation by construction.

    The diagram is a direct sum of elementary exact strands: shared
    classes at the end degrees and in the middle, matched one-sided
    strands wherever a half needs cohomology of its own, and neck strands
    in degrees 2 and 4 carrying the requested common-complement dimension.
    The correction matrices are built from a symmetric seed whose combined
    operator has exactly the prescribed spectrum; a final change of basis
    by unimodular integer matrices hides the construction coordinates
    while keeping every identity exact.
    """
    spectrum = tuple(float(v) for v in spectrum)
    if len(spectrum) != dim_e2d:
        raise InconsistentTargets(
            f"spectrum has {len(spectrum)} entries for common-complement "
            f"dimension {dim_e2d}")
    if dim_e2d < 0:
        raise InconsistentTargets("common-complement dimension is negative")
    rng = np.random.default_rng(seed)
    b = _Builder()
    # End degrees: connected cross-section and total space.
    _strand_shared(b, 0)
    _strand_shared(b, 6)
    # Degree 1/5: matched one-sided strands keep the restriction images
    # half-dimensional with nothing on the total space; a shared strand
    # instead populates degree-1 cohomology when asked for.
    if b1_zero:
        for side in (+1, -1):
            _strand_onesided(b, 1, side)
            _strand_onesided(b, 5, side)
    else:
        _strand_shared(b, 1)
        _strand_shared(b, 5)
    # Degree 3 content on the total space and both halves.
    for _ in range(int(rng.integers(1, 4))):
        _strand_shared(b, 3)
    side3 = int(rng.choice([-1, 1]))
    _strand_onesided(b, 3, side3)
    _strand_onesided(b, 3, -side3)
    # Shared degree-2/4 pair so the boundary images there are nontrivial.
    _strand_shared(b, 2)
    _strand_shared(b, 4)
    # Neck strands carrying the requested common complement in degree 2,
    # with their duality partners in degree 4.
    xs = []
    for _ in range(dim_e2d):
        x, cp, cm = _strand_neck(b, 2)
        xs.append((x, cp, cm))
        _strand_neck(b, 4)
    for lam, (xi, cpi, cmi) in zip(spectrum, xs):
        b.put_c(+1, 3, cpi, xi, 0.5 * lam)
        b.put_c(-1, 3, cmi, xi, 0.5 * lam)
    blocks = b.blocks()
    if scramble:
        blocks = _conjugate(blocks, rng)
    return SumDiagram(blocks)


# ---------------------------------------------------------------------------
# serialization


def diagram_to_json(d: SumDiagram) -> dict:
    """Plain-dict form of a diagram, matrices as row-major nested lists."""
    degs = []
    for blk in d.degrees:
        degs.append({
            "m": blk.m,
            "dims": {key: int(blk.dims[key]) for key in DIM_KEYS},
            "maps": {key: blk.maps[key].tolist() for key in MAP_KEYS},
            "ip_X": blk.ip_x.tolist(),
            "C_plus": blk.c_plus.tolist(),
            "C_minus": blk.c_minus.tolist(),
        })
    return {"degrees": degs}


def diagram_from_json(obj: dict) -> SumDiagram:
    """Inverse of diagram_to_json, with shape validation on construction.

    Raises ValueError on a non-finite entry and on an ip_X that is not
    symmetric positive definite.
    """
    blocks = []
    sizes: dict[tuple[str, int], int] = {}
    for pos, blk in enumerate(sorted(obj["degrees"], key=lambda b: b["m"])):
        dims = {key: int(blk["dims"][key]) for key in DIM_KEYS}
        sizes.update(((key, pos), n) for key, n in dims.items())
        shapes = _map_shapes(pos, sizes)
        maps = {key: _as2d(blk["maps"][key], shapes[key]) for key in MAP_KEYS}
        arrays = (_as2d(blk["ip_X"], (dims["H_X"],) * 2),
                  _as2d(blk["C_plus"], shapes["del_plus"]),
                  _as2d(blk["C_minus"], shapes["del_minus"]))
        if not np.isfinite(np.concatenate(
                [a.ravel() for a in (*maps.values(), *arrays)])).all():
            raise ValueError("matrix has a non-finite entry")
        blocks.append(DegreeBlock(int(blk["m"]), dims, maps, *arrays))
    diagram = SumDiagram(tuple(blocks))
    for blk in diagram.degrees:
        _check_gram(blk.ip_x, blk.m)
    return diagram


def save_diagram(d: SumDiagram, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(diagram_to_json(d), fh, sort_keys=True)
        fh.write("\n")


def load_diagram(path) -> SumDiagram:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_json(json.load(fh))
