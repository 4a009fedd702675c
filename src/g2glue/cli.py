"""Deterministic command-line runners for the gluing toolkit.

Five subcommands cover the scenario surface: ``pointwise-check`` exercises
the pointwise model (calibration metric, normalization, star involution,
pullback equivariance), ``glue-sweep`` glues a matching pair of
half-cylinder structures over a range of neck lengths and reduces the
torsion at each, ``spectrum`` validates a connected-sum diagram and maps
out where the harmonic gluing map degenerates, ``derivative`` assembles
the derivative model of the gluing map and tracks its conditioning, and
``synth`` generates a valid diagram from a seed.

Run parameters come from flags, optionally backed by a JSON config file
(``--config``); explicit flags override the file.  Every run is
reproducible: outputs carry the schema tag and the seed, JSON is emitted
with sorted keys, sweep rows are computed and reported in length order,
and no timestamps or environment state leak into reports.
Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 the
input was unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .cohomology import (
    B1NotZero,
    InconsistentTargets,
    SingularBoundary,
    SumDiagram,
    _rank,
    derivative_model,
    diagram_from_json,
    diagram_to_json,
    gluing_matrix,
    singular_levels,
    synth_diagram,
    validate_C,
    validate_diagram,
)
from .forms import (
    AXES7,
    KAPPA,
    ConstForm,
    basis_indices,
    gram_from_3form,
    hodge_star,
    metric_from_3form,
    phi0,
)
from .gluing import (
    GluingReport,
    MismatchedLimits,
    closed_perturbation_structure,
    fit_torsion_slope,
    flat_structure,
    glue_fields,
    modulated_shear_structure,
    sheared_structure,
    torsion_reduce,
    torsion_residual,  # noqa: F401  (perfbench/tracer.py rebinds it here)
)

SCHEMA = "g2glue-report/1"
STRUCTURE_SCHEMA = "g2glue-structure/1"

_MAX_LENGTHS = 10_000


class InputError(Exception):
    """Unusable input: missing file, bad schema, inconsistent request."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Resolved run parameters: flags merged over an optional config file."""

    command: str
    input: str | None = None
    input2: str | None = None
    l_start: float | None = None
    l_stop: float | None = None
    l_step: float | None = None
    modes: int | None = None
    tol: float = 1e-10
    seed: int = 0
    fmt: str = "json"
    exact: bool = False
    out: str = "-"

    def __post_init__(self):
        for name, value in (("tolerance", self.tol), ("L-start", self.l_start),
                            ("L-stop", self.l_stop), ("L-step", self.l_step)):
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        if self.tol <= 0.0:
            raise InputError("tolerance must be positive")
        if self.fmt not in ("json", "csv"):
            raise InputError(f"unknown format {self.fmt!r}")
        if self.modes is not None and self.modes < 0:
            raise InputError("mode cutoff must be nonnegative")
        if self.l_step is not None:
            if self.l_step <= 0.0:
                raise InputError("L-step must be positive")
            if self.l_stop < self.l_start:
                raise InputError(
                    f"empty length range: start {self.l_start} exceeds "
                    f"stop {self.l_stop}")
            if not self._steps() < _MAX_LENGTHS:
                raise InputError(
                    f"length range has more than {_MAX_LENGTHS} lengths")

    def _steps(self) -> float:
        """L-steps from start to stop; may overflow to inf."""
        return (self.l_stop - self.l_start) / self.l_step + 1e-9

    def lengths(self) -> list[float]:
        count = int(math.floor(self._steps())) + 1
        return [self.l_start + i * self.l_step for i in range(count)]

    def need(self, key: str) -> str:
        value = getattr(self, key)
        if value is None:
            flag = "--input2" if key == "input2" else "--input"
            raise InputError(f"missing required {flag} (or config key "
                             f"{key!r})")
        return value


_DEFAULTS = {
    "pointwise-check": {},
    "glue-sweep": {"input": None, "input2": None, "K": None,
                   "L_start": 4.0, "L_stop": 10.0, "L_step": 1.0},
    "spectrum": {"input": None,
                 "L_start": 1.0, "L_stop": 6.0, "L_step": 0.5},
    "derivative": {"input": None, "input2": None,
                   "L_start": 4.0, "L_stop": 12.0, "L_step": 1.0},
    "synth": {"input": None},
}
_COMMON_DEFAULTS = {"seed": 0, "tol": 1e-10, "format": "json",
                    "out": "-", "exact": False}
_FLAG_ATTRS = {"input": "input", "input2": "input2", "K": "k_modes",
               "L_start": "l_start", "L_stop": "l_stop", "L_step": "l_step",
               "seed": "seed", "tol": "tol", "format": "format",
               "out": "out", "exact": "exact"}


def _resolve_config(args) -> ScenarioConfig:
    allowed = {**_COMMON_DEFAULTS, **_DEFAULTS[args.command]}
    from_file = {}
    if args.config is not None:
        obj = _load_json(args.config)
        if not isinstance(obj, dict):
            raise InputError(f"{args.config}: expected a JSON object")
        unknown = sorted(set(obj) - set(allowed))
        if unknown:
            raise InputError(
                f"{args.config}: unknown key(s) {unknown}; "
                f"allowed: {sorted(allowed)}")
        from_file = obj

    def pick(key):
        flag = getattr(args, _FLAG_ATTRS[key], None)
        if flag is not None:
            return flag
        if key in from_file:
            return from_file[key]
        return allowed[key]

    try:
        values = {
            "tol": float(pick("tol")),
            "seed": int(pick("seed")),
            "fmt": str(pick("format")),
            "exact": bool(pick("exact")),
            "out": str(pick("out")),
        }
        if "L_start" in allowed:
            values.update(l_start=float(pick("L_start")),
                          l_stop=float(pick("L_stop")),
                          l_step=float(pick("L_step")))
        if "K" in allowed and pick("K") is not None:
            values["modes"] = int(pick("K"))
        for key in ("input", "input2"):
            if key in allowed and pick(key) is not None:
                values[key] = str(pick(key))
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad configuration value: {exc}") from exc
    return ScenarioConfig(command=args.command, **values)


# -- input loading ---------------------------------------------------------

def _load_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _load_diagram(path: str) -> SumDiagram:
    obj = _load_json(path)
    try:
        return diagram_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a usable diagram ({exc})") from exc


_STRUCTURE_KINDS = {
    "flat": (flat_structure,
             {"extent", "density", "band"}),
    "sheared": (sheared_structure,
                {"rate", "amplitude", "drift", "direction",
                 "extent", "density", "band"}),
    "modulated-shear": (modulated_shear_structure,
                        {"rate", "amplitude", "direction", "modulation",
                         "extent", "density", "band"}),
    "closed-perturbation": (closed_perturbation_structure,
                            {"rate", "amplitude", "component",
                             "extent", "density", "band"}),
}


def _load_structure(path: str, sign: int, modes: int | None):
    """Build a half-cylinder structure from its descriptor file."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    schema = obj.get("schema")
    if schema != STRUCTURE_SCHEMA:
        raise InputError(
            f"{path}: field 'schema' must be {STRUCTURE_SCHEMA!r}, "
            f"got {schema!r}")
    kind = obj.get("kind")
    if kind not in _STRUCTURE_KINDS:
        raise InputError(
            f"{path}: field 'kind' must be one of "
            f"{sorted(_STRUCTURE_KINDS)}, got {kind!r}")
    if obj.get("sign") != sign:
        raise InputError(
            f"{path}: field 'sign' must be {sign} in this position")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise InputError(f"{path}: field 'params' must be an object")
    factory, allowed = _STRUCTURE_KINDS[kind]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise InputError(
            f"{path}: unknown parameter(s) {unknown} for kind {kind!r}")
    params = dict(params)
    for key, value in params.items():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise InputError(
                f"{path}: parameter {key!r} must be finite, got {value!r}")
    if modes is not None:
        params["band"] = modes
    try:
        return factory(sign, **params)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# -- output emission -------------------------------------------------------

def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return value + 0.0
    return value


def _emit(cfg: ScenarioConfig, payload: dict,
          csv_lines: list[str] | None) -> None:
    if cfg.fmt == "csv":
        if csv_lines is None:
            raise InputError(
                f"command {payload['command']!r} has no CSV form; use json")
        text = "\n".join(csv_lines) + "\n"
    else:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if cfg.out and cfg.out != "-":
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            raise InputError(f"{cfg.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _csv_head(payload: dict) -> str:
    return (f"# schema={payload['schema']} command={payload['command']} "
            f"seed={payload['seed']}")


def _fmt(x: float) -> str:
    x = float(x)
    return repr(x + 0.0 if math.isfinite(x) else x)


# -- pointwise-check -------------------------------------------------------

def _check_calibration(corrupt: bool) -> dict:
    phi = phi0(exact=True)
    if corrupt:
        coeffs = dict(phi.coeffs)
        first = min(coeffs)
        coeffs[first] = -coeffs[first]
        phi = ConstForm(AXES7, 3, coeffs)
    try:
        mat = metric_from_3form(phi).mat
        identity = all(mat[i, j] == (1 if i == j else 0)
                       for i in range(7) for j in range(7))
        detail = "exact rational identity" if identity else "metric differs"
    except (ValueError, ArithmeticError) as exc:
        identity = False
        detail = f"metric construction failed: {exc}"
    return {"name": "calibration-identity", "passed": bool(identity),
            "detail": detail}


def _check_normalization() -> dict:
    phi = phi0()
    metric = metric_from_3form(phi)
    star = hodge_star(metric, phi)
    wedge = phi.wedge(star)
    coeff = float(wedge.coeffs.get(tuple(AXES7), 0.0))
    vol = math.sqrt(float(np.linalg.det(np.asarray(metric.mat, dtype=float))))
    dev = abs(coeff - 7.0 * vol)
    return {"name": "normalization-seven",
            "passed": dev <= 1e-12 * max(1.0, vol), "deviation": dev}


def _check_involution(rng, tol: float, trials: int = 100) -> dict:
    worst = 0.0
    for _ in range(trials):
        a = rng.standard_normal((7, 7))
        metric = a @ a.T + 0.5 * np.eye(7)
        for k in range(8):
            idx = basis_indices(AXES7, k)
            form = ConstForm(AXES7, k,
                             {i: rng.standard_normal() for i in idx})
            again = hodge_star(metric, hodge_star(metric, form))
            scale = max(abs(c) for c in form.coeffs.values())
            dev = np.max([abs(again.coeffs.get(i, 0.0) - form.coeffs.get(i, 0.0))
                          for i in idx])
            worst = float(np.maximum(worst, dev / max(1.0, scale)))
    return {"name": "star-involution", "passed": worst <= tol,
            "trials": trials, "worst": worst}


def _check_equivariance(rng, trials: int = 10) -> dict:
    phi = phi0()
    base = gram_from_3form(phi)
    worst = 0.0
    used = 0
    attempts = 0
    while used < trials and attempts < 20 * trials:
        attempts += 1
        a = rng.standard_normal((7, 7))
        if np.linalg.cond(a) > 1e3:
            continue
        got = gram_from_3form(phi.pullback(a))
        want = np.linalg.det(a) * a.T @ base @ a
        worst = float(np.maximum(worst, np.abs(got - want).max()
                                 / np.abs(want).max()))
        used += 1
    return {"name": "pullback-equivariance", "passed": worst <= 1e-8,
            "trials": used, "worst": worst}


def cmd_pointwise_check(cfg: ScenarioConfig, corrupt: bool = False) -> int:
    rng = np.random.default_rng(cfg.seed)
    checks = [
        _check_calibration(corrupt),
        _check_normalization(),
        _check_involution(rng, cfg.tol),
        _check_equivariance(rng),
    ]
    if cfg.exact:
        # The calibration comparison is already exact rational; rerun it
        # explicitly so the flag has a visible effect in the report.
        again = _check_calibration(corrupt)
        again["name"] = "calibration-identity-exact"
        checks.append(again)
    ok = all(c["passed"] for c in checks)
    payload = {"schema": SCHEMA, "command": "pointwise-check",
               "seed": cfg.seed, "tol": cfg.tol, "kappa": float(KAPPA),
               "passed": ok, "checks": checks}
    csv_lines = [_csv_head(payload), f"# kappa={_fmt(KAPPA)}",
                 "name,passed,worst"]
    for c in checks:
        worst = c.get("worst", c.get("deviation", 0.0))
        csv_lines.append(
            f"{c['name']},{str(c['passed']).lower()},{_fmt(worst)}")
    _emit(cfg, payload, csv_lines)
    return 0 if ok else 1


# -- glue-sweep ------------------------------------------------------------

def _sweep_row(plus, minus, length: float, tol: float) -> GluingReport:
    try:
        glued = glue_fields(plus, minus, length)
    except MismatchedLimits as exc:
        raise InputError(
            f"the two structures do not form a matching pair: {exc}"
        ) from exc
    except ValueError as exc:
        raise InputError(f"cannot glue at L = {length!r}: {exc}") from exc
    try:
        return torsion_reduce(glued, tol=tol)[1]
    except ValueError as exc:
        raise InputError(f"cannot reduce at L = {length!r}: {exc}") from exc


# glibc mallopt parameters and the values glue-sweep sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 128 << 20


@functools.cache
def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed heap memory for reuse.

    A reduction step allocates and frees megabyte-sized temporaries.  Under
    glibc's default, self-adjusting thresholds most of that memory goes
    back to the kernel after each step and returns as fresh zeroed pages
    in the next: about 8000 page faults in a two-row sweep.  Fixed
    thresholds (blocks under 32 MB come from the heap; the heap top is
    trimmed only past 128 MB free) keep it in the process.  The setting is
    process wide and stays; under another C library this does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def cmd_glue_sweep(cfg: ScenarioConfig) -> int:
    plus = _load_structure(cfg.need("input"), 1, cfg.modes)
    minus = _load_structure(cfg.need("input2"), -1, cfg.modes)
    lengths = cfg.lengths()
    _keep_freed_memory()
    reports = [_sweep_row(plus, minus, length, cfg.tol) for length in lengths]
    slope = fit_torsion_slope(reports)
    reports = [replace(r, slope=slope) for r in reports]
    ok = all(r.converged for r in reports)
    payload = {"schema": SCHEMA, "command": "glue-sweep", "seed": cfg.seed,
               "tol": cfg.tol, "L_start": cfg.l_start, "L_stop": cfg.l_stop,
               "L_step": cfg.l_step, "passed": ok,
               "slope": slope, "rows": [r.to_json_obj() for r in reports]}
    csv_lines = [_csv_head(payload)]
    if slope is not None:
        csv_lines.append(f"# slope={_fmt(slope)}")
    csv_lines.append(GluingReport.CSV_HEADER)
    csv_lines.extend(r.to_csv_row() for r in reports)
    _emit(cfg, payload, csv_lines)
    return 0 if ok else 1


# -- spectrum --------------------------------------------------------------

def _diagram_failures(diagram: SumDiagram, tol: float, exact: bool):
    records = list(validate_diagram(diagram, tol=tol, exact=exact).checks)
    records += list(validate_C(diagram, tol=tol).checks)
    failures = [f"{r.name}[{r.degree}]: {r.detail}" for r in records
                if not r.passed]
    return len(records), failures


def _rank_row(diagram: SumDiagram, length: float, levels: np.ndarray) -> dict:
    matrix = gluing_matrix(diagram, 3, length)
    full = min(matrix.shape)
    rank = _rank(matrix)
    gap = (2.0 * float(np.min(np.abs(length - levels)))
           if levels.size else math.inf)
    return {"L": length, "rank": rank, "full": full,
            "deficient": rank < full, "gap": gap}


def cmd_spectrum(cfg: ScenarioConfig) -> int:
    diagram = _load_diagram(cfg.need("input"))
    try:
        total, failures = _diagram_failures(diagram, cfg.tol, cfg.exact)
    except SingularBoundary as exc:
        total, failures = 0, [f"singular-boundary: {exc}"]
    payload = {"schema": SCHEMA, "command": "spectrum", "seed": cfg.seed,
               "tol": cfg.tol, "checks_run": total,
               "valid": not failures, "failures": failures}
    if failures:
        csv_lines = [_csv_head(payload), "# valid=false", "failure"]
        csv_lines.extend(failures)
        _emit(cfg, payload, csv_lines)
        return 1
    levels = {m: singular_levels(diagram, m) for m in range(8)}
    levels = {m: lv for m, lv in levels.items() if lv.size}
    rows = [_rank_row(diagram, length, levels.get(3, np.zeros(0)))
            for length in cfg.lengths()]
    payload["levels"] = {str(m): lv for m, lv in levels.items()}
    payload["rows"] = rows
    csv_lines = [_csv_head(payload), "# valid=true"]
    for m, lv in sorted(levels.items()):
        joined = ";".join(_fmt(x) for x in lv)
        csv_lines.append(f"# levels[{m}]={joined}")
    csv_lines.append("L,rank,full,deficient,gap")
    for r in rows:
        csv_lines.append(
            f"{_fmt(r['L'])},{r['rank']},{r['full']},"
            f"{str(r['deficient']).lower()},{_fmt(r['gap'])}")
    _emit(cfg, payload, csv_lines)
    return 0


# -- derivative ------------------------------------------------------------

def _distinguished_class(diagram: SumDiagram, path: str | None) -> np.ndarray:
    want = diagram.dim("H_X", 2)
    if path is not None:
        obj = _load_json(path)
        if not isinstance(obj, dict) or "omega" not in obj:
            raise InputError(f"{path}: expected an object with key 'omega'")
        omega = np.asarray(obj["omega"], dtype=float)
        if omega.shape != (want,):
            raise InputError(
                f"{path}: 'omega' must have {want} entries for this diagram")
        return omega
    sub = diagram.subspaces(2)
    pool = sub.a_common if sub.a_common.shape[1] else sub.e_common
    if pool.shape[1] == 0:
        raise InputError(
            "the diagram has no degree-2 class to distinguish; "
            "provide one with --input2")
    return pool[:, 0]


def cmd_derivative(cfg: ScenarioConfig) -> int:
    diagram = _load_diagram(cfg.need("input"))
    omega = _distinguished_class(diagram, cfg.input2)
    models = []
    for length in cfg.lengths():
        try:
            models.append(derivative_model(diagram, omega, length,
                                           tol=cfg.tol))
        except (B1NotZero, SingularBoundary) as exc:
            raise InputError(str(exc)) from exc
        except ValueError as exc:
            raise InputError(f"distinguished class rejected: {exc}") from exc
    spec = models[0].f_spectrum
    rows = [{"L": m.length, "bijective": m.bijective,
             "sigma_min": m.sigma_min,
             "gap": (float(np.min(np.abs(2.0 * m.length + spec)))
                     if spec.size else math.inf)}
            for m in models]
    fit = [(r["L"], r["sigma_min"]) for r in rows
           if r["L"] >= 5.0 and math.isfinite(r["sigma_min"])]
    sigma_slope = (float(np.polyfit([p[0] for p in fit],
                                    [p[1] for p in fit], 1)[0])
                   if len(fit) >= 2 else None)
    payload = {"schema": SCHEMA, "command": "derivative", "seed": cfg.seed,
               "tol": cfg.tol, "f_spectrum": spec,
               "singular_lengths": models[0].singular_lengths,
               "sigma_slope": sigma_slope, "rows": rows}
    csv_lines = [_csv_head(payload)]
    joined = ";".join(_fmt(x) for x in models[0].singular_lengths)
    csv_lines.append(f"# singular_lengths={joined}")
    if sigma_slope is not None:
        csv_lines.append(f"# sigma_slope={_fmt(sigma_slope)}")
    csv_lines.append("L,bijective,sigma_min,gap")
    for r in rows:
        csv_lines.append(f"{_fmt(r['L'])},{str(r['bijective']).lower()},"
                         f"{_fmt(r['sigma_min'])},{_fmt(r['gap'])}")
    _emit(cfg, payload, csv_lines)
    return 0


# -- synth -----------------------------------------------------------------

_SYNTH_DEFAULTS = {"dim_e2d": 1, "spectrum": [-6.0],
                   "b1_zero": True, "scramble": True}


def cmd_synth(cfg: ScenarioConfig) -> int:
    request = dict(_SYNTH_DEFAULTS)
    if cfg.input is not None:
        obj = _load_json(cfg.input)
        if not isinstance(obj, dict):
            raise InputError(f"{cfg.input}: expected a JSON object")
        unknown = sorted(set(obj) - set(_SYNTH_DEFAULTS))
        if unknown:
            raise InputError(
                f"{cfg.input}: unknown key(s) {unknown}; "
                f"allowed: {sorted(_SYNTH_DEFAULTS)}")
        request.update(obj)
    try:
        diagram = synth_diagram(cfg.seed, int(request["dim_e2d"]),
                                tuple(float(x) for x in request["spectrum"]),
                                b1_zero=bool(request["b1_zero"]),
                                scramble=bool(request["scramble"]))
    except (InconsistentTargets, TypeError, ValueError) as exc:
        raise InputError(f"unusable synthesis request: {exc}") from exc
    payload = {"schema": SCHEMA, "command": "synth", "seed": cfg.seed,
               **diagram_to_json(diagram)}
    _emit(cfg, payload, None)
    return 0


# -- parser ----------------------------------------------------------------

def _add_common(sub, lengths=False, modes=False):
    sub.add_argument("--config", default=None,
                     help="JSON config file; explicit flags override it")
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed recorded in the output (default 0)")
    sub.add_argument("--tol", type=float, default=None,
                     help="tolerance of residual checks, of diagram "
                          "validation ranks and of the torsion target "
                          "(default 1e-10); other diagram ranks keep "
                          "their fixed rule")
    sub.add_argument("--format", choices=("json", "csv"), default=None,
                     help="output format (default json)")
    sub.add_argument("--out", default=None,
                     help="output file, '-' for stdout (default)")
    sub.add_argument("--exact", action="store_true", default=None,
                     help="rerun rank decisions in exact rational arithmetic")
    if lengths:
        sub.add_argument("--L-start", dest="l_start", type=float,
                         default=None, help="first neck length")
        sub.add_argument("--L-stop", dest="l_stop", type=float,
                         default=None, help="last neck length")
        sub.add_argument("--L-step", dest="l_step", type=float,
                         default=None, help="neck length increment")
    if modes:
        sub.add_argument("--K", dest="k_modes", type=int, default=None,
                         help="cross-section mode cutoff override (default: "
                              "whatever the descriptors request, usually 2)")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line, like other unusable input.

    A token that ``float()`` reads is a value, never an option: argparse on
    its own takes ``-2.5e-1`` for an unknown flag.
    """

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing is stateless."""
    parser = _Parser(
        prog="g2glue",
        description="Scenario runners for the connected-sum gluing toolkit.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("pointwise-check",
                        help="verify the pointwise model on random data")
    _add_common(p)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: flip one sign in the model table")
    p.set_defaults(func=lambda cfg, args: cmd_pointwise_check(
        cfg, corrupt=args.corrupt))

    p = subs.add_parser("glue-sweep",
                        help="glue a structure pair over a range of lengths")
    _add_common(p, lengths=True, modes=True)
    p.add_argument("--input", default=None,
                   help="descriptor file for the +1 half-cylinder structure")
    p.add_argument("--input2", default=None,
                   help="descriptor file for the -1 half-cylinder structure")
    p.set_defaults(func=lambda cfg, args: cmd_glue_sweep(cfg))

    p = subs.add_parser("spectrum",
                        help="validate a diagram and locate degenerate lengths")
    _add_common(p, lengths=True)
    p.add_argument("--input", default=None, help="diagram JSON file")
    p.set_defaults(func=lambda cfg, args: cmd_spectrum(cfg))

    p = subs.add_parser("derivative",
                        help="assemble the derivative model over a length range")
    _add_common(p, lengths=True)
    p.add_argument("--input", default=None, help="diagram JSON file")
    p.add_argument("--input2", default=None,
                   help="JSON file {'omega': [...]} choosing the "
                        "distinguished degree-2 class")
    p.set_defaults(func=lambda cfg, args: cmd_derivative(cfg))

    p = subs.add_parser("synth",
                        help="generate a valid diagram from a seed")
    _add_common(p)
    p.add_argument("--input", default=None,
                   help="JSON request: dim_e2d, spectrum, b1_zero, scramble")
    p.set_defaults(func=lambda cfg, args: cmd_synth(cfg))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        # Overflow on unusable input is caught by the non-finite checks,
        # which report it in one line; numpy's warnings would add more.
        with np.errstate(all="ignore"):
            return args.func(cfg, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
