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
(``--config``) keyed by the flags' dests; explicit flags override the
file.  A command offers only the flags it reads.  Every run is
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
import inspect
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .cohomology import (
    B1NotZero,
    InconsistentTargets,
    SingularBoundary,
    SumDiagram,
    _ranks,
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
    _star_matrix,
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
    """Resolved run parameters: flags merged over an optional config file.

    The fields are the parser's dests, and the config file's keys.
    """

    command: str
    input: str | None = None
    input2: str | None = None
    L_start: float | None = None
    L_stop: float | None = None
    L_step: float | None = None
    tol: float = 1e-10
    seed: int = 0
    format: str = "json"
    exact: bool = False
    out: str = "-"

    def __post_init__(self):
        for name, value in (("tolerance", self.tol), ("L-start", self.L_start),
                            ("L-stop", self.L_stop), ("L-step", self.L_step)):
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value!r}")
        if self.tol <= 0.0:
            raise InputError("tolerance must be positive")
        if self.format not in ("json", "csv"):
            raise InputError(f"unknown format {self.format!r}")
        if self.L_step is not None:
            if self.L_step <= 0.0:
                raise InputError("L-step must be positive")
            if self.L_stop < self.L_start:
                raise InputError(
                    f"empty length range: start {self.L_start} exceeds "
                    f"stop {self.L_stop}")
            if not self._steps() < _MAX_LENGTHS:
                raise InputError(
                    f"length range has more than {_MAX_LENGTHS} lengths")

    def _steps(self) -> float:
        """L-steps from start to stop; may overflow to inf."""
        return (self.L_stop - self.L_start) / self.L_step + 1e-9

    def lengths(self) -> list[float]:
        count = int(math.floor(self._steps())) + 1
        return [self.L_start + i * self.L_step for i in range(count)]

    def need(self, key: str) -> str:
        value = getattr(self, key)
        if value is None:
            raise InputError(f"missing required --{key} (or config key "
                             f"{key!r})")
        return value


# The default length range (L_start, L_stop, L_step) of each command that
# reads one.
_LENGTH_RANGES = {"glue-sweep": (4.0, 10.0, 1.0),
                  "spectrum": (1.0, 6.0, 0.5),
                  "derivative": (4.0, 12.0, 1.0)}

# The JSON types a value may take, by its annotation: a bool is never a
# number, and an integer is a float.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
               "str": (str,), "list": (list,)}
_KEY_TYPES = {f.name: f.type.removesuffix(" | None")
              for f in fields(ScenarioConfig)}


def _check_type(value, want, name: str) -> None:
    """Raise InputError, naming ``name``, unless the JSON type of ``value``
    is one that annotation ``want`` takes; other annotations take any."""
    if want in _JSON_TYPES and type(value) not in _JSON_TYPES[want]:
        raise InputError(f"{name} must be {want}, got {value!r}")


def _config_keys(args) -> list[str]:
    """The config keys of a parsed command: the dests of its flags."""
    return [key for key in _KEY_TYPES if key != "command" and key in vars(args)]


def _resolve_config(args) -> ScenarioConfig:
    keys = _config_keys(args)
    from_file = {} if args.config is None else _load_object(args.config, keys)
    values = dict(zip(("L_start", "L_stop", "L_step"),
                      _LENGTH_RANGES.get(args.command, ())))
    for key, value in from_file.items():
        kind = _KEY_TYPES[key]
        _check_type(value, kind, f"bad configuration value: {key!r}")
        try:
            values[key] = float(value) if kind == "float" else value
        except OverflowError as exc:
            raise InputError(f"bad configuration value: {exc}") from exc
    values.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
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


def _load_object(path: str, allowed) -> dict:
    """A JSON object whose keys are all in ``allowed``."""
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise InputError(f"{path}: unknown key(s) {unknown}; "
                         f"allowed: {sorted(allowed)}")
    return obj


def _load_diagram(path: str) -> SumDiagram:
    obj = _load_json(path)
    try:
        return diagram_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: not a usable diagram ({exc})") from exc


# Each kind's factory: its parameters but ``sign`` are the kind's params,
# each read by its annotation, as a config value is.
_STRUCTURE_KINDS = {"flat": flat_structure, "sheared": sheared_structure,
                    "modulated-shear": modulated_shear_structure,
                    "closed-perturbation": closed_perturbation_structure}


def _load_structure(path: str, sign: int):
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
    factory = _STRUCTURE_KINDS[kind]
    types = {name: p.annotation for name, p in
             inspect.signature(factory).parameters.items() if name != "sign"}
    unknown = sorted(set(params) - set(types))
    if unknown:
        raise InputError(
            f"{path}: unknown parameter(s) {unknown} for kind {kind!r}")
    for key, value in params.items():
        _check_type(value, types[key], f"{path}: parameter {key!r}")
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise InputError(
                f"{path}: parameter {key!r} must be finite, got {value!r}")
    try:
        return factory(sign, **params)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


# -- output emission -------------------------------------------------------

def _json_text(value, indent: str = "") -> str:
    """``value`` as ``json.dumps(..., sort_keys=True, indent=2)`` writes it,
    in one pass: numpy arrays and scalars as lists and Python numbers,
    -0.0 as 0.0, and a non-finite float as the string of its repr."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}"
                 for k in sorted(value)]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        # Finite floats, the bulk of a diagram, inline.
        items = [repr(v + 0.0) if type(v) is float and math.isfinite(v)
                 else _json_text(v, inner) for v in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, (dict, list, tuple)):
        return "{}" if isinstance(value, dict) else "[]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return repr(value + 0.0) if math.isfinite(value) else f'"{value!r}"'
    return "null" if value is None else encode_basestring_ascii(value)


def _csv_cell(value) -> str:
    """A CSV cell: true/false, a float's repr (-0.0 as 0.0), a sequence
    joined by ';', anything else as str."""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ";".join(_csv_cell(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value) + 0.0)
    return str(value)


def _emit(cfg: ScenarioConfig, payload: dict, columns=None, rows=(),
          notes=None) -> None:
    """Write ``payload`` as JSON, or as CSV: a ``# `` line of schema,
    command and seed, one ``# key=value`` line per note that is not None,
    a header of ``columns`` and one line per row dict.  A command that
    passes no columns has no CSV form."""
    if cfg.format == "json":
        text = _json_text(payload) + "\n"
    elif columns is None:
        raise InputError(
            f"command {payload['command']!r} has no CSV form; use json")
    else:
        lines = [f"# schema={payload['schema']} "
                 f"command={payload['command']} seed={payload['seed']}"]
        lines += [f"# {key}={_csv_cell(value)}"
                  for key, value in (notes or {}).items() if value is not None]
        lines.append(",".join(columns))
        lines += [",".join(_csv_cell(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    if cfg.out and cfg.out != "-":
        try:
            Path(cfg.out).write_text(text)
        except OSError as exc:
            raise InputError(f"{cfg.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


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
    """S_{7-k} S_k v = v on random coefficient vectors v, with S_k the
    star matrix on k-forms that hodge_star applies, built once per metric
    and degree."""
    worst = 0.0
    for _ in range(trials):
        a = rng.standard_normal((7, 7))
        metric = a @ a.T + 0.5 * np.eye(7)
        stars = [_star_matrix(metric, k) for k in range(8)]
        for k in range(8):
            vec = rng.standard_normal(math.comb(7, k))
            again = stars[7 - k] @ (stars[k] @ vec)
            dev = np.max(np.abs(again - vec))
            worst = float(np.maximum(worst, dev / max(1.0, np.abs(vec).max())))
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
    ok = all(c["passed"] for c in checks)
    payload = {"schema": SCHEMA, "command": "pointwise-check",
               "seed": cfg.seed, "tol": cfg.tol, "kappa": float(KAPPA),
               "passed": ok, "checks": checks}
    # A check's worst deviation is its worst or deviation; the calibration
    # check records neither.
    rows = [{**c, "worst": c.get("worst", c.get("deviation", 0.0))}
            for c in checks]
    _emit(cfg, payload, ("name", "passed", "worst"), rows, {"kappa": KAPPA})
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
    plus = _load_structure(cfg.need("input"), 1)
    minus = _load_structure(cfg.need("input2"), -1)
    lengths = cfg.lengths()
    _keep_freed_memory()
    reports = [_sweep_row(plus, minus, length, cfg.tol) for length in lengths]
    slope = fit_torsion_slope(reports)
    reports = [replace(r, slope=slope) for r in reports]
    ok = all(r.converged for r in reports)
    payload = {"schema": SCHEMA, "command": "glue-sweep", "seed": cfg.seed,
               "tol": cfg.tol, "L_start": cfg.L_start, "L_stop": cfg.L_stop,
               "L_step": cfg.L_step, "passed": ok,
               "slope": slope, "rows": [r.to_json_obj() for r in reports]}
    _emit(cfg, payload, ("L", "torsion_d_L2", "torsion_d_sup",
                         "torsion_ds_L2", "torsion_ds_sup", "iters",
                         "converged"), payload["rows"], {"slope": slope})
    return 0 if ok else 1


# -- spectrum --------------------------------------------------------------

def _diagram_failures(diagram: SumDiagram, tol: float, exact: bool):
    records = list(validate_diagram(diagram, tol=tol, exact=exact).checks)
    records += list(validate_C(diagram, tol=tol).checks)
    failures = [f"{r.name}[{r.degree}]: {r.detail}" for r in records
                if not r.passed]
    return len(records), failures


def _rank_rows(diagram: SumDiagram, lengths: list[float],
               levels: np.ndarray) -> list[dict]:
    """One row per length; the gluing matrices share one stacked SVD."""
    matrices = [gluing_matrix(diagram, 3, length) for length in lengths]
    gaps = (2.0 * np.abs(np.subtract.outer(lengths, levels)).min(axis=1)
            if levels.size else np.full(len(lengths), math.inf))
    full = min(matrices[0].shape)
    return [{"L": length, "rank": rank, "full": full,
             "deficient": rank < full, "gap": gap}
            for length, rank, gap in zip(lengths, _ranks(matrices),
                                         gaps.tolist())]


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
        _emit(cfg, payload, ("failure",),
              [{"failure": f} for f in failures], {"valid": False})
        return 1
    levels = {m: singular_levels(diagram, m) for m in range(8)}
    levels = {m: lv for m, lv in levels.items() if lv.size}
    rows = _rank_rows(diagram, cfg.lengths(), levels.get(3, np.zeros(0)))
    payload["levels"] = {str(m): lv for m, lv in levels.items()}
    payload["rows"] = rows
    _emit(cfg, payload, ("L", "rank", "full", "deficient", "gap"), rows,
          {"valid": True, **{f"levels[{m}]": lv for m, lv in levels.items()}})
    return 0


# -- derivative ------------------------------------------------------------

def _distinguished_class(diagram: SumDiagram, path: str | None) -> np.ndarray:
    want = diagram.dim("H_X", 2)
    if path is not None:
        obj = _load_json(path)
        if not isinstance(obj, dict) or "omega" not in obj:
            raise InputError(f"{path}: expected an object with key 'omega'")
        values = obj["omega"]
        _check_type(values, "list", f"{path}: 'omega'")
        for x in values:
            _check_type(x, "float", f"{path}: an 'omega' entry")
        if len(values) != want:
            raise InputError(
                f"{path}: 'omega' must have {want} entries for this diagram")
        try:
            omega = np.array(values, dtype=float)
        except OverflowError as exc:
            raise InputError(f"{path}: 'omega': {exc}") from exc
        if not np.isfinite(omega).all():
            raise InputError(
                f"{path}: 'omega' entries must be finite, got {values!r}")
        if want == 0:
            raise InputError(
                f"{path}: the diagram has no degree-2 class to distinguish")
        if not omega.any():
            raise InputError(f"{path}: 'omega' is zero, which distinguishes "
                             "no class")
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
    _emit(cfg, payload, ("L", "bijective", "sigma_min", "gap"), rows,
          {"singular_lengths": models[0].singular_lengths,
           "sigma_slope": sigma_slope})
    return 0


# -- synth -----------------------------------------------------------------

# The default request.  Each key takes the JSON type of its default, and
# each spectrum entry is a float.
_SYNTH_REQUEST = {"dim_e2d": 1, "spectrum": [-6.0],
                  "b1_zero": True, "scramble": True}


def cmd_synth(cfg: ScenarioConfig) -> int:
    request = dict(_SYNTH_REQUEST)
    if cfg.input is not None:
        request.update(_load_object(cfg.input, _SYNTH_REQUEST))
    for key, value in request.items():
        _check_type(value, type(_SYNTH_REQUEST[key]).__name__,
                    f"unusable synthesis request: {key!r}")
    for x in request["spectrum"]:
        _check_type(x, "float", "unusable synthesis request: a 'spectrum' entry")
    try:
        diagram = synth_diagram(cfg.seed, request["dim_e2d"],
                                tuple(request["spectrum"]),
                                b1_zero=request["b1_zero"],
                                scramble=request["scramble"])
    except (InconsistentTargets, OverflowError, ValueError) as exc:
        raise InputError(f"unusable synthesis request: {exc}") from exc
    payload = {"schema": SCHEMA, "command": "synth", "seed": cfg.seed,
               **diagram_to_json(diagram)}
    _emit(cfg, payload)
    return 0


# -- parser ----------------------------------------------------------------

def _add_common(sub, tol=True, exact=False, lengths=False):
    """The flags every command shares, and those only some read.

    A flag not given parses to None, so that a config file can set it.
    """
    sub.add_argument("--config",
                     help="JSON config file; explicit flags override it")
    sub.add_argument("--seed", type=int,
                     help="random seed recorded in the output (default 0)")
    if tol:
        sub.add_argument("--tol", type=float,
                         help="tolerance of residual checks, of diagram "
                              "validation ranks and of the torsion target "
                              "(default 1e-10); other diagram ranks keep "
                              "their fixed rule")
    sub.add_argument("--format", choices=("json", "csv"),
                     help="output format (default json)")
    sub.add_argument("--out", help="output file, '-' for stdout (default)")
    if exact:
        sub.add_argument("--exact", action="store_true", default=None,
                         help="rerun rank decisions in exact rational "
                              "arithmetic")
    if lengths:
        sub.add_argument("--L-start", type=float, help="first neck length")
        sub.add_argument("--L-stop", type=float, help="last neck length")
        sub.add_argument("--L-step", type=float,
                         help="neck length increment")


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
    _add_common(p, lengths=True)
    p.add_argument("--input",
                   help="descriptor file for the +1 half-cylinder structure")
    p.add_argument("--input2",
                   help="descriptor file for the -1 half-cylinder structure")
    p.set_defaults(func=lambda cfg, args: cmd_glue_sweep(cfg))

    p = subs.add_parser("spectrum",
                        help="validate a diagram and locate degenerate lengths")
    _add_common(p, exact=True, lengths=True)
    p.add_argument("--input", help="diagram JSON file")
    p.set_defaults(func=lambda cfg, args: cmd_spectrum(cfg))

    p = subs.add_parser("derivative",
                        help="assemble the derivative model over a length range")
    _add_common(p, lengths=True)
    p.add_argument("--input", help="diagram JSON file")
    p.add_argument("--input2",
                   help="JSON file {'omega': [...]} choosing the "
                        "distinguished degree-2 class")
    p.set_defaults(func=lambda cfg, args: cmd_derivative(cfg))

    p = subs.add_parser("synth",
                        help="generate a valid diagram from a seed")
    _add_common(p, tol=False)
    p.add_argument("--input",
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
