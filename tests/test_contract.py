"""Exit-code contract of the command line under generated input.

Every run ends in exit 0 or 1 with a report whose numbers are finite, or
in exit 2 with one line on stderr and nothing on stdout; never in an
escaping exception.  Structure descriptors, diagram JSON and sweep flags
(given on the command line or in a config file) are generated with a
fixed derandomized seed, so the cases are the same on every run.  Each
case breaks a few fields at most, so that most cases get past the loaders
and into the numerics.

Sizes stay small: neck lengths come as a start plus at most two steps,
and extent, density and band come from short lists or, for a half that
is only loaded, extents up to 12 at densities up to 64, so that every
case runs in well under a second.  How the program treats a range of 1e300
lengths or a grid of 1e12 samples is not covered here.

The library's side of the contract, its public names and the
signatures of the batched kernels, the torsion pipeline and the diagram
layer, is pinned last.
"""

import ast
import inspect
import json
import math
import pathlib
import re
import types

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import g2glue
from g2glue import cli, cohomology, fields, forms, gluing
from g2glue.cohomology import diagram_to_json, synth_diagram

CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])

NAN, INF = float("nan"), float("inf")

# Anything a JSON value can be.
JUNK = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)

# field: (plausible values, broken values)
PARAMS = {
    "rate": (st.floats(0.3, 2.0), JUNK),
    "amplitude": (st.floats(1e-4, 0.1),
                  st.one_of(st.floats(-1e308, 1e308), JUNK)),
    "drift": (st.floats(-0.3, 0.3), JUNK),
    "direction": (st.integers(2, 7),
                  st.one_of(st.sampled_from([2.0, 7.0]), JUNK)),
    "modulation": (st.integers(2, 7),
                   st.one_of(st.sampled_from([2.0, 7.0]), JUNK)),
    "component": (st.lists(st.integers(2, 7), min_size=2, max_size=2), JUNK),
    "extent": (st.sampled_from([7.0, 6.5]),
               st.sampled_from([5.0, 0.0, -2.0, "7", None])),
    "density": (st.sampled_from([8, 16]),
                st.sampled_from([0, -8, 2.5, "8", None])),
    "band": (st.sampled_from([0, 1, 2]), st.sampled_from([-1, 99, 1.5, None])),
}
LENGTHS = {
    "L_start": (st.sampled_from([4.0, 4.5, 5.0]),
                st.sampled_from([3.0, 0.0, -1.0, 1e300, NAN, INF, -INF])),
    "L_step": (st.sampled_from([0.5, 1.0, 0.25]),
               st.sampled_from([0.3, 0.0, -1.0, 1e-300, NAN, INF])),
    "tol": (st.sampled_from([1e-10, 1e-6]),
            st.sampled_from([0.0, -1.0, NAN, INF])),
}
KINDS = sorted(cli._STRUCTURE_KINDS)

# The params of each structure kind and their annotations (None for none):
# its factory's parameters but sign.  Changing one is a stated change, so
# it shows up here as a diff to this table, checked last.
DESCRIPTOR_PARAMS = {
    "closed-perturbation": {"amplitude": "float", "band": "int",
                            "component": None, "density": "int",
                            "extent": "float", "rate": "float"},
    "flat": {"band": "int", "density": "int", "extent": "float"},
    "modulated-shear": {"amplitude": "float", "band": "int", "density": "int",
                        "direction": "int", "extent": "float",
                        "modulation": "int", "rate": "float"},
    "sheared": {"amplitude": "float", "band": "int", "density": "int",
                "direction": "int", "drift": "float", "extent": "float",
                "rate": "float"},
}

FAULTS = ["schema", "kind", "sign", "shape", "wiggle", "L_stop", "config",
          "argv", *PARAMS, *LENGTHS]


def faults():
    """The fields a case breaks; hypothesis favours small sets."""
    return st.sets(st.sampled_from(FAULTS), max_size=3)


def _pick(draw, broken, key, good, bad):
    return draw(bad if key in broken else good)


@st.composite
def descriptors(draw, sign, kinds, broken):
    kind = draw(st.sampled_from(kinds))
    allowed = sorted(DESCRIPTOR_PARAMS[kind])
    keys = draw(st.sets(st.sampled_from(allowed), max_size=3))
    keys |= broken & set(allowed)
    params = {key: _pick(draw, broken, key, *PARAMS[key]) for key in keys}
    if "wiggle" in broken:
        params[draw(st.sampled_from(["wiggle", *sorted(PARAMS)]))] = 1.0
    obj = {"schema": _pick(draw, broken, "schema",
                           st.just(cli.STRUCTURE_SCHEMA),
                           st.sampled_from(["g2glue-structure/0", None])),
           "kind": _pick(draw, broken, "kind", st.just(kind),
                         st.just("wobbly")),
           "sign": _pick(draw, broken, "sign", st.just(sign),
                         st.sampled_from([-sign, 0, str(sign)])),
           "params": params}
    return _pick(draw, broken, "shape", st.just(obj),
                 st.sampled_from([[obj], params]))


@st.composite
def sweep_flags(draw, broken):
    """Flags of a run over lengths: a start plus at most two steps."""
    flags = {key: _pick(draw, broken, key, *LENGTHS[key]) for key in LENGTHS}
    start, step = flags["L_start"], flags["L_step"]
    flags["L_stop"] = _pick(
        draw, broken, "L_stop",
        st.sampled_from([0, 1, 2]).map(lambda n: start + n * step),
        st.sampled_from([start - 1.0, NAN, INF, -INF]))
    flags["seed"] = draw(st.integers(-2**70, 2**70))
    return flags


def _argv(command, flags, tmp_path, draw, broken):
    """Flags on the command line, some moved to a config file."""
    moved = draw(st.sets(st.sampled_from(sorted(flags))))
    config = {key: flags[key] for key in moved}
    if "config" in broken:
        # One of the command's own keys, so that its value reaches the
        # typing rule; no path keys, so that no run writes a stray file.
        keys = cli._config_keys(cli.build_parser().parse_args([command]))
        config[draw(st.sampled_from(sorted(set(keys) - {"input", "input2",
                                                      "out"})))] = draw(JUNK)
    argv = [command]
    for key, value in flags.items():
        if key not in config:
            text = repr(value) if isinstance(value, float) else str(value)
            argv.append(f"--{key.replace('_', '-')}={text}")
    if "argv" in broken:
        argv.append(draw(st.sampled_from(["--L-start=abc", "--tol=", "--K=1.5",
                                          "--seed=x", "--format=xml",
                                          "--bogus", "extra"])))
    if config:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return argv


def _run(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _numbers(value, key=None):
    """(key, number) for every number in a parsed JSON report."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _numbers(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v, key)
    elif isinstance(value, str) and value in ("nan", "inf", "-inf"):
        yield key, float(value)
    elif isinstance(value, float):
        yield key, value


def _csv_numbers(text):
    """(column, number) for every number in a CSV report.

    ``# key=value`` lines give their key, with ``;`` between the values of
    a list; below them one header line names the columns of the rows.
    """
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            pairs = [(key, value) for item in line[1:].split()
                     for key, _, joined in [item.partition("=")]
                     for value in joined.split(";")]
        elif header is None:
            header = line.split(",")
            continue
        else:
            pairs = zip(header, line.split(","))
        for key, value in pairs:
            try:
                yield key, float(value)
            except ValueError:
                pass


# The distance to an empty set of singular levels, and the least singular
# value of an empty map, are +inf by definition.
EMPTY_MIN = {"gap", "sigma_min"}


def _check_contract(rc, out, err, fmt):
    assert rc in (0, 1, 2), (rc, err)
    if rc == 2:
        assert out == "" and err.count("\n") == 1 and err.strip(), err
        return
    assert err == ""
    numbers = _csv_numbers(out) if fmt == "csv" else _numbers(json.loads(out))
    for key, number in numbers:
        assert math.isfinite(number) or (number == INF
                                         and key in EMPTY_MIN), (key, out)


# The CLI runs its commands under np.errstate(all="ignore"), so no numpy
# warning may reach the warnings channel either: pyproject.toml makes any
# RuntimeWarning fail the test.
@CONTRACT
@given(data=st.data(), broken=faults(), fmt=st.sampled_from(["json", "csv"]))
def test_glue_sweep_contract(tmp_path, capsys, data, broken, fmt):
    plus = data.draw(descriptors(1, KINDS, broken))
    minus = data.draw(descriptors(-1, ["flat"], broken - {"kind"}))
    (tmp_path / "plus.json").write_text(json.dumps(plus))
    (tmp_path / "minus.json").write_text(json.dumps(minus))
    flags = {**data.draw(sweep_flags(broken)), "format": fmt}
    argv = _argv("glue-sweep", flags, tmp_path, data.draw, broken)
    argv += ["--input", str(tmp_path / "plus.json"),
             "--input2", str(tmp_path / "minus.json")]
    rc, out, err = _run(argv, capsys)
    _check_contract(rc, out, err, fmt)


@st.composite
def declared_halves(draw):
    """A well-typed descriptor whose extent is a whole number of steps of
    1 / density, or that plus a fraction of a step; mostly 7 to 12 long,
    sometimes too short for its envelope or its 8 samples."""
    kind = draw(st.sampled_from(KINDS))
    density = draw(st.integers(1, 64))
    steps = draw(st.one_of(st.integers(7 * density, 12 * density),
                           st.integers(1, 7 * density)))
    offset = draw(st.sampled_from([0.0, 0.0, 0.5, 0.25, 1e-3, 0.999]))
    params = {"extent": (steps + offset) / density, "density": density,
              "band": draw(st.integers(0, 2))}
    if "rate" in DESCRIPTOR_PARAMS[kind]:
        params["rate"] = draw(st.floats(0.3, 2.0))
    sign = draw(st.sampled_from([1, -1]))
    return {"schema": cli.STRUCTURE_SCHEMA, "kind": kind, "sign": sign,
            "params": params}


# A half's grid is the one its descriptor declares: it ends at the
# extent, its spacing is 1 / density, and the band and rate are as given;
# a descriptor no such grid fits exits 2 with one line.
@CONTRACT
@given(obj=declared_halves())
def test_loaded_half_is_the_declared_one(tmp_path, capsys, obj):
    path, flat = tmp_path / "half.json", tmp_path / "flat.json"
    path.write_text(json.dumps(obj))
    params, sign = obj["params"], obj["sign"]
    try:
        half = cli._load_structure(str(path), sign)
    except cli.InputError:
        flat.write_text(json.dumps({**obj, "kind": "flat", "params": {},
                                    "sign": -sign}))
        plus, minus = (path, flat) if sign == 1 else (flat, path)
        rc, out, err = _run(["glue-sweep", "--input", str(plus),
                             "--input2", str(minus)], capsys)
        assert (rc, out) == (2, "") and err.count("\n") == 1
        assert err.startswith(f"error: {path}: "), err
        return
    grid = half.perturbation.grid
    assert grid.b == params["extent"]
    assert math.isclose(grid.h, 1.0 / params["density"], rel_tol=1e-12)
    assert half.perturbation.band == params["band"]
    assert half.decay_rate == params.get("rate", 1.0)


BASE_DIAGRAMS = [diagram_to_json(synth_diagram(seed, seed % 3,
                                               (-6.0, -2.0)[:seed % 3]))
                 for seed in range(3)]


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _paths(obj[key], prefix + (key,))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _paths(item, prefix + (i,))


@st.composite
def diagrams(draw):
    """A valid diagram, or one with a node replaced, scaled or deleted."""
    obj = json.loads(json.dumps(draw(st.sampled_from(BASE_DIAGRAMS))))
    action = draw(st.sampled_from(["none", "replace", "scale", "delete"]))
    if action == "none":
        return obj
    *head, last = draw(st.sampled_from(list(_paths(obj))[1:]))
    parent = obj
    for key in head:
        parent = parent[key]
    if action == "delete":
        del parent[last]
    elif action == "scale" and isinstance(parent[last], (int, float)):
        parent[last] = parent[last] * draw(st.sampled_from(
            [-1, 2, 1e300, 1e-300, 0]))
    else:
        parent[last] = draw(JUNK)
    return obj


@CONTRACT
@given(data=st.data(), diagram=diagrams(),
       command=st.sampled_from(["spectrum", "derivative"]),
       broken=faults(), fmt=st.sampled_from(["json", "csv"]),
       exact=st.booleans())
def test_diagram_contract(tmp_path, capsys, data, diagram, command, broken,
                          fmt, exact):
    (tmp_path / "diagram.json").write_text(json.dumps(diagram))
    flags = data.draw(sweep_flags(broken))
    flags["format"] = fmt
    argv = _argv(command, flags, tmp_path, data.draw, broken)
    argv += ["--input", str(tmp_path / "diagram.json")]
    if exact and command == "spectrum":
        argv.append("--exact")
    rc, out, err = _run(argv, capsys)
    _check_contract(rc, out, err, fmt)


# The public surface of the package: adding or removing a name is a stated
# change, so it shows up here as a reviewed diff.
PUBLIC_NAMES = [
    "B1NotZero", "BoundaryMembership", "CylStructure",
    "DegreeBlock", "DerivativeModel", "DiagramReport",
    "GluingReport", "HarmonicPair", "InconsistentTargets", "KForm6", "KForm7",
    "Metric7", "MismatchedLimits", "NeckTooShort", "NoDecay", "NoLimit",
    "NotStable", "Omega0", "SingularBoundary", "SpectralForm",
    "Subspaces", "SumDiagram", "TGrid", "TorsionMeasure",
    "assemble_cylindrical", "boundary_class_check",
    "closed_perturbation_structure", "codifferential", "decompose_cyl",
    "derivative_model", "diagram_from_json", "diagram_to_json",
    "estimate_decay_rate", "exterior_d",
    "fit_torsion_slope", "flat_structure", "glue_fields", "gluing_matrix",
    "gram_from_3form", "harmonic_project", "hodge_star", "induced_4form",
    "inner_l2", "integral_to_infinity", "is_g2_form", "load_diagram",
    "metric_from_3form", "modulated_shear_structure", "norm_l2", "norm_sup",
    "omega0", "phi0", "product_diagram", "sample_pair", "save_diagram",
    "sheared_structure", "shift_C", "singular_levels", "split_cylindrical",
    "su3_tangent_residual", "subspaces", "synth_diagram",
    "torsion_reduce", "torsion_residual", "validate_C", "validate_diagram",
    "yh_full",
]


def test_public_names():
    # Submodules become package attributes once imported, so they are
    # left out: which ones are loaded depends on what ran before.
    names = sorted(name for name, value in vars(g2glue).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES


def test_every_public_name_is_used():
    # A public name earns its place by a reference in the package's own
    # code (a name or an attribute; imports, __all__ entries, def lines and
    # docstrings do not count) or by being named in the README.
    root = pathlib.Path(__file__).resolve().parents[1]
    used = set()
    for path in (root / "src" / "g2glue").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    named = set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    assert [name for name in PUBLIC_NAMES if name not in used | named] == []


# Signatures of the pointwise kernels, the torsion pipeline and the
# diagram layer: changing one is a stated change, so it shows up here as a
# diff to this table.
KERNEL_SIGNATURES = {
    forms.gram_from_3form: "(phi: 'ConstForm') -> 'np.ndarray'",
    forms.hodge_star: "(metric, alpha: 'ConstForm') -> 'ConstForm'",
    forms.ConstForm.wedge: "(self, other: \"'ConstForm'\") -> \"'ConstForm'\"",
    forms.ConstForm.contract: "(self, axis: 'int') -> \"'ConstForm'\"",
    forms.ConstForm.pullback: "(self, a: 'np.ndarray') -> \"'ConstForm'\"",
    forms.gram_batch: "(coeffs: 'np.ndarray') -> 'np.ndarray'",
    forms.metric_batch: "(coeffs: 'np.ndarray') -> 'np.ndarray'",
    forms.star3_batch:
        "(coeffs: 'np.ndarray', *, dt_free: 'bool' = False) -> 'np.ndarray'",
    fields.SpectralForm.__init__:
        "(self, degree: 'int', band: 'int', grid: 'TGrid', modes=None)",
    gluing.induced_4form: "(field: 'SpectralForm') -> 'SpectralForm'",
    gluing.torsion_residual:
        "(phi: 'SpectralForm', *, dphi: 'SpectralForm | None' = None)"
        " -> 'TorsionMeasure'",
    gluing.torsion_reduce:
        "(field: 'SpectralForm', tol: 'float' = 1e-10, max_iter: 'int' = 25)"
        " -> 'tuple[SpectralForm, GluingReport]'",
    cohomology.subspaces: "(d: 'SumDiagram', m: 'int') -> 'Subspaces'",
    cohomology.gluing_matrix:
        "(d: 'SumDiagram', m: 'int', length: 'float') -> 'np.ndarray'",
    cohomology.singular_levels: "(d: 'SumDiagram', m: 'int') -> 'np.ndarray'",
    cohomology.derivative_model:
        "(d: 'SumDiagram', omega_class: 'np.ndarray', length: 'float', *,"
        " tol: 'float' = 1e-10) -> 'DerivativeModel'",
    cohomology.validate_diagram:
        "(d: 'SumDiagram', *, tol: 'float' = 1e-10, exact: 'bool' = False)"
        " -> 'DiagramReport'",
    cohomology.validate_C:
        "(d: 'SumDiagram', *, tol: 'float' = 1e-10) -> 'DiagramReport'",
    cohomology.synth_diagram:
        "(seed: 'int', dim_e2d: 'int' = 0, spectrum: 'tuple[float, ...]' = (),"
        " *, b1_zero: 'bool' = True, scramble: 'bool' = True) -> 'SumDiagram'",
    cohomology.diagram_from_json: "(obj: 'dict') -> 'SumDiagram'",
}


def test_kernel_signatures():
    got = {fn.__qualname__: str(inspect.signature(fn)) for fn in KERNEL_SIGNATURES}
    assert got == {fn.__qualname__: sig for fn, sig in KERNEL_SIGNATURES.items()}


def test_xi0_necks_form_b_as_the_dt_cubic(monkeypatch):
    # Every sample of a xi = 0 neck holds the model's dt-free block, during
    # its reduction too, so each B of the reduction is gram_batch's dt
    # cubic; the README modulated pair's star batches take U Q U^T.
    necks = {
        "closed vs flat": (gluing.closed_perturbation_structure(1),
                           gluing.flat_structure(-1), 5.0),
        "sheared vs sheared": (gluing.sheared_structure(1),
                               gluing.sheared_structure(-1), 4.0),
        "modulated vs flat": (gluing.modulated_shear_structure(1, rate=1.0,
                                                               amplitude=0.05),
                              gluing.flat_structure(-1), 4.0),
    }
    calls = []
    for name in ("_gram_dt_cubic", "_gram_uqu"):
        real = getattr(forms, name)

        def counting(rows, real=real, name=name):
            calls.append(name)
            return real(rows)

        monkeypatch.setattr(forms, name, counting)
    paths = {}
    for neck, (plus, minus, length) in necks.items():
        calls.clear()
        gluing.torsion_reduce(gluing.glue_fields(plus, minus, length))
        paths[neck] = set(calls)
    assert paths == {"closed vs flat": {"_gram_dt_cubic"},
                     "sheared vs sheared": {"_gram_dt_cubic"},
                     "modulated vs flat": {"_gram_uqu"}}


def test_descriptor_params():
    got = {kind: {name: None if p.annotation is p.empty else p.annotation
                  for name, p in inspect.signature(factory).parameters.items()
                  if name != "sign"}
           for kind, factory in cli._STRUCTURE_KINDS.items()}
    assert got == DESCRIPTOR_PARAMS


def test_the_t_fourier_layout_has_one_home():
    # fields.TGrid owns the neck's t-Fourier layout: numpy's fft module is
    # named in fields.py alone (its torus transforms and TGrid), and the
    # d/dt multiplier is read inside TGrid alone.
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "g2glue"
    strays = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        home = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "TGrid"
                for node in ast.walk(cls)} if path.name == "fields.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                name = " ".join([getattr(node, "module", None) or ""]
                                + [alias.name for alias in node.names])
            else:
                continue
            fft = "fft" in re.split(r"\W", name) and path.name != "fields.py"
            if fft or (name == "_ddt_multiplier" and id(node) not in home):
                strays.append(f"{path.name}:{node.lineno}: {name}")
    assert strays == []


def test_the_mirror_mode_has_one_home():
    # A real field stores one mode of each +-xi pair, and fields.py alone
    # knows the other: no other module builds a mirrored key, as
    # tuple(-v for v in xi), or conjugates a mode.
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "g2glue"
    strays = []
    for path in sorted(root.glob("*.py")):
        if path.name == "fields.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            negated = (isinstance(node, (ast.GeneratorExp, ast.ListComp))
                       and isinstance(node.elt, ast.UnaryOp)
                       and isinstance(node.elt.op, ast.USub))
            if negated or name in ("conj", "conjugate"):
                strays.append(f"{path.name}:{node.lineno}")
    assert strays == []


def test_source_names_no_planning_document():
    # Planning documents are renumbered as work lands, so a pointer into
    # one goes stale; the source states what it means in its own words.
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "g2glue"
    hits = [f"{path.name}:{n}" for path in sorted(root.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8")
                                     .splitlines(), 1)
            if re.search(r"ROADMAP|CHANGES", line)]
    assert hits == []


# The package's layers, lowest first: a module imports only from layers
# below its own.  cohomology stands apart, on ratmat alone.
LAYERS = ["ratmat", "forms", "fields", "gluing", "cli"]
ALLOWED_IMPORTS = {name: set(LAYERS[:i]) for i, name in enumerate(LAYERS)}
ALLOWED_IMPORTS["cohomology"] = {"ratmat"}
ALLOWED_IMPORTS["cli"].add("cohomology")


def _package_imports(tree):
    """(line, module) for every import of a g2glue module in the tree,
    relative or absolute, function-local ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["g2glue" * bool(node.level),
                                            node.module]))
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "g2glue" else [module])
        else:
            continue
        for name in names:
            if name.startswith("g2glue."):
                yield node.lineno, name.split(".")[1]


def test_modules_import_downward():
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "g2glue"
    modules = sorted(p for p in root.glob("*.py") if p.name != "__init__.py")
    assert {p.stem for p in modules} == set(ALLOWED_IMPORTS)
    upward = [f"{path.name}:{line}: {target}"
              for path in modules
              for line, target in _package_imports(
                  ast.parse(path.read_text(encoding="utf-8")))
              if target not in ALLOWED_IMPORTS[path.stem]]
    assert upward == []
