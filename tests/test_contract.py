"""Exit-code contract of the command line under generated input.

Every run ends in exit 0 or 1 with a report whose numbers are finite, or
in exit 2 with one line on stderr and nothing on stdout; never in an
escaping exception.  Structure descriptors, diagram JSON and sweep flags
(given on the command line or in a config file) are generated with a
fixed derandomized seed, so the cases are the same on every run.  Each
case breaks a few fields at most, so that most cases get past the loaders
and into the numerics.

Sizes stay small: neck lengths come as a start plus at most two steps,
and extent, density and band come from short lists, so that every case
runs in well under a second.  How the program treats a range of 1e300
lengths or a grid of 1e12 samples is not covered here.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from g2glue import cli
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
    "direction": (st.integers(2, 7), JUNK),
    "modulation": (st.integers(2, 7), JUNK),
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
    "K": (st.sampled_from([None, 0, 1, 2]), st.sampled_from([-2, 12])),
}
KINDS = sorted(cli._STRUCTURE_KINDS)
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
    allowed = sorted(cli._STRUCTURE_KINDS[kind][1])
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
    if flags["K"] is None:
        del flags["K"]
    flags["seed"] = draw(st.integers(-2**70, 2**70))
    return flags


def _argv(command, flags, tmp_path, draw, broken):
    """Flags on the command line, some moved to a config file."""
    moved = draw(st.sets(st.sampled_from(sorted(flags))))
    config = {key: flags[key] for key in moved}
    if "config" in broken:
        config[draw(st.sampled_from(["L_start", "L_step", "tol", "seed",
                                     "K", "format", "exact"]))] = draw(JUNK)
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
    flags.pop("K", None)
    flags["format"] = fmt
    argv = _argv(command, flags, tmp_path, data.draw, broken)
    argv += ["--input", str(tmp_path / "diagram.json")]
    if exact and command == "spectrum":
        argv.append("--exact")
    rc, out, err = _run(argv, capsys)
    _check_contract(rc, out, err, fmt)
