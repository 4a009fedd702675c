"""End-to-end tests for the command-line runners."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from g2glue import cli, cohomology, forms
from g2glue.cohomology import (
    SingularBoundary,
    diagram_from_json,
    diagram_to_json,
    save_diagram,
    subspaces,
    synth_diagram,
)
from g2glue.gluing import (
    fit_torsion_slope,
    flat_structure,
    glue_fields,
    modulated_shear_structure,
    torsion_reduce,
)


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_structure(path, sign, kind="flat", **params):
    obj = {"schema": "g2glue-structure/1", "kind": kind, "sign": sign,
           "params": params}
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def flat_pair(tmp_path):
    plus = write_structure(tmp_path / "plus.json", 1)
    minus = write_structure(tmp_path / "minus.json", -1)
    return plus, minus


@pytest.fixture()
def diagram_file(tmp_path):
    path = tmp_path / "diagram.json"
    save_diagram(synth_diagram(5, 1, (-6.0,)), path)
    return str(path)


# -- pointwise-check -------------------------------------------------------

def test_pointwise_check_passes(capsys):
    rc, out, _ = run_cli(["pointwise-check"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == cli.SCHEMA
    assert payload["seed"] == 0
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_pointwise_check_corrupt_table_fails(capsys):
    rc, out, _ = run_cli(["pointwise-check", "--corrupt"], capsys)
    assert rc == 1
    payload = json.loads(out)
    broken = {c["name"]: c["passed"] for c in payload["checks"]}
    assert broken["calibration-identity"] is False


@pytest.mark.parametrize("command, flag", [
    ("pointwise-check", "--exact"), ("glue-sweep", "--exact"),
    ("derivative", "--exact"), ("synth", "--exact"), ("synth", "--tol=1e-6"),
    ("spectrum", "--K=2"), ("glue-sweep", "--K=2")])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_unread_flag_or_key_exits_two(tmp_path, capsys, command, flag, via):
    # A command offers only the flags, and config keys, that it reads.
    key, _, value = flag[2:].partition("=")
    if via == "flag":
        argv = [command, flag]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: json.loads(value or "true")}))
        argv = [command, "--config", str(config)]
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and key in captured.err


def test_pointwise_worst_of_checks_propagate_nan(monkeypatch):
    # Python's max keeps its first argument when the second is NaN, so a
    # NaN deviation after a finite one must not read as a pass.
    real_star, real_gram = cli._star_matrix, cli.gram_from_3form
    grams = []

    def nan_star(metric, k):
        out = real_star(metric, k)
        if k == 5:      # first read by the degree-2 round trip, after the
            out = out.copy()    # finite degree-0 and degree-1 ones
            out[-1, -1] = math.nan
        return out

    def nan_gram(phi):
        grams.append(1)
        out = real_gram(phi)
        return np.full_like(out, np.nan) if len(grams) == 3 else out

    monkeypatch.setattr(cli, "_star_matrix", nan_star)
    monkeypatch.setattr(cli, "gram_from_3form", nan_gram)
    inv = cli._check_involution(np.random.default_rng(1), 1e-10, trials=1)
    eqv = cli._check_equivariance(np.random.default_rng(1), trials=3)
    assert math.isnan(inv["worst"]) and not inv["passed"]
    assert math.isnan(eqv["worst"]) and not eqv["passed"]


def test_pointwise_check_bytes_reproducible(capsys):
    rc1, out1, _ = run_cli(["pointwise-check", "--seed", "9"], capsys)
    rc2, out2, _ = run_cli(["pointwise-check", "--seed", "9"], capsys)
    assert (rc1, rc2) == (0, 0)
    assert out1 == out2
    _, csv1, _ = run_cli(["pointwise-check", "--seed", "9",
                          "--format", "csv"], capsys)
    _, csv2, _ = run_cli(["pointwise-check", "--seed", "9",
                          "--format", "csv"], capsys)
    assert csv1 == csv2 and csv1 != out1


# First 16 hex digits of the sha256 of pointwise-check stdout, by seed, in
# JSON and with --corrupt in CSV, recorded while the star-involution check
# still sent each random form through hodge_star twice.
POINTWISE_GOLDEN = {0: ("ac745c0f896e7ba7", "0a10a009e509407f"),
                    5: ("d3236332733f37e7", "814cedc7a24648ea"),
                    9: ("73c0fb01784fefd9", "9858e880afd147b5")}


@pytest.mark.parametrize("seed", sorted(POINTWISE_GOLDEN))
def test_pointwise_check_matches_golden_bytes(capsys, seed):
    got = []
    for flags, code in (([], 0), (["--corrupt", "--format", "csv"], 1)):
        rc, out, err = run_cli(["pointwise-check", "--seed", str(seed), *flags],
                               capsys)
        assert (rc, err) == (code, "")
        got.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(got) == POINTWISE_GOLDEN[seed]


@pytest.mark.parametrize("trials", [1, 3])
def test_involution_builds_each_star_matrix_once(monkeypatch, trials):
    # Eight degrees per random metric, each star matrix built once and
    # read by both round trips that use it; no form goes through hodge_star.
    built, starred = [], []

    def counted(real, calls):
        def wrapper(*args):
            calls.append(1)
            return real(*args)
        return wrapper

    real = forms._star_matrix
    monkeypatch.setattr(forms, "_star_matrix", counted(real, built))
    monkeypatch.setattr(cli, "_star_matrix", counted(real, built),
                        raising=False)
    monkeypatch.setattr(cli, "hodge_star", counted(cli.hodge_star, starred))
    out = cli._check_involution(np.random.default_rng(2), 1e-10, trials=trials)
    assert out["passed"] and out["trials"] == trials
    assert (len(built), len(starred)) == (8 * trials, 0)


# -- glue-sweep ------------------------------------------------------------

def test_glue_sweep_flat_pair_csv(flat_pair, capsys):
    plus, minus = flat_pair
    rc, out, _ = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                          "--L-start", "4", "--L-stop", "6",
                          "--format", "csv"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# schema=")
    header_at = next(i for i, ln in enumerate(lines)
                     if not ln.startswith("#"))
    assert lines[header_at] == ("L,torsion_d_L2,torsion_d_sup,torsion_ds_L2,"
                                "torsion_ds_sup,iters,converged")
    rows = [ln.split(",") for ln in lines[header_at + 1:]]
    assert [r[0] for r in rows] == ["4.0", "5.0", "6.0"]
    assert all(r[-1] == "true" for r in rows)


def test_glue_sweep_json_matches_csv_lengths(flat_pair, capsys):
    plus, minus = flat_pair
    rc, out, _ = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                          "--L-stop", "5"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert [row["L"] for row in payload["rows"]] == [4.0, 5.0]
    assert payload["passed"] is True


def test_glue_sweep_bytes_reproducible(flat_pair, capsys):
    plus, minus = flat_pair
    argv = ["glue-sweep", "--input", plus, "--input2", minus,
            "--L-stop", "5"]
    _, out1, _ = run_cli(argv, capsys)
    _, out2, _ = run_cli(argv, capsys)
    assert out1 == out2


def test_glue_sweep_sign_slot_mismatch(flat_pair, capsys):
    plus, _ = flat_pair
    rc, _, err = run_cli(["glue-sweep", "--input", plus, "--input2", plus],
                         capsys)
    assert rc == 2
    assert "sign" in err


def test_glue_sweep_rejects_unknown_kind(tmp_path, flat_pair, capsys):
    _, minus = flat_pair
    bad = write_structure(tmp_path / "bad.json", 1, kind="wobbly")
    rc, _, err = run_cli(["glue-sweep", "--input", bad, "--input2", minus],
                         capsys)
    assert rc == 2
    assert "kind" in err and "wobbly" in err


def test_glue_sweep_rejects_unknown_param(tmp_path, flat_pair, capsys):
    _, minus = flat_pair
    bad = write_structure(tmp_path / "bad.json", 1, wiggle=3.0)
    rc, _, err = run_cli(["glue-sweep", "--input", bad, "--input2", minus],
                         capsys)
    assert rc == 2
    assert "wiggle" in err


def test_glue_sweep_rejects_bad_length_range(flat_pair, capsys):
    plus, minus = flat_pair
    rc, _, err = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                          "--L-step", "0"], capsys)
    assert rc == 2 and "step" in err
    rc, _, err = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                          "--L-start", "3", "--L-stop", "3"], capsys)
    assert rc == 2 and "L" in err


def test_glue_sweep_below_threshold_reports_unconverged(tmp_path, flat_pair,
                                                        capsys):
    _, minus = flat_pair
    shear = write_structure(tmp_path / "shear.json", 1,
                            kind="modulated-shear", amplitude=0.05)
    rc, out, _ = run_cli(["glue-sweep", "--input", shear, "--input2", minus,
                          "--L-start", "4", "--L-stop", "4"], capsys)
    assert rc == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert [row["converged"] for row in payload["rows"]] == [False]


def test_glue_sweep_rejects_non_finite_param(tmp_path, flat_pair, capsys):
    _, minus = flat_pair
    bad = tmp_path / "nan.json"
    bad.write_text('{"schema": "g2glue-structure/1", "kind": '
                   '"modulated-shear", "sign": 1, '
                   '"params": {"amplitude": NaN}}')
    rc, out, err = run_cli(["glue-sweep", "--input", str(bad),
                            "--input2", minus, "--L-stop", "4"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "amplitude" in err and "finite" in err


@pytest.mark.parametrize("kind, params", [
    ("sheared", {"direction": 7.0}), ("modulated-shear", {"direction": 4.0}),
    ("flat", {"band": True}), ("closed-perturbation", {"amplitude": True})])
def test_descriptor_param_takes_its_annotated_type(tmp_path, flat_pair,
                                                   capsys, kind, params):
    plus = write_structure(tmp_path / "typed.json", 1, kind=kind, **params)
    rc, out, err = run_cli(["glue-sweep", "--input", plus,
                            "--input2", flat_pair[1], "--L-stop", "4"], capsys)
    assert rc == 2 and out == "" and err.count("\n") == 1
    (key, value), = params.items()
    assert f"parameter {key!r} must be " in err and repr(value) in err


def test_param_past_float_range_exits_two(tmp_path, flat_pair, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"schema": "g2glue-structure/1", "kind": "flat", '
                    '"sign": 1, "params": {"extent": 1' + "0" * 400 + '}}')
    rc, out, err = run_cli(["glue-sweep", "--input", str(huge),
                            "--input2", flat_pair[1], "--L-stop", "4"], capsys)
    assert rc == 2 and out == "" and err.count("\n") == 1


def test_float_param_takes_a_json_integer(tmp_path, flat_pair, capsys):
    plus = write_structure(tmp_path / "int.json", 1,
                           kind="closed-perturbation", rate=1, amplitude=1e-3)
    rc, out, err = run_cli(["glue-sweep", "--input", plus,
                            "--input2", flat_pair[1], "--L-stop", "4"], capsys)
    assert rc == 0 and err == "" and json.loads(out)["passed"]


def test_glue_sweep_rejects_mismatched_density(tmp_path, flat_pair, capsys):
    _, minus = flat_pair
    coarse = write_structure(tmp_path / "coarse.json", 1, density=32)
    rc, out, err = run_cli(["glue-sweep", "--input", coarse,
                            "--input2", minus, "--L-stop", "4"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "spacing" in err


@pytest.mark.parametrize("density", [0, -64])
def test_glue_sweep_rejects_a_density_that_is_not_positive(tmp_path, capsys,
                                                           density):
    plus = write_structure(tmp_path / "plus.json", 1, density=density)
    minus = write_structure(tmp_path / "minus.json", -1, density=density)
    rc, out, err = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                            "--L-stop", "4"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "density" in err


def test_glue_sweep_rejects_a_grid_too_short_for_its_density(tmp_path,
                                                             capsys):
    # 6 steps at density 1 cannot hold the 8 samples a grid needs; such a
    # half was once respaced to h = 6/7 and then refused for an L that is
    # a whole number of steps at its declared density.
    plus = write_structure(tmp_path / "plus.json", 1, density=1, extent=6)
    minus = write_structure(tmp_path / "minus.json", -1, density=1, extent=6)
    rc, out, err = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                            "--L-stop", "4"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "extent 6" in err and "density 1" in err


def test_glue_sweep_unstable_perturbation_exits_two(tmp_path, flat_pair,
                                                   capsys):
    _, minus = flat_pair
    big = write_structure(tmp_path / "big.json", 1,
                          kind="closed-perturbation", amplitude=5)
    rc, out, err = run_cli(["glue-sweep", "--input", big, "--input2", minus,
                            "--L-start", "6", "--L-stop", "6"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "L = 6.0" in err


def test_glue_sweep_diverged_row_reports_its_steps(tmp_path, flat_pair,
                                                   capsys):
    _, minus = flat_pair
    shear = write_structure(tmp_path / "shear.json", 1,
                            kind="modulated-shear", amplitude=0.05)
    rc, out, _ = run_cli(["glue-sweep", "--input", shear, "--input2", minus,
                          "--L-start", "5", "--L-stop", "5"], capsys)
    assert rc == 1
    [row] = json.loads(out)["rows"]
    glued = glue_fields(modulated_shear_structure(1, amplitude=0.05),
                        flat_structure(-1), 5.0)
    _, rep = torsion_reduce(glued, tol=1e-10)
    assert rep.stop_reason == "diverged"
    assert row["iters"] == rep.iterations > 0
    assert row["converged"] is False
    assert (row["torsion_d_sup"], row["torsion_ds_sup"]) == (rep.torsion_d_sup,
                                                             rep.torsion_ds_sup)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_glue_sweep_rejects_non_finite_samples(tmp_path, flat_pair, capsys):
    # Finite parameters whose perturbation overflows to inf.
    _, minus = flat_pair
    huge = write_structure(tmp_path / "huge.json", 1,
                           kind="closed-perturbation", rate=0.1,
                           amplitude=1.5e308)
    rc, out, err = run_cli(["glue-sweep", "--input", huge, "--input2", minus,
                            "--L-stop", "5"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "huge.json" in err and "finite" in err


def test_glue_sweep_overflow_prints_one_stderr_line(tmp_path, flat_pair):
    # Warnings left unfiltered: numpy's overflow warnings would reach stderr.
    _, minus = flat_pair
    huge = write_structure(tmp_path / "huge.json", 1,
                           kind="closed-perturbation", rate=1.0,
                           amplitude=1e308)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "g2glue.cli", "glue-sweep",
         "--input", huge, "--input2", minus, "--L-stop", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error: cannot reduce at L = 4.0")


@pytest.mark.parametrize("probe", ["lengths", "extent"])
def test_oversized_input_exits_two_without_allocating(tmp_path, flat_pair,
                                                      capsys, probe):
    plus, minus = flat_pair
    if probe == "lengths":
        extra = ["--L-start", "0", "--L-stop", "1e300", "--L-step", "1"]
    else:
        plus = write_structure(tmp_path / "long.json", 1, extent=1e9)
        extra = []
    tracemalloc.start()
    try:
        rc, out, err = run_cli(["glue-sweep", "--input", plus,
                                "--input2", minus, *extra], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert peak < 4 << 20


@pytest.mark.parametrize("kind, amplitude, lengths, reasons", [
    ("closed-perturbation", 2e-3, [5.0, 5.5, 6.0], ["converged"] * 3),
    # The stalling pair: a stopped reduction is a row, not an error.
    ("modulated-shear", 0.05, [5.0], ["diverged"]),
], ids=["closed", "modulated"])
def test_glue_sweep_rows_equal_torsion_reduce_reports(tmp_path, flat_pair,
                                                      capsys, kind, amplitude,
                                                      lengths, reasons):
    _, minus = flat_pair
    plus = write_structure(tmp_path / "half.json", 1, kind=kind,
                           amplitude=amplitude)
    rc, out, _ = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                          "--L-start", repr(lengths[0]),
                          "--L-stop", repr(lengths[-1]),
                          "--L-step", "0.5"], capsys)
    half = cli._STRUCTURE_KINDS[kind](1, amplitude=amplitude)
    serial = [torsion_reduce(glue_fields(half, flat_structure(-1), length))[1]
              for length in lengths]
    assert [r.stop_reason for r in serial] == reasons
    assert rc == (0 if all(r.converged for r in serial) else 1)
    slope = fit_torsion_slope(serial)
    payload = json.loads(out)
    assert payload["rows"] == json.loads(cli._json_text(
        [dataclasses.replace(r, slope=slope).to_json_obj()
         for r in serial]))
    assert payload["slope"] == slope


def test_converged_sweep_fits_no_slope(tmp_path, flat_pair, capsys):
    # Converged rows sit at the roundoff floor: a slope there fits roundoff.
    closed = write_structure(tmp_path / "closed.json", 1,
                             kind="closed-perturbation", amplitude=1e-3)
    argv = ["glue-sweep", "--input", closed, "--input2", flat_pair[1],
            "--L-start", "4", "--L-stop", "8", "--L-step", "0.5"]
    rc, out, _ = run_cli(argv, capsys)
    payload = json.loads(out)
    assert rc == 0 and payload["slope"] is None and len(payload["rows"]) == 9
    assert all(r["converged"] and "slope" not in r for r in payload["rows"])
    assert "# slope=" not in run_cli(argv + ["--format", "csv"], capsys)[1]


_FAULTS_PER_STEP = """
import resource, sys
import numpy as np
from g2glue import cli
if sys.argv[1] == "keep":
    cli._keep_freed_memory()

def step():
    # six live 3 MB blocks, freed together, as in one reduction step
    return sum(float(b[0]) for b in [np.ones(3 << 17) for _ in range(6)])

step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_keep_freed_memory_stops_refaulting_freed_blocks():
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except ValueError:
        glibc = None
    if not glibc:
        pytest.skip("not glibc")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def faults(mode):
        out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP, mode],
                             capture_output=True, text=True, env=env,
                             check=True).stdout
        return int(out)

    default, kept = faults("default"), faults("keep")
    # Default thresholds hand the 18 MB back and fault it in again each
    # step (about 4600 pages a step with glibc 2.36); kept memory is reused.
    assert default > 10_000
    assert kept < 200


@pytest.mark.parametrize("extra", [["--L-stop=inf"], ["--tol=nan"],
                                   ["--L-start=abc"], ["--bogus"]])
def test_glue_sweep_bad_flag_exits_two_with_one_line(flat_pair, capsys,
                                                     extra):
    plus, minus = flat_pair
    try:
        rc = cli.main(["glue-sweep", "--input", plus, "--input2", minus,
                       *extra])
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.count("\n") == 1


def test_glue_sweep_rejects_bad_config_and_component(tmp_path, flat_pair,
                                                     capsys):
    plus, minus = flat_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": float("inf")}))
    rc, out, err = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                            "--config", str(config)], capsys)
    assert rc == 2 and out == "" and "configuration" in err
    same = write_structure(tmp_path / "same.json", 1,
                           kind="closed-perturbation", component=[2, 2])
    rc, out, err = run_cli(["glue-sweep", "--input", same, "--input2", minus],
                           capsys)
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert "component" in err


def test_glue_sweep_missing_file(flat_pair, capsys):
    plus, _ = flat_pair
    rc, _, err = run_cli(["glue-sweep", "--input", plus,
                          "--input2", "/nonexistent/m.json"], capsys)
    assert rc == 2
    assert "m.json" in err


# -- spectrum --------------------------------------------------------------

def test_spectrum_valid_diagram(diagram_file, capsys):
    rc, out, _ = run_cli(["spectrum", "--input", diagram_file], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["valid"] is True and payload["failures"] == []
    assert payload["levels"]["3"] == pytest.approx([3.0])
    by_len = {row["L"]: row for row in payload["rows"]}
    assert by_len[3.0]["deficient"] is True
    assert by_len[4.0]["deficient"] is False
    assert by_len[3.0]["gap"] < 1e-8 < by_len[4.0]["gap"]


def test_spectrum_exact_mode_agrees(diagram_file, capsys):
    rc, out, _ = run_cli(["spectrum", "--input", diagram_file, "--exact"],
                         capsys)
    assert rc == 0
    assert json.loads(out)["valid"] is True


def test_spectrum_corrupted_diagram_fails(tmp_path, diagram_file, capsys):
    obj = json.loads(Path(diagram_file).read_text())
    block = next(b for b in obj["degrees"]
                 if np.asarray(b["maps"]["mv_delta"]).size)
    block["maps"]["mv_delta"][0][0] += 1e-3
    bad = tmp_path / "bad_diagram.json"
    bad.write_text(json.dumps(obj))
    rc, out, _ = run_cli(["spectrum", "--input", str(bad)], capsys)
    assert rc == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert payload["failures"]


def test_spectrum_unparseable_input(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("not json at all")
    rc, _, err = run_cli(["spectrum", "--input", str(path)], capsys)
    assert rc == 2
    assert "garbage.json" in err


def _broken_diagram(tmp_path, diagram_file, probe):
    obj = json.loads(Path(diagram_file).read_text())
    if probe == "nan-mv-delta":
        block = next(b for b in obj["degrees"]
                     if np.asarray(b["maps"]["mv_delta"]).size)
        block["maps"]["mv_delta"][0][0] = float("nan")
    else:
        block = next(b for b in obj["degrees"] if np.asarray(b["ip_X"]).size)
        block["ip_X"][0][0] = -abs(block["ip_X"][0][0])
    path = tmp_path / f"{probe}.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("command", ["spectrum", "derivative"])
@pytest.mark.parametrize("probe", ["nan-mv-delta", "negative-ip-x"])
def test_unusable_diagram_exits_two(tmp_path, diagram_file, capsys,
                                    command, probe):
    bad = _broken_diagram(tmp_path, diagram_file, probe)
    rc, out, err = run_cli([command, "--input", bad], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and f"{probe}.json" in err
    assert ("non-finite" if probe == "nan-mv-delta"
            else "positive definite") in err


def test_spectrum_malformed_diagram(tmp_path, diagram_file, capsys):
    obj = json.loads(Path(diagram_file).read_text())
    del obj["degrees"][3]["maps"]["istar_plus"]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(obj))
    rc, _, err = run_cli(["spectrum", "--input", str(bad)], capsys)
    assert rc == 2
    assert "broken.json" in err


# -- derivative ------------------------------------------------------------

def test_derivative_default_class(tmp_path, capsys):
    path = tmp_path / "d.json"
    save_diagram(synth_diagram(11, 1, (-4.0,)), path)
    rc, out, _ = run_cli(["derivative", "--input", str(path),
                          "--L-stop", "8"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["f_spectrum"] == pytest.approx([-4.0])
    assert payload["singular_lengths"] == pytest.approx([2.0])
    assert all(row["bijective"] for row in payload["rows"])
    assert payload["sigma_slope"] > 0


def test_derivative_hits_singular_length(tmp_path, capsys):
    path = tmp_path / "d.json"
    save_diagram(synth_diagram(11, 1, (-4.0,)), path)
    rc, out, _ = run_cli(["derivative", "--input", str(path),
                          "--L-start", "2", "--L-stop", "2"], capsys)
    assert rc == 0
    row, = json.loads(out)["rows"]
    assert row["bijective"] is False


def test_derivative_omega_from_file(tmp_path, diagram_file, capsys):
    d = diagram_from_json(json.loads(Path(diagram_file).read_text()))
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps({"omega": [1.0] + [0.0] * (d.dim("H_X", 2) - 1)}))
    rc, out, _ = run_cli(["derivative", "--input", diagram_file,
                          "--input2", str(omega)], capsys)
    assert rc == 0
    assert json.loads(out)["rows"]


def test_derivative_rejects_wrong_length_omega(tmp_path, diagram_file, capsys):
    d = diagram_from_json(json.loads(Path(diagram_file).read_text()))
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps({"omega": [1.0] * (d.dim("H_X", 2) + 1)}))
    rc, _, err = run_cli(["derivative", "--input", diagram_file,
                          "--input2", str(omega)], capsys)
    assert rc == 2
    assert "omega" in err


# The derivative report of ``synth --seed 3``, whose degree-2 section has
# dimension 2, for an omega file: the first 16 hex digits of the sha256 of
# stdout, or None where the file must exit 2 with one line.  A zero omega
# distinguishes no class, so it exits 2 too.
@pytest.mark.parametrize("omega, sha", [
    ('[1, 0]', "14ae0b4f6498026b"), ('[0, 0]', None), ('[0.0, -0.0]', None),
    ('["a", 0]', None), ('"ab"', None), ('[NaN, 0]', None),
    ('[true, 0]', None), ('[1e999, 0]', None),
    pytest.param(f"[{10 ** 400}, 0]", None, id="past-float-range")])
def test_derivative_omega_is_a_list_of_finite_numbers(tmp_path, capsys, omega,
                                                      sha):
    diagram, path = tmp_path / "d.json", tmp_path / "omega.json"
    assert cli.main(["synth", "--seed", "3", "--out", str(diagram)]) == 0
    path.write_text('{"omega": %s}' % omega)
    rc, out, err = run_cli(["derivative", "--input", str(diagram),
                            "--input2", str(path)], capsys)
    if sha is None:
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {path}: ") and "omega" in err
    else:
        assert (rc, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == sha


def test_derivative_refuses_omega_without_degree_two_classes(tmp_path,
                                                             capsys):
    # A diagram with no degree-2 cross-section class: the one well-sized
    # omega, [], distinguishes nothing, and so does the default.
    b = cohomology._Builder()
    for degree in (0, 3, 6):
        cohomology._strand_shared(b, degree)
    for degree in (1, 3, 5):
        for side in (+1, -1):
            cohomology._strand_onesided(b, degree, side)
    diagram = cohomology.SumDiagram(b.blocks())
    assert diagram.dim("H_X", 2) == 0
    path, omega = tmp_path / "d.json", tmp_path / "omega.json"
    save_diagram(diagram, path)
    omega.write_text('{"omega": []}')
    for extra in (["--input2", str(omega)], []):
        rc, out, err = run_cli(["derivative", "--input", str(path), *extra],
                               capsys)
        assert rc == 2 and out == "" and err.count("\n") == 1
        assert "no degree-2 class to distinguish" in err


def test_derivative_needs_trivial_degree_one(tmp_path, capsys):
    path = tmp_path / "b1.json"
    save_diagram(synth_diagram(13, 0, (), b1_zero=False), path)
    rc, _, err = run_cli(["derivative", "--input", str(path)], capsys)
    assert rc == 2
    assert "degree-1" in err


def test_derivative_singular_boundary_exits_two(tmp_path, capsys):
    obj = diagram_to_json(synth_diagram(2, 2, (-6.0, -2.0)))
    obj["degrees"][2]["maps"]["jstar_minus"][1][0] = 0.0
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(obj))
    rc, out, err = run_cli(["derivative", "--input", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "degenerates" in err


def test_derivative_tol_leaves_the_operator_solve_alone(tmp_path, capsys):
    # Squash the degree-3 boundary map along one E+ direction.  To 1e-8 it
    # still has full rank on E+ under the one rank rule, to 1e-14 it does
    # not.  --tol only sets the cut-off for the class's component in E; the
    # neck operator is solved under the rule alone, so both runs print the
    # same even though 1e-6 lies above the 1e-8 squash.
    d = synth_diagram(3, 2, (-6.0, -3.0))
    v = subspaces(d, 2).e_plus[:, 0]

    def squashed(factor):
        squash = np.eye(v.size) - (1.0 - factor) * np.outer(v, v) @ d.gram(2)
        obj = diagram_to_json(d)
        maps = obj["degrees"][3]["maps"]
        maps["del_plus"] = (np.asarray(maps["del_plus"]) @ squash).tolist()
        return obj

    with pytest.raises(SingularBoundary):
        diagram_from_json(squashed(1e-14)).operator(3)
    obj = squashed(1e-8)
    diagram_from_json(obj).operator(3)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(obj))
    runs = [run_cli(["derivative", "--input", str(path), *extra], capsys)
            for extra in ([], ["--tol", "1e-6"])]
    (rc, out, _), (rc_tol, out_tol, err_tol) = runs
    assert rc == rc_tol == 0, err_tol
    got, want = json.loads(out_tol), json.loads(out)
    assert got.pop("tol") == 1e-6 and want.pop("tol") == 1e-10
    assert got == want


# -- synth -----------------------------------------------------------------

def test_synth_output_feeds_spectrum(tmp_path, capsys):
    out_path = tmp_path / "made.json"
    rc, _, _ = run_cli(["synth", "--seed", "7", "--out", str(out_path)],
                       capsys)
    assert rc == 0
    diagram_from_json(json.loads(out_path.read_text()))
    rc, out, _ = run_cli(["spectrum", "--input", str(out_path)], capsys)
    assert rc == 0
    assert json.loads(out)["valid"] is True


def test_synth_seed_determinism(tmp_path, capsys):
    _, out1, _ = run_cli(["synth", "--seed", "4"], capsys)
    _, out2, _ = run_cli(["synth", "--seed", "4"], capsys)
    _, out3, _ = run_cli(["synth", "--seed", "5"], capsys)
    assert out1 == out2
    assert out1 != out3
    assert json.loads(out1)["seed"] == 4


def test_synth_request_file(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"dim_e2d": 2, "spectrum": [-2.0, -8.0]}))
    rc, out, _ = run_cli(["synth", "--input", str(req)], capsys)
    assert rc == 0
    d = diagram_from_json(json.loads(out))
    assert d.dim("H_X", 2) >= 2


def test_synth_rejects_inconsistent_request(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"dim_e2d": 2, "spectrum": [-2.0]}))
    rc, _, err = run_cli(["synth", "--input", str(req)], capsys)
    assert rc == 2
    assert "spectrum" in err


@pytest.mark.parametrize("request_obj, key", [
    ({"b1_zero": "false", "dim_e2d": 0, "spectrum": []}, "b1_zero"),
    ({"dim_e2d": 1.7}, "dim_e2d"), ({"spectrum": ["-6"]}, "spectrum"),
    ({"spectrum": -6.0}, "spectrum"), ({"scramble": 0}, "scramble"),
    ({"dim_e2d": True, "spectrum": [True]}, "dim_e2d")])
def test_synth_request_key_takes_its_type(tmp_path, capsys, request_obj, key):
    req = tmp_path / "req.json"
    req.write_text(json.dumps(request_obj))
    rc, out, err = run_cli(["synth", "--input", str(req)], capsys)
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: unusable synthesis request") and key in err


def test_synth_rejects_unknown_key(tmp_path, capsys):
    req = tmp_path / "req.json"
    req.write_text(json.dumps({"modes": 3}))
    rc, _, err = run_cli(["synth", "--input", str(req)], capsys)
    assert rc == 2
    assert "modes" in err


def _golden_outputs(tmp_path, capsys, dim_e2d):
    """synth JSON, then spectrum and derivative JSON and CSV on its output."""
    request = tmp_path / f"request{dim_e2d}.json"
    request.write_text(json.dumps(
        {"dim_e2d": dim_e2d,
         "spectrum": [-3.0 - 2.0 * i for i in range(dim_e2d)]}))
    made = tmp_path / f"made{dim_e2d}.json"
    outputs = []
    for argv in (["synth", "--input", str(request), "--seed",
                  str(60 + dim_e2d), "--out", str(made)],
                 *(["spectrum", "--input", str(made), "--L-start", "0.25",
                    "--L-stop", "7", "--L-step", "0.25", "--format", fmt]
                   for fmt in ("json", "csv")),
                 *(["derivative", "--input", str(made), "--format", fmt]
                   for fmt in ("json", "csv"))):
        rc, out, err = run_cli(argv, capsys)
        assert rc == 0 and err == "", (argv, err)
        outputs.append(out or made.read_text())
    return outputs


# First 16 hex digits of the sha256 of each output of ``_golden_outputs``,
# recorded before the diagram commands kept their length-independent
# solves: a change to any byte of synth, spectrum or derivative output
# shows up here.
GOLDEN_SHA256 = {
    0: ['486d30592d1061a9', 'e3b418709c780e30', '39a35ecb67a179ca',
        '14ae0b4f6498026b', 'd1b7315b895663b6'],
    1: ['63df3df7eb181809', '1e654a36aaea2191', '1707e93f2fe4d346',
        'f2924c8ea26b4a1e', 'a3b9ddfd57d97af4'],
    2: ['f533b96c160c246d', '6a34b28515ce8b58', '4e3be951e9b848f4',
        'feec0b932ea38760', 'e0502c0292e8d8f6'],
    3: ['42103a2219e5e774', 'c7316c330689cd6a', '126004b2d272fc08',
        '0f6da526bc32ddf5', 'bc3003bec9f37b06'],
    4: ['869193147d2820b0', 'eaa98bce74cb15ef', 'bf816bf644430dbb',
        'd1dc06633354d1ac', '80d80b086bcc3424'],
}


@pytest.mark.parametrize("dim_e2d", range(5))
def test_diagram_commands_match_golden_bytes(tmp_path, capsys, dim_e2d):
    got = [hashlib.sha256(text.encode()).hexdigest()[:16]
           for text in _golden_outputs(tmp_path, capsys, dim_e2d)]
    assert got == GOLDEN_SHA256[dim_e2d]


# Glue-sweep runs of a half against the flat one: the plus half's kind
# and params, the length and format flags, the exit code and the first 16
# hex digits of the sha256 of stdout.  A change to any byte of the neck
# path's output shows up here.  The flat pair, every sample the model, and
# the long closed-perturbation necks cover the lengths 4 to 10 that the
# neck-closed benchmark draws.
# kind is the plus half's kind, its minus half flat, or the pair of kinds
# (plus, minus), the minus half at its factory's defaults; params are the
# plus half's.  The pairs pin the transplant of a minus half's xi = 0 and
# xi != 0 modes, dt blocks negated.
GLUE_GOLDEN = [
    ("closed-perturbation", {"amplitude": 2e-3},
     ["--L-start", "4", "--L-stop", "6.5", "--L-step", "0.5"],
     0, "1a11e51ac7da22be"),
    ("modulated-shear", {"rate": 1.0, "amplitude": 0.05},
     ["--L-start", "4", "--L-stop", "5", "--format", "csv"],
     1, "075e6975a20ccfcb"),
    ("flat", {}, ["--L-start", "4", "--L-stop", "6"], 0, "9cbc6c5f05ee84ee"),
    ("closed-perturbation", {"amplitude": 5e-3},
     ["--L-start", "8", "--L-stop", "10", "--L-step", "2", "--format", "json"],
     0, "14f83433fa171f70"),
    (("sheared", "sheared"), {}, ["--L-start", "4", "--L-stop", "5"],
     0, "f2a29e1bf16e18ea"),
    (("closed-perturbation", "modulated-shear"), {"amplitude": 2e-3},
     ["--L-start", "4", "--L-stop", "5", "--format", "csv"],
     1, "8c998bfbc7eb0f51"),
]


@pytest.mark.parametrize("kind, params, flags, code, sha", GLUE_GOLDEN)
def test_glue_sweep_matches_golden_bytes(tmp_path, capsys, kind, params,
                                         flags, code, sha):
    plus_kind, minus_kind = (kind, "flat") if isinstance(kind, str) else kind
    plus = write_structure(tmp_path / "plus.json", 1, plus_kind, **params)
    minus = write_structure(tmp_path / "minus.json", -1, minus_kind)
    rc, out, err = run_cli(["glue-sweep", "--input", plus, "--input2", minus,
                            *flags], capsys)
    assert (rc, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == sha


def reference_jsonable(value):
    """The conversion ``json.dumps`` was given before the one-pass writer."""
    if isinstance(value, dict):
        return {k: reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return value + 0.0 if math.isfinite(value) else repr(value)
    return value


@pytest.mark.parametrize("payload", [
    {"zero": -0.0, "inf": math.inf, "ninf": -math.inf, "nan": math.nan},
    {"scalars": [np.float64(-0.0), np.float32(0.1), np.int64(-7), np.bool_(True),
                 np.float64("inf"), np.int32(3), True, False, None, 2]},
    {"tuple": (1.5, (2, -0.0), ()), "empty": [], "nothing": {}, "s": "é\n\"x"},
    {"b": {"y": [[1e-300, -2.5e17], [], [[]]], "x": {}}, "a": np.zeros((2, 0))},
    {"levels": {"3": np.array([-0.0, 0.75, np.nan])},
     "rows": [{"L": 0.25, "rank": np.int64(4), "deficient": np.bool_(False),
               "gap": math.inf}]},
    [], {}, -0.0, np.float64(math.nan), "text",
])
def test_json_writer_matches_json_dumps(payload):
    want = json.dumps(reference_jsonable(payload), sort_keys=True, indent=2)
    assert cli._json_text(payload) == want


def test_synth_has_no_csv_form(capsys):
    rc, _, err = run_cli(["synth", "--format", "csv"], capsys)
    assert rc == 2
    assert "CSV" in err or "csv" in err


def test_spectrum_product_model_never_degenerates(tmp_path, capsys):
    from g2glue.cohomology import product_diagram
    path = tmp_path / "product.json"
    save_diagram(product_diagram((1, 0, 3, 4, 3, 0, 1)), path)
    rc, out, _ = run_cli(["spectrum", "--input", str(path)], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["levels"] == {}
    assert not any(row["deficient"] for row in payload["rows"])


# -- shared plumbing -------------------------------------------------------


def _csv_cell(value):
    """A JSON row value as the CSV writer spells it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _csv_case(case, tmp_path, diagram_file, flat_pair):
    """(argv, columns, JSON payload -> the rows the CSV holds)."""
    if case == "glue-sweep":
        closed = write_structure(tmp_path / "closed.json", 1,
                                 kind="closed-perturbation", amplitude=1e-3)
        return (["glue-sweep", "--input", closed, "--input2", flat_pair[1],
                 "--L-start", "4", "--L-stop", "5"],
                ("L", "torsion_d_L2", "torsion_d_sup", "torsion_ds_L2",
                 "torsion_ds_sup", "iters", "converged"),
                lambda payload: payload["rows"])
    if case == "spectrum-failing":
        obj = json.loads(Path(diagram_file).read_text())
        block = next(b for b in obj["degrees"]
                     if np.asarray(b["maps"]["mv_delta"]).size)
        block["maps"]["mv_delta"][0][0] += 1e-3
        bad = tmp_path / "bad_diagram.json"
        bad.write_text(json.dumps(obj))
        return (["spectrum", "--input", str(bad)], ("failure",),
                lambda payload: [{"failure": f} for f in payload["failures"]])
    if case == "spectrum":
        return (["spectrum", "--input", diagram_file],
                ("L", "rank", "full", "deficient", "gap"),
                lambda payload: payload["rows"])
    if case == "derivative":
        return (["derivative", "--input", diagram_file, "--L-stop", "8"],
                ("L", "bijective", "sigma_min", "gap"),
                lambda payload: payload["rows"])
    # A check records its worst deviation as worst or deviation; the
    # calibration check records neither and reads 0.0.
    return (["pointwise-check", "--seed", "9", "--corrupt"],
            ("name", "passed", "worst"),
            lambda payload: [{"name": c["name"], "passed": c["passed"],
                              "worst": c.get("worst", c.get("deviation", 0.0))}
                             for c in payload["checks"]])


@pytest.mark.parametrize("case", ["glue-sweep", "spectrum", "spectrum-failing",
                                  "derivative", "pointwise-check"])
def test_csv_rows_are_the_json_rows(tmp_path, diagram_file, flat_pair, capsys,
                                    case):
    argv, columns, json_rows = _csv_case(case, tmp_path, diagram_file,
                                         flat_pair)
    rc, out, _ = run_cli(argv, capsys)
    rc_csv, csv, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert rc == rc_csv
    lines = [ln for ln in csv.splitlines() if not ln.startswith("# ")]
    assert lines[0] == ",".join(columns)
    rows = json_rows(json.loads(out))
    assert rows
    assert [ln.split(",", len(columns) - 1) for ln in lines[1:]] == [
        [_csv_cell(row[col]) for col in columns] for row in rows]


def test_pointwise_report_carries_calibration_constant(capsys):
    rc, out, _ = run_cli(["pointwise-check"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["kappa"] == pytest.approx(36.0 ** (-1.0 / 9.0))


def test_config_file_supplies_flags(tmp_path, flat_pair, capsys):
    plus, minus = flat_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": plus, "input2": minus,
                                  "L_start": 4.0, "L_stop": 6.0,
                                  "L_step": 1.0}))
    rc, out, _ = run_cli(["glue-sweep", "--config", str(config)], capsys)
    assert rc == 0
    assert [row["L"] for row in json.loads(out)["rows"]] == [4.0, 5.0, 6.0]


COMMANDS = ["pointwise-check", "glue-sweep", "spectrum", "derivative", "synth"]

# A value for each config key; a JSON integer is a float value too.
KEY_VALUES = {"input": "a.json", "input2": "b.json", "L_start": 4.5,
              "L_stop": 7, "L_step": 0.5, "tol": 1e-6, "seed": 3,
              "format": "csv", "out": "report.csv", "exact": True}


def _flag(key, value):
    flag = "--" + key.replace("_", "-")
    return [flag] if value is True else [flag, str(value)]


def _resolved(argv):
    return cli._resolve_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("command", COMMANDS)
def test_flag_and_config_key_give_one_config(tmp_path, command):
    keys = cli._config_keys(cli.build_parser().parse_args([command]))
    assert keys
    for key in keys:
        value = KEY_VALUES[key]
        config = tmp_path / f"{key}.json"
        config.write_text(json.dumps({key: value}))
        by_flag = _resolved([command, *_flag(key, value)])
        by_key = _resolved([command, "--config", str(config)])
        assert repr(by_flag) == repr(by_key) and getattr(by_key, key) == value


def test_config_fields_are_the_parsers_dests():
    dests = set()
    for command in COMMANDS:
        dests |= set(vars(cli.build_parser().parse_args([command])))
    fields = {f.name for f in dataclasses.fields(cli.ScenarioConfig)}
    assert fields == dests - {"config", "corrupt", "func"}


@pytest.mark.parametrize("command, key, value", [
    ("glue-sweep", "seed", 1.5), ("spectrum", "seed", 4.7),
    ("spectrum", "seed", True), ("spectrum", "exact", "false"),
    ("spectrum", "L_start", "4"), ("spectrum", "input", None)])
def test_config_value_takes_its_flags_type(tmp_path, capsys, command, key,
                                           value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    rc, out, err = run_cli([command, "--config", str(config)], capsys)
    assert rc == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: bad configuration value") and key in err


def test_flags_override_config_file(tmp_path, flat_pair, capsys):
    plus, minus = flat_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": plus, "input2": minus,
                                  "L_stop": 10.0}))
    rc, out, _ = run_cli(["glue-sweep", "--config", str(config),
                          "--L-stop", "5"], capsys)
    assert rc == 0
    assert [row["L"] for row in json.loads(out)["rows"]] == [4.0, 5.0]


def test_config_file_rejects_unknown_key(tmp_path, flat_pair, capsys):
    plus, minus = flat_pair
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": plus, "input2": minus,
                                  "neck": 4.0}))
    rc, _, err = run_cli(["glue-sweep", "--config", str(config)], capsys)
    assert rc == 2
    assert "neck" in err


@pytest.mark.parametrize("dim_e2d", range(5))
def test_one_plan_per_command_solves_each_degree_once(tmp_path, capsys,
                                                      monkeypatch, dim_e2d):
    path = tmp_path / "diagram.json"
    save_diagram(synth_diagram(40 + dim_e2d, dim_e2d,
                               tuple(-1.5 - 2.0 * i for i in range(dim_e2d))),
                 path)
    calls = []

    def counting(d, m):
        calls.append(m)
        return subspaces(d, m)

    monkeypatch.setattr(cohomology, "subspaces", counting)
    rc, out, _ = run_cli(["spectrum", "--input", str(path), "--L-start",
                          "0.25", "--L-stop", "7", "--L-step", "0.25"], capsys)
    assert rc == 0 and len(json.loads(out)["rows"]) == 28
    assert len(calls) == len(set(calls)) <= 8, calls
    calls.clear()
    rc, out, _ = run_cli(["derivative", "--input", str(path)], capsys)
    assert rc == 0 and len(json.loads(out)["rows"]) == 9
    assert calls == [2]


def test_parser_is_built_once_and_keeps_no_state(diagram_file, capsys,
                                                 monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    seen = []
    resolve = cli._resolve_config

    def recording(args):
        seen.append((vars(args).copy(), resolve(args)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "_resolve_config", recording)
    for argv in (["spectrum", "--input", diagram_file, "--exact"],
                 ["derivative", "--input", diagram_file, "--L-start", "5"],
                 ["spectrum", "--input", diagram_file]):
        assert run_cli(argv, capsys)[0] == 0
    (exact_args, exact_cfg), (deriv_args, deriv_cfg), (args, cfg) = seen
    assert exact_cfg.exact and not cfg.exact
    assert "exact" not in deriv_args and args["exact"] is None
    assert (deriv_cfg.L_start, deriv_cfg.L_stop) == (5.0, 12.0)
    assert (cfg.L_start, cfg.L_stop, cfg.L_step) == (1.0, 6.0, 0.5)
    assert args == {**exact_args, "exact": None}
    assert cfg == cli.ScenarioConfig(command="spectrum", input=diagram_file,
                                     L_start=1.0, L_stop=6.0, L_step=0.5)


def test_negative_exponent_length_is_a_value(diagram_file, capsys):
    spaced = run_cli(["spectrum", "--input", diagram_file, "--L-start",
                      "-2.5e-1", "--L-stop", "1", "--L-step", "0.25"], capsys)
    joined = run_cli(["spectrum", "--input", diagram_file,
                      "--L-start=-2.5e-1", "--L-stop", "1", "--L-step",
                      "0.25"], capsys)
    assert spaced[0] == 0 and spaced == joined
    assert json.loads(spaced[1])["rows"][0]["L"] == -0.25


def test_missing_input_reported(capsys):
    rc, _, err = run_cli(["spectrum"], capsys)
    assert rc == 2
    assert "--input" in err

def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["pointwise-check", "--format", "xml"])
    assert info.value.code == 2


def test_out_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(["pointwise-check", "--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["passed"] is True
