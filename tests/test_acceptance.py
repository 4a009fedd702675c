"""Acceptance sweep: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible under pytest -s or in a
failure report); the pytest -v listing gives the per-criterion verdicts.
Criteria with stated runtime budgets time themselves with perf_counter.
"""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from g2glue import cli
from g2glue.cohomology import (
    sample_pair,
    shift_C,
    singular_levels,
    synth_diagram,
    validate_C,
    validate_diagram,
    yh_full,
)
from g2glue.fields import ZERO_XI, harmonic_project
from g2glue.forms import (
    AXES7,
    ConstForm,
    basis_indices,
    gram_from_3form,
    hodge_star,
    metric_from_3form,
    phi0,
)
from g2glue.gluing import (
    closed_perturbation_structure,
    flat_structure,
    glue_fields,
    modulated_shear_structure,
    sweep_reports,
    torsion_reduce,
    torsion_residual,
)

RANK_TOL = 1e-8


def report(line):
    print(line)


def brute_rank_deficient(diagram, length):
    from g2glue.cohomology import gluing_matrix
    matrix = gluing_matrix(diagram, 3, length)
    svals = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(svals > RANK_TOL * max(1.0, svals[0])))
    return rank < diagram.dim("H_M", 3)


def random_spectrum(rng, count):
    return tuple(np.sort(rng.uniform(-12.0, -1.0, size=count)))


def with_map(diagram, key, m, mat):
    def rebuild(block):
        maps = dict(block.maps)
        maps[key] = mat
        return dataclasses.replace(block, maps=maps)
    return dataclasses.replace(diagram, degrees=tuple(
        rebuild(b) if b.m == m else b for b in diagram.degrees))


def test_criterion_01_pointwise_calibration():
    start = time.perf_counter()
    mat = metric_from_3form(phi0(exact=True)).mat
    assert all(mat[i, j] == (Fraction(1) if i == j else Fraction(0))
               for i in range(7) for j in range(7))

    phi = phi0()
    metric = metric_from_3form(phi)
    star = hodge_star(metric, phi)
    coeff = phi.wedge(star).coeffs[tuple(AXES7)]
    vol = float(np.sqrt(np.linalg.det(np.asarray(metric.mat, dtype=float))))
    assert abs(coeff - 7.0 * vol) <= 1e-12

    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal((7, 7))
        g = a @ a.T + 0.5 * np.eye(7)
        for k in range(8):
            form = ConstForm(AXES7, k, {i: rng.standard_normal()
                                        for i in basis_indices(AXES7, k)})
            again = hodge_star(g, hodge_star(g, form))
            scale = max(abs(c) for c in form.coeffs.values())
            dev = max(abs(again.coeffs.get(i, 0.0) - c)
                      for i, c in form.coeffs.items())
            worst = max(worst, dev / max(1.0, scale))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(f"criterion 1 (pointwise calibration): PASS "
           f"involution worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_pullback_equivariance():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    phi = phi0()
    base = gram_from_3form(phi)
    worst = 0.0
    accepted = 0
    while accepted < 1000:
        a = rng.standard_normal((7, 7))
        if np.linalg.cond(a) > 1e3:
            continue
        accepted += 1
        got = gram_from_3form(phi.pullback(a))
        want = np.linalg.det(a) * a.T @ base @ a
        worst = max(worst, float(np.abs(got - want).max()
                                 / np.abs(want).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 3.0
    report(f"criterion 2 (pullback equivariance): PASS "
           f"1000 maps, worst relative error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_flat_gluing():
    plus = flat_structure(1)
    minus = flat_structure(-1)
    worst = 0.0
    slowest = 0.0
    for length in range(4, 11):
        start = time.perf_counter()
        meas = torsion_residual(glue_fields(plus, minus, float(length)))
        elapsed = time.perf_counter() - start
        worst = max(worst, meas.worst)
        slowest = max(slowest, elapsed)
        assert meas.worst <= 1e-12
        assert elapsed < 1.0
    report(f"criterion 3 (flat gluing): PASS worst torsion {worst:.2e}, "
           f"slowest L {slowest:.2f}s")


def test_criterion_04_torsion_decay_rate():
    plus = modulated_shear_structure(1, rate=1.0)
    minus = flat_structure(-1)
    reports = sweep_reports(plus, minus, [float(l) for l in range(4, 11)])
    slope = reports[0].slope
    assert slope is not None
    assert -1.1 <= slope <= -0.9
    report(f"criterion 4 (torsion decay): PASS fitted slope {slope:.4f}")


def test_criterion_05_torsion_reduction_preserves_class():
    plus = closed_perturbation_structure(1, amplitude=1e-3)
    minus = flat_structure(-1)
    for length in (5.0, 7.0):
        glued = glue_fields(plus, minus, length)
        pin = harmonic_project(glued.field).modes[ZERO_XI][0]
        out, rep = torsion_reduce(glued, tol=1e-10, max_iter=25)
        assert rep.converged and rep.iterations <= 25
        assert max(rep.torsion_d_sup, rep.torsion_ds_sup) <= 1e-10
        got = harmonic_project(out.field).modes[ZERO_XI][0]
        free = slice(15, 35)
        assert np.array_equal(got[free], pin[free])
        assert np.abs(got[:15] - pin[:15]).max() < 2e-15
    report("criterion 5 (torsion reduction): PASS torsion <= 1e-10, "
           "class block bitwise equal")


def test_criterion_06_rank_deficiency_matches_spectrum():
    rng = np.random.default_rng(6)
    disagreements = 0
    checked = 0
    for seed in range(100):
        dim = seed % 5
        diagram = synth_diagram(seed, dim, random_spectrum(rng, dim))
        levels = singular_levels(diagram, 3)
        spectrum = -2.0 * levels
        samples = list(levels) + list(rng.uniform(0.5, 7.0,
                                                  size=50 - levels.size))
        for length in samples:
            predicted = (bool(np.min(np.abs(2.0 * length + spectrum)) < 1e-8)
                         if spectrum.size else False)
            if brute_rank_deficient(diagram, float(length)) != predicted:
                disagreements += 1
            checked += 1
    assert disagreements == 0
    report(f"criterion 6 (rank deficiency equivalence): PASS "
           f"{checked} (diagram, L) samples, zero disagreements")


def test_criterion_07_length_shift_law():
    rng = np.random.default_rng(77)
    worst = 0.0
    for seed in (0, 3, 11, 21):
        diagram = synth_diagram(seed, 1 + seed % 3,
                                random_spectrum(rng, 1 + seed % 3))
        kmap = np.vstack([diagram.mat("istar_plus", 3),
                          diagram.mat("istar_minus", 3)])
        section = np.linalg.pinv(kmap)
        delta = diagram.mat("mv_delta", 3)
        for _ in range(250):
            pair = sample_pair(diagram, 3, rng)
            length = rng.uniform(3.0, 10.0)
            h = rng.uniform(-2.0, 2.0)
            lhs = (yh_full(diagram, 3, pair, length + h, section=section)
                   - yh_full(diagram, 3, pair, length, section=section)
                   - 2.0 * h * (delta @ pair.tau))
            worst = max(worst, float(np.abs(lhs).max(initial=0.0)))
    assert worst <= 1e-12
    report(f"criterion 7 (length shift law): PASS 1000 samples, "
           f"worst residual {worst:.2e}")


def test_criterion_08_selfadjoint_and_shift_covariance():
    rng = np.random.default_rng(8)
    for seed in (2, 9, 17):
        dim = 2 + seed % 3
        diagram = synth_diagram(seed, dim, random_spectrum(rng, dim))
        crep = validate_C(diagram, tol=1e-10)
        assert crep.ok, crep.failures
        base = singular_levels(diagram, 3)
        for lam in (1.7, -2.3, 0.5):
            shifted = singular_levels(shift_C(diagram, lam), 3)
            assert np.allclose(shifted, base - 0.5 * lam,
                               rtol=0.0, atol=1e-12)
    report("criterion 8 (self-adjointness and shift): PASS residuals "
           "<= 1e-10, levels move by -lambda/2 to 1e-12")


def test_criterion_09_generator_soundness_and_corruption():
    rng = np.random.default_rng(9)
    sound = 0
    detected = 0
    trials = 100
    for seed in range(trials):
        dim = seed % 5
        diagram = synth_diagram(seed, dim, random_spectrum(rng, dim))
        ok = (validate_diagram(diagram).ok and validate_C(diagram).ok)
        sound += bool(ok)

        targets = []
        for key in ("mv_delta", "istar_plus", "istar_minus"):
            for m in range(8):
                if diagram.mat(key, m).size:
                    targets.append((key, m))
        key, m = targets[rng.integers(len(targets))]
        mat = diagram.mat(key, m).copy()
        row = rng.integers(mat.shape[0])
        col = rng.integers(mat.shape[1])
        mat[row, col] += 1e-3
        corrupted = with_map(diagram, key, m, mat)
        try:
            bad = not (validate_diagram(corrupted).ok
                       and validate_C(corrupted).ok)
        except Exception:
            bad = True
        detected += bool(bad)
    assert sound == trials
    assert detected == trials
    report(f"criterion 9 (generator and corruption): PASS soundness "
           f"{sound}/100, corruption detected {detected}/100")


def test_criterion_10_derivative_model_rigged():
    from g2glue.cohomology import derivative_model
    cases = [(11, (-4.0,)), (21, (-6.0, -3.0)), (31, (-10.0, -7.0, -2.0))]
    for seed, spectrum in cases:
        diagram = synth_diagram(seed, len(spectrum), spectrum)
        omega = diagram.subspaces(2).a_common[:, 0]
        predicted = sorted(-0.5 * lam for lam in spectrum)
        probes = sorted(set(predicted)
                        | {p + 0.5 for p in predicted}
                        | {p - 0.5 for p in predicted if p > 0.5}
                        | set(map(float, range(4, 13))))
        for length in probes:
            model = derivative_model(diagram, omega, length)
            expect = all(abs(length - p) > 1e-9 for p in predicted)
            assert model.bijective == expect, (seed, length)
        sigmas = [(length,
                   derivative_model(diagram, omega, length).sigma_min)
                  for length in map(float, range(5, 13))]
        slope = np.polyfit([s[0] for s in sigmas],
                           [s[1] for s in sigmas], 1)[0]
        assert slope > 0.0
    report("criterion 10 (derivative model): PASS bijectivity fails "
           "exactly at predicted L, sigma_min slope positive for L >= 5")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    plus = tmp_path / "plus.json"
    minus = tmp_path / "minus.json"
    plus.write_text(json.dumps({"schema": "g2glue-structure/1",
                                "kind": "flat", "sign": 1, "params": {}}))
    minus.write_text(json.dumps({"schema": "g2glue-structure/1",
                                 "kind": "flat", "sign": -1, "params": {}}))
    diagram = tmp_path / "diagram.json"
    rc = cli.main(["synth", "--seed", "3", "--out", str(diagram)])
    assert rc == 0
    capsys.readouterr()

    commands = [
        ["pointwise-check", "--seed", "5"],
        ["pointwise-check", "--seed", "5", "--format", "csv"],
        ["glue-sweep", "--input", str(plus), "--input2", str(minus),
         "--L-stop", "5", "--seed", "5"],
        ["spectrum", "--input", str(diagram), "--seed", "5"],
        ["spectrum", "--input", str(diagram), "--seed", "5",
         "--format", "csv"],
        ["derivative", "--input", str(diagram), "--L-stop", "8",
         "--seed", "5"],
        ["synth", "--seed", "5"],
    ]
    for argv in commands:
        rc1 = cli.main(argv)
        out1 = capsys.readouterr().out
        rc2 = cli.main(argv)
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1.encode() == out2.encode(), argv
    report("criterion 11 (CLI determinism): PASS all commands "
           "byte-identical under fixed seed")
