"""Tests of the benchmark itself: seeded inputs, output checks, span math."""

from __future__ import annotations

import copy
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from run import tail  # noqa: E402


# -- seeded inputs ----------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    cls = wl.WORKLOADS[name]

    def inputs(seed):
        w = cls(seed, tmp_path)
        return [w.inputs(stream, i) for stream in (wl.TIMED, wl.WARMUP)
                for i in range(16)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_neck_closed_inputs_stay_in_range(tmp_path):
    w = wl.NeckClosed(3, tmp_path)
    for i in range(64):
        p = w.inputs(wl.TIMED, i)
        start, stop, step = p["L"]
        assert 4.0 <= start <= 8.0 and 0.5 <= step <= 2.0
        assert (start * 64).is_integer() and (step * 64).is_integer()
        assert stop == start + step
        assert 5e-4 <= p["amplitude"] <= 5e-3


def test_diagram_scan_levels_land_on_the_scan_grid(tmp_path):
    w = wl.DiagramScan(3, tmp_path)
    for i in range(20):
        p = w.inputs(wl.TIMED, i)
        assert p["dim_e2d"] == i % 5 == len(set(p["spectrum"]))
        for lam in p["spectrum"]:
            assert -12.0 <= lam <= -1.0
            assert ((-lam / 2 - 0.25) / 0.25).is_integer()


def test_glue_scan_op_is_a_neck_closed_op_and_five_scans(tmp_path):
    w = wl.GlueScan(3, tmp_path)
    neck, scan = wl.NeckClosed(3, tmp_path), wl.DiagramScan(3, tmp_path)
    for i in range(4):
        p = w.inputs(wl.TIMED, i)
        assert p["neck"] == neck.inputs(wl.TIMED, i)
        assert p["scans"] == [scan.inputs(wl.TIMED, 5 * i + k)
                              for k in range(5)]
        assert [s["dim_e2d"] for s in p["scans"]] == [0, 1, 2, 3, 4]
    commands = w.commands(p)
    assert [c[0] for c in commands] == ["glue-sweep"] + [
        "synth", "spectrum", "derivative"] * 5
    diagrams = {c[-1] for c in commands if c[0] == "synth"}
    assert len(diagrams) == 5


# -- output checks ----------------------------------------------------------

def _sweep(rows, passed):
    return json.dumps({"passed": passed, "rows": rows})


def _row(length, converged=True, torsion=1e-13):
    return {"L": length, "converged": converged, "iters": 2,
            "torsion_d_L2": torsion, "torsion_d_sup": torsion,
            "torsion_ds_L2": torsion, "torsion_ds_sup": torsion}


def test_sweep_check_accepts_good_and_counts_failures():
    good = _sweep([_row(4.0), _row(5.5)], True)
    assert wl.check_sweep(0, good, [4.0, 5.5], 1e-10) is False
    failed = _sweep([_row(4.0), _row(5.5, converged=False, torsion=1e-3)],
                    False)
    assert wl.check_sweep(1, failed, [4.0, 5.5], 1e-10) is True


@pytest.mark.parametrize("code,text", [
    (0, _sweep([_row(4.0), _row(5.5, torsion=1e-9)], True)),   # above tol
    (0, _sweep([_row(4.0)], True)),                            # row count
    (0, _sweep([_row(4.0), _row(6.0)], True)),                 # wrong L
    (0, _sweep([_row(4.0), {**_row(5.5), "torsion_ds_L2": "nan"}], True)),
    (0, _sweep([_row(4.0), _row(5.5, converged=False)], False)),  # exit 0
    (1, _sweep([_row(4.0), _row(5.5)], True)),                 # exit 1
    (0, "not json"),
])
def test_sweep_check_rejects_corrupted_output(code, text):
    with pytest.raises(wl.WrongAnswer):
        wl.check_sweep(code, text, [4.0, 5.5], 1e-10)


def test_pointwise_check_rejects_corrupted_output():
    checks = [{"name": n, "passed": True, "worst": 1e-14}
              for n in ("a", "b", "c", "d")]
    good = {"passed": True, "checks": checks}
    assert wl.check_pointwise(0, json.dumps(good)) is False
    failed = copy.deepcopy(good)
    failed["passed"] = False
    failed["checks"][0]["passed"] = False
    assert wl.check_pointwise(1, json.dumps(failed)) is True
    for code, bad in [(0, failed), (1, good)]:
        with pytest.raises(wl.WrongAnswer):
            wl.check_pointwise(code, json.dumps(bad))
    nan = copy.deepcopy(good)
    nan["checks"][3]["worst"] = "nan"
    with pytest.raises(wl.WrongAnswer):
        wl.check_pointwise(0, json.dumps(nan))


@pytest.fixture(scope="module")
def scan_op(tmp_path_factory):
    w = wl.DiagramScan(5, tmp_path_factory.mktemp("scan"))
    params = w.inputs(wl.TIMED, 3)          # dim_e2d 3: three levels
    results = w.run(w.commands(params))
    return w, params, results


def test_diagram_scan_op_passes_and_controls_bite(scan_op):
    w, params, results = scan_op
    assert w.check(params, results) is False
    w.negative_controls(params, results)


def test_diagram_scan_checks_reject_corrupted_output(scan_op):
    _, params, results = scan_op
    lambdas = params["spectrum"]
    code, text = results[1]
    report = json.loads(text)
    deficient = next(r for r in report["rows"] if r["deficient"])
    for change in ({"deficient": False}, {"rank": deficient["full"]},
                   {"gap": 0.5}):
        bad = copy.deepcopy(report)
        next(r for r in bad["rows"] if r["L"] == deficient["L"]).update(change)
        with pytest.raises(wl.WrongAnswer):
            wl.check_spectrum(code, json.dumps(bad), lambdas)
    shifted = copy.deepcopy(report)
    shifted["levels"]["3"][0] += 1e-6
    with pytest.raises(wl.WrongAnswer):
        wl.check_spectrum(code, json.dumps(shifted), lambdas)
    dcode, dtext = results[2]
    dreport = json.loads(dtext)
    dreport["rows"][-1]["sigma_min"] = "nan"
    with pytest.raises(wl.WrongAnswer):
        wl.check_derivative(dcode, json.dumps(dreport))


@pytest.fixture(scope="module")
def glue_scan_op(tmp_path_factory):
    w = wl.GlueScan(5, tmp_path_factory.mktemp("glue"))
    params = w.inputs(wl.TIMED, 0)
    return w, params, w.run(w.commands(params))


def test_glue_scan_op_passes_and_controls_bite(glue_scan_op):
    w, params, results = glue_scan_op
    assert len(results) == 1 + 3 * 5
    assert w.check(params, results) is False
    w.negative_controls(params, results)


def test_glue_scan_counts_a_failure_in_either_part(glue_scan_op):
    w, params, results = glue_scan_op
    sweep = json.loads(results[0][1])
    sweep["passed"] = False
    sweep["rows"][0]["converged"] = False
    assert w.check(params, [(1, json.dumps(sweep))] + results[1:]) is True
    invalid = (1, json.dumps({"valid": False, "failures": ["mv_delta"]}))
    assert w.check(params, results[:2] + [invalid] + results[3:]) is True


def test_glue_scan_rejects_a_corrupted_last_scan(glue_scan_op):
    w, params, results = glue_scan_op
    code, text = results[-2]
    report = json.loads(text)
    report["rows"][0]["deficient"] = not report["rows"][0]["deficient"]
    bad = results[:-2] + [(code, json.dumps(report))] + results[-1:]
    with pytest.raises(wl.WrongAnswer):
        w.check(params, bad)


def test_escaping_exception_and_exit_2_are_wrong_answers(tmp_path):
    with pytest.raises(wl.WrongAnswer, match="exit 2"):
        wl.run_cli(["spectrum", "--input", str(tmp_path / "missing.json")])
    with pytest.raises(wl.WrongAnswer, match="argument parsing"):
        wl.run_cli(["no-such-command"])


# -- span arithmetic --------------------------------------------------------

def _span(sid, start, end, parent=None, name="x"):
    return tr.Span(sid, name, start, end, parent, 0, 0)


def test_self_time_of_nested_spans():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 2.0, 2.5, 2),
             _span(4, 5.0, 9.0, 1), _span(5, 6.0, 7.0, 4)]
    selfs = tr.self_times(spans)
    assert selfs == pytest.approx({1: 4.0, 2: 1.5, 3: 0.5, 4: 3.0, 5: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_subtracts_overlapping_children_once():
    # Two pool-thread children overlap in [3, 5]: their union is [2, 8].
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 5.0, 1), _span(3, 3.0, 8.0, 1),
             _span(4, 9.0, 12.0, 1)]      # runs past its parent's end
    assert tr.self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert tr.covered([(2, 5), (3, 8), (9, 12)], 0, 10) == pytest.approx(7.0)


def test_spans_on_pool_threads_take_the_op_thread_as_parent():
    t = tr.Tracer()
    both_started = threading.Barrier(2)

    def child():
        both_started.wait(timeout=10)        # the two children overlap
        time.sleep(0.02)

    def leaf(_):
        t.call("child", child, None, (), {})

    def root():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(leaf, range(2)))

    t.begin_op(7)
    t.call("root", root, None, (), {})
    t.end_op()
    root_span = next(s for s in t.spans if s.name == "root")
    children = [s for s in t.spans if s.name == "child"]
    assert len(children) == 2
    assert {s.parent for s in children} == {root_span.id}
    assert {s.op for s in t.spans} == {7}
    assert len({s.thread for s in children} | {root_span.thread}) >= 2
    selfs = tr.self_times(t.spans)
    union = tr.covered([(s.start, s.end) for s in children],
                       root_span.start, root_span.end)
    assert selfs[root_span.id] == pytest.approx(
        root_span.end - root_span.start - union)
    # The children overlap, so the root's self time exceeds its duration
    # minus their summed durations.
    assert selfs[root_span.id] > (root_span.end - root_span.start
                                  - sum(s.end - s.start for s in children))


def test_layer_ratios_from_a_converged_two_step_reduction():
    spans, sid = [], iter(range(1, 100))

    def add(name, start, end, parent, n=None):
        s = tr.Span(next(sid), name, start, end, parent, 0, 0, n)
        spans.append(s)
        return s.id

    reduce_id = add("gluing.torsion_reduce", 0.0, 10.0, None, 1)
    for step in range(3):                       # before the loop + 2 steps
        res = add("gluing.torsion_residual", 3 * step, 3 * step + 1,
                  reduce_id)
        add("gluing.induced_4form", 3 * step, 3 * step + 0.5, res)
        if step:
            add("gluing.induced_4form", 3 * step - 1, 3 * step - 0.5,
                reduce_id)
    out = tr.layer_metrics(spans, ops=1)
    assert out["gluing.torsion_reduce.steps"] == 2
    assert out["gluing.induced_4form.calls_per_step"] == 2
    assert out["gluing.induced_4form.calls"] == 5
    assert out["gluing.torsion_reduce.converged_frac"] == 1.0


def test_install_rebinds_every_reference_and_uninstalls():
    import g2glue
    from g2glue import cli, forms, gluing
    original = gluing.torsion_residual
    t = tr.Tracer()
    uninstall = tr.install(t)
    try:
        assert gluing.torsion_residual is not original
        assert cli.torsion_residual is gluing.torsion_residual
        assert g2glue.torsion_residual is gluing.torsion_residual
        forms.phi0().wedge(forms.phi0())
        assert [s.name for s in t.spans] == ["forms.ConstForm.wedge"]
    finally:
        uninstall()
    assert gluing.torsion_residual is original
    assert cli.torsion_residual is original
    assert "wedge" in vars(forms.ConstForm)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1, 101)]) == {
        "percentile": 90, "value": 90.0, "beyond": 10, "samples": 100}
    assert tail([float(i) for i in range(1, 21)])["percentile"] == 50
