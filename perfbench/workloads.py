"""The benchmark's workloads: seeded inputs, one op each, output checks.

Every op drives the README CLI surface in-process through
``g2glue.cli.main(argv)``.  The program sees only the descriptor, request
and diagram files written here.  Inputs of op ``i`` depend only on the
workload seed, the stream (timed, warm-up or traced ops) and ``i``.

Each op's outputs are checked.  An op *fails* when the program reports a
failure (the CLI exits 1, or a row has ``converged: false``).  An output
that contradicts itself raises ``WrongAnswer``: exit 2, an exception
escaping ``main``, a non-finite number, a wrong row count, a converged row
above tol, or rank deficiency that disagrees with the levels.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import numpy as np

TIMED, WARMUP, TRACED = 0, 1, 2

TOL = 1e-10
RANK_GAP = 1e-8
STRUCTURE_SCHEMA = "g2glue-structure/1"


class WrongAnswer(Exception):
    """An output that contradicts itself or the request."""


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; return (exit code, stdout)."""
    from g2glue import cli
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        raise WrongAnswer(f"{argv[0]}: argument parsing exited "
                          f"({exc.code}): {err.getvalue().strip()}") from exc
    except Exception as exc:
        raise WrongAnswer(f"{argv[0]}: exception escaped main: "
                          f"{type(exc).__name__}: {exc}") from exc
    if code == 2:
        raise WrongAnswer(f"{argv[0]}: exit 2: {err.getvalue().strip()}")
    if code not in (0, 1):
        raise WrongAnswer(f"{argv[0]}: exit code {code!r}")
    return code, out.getvalue()


def _json(text: str, what: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongAnswer(f"{what}: output is not JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise WrongAnswer(f"{what}: output is not a JSON object")
    return obj


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise WrongAnswer(f"{what}: not a finite number: {value!r}")
    return float(value)


def _finite_or_inf(value, what: str, inf_ok: bool) -> float:
    """A finite number, or the string 'inf' where ``inf_ok`` (nothing to
    hit: no levels, or an empty derivative map)."""
    if value == "inf" and inf_ok:
        return math.inf
    return _finite(value, what)


def _rng(seed: int, stream: int, block: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, block])


def _stratified(rng: np.random.Generator, size: int) -> np.ndarray:
    """One draw per stratum of [0, 1), in seeded order (Latin-hypercube)."""
    return (rng.permutation(size) + rng.random(size)) / size


class Workload:
    """Inputs, op and checks of one workload."""

    name = ""
    # Ops traced in a --trace 1 run.
    trace_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)

    def _write(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj, sort_keys=True))
        return str(path)

    def inputs(self, stream: int, i: int) -> dict:
        """Parameters of op ``i`` of ``stream``; pure in (seed, stream, i)."""
        raise NotImplementedError

    def commands(self, params: dict) -> list[list[str]]:
        """Write the op's input files; return its CLI argv lists."""
        raise NotImplementedError

    def check(self, params: dict, results: list[tuple[int, str]]) -> bool:
        """Return True if the op failed; raise WrongAnswer if wrong."""
        raise NotImplementedError

    def negative_controls(self, params: dict,
                          results: list[tuple[int, str]]) -> None:
        """Prove on a checked op's outputs that the checks bite."""
        raise NotImplementedError

    def run(self, commands: list[list[str]]) -> list[tuple[int, str]]:
        return [run_cli(argv) for argv in commands]

    def digest(self, results: list[tuple[int, str]]) -> bytes:
        return "".join(f"{code}\n{text}" for code, text in results).encode()


def expect_wrong(fn, what: str) -> None:
    try:
        fn()
    except WrongAnswer:
        return
    raise RuntimeError(f"negative control not detected: {what}")


def expect_failed(fn, what: str) -> None:
    if fn() is not True:
        raise RuntimeError(f"negative control not detected: {what}")


# -- glue-sweep workloads ---------------------------------------------------

def check_sweep(code: int, text: str, lengths: list[float],
                tol: float) -> bool:
    """Check one glue-sweep report; return True if a row did not converge."""
    obj = _json(text, "glue-sweep")
    rows = obj.get("rows")
    if not isinstance(rows, list) or len(rows) != len(lengths):
        raise WrongAnswer(f"glue-sweep: expected {len(lengths)} rows, got "
                          f"{len(rows) if isinstance(rows, list) else rows!r}")
    for row, length in zip(rows, lengths):
        if _finite(row.get("L"), "glue-sweep L") != length:
            raise WrongAnswer(f"glue-sweep: row L {row['L']} != {length}")
        for key in ("torsion_d_L2", "torsion_d_sup",
                    "torsion_ds_L2", "torsion_ds_sup"):
            _finite(row.get(key), f"glue-sweep {key} at L={length}")
        if "slope" in row:
            _finite(row["slope"], "glue-sweep slope")
        if not isinstance(row.get("converged"), bool):
            raise WrongAnswer("glue-sweep: 'converged' is not a boolean")
        if row["converged"] and max(row["torsion_d_sup"],
                                    row["torsion_ds_sup"]) > tol:
            raise WrongAnswer(f"glue-sweep: converged row at L={length} is "
                              f"above tol {tol}")
    converged = all(row["converged"] for row in rows)
    if obj.get("passed") is not converged or code != (0 if converged else 1):
        raise WrongAnswer(f"glue-sweep: exit {code} and passed="
                          f"{obj.get('passed')!r} disagree with the rows")
    return not converged


class _SweepWorkload(Workload):
    """One ``glue-sweep`` of a +1 descriptor against ``flat`` per op."""

    def _plus(self, params: dict) -> dict:
        raise NotImplementedError

    def commands(self, params):
        plus = self._write("plus.json", {
            "schema": STRUCTURE_SCHEMA, "sign": 1, **self._plus(params)})
        minus = self._write("minus.json", {
            "schema": STRUCTURE_SCHEMA, "kind": "flat", "sign": -1,
            "params": {}})
        start, stop, step = params["L"]
        return [["glue-sweep", "--input", plus, "--input2", minus,
                 "--L-start", repr(start), "--L-stop", repr(stop),
                 "--L-step", repr(step), "--tol", repr(TOL)]]

    def lengths(self, params) -> list[float]:
        start, stop, step = params["L"]
        return [start] if stop == start else [start, stop]

    def check(self, params, results):
        (code, text), = results
        return check_sweep(code, text, self.lengths(params), TOL)

    def negative_controls(self, params, results):
        (code, text), = results
        lengths = self.lengths(params)
        obj = json.loads(text)
        row = obj["rows"][0]

        def variant(**changes):
            bad = copy.deepcopy(obj)
            bad["rows"][0].update(changes)
            return json.dumps(bad)

        expect_wrong(lambda: check_sweep(
            code, variant(converged=True, torsion_ds_sup=10 * TOL,
                          torsion_d_sup=0.0), lengths, TOL),
            "converged row above tol")
        expect_wrong(lambda: check_sweep(
            code, variant(torsion_d_L2="nan"), lengths, TOL),
            "non-finite torsion")
        expect_wrong(lambda: check_sweep(
            code, json.dumps({**obj, "rows": obj["rows"] + [row]}),
            lengths, TOL), "extra row")
        failed = copy.deepcopy(obj)
        failed["passed"] = False
        failed["rows"][0]["converged"] = False
        expect_failed(lambda: check_sweep(1, json.dumps(failed), lengths,
                                          TOL), "non-converged row, exit 1")
        expect_wrong(lambda: check_sweep(0, json.dumps(failed), lengths,
                                         TOL), "non-converged row, exit 0")


class NeckClosed(_SweepWorkload):
    name = "neck-closed"
    trace_ops = 8
    block = 8

    def inputs(self, stream, i):
        block, pos = divmod(i, self.block)
        rng = _rng(self.seed, stream, block)
        u_start, u_step, u_amp = (_stratified(rng, self.block)[pos]
                                  for _ in range(3))
        # L_start in [4, 8] and L_step in [0.5, 2], multiples of 1/64;
        # amplitude log-uniform in [5e-4, 5e-3].  The warm-up op takes the
        # largest lengths, so set-up builds the tables at the top size and
        # peak RSS does not depend on which lengths the timed ops draw.
        if stream == WARMUP:
            u_start = u_step = 1.0 - 1e-9
        start = 4.0 + math.floor(u_start * 257) / 64
        step = 0.5 + math.floor(u_step * 97) / 64
        amplitude = 5e-4 * 10.0 ** u_amp
        return {"L": (start, start + step, step), "amplitude": amplitude}

    def _plus(self, params):
        return {"kind": "closed-perturbation",
                "params": {"amplitude": params["amplitude"]}}


class NeckModulated(_SweepWorkload):
    name = "neck-modulated"
    trace_ops = 2
    lengths_range = tuple(float(x) for x in range(4, 11))

    def inputs(self, stream, i):
        block, pos = divmod(i, len(self.lengths_range))
        order = _rng(self.seed, stream, block).permutation(
            len(self.lengths_range))
        length = self.lengths_range[order[pos]]
        return {"L": (length, length, 1.0)}

    def _plus(self, params):
        return {"kind": "modulated-shear",
                "params": {"rate": 1.0, "amplitude": 0.05}}


# -- diagram-scan -----------------------------------------------------------

SCAN = (0.25, 7.0, 0.25)
SCAN_ROWS = 28
SCAN_FLAGS = ["--L-start", repr(SCAN[0]), "--L-stop", repr(SCAN[1]),
              "--L-step", repr(SCAN[2])]
DERIVATIVE_ROWS = 9
# Eigenvalues lambda: multiples of 0.5 in [-12, -1], so every singular
# level -lambda/2 is a multiple of 0.25 and lies on the scan grid.
LAMBDAS = np.arange(-24, -1) * 0.5


def check_spectrum(code: int, text: str, lambdas: list[float]) -> bool:
    """Check one spectrum report; return True if the diagram was invalid."""
    obj = _json(text, "spectrum")
    if code == 1:
        if obj.get("valid") is not False or not obj.get("failures"):
            raise WrongAnswer("spectrum: exit 1 without a reported failure")
        return True
    if obj.get("valid") is not True or obj.get("failures"):
        raise WrongAnswer("spectrum: exit 0 but the diagram is not valid")
    want = sorted(-lam / 2.0 for lam in lambdas)
    got = sorted(_finite(x, "spectrum level")
                 for x in obj.get("levels", {}).get("3", []))
    if len(got) != len(want) or any(abs(g - w) > 1e-9
                                    for g, w in zip(got, want)):
        raise WrongAnswer(f"spectrum: levels[3] {got} != requested {want}")
    rows = obj.get("rows")
    if not isinstance(rows, list) or len(rows) != SCAN_ROWS:
        raise WrongAnswer(f"spectrum: expected {SCAN_ROWS} rows")
    for k, row in enumerate(rows):
        length = _finite(row.get("L"), "spectrum L")
        if length != SCAN[0] + k * SCAN[2]:
            raise WrongAnswer(f"spectrum: row {k} has L={length}")
        gap = _finite_or_inf(row.get("gap"), "spectrum gap", not want)
        rank, full = row.get("rank"), row.get("full")
        if not (isinstance(rank, int) and isinstance(full, int)
                and 0 <= rank <= full):
            raise WrongAnswer(f"spectrum: bad rank {rank}/{full} at "
                              f"L={length}")
        if row.get("deficient") is not (rank < full):
            raise WrongAnswer(f"spectrum: 'deficient' disagrees with rank at "
                              f"L={length}")
        if row["deficient"] is not (gap < RANK_GAP):
            raise WrongAnswer(f"spectrum: rank deficiency disagrees with the "
                              f"levels at L={length} (gap {gap})")
    return False


def check_derivative(code: int, text: str) -> bool:
    obj = _json(text, "derivative")
    if code != 0:
        raise WrongAnswer(f"derivative: exit {code}")
    rows = obj.get("rows")
    if not isinstance(rows, list) or len(rows) != DERIVATIVE_ROWS:
        raise WrongAnswer(f"derivative: expected {DERIVATIVE_ROWS} rows")
    spectrum = [_finite(x, "derivative f_spectrum")
                for x in obj.get("f_spectrum", [])]
    for row in rows:
        length = _finite(row.get("L"), "derivative L")
        if _finite_or_inf(row.get("sigma_min"), "derivative sigma_min",
                          not spectrum) < 0.0:
            raise WrongAnswer(f"derivative: negative sigma_min at L={length}")
        gap = _finite_or_inf(row.get("gap"), "derivative gap", not spectrum)
        if row.get("bijective") is not (gap >= RANK_GAP):
            raise WrongAnswer(f"derivative: 'bijective' disagrees with the "
                              f"spectrum gap at L={length} (gap {gap})")
    return False


class DiagramScan(Workload):
    name = "diagram-scan"
    trace_ops = 60

    def inputs(self, stream, i):
        dim = i % 5
        rng = _rng(self.seed, stream, i)
        lambdas = rng.choice(LAMBDAS, size=dim, replace=False)
        return {"seed": int(rng.integers(2**31)), "dim_e2d": dim,
                "spectrum": [float(x) for x in lambdas]}

    def commands(self, params, tag: str = ""):
        request = self._write(f"request{tag}.json", {
            "dim_e2d": params["dim_e2d"], "spectrum": params["spectrum"]})
        diagram = str(self.workdir / f"diagram{tag}.json")
        return [["synth", "--input", request, "--seed", str(params["seed"]),
                 "--out", diagram],
                ["spectrum", "--input", diagram, *SCAN_FLAGS],
                ["derivative", "--input", diagram]]

    def run(self, commands):
        synth, spectrum, derivative = commands
        code, text = run_cli(synth)
        if code != 0 or text:
            raise WrongAnswer(f"synth: exit {code} on a valid request")
        written = Path(synth[-1]).read_text()
        return [(code, written), run_cli(spectrum), run_cli(derivative)]

    def check(self, params, results):
        (_, diagram), spectrum, derivative = results
        if not _json(diagram, "synth").get("degrees"):
            raise WrongAnswer("synth: diagram has no degrees")
        if check_spectrum(*spectrum, params["spectrum"]):
            return True
        return check_derivative(*derivative)

    def negative_controls(self, params, results):
        (_, diagram), (code, text), derivative = results
        lambdas = params["spectrum"]
        # The CLI itself must reject a diagram with one mv_delta entry
        # moved by 1e-3, and the check must count that as a failure.
        obj = json.loads(diagram)
        block = next(b for b in obj["degrees"]
                     if b["maps"]["mv_delta"] and b["maps"]["mv_delta"][0])
        block["maps"]["mv_delta"][0][0] += 1e-3
        path = self._write("corrupt-diagram.json", obj)
        bad = run_cli(["spectrum", "--input", path, *SCAN_FLAGS])
        if bad[0] != 1:
            raise RuntimeError("negative control not detected: spectrum "
                               f"exit {bad[0]} on a corrupted diagram")
        expect_failed(lambda: check_spectrum(*bad, lambdas),
                      "spectrum on a corrupted diagram")
        report = json.loads(text)
        flipped = copy.deepcopy(report)
        flipped["rows"][0]["deficient"] = not flipped["rows"][0]["deficient"]
        expect_wrong(lambda: check_spectrum(code, json.dumps(flipped),
                                            lambdas), "flipped deficiency")
        expect_wrong(lambda: check_spectrum(code, text, lambdas + [-3.0]),
                     "missing level")
        expect_wrong(lambda: check_spectrum(
            code, json.dumps({**report, "rows": report["rows"][1:]}),
            lambdas), "missing row")
        dcode, dtext = derivative
        dobj = json.loads(dtext)
        dobj["rows"][0]["bijective"] = not dobj["rows"][0]["bijective"]
        expect_wrong(lambda: check_derivative(dcode, json.dumps(dobj)),
                     "flipped bijectivity")


# -- glue-scan --------------------------------------------------------------

class GlueScan(Workload):
    """A ``neck-closed`` op, then ``diagram-scan`` ops at dim_e2d 0..4.

    Each op glues a neck at two lengths and scans five matched diagrams,
    one of each common-complement dimension, so every layer from the
    batched kernels to the diagram calculus runs in one op.
    """

    name = "glue-scan"
    trace_ops = NeckClosed.trace_ops
    scans = 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.neck = NeckClosed(seed, workdir)
        self.scan = DiagramScan(seed, workdir)

    def inputs(self, stream, i):
        # DiagramScan op s has dim_e2d = s mod 5, so op i takes 0..4.
        return {"neck": self.neck.inputs(stream, i),
                "scans": [self.scan.inputs(stream, self.scans * i + k)
                          for k in range(self.scans)]}

    def commands(self, params):
        commands = self.neck.commands(params["neck"])
        for k, scan in enumerate(params["scans"]):
            commands += self.scan.commands(scan, tag=f"-{k}")
        return commands

    def _split(self, items: list) -> tuple[list, list[list]]:
        return items[:1], [items[k:k + 3] for k in range(1, len(items), 3)]

    def run(self, commands):
        neck, scans = self._split(commands)
        results = self.neck.run(neck)
        for scan in scans:
            results += self.scan.run(scan)
        return results

    def check(self, params, results):
        neck, scans = self._split(results)
        failed = self.neck.check(params["neck"], neck)
        for scan_params, scan in zip(params["scans"], scans, strict=True):
            failed |= self.scan.check(scan_params, scan)
        return failed

    def negative_controls(self, params, results):
        neck, scans = self._split(results)
        self.neck.negative_controls(params["neck"], neck)
        self.scan.negative_controls(params["scans"][-1], scans[-1])


# -- pointwise-check --------------------------------------------------------

def check_pointwise(code: int, text: str) -> bool:
    """Check one pointwise report; return True if a check failed."""
    obj = _json(text, "pointwise-check")
    checks = obj.get("checks")
    if not isinstance(checks, list) or len(checks) != 4:
        raise WrongAnswer("pointwise-check: expected 4 checks")
    for c in checks:
        if not isinstance(c.get("passed"), bool):
            raise WrongAnswer("pointwise-check: 'passed' is not a boolean")
        for key in ("worst", "deviation"):
            if key in c:
                _finite(c[key], f"pointwise-check {c.get('name')} {key}")
    passed = all(c["passed"] for c in checks)
    if obj.get("passed") is not passed or code != (0 if passed else 1):
        raise WrongAnswer(f"pointwise-check: exit {code} and passed="
                          f"{obj.get('passed')!r} disagree with the checks")
    return not passed


class PointwiseCheck(Workload):
    name = "pointwise-check"
    trace_ops = 8

    def inputs(self, stream, i):
        return {"seed": int(_rng(self.seed, stream, i).integers(2**31))}

    def commands(self, params):
        return [["pointwise-check", "--seed", str(params["seed"])]]

    def check(self, params, results):
        (code, text), = results
        return check_pointwise(code, text)

    def negative_controls(self, params, results):
        corrupt = run_cli(["pointwise-check", "--seed", str(params["seed"]),
                           "--corrupt"])
        if corrupt[0] != 1:
            raise RuntimeError("negative control not detected: "
                               f"pointwise-check --corrupt exit {corrupt[0]}")
        expect_failed(lambda: check_pointwise(*corrupt),
                      "pointwise-check --corrupt")
        (code, text), = results
        obj = json.loads(text)
        obj["checks"][1]["passed"] = False
        expect_wrong(lambda: check_pointwise(code, json.dumps(obj)),
                     "failed check under exit 0")
        obj["checks"][1]["passed"] = True
        obj["checks"][2]["worst"] = "nan"
        expect_wrong(lambda: check_pointwise(code, json.dumps(obj)),
                     "non-finite deviation")


WORKLOADS = {w.name: w for w in (NeckClosed, NeckModulated, DiagramScan,
                                 GlueScan, PointwiseCheck)}
