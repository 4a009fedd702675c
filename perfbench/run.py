"""g2glue benchmark: one workload per call, JSON result on the last line.

    python3 perfbench/run.py --workload neck-closed --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the workload runs ``SETUPS`` times from a fresh
interpreter: ``SETUPS - 1`` set-up-only processes, then one that also runs
the timed phase.  ``setup_s`` is the median time from spawn to ready.
With ``--trace 1`` one process runs the timed phase untraced, then a fixed
number of ops traced, and reports per-layer metrics.  Before the result
line a ``record`` line gives every end-to-end metric, ``fail_frac`` too,
with its unit, the checksum and the machine.  Exit 1 on a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

SETUPS = 3
DEADLINE_S = 170.0
# Percentiles tried for the tail, highest first; the tail is the highest
# one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not produce a result."""


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile by nearest rank, and how many samples exceed it."""
    k = max(1, math.ceil(p * len(sorted_values) / 100))
    return sorted_values[k - 1], len(sorted_values) - k


def tail(latencies: list[float]) -> dict:
    values = sorted(latencies)
    for p in TAIL_LADDER:
        value, beyond = nearest_rank(values, p)
        if beyond >= TAIL_BEYOND or p == TAIL_LADDER[-1]:
            return {"percentile": p, "value": value, "beyond": beyond,
                    "samples": len(values)}


def summary(phase: dict) -> dict:
    lat = phase["latencies"]
    return {"op_s.p50": statistics.median(lat),
            "op_s.tail": tail(lat),
            "ops_per_s": len(lat) / phase["wall_s"],
            "fail_frac": phase["failed"] / len(lat),
            "attempted": len(lat), "failed": phase["failed"]}


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to ready, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = (ready_line + rest).strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if "wrong" in result:
        return ready, result
    if ready_line.strip() != "READY" or code != 0:
        raise BenchError(f"worker exit {code}")
    return ready, result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from tracer import unit
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if not (ROOT / "src" / "g2glue" / "__init__.py").is_file():
        print(f"error: no g2glue sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    load_start = os.getloadavg()[0]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        out = {}
        for setup_only in [True] * (0 if args.trace else SETUPS - 1) + [False]:
            ready, out = spawn(args, deadline, setup_only)
            if "wrong" in out:
                break
            setups.append(ready)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "clients": 1, "loop": "closed",
              "machine": {"nproc": os.cpu_count(),
                          "affinity": len(os.sched_getaffinity(0)),
                          "cpu": cpu_model(),
                          **out.get("versions", {})},
              "load1_start": load_start, "load1_end": os.getloadavg()[0]}
    if "wrong" in out:
        record["wrong_answer"] = out["wrong"]
        print(json.dumps({"record": record}, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    timed = summary(out["timed"])
    record.update(
        attempted=timed["attempted"], failed=timed["failed"],
        checksum=out["timed"]["checksum"], setup_samples_s=setups,
        metrics={
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s.p50": {"value": timed["op_s.p50"], "unit": "s"},
            "op_s.tail": {**timed["op_s.tail"], "unit": "s"},
            "ops_per_s": {"value": timed["ops_per_s"], "unit": "1/s"},
            "fail_frac": {"value": timed["fail_frac"], "unit": "fraction"},
            "peak_rss_mb": {"value": out["rss_kb"] / 1024, "unit": "MB"},
        })
    if args.trace:
        traced = summary(out["traced"])
        record["traced"] = {
            "checksum": out["traced"]["checksum"],
            "attempted": traced["attempted"], "failed": traced["failed"],
            "op_s.p50": traced["op_s.p50"],
            "op_latencies_s": out["traced"]["latencies"],
            "spans": out["spans"],
        }
        record["tracing_overhead"] = {
            "op_s.p50": traced["op_s.p50"] - timed["op_s.p50"],
            "frac": traced["op_s.p50"] / timed["op_s.p50"] - 1.0,
            "unit": "s"}
        metrics = {name: {"value": value, "unit": unit(name)}
                   for name, value in out["layers"].items()}
        attempted = timed["attempted"] + traced["attempted"]
        failed = timed["failed"] + traced["failed"]
    else:
        metrics = {name: {"value": record["metrics"][name]["value"],
                          "unit": record["metrics"][name]["unit"]}
                   for name in ("setup_s", "op_s.p50", "op_s.tail",
                                "ops_per_s", "peak_rss_mb")}
        attempted, failed = timed["attempted"], timed["failed"]
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
