"""One fresh interpreter running one workload.

Set-up imports g2glue from the checkout's ``src``, proves on a warm-up op
that the output checks detect failures, and prints ``READY``.  With
``--setup-only`` it stops there.  Otherwise it runs the timed phase (a
closed loop, one client: each op starts when the previous one returns) and,
with ``--trace 1``, a traced phase of a fixed number of ops, then prints
one JSON line of raw results for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHECKSUM_OPS = 10


def run_phase(workload, stream: int, *, seconds: float | None = None,
              count: int | None = None, tracer=None) -> dict:
    """Run ops of ``stream`` for ``seconds`` or for ``count`` ops."""
    latencies: list[float] = []
    failed = 0
    digest = hashlib.sha256()
    first = None
    start = time.perf_counter()
    while (len(latencies) < count if count is not None
           else time.perf_counter() - start < seconds):
        op = len(latencies)
        params = workload.inputs(stream, op)
        commands = workload.commands(params)
        if tracer is not None:
            tracer.begin_op(op)
        t0 = time.perf_counter()
        try:
            results = workload.run(commands)
        finally:
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
        failed += workload.check(params, results)
        latencies.append(latency)
        digest.update(workload.digest(results))
        if op + 1 == CHECKSUM_OPS:
            first = digest.hexdigest()
    wall = time.perf_counter() - start
    return {"latencies": latencies, "failed": failed, "wall_s": wall,
            "checksum": {"ops": len(latencies), "sha256": digest.hexdigest(),
                         f"sha256_first{CHECKSUM_OPS}": first}}


def versions() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {key: os.environ.get(key, "unset")
                             for key in ("OPENBLAS_NUM_THREADS",
                                         "OMP_NUM_THREADS",
                                         "MKL_NUM_THREADS")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import g2glue
    if not Path(g2glue.__file__).resolve().is_relative_to(SRC):
        print(f"error: g2glue imported from {g2glue.__file__}, not from "
              f"{SRC}", file=sys.stderr)
        return 2
    from workloads import TIMED, TRACED, WARMUP, WORKLOADS, WrongAnswer

    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            params = workload.inputs(WARMUP, 0)
            results = workload.run(workload.commands(params))
            workload.check(params, results)
            workload.negative_controls(params, results)
            print("READY", flush=True)
            if args.setup_only:
                return 0
            out = {"timed": run_phase(workload, TIMED, seconds=args.seconds)}
            if args.trace:
                from tracer import Tracer, install, layer_metrics
                tracer = Tracer()
                uninstall = install(tracer)
                try:
                    out["traced"] = run_phase(workload, TRACED,
                                              count=workload.trace_ops,
                                              tracer=tracer)
                finally:
                    uninstall()
                out["layers"] = layer_metrics(tracer.spans,
                                              workload.trace_ops)
                spans = (ROOT / ".perfbench_out"
                         / f"spans-{args.workload}-seed{args.seed}.jsonl")
                tracer.write(spans)
                out["spans"] = {"path": str(spans.relative_to(ROOT)),
                                "count": len(tracer.spans)}
        except WrongAnswer as exc:
            print(json.dumps({"wrong": str(exc)}), flush=True)
            return 1
        out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["versions"] = versions()
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
