"""One pass of a workload, in a fresh interpreter so every cache starts cold.

Usage: python3 bench/worker.py MODE WORKLOAD SEED SPAWN_NS

MODE is ``time`` (an untraced pass), ``trace`` (the same pass with spans)
or ``sweep`` (the scaling sweep).  SPAWN_NS is the CLOCK_MONOTONIC time at
which the parent started this process: set-up time runs from it, through
the import, input generation and document writing, to the first timed op.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
CALIB_SLICE_S = 0.05
CALIB_EVERY_S = 0.5


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    import periodic_cluster

    if Path(periodic_cluster.__file__).resolve().parent != SRC / "periodic_cluster":
        raise SystemExit(f"periodic_cluster imported from {periodic_cluster.__file__}, not {SRC}")


def calibrate(window_s: float) -> float:
    """Iterations per second of a fixed pure-Python Fraction loop."""
    count = 0
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < window_s:
        total = Fraction(0)
        for i in range(1, 301):
            total += Fraction(1, i)
        count += 1
    return count / elapsed


def _untraced(name, fn, *args):
    return fn(*args)


def run_pass(workload: str, seed: int, spawn_ns: int, traced: bool) -> dict:
    from periodic_cluster import edge_matrix
    from workloads import build_ops

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build_ops(workload, seed, str(workdir))
        tracer = None
        call = _untraced
        if traced:
            from tracing import Tracer

            tracer = Tracer()
            call = tracer.call
        outs = []
        latencies = []
        # Calibration slices between the ops track the host's speed; each op
        # is scaled by the mean of the two slices around it.
        setup_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC) - spawn_ns
        slices = [calibrate(CALIB_SLICE_S)]
        slice_of_op = []
        since = time.perf_counter_ns()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter_ns()
            try:
                out, error = op.run(call), None
            except Exception as exc:  # a failed op is counted, never skipped
                out, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            latencies.append(t1 - t0)
            outs.append((out, error))
            slice_of_op.append(len(slices) - 1)
            if t1 - since >= CALIB_EVERY_S * 1e9:
                slices.append(calibrate(CALIB_SLICE_S))
                since = time.perf_counter_ns()
        slices.append(calibrate(CALIB_SLICE_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Exact checks, outside the timed region.
    errors, digests = [], []
    new_nodes = mutations = 0
    for op, (out, error) in zip(ops, outs):
        if error is None:
            try:
                if not op.check(out):
                    error = f"{op.label}: wrong output"
            except Exception as exc:
                error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if error is None:
            digests.append(op.digest(out))
            if op.counts is not None:
                new, tried = op.counts(out)
                new_nodes += new
                mutations += tried
        else:
            errors.append(error)
            digests.append(None)

    info = edge_matrix.cache_info()
    result = {
        "setup_s": setup_ns / 1e9,
        "timed_s": sum(latencies) / 1e9,
        "latency_ms": [ns / 1e6 for ns in latencies],
        "setup_calib": slices[0],
        "op_calib": [(slices[k] + slices[k + 1]) / 2 for k in slice_of_op],
        "calib": sum(slices) / len(slices),
        "attempted": len(ops),
        "errors": errors,
        "digests": digests,
        "labels": [op.label for op in ops],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "edge_matrix_hits": info.hits,
        "edge_matrix_misses": info.misses,
        "new_node_ratio": new_nodes / mutations if mutations else 0.0,
    }
    if tracer is not None:
        from tracing import summarize

        result.update(summarize(tracer.spans, len(ops)))
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": tracer.spans}, fh)
    return result


def main(argv: list[str]) -> int:
    mode, workload, seed, spawn_ns = argv[0], argv[1], int(argv[2]), int(argv[3])
    _import_package()
    if mode == "sweep":
        from sweep import sweep

        result = sweep(seed)
    else:
        result = run_pass(workload, seed, spawn_ns, traced=mode == "trace")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
