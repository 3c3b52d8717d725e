"""periodic-cluster benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Workloads (see workloads.py): bfs_battery, region_descent, tree_queries,
mutation_walk.  Each is one closed-loop client in one process, no threads.
A run repeats the workload's seeded pass, each repeat in a fresh
interpreter so the package's caches start cold, until T seconds of ops
have been timed, and at least MIN_REPEATS times.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 the run instead makes one untraced pass, one traced pass of the
same ops and a scaling sweep, and reports the per-layer metrics.  Either
way a fuller report goes to stderr, and every op's output is checked
exactly outside the timed region.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("bfs_battery", "region_descent", "tree_queries", "mutation_walk")
MIN_REPEATS = 3
# Every run, with its children, must end well inside three minutes.
RUN_LIMIT_S = 170.0
# On a shared virtual machine the host's speed can swing by 2x over seconds
# to minutes, with CPU time equal to wall time throughout.  Workers run a
# fixed Fraction loop (worker.calibrate) between ops, and every timing is
# scaled to a host that runs that loop REFERENCE_SPEED times a second.  The
# loop does not touch the package, so a change to the package moves the
# scaled timings exactly as it moves the raw ones.
REFERENCE_SPEED = 1000.0

END_TO_END = (
    ("ops_per_s", "ops/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer() -> list[tuple[str, str, str]]:
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(ROOT / "src"))
    from sweep import SWEPT
    from tracing import LAYER_FUNCTIONS, REPLAYS

    out = []
    for name in LAYER_FUNCTIONS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_ms", "ms", "lower"))
        if name in REPLAYS and not name.startswith("cli."):
            out.append((f"{name}.total_ms", "ms", "lower"))
    for name in SWEPT:
        out.append((f"{name}.n_exp", "exponent", "lower"))
        out.append((f"{name}.n_max", "n", "higher"))
    out += [
        ("cluster.edge_matrix.hit_ratio", "ratio", "higher"),
        ("explorer.bfs.new_node_ratio", "ratio", "higher"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead", "ratio", "lower"),
        ("env.calib_ops_per_s", "iter/s", "higher"),
    ]
    return out


def _spawn(mode: str, workload: str, seed: int, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), mode, workload, str(seed), str(spawn_ns)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker for {workload} ran past the time limit") from None
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(out)


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _scaled(latency_ms: list[float], op_calib: list[float]) -> list[float]:
    """Op latencies scaled to the reference host, by each op's calibration."""
    return [x * c / REFERENCE_SPEED for x, c in zip(latency_ms, op_calib)]


def stdout_digest(op_digests: list[str]) -> str:
    """SHA-256 over a pass's per-op stdout SHA-256 digests, in op order."""
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def _failures(passes: list[dict], workload: str, seed: int) -> tuple[int, list[str]]:
    """Failed ops over all passes: errors, and outputs that differ from the reference.

    The reference is the recorded digest where one exists for this workload
    and seed, otherwise the first pass of the run.
    """
    reference = passes[0]["digests"]
    expected = json.loads(EXPECTED.read_text()).get(workload, {})
    if expected.get("seed") == seed:
        reference = expected["op_sha256"]
    failed, messages = 0, []
    for p in passes:
        failed += len(p["errors"])
        messages += p["errors"]
        for label, got, want in zip(p["labels"], p["digests"], reference):
            if got is not None and got != want:
                failed += 1
                messages.append(f"{label}: output differs from the reference")
    return failed, messages


def timed_run(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, dict]:
    passes = []
    measured = 0.0
    while len(passes) < MIN_REPEATS or measured < seconds:
        started = time.monotonic()
        passes.append(_spawn("time", workload, seed, deadline))
        measured += passes[-1]["timed_s"]
        if len(passes) >= MIN_REPEATS and 2 * time.monotonic() - started > deadline:
            break
    scaled = [_scaled(p["latency_ms"], p["op_calib"]) for p in passes]
    latencies = sorted(x for ms in scaled for x in ms)
    p90 = _nearest_rank(latencies, 0.9)
    failed, messages = _failures(passes, workload, seed)
    attempted = sum(p["attempted"] for p in passes)
    metrics = {
        "ops_per_s": statistics.median(1000 * len(ms) / sum(ms) for ms in scaled),
        "op_ms.p50": _nearest_rank(latencies, 0.5),
        "op_ms.p90": p90,
        "setup_s": statistics.median(
            p["setup_s"] * p["setup_calib"] / REFERENCE_SPEED for p in passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = sorted(x for p in passes for x in p["latency_ms"])
    report = {
        "repeats": len(passes),
        "timed_s": measured,
        "samples": len(latencies),
        "samples_beyond_p90": sum(1 for x in latencies if x > p90),
        "fail_ratio": failed / attempted,
        "failures": messages[:20],
        "calib_each": [p["calib"] for p in passes],
        "raw": {
            "ops_per_s": statistics.median(p["attempted"] / p["timed_s"] for p in passes),
            "op_ms.p50": _nearest_rank(raw, 0.5),
            "op_ms.p90": _nearest_rank(raw, 0.9),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
        },
    }
    if workload == "tree_queries" and not passes[0]["errors"]:
        report["stdout_sha256"] = stdout_digest(passes[0]["digests"])
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


def traced_run(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    untraced = _spawn("time", workload, seed, deadline)
    traced = _spawn("trace", workload, seed, deadline)
    swept = _spawn("sweep", workload, seed, deadline)
    failed, messages = _failures([untraced, traced], workload, seed)

    layers = traced["layers"]
    metrics = {}
    for name, unit, _ in _per_layer():
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_ms", "total_ms"):
            entry = layers.get(base, {"calls": 0, "self_ns": 0, "total_ns": 0})
            value = entry["calls"] if field == "calls" else entry[field.replace("_ms", "_ns")] / 1e6
        elif field in ("n_exp", "n_max"):
            value = swept[base][field]
        else:
            continue
        metrics[name] = {"value": value, "unit": unit}
    lookups = untraced["edge_matrix_hits"] + untraced["edge_matrix_misses"]
    # Both passes' times are scaled to the reference host before comparing.
    traced_ms = sum(_scaled(traced["top_ms"], traced["op_calib"]))
    untraced_ms = sum(_scaled(untraced["latency_ms"], untraced["op_calib"]))
    extra = {
        "cluster.edge_matrix.hit_ratio": untraced["edge_matrix_hits"] / lookups if lookups else 0.0,
        "explorer.bfs.new_node_ratio": untraced["new_node_ratio"],
        "trace.coverage": traced["coverage"],
        "trace.overhead": traced_ms / untraced_ms - 1,
    }
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": "ratio"}
    metrics["env.calib_ops_per_s"] = {
        "value": (untraced["calib"] + traced["calib"]) / 2,
        "unit": "iter/s",
    }
    report = {
        "failures": messages[:20],
        "sweep_points": {name: s["points"] for name, s in swept.items()},
        "untraced_ms": sum(untraced["latency_ms"]),
        "traced_top_ms": sum(traced["top_ms"]),
        "calib_each": [untraced["calib"], traced["calib"]],
    }
    attempted = untraced["attempted"] + traced["attempted"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "periodic_cluster" / "__init__.py").is_file():
        print(f"error: no periodic_cluster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    if args.trace:
        result, report = traced_run(args.workload, args.seed, deadline)
    else:
        result, report = timed_run(args.workload, args.seed, args.seconds, deadline)
        units = {name: unit for name, unit, _ in END_TO_END}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **report}, indent=1), file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
