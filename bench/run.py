#!/usr/bin/env python3
"""Benchmark of qrmframes: one workload per run, one closed-loop client.

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Workloads are ``verify``, ``figures`` and ``evolve-long`` (see
bench/README.md). Every process that imports numpy is a child started with
``OPENBLAS_NUM_THREADS=1``; this process only orchestrates. ``--seconds``
defaults to ``run_seconds`` in BENCHMARK.json. Timings are reference
seconds: wall seconds scaled by a reference kernel timed next to each
request, so that the host's drifting speed cancels (see hostspeed.py); the
wall seconds are printed beside them. Set-up is measured in fresh
interpreters that the worker starts during its run; ``setup_s`` is their
median. With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced requests (wall seconds).

Prints one line per metric, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. The full record
(environment, tail percentile, wall times, kernel samples, failures) goes
to bench/.work/. Exits non-zero without a result when the program cannot be
imported or every request raises; a request whose output fails its gate
only makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracing import LAYER_METRICS
from worker import GRACE_S, start_worker, stop

BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work"
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"
WORKLOADS = ("verify", "figures", "evolve-long")

END_TO_END = {
    "setup_s": "s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "requests_per_s": "1/s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    WORK.mkdir(exist_ok=True)
    result_path = WORK / f"result-{workload}-seed{seed}-trace{trace}.json"
    result_path.unlink(missing_ok=True)
    proc, ready = start_worker(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--result", str(result_path)],
        GRACE_S,
    )
    if stop(proc, seconds + GRACE_S) != 0 or not result_path.exists():
        raise RuntimeError(f"{workload} worker failed (exit code {proc.returncode})")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["worker_ready_s"] = ready
    result["request_tail_s"] = result["request_tail"]["value"]
    result_path.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict, trace: int) -> dict:
    """Print the human-readable lines; return the metrics of the result line."""
    env = result["environment"]
    tail = result["request_tail"]
    failed_ratio = result["failed"] / result["attempted"]
    print(f"== {result['workload']} seed={env['seed']} trace={trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    wall = result["wall"]
    if trace:
        metrics = {name: (value, LAYER_METRICS[name]) for name, value in result["layers"].items()}
        print(f"   untraced request_p50_s {wall['request_p50_s']:.6f} s (wall); "
              f"{result['traced_requests']} traced requests; waiting time: n/a (single-threaded, no queue)")
    else:
        metrics = {name: (result[name], unit) for name, unit in END_TO_END.items()}
        print(f"   request_tail_s is p{tail['percentile']} of {tail['samples']} requests "
              f"({tail['beyond']} beyond it)")
        print(f"   timings in reference seconds (kernel {result['reference_s']} s); wall: "
              + " ".join(f"{k} {wall[k]:.6g}" for k in ("setup_s", "request_p50_s", "requests_per_s")))
    print(f"   failed_ratio {failed_ratio:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"   {name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            metrics = report(result, args.trace)
            lines.append({
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics if len(names) == 1 else
                {f"{name}.{key}": value for key, value in metrics.items()},
            })
    except RuntimeError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": {k: v for line in lines for k, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
