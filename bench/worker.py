#!/usr/bin/env python3
"""One benchmark process: a single closed-loop client running one workload.

    python3 bench/worker.py --workload verify --seed 1 --seconds 40 --trace 0 --result out.json

``run.py`` starts it with ``OPENBLAS_NUM_THREADS=1`` in its environment. It
prints ``ready`` once qrmframes is imported and the inputs are generated,
then sends one request at a time for ``--seconds`` seconds and writes its
measurements to ``--result``. With ``--setup-only`` it stops after
``ready``. With ``--trace 1`` requests alternate between untraced and
traced, so the difference of their medians is the tracing overhead.

Only the program call is timed. The correctness gate and file cleanup run
between requests, off the clock; a request that raises or fails its gate
counts as failed and the run goes on. Between every two requests the worker
also times the reference kernel of ``hostspeed``; each request and set-up
sample is scaled by the kernel samples on either side of it, so that the
timings it reports are reference seconds (see hostspeed.py), and the wall
seconds are kept in the result beside them. With ``--trace 0`` the loop
also pauses SETUP_SAMPLES times, evenly over the run, to time the set-up of
a fresh ``--setup-only`` worker.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import workloads
from tracing import Tracer

TAIL_BEYOND = 10
SETUP_SAMPLES = 11
# a worker may overrun --seconds by one request plus its gate
GRACE_S = 90.0


def start_worker(args: list[str], timeout: float) -> tuple[subprocess.Popen, float]:
    """Start a worker in a fresh interpreter; returns it and the seconds
    until it printed ``ready``. Raises RuntimeError if it never does."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
    )
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if selector.select(timeout) else ""
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc, 5.0)
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def stop(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for a worker to end, killing it when the timeout runs out."""
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its workload is set up."""
    proc, ready = start_worker(["--workload", workload, "--seed", str(seed), "--setup-only"], GRACE_S)
    if stop(proc, GRACE_S) != 0:
        raise RuntimeError(f"set-up of {workload} failed")
    return ready


def tail(durations: list[float], level: int) -> dict:
    """The ``level``-th percentile (nearest rank), lowered when fewer than
    TAIL_BEYOND samples would lie beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    rank = min(-(-level * n // 100), n - TAIL_BEYOND)
    if rank < 1:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {
        "value": ordered[rank - 1],
        "percentile": round(100.0 * rank / n, 2),
        "samples": n,
        "beyond": n - rank,
    }


def _filesystem(path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            _, point, fstype = line.split()[:3]
            inside = target == point or target.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best):
                best, kind = point, fstype
    return kind


def _git_sha() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30, check=False,
    )
    return done.stdout.strip() or None


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as info:
        for line in info:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def environment(program, seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": workloads.sha256_tree(workloads.SRC / "qrmframes"),
        "qrmframes_file": program.__file__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "output_dir": str(workloads.REQUEST_DIR.relative_to(workloads.ROOT)),
        "output_fs": _filesystem(workloads.REQUEST_DIR),
        "seed": seed,
    }


@dataclass
class Served:
    seconds: float  # wall time of the program call, up to its return or raise
    returned: bool  # the call returned; its output may still fail the gate
    rows: int
    failure: str | None


def serve(workload, i: int, tracer: Tracer | None = None, request: int = 0) -> Served:
    """Run the request on input i, then check and clean up its output."""
    spec = workload.spec(i)
    returned, rows, failure = False, 0, None
    if tracer is not None:
        tracer.install(request)
    start = time.perf_counter()
    try:
        try:
            out = workload.call(spec)
            returned = True
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        failure = workload.gate(spec, out)
        rows = workload.rows(spec, out)
    except Exception:  # a broken request is counted, not fatal
        failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
    finally:
        workload.cleanup(spec)
    return Served(seconds, returned, rows, failure)


def measure(workload, seconds: float, speed, tracer: Tracer | None = None, setup=None) -> dict:
    """Closed loop for ``seconds``.

    ``speed.sample()`` runs between every two requests, and each timing is
    also kept scaled to reference seconds by the samples on either side.
    With a tracer, every input is served twice, once traced and once not,
    in alternating order, so both halves see the same inputs. Without one,
    ``setup()`` is timed SETUP_SAMPLES times, evenly over the run.

    Requests that returned are timed whether or not they pass their gate.
    """
    failures: list[str] = []
    timed: list[float] = []
    scaled: list[float] = []
    rows: list[int] = []
    traced: dict[int, float] = {}
    setups: list[float] = []
    setups_scaled: list[float] = []
    kernel: list[float] = []  # every reference sample, in order
    after: list[int] = []  # per timed request, the index of the sample that followed it

    # one untimed request first, so lazy library set-up is not timed
    failure = serve(workload, 0).failure
    if failure:
        failures.append(f"request 0: {failure}")
    attempted = 1
    kernel.append(speed.sample())
    begin = time.perf_counter()
    while (elapsed := time.perf_counter() - begin) < seconds:
        due = len(setups) * seconds / SETUP_SAMPLES
        if setup is not None and len(setups) < SETUP_SAMPLES and elapsed >= due:
            setups.append(setup())
            kernel.append(speed.sample())
            setups_scaled.append(setups[-1] * hostspeed.scale(*kernel[-2:]))
            continue
        if tracer is None:
            index, trace_this = attempted, False
        else:
            pair, second = divmod(attempted - 1, 2)
            index, trace_this = 1 + pair, second != pair % 2
        served = serve(workload, index, tracer if trace_this else None, attempted)
        kernel.append(speed.sample())
        if served.failure:
            failures.append(f"request {attempted}: {served.failure}")
        if trace_this:
            if served.returned:
                traced[attempted] = served.seconds
        elif served.returned:
            timed.append(served.seconds)
            scaled.append(served.seconds * hostspeed.scale(*kernel[-2:]))
            after.append(len(kernel) - 1)
            rows.append(served.rows)
        attempted += 1
    return {"attempted": attempted, "failed": len(failures), "failures": failures[:20],
            "timed": timed, "scaled": scaled, "rows": rows, "traced": traced,
            "setups": setups, "setups_scaled": setups_scaled,
            "kernel_seconds": kernel, "kernel_after": after}


def timings(seconds: list[float], rows: list[int], tail_level: int) -> dict:
    """Median, tail and throughput of one list of request times."""
    return {
        "request_p50_s": statistics.median(seconds),
        "request_tail": tail(seconds, tail_level),
        "requests_per_s": len(seconds) / sum(seconds),
        "rows_per_s": sum(rows) / sum(seconds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if not args.setup_only and (args.seconds is None or args.result is None):
        parser.error("--seconds and --result are required unless --setup-only is given")

    start = time.perf_counter()
    program = workloads.load_program()
    import_s = time.perf_counter() - start
    workload = workloads.make(args.workload, program, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer(program) if args.trace else None
    setup = None if args.trace else lambda: time_setup(args.workload, args.seed)
    speed = hostspeed.HostSpeed(workloads.WORK)
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        run = measure(workload, args.seconds, speed, tracer, setup)
    timed, scaled, rows = run.pop("timed"), run.pop("scaled"), run.pop("rows")
    traced = run.pop("traced")
    if not timed:
        raise SystemExit(f"every request raised: {run['failures']}")
    wall = timings(timed, rows, workload.tail_level)
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(program, args.seed),
        **run,
        "reference_s": hostspeed.REFERENCE_S,
        "request_seconds": timed,
        "request_reference_seconds": scaled,
        "request_rows": rows,
        **timings(scaled, rows, workload.tail_level),
        "setup_s": statistics.median(run["setups_scaled"]) if run["setups_scaled"] else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall": {**wall, "setup_s": statistics.median(run["setups"]) if run["setups"] else None},
    }
    if tracer is not None:
        if not traced:
            raise SystemExit(f"every traced request raised: {run['failures']}")
        overhead = statistics.median(traced.values()) - wall["request_p50_s"]
        result["layers"] = tracer.layer_metrics(traced, import_s, overhead)
        spans = workloads.WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(workloads.ROOT))
        result["traced_requests"] = len(traced)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
