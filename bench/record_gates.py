#!/usr/bin/env python3
"""Record the correctness gates as data: the sha256 of every file of the
default figure set and the ordered names of the verify checks.

    python3 bench/record_gates.py

Run it only at a commit whose outputs are trusted; the benchmark compares
every later run against these files.
"""

import json
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    program = workloads.load_program()
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        program.runner.reproduce_figures(outdir)
        hashes = {p.name: workloads.sha256_file(p) for p in sorted(outdir.iterdir())}
    report = program.runner.verify_suite()
    if not report.passed:
        raise SystemExit("verify_suite fails at this commit; refusing to record it")
    workloads.REFERENCE.mkdir(exist_ok=True)
    workloads.FIGURE_HASHES.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    names = [c.name for c in report.checks]
    workloads.VERIFY_CHECKS.write_text(json.dumps(names, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(hashes)} figure hashes and {len(names)} verify checks")


if __name__ == "__main__":
    main()
