#!/usr/bin/env python3
"""Regenerate the full figure set: one CSV + SVG pair per panel, plus manifest.

Exit codes are those of the qrmframes command line."""

import argparse
import sys
from pathlib import Path

from qrmframes import reproduce_figures
from qrmframes.cli import exit_code


def figures(args: argparse.Namespace) -> int:
    manifest = reproduce_figures(args.outdir, tau_max=args.tau_max, steps=args.steps)
    for entry in manifest["figures"]:
        print(f"{entry['name']}  frame={entry['frame']} n={entry['n']:<3d} "
              f"column={entry['column']}")
    print(f"{len(manifest['figures'])} figure pairs and manifest.json in {args.outdir}")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("figures"),
                        help="directory for the CSV/SVG pairs (default: figures)")
    parser.add_argument("--tau-max", type=float, default=50.0,
                        help="dimensionless time horizon (default: 50)")
    parser.add_argument("--steps", type=int, default=2000,
                        help="samples per series (default: 2000)")
    if code := exit_code(figures, parser.parse_args()):
        sys.exit(code)


if __name__ == "__main__":
    main()
