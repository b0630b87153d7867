#!/usr/bin/env python3
"""Collapse-revival envelope periods against the two-frequency prediction.

Each initial photon number excites exactly two doublets, so the slow envelope
of the atomic series closes at pi / (R_top - R_bottom). The scan generates the
closed-form series at the figure-set parameters, measures the envelope period,
and tabulates it next to the prediction.
"""

import argparse
import csv
import math
from pathlib import Path

import numpy as np

from qrmframes import FRAMES, ModelParams, beat_modulation_period, observables

FRAME_PARAMS = {
    "rf": ModelParams.from_dimensionless(0.0, 0.16),
    "crf": ModelParams.from_dimensionless(1.0 / 1.31, 0.16),
}


def branch_pair(frame: str, params: ModelParams, n: int) -> tuple[float, float]:
    """Rabi frequencies of the top and bottom doublets the frame's state evolves in."""
    spec = FRAMES[frame]
    top, _, _ = spec.doublet(params, spec.top_atom, n)
    bottom, _, _ = spec.doublet(params, spec.bottom_atom, n - 1)
    return top, bottom


def scan_row(frame: str, n: int, periods: float) -> dict:
    params = FRAME_PARAMS[frame]
    top, bottom = branch_pair(frame, params, n)
    predicted = params.g * math.pi / (top - bottom)

    window = periods * predicted
    # at least eight samples per cycle of the fastest squared-series component
    samples = max(4000, int(16.0 * window * top / (math.pi * params.g)) + 1)
    tau = np.linspace(0.0, window, samples)
    series = observables(params, frame, n, tau / params.g).atomic_excitation
    measured = beat_modulation_period(tau, series)
    return {
        "frame": frame,
        "n": n,
        "predicted": predicted,
        "measured": measured,
        "rel_err": (measured - predicted) / predicted,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", nargs="+", choices=("rf", "crf"),
                        default=["rf", "crf"])
    parser.add_argument("--photon-numbers", type=int, nargs="+",
                        default=[2, 5, 10, 20, 40, 60],
                        help="initial photon numbers to scan (n >= 2)")
    parser.add_argument("--periods", type=float, default=10.0,
                        help="window length in predicted envelope periods")
    parser.add_argument("--out", type=Path, default=None,
                        help="optional CSV path for the scan table")
    args = parser.parse_args()

    if min(args.photon_numbers) < 2:
        parser.error("need n >= 2 so both doublets carry a finite frequency")

    rows = [scan_row(frame, n, args.periods)
            for frame in args.frames for n in args.photon_numbers]

    print(f"{'frame':<6} {'n':>4} {'predicted':>12} {'measured':>12} {'rel_err':>10}")
    for row in rows:
        print(f"{row['frame']:<6} {row['n']:>4d} {row['predicted']:>12.6f} "
              f"{row['measured']:>12.6f} {row['rel_err']:>+10.2e}")

    if args.out is not None:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
