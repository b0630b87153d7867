"""Command line interface: evolve one scenario, rebuild the figure set, or
run the verification suite.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration
(including a verify --tol that is not a finite number > 0, or a --nmax
below 2 or too large to index a dense operator), 3 I/O error, 4 numerical error (a consistency, truncation or
Hermiticity check failed while computing).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analytic import FRAMES
from .errors import ConfigError, QrmError
from .runner import COLUMNS, ExperimentConfig, emit_csv, emit_svg, reproduce_figures, run_experiment, verify_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrmframes",
        description="Closed-form quantum Rabi model dynamics in both effective frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    evolve = sub.add_parser("evolve", help="run one scenario and write its time series")
    evolve.add_argument("--frame", choices=list(FRAMES), help="effective frame")
    evolve.add_argument("--n", type=int, help="excitation index of the initial eigenstate")
    evolve.add_argument("--xi", type=float, help="detuning delta / (2 g)")
    evolve.add_argument("--eps", dest="epsilon", metavar="EPS", type=float, help="mode frequency omega / g")
    evolve.add_argument("--g", type=float, help="coupling strength")
    evolve.add_argument("--tau-max", type=float, help="end of the dimensionless time grid")
    evolve.add_argument("--steps", type=int, help="number of grid points (>= 2)")
    evolve.add_argument("--nmax", dest="n_max", metavar="NMAX", type=int,
                        help="photon truncation echoed to cross-checks, >= n + 1")
    evolve.add_argument("--config", type=Path, help="JSON config file; flags override its fields")
    evolve.add_argument("--out", type=Path, help="CSV output path", required=True)
    evolve.add_argument("--svg", type=Path, help="optional SVG output path")
    evolve.add_argument("--column", default="atomic_excitation", choices=COLUMNS,
                        help="column rendered into the SVG (default atomic_excitation)")
    evolve.set_defaults(func=cmd_evolve)

    figures = sub.add_parser("figures", help="reproduce the full figure set")
    figures.add_argument("--outdir", type=Path, required=True, help="output directory")
    figures.set_defaults(func=cmd_figures)

    verify = sub.add_parser("verify", help="run the self-verification suite")
    verify.add_argument("--tol", type=float, default=None,
                        help="override every deviation bound (default: per-check bounds)")
    verify.add_argument("--nmax", type=int, default=None,
                        help="force the photon truncation everywhere")
    verify.set_defaults(func=cmd_verify)
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config is not None:
        data = ExperimentConfig.from_json(args.config.read_text(encoding="utf-8")).to_dict()
    for name in ("frame", "n", "xi", "epsilon", "g", "tau_max", "steps", "n_max"):  # each flag's dest is its field
        if (value := getattr(args, name)) is not None:
            data[name] = value
    if "frame" not in data or data["frame"] is None:
        raise ConfigError("frame", "required (pass --frame or provide it in --config)")
    outputs = ["csv", "svg"] if args.svg is not None else ["csv"]
    data["outputs"] = outputs
    return ExperimentConfig.from_dict(data)


def cmd_evolve(args: argparse.Namespace) -> int:
    config = _assemble_config(args)
    bundle = run_experiment(config)
    out = emit_csv(bundle, args.out)
    written = [str(out)]
    if args.svg is not None:
        try:
            written.append(str(emit_svg(bundle, args.column, args.svg)))
        except OSError:
            out.unlink()  # a failed run leaves none of its files behind
            raise
    print("wrote " + " and ".join(written))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    manifest = reproduce_figures(args.outdir)
    print(f"wrote {len(manifest['figures'])} figure pairs and manifest.json to {args.outdir}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify_suite(tol=args.tol, n_max=args.nmax)
    print(report.format_table())
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code; a package or I/O error it
    raises is printed to stderr and mapped to the code the module docstring gives."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QrmError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
