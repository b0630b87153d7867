"""The three benchmark workloads: pinned import of the checkout under test,
seeded inputs, one request per call, and the correctness gate every output
must pass.

A workload object is built once per process (that is part of set-up) and
then serves requests. ``spec(i)`` gives the inputs of request ``i``,
``call(spec)`` runs the program on them (the only timed part), ``gate``
returns ``None`` for a correct output or a one-line reason, ``rows`` counts
the time-series rows of the request and ``cleanup`` removes its files.
``tail_level`` is the percentile reported as the request tail: the highest
round one that leaves at least ten requests beyond it in a run on a slow
host, fixed so that it does not follow the number of requests a run
completes.

numpy is imported inside the functions that need it, after
``load_program``, so that the import time measured around ``load_program``
includes numpy's.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"
WORK = BENCH_DIR / ".work"
REQUEST_DIR = WORK / "requests"

FIGURE_HASHES = REFERENCE / "figures_sha256.json"
VERIFY_CHECKS = REFERENCE / "verify_checks.json"

# verify_suite compares the closed form with the oracle on 2 frames x 4
# excitation indices over a 200-point grid; those are the rows it evaluates
VERIFY_ROWS = 2 * 4 * 200

# evolve-long input domain
STEPS_RANGE = (20_000, 200_000)
EPS_RANGE = (1e-2, 1e2)
TAU_MAX_RANGE = (25.0, 500.0)
N_MAX_INDEX = 200
XI_SPAN = 2.0
SAMPLED_ROWS = 16
# %.12g keeps 12 significant digits, so a faithful row is within half a
# unit in the 12th digit of the value it prints
ROW_RTOL = 5e-12 * (1 + 1e-9)
# evolve-long inputs generated at set-up; a longer run cycles through them
EVOLVE_INPUTS = 512


def load_program():
    """Import qrmframes from this checkout's ``src/`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qrmframes
    import qrmframes.cli  # noqa: F401  (the package does not import its CLI)

    where = Path(qrmframes.__file__).resolve().parent
    if where != SRC / "qrmframes":
        raise ImportError(f"qrmframes resolved to {where}, not to {SRC / 'qrmframes'}")
    return qrmframes


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_tree(directory: Path) -> str:
    """One digest over the names and bytes of the Python files under a directory."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(str(path.relative_to(directory)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def verify_gate(report, expected_names: list[str]) -> str | None:
    """The suite passed and ran exactly the recorded checks, in order."""
    failing = [c.name for c in report.checks if not c.passed]
    if failing:
        return f"{len(failing)} failing checks: " + "; ".join(failing)
    names = [c.name for c in report.checks]
    if names != expected_names:
        missing = sorted(set(expected_names) - set(names))
        extra = sorted(set(names) - set(expected_names))
        return f"check list differs: missing {missing}, extra {extra}, {len(names)} checks"
    return None


def figures_gate(outdir: Path, expected: dict[str, str]) -> str | None:
    """Every file of the figure set has its recorded sha256, and no more files."""
    found = {p.name: sha256_file(p) for p in sorted(outdir.iterdir())}
    wrong = sorted(name for name in expected if found.get(name) != expected[name])
    extra = sorted(set(found) - set(expected))
    if wrong or extra:
        return f"figure bytes differ: {wrong}, unexpected files {extra}"
    return None


@dataclass(frozen=True)
class EvolveSpec:
    """One evolve-long request: the CLI argv and what its output must hold."""

    argv: tuple[str, ...]
    fields: dict
    csv: Path
    svg: Path
    check_seed: int


def evolve_gate(program, spec: EvolveSpec, exit_code: int) -> str | None:
    """Exit code, row count, config echo, sampled rows, flat conserved column, SVG."""
    runner = program.runner
    if exit_code != 0:
        return f"exit code {exit_code}"
    config = runner.ExperimentConfig(**spec.fields, outputs=("csv", "svg"))
    import numpy as np

    rng = np.random.default_rng(spec.check_seed)
    picks = {0, config.steps - 1, *rng.integers(0, config.steps, SAMPLED_ROWS - 2).tolist()}
    conserved = runner.COLUMNS.index("n_jc" if config.frame == "rf" else "n_ajc") + 1
    sampled: dict[int, list[str]] = {}
    flat_values = set()
    rows = 0
    with open(spec.csv, encoding="utf-8") as handle:
        first = handle.readline()
        try:
            echoed = runner.parse_config_comment(first)
        except program.ConfigError as exc:
            return f"config comment: {exc}"
        if echoed != config:
            return f"config comment does not round-trip: {echoed} != {config}"
        if handle.readline().rstrip("\n") != runner.CSV_HEADER:
            return "unexpected CSV header"
        for line in handle:
            cells = line.rstrip("\n").split(",")
            flat_values.add(cells[conserved])
            if rows in picks:
                sampled[rows] = cells
            rows += 1
    if rows != config.steps:
        return f"{rows} data rows, expected {config.steps}"
    if len(flat_values) != 1:
        return f"conserved column {runner.COLUMNS[conserved - 1]} takes {len(flat_values)} values"
    bundle = runner.run_experiment(config)
    columns = [bundle.tau] + [bundle.series[name] for name in runner.COLUMNS]
    for row, cells in sorted(sampled.items()):
        for col, cell in enumerate(cells):
            want = float(columns[col][row])
            if not math.isclose(float(cell), want, rel_tol=ROW_RTOL, abs_tol=0.0):
                return f"row {row} column {col}: {cell} != {want!r}"
    svg = spec.svg.read_text(encoding="utf-8")
    points = svg.split('points="', 1)[-1].split('"', 1)[0]
    if not svg.endswith("</svg>\n") or points.count(",") != config.steps:
        return "SVG is truncated or does not hold one point per row"
    return None


class Verify:
    """``runner.verify_suite()`` with default arguments, repeated."""

    tail_level = 60

    def __init__(self, program, seed: int):
        self.runner = program.runner
        self.expected = json.loads(VERIFY_CHECKS.read_text(encoding="utf-8"))

    def spec(self, i: int):
        return None

    def call(self, spec):
        return self.runner.verify_suite()

    def gate(self, spec, report) -> str | None:
        return verify_gate(report, self.expected)

    def rows(self, spec, report) -> int:
        return VERIFY_ROWS

    def cleanup(self, spec) -> None:
        pass


class Figures:
    """``runner.reproduce_figures(outdir)`` at the default horizon, each call
    into a fresh directory."""

    tail_level = 90

    def __init__(self, program, seed: int):
        self.runner = program.runner
        self.expected = json.loads(FIGURE_HASHES.read_text(encoding="utf-8"))

    def spec(self, i: int) -> Path:
        return REQUEST_DIR / f"figures-{i}"

    def call(self, outdir: Path) -> dict:
        return self.runner.reproduce_figures(outdir)

    def gate(self, outdir: Path, manifest: dict) -> str | None:
        return figures_gate(outdir, self.expected)

    def rows(self, outdir: Path, manifest: dict) -> int:
        return len(manifest["figures"]) * manifest["steps"]

    def cleanup(self, outdir: Path) -> None:
        shutil.rmtree(outdir, ignore_errors=True)


def _radical_inverse(k: int, base: int) -> float:
    """Digits of k in ``base`` mirrored behind the point: every prefix of the
    sequence fills [0, 1) evenly (van der Corput for base 2, Halton axes
    for the other primes)."""
    value, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        value += scale * digit
        scale /= base
    return value


def evolve_inputs(seed: int, count: int, directory: Path = REQUEST_DIR) -> list[EvolveSpec]:
    """Seeded scenarios drawn from the allowed domain.

    The draws are quasi-random: input ``i`` takes the ``i``-th Halton point,
    one prime base per field, shifted modulo 1 by a random offset per field
    drawn from the seed. Any run's prefix of requests then covers every
    field's range evenly, so the run's median request costs about the same
    for every seed and run length, while the seed still changes every
    input. ``steps`` follows the reflected, unshifted base-2 axis, so input
    0 (the untimed warm-up request) is the largest and ``peak_rss_mb`` does
    not depend on the seed either.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    shift = rng.uniform(size=5).tolist()
    check_seeds = rng.integers(2**31, size=count)
    lo, hi = (math.log(v) for v in STEPS_RANGE)
    eps_lo, eps_hi = (math.log(v) for v in EPS_RANGE)
    specs = []
    for i in range(count):
        u = [(_radical_inverse(i, base) + offset) % 1.0
             for base, offset in zip((3, 5, 7, 11, 13), shift)]
        eps = math.exp(eps_lo + u[2] * (eps_hi - eps_lo))
        fields = {
            "frame": "rf" if u[0] < 0.5 else "crf",
            "n": min(int(u[1] * (N_MAX_INDEX + 1)), N_MAX_INDEX),
            "xi": -eps / 2 + (1e-3 + u[3] * (1.0 - 1e-3)) * (eps / 2 + XI_SPAN),
            "epsilon": eps,
            "tau_max": TAU_MAX_RANGE[0] + u[4] * (TAU_MAX_RANGE[1] - TAU_MAX_RANGE[0]),
            "steps": int(round(math.exp(hi - _radical_inverse(i, 2) * (hi - lo)))),
        }
        csv = directory / f"evolve-{i}.csv"
        svg = directory / f"evolve-{i}.svg"
        argv = (
            "evolve", "--frame", fields["frame"], "--n", str(fields["n"]),
            "--xi", repr(fields["xi"]), "--eps", repr(fields["epsilon"]),
            "--tau-max", repr(fields["tau_max"]), "--steps", str(fields["steps"]),
            "--out", str(csv), "--svg", str(svg),
        )
        specs.append(EvolveSpec(argv, fields, csv, svg, int(check_seeds[i])))
    return specs


class EvolveLong:
    """A seeded stream of single scenarios through ``cli.main(["evolve", ...])``."""

    tail_level = 75

    def __init__(self, program, seed: int):
        self.program = program
        self.cli = program.cli
        self.specs = evolve_inputs(seed, EVOLVE_INPUTS)

    def spec(self, i: int) -> EvolveSpec:
        return self.specs[i % len(self.specs)]

    def call(self, spec: EvolveSpec) -> int:
        return self.cli.main(list(spec.argv))

    def gate(self, spec: EvolveSpec, exit_code: int) -> str | None:
        return evolve_gate(self.program, spec, exit_code)

    def rows(self, spec: EvolveSpec, exit_code: int) -> int:
        return spec.fields["steps"]

    def cleanup(self, spec: EvolveSpec) -> None:
        spec.csv.unlink(missing_ok=True)
        spec.svg.unlink(missing_ok=True)


WORKLOADS = {"verify": Verify, "figures": Figures, "evolve-long": EvolveLong}


def make(name: str, program, seed: int):
    REQUEST_DIR.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](program, seed)
