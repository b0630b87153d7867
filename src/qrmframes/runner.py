"""Experiment configuration, deterministic artifact emission, figure-set
reproduction, and the self-verification suite.

Everything here is byte-stable: rerunning an experiment with an equal
config writes identical CSV and SVG bytes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericConsistencyError, TruncationError
from .hilbert import HilbertSpace
from .model import ModelParams, build_components, build_effective, build_number_ops, build_parity, build_rabi, build_transition_ops, frame_conjugation_check
from .oracle import compare_scenario, interior_commutator_norm, propagate_series
from . import analytic

__all__ = [
    "COLUMNS",
    "CSV_HEADER",
    "ExperimentConfig",
    "TimeSeriesBundle",
    "run_experiment",
    "emit_csv",
    "emit_svg",
    "parse_config_comment",
    "reproduce_figures",
    "beat_modulation_period",
    "CheckResult",
    "VerifyReport",
    "verify_suite",
]

COLUMNS = ("s_z", "atomic_excitation", "photon", "n_jc", "n_ajc")
CSV_HEADER = "tau," + ",".join(COLUMNS)

FIGURE_RF_XI = 0.0
FIGURE_CRF_XI = 1.0 / 1.31
FIGURE_EPSILON = 0.16

# figure name -> (frame, n, reported column); the rotating-frame epsilon is
# an assumption recorded in the manifest, the dynamics at n=0 do not use it
FIGURE_SET = (
    ("fig01", "rf", 0, "atomic_excitation"),
    ("fig02", "rf", 0, "photon"),
    ("fig03", "rf", 0, "n_jc"),
    ("fig04", "rf", 0, "n_ajc"),
    ("fig05", "rf", 40, "atomic_excitation"),
    ("fig06", "rf", 40, "photon"),
    ("fig07", "rf", 40, "n_ajc"),
    ("fig08", "crf", 0, "atomic_excitation"),
    ("fig09", "crf", 0, "photon"),
    ("fig10", "crf", 0, "n_ajc"),
    ("fig11", "crf", 0, "n_jc"),
    ("fig12", "crf", 40, "atomic_excitation"),
    ("fig13", "crf", 40, "photon"),
    ("fig14", "crf", 40, "n_jc"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One frame scenario on a uniform dimensionless time grid.

    Physical parameters derive as omega = epsilon*g, delta = 2*xi*g,
    omega0 = delta + omega; tau_k = k * tau_max / (steps - 1). n_max is the
    photon truncation used by matrix cross-checks (closed forms never
    truncate) and defaults to n + 20.
    """

    frame: str
    n: int = 0
    xi: float = 0.0
    epsilon: float = 0.16
    g: float = 1.0
    tau_max: float = 50.0
    steps: int = 2000
    n_max: int | None = None
    outputs: tuple[str, ...] = ("csv",)

    def __post_init__(self) -> None:
        if self.frame not in ("rf", "crf"):
            raise ConfigError("frame", f"must be 'rf' or 'crf', got {self.frame!r}")
        for name in ("n", "steps", "n_max", "xi", "epsilon", "g", "tau_max"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ConfigError(name, f"must not be a boolean, got {value!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ConfigError("n", f"must be a non-negative integer, got {self.n!r}")
        for name in ("xi", "epsilon", "g", "tau_max"):
            value = getattr(self, name)
            if not isinstance(value, (int, float, np.integer, np.floating)) or not math.isfinite(value):
                raise ConfigError(name, f"must be a finite number, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon", f"must be > 0 so that omega > 0, got {self.epsilon!r}")
        if self.g <= 0:
            raise ConfigError("g", f"must be > 0, got {self.g!r}")
        if 2.0 * self.xi + self.epsilon < 0:
            raise ConfigError("xi", "needs 2*xi + epsilon >= 0 so that omega0 >= 0")
        if self.tau_max <= 0:
            raise ConfigError("tau_max", f"must be > 0, got {self.tau_max!r}")
        if not isinstance(self.steps, int) or self.steps < 2:
            raise ConfigError("steps", f"must be an integer >= 2, got {self.steps!r}")
        if self.n_max is not None:
            if not isinstance(self.n_max, int) or self.n_max < self.n + 2:
                raise ConfigError(
                    "n_max", f"must be an integer >= n + 2 = {self.n + 2}, got {self.n_max!r}"
                )
        if not isinstance(self.outputs, (list, tuple)) or not all(isinstance(k, str) for k in self.outputs):
            raise ConfigError("outputs", f"must be a list of artifact kinds, got {self.outputs!r}")
        object.__setattr__(self, "outputs", tuple(self.outputs))
        unknown = set(self.outputs) - {"csv", "svg"}
        if unknown:
            raise ConfigError("outputs", f"unknown artifact kinds {sorted(unknown)}")

    @property
    def effective_n_max(self) -> int:
        return self.n + 20 if self.n_max is None else self.n_max

    def params(self) -> ModelParams:
        return ModelParams.from_dimensionless(self.xi, self.epsilon, self.g)

    def tau_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.steps)

    def to_dict(self) -> dict:
        return {
            "frame": self.frame,
            "n": self.n,
            "xi": self.xi,
            "epsilon": self.epsilon,
            "g": self.g,
            "tau_max": self.tau_max,
            "steps": self.steps,
            "n_max": self.n_max,
            "outputs": list(self.outputs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> ExperimentConfig:
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown config field")
        if "frame" not in data:
            raise ConfigError("frame", "required field is missing")
        cleaned = dict(data)
        for name in ("xi", "epsilon", "g", "tau_max"):
            if name in cleaned and type(cleaned[name]) is int:  # bools stay, to be rejected
                cleaned[name] = float(cleaned[name])
        return cls(**cleaned)

    @classmethod
    def from_json(cls, text: str) -> ExperimentConfig:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", "top level must be a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True, eq=False)
class TimeSeriesBundle:
    """Config echo plus the tau grid and the five reported columns."""

    config: ExperimentConfig
    tau: np.ndarray
    series: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        if name not in self.series:
            raise ConfigError("column", f"unknown column {name!r}, expected one of {COLUMNS}")
        return self.series[name]


def run_experiment(config: ExperimentConfig) -> TimeSeriesBundle:
    """Evaluate the closed-form observables of the configured scenario.

    Deterministic: equal configs give byte-identical downstream artifacts.
    """
    params = config.params()
    tau = config.tau_grid()
    obs = analytic.observables(params, config.frame, config.n, tau / config.g)
    series = {}
    for name, values in obs.as_dict().items():
        arr = np.broadcast_to(np.asarray(values, dtype=float), tau.shape).copy()
        if not np.all(np.isfinite(arr)):
            raise NumericConsistencyError(f"column {name} contains non-finite values")
        arr.setflags(write=False)
        series[name] = arr
    tau = tau.copy()
    tau.setflags(write=False)
    return TimeSeriesBundle(config=config, tau=tau, series=series)


def _fmt(value: float) -> str:
    # normalize -0.0 so equal series emit equal bytes
    if value == 0.0:
        value = 0.0
    return format(float(value), ".12g")


def emit_csv(bundle: TimeSeriesBundle, path: str | Path) -> Path:
    """Write the bundle as UTF-8 CSV with LF endings.

    Layout: one comment line echoing the config as JSON, the fixed header,
    then one row per grid point with 12 significant digits.
    """
    path = Path(path)
    lines = [f"# config: {bundle.config.to_json()}", CSV_HEADER]
    columns = [bundle.tau] + [bundle.series[name] for name in COLUMNS]
    for row in zip(*columns):
        lines.append(",".join(_fmt(v) for v in row))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def parse_config_comment(text: str) -> ExperimentConfig:
    """Recover the config echoed into the leading CSV comment."""
    first = text.splitlines()[0] if text else ""
    prefix = "# config: "
    if not first.startswith(prefix):
        raise ConfigError("config", "no config comment found on the first line")
    return ExperimentConfig.from_json(first[len(prefix):])


def read_csv(path: str | Path) -> TimeSeriesBundle:
    """Load a CSV written by emit_csv back into a bundle."""
    text = Path(path).read_text(encoding="utf-8")
    config = parse_config_comment(text)
    lines = text.splitlines()
    if len(lines) < 2 or lines[1] != CSV_HEADER:
        raise ConfigError("config", "missing or unexpected CSV header")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    series = {name: data[:, 1 + i] for i, name in enumerate(COLUMNS)}
    return TimeSeriesBundle(config=config, tau=data[:, 0], series=series)


SVG_WIDTH = 880
SVG_HEIGHT = 540
SVG_MARGIN = (64.0, 16.0, 42.0, 46.0)  # left, right, top, bottom


def _svg_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def emit_svg(bundle: TimeSeriesBundle, column: str, path: str | Path) -> Path:
    """Render one column as a standalone SVG polyline with labelled axes.

    Self-contained (no scripts or external references) and deterministic;
    a constant column renders as a horizontal line centered in the frame.
    """
    values = bundle.column(column)
    tau = bundle.tau
    cfg = bundle.config
    left, right, top, bottom = SVG_MARGIN
    x0, x1 = left, SVG_WIDTH - right
    y0, y1 = top, SVG_HEIGHT - bottom
    t_lo, t_hi = float(tau[0]), float(tau[-1])
    v_lo, v_hi = float(values.min()), float(values.max())
    if v_hi - v_lo < 1e-9:
        pad = max(0.5, abs(v_hi) * 0.1)
        v_lo, v_hi = v_lo - pad, v_hi + pad

    def sx(t: float) -> float:
        return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    def sy(v: float) -> float:
        return y1 - (v - v_lo) / (v_hi - v_lo) * (y1 - y0)

    title = (
        f"{column} vs tau [frame={cfg.frame} n={cfg.n} xi={cfg.xi:.6g} "
        f"eps={cfg.epsilon:.6g} g={cfg.g:.6g}]"
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{x0:.1f}" y1="{y1:.1f}" x2="{x1:.1f}" y2="{y1:.1f}" stroke="#000000"/>',
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="#000000"/>',
    ]
    for t in _svg_ticks(t_lo, t_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{y1:.1f}" x2="{x:.2f}" y2="{y1 + 5:.1f}" stroke="#000000"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{y1 + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{t:.6g}</text>'
        )
    for v in _svg_ticks(v_lo, v_hi):
        y = sy(v)
        parts.append(f'<line x1="{x0 - 5:.1f}" y1="{y:.2f}" x2="{x0:.1f}" y2="{y:.2f}" stroke="#000000"/>')
        parts.append(
            f'<text x="{x0 - 9:.1f}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:.6g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.1f}" y="{SVG_HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">tau</text>'
    )
    parts.append(
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{column}</text>'
    )
    points = " ".join(f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(tau, values))
    parts.append(f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="{points}"/>')
    parts.append("</svg>")
    path = Path(path)
    path.write_bytes(("\n".join(parts) + "\n").encode("utf-8"))
    return path


def reproduce_figures(outdir: str | Path, tau_max: float = 50.0, steps: int = 2000) -> dict:
    """Emit the full figure set as CSV+SVG pairs plus a JSON manifest.

    Four scenarios cover the set: both frames at n = 0 and n = 40, with
    xi = 0 in the rotating frame and xi = 1/1.31 in the counter-rotating
    frame, epsilon = 0.16 throughout. Returns the manifest dict.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    bundles: dict[tuple[str, int], TimeSeriesBundle] = {}
    entries = []
    for name, frame, n, column in FIGURE_SET:
        key = (frame, n)
        if key not in bundles:
            xi = FIGURE_RF_XI if frame == "rf" else FIGURE_CRF_XI
            config = ExperimentConfig(
                frame=frame, n=n, xi=xi, epsilon=FIGURE_EPSILON,
                tau_max=tau_max, steps=steps, outputs=("csv", "svg"),
            )
            bundles[key] = run_experiment(config)
        bundle = bundles[key]
        csv_path = emit_csv(bundle, outdir / f"{name}.csv")
        svg_path = emit_svg(bundle, column, outdir / f"{name}.svg")
        entries.append({
            "name": name,
            "frame": frame,
            "n": n,
            "column": column,
            "xi": bundle.config.xi,
            "epsilon": bundle.config.epsilon,
            # the sources leave the rotating-frame epsilon unstated
            "epsilon_assumed": frame == "rf",
            "csv": csv_path.name,
            "svg": svg_path.name,
        })
    manifest = {"tau_max": tau_max, "steps": steps, "figures": entries}
    (outdir / "manifest.json").write_bytes(
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    return manifest


def beat_modulation_period(tau, values, fast_cutoff: float = 2.0) -> float:
    """Period of the slow envelope of a two-frequency beat signal.

    Squares the demeaned series (which moves the envelope to the difference
    frequency), removes every component at or above fast_cutoff (angular,
    per unit tau) with an FFT mask, and measures the period from the zero
    crossings of the smoothed signal.
    """
    tau = np.asarray(tau, dtype=float)
    values = np.asarray(values, dtype=float)
    if tau.ndim != 1 or tau.shape != values.shape or tau.size < 16:
        raise ValueError("need matching 1-d arrays with at least 16 samples")
    dt = np.diff(tau)
    if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        raise ValueError("tau grid must be uniform")
    y = values - values.mean()
    y = y * y
    spec = np.fft.rfft(y)
    omega = 2.0 * np.pi * np.fft.rfftfreq(y.size, d=float(dt[0]))
    spec[omega >= fast_cutoff] = 0.0
    smooth = np.fft.irfft(spec, n=y.size)
    smooth = smooth - smooth.mean()
    crossings = []
    for i in range(smooth.size - 1):
        if smooth[i] * smooth[i + 1] < 0.0:
            frac = smooth[i] / (smooth[i] - smooth[i + 1])
            crossings.append(tau[i] + frac * (tau[i + 1] - tau[i]))
    if len(crossings) < 3:
        raise ValueError("no beat envelope found below the cutoff")
    # median spacing shrugs off spurious crossings from FFT edge leakage
    return 2.0 * float(np.median(np.diff(crossings)))


@dataclass(frozen=True)
class CheckResult:
    """One verification line: measured value against its bound."""

    name: str
    value: float
    bound: float
    mode: str  # "max<=" or "min>"
    passed: bool
    note: str = ""


@dataclass(eq=False)
class VerifyReport:
    checks: list[CheckResult]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_table(self) -> str:
        width = max(len(c.name) for c in self.checks) + 2
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            rel = "<=" if c.mode == "max<=" else "> "
            note = f"  ({c.note})" if c.note else ""
            lines.append(f"{status}  {c.name:<{width}} {c.value:10.3e} {rel} {c.bound:.1e}{note}")
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"overall: {overall} ({len(self.checks)} checks) in {self.elapsed:.1f} s")
        return "\n".join(lines)


def verify_suite(tol: float | None = None, n_max: int | None = None) -> VerifyReport:
    """Run every module invariant and return the per-check report.

    tol, when given, replaces the default upper bound of every deviation
    check (lower-bound pattern checks keep their thresholds). n_max, when
    given, forces the photon truncation everywhere, including scenarios
    that then no longer fit; those surface as failed checks rather than
    exceptions. A tol that is not a finite number > 0, or an n_max below
    2, raises ConfigError.
    """
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tol", f"must be a finite number > 0, got {tol!r}")
    if n_max is not None and (not isinstance(n_max, (int, np.integer)) or n_max < 2):
        raise ConfigError("n_max", f"must be an integer >= 2, got {n_max!r}")
    start = time.perf_counter()
    checks: list[CheckResult] = []

    def bounded(name: str, value: float, default_bound: float, note: str = "") -> None:
        bound = default_bound if tol is None else tol
        checks.append(CheckResult(name, float(value), bound, "max<=", float(value) <= bound, note))

    def exceeds(name: str, value: float, floor: float) -> None:
        checks.append(CheckResult(name, float(value), floor, "min>", float(value) > floor))

    def failed(name: str, note: str) -> None:
        checks.append(CheckResult(name, float("inf"), 0.0, "max<=", False, note))

    param_sets = {
        "rf-params": ModelParams.from_dimensionless(FIGURE_RF_XI, FIGURE_EPSILON),
        "crf-params": ModelParams.from_dimensionless(FIGURE_CRF_XI, FIGURE_EPSILON),
    }
    nm_alg = 20 if n_max is None else n_max
    space = HilbertSpace(nm_alg)
    keep = max(nm_alg - 2, 0)
    rng = np.random.default_rng(1234567)

    for tag, params in param_sets.items():
        h_rabi = build_rabi(params, space)
        h_rot, h_counter = build_components(params, space)
        h_rf, h_crf = build_effective(params, space)
        n_jc, n_ajc = build_number_ops(space)
        t_jc, t_ajc = build_transition_ops(params, space)

        herm_dev = max(
            float(np.max(np.abs(op.entries - op.entries.conj().T)))
            for op in (h_rabi, h_rot, h_counter, h_rf, h_crf, n_jc, n_ajc, t_jc, t_ajc)
        )
        bounded(f"hermiticity {tag}", herm_dev, 1e-13)
        bounded(
            f"component mean {tag}",
            float(np.max(np.abs(h_rabi.entries - 0.5 * (h_rot.entries + h_counter.entries)))),
            1e-13,
        )
        for label, a, b in (
            ("[n_jc, h_rf]", n_jc, h_rf),
            ("[n_ajc, h_crf]", n_ajc, h_crf),
            ("[n_jc, n_ajc]", n_jc, n_ajc),
            ("[n_jc, h_rot]", n_jc, h_rot),
            ("[n_ajc, h_counter]", n_ajc, h_counter),
        ):
            bounded(f"zero commutator {label} {tag}", interior_commutator_norm(a, b, keep), 1e-13)
        for label, a, b in (
            ("[n_jc, h_crf]", n_jc, h_crf),
            ("[n_ajc, h_rf]", n_ajc, h_rf),
            ("[h_rf, h_crf]", h_rf, h_crf),
            ("[h_rot, h_counter]", h_rot, h_counter),
        ):
            exceeds(f"nonzero commutator {label} {tag}", interior_commutator_norm(a, b, keep), 0.01)

        mask = space.photon_numbers() <= keep
        sq_jc = t_jc.entries @ t_jc.entries - (
            0.25 * params.delta**2 * np.eye(space.dim) + params.g**2 * n_jc.entries
        )
        sq_ajc = t_ajc.entries @ t_ajc.entries - (
            0.25 * params.delta_bar**2 * np.eye(space.dim)
            + params.g**2 * (n_ajc.entries - np.eye(space.dim))
        )
        bounded(f"transition square rotating {tag}", float(np.max(np.abs(sq_jc[np.ix_(mask, mask)]))), 1e-12)
        bounded(f"transition square counter {tag}", float(np.max(np.abs(sq_ajc[np.ix_(mask, mask)]))), 1e-12)

        parity_dev = 0.0
        n_bar_vals = space.photon_numbers() + space.excited_mask().astype(int) + 2 * (~space.excited_mask()).astype(int)
        for k in (1, 2, 3):
            pi_k = build_parity(space, k).entries
            alt = np.diag(np.where((k * n_bar_vals) % 2 == 0, 1.0, -1.0))
            parity_dev = max(parity_dev, float(np.max(np.abs(pi_k - alt))))
            for h in (h_rot.entries, h_counter.entries, h_rabi.entries):
                parity_dev = max(parity_dev, float(np.max(np.abs(pi_k.conj().T @ h @ pi_k - h))))
            if k % 2 == 0:
                parity_dev = max(parity_dev, float(np.max(np.abs(pi_k @ pi_k - np.eye(space.dim)))))
        bounded(f"parity identities {tag}", parity_dev, 1e-12)

        conj_dev = frame_conjugation_check(params, space, rng.uniform(0.0, 30.0, size=20))
        bounded(f"frame conjugation {tag}", conj_dev, 1e-12)

        closure_dev = 0.0
        for nn in range(0, 11):
            for maker, atom in ((analytic.jc_branch, "e"), (analytic.jc_branch, "g"),
                                (analytic.ajc_branch, "e"), (analytic.ajc_branch, "g")):
                if maker is analytic.jc_branch and atom == "g" and nn == 0 and params.xi == 0.0:
                    continue  # degenerate doublet, no dressing pair
                bc = maker(params, atom, nn)
                closure_dev = max(closure_dev, abs(bc.c**2 + bc.s**2 - 1.0))
        bounded(f"dressing closure {tag}", closure_dev, 1e-14)

    tau_grid = np.linspace(0.0, 25.0, 200)
    for frame, spec in analytic.FRAMES.items():
        params = param_sets[f"{frame}-params"]
        grid = tau_grid / params.g
        for n in (0, 1, 5, 40):
            scenario_n_max = (n + 20) if n_max is None else n_max
            label = f"{frame} n={n}"
            try:
                report = compare_scenario(params, frame, n, grid, n_max=scenario_n_max)
            except TruncationError as exc:
                failed(f"scenario {label} state dev", f"truncation too small: {exc}")
                continue
            bounded(f"scenario {label} state dev", report.max_state_dev, 1e-9)
            bounded(f"scenario {label} observable dev", report.worst_obs_dev(), 1e-9)

            raw = report.raw
            bounded(f"conserved {spec.conserved} flat {label}", np.ptp(raw[spec.conserved]), 1e-12)
            exceeds(f"alternate {spec.varying} varies {label}", np.ptp(raw[spec.varying]), 0.01)
            norm_dev = max(abs(psi.norm() - 1.0) for psi in report.states)
            bounded(f"propagation unitarity {label}", norm_dev, 1e-12)

            scen_space = HilbertSpace(scenario_n_max)
            hamiltonian = build_effective(params, scen_space)[spec.hamiltonian]
            psi0 = analytic.initial_state(params, scen_space, frame, n)
            t_probe = 7.3 / params.g
            halves = propagate_series(hamiltonian, propagate_series(hamiltonian, psi0, [t_probe / 2])[0], [t_probe / 2])[0]
            whole = propagate_series(hamiltonian, psi0, [t_probe])[0]
            bounded(f"propagation composition {label}", np.max(np.abs(halves.amps - whole.amps)), 1e-11)

            wide = compare_scenario(params, frame, n, grid, n_max=scenario_n_max + 10)
            drift = max(float(np.max(np.abs(raw[k] - wide.raw[k]))) for k in raw)
            bounded(f"truncation robustness {label}", drift, 1e-10)

    # eigenstate residuals and number eigenvalues across both frames
    for tag, params in param_sets.items():
        nm = (45 + 5) if n_max is None else n_max
        try:
            eig_space = HilbertSpace(nm)
            h_rf, h_crf = build_effective(params, eig_space)
            n_jc, n_ajc = build_number_ops(eig_space)
            residual = 0.0
            for n in (0, 1, 5, 40, 45):
                for sign in (+1, -1):
                    if not (n == 0 and sign == -1):
                        state, energy = analytic.ajc_eigenstate(params, eig_space, n, sign)
                        image = h_crf.entries @ state.amps
                        residual = max(residual, float(np.max(np.abs(image - energy * state.amps))))
                        number = np.vdot(state.amps, n_ajc.entries @ state.amps).real
                        residual = max(residual, abs(number - (n + 1)))
                    if not (n == 0 and sign == +1):
                        state, energy = analytic.jc_eigenstate(params, eig_space, n, sign)
                        image = h_rf.entries @ state.amps
                        residual = max(residual, float(np.max(np.abs(image - energy * state.amps))))
                        number = np.vdot(state.amps, n_jc.entries @ state.amps).real
                        residual = max(residual, abs(number - n))
            bounded(f"eigenstate residuals {tag}", residual, 1e-12)
        except TruncationError as exc:
            failed(f"eigenstate residuals {tag}", f"truncation too small: {exc}")

        # branch-state orthonormality through time
        nm_orth = 10 if n_max is None else n_max
        try:
            orth_space = HilbertSpace(nm_orth)
            orth_dev = 0.0
            for t in rng.uniform(0.0, 40.0, size=50):
                for maker in (analytic.rf_branch_states, analytic.crf_branch_states):
                    top, bot = maker(params, orth_space, 5, float(t))
                    orth_dev = max(orth_dev, abs(top.norm() - 1.0), abs(bot.norm() - 1.0))
                    orth_dev = max(orth_dev, abs(top.overlap(bot)))
            bounded(f"branch orthonormality {tag}", orth_dev, 1e-12)
        except TruncationError as exc:
            failed(f"branch orthonormality {tag}", f"truncation too small: {exc}")

    return VerifyReport(checks=checks, elapsed=time.perf_counter() - start)
