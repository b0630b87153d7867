"""Experiment configuration, deterministic artifact emission, figure-set
reproduction, and the self-verification suite.

Everything here is byte-stable: rerunning an experiment with an equal
config writes identical CSV and SVG bytes.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, fields
from functools import cache, partial
from itertools import chain, product
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericConsistencyError, TruncationError
from .hilbert import HilbertSpace
from .model import ModelParams, _finite, build_components, build_effective, build_number_ops, build_parity, build_rabi, build_transition_ops, frame_conjugation_check
from .oracle import compare_scenario, interior_commutator_norm, interior_projector, propagate_series
from . import analytic, oracle

__all__ = [
    "COLUMNS",
    "CSV_HEADER",
    "ExperimentConfig",
    "TimeSeriesBundle",
    "run_experiment",
    "emit_csv",
    "emit_svg",
    "parse_config_comment",
    "read_csv",
    "reproduce_figures",
    "beat_modulation_period",
    "CheckResult",
    "VerifyReport",
    "verify_suite",
]

COLUMNS = ("s_z", "atomic_excitation", "photon", "n_jc", "n_ajc")
CSV_HEADER = "tau," + ",".join(COLUMNS)

FIGURE_XI = {"rf": 0.0, "crf": 1.0 / 1.31}
FIGURE_EPSILON = 0.16
FIGURE_TAU_MAX = 50.0
FIGURE_STEPS = 2000
BEAT_FAST_CUTOFF = 2.0  # angular, per unit tau: `beat_modulation_period` masks the carrier above it

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
    photon truncation echoed for matrix cross-checks (closed forms never
    truncate); it must reach n + 1, where the evolved support ends. xi,
    epsilon, g and tau_max are stored as Python floats once validated, and
    `ModelParams` judges omega (reported against epsilon) and omega0 (xi);
    the physical horizon tau_max / g must be finite (reported against tau_max).
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
        if not isinstance(self.frame, str) or self.frame not in analytic.FRAMES:
            raise ConfigError("frame", f"must be one of {list(analytic.FRAMES)}, got {self.frame!r}")
        for name in ("n", "steps", "n_max", "xi", "epsilon", "g", "tau_max"):
            value = getattr(self, name)
            if not _finite(value) and not (name == "n_max" and value is None):
                raise ConfigError(name, f"must be a finite number, got {value!r}")
        for name, least in (("n", 0), ("steps", 2), ("n_max", self.n + 1)):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= least) and not (name == "n_max" and value is None):
                raise ConfigError(name, f"must be an integer >= {least}, got {value!r}")
        for name in ("xi", "epsilon", "g", "tau_max"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.g <= 0:  # first, so that omega = epsilon*g does not charge a bad g to epsilon
            raise ConfigError("g", f"must be > 0, got {self.g!r}")
        try:
            self.params()
        except ValueError as exc:
            raise ConfigError("xi" if str(exc).startswith("omega0") else "epsilon", f"derived {exc}") from exc
        if self.tau_max <= 0:
            raise ConfigError("tau_max", f"must be > 0, got {self.tau_max!r}")
        if not math.isfinite(self.tau_max / self.g):  # the physical horizon run_experiment evolves to
            raise ConfigError("tau_max", f"over g must be finite, got {self.tau_max!r} / {self.g!r}")
        if not isinstance(self.outputs, (list, tuple)) or not all(isinstance(k, str) for k in self.outputs):
            raise ConfigError("outputs", f"must be a list of artifact kinds, got {self.outputs!r}")
        object.__setattr__(self, "outputs", tuple(self.outputs))
        unknown = set(self.outputs) - {"csv", "svg"}
        if unknown:
            raise ConfigError("outputs", f"unknown artifact kinds {sorted(unknown)}")

    def params(self) -> ModelParams:
        return ModelParams.from_dimensionless(self.xi, self.epsilon, self.g)

    def tau_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.steps)

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["outputs"] = list(self.outputs)
        return data

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
        return cls(**data)

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
    series = obs.as_dict()  # on a 1-d grid, fresh arrays of its shape
    for name, arr in series.items():
        if not np.all(np.isfinite(arr)):
            raise NumericConsistencyError(f"column {name} contains non-finite values")
        arr.setflags(write=False)
    tau.setflags(write=False)
    return TimeSeriesBundle(config=config, tau=tau, series=series)


# CSV rows or SVG points formatted together while streaming. Fewer, larger
# blocks fragment the malloc heap less: a process emitting 200 runs of
# 20k-200k rows (glibc, 2 cores) grew its peak RSS by 7-19 MB with
# 4096-row blocks and by 3-7 MB with these
CSV_BLOCK_ROWS = 16384
_COPY_CHUNK = 1 << 16  # characters read per chunk when one CSV's bytes are copied to another file
# 100*v < 1e5 is rounded once, by at most 2**-53 * 1e5 ~ 1.1e-11, so a product
# whose fraction lies this far from 1/2 rounds to the same cents as the exact one
_TIE_MARGIN = 1e-9
_POW10 = np.array([float(10**k) for k in range(16)])  # exact in float64
# a CSV cell, one row per character: the sign, then "0.000" of which the characters print
# where e is below _LEAD_ROWS, then 12 digits with a point row after each but the last
_CELL_ROWS = 29
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_LEAD_ROWS = np.array([[0], [0], [-1], [-2], [-3]], dtype=np.int8)
_PLACES = np.arange(12, dtype=np.int8)[:, None]  # each digit row's place; a point row follows each of the first 11
_COMPACT_ROWS = 4096  # per bytes.translate, which allocates its input's size: whole blocks raised the peak memory


def _blocks(length: int):  # consecutive slices of at most CSV_BLOCK_ROWS rows or points
    return (slice(start, start + CSV_BLOCK_ROWS) for start in range(0, length, CSV_BLOCK_ROWS))


def _digits(x: np.ndarray, rows: np.ndarray) -> None:
    """Write x % 10**len(rows), x uint32, as ASCII digits into the uint8 rows (strided views too), most significant first."""
    for row in rows[::-1]:
        rest = x // 10
        np.add(x - rest * 10, ord("0"), out=row, casting="unsafe")
        x = rest


def _cells(values: np.ndarray, text: np.ndarray) -> None:
    """Write `"%.12g" % (v + 0.0)` of each value into its column of the (_CELL_ROWS, n) uint8 text, NUL where it prints nothing.

    For 1e-4 <= |v| < 1e12, e = floor(log10|v|) in [-4, 11] makes m = |v| * 10**(11 - e)
    one rounding (<= 2**-53 * 1e12 ~ 1.1e-4) from exact, so where q = rint(m) has 12 digits
    and m lies 1e-3 or more from a tie, q is the significand `%` prints in fixed notation
    (`_digits` writes each 6-digit half), trailing zeros and a bare point stripped. `%`
    formats every other value (0, a smaller or larger magnitude, a misjudged e, a near tie) alone.
    """
    a = np.abs(values)
    fast = (a >= 1e-4) & (a < 1e12)  # False for nan
    a = np.where(fast, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 11).astype(np.int8)
    m = a * _POW10[11 - e]
    q = np.rint(m)
    fast &= (q >= 1e11) & (q < 1e12) & (np.abs(m - q) <= 0.5 - 1e-3)
    high = np.floor(q / 1e6)
    _digits(high.astype(np.uint32), text[6:18:2])
    _digits((q - high * 1e6).astype(np.uint32), text[18::2])
    zeros, last = np.ones(len(values), dtype=bool), np.full(len(values), 11, dtype=np.int8)  # last: the last nonzero digit
    for row in text[28:5:-2]:
        zeros &= row == ord("0")
        last -= zeros
    np.maximum(last, e, out=last)  # digits up to the units are kept
    text[6::2] *= (_PLACES <= last).view(np.uint8)
    np.multiply((_PLACES[:11] == np.where(last > e, e, -1)).view(np.uint8), ord("."), out=text[7::2])
    np.multiply((values < 0).view(np.uint8), ord("-"), out=text[0])
    np.multiply((e < _LEAD_ROWS).view(np.uint8), _LEAD, out=text[1:6])
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = "".join([("%.12g" % v).ljust(_CELL_ROWS, "\0") for v in (values[slow] + 0.0).tolist()])
        text[:, slow] = np.frombuffer(cells.encode("ascii"), dtype=np.uint8).reshape(-1, _CELL_ROWS).T


def _svg_points(values: np.ndarray) -> str:
    """`" ".join(["%.2f,%.2f"] * n) % tuple(values)` for float64 values x0, y0, x1, y1, ...

    Values in [10, 999.99) (so none rounds up to 1000.00) with no fraction
    of 100*v within _TIE_MARGIN of 1/2 take their units and cents from
    `_digits`; a block holding any other value goes through `%` unchanged.
    """
    fast = 10.0 <= values.min() and values.max() < 999.99  # False for nan and inf
    if fast:
        scaled = values * 100.0
        whole = np.floor(scaled)
        frac = scaled - whole
        fast = not np.any(np.abs(frac - 0.5) < _TIE_MARGIN)
    if not fast:
        return " ".join(["%.2f,%.2f"] * (len(values) // 2)) % tuple(values.tolist())
    cents = (whole + (frac > 0.5)).astype(np.uint32)
    text = np.empty((len(values), 7), dtype=np.uint8)  # "ddd.dd" and a separator per value
    _digits(cents // 100, text.T[0:3])
    text[:, 3] = ord(".")
    _digits(cents, text.T[4:6])
    text[0::2, 6] = ord(",")
    text[1::2, 6] = ord(" ")
    keep = np.ones(text.shape, dtype=bool)
    keep[:, 0] = cents >= 10000  # the pad "0" of dd.dd
    keep[-1, 6] = False
    return text[keep].tobytes().decode("ascii")  # not column-major translate, 2x faster: evolve-long peak RSS rose 62 -> 63-67 MB


def _write_text(path: str | Path, chunks) -> Path:
    """Write text chunks as UTF-8 with LF endings; a failed write or flush removes the file, a failed open deletes nothing."""
    path = Path(path)
    handle = path.open("w", encoding="utf-8", newline="\n")
    try:
        with handle:  # closing flushes, so it may fail too
            for chunk in chunks:
                handle.write(chunk)
                del chunk  # else the generator forms the next chunk while this one is still alive
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def emit_csv(bundle: TimeSeriesBundle, path: str | Path) -> Path:
    """Write the bundle as UTF-8 CSV with LF endings.

    Layout: one comment line echoing the config as JSON, the fixed header,
    then one row per grid point with 12 significant digits. Every cell
    holds the bytes of CPython's `"%.12g" % (value + 0.0)` (the `+ 0.0`
    prints -0.0 as 0). A column whose values all compare equal is
    converted once into the row template; the others take their digits
    from numpy (`_cells`) where 1e-4 <= |value| < 1e12 and the 12-digit
    rounding is not within 1e-3 of a tie, and from `%`, one value at a
    time, elsewhere. Rows are streamed, one write per CSV_BLOCK_ROWS
    rows; a failed write leaves no file.
    """
    columns = [np.asarray(col, dtype=float) for col in [bundle.tau] + [bundle.series[name] for name in COLUMNS]]
    template, varying = bytearray(), []
    for col in columns:
        if col.size > 0 and bool(np.all(col == col[0])):
            template += b"%.12g," % (col[0] + 0.0)
        else:
            varying.append((col, len(template)))
            template += bytes(_CELL_ROWS) + b","
    template[-1:] = b"\n"

    def rows():  # 64 spare columns: a row stride of 16384 bytes made the transposing copy 8x slower
        buffer = np.repeat(np.frombuffer(template, dtype=np.uint8)[:, None], min(len(columns[0]), CSV_BLOCK_ROWS) + 64, axis=1)
        for block in _blocks(len(columns[0])):
            text = buffer[:, :len(columns[0][block])]
            for col, row in varying:
                _cells(col[block], text[row:row + _CELL_ROWS])
            yield "".join([text[:, start:start + _COMPACT_ROWS].T.tobytes().translate(None, b"\0").decode("ascii")
                           for start in range(0, text.shape[1], _COMPACT_ROWS)])  # row-major, NULs dropped: 2.6x faster than a mask

    header = f"# config: {bundle.config.to_json()}\n{CSV_HEADER}\n"
    return _write_text(path, chain([header], rows()))


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
    width = len(COLUMNS) + 1
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != width:
            raise ConfigError("config", f"line {number}: expected {width} comma-separated values, found {len(cells)}")
        try:
            rows.append([float(x) for x in cells])
        except ValueError:
            raise ConfigError("config", f"line {number}: non-numeric value in {line!r}") from None
    if len(rows) < config.steps:
        raise ConfigError(
            "config", f"line {len(lines) + 1}: file ends after {len(rows)} data rows, config echoes steps={config.steps}"
        )
    if len(rows) > config.steps:
        raise ConfigError(
            "config", f"line {config.steps + 3}: data row {config.steps + 1} is past config steps={config.steps}"
        )
    data = np.array(rows)
    series = {name: data[:, 1 + i] for i, name in enumerate(COLUMNS)}
    return TimeSeriesBundle(config=config, tau=data[:, 0], series=series)


SVG_WIDTH = 880
SVG_HEIGHT = 540
SVG_MARGIN = (64.0, 16.0, 42.0, 46.0)  # left, right, top, bottom


def _svg_ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 5 for i in range(6)]


def emit_svg(bundle: TimeSeriesBundle, column: str, path: str | Path) -> Path:
    """Render one column as a standalone SVG polyline with labelled axes.

    Self-contained (no scripts or external references) and deterministic;
    a constant column renders as a horizontal line centered in the frame.
    Axis labels and ticks go through f-strings. The polyline points
    stream in blocks of CSV_BLOCK_ROWS, each formatted as `%.2f` by numpy
    (`_svg_points`) unless a value in it lies outside the plot range or
    too close to a rounding tie, in which case CPython's `%` formats the
    block. A failed write leaves no file.
    """
    values = np.asarray(bundle.column(column), dtype=float)
    tau = np.asarray(bundle.tau, dtype=float)
    cfg = bundle.config
    left, right, top, bottom = SVG_MARGIN
    x0, x1 = left, SVG_WIDTH - right
    y0, y1 = top, SVG_HEIGHT - bottom
    t_lo, t_hi = float(tau[0]), float(tau[-1])
    v_lo, v_hi = float(values.min()), float(values.max())
    if v_hi - v_lo < 1e-9:
        pad = max(0.5, abs(v_hi) * 0.1)
        v_lo, v_hi = v_lo - pad, v_hi + pad

    def sx(t):  # a float for the ticks, a block of tau for the points
        return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    def sy(v):
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
    parts.append('<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="')

    def points():
        for k, block in enumerate(_blocks(len(tau))):
            xy = np.empty(2 * len(tau[block]))
            xy[0::2] = sx(tau[block])  # sx/sy on arrays do the scalar IEEE operations in the same order
            xy[1::2] = sy(values[block])
            yield (" " if k else "") + _svg_points(xy)

    return _write_text(path, chain(["\n".join(parts)], points(), ['"/>\n</svg>\n']))


def reproduce_figures(outdir: str | Path) -> dict:
    """Emit the full figure set as CSV+SVG pairs plus a JSON manifest.

    Four scenarios cover the set: both frames at n = 0 and n = 40, with
    xi = 0 in the rotating frame and xi = 1/1.31 in the counter-rotating
    frame, epsilon = 0.16 throughout, FIGURE_STEPS samples over
    0 <= tau <= FIGURE_TAU_MAX. Returns the manifest dict.

    Panels of one scenario share its CSV: the first panel formats it, the
    others copy those bytes.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    formatted: dict[tuple[str, int], tuple[TimeSeriesBundle, Path]] = {}
    entries = []
    for name, frame, n, column in FIGURE_SET:
        key = (frame, n)
        csv_path = outdir / f"{name}.csv"
        if key in formatted:
            bundle, source = formatted[key]
            with source.open(encoding="utf-8", newline="") as handle:
                _write_text(csv_path, iter(partial(handle.read, _COPY_CHUNK), ""))
        else:
            bundle = run_experiment(ExperimentConfig(
                frame=frame, n=n, xi=FIGURE_XI[frame], epsilon=FIGURE_EPSILON,
                tau_max=FIGURE_TAU_MAX, steps=FIGURE_STEPS, outputs=("csv", "svg"),
            ))
            formatted[key] = bundle, emit_csv(bundle, csv_path)
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
    manifest = {"tau_max": FIGURE_TAU_MAX, "steps": FIGURE_STEPS, "figures": entries}
    _write_text(outdir / "manifest.json", [json.dumps(manifest, indent=2, sort_keys=True) + "\n"])
    return manifest


def beat_modulation_period(tau, values) -> float:
    """Period of the slow envelope of a two-frequency beat signal.

    Squares the demeaned series (which moves the envelope to the difference
    frequency), removes every component at or above BEAT_FAST_CUTOFF with
    an FFT mask, and measures the period from the zero crossings of the
    smoothed signal.
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
    spec[omega >= BEAT_FAST_CUTOFF] = 0.0
    smooth = np.fft.irfft(spec, n=y.size)
    smooth = smooth - smooth.mean()
    i = np.flatnonzero(smooth[:-1] * smooth[1:] < 0.0)
    frac = smooth[i] / (smooth[i] - smooth[i + 1])
    crossings = tau[i] + frac * (tau[i + 1] - tau[i])
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


def _parity_deviation(space: HilbertSpace, hamiltonians) -> float:
    """Worst entry of Pi_k - (-1)^(k n_bar), Pi_k^dag H Pi_k - H and, for even k, Pi_k^2 - 1, over k = 1, 2, 3.

    The first deviation compares every entry of Pi_k with the expected diagonal, so a stray entry off it
    fails; Pi_k^dag H Pi_k is then formed from the diagonal signs alone, s_i H_ij s_j, which for signs of
    exactly +-1 is the dense matrix product's float."""
    n_bar = space.photon_numbers() + np.where(space.excited_mask(), 1, 2)
    devs = []
    for k in (1, 2, 3):
        pi_k = build_parity(space, k).entries
        signs = np.diagonal(pi_k)
        devs += [pi_k - np.diag(np.where((k * n_bar) % 2 == 0, 1.0, -1.0))] + [signs[:, None] * h * signs - h for h in hamiltonians]
        if k % 2 == 0:
            devs.append(pi_k @ pi_k - np.eye(space.dim))
    return max(float(np.max(np.abs(dev))) for dev in devs)


def _algebra_checks(param_sets, n_max, rng):
    """Operator identities of each parameter set, at n_max = 20 unless forced."""
    nm = 20 if n_max is None else n_max
    space = HilbertSpace(nm)
    keep, eye = max(nm - 2, 0), np.eye(space.dim)
    mask = interior_projector(space, keep)
    interior = np.ix_(mask, mask)

    def floor(a, b):  # the nonzero commutators vanish on the photon-0 block alone
        if keep < 1:
            raise TruncationError(f"nonzero commutators need photon 1 inside the interior block, n_max >= 3, got {nm}")
        return interior_commutator_norm(a, b, keep)

    for tag, params in param_sets.items():
        h_rabi = build_rabi(params, space)
        h_rot, h_counter = build_components(params, space)
        h_rf, h_crf = build_effective(params, space)
        n_jc, n_ajc = build_number_ops(space)
        t_jc, t_ajc = build_transition_ops(params, space)
        yield f"hermiticity {tag}", "max<=", 1e-13, lambda: max(
            np.max(np.abs(op.entries - op.entries.conj().T))
            for op in (h_rabi, h_rot, h_counter, h_rf, h_crf, n_jc, n_ajc, t_jc, t_ajc)
        )
        yield f"component mean {tag}", "max<=", 1e-13, lambda: np.max(
            np.abs(h_rabi.entries - 0.5 * (h_rot.entries + h_counter.entries))
        )
        for label, a, b in (("[n_jc, h_rf]", n_jc, h_rf), ("[n_ajc, h_crf]", n_ajc, h_crf), ("[n_jc, n_ajc]", n_jc, n_ajc),
                            ("[n_jc, h_rot]", n_jc, h_rot), ("[n_ajc, h_counter]", n_ajc, h_counter)):
            yield f"zero commutator {label} {tag}", "max<=", 1e-13, lambda: interior_commutator_norm(a, b, keep)
        for label, a, b in (("[n_jc, h_crf]", n_jc, h_crf), ("[n_ajc, h_rf]", n_ajc, h_rf), ("[h_rf, h_crf]", h_rf, h_crf),
                            ("[h_rot, h_counter]", h_rot, h_counter)):
            yield f"nonzero commutator {label} {tag}", "min>", 0.01, lambda: floor(a, b)
        for label, t_op, square in (
            ("rotating", t_jc, 0.25 * params.delta**2 * eye + params.g**2 * n_jc.entries),
            ("counter", t_ajc, 0.25 * params.delta_bar**2 * eye + params.g**2 * (n_ajc.entries - eye)),
        ):
            yield f"transition square {label} {tag}", "max<=", 1e-12, lambda: np.max(
                np.abs((t_op.entries @ t_op.entries - square)[interior])
            )
        hamiltonians = (h_rot.entries, h_counter.entries, h_rabi.entries)
        yield f"parity identities {tag}", "max<=", 1e-12, lambda: _parity_deviation(space, hamiltonians)
        yield f"frame conjugation {tag}", "max<=", 1e-12, lambda: frame_conjugation_check(
            params, space, rng.uniform(0.0, 30.0, size=20)
        )
        doublets = (spec.doublet(params, atom, nn) for nn in range(11) for spec in analytic.FRAMES.values() for atom in ("e", "g"))
        yield f"dressing closure {tag}", "max<=", 1e-14, lambda: max(  # a degenerate doublet has no dressing pair
            abs(c**2 + s**2 - 1.0) for rabi, c, s in doublets if rabi != 0.0
        )


def _scenario_checks(param_sets, n_max):
    """Seven checks on each of the 8 scenarios the oracle compares."""
    tau_grid = np.linspace(0.0, 25.0, 200)
    for frame, spec in analytic.FRAMES.items():
        params = param_sets[f"{frame}-params"]
        grid = tau_grid / params.g
        for n in (0, 1, 5, 40):
            label = f"{frame} n={n}"

            @cache
            def setup():
                report = compare_scenario(params, frame, n, grid, n_max=n_max)
                hamiltonian, psi0 = report.hamiltonian, report.initial
                t_probe = 7.3 / params.g
                half, whole = propagate_series(hamiltonian, psi0, [t_probe / 2, t_probe])
                halves = propagate_series(hamiltonian, half, [t_probe / 2])[0]
                wide = HilbertSpace(report.n_max + 10)  # the widened twin: only its observables are compared
                wide_raw = oracle._observe(params, frame, analytic.initial_state(params, wide, frame, n), grid)[2]
                return report, halves, whole, wide_raw

            for name, mode, bound, value in (
                (f"scenario {label} state dev", "max<=", oracle.STATE_TOL, lambda r, *_: r.max_state_dev),
                (f"scenario {label} observable dev", "max<=", oracle.OBS_TOL, lambda r, *_: r.worst_obs_dev()),
                (f"conserved {spec.conserved} flat {label}", "max<=", 1e-12, lambda r, *_: np.ptp(r.raw[spec.conserved])),
                (f"alternate {spec.varying} varies {label}", "min>", 0.01, lambda r, *_: np.ptp(r.raw[spec.varying])),
                (f"propagation unitarity {label}", "max<=", 1e-12,
                 lambda r, *_: np.max(np.abs(np.linalg.norm(r.amps, axis=1) - 1.0))),
                (f"propagation composition {label}", "max<=", 1e-11,
                 lambda r, halves, whole, wide: np.max(np.abs(halves.amps - whole.amps))),
                (f"truncation robustness {label}", "max<=", 1e-10,
                 lambda r, halves, whole, wide: max(float(np.max(np.abs(r.raw[k] - wide[k]))) for k in r.raw)),
            ):
                yield name, mode, bound, lambda: value(*setup())


def _eigenstate_checks(param_sets, n_max, rng):
    """Eigenstate residuals, then branch orthonormality through time, of each parameter set."""
    for tag, params in param_sets.items():
        # the initial eigenstates of each frame (rf: `ajc_eigenstate`, crf: `jc_eigenstate`)
        # diagonalise the other frame's Hamiltonian and the frame's `varying` number
        def residual():
            eig_space = HilbertSpace(50 if n_max is None else n_max)
            effective = build_effective(params, eig_space)
            numbers = dict(zip(("n_jc", "n_ajc"), build_number_ops(eig_space)))
            devs = []
            for spec, eigenstate in zip(analytic.FRAMES.values(), (analytic.ajc_eigenstate, analytic.jc_eigenstate)):
                # cast once per frame: a real matrix times a complex state is cast to complex on every product
                hamiltonian = effective[1 - spec.hamiltonian].entries.astype(complex)
                number_op = numbers[spec.varying].entries.astype(complex)
                for n, sign in product((0, 1, 5, 40, 45), (+1, -1)):
                    if n > 0 or sign == spec.sign:  # skip the null branch at n = 0
                        state, energy = eigenstate(params, eig_space, n, sign)
                        devs += [float(np.max(np.abs(hamiltonian @ state.amps - energy * state.amps))),
                                 abs(np.vdot(state.amps, number_op @ state.amps).real - spec.initial_number(n))]
            return max(devs)

        def orthonormality():
            orth_space = HilbertSpace(10 if n_max is None else n_max)
            times = rng.uniform(0.0, 40.0, size=50)
            devs = []
            for frame in analytic.FRAMES:
                top, bot = analytic._branch_series(params, orth_space, frame, 5, times)
                devs += [np.max(np.abs(np.linalg.norm(np.concatenate((top, bot)), axis=1) - 1.0)),
                         np.max(np.abs(np.einsum("ti,ti->t", top.conj(), bot)))]
            return max(devs)

        yield f"eigenstate residuals {tag}", "max<=", 1e-12, residual
        yield f"branch orthonormality {tag}", "max<=", 1e-12, orthonormality


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where `os.sysconf` does not report them."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return math.inf
    return memory if memory > 0 else math.inf


def verify_suite(tol: float | None = None, n_max: int | None = None) -> VerifyReport:
    """Run every module invariant and return the per-check report.

    The checks are one stream of (name, mode, bound, thunk), in a fixed
    order: the algebra identities of each parameter set, the 7 checks of
    each of the 8 compared scenarios, then the eigenstate residuals and
    branch orthonormality of each parameter set. Each thunk runs once, as
    it is yielded, so the random times are drawn in stream order.

    tol, when given, replaces the bound of every "max<=" check; the "min>"
    pattern checks keep their floors. n_max, when given, forces the photon
    truncation everywhere, including scenarios that then no longer fit. A
    check whose thunk raises TruncationError reads (inf, 0.0, "max<=") and
    fails with the note "truncation too small: ...", so a scenario that
    does not fit fails all 7 of its checks with one note. A tol that is not
    a finite real > 0, an n_max below 2, or an n_max whose d x d operator
    (d = 2 * (n_max + 1)) cannot be indexed or whose peak, 256 d^2 bytes
    (32 real operators), exceeds physical memory raises ConfigError before
    anything is built. The memory rule is skipped where `os.sysconf` does not report it.
    """
    if tol is not None and not (_finite(tol) and tol > 0):
        raise ConfigError("tol", f"must be a finite number > 0, got {tol!r}")
    if n_max is not None and (not isinstance(n_max, (int, np.integer)) or not _finite(n_max) or n_max < 2):
        raise ConfigError("n_max", f"must be an integer >= 2, got {n_max!r}")
    if n_max is not None and (square := (2 * (int(n_max) + 1)) ** 2) > np.iinfo(np.intp).max:
        raise ConfigError("n_max", f"gives a dense dimension 2 * (n_max + 1) too large to index its square, got {n_max!r}")
    # the suite's peak with headroom: its tracemalloc peak is 28.6 real d x d operators at n_max = 100, 26.1 at 200 and 26.2 at 400
    if n_max is not None and (peak := 256 * square) > (memory := _physical_memory()):
        raise ConfigError("n_max", f"needs about {peak:.3g} bytes at the suite's peak of 32 real d x d operators, "
                                   f"more than the {memory:.3g} bytes of physical memory, got {n_max!r}")
    start = time.perf_counter()
    param_sets = {f"{frame}-params": ModelParams.from_dimensionless(xi, FIGURE_EPSILON) for frame, xi in FIGURE_XI.items()}
    rng = np.random.default_rng(1234567)
    checks: list[CheckResult] = []
    for name, mode, bound, thunk in chain(
        _algebra_checks(param_sets, n_max, rng), _scenario_checks(param_sets, n_max), _eigenstate_checks(param_sets, n_max, rng)
    ):
        try:
            value = float(thunk())
        except TruncationError as exc:
            checks.append(CheckResult(name, math.inf, 0.0, "max<=", False, f"truncation too small: {exc}"))
            continue
        bound = tol if mode == "max<=" and tol is not None else bound
        checks.append(CheckResult(name, value, bound, mode, value <= bound if mode == "max<=" else value > bound))
    return VerifyReport(checks=checks, elapsed=time.perf_counter() - start)
