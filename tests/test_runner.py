"""Experiment configs, artifact emission, figure set, beat measurement, verify."""

import json
import math
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrmframes import (
    COLUMNS,
    ConfigError,
    ExperimentConfig,
    HilbertSpace,
    ModelParams,
    beat_modulation_period,
    emit_csv,
    emit_svg,
    observables,
    parse_config_comment,
    read_csv,
    reproduce_figures,
    run_experiment,
    verify_suite,
)
from qrmframes import cli, model, oracle, runner
from qrmframes.runner import BEAT_FAST_CUTOFF, CSV_BLOCK_ROWS, CSV_HEADER, SVG_HEIGHT, SVG_MARGIN, SVG_WIDTH, TimeSeriesBundle


class TestExperimentConfig:
    def test_defaults_and_grid(self):
        cfg = ExperimentConfig(frame="rf")
        assert cfg.n == 0
        grid = cfg.tau_grid()
        assert grid.shape == (2000,)
        assert grid[0] == 0.0
        assert grid[-1] == 50.0
        spacing = np.diff(grid)
        assert_allclose(spacing, spacing[0], rtol=1e-12)

    def test_params_derivation(self):
        cfg = ExperimentConfig(frame="crf", xi=1.0 / 1.31, epsilon=0.16, g=2.0)
        p = cfg.params()
        assert p.omega == pytest.approx(0.32)
        assert p.delta == pytest.approx(4.0 / 1.31)
        assert p.omega0 == pytest.approx(p.delta + p.omega, rel=1e-15)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("frame", {"frame": "lab"}),
            ("n", {"frame": "rf", "n": -1}),
            ("n", {"frame": "rf", "n": 1.5}),
            ("xi", {"frame": "rf", "xi": float("nan")}),
            ("xi", {"frame": "rf", "xi": -1.0, "epsilon": 0.5}),
            ("epsilon", {"frame": "rf", "epsilon": 0.0}),
            ("g", {"frame": "rf", "g": -1.0}),
            ("tau_max", {"frame": "rf", "tau_max": 0.0}),
            ("steps", {"frame": "rf", "steps": 1}),
            ("n_max", {"frame": "rf", "n": 5, "n_max": 5}),
            ("outputs", {"frame": "rf", "outputs": ("csv", "png")}),
            ("frame", {"frame": ["rf"]}),  # unhashable, as from a JSON config
        ],
    )
    def test_validation_names_the_field(self, field, kwargs):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**kwargs)
        assert err.value.field == field

    def test_json_round_trip(self):
        cfg = ExperimentConfig(frame="crf", n=3, xi=0.25, epsilon=0.5,
                               tau_max=12.0, steps=101, outputs=("csv", "svg"))
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_json_keys_are_sorted(self):
        text = ExperimentConfig(frame="rf").to_json()
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_to_dict_lists_every_field_in_order(self):
        cfg = ExperimentConfig(frame="crf", n=3, xi=0.25, steps=101, n_max=9, outputs=("csv", "svg"))
        assert cfg.to_dict() == {
            "frame": "crf", "n": 3, "xi": 0.25, "epsilon": 0.16, "g": 1.0,
            "tau_max": 50.0, "steps": 101, "n_max": 9, "outputs": ["csv", "svg"],
        }
        assert list(cfg.to_dict()) == ["frame", "n", "xi", "epsilon", "g", "tau_max", "steps", "n_max", "outputs"]
        assert ExperimentConfig(frame="rf").to_json() == (
            '{"epsilon": 0.16, "frame": "rf", "g": 1.0, "n": 0, "n_max": null, '
            '"outputs": ["csv"], "steps": 2000, "tau_max": 50.0, "xi": 0.0}'
        )

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"frame": "rf", "color": "red"})
        assert err.value.field == "color"

    def test_from_dict_requires_frame(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"n": 3})

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("[1, 2]")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    @pytest.mark.parametrize(
        "field,value",
        [("n", True), ("steps", True), ("n_max", True), ("xi", True),
         ("epsilon", True), ("g", True), ("tau_max", True), ("xi", False)],
    )
    def test_booleans_are_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(frame="rf", **{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize("value", [np.int64(2), np.float32(2.0), 2])
    def test_numeric_fields_are_stored_as_python_floats(self, value):
        cfg = ExperimentConfig(frame="crf", n=1, xi=value, epsilon=value, g=value, tau_max=value, steps=3)
        assert all(type(getattr(cfg, name)) is float for name in ("xi", "epsilon", "g", "tau_max"))
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg
        assert run_experiment(cfg).series["n_ajc"].shape == (3,)

    def test_booleans_summed_to_an_integer_are_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(frame="rf", n=True, xi=True, epsilon=True, steps=True + True)
        assert err.value.field == "n"

    @pytest.mark.parametrize("field", ["n", "steps", "n_max", "xi", "epsilon", "g", "tau_max"])
    def test_json_booleans_are_rejected_by_name(self, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(json.dumps({"frame": "rf", field: True}))
        assert err.value.field == field

    @pytest.mark.parametrize("field", ["n", "steps", "n_max", "xi", "epsilon", "g", "tau_max"])
    def test_an_int_past_the_float_range_is_rejected_by_name(self, field):
        with pytest.raises(ConfigError, match="must be a finite number") as err:
            ExperimentConfig(frame="rf", **{field: 10**400})
        assert err.value.field == field

    def test_an_overflowing_physical_horizon_is_rejected_as_tau_max(self):
        with pytest.raises(ConfigError, match="over g must be finite") as err:
            ExperimentConfig(frame="rf", tau_max=1e308, g=1e-10, steps=3)
        assert err.value.field == "tau_max"
        assert ExperimentConfig(frame="rf", tau_max=1e308, g=1.0, steps=3).tau_max == 1e308

    def test_from_dict_coerces_integer_floats(self):
        cfg = ExperimentConfig.from_dict({"frame": "rf", "xi": 1, "tau_max": 10})
        assert isinstance(cfg.xi, float)
        assert isinstance(cfg.tau_max, float)


class TestRunExperiment:
    def test_columns_and_lengths(self):
        cfg = ExperimentConfig(frame="rf", steps=50, tau_max=5.0)
        bundle = run_experiment(cfg)
        assert set(bundle.series) == set(COLUMNS)
        for name in COLUMNS:
            column = bundle.column(name)
            assert column.shape == bundle.tau.shape == (50,)
            assert np.all(np.isfinite(column))

    def test_conserved_number_columns(self):
        rf = run_experiment(ExperimentConfig(frame="rf", tau_max=2.0 * np.pi, steps=5))
        assert list(rf.column("n_jc")) == [1.0] * 5
        crf = run_experiment(ExperimentConfig(frame="crf", xi=1.0 / 1.31, steps=64))
        assert np.all(crf.column("n_ajc") == 2.0)

    def test_deterministic_series(self):
        cfg = ExperimentConfig(frame="crf", n=2, xi=0.3, steps=120)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for name in COLUMNS:
            assert np.array_equal(a.column(name), b.column(name))

    def test_unknown_column_rejected(self):
        bundle = run_experiment(ExperimentConfig(frame="rf", steps=4, tau_max=1.0))
        with pytest.raises(ConfigError):
            bundle.column("voltage")

    def test_arrays_are_read_only_and_share_no_memory(self):
        bundle = run_experiment(ExperimentConfig(frame="crf", n=40, steps=50))
        arrays = [bundle.tau] + [bundle.column(name) for name in COLUMNS]
        assert not any(arr.flags.writeable for arr in arrays)
        assert not any(np.shares_memory(a, b) for a, b in combinations(arrays, 2))

    @pytest.mark.parametrize("frame", ["rf", "crf"])
    def test_peak_memory_keeps_the_closed_form_columns(self, frame):
        steps = 200_000
        config = ExperimentConfig(frame=frame, n=40, steps=steps)
        tracemalloc.start()
        try:
            run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * steps * 8  # the six kept columns and the closed form's temporaries; a copy per column is 12


class TestCsv:
    def test_line_count_and_header(self, tmp_path):
        cfg = ExperimentConfig(frame="rf", tau_max=1.0, steps=5)
        path = emit_csv(run_experiment(cfg), tmp_path / "out.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 5 + 2  # config comment + header + rows
        assert lines[0].startswith("# config: ")
        assert lines[1] == CSV_HEADER
        assert CSV_HEADER == "tau,s_z,atomic_excitation,photon,n_jc,n_ajc"

    def test_initial_row_of_rf_ground(self, tmp_path):
        cfg = ExperimentConfig(frame="rf", tau_max=1.0, steps=3)
        path = emit_csv(run_experiment(cfg), tmp_path / "out.csv")
        first_row = path.read_text(encoding="utf-8").splitlines()[2]
        assert first_row == "0,0.5,1,0,1,1"

    def test_lf_endings_and_no_trailing_separator(self, tmp_path):
        cfg = ExperimentConfig(frame="crf", xi=0.5, tau_max=1.0, steps=4)
        raw = emit_csv(run_experiment(cfg), tmp_path / "out.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        for line in raw.decode("utf-8").splitlines()[1:]:
            assert not line.endswith(",")
            assert len(line.split(",")) == 6

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(frame="crf", n=1, xi=0.2, tau_max=8.0, steps=200)
        first = emit_csv(run_experiment(cfg), tmp_path / "a.csv").read_bytes()
        second = emit_csv(run_experiment(cfg), tmp_path / "b.csv").read_bytes()
        assert first == second

    def test_round_trip_preserves_config_and_values(self, tmp_path):
        cfg = ExperimentConfig(frame="crf", n=2, xi=0.4, epsilon=0.9,
                               tau_max=6.0, steps=90, n_max=30)
        bundle = run_experiment(cfg)
        path = emit_csv(bundle, tmp_path / "round.csv")
        loaded = read_csv(path)
        assert loaded.config == cfg
        assert_allclose(loaded.tau, bundle.tau, rtol=0.0, atol=1e-11)
        for name in COLUMNS:
            # 12 significant digits survive the text round trip
            assert_allclose(loaded.column(name), bundle.column(name), rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda lines: lines[:2], "line 3: file ends after 0 data rows, config echoes steps=5"),
            (lambda lines: lines[:4], "line 5: file ends after 2 data rows, config echoes steps=5"),
            (lambda lines: lines + [lines[-1]], "line 8: data row 6 is past config steps=5"),
            (lambda lines: lines[:3] + ["0.25,0.5,1"] + lines[4:], "line 4: expected 6 comma-separated values, found 3"),
            (lambda lines: lines[:5] + [lines[5].replace("0.", "x.", 1)] + lines[6:], "line 6: non-numeric value"),
        ],
        ids=["header-only", "short", "long", "ragged", "non-numeric"],
    )
    def test_read_csv_names_the_bad_line(self, tmp_path, edit, message):
        cfg = ExperimentConfig(frame="crf", xi=0.5, tau_max=1.0, steps=5)
        path = emit_csv(run_experiment(cfg), tmp_path / "bad.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            read_csv(path)
        assert err.value.field == "config"
        assert message in str(err.value)

    def test_parse_config_comment_requires_leading_comment(self):
        with pytest.raises(ConfigError):
            parse_config_comment("tau,s_z\n0,0.5\n")
        with pytest.raises(ConfigError):
            parse_config_comment("")


def _fmt_reference(value):
    if value == 0.0:
        value = 0.0
    return format(float(value), ".12g")


def csv_reference(bundle):
    """The per-value CSV writer that the block writer replaced."""
    lines = [f"# config: {bundle.config.to_json()}", CSV_HEADER]
    columns = [bundle.tau] + [bundle.series[name] for name in COLUMNS]
    for row in zip(*columns):
        lines.append(",".join(_fmt_reference(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def svg_points_reference(bundle, column):
    """The per-point polyline formatting that the array version replaced."""
    values, tau = bundle.column(column), bundle.tau
    left, right, top, bottom = SVG_MARGIN
    x0, x1 = left, SVG_WIDTH - right
    y0, y1 = top, SVG_HEIGHT - bottom
    t_lo, t_hi = float(tau[0]), float(tau[-1])
    v_lo, v_hi = float(values.min()), float(values.max())
    if v_hi - v_lo < 1e-9:
        pad = max(0.5, abs(v_hi) * 0.1)
        v_lo, v_hi = v_lo - pad, v_hi + pad

    def sx(t):
        return x0 + (t - t_lo) / (t_hi - t_lo) * (x1 - x0)

    def sy(v):
        return y1 - (v - v_lo) / (v_hi - v_lo) * (y1 - y0)

    return " ".join(f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(tau, values))


def assert_svg_points_match(path, bundle, column):
    head, rest = path.read_bytes().split(b' points="')
    points, tail = rest.split(b'"', 1)
    assert points.decode("utf-8") == svg_points_reference(bundle, column)
    assert tail == b"/>\n</svg>\n"
    assert head.endswith(b'<polyline fill="none" stroke="#1f77b4" stroke-width="1.2"')


# -0.0, subnormal and extreme magnitudes, values that round at the 12th digit,
# and the edges of the domain where emit_csv forms the digits itself
EDGE_VALUES = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 0.1234567890125, 0.1234567890135,
    1.0000000000005, 9.9999999999995, 123456789012.5, 999999999999.5, 2.5e-5, -2.5,
    1e-4, math.nextafter(1e-4, 0.0), 999999999999.4, math.nextafter(1e12, 0.0),
])


def edge_bundle(rows):
    tau = np.linspace(0.0, 7.0, rows)
    series = {name: np.resize(np.roll(EDGE_VALUES, 3 * k), rows) for k, name in enumerate(COLUMNS)}
    series["n_jc"] = np.full(rows, -0.0)  # a constant column
    series["n_ajc"] = np.full(rows, 2.0)
    return TimeSeriesBundle(config=ExperimentConfig(frame="rf"), tau=tau, series=series)


def every_column_edge_bundle(rows):
    """A bundle whose six columns, tau included, all hold the edge values, each in its own order."""
    tau, *series = (np.resize(np.roll(EDGE_VALUES, 2 * k), rows) for k in range(len(COLUMNS) + 1))
    return TimeSeriesBundle(config=ExperimentConfig(frame="rf"), tau=tau, series=dict(zip(COLUMNS, series)))


class TestEmissionMatchesScalarReference:
    @pytest.mark.parametrize("rows", [runner.FIGURE_STEPS, CSV_BLOCK_ROWS + 1])  # a figure-set CSV, two blocks
    def test_csv_edge_values_in_every_column(self, tmp_path, rows):
        bundle = every_column_edge_bundle(rows)
        assert emit_csv(bundle, tmp_path / "edge.csv").read_bytes() == csv_reference(bundle)

    @pytest.mark.parametrize(
        "rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS]
    )
    def test_csv_edge_values_at_block_boundaries(self, tmp_path, rows):
        bundle = edge_bundle(rows)
        assert emit_csv(bundle, tmp_path / "edge.csv").read_bytes() == csv_reference(bundle)

    @pytest.mark.parametrize("rows", [2, CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("column", COLUMNS)
    def test_svg_edge_values(self, tmp_path, rows, column):
        bundle = edge_bundle(rows)
        assert_svg_points_match(emit_svg(bundle, column, tmp_path / "edge.svg"), bundle, column)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("frame", ["rf", "crf"])
    def test_seeded_scenarios(self, tmp_path, frame, seed):
        rng = np.random.default_rng(seed)
        eps = float(10.0 ** rng.uniform(-2, 2))
        cfg = ExperimentConfig(
            frame=frame, n=int(rng.integers(0, 60)), xi=float(-eps / 2 + rng.uniform(0, 3)), epsilon=eps,
            tau_max=float(rng.uniform(5, 200)), steps=int(rng.integers(2, 3 * CSV_BLOCK_ROWS)),
        )
        bundle = run_experiment(cfg)
        assert emit_csv(bundle, tmp_path / "run.csv").read_bytes() == csv_reference(bundle)
        for column in COLUMNS:
            assert_svg_points_match(emit_svg(bundle, column, tmp_path / "run.svg"), bundle, column)


def points_reference(values):
    return " ".join(["%.2f,%.2f"] * (len(values) // 2)) % tuple(values)


def ulps_away(value, j):
    for _ in range(abs(j)):
        value = math.nextafter(value, math.copysign(math.inf, j))
    return value


def near_tie(k, j):
    """The float j ulps from (k + 0.5) / 100: a near-tie for %.2f."""
    return ulps_away((k + 0.5) / 100, j)


in_plot = st.one_of(
    st.floats(min_value=10.0, max_value=1000.0, exclude_max=True),
    st.integers(0, 2**53 - 1).map(lambda i: 10.0 + 990.0 * (i / 2**53)),  # uniform
)
near_ties = st.builds(near_tie, st.integers(1000, 99_999), st.integers(-500, 500))
outside = st.one_of(
    st.floats(max_value=10.0, exclude_max=True, allow_nan=False),
    st.floats(min_value=1000.0),
    st.sampled_from([-0.0, 0.0, -1.5, 9.995, 999.995, 999.99, 1000.0, math.nan, math.inf, -math.inf]),
)


class TestSvgPoints:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.one_of(in_plot, near_ties), min_size=1, max_size=40).map(lambda v: v + v[:len(v) % 2]))
    def test_plot_range_and_near_ties(self, values):
        assert runner._svg_points(np.array(values, dtype=np.float64)) == points_reference(values)

    @pytest.mark.parametrize("offset", [0.25, 0.75])
    def test_every_cent_of_the_plot_range(self, offset):
        values = (np.arange(1000, 99_998) + offset) / 100  # every cent from 10.00 to 999.98
        assert runner._svg_points(values) == points_reference(values.tolist())

    @settings(deadline=None, max_examples=150)
    @given(st.lists(in_plot, min_size=2, max_size=40), st.data())
    def test_one_value_outside_the_fast_domain(self, values, data):
        values = values + values[:len(values) % 2]
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(outside)
        assert runner._svg_points(np.array(values, dtype=np.float64)) == points_reference(values)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(outside, st.floats()), min_size=1, max_size=20).map(lambda v: v + v[:len(v) % 2]))
    def test_any_float(self, values):
        assert runner._svg_points(np.array(values, dtype=np.float64)) == points_reference(values)


def cells_reference(values):
    return ["%.12g" % (v + 0.0) for v in values]


def formatted_cells(values):
    """The cells `runner._cells` lays out for values, read back column by column."""
    text = np.full((runner._CELL_ROWS, len(values)), 0xFF, dtype=np.uint8)  # no stale byte may survive
    runner._cells(np.array(values, dtype=np.float64), text)
    return [bytes(column).replace(b"\0", b"").decode("ascii") for column in text.T]


signs = st.sampled_from([1.0, -1.0])
# the float j ulps from (q + 1/2) * 10**(e - 11): a near-tie for 12 significant digits
cell_ties = st.builds(
    lambda q, e, j, sign: sign * ulps_away((q + 0.5) * 10.0 ** (e - 11), j),
    st.integers(10**11, 10**12 - 1), st.integers(-4, 11), st.integers(-8, 8), signs,
)
power_neighbours = st.builds(
    lambda k, j, sign: sign * ulps_away(float(f"1e{k}"), j), st.integers(-5, 13), st.integers(-8, 8), signs,
)
in_domain = st.builds(
    lambda exponent, sign: sign * 10.0**exponent, st.floats(min_value=-4.0, max_value=12.0, exclude_max=True), signs,
)
outside_domain = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e12, -1e12,
                     math.nextafter(1e-4, 0.0), -math.nextafter(1e-4, 0.0)]),
    st.floats(min_value=-1e-4, max_value=1e-4, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e12, allow_infinity=False),
)


class TestCsvCells:
    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.one_of(cell_ties, power_neighbours), min_size=1, max_size=40))
    def test_near_ties_and_powers_of_ten(self, values):
        assert formatted_cells(values) == cells_reference(values)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(in_domain, min_size=1, max_size=40), st.data())
    def test_one_value_outside_the_fast_domain(self, values, data):
        values[data.draw(st.integers(0, len(values) - 1))] = data.draw(outside_domain)
        assert formatted_cells(values) == cells_reference(values)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert formatted_cells(values) == cells_reference(values)


class TestDigits:
    @pytest.mark.parametrize("k", [2, 3, 6])
    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 2**32 - 1), max_size=40), st.booleans())
    def test_rows_hold_the_low_digits(self, k, values, strided):
        values = [0, 10**k - 1, 10**k, 2**32 - 1] + values
        x = np.array(values, dtype=np.uint32)
        if strided:  # columns of a row-major record, as the SVG writes them
            target = np.full((len(values), k + 4), 0xFF, dtype=np.uint8)
            rows, spare = target.T[1:1 + k], np.concatenate([target.T[:1], target.T[1 + k:]])
        else:
            target = np.full((k + 1, len(values)), 0xFF, dtype=np.uint8)
            rows, spare = target[:k], target[k:]
        runner._digits(x, rows)
        assert [bytes(column).decode("ascii") for column in rows.T] == ["%0*d" % (k, v % 10**k) for v in values]
        assert np.all(spare == 0xFF)
        assert x.tolist() == values


def bundle_with(tau, **series):
    """A bundle of varying columns on the grid tau, with the given columns replaced."""
    columns = {name: np.sin(tau * (k + 1)) / 3 for k, name in enumerate(COLUMNS)}
    columns.update(series)
    return TimeSeriesBundle(config=ExperimentConfig(frame="rf"), tau=tau, series=columns)


class TestCsvFlatColumns:
    @pytest.mark.parametrize("rows", [3, CSV_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("columns,expected", [
        (lambda rows: {"n_jc": np.full(rows, -0.0)}, b",0,"),
        (lambda rows: {"photon": np.full(rows, 1e-300)}, b",1e-300,"),
        (lambda rows: {"n_ajc": np.append(np.full(rows - 1, 2.0), 2.5)}, b",2.5\n"),
        (lambda rows: {"n_jc": np.full(rows, 1.0), "s_z": np.full(rows, -0.5)}, b"\n0,-0.5,"),
    ], ids=["minus-zero", "tiny", "flat-but-last", "two-flat"])
    def test_matches_the_scalar_reference(self, tmp_path, rows, columns, expected):
        bundle = bundle_with(np.linspace(0.0, 7.0, rows), **columns(rows))
        text = emit_csv(bundle, tmp_path / "flat.csv").read_bytes()
        assert text == csv_reference(bundle)
        assert expected in text

    @pytest.mark.parametrize("rows", [1, 2 * CSV_BLOCK_ROWS + 1])
    def test_all_columns_flat(self, tmp_path, rows):
        bundle = bundle_with(np.full(rows, 3.0), **{name: np.full(rows, -0.25 * k) for k, name in enumerate(COLUMNS)})
        text = emit_csv(bundle, tmp_path / "flat.csv").read_bytes()
        assert text == csv_reference(bundle)
        assert text.endswith(b"\n3,0,-0.25,-0.5,-0.75,-1\n")


class _FailingWriter:
    """Wraps a text file; the write after the first `allowed` ones raises."""

    def __init__(self, handle, allowed):
        self.handle, self.allowed = handle, allowed

    def write(self, text):
        if self.allowed == 0:
            raise OSError(28, "No space left on device")
        self.allowed -= 1
        return self.handle.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()


def fail_after_first_block(monkeypatch):
    """Make CSV writes raise after the comment/header write and one row block."""
    real_open = Path.open
    opened = []

    def open_failing(self, *args, **kwargs):
        opened.append(self)
        return _FailingWriter(real_open(self, *args, **kwargs), allowed=2)

    monkeypatch.setattr(Path, "open", open_failing)
    return opened


class TestCsvWriteFailure:
    def test_partial_file_is_removed(self, tmp_path, monkeypatch):
        bundle = run_experiment(ExperimentConfig(frame="rf", steps=2 * CSV_BLOCK_ROWS + 1))
        opened = fail_after_first_block(monkeypatch)
        target = tmp_path / "partial.csv"
        with pytest.raises(OSError):
            emit_csv(bundle, target)
        assert opened == [target]
        assert not target.exists()

    def test_evolve_exits_3_and_leaves_no_files(self, tmp_path, monkeypatch, capsys):
        out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
        fail_after_first_block(monkeypatch)
        code = cli.main(["evolve", "--frame", "crf", "--steps", str(2 * CSV_BLOCK_ROWS + 1),
                         "--out", str(out), "--svg", str(svg)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()
        assert not svg.exists()

    def test_failed_open_keeps_an_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "kept.csv"
        target.write_text("user data\n", encoding="utf-8")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(PermissionError):
            emit_csv(run_experiment(ExperimentConfig(frame="rf", steps=4)), target)
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "user data\n"


class _Chunk(str):
    """A str that a weakref can follow."""


def test_write_text_releases_each_chunk_once_written(tmp_path):
    refs, alive = [], []

    def chunk(k):
        text = _Chunk(str(k) * 8192)  # from 8192 characters on, the text layer writes it through, not holding it pending
        refs.append(weakref.ref(text))
        return text

    def chunks():
        for k in range(4):
            alive.append(sum(ref() is not None for ref in refs))
            yield chunk(k)

    path = runner._write_text(tmp_path / "chunks.txt", chunks())
    assert alive == [0, 0, 0, 0]
    assert path.read_text(encoding="utf-8") == "".join(str(k) * 8192 for k in range(4))


def fail_writes_to(monkeypatch, name):
    """Make every write to a file called `name` raise after its open succeeded."""
    real_open = Path.open

    def open_failing(self, *args, **kwargs):
        handle = real_open(self, *args, **kwargs)
        return _FailingWriter(handle, allowed=0) if self.name == name else handle

    monkeypatch.setattr(Path, "open", open_failing)


class TestSvgAndManifestWriteFailure:
    def test_partial_svg_is_removed(self, tmp_path, monkeypatch):
        bundle = run_experiment(ExperimentConfig(frame="rf", steps=64))
        fail_writes_to(monkeypatch, "partial.svg")
        target = tmp_path / "partial.svg"
        with pytest.raises(OSError):
            emit_svg(bundle, "photon", target)
        assert not target.exists()

    def test_evolve_exits_3_and_leaves_neither_csv_nor_svg(self, tmp_path, monkeypatch, capsys):
        out, svg = tmp_path / "run.csv", tmp_path / "run.svg"
        fail_writes_to(monkeypatch, "run.svg")
        code = cli.main(["evolve", "--frame", "crf", "--steps", "64", "--out", str(out), "--svg", str(svg)])
        assert code == 3
        assert "i/o error" in capsys.readouterr().err
        assert not out.exists()
        assert not svg.exists()

    def test_failed_svg_open_keeps_an_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "kept.svg"
        target.write_text("user data\n", encoding="utf-8")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        bundle = run_experiment(ExperimentConfig(frame="rf", steps=4))
        monkeypatch.setattr(Path, "open", refuse)
        with pytest.raises(PermissionError):
            emit_svg(bundle, "photon", target)
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "user data\n"

    def test_partial_manifest_is_removed(self, tmp_path, monkeypatch):
        fail_writes_to(monkeypatch, "manifest.json")
        with pytest.raises(OSError):
            reproduce_figures(tmp_path)
        assert (tmp_path / "fig14.svg").exists()
        assert not (tmp_path / "manifest.json").exists()


class TestSvg:
    def test_valid_xml_with_polyline_and_title(self, tmp_path):
        cfg = ExperimentConfig(frame="rf", tau_max=10.0, steps=64)
        bundle = run_experiment(cfg)
        path = emit_svg(bundle, "atomic_excitation", tmp_path / "out.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//s:polyline", ns)
        assert len(polylines) == 1
        assert len(polylines[0].attrib["points"].split()) == 64
        title = root.find("s:text", ns).text
        assert "atomic_excitation" in title
        assert "frame=rf" in title

    def test_constant_series_renders_with_padding(self, tmp_path):
        cfg = ExperimentConfig(frame="rf", tau_max=5.0, steps=16)
        path = emit_svg(run_experiment(cfg), "n_jc", tmp_path / "flat.svg")
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        points = root.findall(".//{http://www.w3.org/2000/svg}polyline")[0].attrib["points"]
        ys = {pair.split(",")[1] for pair in points.split()}
        assert len(ys) == 1  # a genuinely horizontal line

    def test_deterministic_bytes(self, tmp_path):
        cfg = ExperimentConfig(frame="crf", xi=0.7, tau_max=4.0, steps=32)
        a = emit_svg(run_experiment(cfg), "photon", tmp_path / "a.svg").read_bytes()
        b = emit_svg(run_experiment(cfg), "photon", tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_streamed_polyline_peaks_below_the_csv(self, tmp_path):
        bundle = run_experiment(ExperimentConfig(frame="crf", n=40, xi=1.0 / 1.31, tau_max=50.0, steps=50_000))
        peaks = {}
        for name, emit in (("svg", lambda: emit_svg(bundle, "atomic_excitation", tmp_path / "big.svg")),
                           ("csv", lambda: emit_csv(bundle, tmp_path / "big.csv"))):
            tracemalloc.start()
            try:
                emit()
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["svg"] < peaks["csv"]

    def test_emission_peaks_do_not_grow_with_length(self, tmp_path):
        bundles = [run_experiment(ExperimentConfig(frame="crf", n=40, xi=1.0 / 1.31, steps=blocks * CSV_BLOCK_ROWS))
                   for blocks in (2, 6)]
        for emit in (lambda b: emit_csv(b, tmp_path / "run.csv"), lambda b: emit_svg(b, "photon", tmp_path / "run.svg")):
            peaks = []
            for bundle in bundles:
                tracemalloc.start()
                try:
                    emit(bundle)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert peaks[1] < 1.25 * peaks[0]

    def test_failure_mid_polyline_removes_the_file(self, tmp_path, monkeypatch):
        bundle = edge_bundle(2 * CSV_BLOCK_ROWS + 1)
        opened = fail_after_first_block(monkeypatch)
        target = tmp_path / "partial.svg"
        with pytest.raises(OSError):
            emit_svg(bundle, "photon", target)
        assert opened == [target]
        assert not target.exists()

    def test_unknown_column_rejected_before_writing(self, tmp_path):
        bundle = run_experiment(ExperimentConfig(frame="rf", tau_max=1.0, steps=4))
        target = tmp_path / "bad.svg"
        with pytest.raises(ConfigError):
            emit_svg(bundle, "charge", target)
        assert not target.exists()


def figure_set_reference(outdir):
    """The figure set written panel by panel with the public emitters, one CSV format per panel."""
    outdir.mkdir()
    for name, frame, n, column in runner.FIGURE_SET:
        bundle = run_experiment(ExperimentConfig(
            frame=frame, n=n, xi=runner.FIGURE_XI[frame], epsilon=runner.FIGURE_EPSILON,
            tau_max=runner.FIGURE_TAU_MAX, steps=runner.FIGURE_STEPS, outputs=("csv", "svg"),
        ))
        emit_csv(bundle, outdir / f"{name}.csv")
        emit_svg(bundle, column, outdir / f"{name}.svg")
    return outdir


class TestFigureSet:
    def test_reproduce_figures_emits_all_pairs(self, tmp_path):
        manifest = reproduce_figures(tmp_path)
        assert (manifest["tau_max"], manifest["steps"]) == (50.0, 2000)
        names = [entry["name"] for entry in manifest["figures"]]
        assert names == [f"fig{k:02d}" for k in range(1, 15)]
        for entry in manifest["figures"]:
            assert (tmp_path / entry["csv"]).exists()
            assert (tmp_path / entry["svg"]).exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert on_disk == manifest

    def test_constant_reference_figures(self, tmp_path):
        reproduce_figures(tmp_path)
        fig03 = read_csv(tmp_path / "fig03.csv")
        assert np.all(fig03.column("n_jc") == 1.0)
        fig10 = read_csv(tmp_path / "fig10.csv")
        assert np.all(fig10.column("n_ajc") == 2.0)

    def test_rotating_frame_epsilon_is_flagged_assumed(self, tmp_path):
        manifest = reproduce_figures(tmp_path)
        for entry in manifest["figures"]:
            assert entry["epsilon_assumed"] == (entry["frame"] == "rf")
            assert entry["epsilon"] == 0.16
            expected_xi = 0.0 if entry["frame"] == "rf" else 1.0 / 1.31
            assert entry["xi"] == expected_xi

    def test_scenario_coverage(self, tmp_path):
        manifest = reproduce_figures(tmp_path)
        combos = {(e["frame"], e["n"]) for e in manifest["figures"]}
        assert combos == {("rf", 0), ("rf", 40), ("crf", 0), ("crf", 40)}

    @pytest.mark.parametrize("steps", [50, 2 * CSV_BLOCK_ROWS + 1])
    def test_equals_the_per_panel_emitters_byte_for_byte(self, tmp_path, monkeypatch, steps):
        monkeypatch.setattr(runner, "FIGURE_STEPS", steps)  # one CSV block, then several
        written = tmp_path / "set"
        assert reproduce_figures(written)["steps"] == steps
        reference = figure_set_reference(tmp_path / "ref")
        names = sorted(path.name for path in reference.iterdir())
        assert sorted(path.name for path in written.iterdir()) == sorted(names + ["manifest.json"])
        for name in names:
            assert (written / name).read_bytes() == (reference / name).read_bytes(), name
        if steps > 2 * CSV_BLOCK_ROWS:  # the copied siblings span several read chunks
            assert (reference / "fig02.csv").stat().st_size > 2 * runner._COPY_CHUNK

    def test_each_scenario_formats_its_csv_once(self, tmp_path, monkeypatch):
        formatted = []
        real_emit_csv = runner.emit_csv

        def counting(bundle, path):
            formatted.append(Path(path).name)
            return real_emit_csv(bundle, path)

        monkeypatch.setattr(runner, "emit_csv", counting)
        reproduce_figures(tmp_path)
        assert formatted == ["fig01.csv", "fig05.csv", "fig08.csv", "fig12.csv"]

    def test_failed_sibling_copy_removes_only_its_file(self, tmp_path, monkeypatch):
        fail_writes_to(monkeypatch, "fig02.csv")
        with pytest.raises(OSError):
            reproduce_figures(tmp_path / "set")
        monkeypatch.undo()
        reference = figure_set_reference(tmp_path / "ref")
        assert not (tmp_path / "set" / "fig02.csv").exists()
        assert (tmp_path / "set" / "fig01.csv").read_bytes() == (reference / "fig01.csv").read_bytes()

    def test_figures_command_exits_3_on_a_failed_sibling_copy(self, tmp_path, monkeypatch, capsys):
        fail_writes_to(monkeypatch, "fig02.csv")
        assert cli.main(["figures", "--outdir", str(tmp_path)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert not (tmp_path / "fig02.csv").exists()
        assert (tmp_path / "fig01.csv").exists()

    def test_failed_sibling_open_keeps_an_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "fig02.csv"
        target.write_text("user data\n", encoding="utf-8")
        real_open = Path.open

        def refuse_fig02(self, *args, **kwargs):
            if self.name == "fig02.csv":
                raise PermissionError(13, "Permission denied", str(self))
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(Path, "open", refuse_fig02)
        with pytest.raises(PermissionError):
            reproduce_figures(tmp_path)
        monkeypatch.undo()
        assert target.read_text(encoding="utf-8") == "user data\n"
        assert (tmp_path / "fig01.csv").exists()


class TestBeatMeasurement:
    def test_two_tone_synthetic_signal(self):
        tau = np.linspace(0.0, 200.0, 4001)
        f1, f2 = 6.40, 6.20
        signal = 0.5 * (np.cos(f1 * tau) + np.cos(f2 * tau))
        period = beat_modulation_period(tau, signal)
        expected = 2.0 * np.pi / (f1 - f2)
        assert period == pytest.approx(expected, rel=0.02)

    def test_measures_experiment_series(self):
        bundle = run_experiment(ExperimentConfig(frame="rf", n=40, tau_max=50.0, steps=2000))
        period = beat_modulation_period(bundle.tau, bundle.column("atomic_excitation"))
        expected = np.pi / (math.sqrt(41.0) - math.sqrt(39.0))
        assert period == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("frame,n,samples", [("rf", 2, 4000), ("rf", 40, 9001), ("crf", 5, 4000), ("crf", 60, 20000)])
    def test_equals_the_crossing_loop(self, frame, n, samples):
        params = ModelParams.from_dimensionless(0.0 if frame == "rf" else 1.0 / 1.31, 0.16)
        tau = np.linspace(0.0, 150.0, samples)
        values = observables(params, frame, n, tau / params.g).atomic_excitation
        # the same spectral smoothing, then the crossings visited one by one
        y = values - values.mean()
        y = y * y
        spec = np.fft.rfft(y)
        spec[2.0 * np.pi * np.fft.rfftfreq(y.size, d=float(tau[1] - tau[0])) >= BEAT_FAST_CUTOFF] = 0.0
        smooth = np.fft.irfft(spec, n=y.size)
        smooth = smooth - smooth.mean()
        crossings = []
        for i in range(smooth.size - 1):
            if smooth[i] * smooth[i + 1] < 0.0:
                frac = smooth[i] / (smooth[i] - smooth[i + 1])
                crossings.append(tau[i] + frac * (tau[i + 1] - tau[i]))
        assert len(crossings) >= 3
        assert beat_modulation_period(tau, values) == 2.0 * float(np.median(np.diff(crossings)))

    def test_rejects_ragged_or_short_grids(self):
        with pytest.raises(ValueError):
            beat_modulation_period([0.0, 1.0, 3.0], [0.0, 1.0, 0.0])
        tau = np.concatenate([np.linspace(0, 1, 10), [2.0, 4.0, 8.0, 9.0, 10.0, 11.0]])
        with pytest.raises(ValueError):
            beat_modulation_period(tau, np.zeros_like(tau))

    def test_rejects_featureless_signal(self):
        tau = np.linspace(0.0, 10.0, 64)
        with pytest.raises(ValueError):
            beat_modulation_period(tau, np.ones_like(tau))


def _dense_parity_deviation(space, hamiltonians):
    """The parity identities with every conjugation a dense matrix product: the reference for `_parity_deviation`."""
    n_bar = space.photon_numbers() + np.where(space.excited_mask(), 1, 2)
    devs = []
    for k in (1, 2, 3):
        pi_k = model.build_parity(space, k).entries
        devs += [pi_k - np.diag(np.where((k * n_bar) % 2 == 0, 1.0, -1.0))] + [pi_k.conj().T @ h @ pi_k - h for h in hamiltonians]
        if k % 2 == 0:
            devs.append(pi_k @ pi_k - np.eye(space.dim))
    return max(float(np.max(np.abs(dev))) for dev in devs)


class TestParityDeviation:
    FIG_CRF = ModelParams.from_dimensionless(1.0 / 1.31, 0.16)

    @pytest.mark.parametrize("n_max", [20, 60])  # d = 42 and 122
    def test_equals_the_dense_products_bit_for_bit(self, n_max):
        space = HilbertSpace(n_max)
        rng = np.random.default_rng(n_max)
        hamiltonians = []
        for _ in range(3):
            a = rng.standard_normal((space.dim, space.dim))
            hamiltonians.append(a + a.T)
        # a parity-breaking H reads its own size; the figure Hamiltonians read exactly 0
        assert runner._parity_deviation(space, hamiltonians) == _dense_parity_deviation(space, hamiltonians) > 0.1
        built = [h.entries for h in (model.build_rabi(self.FIG_CRF, space), *model.build_components(self.FIG_CRF, space))]
        assert runner._parity_deviation(space, built) == _dense_parity_deviation(space, built) == 0.0

    def test_a_stray_off_diagonal_entry_fails(self, monkeypatch):
        space = HilbertSpace(6)
        real_parity = runner.build_parity

        def stray_parity(space, k):
            entries = real_parity(space, k).entries.copy()
            entries[2, 5] = entries[5, 2] = 1e-3
            return model.OperatorMatrix(space, entries, hermitian=True)

        monkeypatch.setattr(runner, "build_parity", stray_parity)
        hamiltonians = [model.build_rabi(self.FIG_CRF, space).entries]
        assert runner._parity_deviation(space, hamiltonians) >= 1e-3


class TestVerifySuite:
    def test_default_run_passes(self):
        report = verify_suite()
        assert report.passed
        assert len(report.checks) > 50
        table = report.format_table()
        assert "overall: PASS" in table
        assert table.count("\n") == len(report.checks)

    def test_unreachable_tolerance_fails(self):
        report = verify_suite(tol=1e-15)
        assert not report.passed
        assert any(not c.passed for c in report.checks)

    @pytest.mark.parametrize("excess", [0, 10**30])
    def test_an_n_max_past_the_index_range_is_a_config_error(self, excess):
        least = math.isqrt(np.iinfo(np.intp).max) + 1  # the least dense dimension whose square cannot be indexed
        with pytest.raises(ConfigError, match="too large to index") as err:
            verify_suite(n_max=(least + 1) // 2 - 1 + excess)
        assert err.value.field == "n_max"

    def test_an_n_max_past_physical_memory_is_a_config_error(self, monkeypatch):
        if runner._physical_memory() == math.inf:
            pytest.skip("os.sysconf does not report physical memory here")

        def no_space(n_max):
            raise AssertionError(f"built a space at n_max = {n_max}")

        monkeypatch.setattr(runner, "HilbertSpace", no_space)  # nothing is allocated if the guard fails
        # the suite peak at n_max = 1e7 is priced at 256 * (2e7 + 2)^2 bytes, about 100 PB
        with pytest.raises(ConfigError, match="physical memory") as err:
            verify_suite(n_max=10**7)
        assert err.value.field == "n_max"

    def test_the_memory_guard_prices_the_suite_peak_not_one_operator(self, monkeypatch):
        def no_space(n_max):
            raise AssertionError(f"built a space at n_max = {n_max}")

        d = 2 * (100 + 1)
        # room for four dense complex operators, but not for the suite's peak at n_max = 100
        monkeypatch.setattr(runner, "_physical_memory", lambda: 64.0 * d**2)
        monkeypatch.setattr(runner, "HilbertSpace", no_space)
        with pytest.raises(ConfigError, match="suite's peak") as err:
            verify_suite(n_max=100)
        assert err.value.field == "n_max"

    def test_a_forced_n_max_of_100_passes(self):
        # the number operators hold the exact integers n, so the zero commutators stay exactly zero
        report = verify_suite(n_max=100)
        assert report.passed
        assert [c.value for c in report.checks if c.name.startswith("zero commutator ")] == [0.0] * 10

    def test_the_memory_guard_covers_the_measured_suite_peak(self):
        d = 2 * (100 + 1)
        tracemalloc.start()
        try:
            verify_suite(n_max=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * d**2  # the bytes `verify_suite` requires of physical memory at this n_max

    @pytest.mark.parametrize("error", [ValueError, AttributeError])
    def test_physical_memory_is_unbounded_where_sysconf_does_not_report_it(self, monkeypatch, error):
        def missing(name):
            raise error(name)

        monkeypatch.setattr(runner.os, "sysconf", missing, raising=False)
        assert runner._physical_memory() == math.inf

    @pytest.mark.parametrize("n_max", [2, 5, 30])
    def test_small_truncation_surfaces_as_failed_checks(self, n_max):
        report = verify_suite(n_max=n_max)
        assert not report.passed
        # every failure is a check that does not fit, whatever its mode: it
        # reads (inf, 0.0, "max<=") and carries the truncation note; at
        # n_max = 2 that includes the nonzero-commutator floors, whose
        # interior block holds photon 0 alone
        truncated = [c for c in report.checks if not c.passed]
        assert truncated  # no exception escapes
        assert all((c.value, c.bound, c.mode) == (math.inf, 0.0, "max<=") for c in truncated)
        assert all(c.note.startswith("truncation too small: ") for c in truncated)
        assert any(c.name.startswith("alternate ") and " varies " in c.name for c in truncated)
        assert any(c.name.startswith("nonzero commutator ") for c in truncated) == (n_max == 2)
        assert all(c.passed for c in report.checks if " n=1 " in f" {c.name} ")  # n_max >= n + 1 fits
        # a scenario that does not fit fails all of its checks, so the table
        # keeps the default run's checks, in the same order
        assert [c.name for c in report.checks] == [c.name for c in verify_suite().checks]
        scenario = [c for c in report.checks if " rf n=40 " in f" {c.name} "]
        assert len(scenario) == 7
        assert all(not c.passed and c.note == scenario[0].note for c in scenario)
        assert scenario[0].note.startswith("truncation too small: ")

    def test_one_eigendecomposition_per_hamiltonian(self, monkeypatch):
        shapes, real = [], []
        real_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            real.append(np.isrealobj(a))
            return real_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert verify_suite().passed
        # 8 scenarios, each decomposed once at its own truncation and once
        # widened; the composition check reuses the first decomposition
        assert len(shapes) == 16
        assert len(set(shapes)) == 8
        # each initial state lies in one parity sector, so only that (d/2, d/2) block is decomposed:
        # n_max = n + 20 for n = 0, 1, 5 and 40, then 10 wider, in both frames
        assert sorted(shapes) == sorted((m + 1, m + 1) for n in (0, 1, 5, 40) for m in (n + 20, n + 30) for _ in range(2))
        # H_rf and H_crf are real symmetric in the Fock basis, so each takes the real solver
        assert all(real)

    def test_state_objects_per_default_run(self, monkeypatch):
        built = []
        real_init = oracle.StateVector.__post_init__

        def counting_init(state):
            built.append(state.space.dim)
            real_init(state)

        monkeypatch.setattr(oracle.StateVector, "__post_init__", counting_init)
        assert verify_suite().passed
        # the compared trajectories stay (T, d) arrays; what is left is the
        # 16 initial states, 3 per composition check (8 scenarios) and the
        # 36 eigenstates of the residual checks
        assert len(built) == 76

    def test_number_operators_built_only_for_the_suite_itself(self, monkeypatch):
        calls = []
        real_build = model.build_number_ops

        def counting_build(space):
            calls.append(space.n_max)
            return real_build(space)

        for module in (model, oracle, runner):
            if hasattr(module, "build_number_ops"):
                monkeypatch.setattr(module, "build_number_ops", counting_build)
        assert verify_suite().passed
        # one call per parameter set for the algebra checks and one for the
        # eigenstate checks; the builders and the oracle read the term table
        assert calls == [20, 20, 50, 50]

    def test_operator_objects_per_default_run(self, monkeypatch):
        built = []
        real_init = model.OperatorMatrix.__post_init__

        def counting_init(op):
            built.append(op.space.dim)
            real_init(op)

        monkeypatch.setattr(model.OperatorMatrix, "__post_init__", counting_init)
        assert verify_suite().passed
        # per parameter set: 9 built operators, 3 parities and 9 interior
        # commutators; the conjugation check reads the term table's bands and
        # builds none. Then one Hamiltonian per compared scenario (16) and 4
        # per eigenstate check (8). The compared observables are read as
        # diagonals from the term table.
        assert len(built) == 66

    def test_nonzero_pattern_checks_keep_their_floor(self):
        report = verify_suite(tol=1e-15)
        floors = [c for c in report.checks if c.mode == "min>"]
        assert floors
        assert all(c.passed for c in floors)
        # the tol replaces every upper bound and nothing else
        assert all(c.bound == 1e-15 for c in report.checks if c.mode == "max<=")
        assert all(c.bound == 0.01 for c in floors)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"n_max": 0}, "n_max"),
        ({"n_max": 1}, "n_max"),
        ({"n_max": -1}, "n_max"),
        ({"n_max": 5.0}, "n_max"),
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": -1.0}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": True}, "tol"),
        ({"tol": "1e-9"}, "tol"),
        ({"tol": 10**400}, "tol"),
        ({"n_max": 10**400}, "n_max"),
    ],
)
def test_verify_suite_rejects_bad_arguments_by_name(kwargs, field):
    with pytest.raises(ConfigError) as err:
        verify_suite(**kwargs)
    assert err.value.field == field


@pytest.mark.parametrize("outputs", [None, 5, "csv", ["csv", 1]])
def test_outputs_must_be_a_list_of_kinds(outputs):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"frame": "rf", "outputs": outputs})
    assert err.value.field == "outputs"
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(frame="rf", outputs=outputs)
    assert err.value.field == "outputs"


def test_outputs_list_from_json_becomes_a_tuple():
    cfg = ExperimentConfig.from_dict({"frame": "rf", "outputs": ["csv", "svg"]})
    assert cfg.outputs == ("csv", "svg")
