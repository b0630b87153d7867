"""Experiment configs, artifact emission, figure set, beat measurement, verify."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrmframes import (
    COLUMNS,
    ConfigError,
    ExperimentConfig,
    beat_modulation_period,
    emit_csv,
    emit_svg,
    parse_config_comment,
    read_csv,
    reproduce_figures,
    run_experiment,
    verify_suite,
)
from qrmframes.runner import CSV_HEADER


class TestExperimentConfig:
    def test_defaults_and_grid(self):
        cfg = ExperimentConfig(frame="rf")
        assert cfg.n == 0
        assert cfg.effective_n_max == 20
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
            ("n_max", {"frame": "rf", "n": 5, "n_max": 6}),
            ("outputs", {"frame": "rf", "outputs": ("csv", "png")}),
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

    def test_booleans_summed_to_an_integer_are_rejected(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(frame="rf", n=True, xi=True, epsilon=True, steps=True + True)
        assert err.value.field == "n"

    @pytest.mark.parametrize("field", ["n", "steps", "n_max", "xi", "epsilon", "g", "tau_max"])
    def test_json_booleans_are_rejected_by_name(self, field):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json(json.dumps({"frame": "rf", field: True}))
        assert err.value.field == field

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

    def test_parse_config_comment_requires_leading_comment(self):
        with pytest.raises(ConfigError):
            parse_config_comment("tau,s_z\n0,0.5\n")
        with pytest.raises(ConfigError):
            parse_config_comment("")


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

    def test_unknown_column_rejected_before_writing(self, tmp_path):
        bundle = run_experiment(ExperimentConfig(frame="rf", tau_max=1.0, steps=4))
        target = tmp_path / "bad.svg"
        with pytest.raises(ConfigError):
            emit_svg(bundle, "charge", target)
        assert not target.exists()


class TestFigureSet:
    def test_reproduce_figures_emits_all_pairs(self, tmp_path):
        manifest = reproduce_figures(tmp_path, tau_max=10.0, steps=200)
        names = [entry["name"] for entry in manifest["figures"]]
        assert names == [f"fig{k:02d}" for k in range(1, 15)]
        for entry in manifest["figures"]:
            assert (tmp_path / entry["csv"]).exists()
            assert (tmp_path / entry["svg"]).exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert on_disk == manifest

    def test_constant_reference_figures(self, tmp_path):
        reproduce_figures(tmp_path, tau_max=10.0, steps=100)
        fig03 = read_csv(tmp_path / "fig03.csv")
        assert np.all(fig03.column("n_jc") == 1.0)
        fig10 = read_csv(tmp_path / "fig10.csv")
        assert np.all(fig10.column("n_ajc") == 2.0)

    def test_rotating_frame_epsilon_is_flagged_assumed(self, tmp_path):
        manifest = reproduce_figures(tmp_path, tau_max=5.0, steps=50)
        for entry in manifest["figures"]:
            assert entry["epsilon_assumed"] == (entry["frame"] == "rf")
            assert entry["epsilon"] == 0.16
            expected_xi = 0.0 if entry["frame"] == "rf" else 1.0 / 1.31
            assert entry["xi"] == expected_xi

    def test_scenario_coverage(self, tmp_path):
        manifest = reproduce_figures(tmp_path, tau_max=5.0, steps=50)
        combos = {(e["frame"], e["n"]) for e in manifest["figures"]}
        assert combos == {("rf", 0), ("rf", 40), ("crf", 0), ("crf", 40)}


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

    def test_small_truncation_surfaces_as_failed_checks(self):
        report = verify_suite(n_max=5)
        assert not report.passed
        notes = [c.note for c in report.checks if not c.passed]
        assert notes  # failures carry the truncation message, no exception escapes
        assert any("truncation too small" in note for note in notes)

    def test_nonzero_pattern_checks_keep_their_floor(self):
        report = verify_suite(tol=1e-15)
        floors = [c for c in report.checks if c.mode == "min>"]
        assert floors
        assert all(c.passed for c in floors)


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
