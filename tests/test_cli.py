"""Command line surface: subcommands, config plumbing, exit codes."""

import json
import subprocess
import sys

import pytest

from qrmframes import ExperimentConfig, NumericConsistencyError, read_csv
from qrmframes import cli
from qrmframes.cli import build_parser, main


def test_parser_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    capsys.readouterr()


def test_evolve_writes_csv(tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = main(["evolve", "--frame", "rf", "--tau-max", "5", "--steps", "20",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    bundle = read_csv(out)
    assert bundle.config.frame == "rf"
    assert bundle.tau.shape == (20,)


def test_evolve_writes_svg_alongside(tmp_path):
    out = tmp_path / "series.csv"
    svg = tmp_path / "series.svg"
    code = main(["evolve", "--frame", "crf", "--xi", "0.5", "--steps", "16",
                 "--tau-max", "3", "--out", str(out), "--svg", str(svg),
                 "--column", "photon"])
    assert code == 0
    assert svg.exists()
    assert b"polyline" in svg.read_bytes()
    assert read_csv(out).config.outputs == ("csv", "svg")


def test_evolve_from_config_file(tmp_path):
    cfg = ExperimentConfig(frame="crf", n=1, xi=0.3, epsilon=0.5, tau_max=4.0, steps=25)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg.to_json(), encoding="utf-8")
    out = tmp_path / "series.csv"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert read_csv(out).config == cfg


def test_cli_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"frame": "rf", "steps": 25, "tau_max": 4.0}),
                        encoding="utf-8")
    out = tmp_path / "series.csv"
    code = main(["evolve", "--config", str(cfg_path), "--steps", "11",
                 "--out", str(out)])
    assert code == 0
    loaded = read_csv(out).config
    assert loaded.steps == 11
    assert loaded.tau_max == 4.0


def test_missing_frame_is_a_config_error(tmp_path, capsys):
    code = main(["evolve", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "frame" in capsys.readouterr().err


def test_invalid_field_value_is_a_config_error(tmp_path, capsys):
    code = main(["evolve", "--frame", "rf", "--steps", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "steps" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["n", "xi", "epsilon", "g", "tau_max", "steps", "n_max"])
def test_config_int_past_the_float_range_is_a_config_error(tmp_path, capsys, field):
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps({"frame": "rf", field: 10**400}), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: must be a finite number")
    assert not out.exists()


def test_an_overflowing_physical_horizon_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["evolve", "--frame", "rf", "--tau-max", "1e308", "--g", "1e-10", "--steps", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: tau_max: over g must be finite")
    assert not out.exists()


def test_verify_nmax_past_the_index_range_is_a_config_error(capsys):
    assert main(["verify", "--nmax", str(10**30)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: n_max: ")
    assert "overall" not in captured.out


def test_malformed_config_file_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{broken", encoding="utf-8")
    code = main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    capsys.readouterr()


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"frame": "rf", "colour": 3}), encoding="utf-8")
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 2
    assert "colour" in capsys.readouterr().err


def test_numerical_failure_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise NumericConsistencyError("column s_z contains non-finite values")

    monkeypatch.setattr(cli, "run_experiment", broken)
    code = main(["evolve", "--frame", "rf", "--out", str(tmp_path / "x.csv")])
    assert code == 4
    assert "numerical error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "x.csv"
    code = main(["evolve", "--frame", "rf", "--steps", "8", "--tau-max", "1",
                 "--out", str(target)])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_failed_svg_write_leaves_no_csv_behind(tmp_path, capsys):
    out = tmp_path / "y.csv"
    code = main(["evolve", "--frame", "rf", "--steps", "10", "--out", str(out),
                 "--svg", str(tmp_path / "missing-dir" / "y.svg")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file_is_an_io_error(tmp_path, capsys):
    code = main(["evolve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 3
    capsys.readouterr()


def test_figures_subcommand(tmp_path, capsys):
    code = main(["figures", "--outdir", str(tmp_path / "figs")])
    assert code == 0
    assert "14 figure pairs" in capsys.readouterr().out
    assert (tmp_path / "figs" / "fig14.svg").exists()
    assert (tmp_path / "figs" / "manifest.json").exists()


def test_verify_failure_exit_code(capsys):
    code = main(["verify", "--nmax", "5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "overall: FAIL" in out
    assert "truncation too small" in out


def test_verify_default_passes(capsys):
    code = main(["verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "PASS  " in out


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qrmframes", "evolve", "--frame", "rf",
         "--steps", "8", "--tau-max", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize(
    "args",
    [["--nmax", "0"], ["--nmax", "1"], ["--nmax", "-1"], ["--tol", "nan"], ["--tol", "-1"]],
)
def test_bad_verify_arguments_are_config_errors(args, capsys):
    code = main(["verify", *args])
    assert code == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "overall" not in captured.out


def test_unknown_svg_column_is_rejected_before_any_write(tmp_path, capsys):
    out = tmp_path / "x.csv"
    svg = tmp_path / "x.svg"
    with pytest.raises(SystemExit) as exit_info:
        main(["evolve", "--frame", "rf", "--out", str(out), "--svg", str(svg),
              "--column", "bogus"])
    assert exit_info.value.code == 2
    assert "--column" in capsys.readouterr().err
    assert not out.exists()
    assert not svg.exists()


@pytest.mark.parametrize("outputs", [None, 5])
def test_non_list_outputs_in_config_file_is_a_config_error(tmp_path, capsys, outputs):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"frame": "rf", "outputs": outputs}), encoding="utf-8")
    code = main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "outputs" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--eps", "1e-200", "--g", "1e-200"], "epsilon"),  # omega = eps*g underflows to 0
        (["--eps", "1e300", "--g", "1e300"], "epsilon"),  # omega overflows to inf
        (["--xi", "1e308", "--g", "10"], "xi"),  # omega0 = 2*xi*g + omega overflows to inf
    ],
)
def test_a_derived_frequency_out_of_range_is_a_config_error(tmp_path, flags, field):
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qrmframes", "evolve", "--frame", "rf", *flags,
         "--steps", "3", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"config error: {field}: derived omega")
    assert "Traceback" not in proc.stderr
    assert not out.exists()
