"""The scripts under scripts/: the beat-envelope scan, loaded without running
its command line, and the figure regeneration, run as a program."""

import argparse
import csv
import runpy
import sys
from pathlib import Path

import pytest

from qrmframes import FRAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCAN = SCRIPTS / "beat_envelope_scan.py"


@pytest.fixture(scope="module")
def scan():
    # run_path's default run_name is not "__main__", so main() does not run
    return runpy.run_path(str(SCAN))


@pytest.mark.parametrize("frame", list(FRAMES))
def test_scan_row_meets_the_two_frequency_prediction(scan, frame):
    row = scan["scan_row"](frame, 5, 10.0)
    assert (row["frame"], row["n"]) == (frame, 5)
    assert abs(row["rel_err"]) < 1e-2


def test_frames_option_offers_the_frame_table(scan, monkeypatch):
    parsers = []

    def capture(self, *args, **kwargs):
        parsers.append(self)
        raise SystemExit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(SystemExit):
        scan["main"]()
    frames = next(action for action in parsers[0]._actions if action.dest == "frames")
    assert frames.choices == list(FRAMES)
    assert frames.default == list(FRAMES)


def test_scan_main_prints_and_writes_the_table(tmp_path, monkeypatch, capsys):
    out = tmp_path / "scan.csv"
    monkeypatch.setattr(sys, "argv", ["beat_envelope_scan.py", "--photon-numbers", "2", "5", "--out", str(out)])
    runpy.run_path(str(SCAN), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["frame", "n", "predicted", "measured", "rel_err"]
    assert [line.split()[:2] for line in lines[1:-1]] == [[frame, n] for frame in FRAMES for n in ("2", "5")]
    assert lines[-1] == f"wrote {out}"
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["frame", "n", "predicted", "measured", "rel_err"]
    assert [row[:2] for row in rows[1:]] == [[frame, n] for frame in FRAMES for n in ("2", "5")]


def test_scan_main_rejects_a_photon_number_below_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["beat_envelope_scan.py", "--photon-numbers", "1"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCAN), run_name="__main__")
    assert exit_info.value.code == 2
    assert "need n >= 2" in capsys.readouterr().err


def test_make_figures_writes_the_figure_set(tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "figs"
    monkeypatch.setattr(sys, "argv", ["make_figures.py", "--outdir", str(outdir), "--steps", "50"])
    runpy.run_path(str(SCRIPTS / "make_figures.py"), run_name="__main__")
    names = sorted(path.name for path in outdir.iterdir())
    assert names == sorted([f"fig{k:02d}.{ext}" for k in range(1, 15) for ext in ("csv", "svg")] + ["manifest.json"])
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"14 figure pairs and manifest.json in {outdir}"


@pytest.mark.parametrize("option, value, field", [("--steps", "1", "steps"), ("--tau-max", "nan", "tau_max")])
def test_make_figures_rejects_a_bad_config_before_creating_the_directory(tmp_path, monkeypatch, capsys, option, value, field):
    outdir = tmp_path / "figs"
    monkeypatch.setattr(sys, "argv", ["make_figures.py", "--outdir", str(outdir), option, value])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "make_figures.py"), run_name="__main__")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {field}: ")
    assert captured.out == ""
    assert not outdir.exists()


def test_make_figures_reports_an_io_error_like_the_cli(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["make_figures.py", "--outdir", str(blocker / "x"), "--steps", "50"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "make_figures.py"), run_name="__main__")
    assert exit_info.value.code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("i/o error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
