"""The scripts under scripts/: the beat-envelope scan, loaded without running
its command line, and the figure regeneration, run as a program."""

import argparse
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
