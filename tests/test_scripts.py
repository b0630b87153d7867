"""The beat-envelope scan under scripts/, loaded without running its command
line and run as a program."""

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
