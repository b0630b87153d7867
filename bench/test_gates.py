"""Tests of the benchmark itself: one small request per workload passes its
gate, each gate rejects a damaged output, a failed request is counted
without stopping the run, and tracing leaves the program as it found it.

    OPENBLAS_NUM_THREADS=1 python3 -m pytest -q bench/test_gates.py
"""

import json
import shutil

import pytest

import hostspeed
import workloads
import worker
from tracing import LAYER_METRICS, Tracer

PROGRAM = workloads.load_program()


@pytest.fixture(scope="module")
def figure_set(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("figures")
    PROGRAM.runner.reproduce_figures(outdir)
    return outdir


def tiny_evolve(directory, seed=3, steps=300):
    spec = workloads.evolve_inputs(seed, 1, directory)[0]
    fields = dict(spec.fields, steps=steps)
    argv = list(spec.argv)
    argv[argv.index("--steps") + 1] = str(steps)
    return workloads.EvolveSpec(tuple(argv), fields, spec.csv, spec.svg, spec.check_seed)


def test_load_program_pins_the_checkout():
    assert PROGRAM.__file__.startswith(str(workloads.SRC / "qrmframes"))


def test_verify_request_passes_its_gate():
    verify = workloads.Verify(PROGRAM, seed=0)
    report = verify.call(verify.spec(0))
    assert verify.gate(None, report) is None
    assert len(verify.expected) == 92


def test_verify_gate_flags_truncation_failures():
    expected = json.loads(workloads.VERIFY_CHECKS.read_text(encoding="utf-8"))
    report = PROGRAM.runner.verify_suite(n_max=5)
    truncated = [c.name for c in report.checks if "truncation too small" in c.note]
    assert truncated
    failure = workloads.verify_gate(report, expected)
    assert failure is not None
    assert all(name in failure for name in truncated)


def test_figures_request_passes_its_gate(figure_set):
    expected = json.loads(workloads.FIGURE_HASHES.read_text(encoding="utf-8"))
    assert len(expected) == 29
    assert workloads.figures_gate(figure_set, expected) is None


def test_figures_gate_rejects_one_flipped_byte(figure_set, tmp_path):
    expected = json.loads(workloads.FIGURE_HASHES.read_text(encoding="utf-8"))
    damaged = tmp_path / "figures"
    shutil.copytree(figure_set, damaged)
    target = damaged / "fig05.csv"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    failure = workloads.figures_gate(damaged, expected)
    assert failure is not None and "fig05.csv" in failure


def test_evolve_request_passes_its_gate(tmp_path):
    spec = tiny_evolve(tmp_path)
    assert workloads.evolve_gate(PROGRAM, spec, PROGRAM.cli.main(list(spec.argv))) is None


def test_evolve_gate_rejects_a_dropped_row(tmp_path):
    spec = tiny_evolve(tmp_path)
    assert PROGRAM.cli.main(list(spec.argv)) == 0
    lines = spec.csv.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[len(lines) // 2]
    spec.csv.write_text("".join(lines), encoding="utf-8")
    failure = workloads.evolve_gate(PROGRAM, spec, 0)
    assert failure is not None and "data rows" in failure


def test_evolve_inputs_stay_in_the_allowed_domain():
    for spec in workloads.evolve_inputs(11, 256):
        f = spec.fields
        assert f["frame"] in ("rf", "crf") and 0 <= f["n"] <= workloads.N_MAX_INDEX
        assert 2 * f["xi"] + f["epsilon"] > 0
        assert workloads.STEPS_RANGE[0] <= f["steps"] <= workloads.STEPS_RANGE[1]
    assert workloads.evolve_inputs(11, 8) == workloads.evolve_inputs(11, 8)


def test_tracer_reports_every_layer_and_restores_the_program(tmp_path):
    runner, oracle = PROGRAM.runner, PROGRAM.oracle
    originals = (runner.emit_csv, oracle.propagate_series, PROGRAM.hilbert.StateVector.__post_init__)
    spec = tiny_evolve(tmp_path)
    tracer = Tracer(PROGRAM)
    tracer.install(0)
    try:
        assert runner.emit_csv is not originals[0]
        assert PROGRAM.cli.main(list(spec.argv)) == 0
    finally:
        tracer.uninstall()
    assert (runner.emit_csv, oracle.propagate_series, PROGRAM.hilbert.StateVector.__post_init__) == originals
    root = max(end for _, _, end, _, _, _ in tracer.spans) - min(s[1] for s in tracer.spans)
    layers = tracer.layer_metrics({0: root}, import_s=0.1, overhead_s=0.0)
    assert list(layers) == list(LAYER_METRICS)
    assert layers["runner.emit_csv_rows"] == 300
    assert layers["runner.emit_svg_points"] == 300
    assert layers["analytic.observables_points"] == 300
    assert layers["cli.main_self_s"] > 0 and layers["runner.emit_csv_self_s"] > 0
    assert layers["oracle.propagate_states"] == 0
    assert layers["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-12)


class StubWorkload:
    """Requests that return but fail their gate, or that raise."""

    def __init__(self, raises: bool):
        self.raises = raises

    def spec(self, i):
        return i

    def call(self, spec):
        if self.raises:
            raise ValueError("broken program")
        return spec

    def gate(self, spec, out):
        return "wrong output"

    def rows(self, spec, out):
        return 1

    def cleanup(self, spec):
        pass


class SteadyHost:
    """A host whose reference kernel always takes REFERENCE_S."""

    def sample(self):
        return hostspeed.REFERENCE_S


def test_reference_kernel_runs_and_cleans_up(tmp_path):
    speed = hostspeed.HostSpeed(tmp_path)
    assert speed.sample() > 0 and list(tmp_path.iterdir()) == []
    assert hostspeed.scale(0.5 * hostspeed.REFERENCE_S, 1.5 * hostspeed.REFERENCE_S) == 1.0


def test_tail_keeps_its_level_and_ten_requests_beyond_it():
    assert worker.tail([float(i) for i in range(1, 101)], 75) == {
        "value": 75.0, "percentile": 75.0, "samples": 100, "beyond": 25}
    lowered = worker.tail([float(i) for i in range(1, 31)], 75)
    assert lowered["value"] == 20.0 and lowered["beyond"] == 10
    assert worker.tail([1.0, 3.0, 2.0], 75)["value"] == 3.0


def test_gate_miss_is_counted_and_timed_without_stopping_the_run():
    run = worker.measure(StubWorkload(raises=False), 0.05, SteadyHost())
    assert run["attempted"] > 2 and run["failed"] == run["attempted"]
    assert len(run["timed"]) == run["attempted"] - 1  # all but the warm-up
    assert run["scaled"] == run["timed"]  # a steady host scales by exactly 1
    assert "wrong output" in run["failures"][0]


def test_raising_request_is_counted_and_not_timed():
    run = worker.measure(StubWorkload(raises=True), 0.05, SteadyHost())
    assert run["attempted"] > 2 and run["failed"] == run["attempted"]
    assert run["timed"] == [] and "broken program" in run["failures"][0]
