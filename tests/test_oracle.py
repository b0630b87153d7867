"""The brute-force propagator and its comparisons against the closed forms."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrmframes import (
    FRAMES,
    HermiticityError,
    HilbertSpace,
    ModelParams,
    NumericConsistencyError,
    StateVector,
    TruncationError,
    ajc_eigenstate,
    OperatorMatrix,
    basis_state,
    build_effective,
    build_number_ops,
    compare_scenario,
    evolve_crf,
    evolve_rf,
    evolve_series,
    evolve_with,
    expectation,
    initial_state,
    interior_commutator_norm,
    interior_projector,
    jc_eigenstate,
    observable_series,
    propagate_series,
    qubit_operators,
    standard_observables,
)
from qrmframes import analytic
from qrmframes.oracle import CRF_COLUMN_MAP, RF_COLUMN_MAP, _expectations

FIG_RF = ModelParams.from_dimensionless(0.0, 0.16)
FIG_CRF = ModelParams.from_dimensionless(1.0 / 1.31, 0.16)


def test_propagate_series_at_time_zero():
    space = HilbertSpace(4)
    h_rf, _ = build_effective(FIG_RF, space)
    psi0 = basis_state(space, "e", 0)
    states = propagate_series(h_rf, psi0, [0.0])
    assert len(states) == 1
    assert_allclose(states[0].amps, psi0.amps, atol=1e-15)


def test_propagate_series_resonant_half_flop():
    space = HilbertSpace(4)
    h_rf, _ = build_effective(FIG_RF, space)
    state = propagate_series(h_rf, basis_state(space, "e", 0), [np.pi / 2.0])[0]
    assert abs(state.amplitude("e", 0)) <= 1e-13


def test_propagate_series_unitarity_over_grid():
    space = HilbertSpace(6)
    _, h_crf = build_effective(FIG_CRF, space)
    grid = np.linspace(0.0, 10.0, 100)
    states = propagate_series(h_crf, basis_state(space, "g", 0), grid)
    for psi in states:
        assert abs(psi.norm() - 1.0) <= 1e-12


def test_propagate_series_guards():
    space = HilbertSpace(2)
    _, s_minus, _ = qubit_operators(space)
    with pytest.raises(HermiticityError):
        propagate_series(s_minus, basis_state(space, "g", 0), [0.0])
    h_rf, _ = build_effective(FIG_RF, space)
    stretched = StateVector(space, 2.0 * basis_state(space, "g", 0).amps)
    with pytest.raises(NumericConsistencyError):
        propagate_series(h_rf, stretched, [0.0])


def test_half_step_composition():
    space = HilbertSpace(7)
    h_rf, _ = build_effective(FIG_RF, space)
    psi0, _ = ajc_eigenstate(FIG_RF, space, 2, +1)
    t = 4.21
    half = propagate_series(h_rf, psi0, [t / 2.0])[0]
    two_step = propagate_series(h_rf, half, [t / 2.0])[0]
    one_step = propagate_series(h_rf, psi0, [t])[0]
    assert np.max(np.abs(two_step.amps - one_step.amps)) <= 1e-11


@pytest.mark.parametrize("frame,params", [("rf", FIG_RF), ("crf", FIG_CRF)])
@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_one_series_call_gives_the_single_time_states(frame, params, n):
    # verify's composition check reads its half and whole states from one call on each scenario's Hamiltonian;
    # the (k, 2) and (k, 1) phase blocks may meet different BLAS kernels, so a few ulps of |amp| <= 1 are allowed
    space = HilbertSpace(n + 20)
    hamiltonian = build_effective(params, space)[FRAMES[frame].hamiltonian]
    psi0 = initial_state(params, space, frame, n)
    t = 7.3 / params.g
    half, whole = propagate_series(hamiltonian, psi0, [t / 2.0, t])
    ulps = 4 * np.finfo(float).eps
    assert np.max(np.abs(half.amps - propagate_series(hamiltonian, psi0, [t / 2.0])[0].amps)) <= ulps
    assert np.max(np.abs(whole.amps - propagate_series(hamiltonian, psi0, [t])[0].amps)) <= ulps


def test_standard_observable_values_on_basis_states():
    space = HilbertSpace(3)
    ops = standard_observables(space)
    row_e0 = observable_series([basis_state(space, "e", 0)], ops)
    assert row_e0["s_z"][0] == pytest.approx(0.5)
    assert row_e0["ad_a"][0] == pytest.approx(0.0)
    assert row_e0["n_jc"][0] == pytest.approx(1.0)
    assert row_e0["n_ajc"][0] == pytest.approx(1.0)
    row_g0 = observable_series([basis_state(space, "g", 0)], ops)
    assert row_g0["s_z"][0] == pytest.approx(-0.5)
    assert row_g0["a_ad"][0] == pytest.approx(1.0)
    assert row_g0["n_ajc"][0] == pytest.approx(2.0)


def test_observable_series_rejects_an_untagged_operator():
    space = HilbertSpace(2)
    _, s_minus, _ = qubit_operators(space)
    with pytest.raises(HermiticityError):
        observable_series([basis_state(space, "e", 0)], {"sm": s_minus})


def test_series_reject_a_state_from_another_space():
    space, other = HilbertSpace(2), HilbertSpace(3)
    h_rf, _ = build_effective(FIG_RF, space)
    with pytest.raises(ValueError, match="different spaces"):
        propagate_series(h_rf, basis_state(other, "g", 0), [0.0])
    with pytest.raises(ValueError, match="different spaces"):
        observable_series([basis_state(other, "g", 0)], standard_observables(space))
    with pytest.raises(ValueError, match="different spaces"):
        observable_series([basis_state(space, "g", 0), basis_state(other, "g", 0)], {})


def test_observable_series_on_empty_input():
    ops = standard_observables(HilbertSpace(1))
    out = observable_series([], ops)
    assert all(value.size == 0 for value in out.values())


def test_rf_resonant_counter_number_oscillation():
    # the non-conserved number swings between 1 and 3 with period pi in tau
    space = HilbertSpace(20)
    h_rf, _ = build_effective(FIG_RF, space)
    grid = np.linspace(0.0, 4.0 * np.pi, 801)
    states = propagate_series(h_rf, basis_state(space, "e", 0), grid)
    series = observable_series(states, standard_observables(space))["n_ajc"]
    assert series.min() == pytest.approx(1.0, abs=1e-9)
    assert series.max() == pytest.approx(3.0, abs=1e-9)
    shift = 200  # pi in grid units
    assert_allclose(series[shift:], series[:-shift], atol=1e-9)


def test_compare_scenario_rf_ground():
    grid = np.linspace(0.0, 25.0, 200)
    report = compare_scenario(FIG_RF, "rf", 0, grid, n_max=20)
    assert report.passed
    assert report.max_state_dev <= 1e-9
    assert report.worst_obs_dev() <= 1e-9
    assert report.frame == "rf"
    assert report.n_max == 20
    assert "rf n=0" in report.scenario


def test_compare_scenario_crf_ground():
    grid = np.linspace(0.0, 25.0, 200)
    report = compare_scenario(FIG_CRF, "crf", 0, grid, n_max=20)
    assert report.passed
    assert set(report.max_obs_dev) == {"s_z", "atomic_excitation", "photon", "n_jc", "n_ajc"}


def test_compare_scenario_default_truncation():
    grid = np.linspace(0.0, 5.0, 40)
    report = compare_scenario(FIG_CRF, "crf", 3, grid)
    assert report.n_max == 23
    assert report.passed


def test_compare_scenario_truncation_guard():
    grid = np.linspace(0.0, 5.0, 20)
    with pytest.raises(TruncationError):
        compare_scenario(FIG_RF, "rf", 40, grid, n_max=40)


@pytest.mark.parametrize("frame", ["rf", "crf"])
@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_compare_scenario_fits_n_max_n_plus_one(frame, n):
    grid = np.linspace(0.0, 25.0, 200)
    params = FIG_RF if frame == "rf" else FIG_CRF
    assert compare_scenario(params, frame, n, grid, n_max=n + 1).passed
    with pytest.raises(TruncationError):
        compare_scenario(params, frame, n, grid, n_max=n)


@pytest.mark.parametrize("eps", [1e4, 1e6, 1e8])
def test_crf_observables_hold_at_zero_atomic_frequency(eps):
    # omega0 = 0 drives the dressing cosine to -1, where 1 + c cancels
    params = ModelParams.from_dimensionless(-eps / 2.0, eps)
    assert params.omega0 == 0.0
    report = compare_scenario(params, "crf", 5, np.linspace(0.0, 10.0, 50), n_max=6)
    assert report.worst_obs_dev() <= 1e-12


@pytest.mark.parametrize("frame", ["rf", "crf"])
def test_compare_scenario_on_an_empty_grid(frame):
    report = compare_scenario(FIG_RF, frame, 0, [])
    assert report.max_state_dev == 0.0
    assert set(report.max_obs_dev.values()) == {0.0}
    assert report.passed
    assert report.amps.shape == (0, report.initial.space.dim)
    assert report.raw.keys() == standard_observables(report.initial.space).keys()
    assert all(series.size == 0 for series in report.raw.values())


@pytest.mark.parametrize("n", [2.0, 1.5, True])
def test_compare_scenario_rejects_a_non_integer_n_by_name(n):
    with pytest.raises(ValueError, match=r"^n must be a non-negative integer"):
        compare_scenario(FIG_RF, "rf", n, [0.0])


def test_compare_scenario_rejects_unknown_frame():
    with pytest.raises(ValueError):
        compare_scenario(FIG_RF, "lab", 0, [0.0])


@pytest.mark.parametrize("frame", ["RF", "Crf", " rf"])
def test_compare_scenario_takes_frame_names_exactly(frame):
    with pytest.raises(ValueError, match="frame"):
        compare_scenario(FIG_RF, frame, 0, [0.0])


def test_truncation_robustness_of_observables():
    grid = np.linspace(0.0, 25.0, 120)
    for frame, params, n in (("rf", FIG_RF, 1), ("crf", FIG_CRF, 1)):
        series = {}
        for n_max in (n + 20, n + 30):
            space = HilbertSpace(n_max)
            h_rf, h_crf = build_effective(params, space)
            if frame == "rf":
                psi0, _ = ajc_eigenstate(params, space, n, +1)
                states = propagate_series(h_rf, psi0, grid)
            else:
                psi0, _ = jc_eigenstate(params, space, n, -1)
                states = propagate_series(h_crf, psi0, grid)
            series[n_max] = observable_series(states, standard_observables(space))
        for name in series[n + 20]:
            drift = np.max(np.abs(series[n + 20][name] - series[n + 30][name]))
            assert drift <= 1e-10


def test_interior_projector_masks_photon_levels():
    space = HilbertSpace(4)
    mask = interior_projector(space, 2)
    assert list(mask) == [True] * 6 + [False] * 4
    with pytest.raises(ValueError):
        interior_projector(space, 5)


def test_interior_commutator_norm_patterns():
    space = HilbertSpace(10)
    keep = space.n_max - 2
    h_rf, h_crf = build_effective(FIG_CRF, space)
    n_jc, n_ajc = build_number_ops(space)
    assert interior_commutator_norm(n_jc, h_rf, keep) <= 1e-13
    assert interior_commutator_norm(n_ajc, h_crf, keep) <= 1e-13
    assert interior_commutator_norm(n_jc, h_crf, keep) > 0.1 * FIG_CRF.g


def test_interior_commutator_norm_keep_guard():
    space = HilbertSpace(5)
    n_jc, n_ajc = build_number_ops(space)
    with pytest.raises(ValueError):
        interior_commutator_norm(n_jc, n_ajc, 4)


# array paths against the per-state and per-time forms they replace


def _random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def test_observable_series_matches_per_state_expectation_on_dense_operator():
    rng = np.random.default_rng(20210317)
    space = HilbertSpace(6)
    op = OperatorMatrix(space, _random_hermitian(rng, space.dim), hermitian=True)
    assert np.count_nonzero(op.entries - np.diag(np.diag(op.entries))) > 0
    h = OperatorMatrix(space, _random_hermitian(rng, space.dim), hermitian=True)
    states = propagate_series(h, basis_state(space, "g", 2), np.linspace(0.0, 3.0, 37))
    series = observable_series(states, {"dense": op})["dense"]
    expected = [expectation(psi, op) for psi in states]
    assert np.max(np.abs(series - expected)) <= 1e-12


def test_propagate_series_matches_evolve_with_at_every_time():
    rng = np.random.default_rng(7)
    space = HilbertSpace(8)
    grid = np.linspace(0.0, 40.0, 51)
    _, h_crf = build_effective(FIG_CRF, space)
    h_rand = OperatorMatrix(space, _random_hermitian(rng, space.dim), hermitian=True)
    for h in (h_crf, h_rand):
        psi0, _ = jc_eigenstate(FIG_CRF, space, 3, -1)
        for t, psi in zip(grid, propagate_series(h, psi0, grid)):
            assert np.max(np.abs(psi.amps - evolve_with(h, psi0, float(t)).amps)) <= 1e-13


def _doublet(g, m, half_detuning):
    rabi = math.hypot(g * math.sqrt(m), half_detuning)
    if rabi == 0.0:
        return 0.0, 0.0, 0.0
    return rabi, half_detuning / rabi, g * math.sqrt(m) / rabi


def _loop_evolve(params, space, frame, n, t):
    """Closed-form state at one time, one doublet at a time in scalar math."""
    g, half, half_bar = params.g, 0.5 * params.delta, 0.5 * params.delta_bar

    def branch(doublet, photons, bare, partner, twist):
        r, c, s = doublet
        out = np.zeros(space.dim, dtype=np.complex128)
        phase = np.exp(-1j * params.omega * photons * t)
        out[space.index(*bare)] = phase * (math.cos(r * t) + twist * c * math.sin(r * t))
        if partner[1] >= 0:
            out[space.index(*partner)] = phase * (-1j * s * math.sin(r * t))
        return out

    if frame == "rf":
        top = branch(_doublet(g, n + 1, half), n + 1, ("e", n), ("g", n + 1), -1j)
        _, c, s = _doublet(g, n, half_bar)
        if n == 0:
            return (1.0 + c) / math.sqrt(2.0 * (1.0 + c)) * top
        bottom = branch(_doublet(g, n - 1, half), n - 1, ("g", n - 1), ("e", n - 2), 1j)
    else:
        top = branch(_doublet(g, n + 1, half_bar), n + 1, ("g", n), ("e", n + 1), 1j)
        if n == 0:
            return top
        bottom = branch(_doublet(g, n - 1, half_bar), n - 1, ("e", n - 1), ("g", n - 2), -1j)
        _, c, s = _doublet(g, n, half)
        s = -s
    norm = math.sqrt(2.0 * (1.0 + c))
    return (1.0 + c) / norm * top + (s / norm) * bottom


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_grid_closed_form_matches_scalar_evolution(n):
    space = HilbertSpace(n + 4)
    grid = np.linspace(0.0, 30.0, 61)
    for frame, params, scalar in (("rf", FIG_RF, evolve_rf), ("crf", FIG_CRF, evolve_crf)):
        series = evolve_series(params, space, frame, n, grid)
        assert series.shape == (grid.size, space.dim)
        for t, row in zip(grid, series):
            assert np.max(np.abs(row - scalar(params, space, n, float(t)).amps)) <= 1e-14
            assert np.max(np.abs(row - _loop_evolve(params, space, frame, n, float(t)))) <= 1e-14


@pytest.mark.parametrize("frame", list(FRAMES))
@pytest.mark.parametrize("xi,eps", [(0.0, 0.16), (1.0 / 1.31, 0.16), (-0.08, 0.16), (0.3, 2.0), (-0.5, 1.0)])
def test_doublet_rule_evolves_any_state_below_the_top_photon(frame, xi, eps):
    """Every bare state below photon n_max has its doublet partner inside the
    truncation, so the closed-form evolver must match dense propagation on any
    superposition of them, singletons (rf |g,0>, crf |e,0>) included."""
    params = ModelParams.from_dimensionless(xi, eps)
    space = HilbertSpace(12)
    spec = FRAMES[frame]
    rng = np.random.default_rng(7)
    amps0 = (rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)) * (space.photon_numbers() < space.n_max)
    amps0 /= np.linalg.norm(amps0)
    grid = np.linspace(0.0, 25.0, 60) / params.g
    closed = analytic._evolve(params, space, spec.family, amps0, grid)
    hamiltonian = build_effective(params, space)[spec.hamiltonian]
    dense = np.array([psi.amps for psi in propagate_series(hamiltonian, StateVector(space, amps0), grid)])
    assert np.max(np.abs(closed - dense)) <= 1e-12
    # a state on the top photon whose partner would sit above it does not fit
    top = np.zeros(space.dim, dtype=np.complex128)
    top[space.index("e" if frame == "rf" else "g", space.n_max)] = 1.0
    with pytest.raises(TruncationError):
        analytic._evolve(params, space, spec.family, top, grid)


@pytest.mark.parametrize("frame,params,n", [("rf", FIG_RF, 0), ("crf", FIG_CRF, 5)])
def test_comparison_report_carries_the_compared_trajectory(frame, params, n):
    grid = np.linspace(0.0, 12.0, 40)
    report = compare_scenario(params, frame, n, grid)
    space = HilbertSpace(report.n_max)
    states = [StateVector(space, row) for row in report.amps]
    assert len(states) == grid.size
    assert np.max(np.abs(states[0].amps - initial_state(params, space, frame, n).amps)) <= 1e-13
    again = observable_series(states, standard_observables(space))
    assert set(report.raw) == set(again)
    for name in again:
        assert np.array_equal(report.raw[name], again[name])
    # the report also carries what it propagated, so its trajectory replays bit for bit
    assert np.array_equal(report.initial.amps, initial_state(params, space, frame, n).amps)
    expected_h = build_effective(params, space)[FRAMES[frame].hamiltonian]
    assert np.array_equal(report.hamiltonian.entries, expected_h.entries)
    replay = propagate_series(report.hamiltonian, report.initial, report.grid)
    assert len(replay) == len(states)
    for psi, original in zip(replay, states):
        assert np.array_equal(psi.amps, original.amps)
    # the state deviation is read against the carried trajectory, which the comparison leaves as propagated
    assert report.max_state_dev == float(np.max(np.abs(evolve_series(params, space, frame, n, grid) - report.amps)))


def test_column_maps_are_the_frame_table_maps():
    assert RF_COLUMN_MAP is FRAMES["rf"].columns
    assert CRF_COLUMN_MAP is FRAMES["crf"].columns
    assert list(FRAMES) == ["rf", "crf"]


def _random_states(rng, space, count):
    amps = rng.normal(size=(count, space.dim)) + 1j * rng.normal(size=(count, space.dim))
    return [StateVector(space, row / np.linalg.norm(row)) for row in amps]


def test_diagonal_observables_match_the_dense_product():
    rng = np.random.default_rng(9)
    space = HilbertSpace(7)
    states = _random_states(rng, space, 25)
    stack = np.stack([psi.amps for psi in states])
    ops = standard_observables(space)
    series = observable_series(states, ops)
    assert len(ops) == 7
    for name, op in ops.items():
        assert np.count_nonzero(op.entries - np.diag(np.diag(op.entries))) == 0
        dense = np.einsum("ti,ti->t", stack.conj(), stack @ op.entries.T).real
        assert np.max(np.abs(series[name] - dense)) <= 1e-13
        assert np.max(np.abs(series[name] - [expectation(psi, op) for psi in states])) <= 1e-13


def test_a_real_diagonal_reads_the_same_as_a_vector_or_an_operator():
    rng = np.random.default_rng(17)
    space = HilbertSpace(9)
    stack = np.stack([psi.amps for psi in _random_states(rng, space, 30)])
    ops = standard_observables(space)
    as_vectors = _expectations(stack, {name: np.diag(op.entries).real.copy() for name, op in ops.items()})
    as_operators = _expectations(stack, ops)
    for name, op in ops.items():
        assert as_vectors[name].dtype == np.float64
        assert np.array_equal(as_vectors[name], as_operators[name])
        dense = np.einsum("ti,ti->t", stack.conj(), stack * np.diag(op.entries)).real
        assert np.max(np.abs(as_vectors[name] - dense)) <= 1e-13


@pytest.mark.parametrize("row,col", [(0, 1), (2, 5), (0, 15), (14, 15)])
def test_one_off_diagonal_pair_takes_the_dense_path(row, col):
    rng = np.random.default_rng(11)
    space = HilbertSpace(7)
    entries = np.diag(rng.normal(size=space.dim)).astype(complex)
    entries[row, col] = 0.3 - 0.7j
    entries[col, row] = 0.3 + 0.7j
    op = OperatorMatrix(space, entries, hermitian=True)
    states = _random_states(rng, space, 10)
    series = observable_series(states, {"op": op})["op"]
    diagonal_only = observable_series(states, {"op": OperatorMatrix(space, np.diag(np.diag(entries)), hermitian=True)})["op"]
    assert np.min(np.abs(series - diagonal_only)) > 1e-6
    assert np.max(np.abs(series - [expectation(psi, op) for psi in states])) <= 1e-13


def test_imaginary_diagonal_still_raises():
    # no hermitian-tagged operator carries an imaginary diagonal, so the
    # public series rejects it by its tag and the residue guard is reached
    # through the row-wise reduction itself
    rng = np.random.default_rng(13)
    space = HilbertSpace(3)
    op = OperatorMatrix(space, np.diag(1j * np.arange(space.dim)))
    states = _random_states(rng, space, 4)
    with pytest.raises(HermiticityError):
        observable_series(states, {"op": op})
    for diagonal in (op, np.diag(op.entries)):
        with pytest.raises(NumericConsistencyError, match="imaginary residue"):
            _expectations(np.stack([psi.amps for psi in states]), {"op": diagonal})


@pytest.mark.parametrize("grid", [[np.nan], [0.0, 1.0, np.nan], [np.inf]])
def test_propagate_series_rejects_a_non_finite_time(grid):
    space = HilbertSpace(2)
    h_rf, _ = build_effective(FIG_RF, space)
    with pytest.raises(ValueError, match="^times must be finite$"):
        propagate_series(h_rf, basis_state(space, "e", 0), grid)


@pytest.mark.parametrize("keep", [1.5, True, np.float64(1.0)])
def test_interior_projector_rejects_a_non_integer_keep(keep):
    with pytest.raises(ValueError, match="^keep must be an integer"):
        interior_projector(HilbertSpace(4), keep)
