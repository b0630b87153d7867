"""Property-based invariants over randomized parameters.

Draws live in the same region the experiments use: xi in [-2, 2], epsilon
in (0, 2], photon index n up to 10, with the physical constraint
2*xi + epsilon >= 0 (non-negative atomic frequency) enforced by assumption.
The frontier sweep at the end leaves that region: epsilon over eleven
decades, omega0 = 0 included, and horizons to 1e6, with bounds that scale
with the roundoff of the phases.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrmframes import (
    FRAMES,
    DegenerateBranchError,
    ExperimentConfig,
    HilbertSpace,
    ModelParams,
    OperatorMatrix,
    StateVector,
    ajc_branch,
    ajc_eigenstate,
    build_effective,
    build_number_ops,
    compare_scenario,
    crf_branch_states,
    evolve_crf,
    evolve_rf,
    evolve_with,
    expectation,
    jc_branch,
    jc_eigenstate,
    observables,
    observables_crf,
    observables_rf,
    rf_branch_states,
)

xi_values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
eps_values = st.floats(min_value=0.05, max_value=2.0, allow_nan=False)
n_values = st.integers(min_value=0, max_value=10)
time_values = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def make_params(xi: float, eps: float) -> ModelParams:
    assume(2.0 * xi + eps >= 0.0)
    return ModelParams.from_dimensionless(xi, eps)


@settings(deadline=None)
@given(xi=xi_values, eps=eps_values, n=n_values)
def test_dressing_closure_across_families(xi, eps, n):
    params = make_params(xi, eps)
    for maker in (jc_branch, ajc_branch):
        for atom in ("e", "g"):
            for index in (n, n + 1):
                if maker is jc_branch and atom == "g" and index == 0 and params.delta == 0.0:
                    with pytest.raises(DegenerateBranchError):
                        maker(params, atom, index)
                    continue
                bc = maker(params, atom, index)
                assert bc.rabi > 0.0
                assert bc.s >= 0.0
                assert abs(bc.c**2 + bc.s**2 - 1.0) <= 1e-14


@settings(deadline=None, max_examples=60)
@given(xi=xi_values, eps=eps_values, n=n_values, sign=st.sampled_from([+1, -1]))
def test_eigenstate_residuals_and_number_eigenvalues(xi, eps, n, sign):
    params = make_params(xi, eps)
    space = HilbertSpace(n + 2)
    h_rf, h_crf = build_effective(params, space)
    n_jc, n_ajc = build_number_ops(space)
    if not (n == 0 and sign == -1):
        state, energy = ajc_eigenstate(params, space, n, sign)
        assert abs(state.norm() - 1.0) <= 1e-12
        residual = h_crf.apply(state).amps - energy * state.amps
        assert np.max(np.abs(residual)) <= 1e-12
        image = n_ajc.apply(state).amps - (n + 1.0) * state.amps
        assert np.max(np.abs(image)) <= 1e-12
    if not (n == 0 and sign == +1):
        state, energy = jc_eigenstate(params, space, n, sign)
        assert abs(state.norm() - 1.0) <= 1e-12
        residual = h_rf.apply(state).amps - energy * state.amps
        assert np.max(np.abs(residual)) <= 1e-12
        image = n_jc.apply(state).amps - float(n) * state.amps
        assert np.max(np.abs(image)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(xi=xi_values, eps=eps_values, n=n_values, t=time_values)
def test_branch_states_norm_and_orthogonality(xi, eps, n, t):
    params = make_params(xi, eps)
    space = HilbertSpace(n + 2)
    for maker in (rf_branch_states, crf_branch_states):
        top, bottom = maker(params, space, n, t)
        assert abs(top.norm() - 1.0) <= 1e-12
        if bottom is not None:
            assert abs(bottom.norm() - 1.0) <= 1e-12
            assert abs(top.overlap(bottom)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(xi=xi_values, eps=eps_values, n=n_values, t=time_values)
def test_closed_form_evolution_is_normalized(xi, eps, n, t):
    params = make_params(xi, eps)
    space = HilbertSpace(n + 2)
    assert abs(evolve_rf(params, space, n, t).norm() - 1.0) <= 1e-12
    assert abs(evolve_crf(params, space, n, t).norm() - 1.0) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(xi=xi_values, eps=eps_values, n=n_values, t=time_values)
def test_closed_form_matches_matrix_propagation(xi, eps, n, t):
    params = make_params(xi, eps)
    space = HilbertSpace(n + 2)
    h_rf, h_crf = build_effective(params, space)
    psi_rf, _ = ajc_eigenstate(params, space, n, +1)
    dev_rf = np.max(np.abs(evolve_rf(params, space, n, t).amps
                           - evolve_with(h_rf, psi_rf, t).amps))
    assert dev_rf <= 1e-10
    psi_crf, _ = jc_eigenstate(params, space, n, -1)
    dev_crf = np.max(np.abs(evolve_crf(params, space, n, t).amps
                            - evolve_with(h_crf, psi_crf, t).amps))
    assert dev_crf <= 1e-10


@settings(deadline=None, max_examples=60)
@given(xi=xi_values, eps=eps_values, n=n_values)
def test_observable_identities_and_ranges(xi, eps, n):
    params = make_params(xi, eps)
    t = np.linspace(0.0, 30.0, 120)
    rf = observables_rf(params, n, t)
    crf = observables_crf(params, n, t)
    np.testing.assert_allclose(rf.atomic_excitation, 0.5 + rf.s_z, atol=1e-13)
    np.testing.assert_allclose(crf.atomic_excitation, 0.5 - crf.s_z, atol=1e-13)
    for obs in (rf, crf):
        np.testing.assert_allclose(obs.n_ajc - obs.n_jc, 1.0 - 2.0 * obs.s_z, atol=1e-12)
        assert np.all(obs.s_z >= -0.5 - 1e-12)
        assert np.all(obs.s_z <= 0.5 + 1e-12)
        assert np.all(obs.atomic_excitation >= -1e-12)
        assert np.all(obs.atomic_excitation <= 1.0 + 1e-12)
        assert np.all(obs.photon >= -1e-12)
    assert float(np.ptp(rf.n_jc)) <= 1e-12
    assert float(np.ptp(crf.n_ajc)) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       half_dim=st.integers(min_value=1, max_value=20),
       t=st.floats(min_value=0.0, max_value=20.0, allow_nan=False))
def test_propagator_unitarity_for_random_hermitian(seed, half_dim, t):
    rng = np.random.default_rng(seed)
    space = HilbertSpace(half_dim - 1)
    raw = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    h = OperatorMatrix(space, 0.5 * (raw + raw.conj().T), hermitian=True)
    amps0 = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi0 = StateVector(space, amps0 / np.linalg.norm(amps0))
    assert abs(evolve_with(h, psi0, t).norm() - 1.0) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(xi=xi_values, eps=eps_values, n=n_values, sign=st.sampled_from([+1, -1]))
def test_number_expectations_match_eigenvalues(xi, eps, n, sign):
    params = make_params(xi, eps)
    space = HilbertSpace(n + 2)
    n_jc, n_ajc = build_number_ops(space)
    if not (n == 0 and sign == -1):
        state, _ = ajc_eigenstate(params, space, n, sign)
        assert expectation(state, n_ajc) == pytest.approx(n + 1.0, abs=1e-12)
    if not (n == 0 and sign == +1):
        state, _ = jc_eigenstate(params, space, n, sign)
        assert expectation(state, n_jc) == pytest.approx(float(n), abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    frame=st.sampled_from(["rf", "crf"]),
    n=st.integers(min_value=0, max_value=6),
    xi=xi_values,
    eps=eps_values,
    tau_max=st.floats(min_value=0.5, max_value=40.0, allow_nan=False),
    steps=st.integers(min_value=2, max_value=200),
)
def test_config_json_round_trip(frame, n, xi, eps, tau_max, steps):
    assume(2.0 * xi + eps >= 0.0)
    cfg = ExperimentConfig(frame=frame, n=n, xi=xi, epsilon=eps,
                           tau_max=tau_max, steps=steps)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


U = np.finfo(float).eps  # 2**-52
frames = st.sampled_from(sorted(FRAMES))


def log_uniform(low: float, high: float):
    return st.floats(min_value=math.log10(low), max_value=math.log10(high)).map(lambda e: 10.0**e)


@st.composite
def frontier_params(draw) -> ModelParams:
    """epsilon in [1e-3, 1e8] and g in [0.1, 10], log-uniform; omega0 = 2 lift epsilon g
    with lift = 0 (the resonant edge omega0 = 0) or lift in [0, 3]."""
    eps = draw(log_uniform(1e-3, 1e8))
    lift = draw(st.just(0.0) | st.floats(min_value=0.0, max_value=3.0))
    return ModelParams.from_dimensionless(-eps / 2 + lift * eps, eps, draw(log_uniform(0.1, 10.0)))


@settings(deadline=None, max_examples=300)
@given(params=frontier_params(), frame=frames, n=st.integers(min_value=0, max_value=5), tau_max=log_uniform(1.0, 1e3))
def test_frontier_sweep_against_the_oracle(params, frame, n, tau_max):
    # the oracle propagates up to photon n + 1, where the largest frequency is
    # Omega = omega (n + 2) + omega0 + g sqrt(n + 2): phases carry a roundoff of
    # u Omega t_max, and the observables read up to n + 2 quanta
    grid = np.linspace(0.0, tau_max, 40) / params.g
    report = compare_scenario(params, frame, n, grid)
    omega = params.omega * (n + 2) + params.omega0 + params.g * math.sqrt(n + 2)
    scale = U * max(1.0, omega * grid[-1])
    assert report.max_state_dev <= 16 * scale
    assert report.worst_obs_dev() <= 16 * scale * (n + 2)
    # both sides start from the same initial state, so its own error shows only here: it
    # is an eigenvector of the other frame's Hamiltonian, whose entries are <= Omega
    psi = report.initial.amps
    image = build_effective(params, report.initial.space)[1 - FRAMES[frame].hamiltonian].entries @ psi
    assert np.max(np.abs(image - np.vdot(psi, image).real * psi)) <= 16 * U * omega


@settings(deadline=None, max_examples=300)
@given(params=frontier_params(), frame=frames, n=st.integers(min_value=0, max_value=1000), tau_max=log_uniform(1.0, 1e6))
def test_frontier_sweep_of_the_closed_forms(params, frame, n, tau_max):
    obs = observables(params, frame, n, np.linspace(0.0, tau_max, 40) / params.g)
    assert np.all(obs.atomic_excitation >= -4 * U) and np.all(obs.atomic_excitation <= 1.0 + 4 * U)
    assert np.max(np.abs(obs.n_ajc - obs.n_jc - (1.0 - 2.0 * obs.s_z))) <= 4 * U * (n + 2)
    assert np.ptp(getattr(obs, FRAMES[frame].conserved)) == 0.0
