"""Closed-form branches, eigenstates, evolution, and observables.

Frozen reference numbers below were computed by independent arithmetic on
the dressing formulas (hypot/sqrt on the photon factor and half detuning)
and cross-checked against dense diagonalization before being pinned.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrmframes import analytic
from qrmframes import (
    DegenerateBranchError,
    HilbertSpace,
    ModelParams,
    NullStateError,
    TruncationError,
    ajc_branch,
    ajc_eigenstate,
    basis_state,
    build_effective,
    build_number_ops,
    build_transition_ops,
    crf_branch_states,
    evolve_crf,
    evolve_rf,
    evolve_series,
    expectation,
    initial_state,
    jc_branch,
    jc_eigenstate,
    observables,
    observables_crf,
    observables_rf,
    rf_branch_states,
)

FIG_RF = ModelParams.from_dimensionless(0.0, 0.16)
FIG_CRF = ModelParams.from_dimensionless(1.0 / 1.31, 0.16)

# ajc g-family at n=0 for the counter-rotating figure parameters
AJC_G0_RABI = 1.3610993476104578
AJC_G0_C = 0.6783919044902933
AJC_G0_S = 0.7347002272505656

# ajc e-family at n=40 for the rotating figure parameters
AJC_E40_RABI = 6.326578854325614
AJC_E40_C = 0.025290129734272523


class TestBranchCoefficients:
    def test_jc_e_family_resonant_ground(self):
        bc = jc_branch(FIG_RF, "e", 0)
        assert bc.rabi == pytest.approx(FIG_RF.g)
        assert bc.c == 0.0
        assert bc.s == 1.0
        assert bc.family == "jc-e(0)"

    def test_jc_g_family_at_large_n(self):
        bc = jc_branch(FIG_RF, "g", 40)
        assert bc.rabi / FIG_RF.g == pytest.approx(math.sqrt(40.0), rel=1e-15)
        assert bc.rabi / FIG_RF.g == pytest.approx(6.324555320336759, rel=1e-15)
        assert bc.c == 0.0
        assert bc.s == 1.0

    def test_jc_g_family_degenerate_origin(self):
        with pytest.raises(DegenerateBranchError):
            jc_branch(FIG_RF, "g", 0)

    def test_ajc_g_family_frozen_values(self):
        bc = ajc_branch(FIG_CRF, "g", 0)
        assert bc.rabi / FIG_CRF.g == pytest.approx(AJC_G0_RABI, rel=1e-14)
        assert bc.c == pytest.approx(AJC_G0_C, rel=1e-14)
        assert bc.s == pytest.approx(AJC_G0_S, rel=1e-14)
        assert bc.c**2 + bc.s**2 == pytest.approx(1.0, abs=1e-14)
        assert bc.family == "ajc-g(0)"

    def test_ajc_e_family_ground_is_pure(self):
        bc = ajc_branch(FIG_CRF, "e", 0)
        assert bc.rabi == pytest.approx(0.5 * FIG_CRF.delta_bar, rel=1e-15)
        assert bc.c == pytest.approx(1.0, abs=1e-15)
        assert bc.s == 0.0

    def test_ajc_e_family_frozen_values_at_n40(self):
        bc = ajc_branch(FIG_RF, "e", 40)
        assert bc.rabi / FIG_RF.g == pytest.approx(AJC_E40_RABI, rel=1e-14)
        assert bc.c == pytest.approx(AJC_E40_C, rel=1e-14)

    def test_detuning_sign_carried_by_cosine(self):
        red = ModelParams.from_dimensionless(-0.5, 1.0)
        assert jc_branch(red, "e", 0).c < 0.0
        assert jc_branch(red, "e", 0).s > 0.0

    def test_rejects_bad_family_arguments(self):
        with pytest.raises(ValueError):
            jc_branch(FIG_RF, "x", 0)
        with pytest.raises(ValueError):
            ajc_branch(FIG_RF, "e", -1)

    @pytest.mark.parametrize("maker", [jc_branch, ajc_branch])
    def test_rejects_a_bool_index_by_name(self, maker):
        with pytest.raises(ValueError, match="^family index must be a non-negative integer, got True"):
            maker(FIG_RF, "e", True)


class TestTransitionAlgebra:
    """The transition operators act inside each doublet with the branch data."""

    def test_double_action_returns_squared_rabi(self):
        params = FIG_CRF
        space = HilbertSpace(8)
        t_jc, t_ajc = build_transition_ops(params, space)
        for n in range(6):
            e_n = basis_state(space, "e", n)
            twice = t_jc.apply(t_jc.apply(e_n))
            rabi = jc_branch(params, "e", n).rabi
            assert_allclose(twice.amps, rabi**2 * e_n.amps, atol=1e-13)
            g_n = basis_state(space, "g", n)
            twice_bar = t_ajc.apply(t_ajc.apply(g_n))
            rabi_bar = ajc_branch(params, "g", n).rabi
            assert_allclose(twice_bar.amps, rabi_bar**2 * g_n.amps, atol=1e-13)

    def test_transition_state_overlap_equals_cosine(self):
        params = FIG_CRF
        space = HilbertSpace(8)
        t_jc, t_ajc = build_transition_ops(params, space)
        for n in (1, 2, 5):
            bc = ajc_branch(params, "e", n)
            phi = t_ajc.apply(basis_state(space, "e", n))
            overlap = basis_state(space, "e", n).overlap(phi) / bc.rabi
            assert overlap.real == pytest.approx(bc.c, abs=1e-13)
            bc_g = jc_branch(params, "g", n)
            phi_g = t_jc.apply(basis_state(space, "g", n))
            overlap_g = basis_state(space, "g", n).overlap(phi_g) / bc_g.rabi
            # g-family transition states carry the opposite bare-state sign
            assert overlap_g.real == pytest.approx(-bc_g.c, abs=1e-13)


class TestEigenstates:
    def test_ajc_ground_reduction(self):
        space = HilbertSpace(4)
        state, energy = ajc_eigenstate(FIG_CRF, space, 0, +1)
        assert_allclose(state.amps, basis_state(space, "e", 0).amps, atol=1e-15)
        assert energy == pytest.approx(0.5 * FIG_CRF.delta_bar, rel=1e-15)
        with pytest.raises(NullStateError):
            ajc_eigenstate(FIG_CRF, space, 0, -1)

    def test_jc_ground_reduction(self):
        space = HilbertSpace(4)
        state, energy = jc_eigenstate(FIG_CRF, space, 0, -1)
        assert_allclose(state.amps, basis_state(space, "g", 0).amps, atol=1e-15)
        assert energy == pytest.approx(-0.5 * FIG_CRF.delta, rel=1e-15)
        with pytest.raises(NullStateError):
            jc_eigenstate(FIG_CRF, space, 0, +1)

    def test_jc_ground_label_under_negative_detuning(self):
        # the state is selected by overlap with the bare ground level, so the
        # minus label keeps returning it when the detuning flips sign
        red = ModelParams.from_dimensionless(-0.4, 1.1)
        space = HilbertSpace(3)
        state, energy = jc_eigenstate(red, space, 0, -1)
        assert state.amplitude("g", 0) == pytest.approx(1.0)
        assert energy == pytest.approx(-0.5 * red.delta, rel=1e-15)
        assert energy > 0.0  # delta < 0 makes the surviving energy positive

    def test_jc_ground_degenerate_energy_is_zero(self):
        space = HilbertSpace(3)
        _, energy = jc_eigenstate(FIG_RF, space, 0, -1)
        assert energy == 0.0

    def test_residuals_and_number_eigenvalues(self):
        space = HilbertSpace(45)
        for params in (FIG_RF, FIG_CRF):
            h_rf, h_crf = build_effective(params, space)
            n_jc, n_ajc = build_number_ops(space)
            for n in (1, 5, 40):
                for sign in (+1, -1):
                    state, energy = ajc_eigenstate(params, space, n, sign)
                    residual = h_crf.apply(state).amps - energy * state.amps
                    assert np.max(np.abs(residual)) <= 1e-12
                    assert expectation(state, n_ajc) == pytest.approx(n + 1.0, abs=1e-12)
                    state, energy = jc_eigenstate(params, space, n, sign)
                    residual = h_rf.apply(state).amps - energy * state.amps
                    assert np.max(np.abs(residual)) <= 1e-12
                    assert expectation(state, n_jc) == pytest.approx(float(n), abs=1e-12)

    def test_plus_minus_pair_is_orthonormal(self):
        space = HilbertSpace(8)
        plus, _ = ajc_eigenstate(FIG_CRF, space, 3, +1)
        minus, _ = ajc_eigenstate(FIG_CRF, space, 3, -1)
        assert plus.norm() == pytest.approx(1.0, abs=1e-15)
        assert abs(plus.overlap(minus)) <= 1e-15

    def test_truncation_guards(self):
        space = HilbertSpace(4)
        with pytest.raises(TruncationError):
            ajc_eigenstate(FIG_CRF, space, 4, +1)  # support reaches photon 5
        with pytest.raises(TruncationError):
            jc_eigenstate(FIG_CRF, space, 5, -1)
        with pytest.raises(ValueError):
            ajc_eigenstate(FIG_CRF, space, 1, 0)


class TestEvolution:
    def test_rf_starts_on_the_counter_rotating_eigenstate(self):
        space = HilbertSpace(8)
        for n in (0, 1, 5):
            psi0, _ = ajc_eigenstate(FIG_RF, space, n, +1)
            assert_allclose(evolve_rf(FIG_RF, space, n, 0.0).amps, psi0.amps, atol=1e-15)

    def test_crf_starts_on_the_rotating_eigenstate(self):
        space = HilbertSpace(8)
        for n in (0, 1, 5):
            psi0, _ = jc_eigenstate(FIG_CRF, space, n, -1)
            assert_allclose(evolve_crf(FIG_CRF, space, n, 0.0).amps, psi0.amps, atol=1e-15)

    def test_rf_resonant_full_flop(self):
        space = HilbertSpace(4)
        t = np.pi / (2.0 * FIG_RF.g)
        out = evolve_rf(FIG_RF, space, 0, t)
        assert abs(out.amplitude("e", 0)) <= 1e-15
        expected = -1j * np.exp(-1j * FIG_RF.omega * t)
        assert out.amplitude("g", 1) == pytest.approx(expected, abs=1e-14)

    def test_crf_flop_amplitude_frozen(self):
        space = HilbertSpace(4)
        tau = np.pi / (2.0 * AJC_G0_RABI)
        out = evolve_crf(FIG_CRF, space, 0, tau / FIG_CRF.g)
        assert abs(out.amplitude("e", 1)) ** 2 == pytest.approx(AJC_G0_S**2, rel=1e-13)
        assert abs(out.amplitude("e", 1)) ** 2 == pytest.approx(0.53978, abs=5e-6)

    def test_branch_states_stay_orthonormal(self):
        rng = np.random.default_rng(3)
        space = HilbertSpace(7)
        for maker, params in ((rf_branch_states, FIG_RF), (crf_branch_states, FIG_CRF)):
            for t in rng.uniform(0.0, 40.0, size=12):
                top, bottom = maker(params, space, 4, float(t))
                assert top.norm() == pytest.approx(1.0, abs=1e-12)
                assert bottom.norm() == pytest.approx(1.0, abs=1e-12)
                assert abs(top.overlap(bottom)) <= 1e-12

    def test_evolution_preserves_norm(self):
        rng = np.random.default_rng(5)
        space = HilbertSpace(9)
        for t in rng.uniform(0.0, 30.0, size=10):
            assert evolve_rf(FIG_RF, space, 5, float(t)).norm() == pytest.approx(1.0, abs=1e-12)
            assert evolve_crf(FIG_CRF, space, 5, float(t)).norm() == pytest.approx(1.0, abs=1e-12)

    def test_headroom_guard(self):
        space = HilbertSpace(5)
        with pytest.raises(TruncationError):
            evolve_rf(FIG_RF, space, 4, 1.0)
        with pytest.raises(TruncationError):
            evolve_crf(FIG_CRF, space, 4, 1.0)


class TestObservables:
    def test_rf_resonant_half_period_row(self):
        obs = observables_rf(FIG_RF, 0, np.pi / 2.0 / FIG_RF.g)
        assert obs.s_z == pytest.approx(-0.5, abs=1e-14)
        assert obs.atomic_excitation == pytest.approx(0.0, abs=1e-14)
        assert obs.photon == pytest.approx(1.0, abs=1e-14)
        assert obs.n_jc == pytest.approx(1.0, abs=1e-14)
        assert obs.n_ajc == pytest.approx(3.0, abs=1e-14)

    def test_rf_jc_number_is_identically_one_at_ground(self):
        t = np.linspace(0.0, 60.0, 400)
        obs = observables_rf(FIG_RF, 0, t)
        assert np.all(obs.n_jc == 1.0)

    def test_rf_initial_values_at_n40_frozen(self):
        obs = observables_rf(FIG_RF, 40, 0.0)
        assert obs.s_z == pytest.approx(0.5 * AJC_E40_C, rel=1e-13)
        assert obs.s_z == pytest.approx(0.012645064867136261, rel=1e-13)
        assert obs.n_jc == pytest.approx(40.0 + AJC_E40_C, rel=1e-14)
        assert obs.n_jc == pytest.approx(40.02529012973427, rel=1e-13)

    def test_crf_initial_row_is_bare_ground(self):
        obs = observables_crf(FIG_CRF, 0, 0.0)
        assert obs.s_z == pytest.approx(-0.5, abs=1e-15)
        assert obs.atomic_excitation == pytest.approx(1.0, abs=1e-15)
        assert obs.photon == pytest.approx(1.0, abs=1e-15)
        assert obs.n_jc == pytest.approx(0.0, abs=1e-15)
        assert obs.n_ajc == pytest.approx(2.0, abs=1e-15)

    def test_crf_ajc_number_is_identically_two_at_ground(self):
        t = np.linspace(0.0, 60.0, 400)
        obs = observables_crf(FIG_CRF, 0, t)
        assert np.all(obs.n_ajc == 2.0)

    def test_frame_reporting_identities(self):
        t = np.linspace(0.0, 25.0, 300)
        for n in (0, 1, 5):
            rf = observables_rf(FIG_RF, n, t)
            assert_allclose(rf.atomic_excitation, 0.5 + rf.s_z, atol=1e-14)
            assert_allclose(rf.n_ajc - rf.n_jc, 2.0 * (0.5 - rf.s_z), atol=1e-12)
            crf = observables_crf(FIG_CRF, n, t)
            assert_allclose(crf.atomic_excitation, 0.5 - crf.s_z, atol=1e-14)
            assert_allclose(crf.n_ajc - crf.n_jc, 2.0 * (0.5 - crf.s_z), atol=1e-12)

    def test_conserved_columns_are_flat(self):
        t = np.linspace(0.0, 25.0, 200)
        rf = observables_rf(FIG_RF, 5, t)
        assert float(np.ptp(rf.n_jc)) <= 1e-12
        assert float(np.ptp(rf.n_ajc)) > 0.01
        crf = observables_crf(FIG_CRF, 5, t)
        assert float(np.ptp(crf.n_ajc)) <= 1e-12
        assert float(np.ptp(crf.n_jc)) > 0.01

    def test_scalar_and_array_inputs_agree(self):
        t = 3.7
        scalar = observables_rf(FIG_RF, 2, t)
        array = observables_rf(FIG_RF, 2, np.array([t]))
        for name, value in scalar.as_dict().items():
            assert array.as_dict()[name][0] == pytest.approx(float(value), rel=1e-15)

    def test_as_dict_key_order(self):
        obs = observables_crf(FIG_CRF, 0, 0.0)
        assert list(obs.as_dict()) == ["s_z", "atomic_excitation", "photon", "n_jc", "n_ajc"]

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            observables_rf(FIG_RF, -1, 0.0)
        with pytest.raises(ValueError):
            observables_crf(FIG_CRF, -1, 0.0)


@pytest.mark.parametrize(
    "params", [FIG_RF, FIG_CRF, ModelParams.from_dimensionless(-0.4, 1.1)]
)
@pytest.mark.parametrize("n", [0, 1, 5])
def test_initial_state_is_the_frame_eigenstate(params, n):
    space = HilbertSpace(n + 3)
    rf = initial_state(params, space, "rf", n)
    crf = initial_state(params, space, "crf", n)
    assert np.array_equal(rf.amps, ajc_eigenstate(params, space, n, +1)[0].amps)
    assert np.array_equal(crf.amps, jc_eigenstate(params, space, n, -1)[0].amps)


@pytest.mark.parametrize("frame", ["lab", "RF"])
@pytest.mark.parametrize("entry", ["observables", "initial_state", "evolve_series"])
def test_frame_entry_points_reject_an_unknown_frame(entry, frame):
    space = HilbertSpace(4)
    calls = {
        "observables": lambda: observables(FIG_RF, frame, 0, 0.0),
        "initial_state": lambda: initial_state(FIG_RF, space, frame, 0),
        "evolve_series": lambda: evolve_series(FIG_RF, space, frame, 0, [0.0]),
    }
    with pytest.raises(ValueError, match="frame"):
        calls[entry]()


@pytest.mark.parametrize("n", [1.5, 2.0, True])
@pytest.mark.parametrize("entry", ["observables", "initial_state", "evolve_series"])
def test_frame_entry_points_reject_a_non_integer_n_by_name(entry, n):
    space = HilbertSpace(6)
    calls = {
        "observables": lambda: observables(FIG_RF, "rf", n, [0.0, 1.0]),
        "initial_state": lambda: initial_state(FIG_RF, space, "crf", n),
        "evolve_series": lambda: evolve_series(FIG_RF, space, "rf", n, [0.0]),
    }
    with pytest.raises(ValueError, match=r"^n must be a non-negative integer"):
        calls[entry]()


@pytest.mark.parametrize("frame", ["rf", "crf"])
def test_observables_goes_through_the_per_frame_entry_point(frame, monkeypatch):
    seen = []
    entry = getattr(analytic, f"observables_{frame}")

    def recording(params, n, t):
        seen.append((params, n, t))
        return entry(params, n, t)

    monkeypatch.setattr(analytic, f"observables_{frame}", recording)
    t = np.linspace(0.0, 3.0, 7)
    obs = observables(FIG_RF, frame, 2, t)
    assert len(seen) == 1 and seen[0][2] is t
    for name, values in obs.as_dict().items():
        assert np.array_equal(values, entry(FIG_RF, 2, t).as_dict()[name])


def reference_eigenstate(params, space, family, n, sign):
    """Scalar transcription of the dressed-state formulas, for exact comparison.

    ajc: {|e,n>, |g,n-1>} with detuning delta_bar and amplitudes (1 + sign c, sign s);
    jc: {|g,n>, |e,n-1>} with detuning delta and amplitudes (1 - sign c, sign s);
    both with photon factor n and energy omega n + sign R. At n = 0 the bare
    state, with energy +delta_bar/2 (ajc) or -delta/2 (jc).
    """
    if family == "ajc":
        bare, partner, half = "e", "g", 0.5 * params.delta_bar
    else:
        bare, partner, half = "g", "e", 0.5 * params.delta
    amps = np.zeros(space.dim, dtype=np.complex128)
    if n == 0:
        amps[space.index(bare, 0)] = 1.0
        return amps, (0.5 * params.delta_bar if family == "ajc" else -0.5 * params.delta)
    rabi = math.hypot(params.g * math.sqrt(n), half)
    c, s = half / rabi, params.g * math.sqrt(n) / rabi
    amps[space.index(bare, n)] = 1.0 + sign * c if family == "ajc" else 1.0 - sign * c
    amps[space.index(partner, n - 1)] = sign * s
    amps /= np.linalg.norm(amps)
    return amps, params.omega * n + sign * rabi


@pytest.mark.parametrize("xi,eps", [(0.0, 0.16), (-0.4, 1.1), (1.0 / 1.31, 0.16)])
@pytest.mark.parametrize("n", [0, 1, 5, 40])
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("family", ["ajc", "jc"])
def test_eigenstates_equal_the_scalar_reference_exactly(family, sign, n, xi, eps):
    params = ModelParams.from_dimensionless(xi, eps)
    space = HilbertSpace(n + 2)
    eigenstate = ajc_eigenstate if family == "ajc" else jc_eigenstate
    surviving = +1 if family == "ajc" else -1
    if n == 0 and sign != surviving:
        with pytest.raises(NullStateError):
            eigenstate(params, space, n, sign)
        return
    state, energy = eigenstate(params, space, n, sign)
    amps, ref_energy = reference_eigenstate(params, space, family, n, sign)
    assert np.array_equal(state.amps, amps)
    assert energy == ref_energy
