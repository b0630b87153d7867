"""Model parameters, operator builders, and the frame/symmetry identities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrmframes import (
    HilbertSpace,
    ModelParams,
    basis_state,
    build_components,
    build_effective,
    build_number_ops,
    build_parity,
    build_rabi,
    build_transition_ops,
    fock_operators,
    frame_conjugation_check,
    qubit_operators,
)
from qrmframes.hilbert import primitive_matrices
from qrmframes.oracle import interior_commutator_norm

FIG_RF = ModelParams.from_dimensionless(0.0, 0.16)
FIG_CRF = ModelParams.from_dimensionless(1.0 / 1.31, 0.16)


class TestModelParams:
    def test_derived_quantities(self):
        p = ModelParams(omega=1.0, omega0=1.5, g=2.0)
        assert p.delta == 0.5
        assert p.delta_bar == 2.5
        assert p.xi == 0.125
        assert p.epsilon == 0.5

    def test_delta_bar_identity_is_exact(self):
        # bitwise, not merely close: delta_bar is defined as delta + 2 omega
        for omega, omega0 in ((0.16, 1.0), (1.0, 1.0), (0.31, 2.7), (1e-3, 5.0)):
            p = ModelParams(omega=omega, omega0=omega0)
            assert p.delta_bar == p.delta + 2.0 * p.omega

    def test_dimensionless_detuning_split(self):
        for xi, eps in ((0.0, 0.16), (1.0 / 1.31, 0.16), (-0.3, 1.0), (2.0, 2.0)):
            p = ModelParams.from_dimensionless(xi, eps, g=1.3)
            assert p.delta_bar / (2.0 * p.g) == pytest.approx(xi + eps, rel=1e-15)
            assert p.xi == pytest.approx(xi, rel=1e-14, abs=1e-16)
            assert p.epsilon == pytest.approx(eps, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(omega=0.0, omega0=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega0=-0.1)
        with pytest.raises(ValueError):
            ModelParams(omega=1.0, omega0=1.0, g=0.0)
        with pytest.raises(ValueError):
            ModelParams(omega=float("nan"), omega0=1.0)
        with pytest.raises(ValueError):
            ModelParams(omega=float("inf"), omega0=1.0)


def test_full_hamiltonian_diagonal_is_interaction_free():
    # the coupling term is purely off-diagonal, so diagonal entries carry
    # only omega(n + 1/2) +/- omega0/2 regardless of g
    params = ModelParams(omega=0.7, omega0=1.1, g=0.9)
    space = HilbertSpace(4)
    h = build_rabi(params, space)
    diag = np.real(np.diag(h.entries))
    n = space.photon_numbers()
    sign = np.where(space.excited_mask(), 0.5, -0.5)
    assert_allclose(diag, params.omega * (n + 0.5) + params.omega0 * sign, atol=1e-14)


def test_full_hamiltonian_single_coupling_element():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.37)
    space = HilbertSpace(3)
    h = build_rabi(params, space)
    g1 = space.index("g", 1)
    e0 = space.index("e", 0)
    assert h.entries[g1, e0] == pytest.approx(params.g)


def test_components_average_to_full_hamiltonian():
    for params in (FIG_RF, FIG_CRF):
        space = HilbertSpace(12)
        h = build_rabi(params, space)
        h_rot, h_counter = build_components(params, space)
        dev = np.max(np.abs(h.entries - 0.5 * (h_rot.entries + h_counter.entries)))
        assert dev <= 1e-13


def test_number_operator_spectra():
    space = HilbertSpace(5)
    n_jc, n_ajc = build_number_ops(space)
    for n in range(4):
        e_n = basis_state(space, "e", n)
        g_n = basis_state(space, "g", n)
        assert_allclose(n_jc.apply(e_n).amps, (n + 1.0) * e_n.amps, atol=1e-14)
        assert_allclose(n_jc.apply(g_n).amps, float(n) * g_n.amps, atol=1e-14)
        assert_allclose(n_ajc.apply(g_n).amps, (n + 2.0) * g_n.amps, atol=1e-14)
    g0 = basis_state(space, "g", 0)
    shifted = n_ajc.apply(g0).amps - g0.amps
    assert_allclose(shifted, g0.amps, atol=1e-14)  # (N_counter - 1)|g,0> = |g,0>


def test_number_operators_differ_by_qubit_projector():
    space = HilbertSpace(6)
    n_jc, n_ajc = build_number_ops(space)
    _, s_minus, s_plus = qubit_operators(space)
    gap = n_ajc.entries - n_jc.entries
    assert_allclose(gap, 2.0 * (s_minus @ s_plus).entries, atol=1e-15)


def test_effective_edge_eigenstates():
    for params in (FIG_RF, FIG_CRF, ModelParams(omega=1.0, omega0=1.5)):
        space = HilbertSpace(6)
        h_rf, h_crf = build_effective(params, space)
        g0 = basis_state(space, "g", 0)
        e0 = basis_state(space, "e", 0)
        dev_g = np.max(np.abs(h_rf.apply(g0).amps - (-0.5 * params.delta) * g0.amps))
        dev_e = np.max(np.abs(h_crf.apply(e0).amps - (0.5 * params.delta_bar) * e0.amps))
        assert dev_g <= 1e-13
        assert dev_e <= 1e-13


def test_effective_equals_number_plus_transition():
    params = FIG_CRF
    space = HilbertSpace(8)
    h_rf, h_crf = build_effective(params, space)
    n_jc, n_ajc = build_number_ops(space)
    t_jc, t_ajc = build_transition_ops(params, space)
    assert np.max(np.abs(h_rf.entries - params.omega * n_jc.entries - t_jc.entries)) <= 1e-13
    expected = params.omega * (n_ajc.entries - np.eye(space.dim)) + t_ajc.entries
    assert np.max(np.abs(h_crf.entries - expected)) <= 1e-13


def test_commutator_pattern():
    params = FIG_CRF
    space = HilbertSpace(12)
    keep = space.n_max - 2
    h_rot, h_counter = build_components(params, space)
    h_rf, h_crf = build_effective(params, space)
    n_jc, n_ajc = build_number_ops(space)
    for a, b in ((n_jc, h_rot), (n_ajc, h_counter), (n_jc, h_rf), (n_ajc, h_crf), (n_jc, n_ajc)):
        assert interior_commutator_norm(a, b, keep) <= 1e-13
    for a, b in ((n_jc, h_crf), (n_ajc, h_rf), (h_rf, h_crf), (h_rot, h_counter)):
        assert interior_commutator_norm(a, b, keep) > 0.01


def test_component_commutator_magnitude():
    params = ModelParams.from_dimensionless(0.0, 0.16)
    space = HilbertSpace(10)
    h_rot, h_counter = build_components(params, space)
    norm = interior_commutator_norm(h_rot, h_counter, space.n_max - 2)
    assert norm > 0.1 * params.g**2


def test_transition_squares_on_interior():
    for params in (FIG_RF, FIG_CRF):
        space = HilbertSpace(10)
        mask = space.photon_numbers() <= space.n_max - 2
        n_jc, n_ajc = build_number_ops(space)
        t_jc, t_ajc = build_transition_ops(params, space)
        eye = np.eye(space.dim)
        sq_jc = (t_jc @ t_jc).entries - (0.25 * params.delta**2 * eye + params.g**2 * n_jc.entries)
        sq_ajc = (t_ajc @ t_ajc).entries - (
            0.25 * params.delta_bar**2 * eye + params.g**2 * (n_ajc.entries - eye)
        )
        assert np.max(np.abs(sq_jc[np.ix_(mask, mask)])) <= 1e-12
        assert np.max(np.abs(sq_ajc[np.ix_(mask, mask)])) <= 1e-12


def test_transition_resonant_action_on_ground_doublet():
    params = ModelParams.from_dimensionless(0.0, 0.16, g=0.8)
    space = HilbertSpace(4)
    t_jc, _ = build_transition_ops(params, space)
    image = t_jc.apply(basis_state(space, "e", 0))
    assert_allclose(image.amps, params.g * basis_state(space, "g", 1).amps, atol=1e-15)


class TestParity:
    def test_entries_are_exactly_plus_minus_one(self):
        space = HilbertSpace(120)  # large photon numbers stress exp() roundoff
        for k in (1, 2, 3):
            pi_k = build_parity(space, k).entries
            diag = np.diag(pi_k)
            assert np.all(np.isin(diag.real, (-1.0, 1.0)))
            assert np.max(np.abs(diag.imag)) == 0.0
            assert np.max(np.abs(pi_k - np.diag(diag))) == 0.0

    def test_both_number_operators_generate_the_same_parity(self):
        space = HilbertSpace(9)
        n_vals = space.photon_numbers() + space.excited_mask().astype(int)
        n_bar_vals = n_vals + 2 * (~space.excited_mask()).astype(int)
        for k in (1, 2, 3):
            from_jc = np.where((k * n_vals) % 2 == 0, 1.0, -1.0)
            from_ajc = np.where((k * n_bar_vals) % 2 == 0, 1.0, -1.0)
            assert_allclose(np.diag(build_parity(space, k).entries), from_jc, atol=0.0)
            assert_allclose(from_jc, from_ajc, atol=0.0)

    def test_conjugation_leaves_hamiltonians_invariant(self):
        params = FIG_CRF
        space = HilbertSpace(10)
        h_list = [build_rabi(params, space)] + list(build_components(params, space))
        for k in (1, 2, 3):
            pi_k = build_parity(space, k).entries
            for h in h_list:
                dev = np.max(np.abs(pi_k.conj().T @ h.entries @ pi_k - h.entries))
                assert dev <= 1e-12

    def test_even_power_is_identity(self):
        space = HilbertSpace(5)
        pi_2 = build_parity(space, 2).entries
        assert_allclose(pi_2, np.eye(space.dim), atol=0.0)

    def test_rejects_bad_exponent(self):
        space = HilbertSpace(2)
        with pytest.raises(ValueError):
            build_parity(space, 0)
        with pytest.raises(ValueError):
            build_parity(space, 1.5)


def test_frame_conjugation_special_times():
    params = FIG_RF
    space = HilbertSpace(8)
    assert frame_conjugation_check(params, space, 0.0) <= 1e-13
    assert frame_conjugation_check(params, space, np.pi / params.omega) <= 1e-12


def test_frame_conjugation_random_times():
    rng = np.random.default_rng(11)
    space = HilbertSpace(8)
    for params in (FIG_RF, FIG_CRF):
        for t in rng.uniform(0.0, 10.0 / params.omega, size=8):
            assert frame_conjugation_check(params, space, float(t)) <= 1e-12


def _kron_primitives(space):
    """The primitive set built as photon (x) qubit Kronecker products."""
    n_ph = space.n_max + 1
    a = np.kron(np.diag(np.sqrt(np.arange(1.0, n_ph)), k=1), np.eye(2))
    eye_ph = np.eye(n_ph)
    return {
        "a": a,
        "ad": a.T,
        "ata": a.T @ a,
        "sz": np.kron(eye_ph, np.diag([-0.5, 0.5])),
        "sm": np.kron(eye_ph, np.array([[0.0, 1.0], [0.0, 0.0]])),
        "sp": np.kron(eye_ph, np.array([[0.0, 0.0], [1.0, 0.0]])),
        "eye": np.eye(space.dim),
    }


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 40, 70])
def test_primitive_matrices_equal_the_kron_construction(n_max):
    space = HilbertSpace(n_max)
    built = primitive_matrices(space)
    reference = _kron_primitives(space)
    assert built.keys() == reference.keys()
    for name, matrix in reference.items():
        assert built[name].dtype == np.float64
        assert np.array_equal(built[name], matrix), name
    a, ad = fock_operators(space)
    s_z, s_minus, s_plus = qubit_operators(space)
    for op, name in ((a, "a"), (ad, "ad"), (s_z, "sz"), (s_minus, "sm"), (s_plus, "sp")):
        assert np.array_equal(op.entries, reference[name]), name


@pytest.mark.parametrize("n_max", [2, 8, 20])
def test_frame_conjugation_over_a_time_array_is_the_worst_scalar_call(n_max):
    space = HilbertSpace(n_max)
    for params in (FIG_RF, FIG_CRF):
        times = np.random.default_rng(n_max).uniform(0.0, 30.0, size=20)
        worst = max(frame_conjugation_check(params, space, float(t)) for t in times)
        assert frame_conjugation_check(params, space, times) == worst
        assert frame_conjugation_check(params, space, list(times)) == worst
        assert frame_conjugation_check(params, space, np.float64(times[3])) == (
            frame_conjugation_check(params, space, float(times[3]))
        )
