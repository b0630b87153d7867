"""Model parameters, operator builders, and the frame/symmetry identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    standard_observables,
)
from qrmframes import model
from qrmframes.hilbert import _dense, _times
from qrmframes.model import _operators
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

    @pytest.mark.parametrize("field", ["omega", "omega0", "g"])
    def test_rejects_a_bool_by_name(self, field):
        values = {"omega": 1.0, "omega0": 0.0, "g": 1.0, field: True}
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got True"):
            ModelParams(**values)

    @pytest.mark.parametrize("field", ["omega", "omega0", "g"])
    def test_rejects_an_int_past_the_float_range_by_name(self, field):
        values = {"omega": 1.0, "omega0": 0.0, "g": 1.0, field: 10**400}
        with pytest.raises(ValueError, match=f"^{field} must be a finite number, got 1000"):
            ModelParams(**values)


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


def test_rabi_is_the_sum_of_the_frame_hamiltonians_at_half_frequencies():
    # claim (b) as operator algebra: H_QRM(w, w0, g) = H_rf(w/2, w0/2, g) + H_crf(w/2, w0/2, g), entrywise
    rng = np.random.default_rng(2027)
    unit_roundoff = np.finfo(float).eps / 2
    for draw in range(200):
        omega, omega0, g = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
        omega0 = 0.0 if draw % 3 == 0 else omega0
        space = HilbertSpace(int(rng.integers(0, 200)))
        h = build_rabi(ModelParams(omega, omega0, g), space).entries
        h_rf, h_crf = build_effective(ModelParams(omega / 2, omega0 / 2, g), space)
        assert np.max(np.abs(h_rf.entries + h_crf.entries - h)) <= 4 * unit_roundoff * np.max(np.abs(h)), draw


def test_anisotropic_rabi_is_the_sum_of_frame_hamiltonians_with_their_own_couplings():
    # the two-coupling split: H_rf(w/2, w0/2, g_r) + H_crf(w/2, w0/2, g_c) is the anisotropic Rabi model
    # w(a^dag a + 1/2) + w0 s_z + g_r(a s+ + a^dag s-) + g_c(a s- + a^dag s+) (Xie et al., PRX 4, 021046, 2014)
    rng = np.random.default_rng(2031)
    unit_roundoff = np.finfo(float).eps / 2
    for draw in range(200):
        omega, omega0, g_r, g_c = 10.0 ** rng.uniform(-2.0, 2.0, size=4)
        omega0 = 0.0 if draw % 3 == 0 else omega0
        space = HilbertSpace(int(rng.integers(0, 200)))
        p = _kron_primitives(space)
        a_sp, a_sm = p["a"] @ p["sp"], p["a"] @ p["sm"]  # a commutes with s-+, so a^dag s- = (a s+)^T and a^dag s+ = (a s-)^T
        h = omega * (p["ata"] + 0.5 * p["eye"]) + omega0 * p["sz"] + g_r * (a_sp + a_sp.T) + g_c * (a_sm + a_sm.T)
        h_rf = build_effective(ModelParams(omega / 2, omega0 / 2, g_r), space)[0].entries
        h_crf = build_effective(ModelParams(omega / 2, omega0 / 2, g_c), space)[1].entries
        assert np.max(np.abs(h_rf + h_crf - h)) <= 4 * unit_roundoff * np.max(np.abs(h)), draw


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

    def test_rejects_a_bool_exponent_by_name(self):
        with pytest.raises(ValueError, match="^parity exponent k must be an integer >= 1, got True"):
            build_parity(HilbertSpace(2), True)


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
        "ata": np.kron(np.diag(np.arange(float(n_ph))), np.eye(2)),  # the exact integers, not a.T @ a
        "sz": np.kron(eye_ph, np.diag([-0.5, 0.5])),
        "sm": np.kron(eye_ph, np.array([[0.0, 1.0], [0.0, 0.0]])),
        "sp": np.kron(eye_ph, np.array([[0.0, 0.0], [1.0, 0.0]])),
        "eye": np.eye(space.dim),
    }


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 40, 70])
def test_primitive_matrices_equal_the_kron_construction(n_max):
    space = HilbertSpace(n_max)
    reference = _kron_primitives(space)
    a, ad = fock_operators(space)
    s_z, s_minus, s_plus = qubit_operators(space)
    for op, name in ((a, "a"), (ad, "ad"), (s_z, "sz"), (s_minus, "sm"), (s_plus, "sp")):
        assert op.entries.dtype == np.float64 and op.hermitian == (name == "sz"), name
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


def test_frame_conjugation_over_no_times_is_zero():
    for t in ([], np.array([]), np.empty((0, 3))):
        assert frame_conjugation_check(FIG_RF, HilbertSpace(4), t) == 0.0


def _dense_frame_conjugation_check(params, space, t):
    """The check on dense d x d operators, one time at a time: the reference the banded check must equal."""
    tt = np.reshape(_times(t), -1)
    terms = space._terms
    h_rabi, h_rf, h_crf = (op.entries for op in _operators(params, space, "rabi", "rf", "crf"))
    w, g = params.omega, params.g
    splits = (
        (terms["n_jc"][0], h_rf, _dense(space, terms["a_sm"]), _dense(space, terms["ad_sp"])),
        (terms["n_ajc"][0], h_crf, _dense(space, terms["a_sp"]), _dense(space, terms["ad_sm"])),
    )
    devs = []
    for tk in tt:
        slow, fast, turn = np.exp(-2j * w * tk), np.exp(2j * w * tk), np.exp(1j * w * tk)
        for numbers, h_eff, lowered, raised in splits:
            # the phase exp(i w t (N_i - N_j)) of entry (i, j), formed only where H_rabi is nonzero
            phases = np.power(turn, numbers[:, None] - numbers[None, :], where=h_rabi != 0, out=np.zeros(h_rabi.shape, complex))
            conjugated = phases * h_rabi
            expected = h_eff + g * (slow * lowered + fast * raised)
            devs.append(np.max(np.abs(conjugated - expected)))
    return float(np.max(devs, initial=0.0))


def _conjugation_params():
    """The figure sets and 20 seeded draws, every fourth on the omega0 = 0 edge xi = -eps/2."""
    rng = np.random.default_rng(2901)
    drawn = []
    for i in range(20):
        eps = 10.0 ** rng.uniform(-2.0, 2.0)
        drawn.append(ModelParams.from_dimensionless(-0.5 * eps + (0.0 if i % 4 == 0 else rng.uniform(0.0, 3.5)), eps))
    assert sum(p.omega0 == 0.0 for p in drawn) == 5
    return [FIG_RF, FIG_CRF, *drawn]


@pytest.mark.parametrize("n_max", [0, 1, 2, 20, 60, 130])
@pytest.mark.parametrize("times", ["none", "scalar", "20", "3d+1"])
def test_banded_frame_conjugation_equals_the_dense_check_bit_for_bit(n_max, times):
    space = HilbertSpace(n_max)
    rng = np.random.default_rng(n_max)
    t = {"none": np.array([]), "scalar": float(rng.uniform(0.0, 30.0)), "20": rng.uniform(0.0, 30.0, size=20),
         "3d+1": rng.uniform(0.0, 30.0, size=3 * space.dim + 1)}[times]  # 3d + 1 times span four blocks of d
    # the dense reference takes about 1.7 s per set for 3d + 1 times at n_max = 130, so the wide
    # spaces run the many-block set on one figure set
    cases = [FIG_CRF] if times == "3d+1" and n_max >= 60 else _conjugation_params()
    for params in cases:
        assert frame_conjugation_check(params, space, t) == _dense_frame_conjugation_check(params, space, t), params


@pytest.mark.parametrize("n_max", [200, 400])
def test_frame_conjugation_stays_at_roundoff_in_wide_spaces(n_max):
    # the phase of each band entry comes from the small integer N_i - N_j, not from the angles w t N up to w t (n_max + 2)
    space = HilbertSpace(n_max)
    times = np.random.default_rng(n_max).uniform(0.0, 30.0, size=20)
    for params in (FIG_RF, FIG_CRF):
        assert frame_conjugation_check(params, space, times) <= 1e-13, params


def _off_by_one_number(build):
    """A term-table property whose n_jc is one too large at a single basis index, on `build`'s uncached table."""
    def terms_of(space):
        terms = build(space)
        terms["n_jc"] = {0: terms["n_jc"][0].copy()}
        terms["n_jc"][0][space.dim // 2] += 1.0
        return terms
    return property(terms_of)


@pytest.mark.parametrize("wrong", ["rf coupling 1 % off", "n_jc off by one"])
def test_frame_conjugation_detects_a_wrong_operator(monkeypatch, wrong):
    if wrong == "rf coupling 1 % off":
        monkeypatch.setitem(model._FORMULAS, "rf", lambda p, t: p.omega * t["n_jc"] + p.delta * t["sz"] + 1.01 * p.g * t["jc"])
    else:
        monkeypatch.setattr(HilbertSpace, "_terms", _off_by_one_number(HilbertSpace._terms.func))
    times = np.random.default_rng(5).uniform(0.0, 30.0, size=20)
    for params in (FIG_RF, FIG_CRF):
        assert frame_conjugation_check(params, HilbertSpace(20), times) > 1e-3, params


def _reference_operators(params, space):
    """Every builder and the raw observable set written out term by term from
    the kron primitives, each interaction product formed by its own matmul."""
    p = _kron_primitives(space)
    n_jc = p["ata"] + p["sp"] @ p["sm"]
    n_ajc = p["ata"] + p["eye"] + p["sm"] @ p["sp"]
    w, w0, g, delta, delta_bar = params.omega, params.omega0, params.g, params.delta, params.delta_bar
    return {
        "rabi": [w * (p["ata"] + 0.5 * p["eye"]) + w0 * p["sz"] + g * (p["a"] + p["ad"]) @ (p["sm"] + p["sp"])],
        "number": [n_jc, n_ajc],
        "components": [
            w * n_jc + delta * p["sz"] + 2.0 * g * (p["a"] @ p["sp"] + p["ad"] @ p["sm"]) - 0.5 * w * p["eye"],
            w * n_ajc + delta_bar * p["sz"] + 2.0 * g * (p["a"] @ p["sm"] + p["ad"] @ p["sp"]) - 0.5 * w * p["eye"],
        ],
        "effective": [
            w * n_jc + delta * p["sz"] + g * (p["a"] @ p["sp"] + p["ad"] @ p["sm"]),
            w * (n_ajc - p["eye"]) + delta_bar * p["sz"] + g * (p["a"] @ p["sm"] + p["ad"] @ p["sp"]),
        ],
        "transition": [
            delta * p["sz"] + g * (p["a"] @ p["sp"] + p["ad"] @ p["sm"]),
            delta_bar * p["sz"] + g * (p["a"] @ p["sm"] + p["ad"] @ p["sp"]),
        ],
        "observables": [
            p["sz"], p["sp"] @ p["sm"], p["sm"] @ p["sp"], p["ata"], p["ata"] + p["eye"], n_jc, n_ajc,
        ],
    }


def _built_operators(params, space):
    """Every builder's output and the raw observable set, keyed like `_reference_operators`."""
    return {
        "rabi": [build_rabi(params, space)],
        "number": list(build_number_ops(space)),
        "components": list(build_components(params, space)),
        "effective": list(build_effective(params, space)),
        "transition": list(build_transition_ops(params, space)),
        "observables": list(standard_observables(space).values()),
    }


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 40])
@pytest.mark.parametrize(
    "params",
    [
        FIG_RF,
        FIG_CRF,
        ModelParams.from_dimensionless(-0.08, 0.16),  # omega0 = 0
        ModelParams(omega=1.7, omega0=0.3, g=0.9),
    ],
)
def test_builders_equal_the_term_by_term_reference(params, n_max):
    space = HilbertSpace(n_max)
    built = _built_operators(params, space)
    reference = _reference_operators(params, space)
    assert built.keys() == reference.keys()
    for kind, ops in built.items():
        assert len(ops) == len(reference[kind]), kind
        for op, expected in zip(ops, reference[kind]):
            assert op.hermitian, kind
            assert np.array_equal(op.entries, expected), kind
    assert list(standard_observables(space)) == ["s_z", "sp_sm", "sm_sp", "ad_a", "a_ad", "n_jc", "n_ajc"]


def _reference_terms(space):
    """The term table written out from the kron primitives, each product by its own matmul."""
    p = _kron_primitives(space)
    a_ad = p["ata"] + p["eye"]
    sp_sm, sm_sp = p["sp"] @ p["sm"], p["sm"] @ p["sp"]
    a_sp, ad_sm, a_sm, ad_sp = p["a"] @ p["sp"], p["ad"] @ p["sm"], p["a"] @ p["sm"], p["ad"] @ p["sp"]
    return {
        **p, "sp_sm": sp_sm, "sm_sp": sm_sp, "a_ad": a_ad,
        "n_jc": p["ata"] + sp_sm, "n_ajc": a_ad + sm_sp, "a_sp": a_sp, "ad_sm": ad_sm, "a_sm": a_sm,
        "ad_sp": ad_sp, "jc": a_sp + ad_sm, "ajc": a_sm + ad_sp,
    }


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 40])
def test_term_table_is_banded_and_densifies_to_the_kron_construction(n_max):
    space = HilbertSpace(n_max)
    table = space._terms
    reference = _reference_terms(space)
    assert table.keys() == reference.keys()
    for name, bands in table.items():
        assert set(bands) <= {0, 1, -1, 2, -2, 3, -3}, name
        for k, vector in bands.items():
            assert vector.dtype == np.float64 and vector.shape == (max(space.dim - abs(k), 0),), name
        dense = _dense(space, bands)
        assert dense.dtype == np.float64
        assert np.array_equal(dense, reference[name]), name


def test_term_table_is_linear_in_the_dimension():
    space = HilbertSpace(1000)
    total = sum(vector.nbytes for bands in space._terms.values() for vector in bands.values())
    assert total < 64 * space.dim * 8


@settings(deadline=None, max_examples=40)
@given(
    log_eps=st.floats(min_value=-3.0, max_value=8.0),
    lift=st.floats(min_value=0.0, max_value=3.0),
    g=st.floats(min_value=0.1, max_value=10.0),
    n_max=st.integers(min_value=0, max_value=60),
)
def test_builders_equal_the_reference_over_the_domain(log_eps, lift, g, n_max):
    # xi = -eps/2 + lift * eps reaches down to the omega0 = 0 edge at lift = 0
    eps = 10.0**log_eps
    params = ModelParams.from_dimensionless(-0.5 * eps + lift * eps, eps, g=g)
    space = HilbertSpace(n_max)
    built = _built_operators(params, space)
    reference = _reference_operators(params, space)
    for kind, ops in built.items():
        for op, expected in zip(ops, reference[kind], strict=True):
            assert op.hermitian, kind
            assert np.array_equal(op.entries, expected), kind


@pytest.mark.parametrize("t", [[np.nan], [0.0, np.inf], np.nan])
def test_frame_conjugation_check_rejects_a_non_finite_time(t):
    with pytest.raises(ValueError, match="^times must be finite$"):
        frame_conjugation_check(FIG_RF, HilbertSpace(3), t)
