"""Basis bookkeeping, operator arithmetic, and the dense propagator."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrmframes import (
    HermiticityError,
    HilbertSpace,
    NumericConsistencyError,
    OperatorMatrix,
    StateVector,
    TruncationError,
    basis_state,
    commutator,
    evolve_with,
    expectation,
    fock_operators,
    identity,
    qubit_operators,
)
from qrmframes.model import ModelParams, build_effective, build_number_ops


def test_space_dim_and_indexing():
    space = HilbertSpace(3)
    assert space.dim == 8
    assert space.index("g", 0) == 0
    assert space.index("e", 0) == 1
    assert space.index("g", 1) == 2
    assert space.index("e", 3) == 7


def test_space_rejects_bad_arguments():
    with pytest.raises(ValueError):
        HilbertSpace(-1)
    with pytest.raises(ValueError):
        HilbertSpace(2.5)
    with pytest.raises(ValueError, match="n_max"):
        HilbertSpace(True)
    space = HilbertSpace(2)
    with pytest.raises(ValueError):
        space.index("x", 0)
    with pytest.raises(TruncationError):
        space.index("g", 3)


def test_photon_numbers_and_excited_mask():
    space = HilbertSpace(2)
    assert list(space.photon_numbers()) == [0, 0, 1, 1, 2, 2]
    assert list(space.excited_mask()) == [False, True, False, True, False, True]


def test_basis_state_placement():
    space = HilbertSpace(3)
    psi = basis_state(space, "e", 0)
    assert psi.amplitude("e", 0) == 1.0
    assert psi.norm() == 1.0
    assert np.count_nonzero(psi.amps) == 1
    assert basis_state(space, "g", 1).amps[2] == 1.0
    with pytest.raises(TruncationError):
        basis_state(space, "g", 4)


def test_state_vector_is_immutable():
    space = HilbertSpace(1)
    psi = basis_state(space, "g", 0)
    with pytest.raises(ValueError):
        psi.amps[0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.space = HilbertSpace(2)


def test_state_vector_shape_check_and_normalize():
    space = HilbertSpace(1)
    with pytest.raises(ValueError):
        StateVector(space, np.zeros(3))
    psi = StateVector(space, [2.0, 0.0, 0.0, 0.0])
    assert psi.norm() == 2.0
    assert psi.normalized().norm() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        StateVector(space, np.zeros(4)).normalized()


def test_overlap_is_conjugate_linear():
    space = HilbertSpace(1)
    a = StateVector(space, [1j, 0, 0, 0]).normalized()
    b = StateVector(space, [1.0, 0, 0, 0])
    assert a.overlap(b) == pytest.approx(-1j)
    assert b.overlap(a) == pytest.approx(1j)


def test_ladder_action():
    space = HilbertSpace(3)
    a, ad = fock_operators(space)
    assert_allclose(a.apply(basis_state(space, "g", 1)).amps,
                    basis_state(space, "g", 0).amps)
    lifted = ad.apply(basis_state(space, "e", 1))
    assert lifted.amplitude("e", 2) == pytest.approx(np.sqrt(2.0))
    # annihilator kills the vacuum on both qubit branches
    assert a.apply(basis_state(space, "e", 0)).norm() == 0.0


def test_ladder_commutator_with_truncation_edge():
    # full-matrix diagonal at n_max=2 is (1, 1, -2) per qubit branch
    space = HilbertSpace(2)
    a, ad = fock_operators(space)
    comm = commutator(a, ad).entries
    assert_allclose(comm, np.diag([1.0, 1.0, 1.0, 1.0, -2.0, -2.0]), atol=1e-15)


def test_ladder_identities_on_interior():
    space = HilbertSpace(6)
    a, ad = fock_operators(space)
    num = (ad @ a).entries
    interior = space.photon_numbers() <= space.n_max - 1
    expected = space.photon_numbers().astype(float)
    assert_allclose(np.diag(num)[interior], expected[interior], atol=1e-14)
    comm = commutator(a, ad).entries
    block = comm[np.ix_(interior, interior)]
    assert_allclose(block, np.eye(block.shape[0]), atol=1e-14)


def test_qubit_algebra():
    space = HilbertSpace(3)
    s_z, s_minus, s_plus = qubit_operators(space)
    assert expectation(basis_state(space, "e", 0), s_z) == pytest.approx(0.5)
    assert_allclose(s_plus.apply(basis_state(space, "g", 3)).amps,
                    basis_state(space, "e", 3).amps)
    assert s_plus.apply(basis_state(space, "e", 3)).norm() == 0.0
    anticomm = (s_plus @ s_minus + s_minus @ s_plus).entries
    assert_allclose(anticomm, np.eye(space.dim), atol=1e-15)
    assert_allclose(commutator(s_plus, s_minus).entries, 2.0 * s_z.entries, atol=1e-15)


def test_commutator_of_anything_with_itself_vanishes():
    space = HilbertSpace(2)
    _, s_minus, _ = qubit_operators(space)
    assert commutator(s_minus, s_minus).max_abs() == 0.0


def test_operator_space_mismatch_rejected():
    a2, _ = fock_operators(HilbertSpace(2))
    a3, _ = fock_operators(HilbertSpace(3))
    with pytest.raises(ValueError):
        a2 @ a3


def test_hermitian_tag_enforced_at_construction():
    space = HilbertSpace(0)
    with pytest.raises(HermiticityError):
        OperatorMatrix(space, [[0.0, 1.0], [0.0, 0.0]], hermitian=True)
    op = OperatorMatrix(space, [[0.0, 1.0], [1.0, 0.0]], hermitian=True)
    assert op.hermitian


def test_hermitian_tag_propagation():
    space = HilbertSpace(1)
    s_z, s_minus, _ = qubit_operators(space)
    assert (s_z + s_z).hermitian
    assert (s_z - s_z).hermitian
    assert (2.5 * s_z).hermitian
    assert not (1j * s_z).hermitian
    assert not (s_z @ s_z).hermitian  # products drop the tag by design
    assert (-s_z).hermitian
    assert s_minus.dagger().hermitian is False


def test_evolve_with_identity_at_t0():
    space = HilbertSpace(2)
    psi0 = basis_state(space, "e", 1)
    out = evolve_with(identity(space), psi0, 0.0)
    assert_allclose(out.amps, psi0.amps, atol=1e-15)


def test_evolve_with_diagonal_phase():
    space = HilbertSpace(0)
    energy = 1.7
    h = OperatorMatrix(space, np.diag([0.0, energy]), hermitian=True)
    psi0 = basis_state(space, "e", 0)
    t = 0.9
    out = evolve_with(h, psi0, t)
    assert out.amplitude("e", 0) == pytest.approx(np.exp(-1j * energy * t), abs=1e-14)


def test_evolve_with_resonant_full_flop():
    # omega = 4 g makes the free phase e^{-i omega t} equal 1 at t = pi/(2 g),
    # exposing the bare (0, -i) amplitude pattern of the half flop
    params = ModelParams(omega=4.0, omega0=4.0, g=1.0)
    space = HilbertSpace(4)
    h_rf, _ = build_effective(params, space)
    out = evolve_with(h_rf, basis_state(space, "e", 0), np.pi / 2.0)
    assert abs(out.amplitude("e", 0)) < 1e-13
    assert out.amplitude("g", 1) == pytest.approx(-1j, abs=1e-13)


def test_evolve_with_general_phase_factor():
    params = ModelParams(omega=1.0, omega0=1.0, g=1.0)
    space = HilbertSpace(4)
    h_rf, _ = build_effective(params, space)
    t = np.pi / 2.0
    out = evolve_with(h_rf, basis_state(space, "e", 0), t)
    assert out.amplitude("g", 1) == pytest.approx(-1j * np.exp(-1j * t), abs=1e-13)


def test_evolve_with_rejects_untagged_operator():
    space = HilbertSpace(1)
    _, s_minus, _ = qubit_operators(space)
    with pytest.raises(HermiticityError):
        evolve_with(s_minus, basis_state(space, "g", 0), 1.0)


def test_evolve_with_preserves_norm_random_hermitian():
    rng = np.random.default_rng(42)
    for dim_half in (3, 10, 20):
        space = HilbertSpace(dim_half - 1)
        raw = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
            (space.dim, space.dim)
        )
        h = OperatorMatrix(space, 0.5 * (raw + raw.conj().T), hermitian=True)
        psi0 = StateVector(space, rng.standard_normal(space.dim)).normalized()
        for t in (0.1, 1.0, 10.0):
            assert abs(evolve_with(h, psi0, t).norm() - 1.0) <= 1e-12


def test_evolve_with_composes_over_time():
    rng = np.random.default_rng(7)
    space = HilbertSpace(9)
    raw = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    h = OperatorMatrix(space, 0.5 * (raw + raw.conj().T), hermitian=True)
    psi0 = StateVector(space, rng.standard_normal(space.dim)).normalized()
    t1, t2 = 0.63, 1.91
    two_step = evolve_with(h, evolve_with(h, psi0, t1), t2)
    one_step = evolve_with(h, psi0, t1 + t2)
    assert np.max(np.abs(two_step.amps - one_step.amps)) <= 1e-11


def test_evolve_with_decomposes_each_operator_once(monkeypatch):
    rng = np.random.default_rng(11)
    space = HilbertSpace(6)
    raw = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    h = OperatorMatrix(space, 0.5 * (raw + raw.conj().T), hermitian=True)
    doubled = 2.0 * h
    psi0 = StateVector(space, rng.standard_normal(space.dim)).normalized()
    times = (0.0, 0.4, 3.7)

    def reference(op, t):
        evals, vecs = np.linalg.eigh(op.entries)
        return ((np.exp(-1j * np.outer([t], evals)) * (vecs.conj().T @ psi0.amps)) @ vecs.T)[0]

    expected = {(name, t): reference(op, t) for name, op in (("h", h), ("2h", doubled)) for t in times}
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(1) or real_eigh(a, *args, **kw))
    for t in times:
        assert np.array_equal(evolve_with(h, psi0, t).amps, expected[("h", t)])
    assert len(calls) == 1
    # a scaled copy is a new operator with its own decomposition
    for t in times:
        assert np.array_equal(evolve_with(doubled, psi0, t).amps, expected[("2h", t)])
    assert len(calls) == 2
    assert not np.array_equal(evolve_with(doubled, psi0, 3.7).amps, evolve_with(h, psi0, 3.7).amps)


def test_expectation_trivial_values():
    space = HilbertSpace(2)
    s_z, _, _ = qubit_operators(space)
    n_jc, n_ajc = build_number_ops(space)
    e0 = basis_state(space, "e", 0)
    g0 = basis_state(space, "g", 0)
    assert expectation(e0, s_z) == pytest.approx(0.5)
    assert expectation(e0, n_jc) == pytest.approx(1.0)
    assert expectation(g0, n_ajc) == pytest.approx(2.0)


def test_expectation_guards():
    space = HilbertSpace(1)
    s_z, s_minus, _ = qubit_operators(space)
    with pytest.raises(HermiticityError):
        expectation(basis_state(space, "g", 0), s_minus)
    stretched = StateVector(space, [2.0, 0.0, 0.0, 0.0])
    with pytest.raises(NumericConsistencyError):
        expectation(stretched, s_z)
