"""Basis bookkeeping, operator arithmetic, and the dense propagator."""

import dataclasses
import re

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
from qrmframes.analytic import initial_state
from qrmframes.hilbert import _evolve_eigen, _expectations, _propagate
from qrmframes.model import (
    ModelParams,
    build_components,
    build_effective,
    build_number_ops,
    build_parity,
    build_rabi,
    build_transition_ops,
)
from qrmframes.oracle import standard_observables


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
    assert StateVector(space, psi.amps / psi.norm()).norm() == pytest.approx(1.0, abs=1e-15)


def test_overlap_is_conjugate_linear():
    space = HilbertSpace(1)
    amps = np.array([1j, 0, 0, 0])
    a = StateVector(space, amps / np.linalg.norm(amps))
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
    anticomm = (s_plus @ s_minus).entries + (s_minus @ s_plus).entries
    assert_allclose(anticomm, np.eye(space.dim), atol=1e-15)
    assert_allclose(commutator(s_plus, s_minus).entries, 2.0 * s_z.entries, atol=1e-15)
    assert s_z.hermitian and not (s_z @ s_z).hermitian  # products drop the tag by design


def test_commutator_of_anything_with_itself_vanishes():
    space = HilbertSpace(2)
    _, s_minus, _ = qubit_operators(space)
    assert np.max(np.abs(commutator(s_minus, s_minus).entries)) == 0.0


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


def test_hermiticity_check_reaches_the_last_row_block():
    space = HilbertSpace(150)  # d = 302: row blocks 0..255 and 256..301
    entries = np.eye(space.dim)
    entries[300, 290] = 3e-13  # its mirror (290, 300) sits in the last block too
    with pytest.raises(HermiticityError, match="max entrywise deviation 3.000e-13"):
        OperatorMatrix(space, entries, hermitian=True)
    entries[300, 290] = 5e-14
    assert OperatorMatrix(space, entries, hermitian=True).hermitian


def test_hermiticity_check_rejects_nan():
    space = HilbertSpace(150)
    entries = np.eye(space.dim)
    entries[3, 7] = np.nan
    entries[300, 290] = 1.0  # asymmetric by 1.0, in the other row block
    with pytest.raises(HermiticityError, match="max entrywise deviation nan"):
        OperatorMatrix(space, entries, hermitian=True)


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
        amps0 = rng.standard_normal(space.dim)
        psi0 = StateVector(space, amps0 / np.linalg.norm(amps0))
        for t in (0.1, 1.0, 10.0):
            assert abs(evolve_with(h, psi0, t).norm() - 1.0) <= 1e-12


def test_evolve_with_composes_over_time():
    rng = np.random.default_rng(7)
    space = HilbertSpace(9)
    raw = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal(
        (space.dim, space.dim)
    )
    h = OperatorMatrix(space, 0.5 * (raw + raw.conj().T), hermitian=True)
    amps0 = rng.standard_normal(space.dim)
    psi0 = StateVector(space, amps0 / np.linalg.norm(amps0))
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
    doubled = OperatorMatrix(space, 2.0 * h.entries, hermitian=True)
    amps0 = rng.standard_normal(space.dim)
    psi0 = StateVector(space, amps0 / np.linalg.norm(amps0))
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


@pytest.mark.parametrize("n", [1.5, True, np.float64(1.0), "1"])
def test_index_rejects_a_non_integer_photon_number(n):
    space = HilbertSpace(3)
    with pytest.raises(ValueError, match="^" + re.escape(f"n must be a non-negative integer, got {n!r}")):
        space.index("e", n)
    with pytest.raises(ValueError, match="^n must be a non-negative integer"):
        basis_state(space, "e", n)


@pytest.mark.parametrize("n", [-1, 4, np.int64(7)])
def test_index_keeps_truncation_errors_for_integers_out_of_range(n):
    with pytest.raises(TruncationError):
        HilbertSpace(3).index("g", n)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_evolve_with_rejects_a_non_finite_time(t):
    space = HilbertSpace(2)
    h_rf, _ = build_effective(ModelParams(1.0, 0.5), space)
    with pytest.raises(ValueError, match="^times must be finite$"):
        evolve_with(h_rf, basis_state(space, "e", 0), t)


def _decomposed_sectors(op: OperatorMatrix) -> list:
    """op's sector table once a state with weight on every basis index has been propagated."""
    evolve_with(op, StateVector(op.space, np.full(op.space.dim, op.space.dim**-0.5)), 0.0)
    return op._sectors


def test_eigh_is_real_for_real_entries_and_complex_otherwise():
    rng = np.random.default_rng(5)
    space = HilbertSpace(4)
    raw = rng.standard_normal((space.dim, space.dim))
    real = OperatorMatrix(space, raw + raw.T, hermitian=True)
    imag = 1j * rng.standard_normal((space.dim, space.dim))
    complex_ = OperatorMatrix(space, real.entries + imag - imag.T, hermitian=True)
    assert real.entries.dtype == _decomposed_sectors(real)[0][1][1].dtype == np.float64
    assert complex_.entries.dtype == _decomposed_sectors(complex_)[0][1][1].dtype == np.complex128
    for op in (real, complex_):
        [[index, (evals, vecs)]] = op._sectors
        assert index == slice(None)  # random entries couple the parity sectors
        assert np.max(np.abs(op.entries @ vecs - vecs * evals)) <= 1e-12
    # a real model Hamiltonian decomposes per parity sector, each block in the real solver
    h_rf = build_effective(ModelParams.from_dimensionless(0.3, 0.16), space)[0]
    for index, (evals, vecs) in _decomposed_sectors(h_rf):
        assert vecs.dtype == np.float64 and vecs.shape == (space.dim // 2, space.dim // 2)
        assert np.max(np.abs(h_rf.entries[np.ix_(index, index)] @ vecs - vecs * evals)) <= 1e-12
    # the entries' dtype follows the input: real (integer included) is float64, complex stays complex128
    assert OperatorMatrix(space, np.eye(space.dim, dtype=int)).entries.dtype == np.float64
    assert OperatorMatrix(space, np.eye(space.dim, dtype=np.complex64)).entries.dtype == np.complex128
    params = ModelParams.from_dimensionless(0.3, 0.16)
    model_ops = (build_rabi(params, space), *build_components(params, space), *build_effective(params, space),
                 *build_number_ops(space), *build_transition_ops(params, space), build_parity(space, 1),
                 *standard_observables(space).values(), identity(space), *fock_operators(space), *qubit_operators(space))
    assert {op.entries.dtype for op in model_ops} == {np.dtype(np.float64)}
    # the construction-time Hermiticity check holds for either dtype
    for dtype in (np.float64, np.complex128):
        for bad in (np.triu(raw), np.where(np.eye(space.dim, dtype=bool), np.nan, raw + raw.T)):
            with pytest.raises(HermiticityError):
                OperatorMatrix(space, bad.astype(dtype), hermitian=True)


@pytest.mark.parametrize("n_max", [20, 70])  # d = 42 and 142
def test_real_propagation_matches_the_complex_decomposition(n_max):
    rng = np.random.default_rng(n_max)
    space = HilbertSpace(n_max)
    raw = rng.standard_normal((space.dim, space.dim))
    h_rf, h_crf = build_effective(ModelParams.from_dimensionless(0.3, 0.16), space)
    amps0 = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi0 = StateVector(space, amps0 / np.linalg.norm(amps0))
    times = np.linspace(0.0, 25.0, 200)
    for h in (h_rf, h_crf, OperatorMatrix(space, 0.5 * (raw + raw.T), hermitian=True)):
        assert h.entries.dtype == np.float64
        evals, vecs = np.linalg.eigh(h.entries.astype(np.complex128))  # the complex solver on the same entries
        reference = (np.exp(-1j * np.outer(times, evals)) * (vecs.conj().T @ psi0.amps)) @ vecs.T
        rows = _propagate(h, psi0, times)
        assert rows.dtype == np.complex128 and rows.flags.c_contiguous
        assert np.max(np.abs(rows - reference)) <= 1e-13


@pytest.mark.parametrize("n_max", [20, 60, 70])  # d = 42, 122 and 142
def test_sector_propagation_matches_the_whole_matrix(n_max):
    rng = np.random.default_rng(100 + n_max)
    space = HilbertSpace(n_max)
    params = ModelParams.from_dimensionless(0.3, 0.16)
    times = np.linspace(0.0, 25.0, 200)
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    across = StateVector(space, amps / np.linalg.norm(amps))  # weight in both parity sectors
    odd = space.excitations() % 2 == 1
    for h in (*build_effective(params, space), build_rabi(params, space)):
        assert [list(index) for index, _ in h._sectors] == [list(np.flatnonzero(~odd)), list(np.flatnonzero(odd))]
        evals, vecs = np.linalg.eigh(h.entries.astype(np.complex128))  # the complex solver on the whole matrix
        for psi0 in [initial_state(params, space, frame, n) for frame in ("rf", "crf") for n in (0, 1, 5, 40) if n < n_max] + [across]:
            occupied = set(odd[np.flatnonzero(psi0.amps)])
            assert len(occupied) == (2 if psi0 is across else 1)  # each frame's initial state lies in one chain
            reference = (np.exp(-1j * np.outer(times, evals)) * (vecs.conj().T @ psi0.amps)) @ vecs.T
            rows = _propagate(h, psi0, times)
            assert rows.dtype == np.complex128 and rows.shape == (times.size, space.dim)
            assert np.max(np.abs(rows - reference)) <= 1e-13
            assert not rows[:, [p not in occupied for p in odd]].any()  # an empty sector stays exactly zero
        assert all(eig is not None for _, eig in h._sectors)


def test_a_complex_operator_without_cross_blocks_decomposes_per_sector_in_the_complex_solver():
    # H_rf + i B with B real, antisymmetric and zero between the parity sectors: Hermitian and parity-blocked
    rng = np.random.default_rng(12)
    space = HilbertSpace(12)
    odd = space.excitations() % 2 == 1
    raw = np.where(odd[:, None] == odd[None, :], rng.standard_normal((space.dim, space.dim)), 0.0)
    h_rf = build_effective(ModelParams.from_dimensionless(0.3, 0.16), space)[0]
    h = OperatorMatrix(space, h_rf.entries + 1j * (raw - raw.T), hermitian=True)
    assert h.entries.dtype == np.complex128
    assert [list(index) for index, _ in h._sectors] == [list(np.flatnonzero(~odd)), list(np.flatnonzero(odd))]
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi0 = StateVector(space, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, 25.0, 200)
    evals, vecs = np.linalg.eigh(h.entries)  # the complex solver on the whole matrix
    reference = (np.exp(-1j * np.outer(times, evals)) * (vecs.conj().T @ psi0.amps)) @ vecs.T
    assert np.max(np.abs(_propagate(h, psi0, times) - reference)) <= 1e-13
    for _, (_, sector_vecs) in h._sectors:
        assert sector_vecs.dtype == np.complex128 and sector_vecs.shape == (space.dim // 2, space.dim // 2)


def test_each_sector_is_decomposed_once_and_only_when_a_state_needs_it(monkeypatch):
    space = HilbertSpace(10)
    h_rf, _ = build_effective(ModelParams.from_dimensionless(0.3, 0.16), space)
    shapes = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: shapes.append(np.shape(a)) or real_eigh(a, *args, **kw))
    e0, g0 = basis_state(space, "e", 0), basis_state(space, "g", 0)  # odd and even excitation number
    for t in (0.0, 1.5):
        evolve_with(h_rf, e0, t)
    assert [eig is not None for _, eig in h_rf._sectors] == [False, True]
    assert shapes == [(space.dim // 2, space.dim // 2)]
    evolve_with(h_rf, StateVector(space, (e0.amps + g0.amps) / np.sqrt(2.0)), 2.0)
    assert [eig is not None for _, eig in h_rf._sectors] == [True, True] and len(shapes) == 2


# (0, 1) and (1, 0): a single 1e-300 entry of H_crf between |g, 0> (even) and |e, 0> (odd), in either cross block
@pytest.mark.parametrize("kind", ["real symmetric", "complex hermitian", (0, 1), (1, 0)],
                         ids=["real-symmetric", "complex-hermitian", "1e-300-at-0-1", "1e-300-at-1-0"])
def test_operators_coupling_the_sectors_propagate_whole_and_bit_for_bit(kind):
    rng = np.random.default_rng(17)
    space = HilbertSpace(12)
    raw, imag = rng.standard_normal((2, space.dim, space.dim))
    if kind == "real symmetric":
        entries = raw + raw.T
    elif kind == "complex hermitian":
        entries = raw + raw.T + 1j * (imag - imag.T)
    else:
        entries = build_effective(ModelParams.from_dimensionless(0.3, 0.16), space)[1].entries.copy()
        entries[kind] = 1e-300
    h = OperatorMatrix(space, entries, hermitian=True)
    assert [index for index, _ in h._sectors] == [slice(None)]
    amps = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi0 = StateVector(space, amps / np.linalg.norm(amps))
    times = np.linspace(0.0, 10.0, 50)
    rows = _propagate(h, psi0, times)
    assert np.array_equal(rows, _evolve_eigen(*np.linalg.eigh(h.entries), psi0.amps, times))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_an_eigencomponent_is_dropped_only_when_its_coefficient_is_exactly_zero(dtype):
    evals, times = np.array([0.3, -1.7, 2.5]), np.linspace(0.0, 10.0, 7)
    amps0 = np.array([1.0, 1e-300, 0.0], dtype=np.complex128)
    rows = _evolve_eigen(evals, np.eye(3, dtype=dtype), amps0, times)
    assert rows.shape == (times.size, 3) and rows.dtype == np.complex128
    assert_allclose(rows[:, :2], np.exp(-1j * np.outer(times, evals[:2])) * amps0[:2], rtol=1e-15, atol=0.0)
    assert np.all(rows[:, 1] != 0) and not rows[:, 2].any()


def _parent_evolve_eigen(evals, vecs, amps0, times):
    """The propagation rule before zero eigencomponents were dropped, verbatim."""
    if np.iscomplexobj(vecs):
        return (np.exp(-1j * np.outer(times, evals)) * (vecs.conj().T @ amps0)) @ vecs.T
    coeffs = vecs.T @ amps0.real + 1j * (vecs.T @ amps0.imag)
    angles = np.outer(evals, times)
    block = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=block.real)
    np.negative(np.sin(angles, out=block.imag), out=block.imag)
    block *= coeffs[:, None]
    return np.ascontiguousarray((vecs @ block.view(np.float64)).view(np.complex128).T)


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_a_state_with_every_coefficient_nonzero_propagates_bit_for_bit_as_before(complex_entries):
    rng = np.random.default_rng(23)
    d = 30
    raw, imag = rng.standard_normal((2, d, d))
    evals, vecs = np.linalg.eigh(raw + raw.T + (1j * (imag - imag.T) if complex_entries else 0.0))
    assert vecs.dtype == (np.complex128 if complex_entries else np.float64)
    amps0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    assert np.all(vecs.conj().T @ amps0 != 0)
    times = np.linspace(0.0, 25.0, 200)
    assert np.array_equal(_evolve_eigen(evals, vecs, amps0, times), _parent_evolve_eigen(evals, vecs, amps0, times))


@pytest.mark.parametrize("n_max", [20, 70])  # d = 42 and 142
def test_populations_read_the_same_floats_as_the_two_temporary_form(n_max):
    rng = np.random.default_rng(300 + n_max)
    space = HilbertSpace(n_max)
    amps = rng.standard_normal((200, space.dim)) + 1j * rng.standard_normal((200, space.dim))
    diagonals = {name: np.diagonal(op.entries) for name, op in standard_observables(space).items()}
    diagonals["random"] = rng.standard_normal(space.dim)
    series = _expectations(amps, diagonals)
    for name, diagonal in diagonals.items():
        assert np.array_equal(series[name], (amps.real**2 + amps.imag**2) @ np.ascontiguousarray(diagonal)), name
