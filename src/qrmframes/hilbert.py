"""Truncated Fock (x) qubit Hilbert space as dense matrices: the oracle's kernel.

Basis convention: |atom, n> sits at index 2*n + (1 if atom == 'e' else 0),
with photon numbers 0..n_max, so tightening or relaxing the truncation only
removes or appends trailing rows and columns. All frequencies are angular
with hbar = 1. States and operators are dense arrays, formed only where an
operator is built from an O(d) table of banded terms (`HilbertSpace._terms`),
built once per space. States are complex; an operator is stored float64 when
its input is real (every operator of the model) and complex128 otherwise, and
that dtype alone decides where decomposition, propagation and expectation
values run in real arithmetic.
The one symmetry used is the QRM parity, excitation number mod 2: an
operator's sector table holds both parity sectors when its entries are
exactly zero between them, else the whole space, and a sector's row gains
its decomposition once a state needs it. Propagation then skips every
eigencomponent whose coefficient on the state is exactly zero. Both rules
read only the entries and the state: no JC/AJC doublet is read here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import HermiticityError, NumericConsistencyError, TruncationError

__all__ = [
    "HilbertSpace",
    "StateVector",
    "OperatorMatrix",
    "basis_state",
    "identity",
    "fock_operators",
    "qubit_operators",
    "commutator",
    "evolve_with",
    "expectation",
]

HERMITICITY_TOL = 1e-13
_HERMITICITY_BLOCK = 256  # rows per step of `_hermiticity_deviation`
IMAG_TOL = 1e-12
NORM_TOL = 1e-10

ATOMS = ("g", "e")


def _check_n(n, name: str = "n") -> None:
    """Reject an index that is not a non-negative integer; bool is not one."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")


@dataclass(frozen=True)
class HilbertSpace:
    """Fock (x) qubit space keeping photon numbers 0..n_max."""

    n_max: int

    def __post_init__(self) -> None:
        _check_n(self.n_max, "n_max")

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, atom: str, n: int) -> int:
        """Basis index of |atom, n>, the package's photon-number rule: a bool or
        non-integer n raises ValueError, an integer outside 0..n_max TruncationError."""
        if atom not in ATOMS:
            raise ValueError(f"atom must be 'g' or 'e', got {atom!r}")
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"n must be a non-negative integer, got {n!r}")
        if not 0 <= n <= self.n_max:
            raise TruncationError(f"photon number {n} outside truncated range 0..{self.n_max}")
        return 2 * n + (1 if atom == "e" else 0)

    def photon_numbers(self) -> np.ndarray:
        """Photon number carried by each basis index: n of i = 2n + e."""
        return np.arange(self.dim) // 2

    def excited_mask(self) -> np.ndarray:
        """Boolean mask over basis indices where the atom is excited: e of i = 2n + e."""
        return np.arange(self.dim) % 2 == 1

    def excitations(self) -> np.ndarray:
        """Excitation number a^dag a + s+ s- of each basis index; its parity is the QRM parity."""
        return self.photon_numbers() + self.excited_mask()

    @cached_property
    def _terms(self) -> dict[str, dict[int, np.ndarray]]:
        """The term table every operator of the model is a weighted sum of, O(d), built on first read.

        Each term is held as its read-only nonzero diagonals {offset k: entries (i, i + k)}, all on the offsets
        0, +-1, +-2 and +-3; `_dense` gives its matrix, equal bit for bit to the kron/matmul construction. Keys:
        a, ad (a^dag), ata (a^dag a, held as the exact integers diag(n) (x) 1, not as the roundoff of ad @ a),
        eye, sz, sm (s-), sp (s+); the projectors sp_sm (s+ s-) and sm_sp (s- s+); a_ad, the algebraic
        a^dag a + 1; the conserved numbers n_jc and n_ajc; the interaction half-products a_sp, ad_sm, a_sm,
        ad_sp and their sums jc = a s+ + a^dag s- and ajc = a s- + a^dag s+.
        """
        n, excited = self.photon_numbers().astype(float), self.excited_mask()
        root, sp_sm, sm_sp = np.sqrt(n), excited.astype(float), (~excited).astype(float)
        # sqrt(n + 1) couples |e, n> to |g, n + 1> (offset 1) and |g, n> to |e, n + 1> (offset 3)
        jc, ajc = np.where(excited, np.sqrt(n + 1.0), 0.0)[:-1], np.where(excited, 0.0, np.sqrt(n + 1.0))[:-3]
        table = {
            "a": {2: root[2:]}, "ad": {-2: root[2:]}, "ata": {0: n}, "eye": {0: np.ones(self.dim)},
            "sz": {0: np.where(excited, 0.5, -0.5)}, "sm": {1: sm_sp[:-1]}, "sp": {-1: sm_sp[:-1]},
            "sp_sm": {0: sp_sm}, "sm_sp": {0: sm_sp}, "a_ad": {0: n + 1.0}, "n_jc": {0: n + sp_sm},
            "n_ajc": {0: (n + 1.0) + sm_sp}, "a_sp": {1: jc}, "ad_sm": {-1: jc}, "a_sm": {3: ajc}, "ad_sp": {-3: ajc},
            "jc": {1: jc, -1: jc}, "ajc": {3: ajc, -3: ajc},
        }
        for bands in table.values():
            for vector in bands.values():
                vector.setflags(write=False)
        return table


def _hermiticity_deviation(entries: np.ndarray) -> float:
    """max |M - M^dag| entrywise, NaN if an entry is NaN; row blocks bound the temporaries to _HERMITICITY_BLOCK x d."""
    b = _HERMITICITY_BLOCK
    return float(reduce(np.maximum, (np.max(np.abs(entries[i:i + b] - entries[:, i:i + b].conj().T)) for i in range(0, len(entries), b))))


def _require_same_space(a: HilbertSpace, b: HilbertSpace) -> None:
    if a != b:
        raise ValueError(f"operands live in different spaces: {a} vs {b}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over the interleaved atom (x) photon basis.

    Amplitudes are copied and frozen at construction; build a new vector
    instead of mutating. Physical states carry unit norm, but intermediate
    vectors (operator images, unnormalized sums) are allowed.
    """

    space: HilbertSpace
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"expected {self.space.dim} amplitudes, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: StateVector) -> complex:
        """Inner product <self|other>."""
        _require_same_space(self.space, other.space)
        return complex(np.vdot(self.amps, other.amps))

    def amplitude(self, atom: str, n: int) -> complex:
        return complex(self.amps[self.space.index(atom, n)])


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense square operator with an enforced Hermitian tag.

    Entries are stored float64 when the input is real and complex128 when it
    is complex; the dtype is the one record of whether the operator is real.
    Setting hermitian=True asserts max |M - M^dag| <= 1e-13 entrywise at
    construction and unlocks the Hermitian-only routines `evolve_with`,
    `expectation`, `oracle.propagate_series` and `oracle.observable_series`;
    products drop the tag.
    """

    space: HilbertSpace
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128 if np.iscomplexobj(self.entries) else np.float64)
        d = self.space.dim
        if entries.shape != (d, d):
            raise ValueError(f"expected {d}x{d} entries, got shape {entries.shape}")
        if self.hermitian:
            dev = _hermiticity_deviation(entries)
            if not dev <= HERMITICITY_TOL:  # a NaN deviation fails too
                raise HermiticityError(
                    f"hermitian tag violated, max entrywise deviation {dev:.3e}"
                )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def apply(self, psi: StateVector) -> StateVector:
        _require_same_space(self.space, psi.space)
        return StateVector(self.space, self.entries @ psi.amps)

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_space(self.space, other.space)
        return OperatorMatrix(self.space, self.entries @ other.entries)

    @cached_property
    def _sectors(self) -> list[list]:
        """One row [basis indices, (evals, vecs) or None] per block of the entries:
        the even and the odd QRM parity sector (`HilbertSpace.excitations` mod 2)
        when every entry between them is exactly zero, else the whole space;
        `_propagate` alone fills a row's decomposition, when a state first needs it."""
        parity = self.space.excitations() % 2
        even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity)
        if self.entries[even][:, odd].any() or self.entries[odd][:, even].any():
            return [[slice(None), None]]
        return [[even, None], [odd, None]]


def basis_state(space: HilbertSpace, atom: str, n: int) -> StateVector:
    """Unit vector |atom, n>."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(atom, n)] = 1.0
    return StateVector(space, amps)


def identity(space: HilbertSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim), hermitian=True)


def _dense(space: HilbertSpace, bands: dict[int, np.ndarray]) -> np.ndarray:
    """The d x d matrix holding each {offset: vector} band on its diagonal, zero elsewhere.

    Entry (i, i + k) sits at flat position k + i (d + 1) for k >= 0 and at
    -k d + i (d + 1) below the diagonal, so each band is one strided slice."""
    d = space.dim
    matrix = np.zeros((d, d))
    for k, vector in bands.items():
        matrix.reshape(-1)[k if k >= 0 else -k * d::d + 1][:max(d - abs(k), 0)] = vector
    return matrix


def fock_operators(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation operators on the photon factor.

    a|n> = sqrt(n)|n-1> and its adjoint. In the truncated space a^dag a is
    exact on every level, while a a^dag is wrong on the top level; prefer
    the algebraic forms from the model builders when that matters.
    """
    return OperatorMatrix(space, _dense(space, space._terms["a"])), OperatorMatrix(space, _dense(space, space._terms["ad"]))


def qubit_operators(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Spin-z, lowering, and raising operators on the qubit factor.

    s_z has eigenvalues -1/2 on |g> and +1/2 on |e>; s_minus maps |e> to |g>.
    """
    return tuple(OperatorMatrix(space, _dense(space, space._terms[key]), hermitian=key == "sz") for key in ("sz", "sm", "sp"))


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """[a, b] = a b - b a."""
    _require_same_space(a.space, b.space)
    return OperatorMatrix(a.space, a.entries @ b.entries - b.entries @ a.entries)


def _times(t) -> np.ndarray:
    """Times as a float array; a NaN or infinite time raises ValueError."""
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    return arr


def _evolve_eigen(evals: np.ndarray, vecs: np.ndarray, amps0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(T, d) rows exp(-i E t) (vecs^dag amps0) vecs^T, i.e. exp(-i H t) amps0
    for H = vecs diag(evals) vecs^dag, at every time of a float array.

    Only the eigencomponents a state has are propagated: one whose coefficient
    vecs^dag amps0 is exactly zero (no tolerance; 1e-300 is kept) contributes
    exactly zero and is dropped before the phases are formed, so only the
    summation order can change, and with every coefficient nonzero nothing
    does. The rule reads those coefficients alone, never a doublet. Complex
    vecs then take one complex matrix product. Real vecs project amps0 in real
    arithmetic, take the phases of the k kept components from cos and sin in a
    (k, T) block and apply vecs in one real matrix product on its float64 view;
    the rows are the transposed view of that (d, T) product, not a copy.
    """
    complex_vecs = np.iscomplexobj(vecs)
    coeffs = vecs.conj().T @ amps0 if complex_vecs else vecs.T @ amps0.real + 1j * (vecs.T @ amps0.imag)
    if not (kept := coeffs != 0).all():
        evals, vecs, coeffs = evals[kept], vecs[:, kept], coeffs[kept]
    if complex_vecs:
        return (np.exp(-1j * np.outer(times, evals)) * coeffs) @ vecs.T
    angles = np.outer(evals, times)
    block = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=block.real)
    np.negative(np.sin(angles, out=block.imag), out=block.imag)
    block *= coeffs[:, None]
    return (vecs @ block.view(np.float64)).view(np.complex128).T


def _propagate(hamiltonian: OperatorMatrix, psi0: StateVector, times) -> np.ndarray:
    """C-contiguous rows exp(-i H t) psi0 for every finite t, (T, d), for a
    hermitian-tagged H (never symmetrized) in psi0's space; a real H propagates
    in real arithmetic.

    Each row of H's sector table (`OperatorMatrix._sectors`) where psi0 has a
    nonzero amplitude fills its own columns by `_evolve_eigen`, decomposing its
    block into that row on first use (the dtype picks the real or the complex
    solver); the other columns stay exactly zero, as they would evolve. Within
    a sector only the eigencomponents with a nonzero coefficient are
    propagated (`_evolve_eigen`); like the sectors, that is read from the
    entries and the state, not from any doublet.
    """
    if not hamiltonian.hermitian:
        raise HermiticityError("propagation requires a hermitian-tagged operator")
    _require_same_space(hamiltonian.space, psi0.space)
    tt = _times(times)
    rows = np.zeros((tt.size, psi0.space.dim), dtype=np.complex128)
    for sector in hamiltonian._sectors:
        index, eig = sector
        if (amps0 := psi0.amps[index]).any():
            if eig is None:
                eig = sector[1] = np.linalg.eigh(hamiltonian.entries[index][:, index])
            rows[:, index] = _evolve_eigen(*eig, amps0, tt)
    return rows


def evolve_with(hamiltonian: OperatorMatrix, psi0: StateVector, t: float) -> StateVector:
    """Propagate psi0 by exp(-i H t) through a Hermitian eigendecomposition.

    An untagged operator, another space or a non-finite t raises (`_propagate`);
    norm is preserved to roundoff. Calls on one operator share its single
    decomposition; for many times at once use `oracle.propagate_series`.
    """
    return StateVector(psi0.space, _propagate(hamiltonian, psi0, [t])[0])


def _expectations(amps: np.ndarray, ops: dict[str, OperatorMatrix | np.ndarray]) -> dict[str, np.ndarray]:
    """Expectation value of every named operator on every row of a (T, d) array.

    An operator given as a vector is a diagonal, and so is an OperatorMatrix
    whose entries are exactly diagonal. A diagonal of real dtype is read as
    populations @ diagonal, O(T d) in real arithmetic, from the populations
    |amps|^2 formed once per trajectory: real^2, then imag^2 added in place,
    one (T, d) temporary beside them. Any other operator goes through the
    row-wise complex reduction against the bras: an off-diagonal one after
    one dense matrix product, O(T d^2) in BLAS, a complex diagonal after
    scaling each row. There an imaginary residue above IMAG_TOL raises
    NumericConsistencyError.
    """
    populations = None
    out = {}
    for name, op in ops.items():
        if isinstance(op, np.ndarray):
            diagonal = op
        elif np.count_nonzero(entries := op.entries) != np.count_nonzero(np.diagonal(entries)):
            diagonal = None
        else:
            diagonal = np.diagonal(entries)
        if diagonal is not None and not np.iscomplexobj(diagonal):
            if populations is None:
                populations = np.square(amps.real)
                populations += np.square(amps.imag)
            out[name] = populations @ np.ascontiguousarray(diagonal)
            continue
        image = amps @ entries.T if diagonal is None else amps * diagonal
        values = np.einsum("ti,ti->t", amps.conj(), image)
        residue = float(np.max(np.abs(values.imag), initial=0.0))
        if residue > IMAG_TOL:
            raise NumericConsistencyError(f"<{name}> has imaginary residue {residue:.3e}")
        out[name] = values.real
    return out


def expectation(psi: StateVector, op: OperatorMatrix) -> float:
    """Real expectation value <psi|op|psi> of a Hermitian operator on a unit state.

    One row of `_expectations`: a real-dtype diagonal is read from the populations;
    for any other operator the imaginary residue must sit below IMAG_TOL (it
    is pure roundoff for a Hermitian operator); it is asserted and then
    discarded.
    """
    if not op.hermitian:
        raise HermiticityError("expectation requires a hermitian-tagged operator")
    _require_same_space(psi.space, op.space)
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise NumericConsistencyError(f"state norm {psi.norm()!r} is not 1")
    return float(_expectations(psi.amps[None, :], {"op": op})["op"][0])
