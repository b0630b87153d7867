"""Truncated Fock (x) qubit Hilbert space as dense complex matrices.

Basis convention: |atom, n> sits at index 2*n + (1 if atom == 'e' else 0),
with photon numbers 0..n_max, so tightening or relaxing the truncation only
removes or appends trailing rows and columns. All frequencies are angular
with hbar = 1. States and operators are dense arrays, formed from an O(d)
table of banded terms (`_terms`) only where an operator is built.
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
_HERMITICITY_BLOCK = 256  # rows per step of the construction-time Hermiticity check
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
        """Photon number carried by each basis index."""
        return np.repeat(np.arange(self.n_max + 1), 2)

    def excited_mask(self) -> np.ndarray:
        """Boolean mask over basis indices where the atom is excited."""
        return np.tile(np.array([False, True]), self.n_max + 1)


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

    def normalized(self) -> StateVector:
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amps / nrm)


def _is_real_scalar(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) or (
        isinstance(value, (complex, np.complexfloating)) and value.imag == 0.0
    )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense square operator with an enforced Hermitian tag.

    Setting hermitian=True asserts max |M - M^dag| <= 1e-13 entrywise at
    construction and unlocks the Hermitian-only routines (`evolve_with`,
    `expectation`). Products drop the tag; sums and real scalings keep it.
    """

    space: HilbertSpace
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128)
        d = self.space.dim
        if entries.shape != (d, d):
            raise ValueError(f"expected {d}x{d} entries, got shape {entries.shape}")
        if self.hermitian:  # row blocks bound the check's temporaries to _HERMITICITY_BLOCK x d
            dev = float(reduce(np.maximum, (
                np.max(np.abs(entries[i:i + _HERMITICITY_BLOCK] - entries[:, i:i + _HERMITICITY_BLOCK].conj().T))
                for i in range(0, d, _HERMITICITY_BLOCK)
            )))
            if not dev <= HERMITICITY_TOL:  # a NaN deviation fails too
                raise HermiticityError(
                    f"hermitian tag violated, max entrywise deviation {dev:.3e}"
                )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    def dagger(self) -> OperatorMatrix:
        return OperatorMatrix(self.space, self.entries.conj().T, self.hermitian)

    def apply(self, psi: StateVector) -> StateVector:
        _require_same_space(self.space, psi.space)
        return StateVector(self.space, self.entries @ psi.amps)

    def __matmul__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_space(self.space, other.space)
        return OperatorMatrix(self.space, self.entries @ other.entries)

    def __add__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_space(self.space, other.space)
        return OperatorMatrix(
            self.space,
            self.entries + other.entries,
            self.hermitian and other.hermitian,
        )

    def __sub__(self, other: OperatorMatrix) -> OperatorMatrix:
        _require_same_space(self.space, other.space)
        return OperatorMatrix(
            self.space,
            self.entries - other.entries,
            self.hermitian and other.hermitian,
        )

    def __mul__(self, scalar) -> OperatorMatrix:
        return OperatorMatrix(
            self.space,
            self.entries * scalar,
            self.hermitian and _is_real_scalar(scalar),
        )

    __rmul__ = __mul__

    def __neg__(self) -> OperatorMatrix:
        return OperatorMatrix(self.space, -self.entries, self.hermitian)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries)))

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.entries)


def basis_state(space: HilbertSpace, atom: str, n: int) -> StateVector:
    """Unit vector |atom, n>."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(atom, n)] = 1.0
    return StateVector(space, amps)


def identity(space: HilbertSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim), hermitian=True)


def _terms(space: HilbertSpace) -> dict[str, dict[int, np.ndarray]]:
    """The term table every operator of the model is a weighted sum of, O(d).

    Each term is held as its nonzero diagonals {offset k: entries (i, i + k)},
    all on the offsets 0, +-1, +-2 and +-3; `_dense` gives its matrix, equal
    bit for bit to the kron/matmul construction. Keys: a, ad (a^dag), ata
    (a^dag a, held as sqrt(n)**2 like the product ad @ a), eye, sz, sm (s-),
    sp (s+); the projectors sp_sm (s+ s-) and sm_sp (s- s+); a_ad, the
    algebraic a^dag a + 1; the conserved numbers n_jc and n_ajc; the
    interaction half-products a_sp, ad_sm, a_sm, ad_sp and their sums
    jc = a s+ + a^dag s- and ajc = a s- + a^dag s+.
    """
    n, excited = space.photon_numbers().astype(float), space.excited_mask()
    root, sp_sm, sm_sp = np.sqrt(n), excited.astype(float), (~excited).astype(float)
    ata = root**2
    # sqrt(n + 1) couples |e, n> to |g, n + 1> (offset 1) and |g, n> to |e, n + 1> (offset 3)
    jc, ajc = np.where(excited, np.sqrt(n + 1.0), 0.0)[:-1], np.where(excited, 0.0, np.sqrt(n + 1.0))[:-3]
    return {
        "a": {2: root[2:]}, "ad": {-2: root[2:]}, "ata": {0: ata}, "eye": {0: np.ones(space.dim)},
        "sz": {0: np.where(excited, 0.5, -0.5)}, "sm": {1: sm_sp[:-1]}, "sp": {-1: sm_sp[:-1]},
        "sp_sm": {0: sp_sm}, "sm_sp": {0: sm_sp}, "a_ad": {0: ata + 1.0}, "n_jc": {0: ata + sp_sm},
        "n_ajc": {0: (ata + 1.0) + sm_sp}, "a_sp": {1: jc}, "ad_sm": {-1: jc}, "a_sm": {3: ajc}, "ad_sp": {-3: ajc},
        "jc": {1: jc, -1: jc}, "ajc": {3: ajc, -3: ajc},
    }


def _dense(space: HilbertSpace, bands: dict[int, np.ndarray]) -> np.ndarray:
    """The d x d matrix holding each {offset: vector} band on its diagonal, zero elsewhere."""
    matrix = np.zeros((space.dim, space.dim))
    for k, vector in bands.items():
        i = np.arange(max(space.dim - abs(k), 0))
        matrix[i + max(-k, 0), i + max(k, 0)] = vector
    return matrix


def primitive_matrices(space: HilbertSpace) -> dict[str, np.ndarray]:
    """Real ladder and qubit matrices: the `_terms` keys a, ad, ata, sz, sm,
    sp and eye, each equal to its kron(photon, qubit) construction bit for bit."""
    t = _terms(space)
    return {key: _dense(space, t[key]) for key in ("a", "ad", "ata", "sz", "sm", "sp", "eye")}


def fock_operators(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Annihilation and creation operators on the photon factor.

    a|n> = sqrt(n)|n-1> and its adjoint. In the truncated space a^dag a is
    exact on every level, while a a^dag is wrong on the top level; prefer
    the algebraic forms from the model builders when that matters.
    """
    p = primitive_matrices(space)
    return OperatorMatrix(space, p["a"]), OperatorMatrix(space, p["ad"])


def qubit_operators(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Spin-z, lowering, and raising operators on the qubit factor.

    s_z has eigenvalues -1/2 on |g> and +1/2 on |e>; s_minus maps |e> to |g>.
    """
    p = primitive_matrices(space)
    return (
        OperatorMatrix(space, p["sz"], hermitian=True),
        OperatorMatrix(space, p["sm"]),
        OperatorMatrix(space, p["sp"]),
    )


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


def _propagate(hamiltonian: OperatorMatrix, psi0: StateVector, times) -> np.ndarray:
    """Rows exp(-i H t) psi0 for every finite t, from the one eigendecomposition of a
    hermitian-tagged H (never symmetrized) in psi0's space."""
    if not hamiltonian.hermitian:
        raise HermiticityError("propagation requires a hermitian-tagged operator")
    _require_same_space(hamiltonian.space, psi0.space)
    tt = _times(times)
    evals, vecs = hamiltonian._eigh
    return (np.exp(-1j * np.outer(tt, evals)) * (vecs.conj().T @ psi0.amps)) @ vecs.T


def evolve_with(hamiltonian: OperatorMatrix, psi0: StateVector, t: float) -> StateVector:
    """Propagate psi0 by exp(-i H t) through a Hermitian eigendecomposition.

    An untagged operator, another space or a non-finite t raises (`_propagate`);
    norm is preserved to roundoff. Calls on one operator share its single
    decomposition; for many times at once use `oracle.propagate_series`.
    """
    return StateVector(psi0.space, _propagate(hamiltonian, psi0, [t])[0])


def _expectations(amps: np.ndarray, ops: dict[str, OperatorMatrix | np.ndarray]) -> dict[str, np.ndarray]:
    """Expectation value of every named operator on every row of a (T, d) array.

    An operator given as a real vector is a diagonal and scales each row,
    O(T d); so does an OperatorMatrix whose entries are exactly diagonal.
    An OperatorMatrix with an off-diagonal entry is applied to the whole
    stack in one dense matrix product, O(T d^2) in BLAS. Every image goes
    through the same row-wise reduction against the bras, formed once per
    trajectory, so the diagonal path keeps the dense path's rounding. On
    every path an imaginary residue above IMAG_TOL raises
    NumericConsistencyError.
    """
    bra = amps.conj()
    out = {}
    for name, op in ops.items():
        if isinstance(op, np.ndarray):
            image = amps * op
        elif (entries := op.entries).reshape(-1)[:-1].reshape(-1, entries.shape[0] + 1)[:, 1:].any():
            # the flat matrix holds the off-diagonal entries between consecutive diagonal ones
            image = amps @ entries.T
        else:
            image = amps * np.diagonal(entries)
        values = np.einsum("ti,ti->t", bra, image)
        residue = float(np.max(np.abs(values.imag), initial=0.0))
        if residue > IMAG_TOL:
            raise NumericConsistencyError(f"<{name}> has imaginary residue {residue:.3e}")
        out[name] = values.real
    return out


def expectation(psi: StateVector, op: OperatorMatrix) -> float:
    """Real expectation value <psi|op|psi> of a Hermitian operator on a unit state.

    One row of `_expectations`: the imaginary residue must sit below
    IMAG_TOL (it is pure roundoff for a Hermitian operator); it is asserted
    and then discarded.
    """
    if not op.hermitian:
        raise HermiticityError("expectation requires a hermitian-tagged operator")
    _require_same_space(psi.space, op.space)
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise NumericConsistencyError(f"state norm {psi.norm()!r} is not 1")
    return float(_expectations(psi.amps[None, :], {"op": op})["op"][0])
