"""Truncated Fock (x) qubit Hilbert space as dense complex matrices.

Basis convention: |atom, n> sits at index 2*n + (1 if atom == 'e' else 0),
with photon numbers 0..n_max, so tightening or relaxing the truncation only
removes or appends trailing rows and columns. All frequencies are angular
with hbar = 1; states and operators are plain dense arrays because the
spaces of interest stay small (tens of photons).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, NumericConsistencyError, TruncationError

HERMITICITY_TOL = 1e-13
IMAG_TOL = 1e-12
NORM_TOL = 1e-10

ATOMS = ("g", "e")


@dataclass(frozen=True)
class HilbertSpace:
    """Fock (x) qubit space keeping photon numbers 0..n_max."""

    n_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)

    def index(self, atom: str, n: int) -> int:
        """Basis index of |atom, n> with atom in {'g', 'e'}."""
        if atom not in ATOMS:
            raise ValueError(f"atom must be 'g' or 'e', got {atom!r}")
        if not 0 <= n <= self.n_max:
            raise TruncationError(
                f"photon number {n} outside truncated range 0..{self.n_max}"
            )
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
        if self.hermitian:
            dev = float(np.max(np.abs(entries - entries.conj().T)))
            if dev > HERMITICITY_TOL:
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


def basis_state(space: HilbertSpace, atom: str, n: int) -> StateVector:
    """Unit vector |atom, n>."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(atom, n)] = 1.0
    return StateVector(space, amps)


def identity(space: HilbertSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim), hermitian=True)


def primitive_matrices(space: HilbertSpace) -> dict[str, np.ndarray]:
    """Real ladder and qubit matrices every operator builder starts from.

    Keys: a, ad (a^dag), ata (a^dag a), sz, sm (s-), sp (s+), eye; ad and
    sp are transposed views. Entries are set by index in the interleaved
    basis, so they equal the kron(photon, qubit) construction bit for bit;
    ata holds sqrt(n)**2, exactly the diagonal of the product ad @ a.
    """
    d = space.dim
    idx = np.arange(d)
    root = np.sqrt(space.photon_numbers()[2:].astype(float))
    a = np.zeros((d, d))
    a[idx[:-2], idx[2:]] = root
    ata = np.zeros((d, d))
    ata[idx[2:], idx[2:]] = root * root
    sz = np.diag(np.where(space.excited_mask(), 0.5, -0.5))
    sm = np.zeros((d, d))
    sm[idx[0::2], idx[1::2]] = 1.0
    return {
        "a": a,
        "ad": a.T,
        "ata": ata,
        "sz": sz,
        "sm": sm,
        "sp": sm.T,
        "eye": np.eye(d),
    }


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


def _propagate(entries: np.ndarray, amps0: np.ndarray, times) -> np.ndarray:
    """Rows exp(-i H t) psi0 for every t, from one Hermitian eigendecomposition."""
    evals, vecs = np.linalg.eigh(entries)
    coeffs = vecs.conj().T @ amps0
    return (np.exp(-1j * np.outer(times, evals)) * coeffs) @ vecs.T


def evolve_with(hamiltonian: OperatorMatrix, psi0: StateVector, t: float) -> StateVector:
    """Propagate psi0 by exp(-i H t) through a Hermitian eigendecomposition.

    Rejects operators without the hermitian tag rather than symmetrizing;
    norm is preserved to roundoff. For many times on one Hamiltonian use
    `oracle.propagate_series`, which decomposes once.
    """
    if not hamiltonian.hermitian:
        raise HermiticityError("evolve_with requires a hermitian-tagged operator")
    _require_same_space(hamiltonian.space, psi0.space)
    return StateVector(psi0.space, _propagate(hamiltonian.entries, psi0.amps, [t])[0])


def expectation(psi: StateVector, op: OperatorMatrix) -> float:
    """Real expectation value <psi|op|psi> of a Hermitian operator.

    The imaginary residue must sit below 1e-12 (it is pure roundoff for a
    Hermitian operator); it is asserted and then discarded.
    """
    if not op.hermitian:
        raise HermiticityError("expectation requires a hermitian-tagged operator")
    _require_same_space(psi.space, op.space)
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise NumericConsistencyError(f"state norm {psi.norm()!r} is not 1")
    value = complex(np.vdot(psi.amps, op.entries @ psi.amps))
    if abs(value.imag) > IMAG_TOL:
        raise NumericConsistencyError(
            f"expectation of a hermitian operator has imaginary residue {value.imag:.3e}"
        )
    return value.real
