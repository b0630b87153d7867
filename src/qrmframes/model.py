"""Operator constructors for the two-component quantum Rabi model.

The full Rabi Hamiltonian splits symmetrically into a rotating
(Jaynes-Cummings) component and a counter-rotating (anti-Jaynes-Cummings)
component, each carrying its own conserved excitation number and detuning:
delta = omega0 - omega for the rotating part, delta_bar = omega0 + omega for
the counter-rotating part. The counter-rotating number operator is built
algebraically as a^dag a + 1 + s- s+ rather than as the literal product
a a^dag, so every symmetry identity below stays exact under photon
truncation; product forms are only trusted on the interior block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, OperatorMatrix, primitive_matrices

__all__ = [
    "ModelParams",
    "build_rabi",
    "build_components",
    "build_number_ops",
    "build_effective",
    "build_transition_ops",
    "build_parity",
    "frame_conjugation_check",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical frequencies of the Rabi model, angular units with hbar = 1.

    omega: field mode frequency, > 0
    omega0: atomic transition frequency, >= 0
    g: atom-field coupling, > 0; tau = g*t is the dimensionless time axis

    delta_bar is derived as delta + 2*omega so that identity is exact in
    floating point, not merely to rounding.
    """

    omega: float
    omega0: float
    g: float = 1.0

    def __post_init__(self) -> None:
        for name in ("omega", "omega0", "g"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if self.g <= 0:
            raise ValueError(f"g must be > 0, got {self.g}")

    @property
    def delta(self) -> float:
        """Rotating-component detuning omega0 - omega."""
        return self.omega0 - self.omega

    @property
    def delta_bar(self) -> float:
        """Counter-rotating-component detuning omega0 + omega."""
        return self.delta + 2.0 * self.omega

    @property
    def xi(self) -> float:
        """Dimensionless detuning delta / (2 g)."""
        return self.delta / (2.0 * self.g)

    @property
    def epsilon(self) -> float:
        """Dimensionless mode frequency omega / g."""
        return self.omega / self.g

    @classmethod
    def from_dimensionless(cls, xi: float, epsilon: float, g: float = 1.0) -> ModelParams:
        """Build params from (xi, epsilon, g); omega0 = 2 xi g + epsilon g."""
        omega = epsilon * g
        delta = 2.0 * xi * g
        return cls(omega=omega, omega0=delta + omega, g=g)


def _terms(space: HilbertSpace) -> dict[str, np.ndarray]:
    """The JC/AJC term table every operator below is a weighted sum of.

    The `primitive_matrices` keys, plus: the qubit projectors sp_sm (s+ s-)
    and sm_sp (s- s+); a_ad, the algebraic a^dag a + 1; the conserved
    numbers n_jc and n_ajc; the four interaction half-products a_sp, ad_sm,
    a_sm, ad_sp; and their sums jc = a s+ + a^dag s- and ajc = a s- + a^dag s+.
    Every product has at most one nonzero term per entry, so it and every
    sum of them is exact.
    """
    t = primitive_matrices(space)
    t["sp_sm"] = t["sp"] @ t["sm"]
    t["sm_sp"] = t["sm"] @ t["sp"]
    t["a_ad"] = t["ata"] + t["eye"]
    t["n_jc"] = t["ata"] + t["sp_sm"]
    t["n_ajc"] = t["a_ad"] + t["sm_sp"]
    for ladder, qubit in (("a", "sp"), ("ad", "sm"), ("a", "sm"), ("ad", "sp")):
        t[f"{ladder}_{qubit}"] = t[ladder] @ t[qubit]
    t["jc"] = t["a_sp"] + t["ad_sm"]
    t["ajc"] = t["a_sm"] + t["ad_sp"]
    return t


def build_rabi(params: ModelParams, space: HilbertSpace) -> OperatorMatrix:
    """Full Rabi Hamiltonian omega(a^dag a + 1/2) + omega0 s_z + g(a + a^dag)(s- + s+)."""
    t = _terms(space)
    entries = params.omega * (t["ata"] + 0.5 * t["eye"]) + params.omega0 * t["sz"] + params.g * (t["jc"] + t["ajc"])
    return OperatorMatrix(space, entries, hermitian=True)


def build_number_ops(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Conserved excitation numbers of the two components.

    Rotating: a^dag a + s+ s-. Counter-rotating: a^dag a + 1 + s- s+, the
    truncation-exact form; the two differ by 2 s- s+ entrywise.
    """
    t = _terms(space)
    return OperatorMatrix(space, t["n_jc"], hermitian=True), OperatorMatrix(space, t["n_ajc"], hermitian=True)


def build_components(params: ModelParams, space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Rotating and counter-rotating components whose mean is the Rabi Hamiltonian.

    Each component doubles its own interaction term and subtracts omega/2,
    so that (H_rot + H_counter) / 2 reproduces `build_rabi` entrywise.
    """
    t = _terms(space)
    shift = 0.5 * params.omega * t["eye"]
    h_rot = params.omega * t["n_jc"] + params.delta * t["sz"] + 2.0 * params.g * t["jc"] - shift
    h_counter = params.omega * t["n_ajc"] + params.delta_bar * t["sz"] + 2.0 * params.g * t["ajc"] - shift
    return OperatorMatrix(space, h_rot, hermitian=True), OperatorMatrix(space, h_counter, hermitian=True)


def build_effective(params: ModelParams, space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Effective frame Hamiltonians driving the closed-form dynamics.

    Rotating frame: omega N + delta s_z + g(a s+ + a^dag s-).
    Counter-rotating frame: omega (N_bar - 1) + delta_bar s_z + g(a s- + a^dag s+).
    """
    t = _terms(space)
    h_rf = params.omega * t["n_jc"] + params.delta * t["sz"] + params.g * t["jc"]
    h_crf = params.omega * (t["n_ajc"] - t["eye"]) + params.delta_bar * t["sz"] + params.g * t["ajc"]
    return OperatorMatrix(space, h_rf, hermitian=True), OperatorMatrix(space, h_crf, hermitian=True)


def build_transition_ops(params: ModelParams, space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Qubit transition operators generating the Rabi oscillations.

    Rotating: delta s_z + g(a s+ + a^dag s-), squaring to delta^2/4 + g^2 N
    on the interior block. Counter-rotating: delta_bar s_z + g(a s- + a^dag s+),
    squaring to delta_bar^2/4 + g^2 (N_bar - 1) there.
    """
    t = _terms(space)
    t_jc = params.delta * t["sz"] + params.g * t["jc"]
    t_ajc = params.delta_bar * t["sz"] + params.g * t["ajc"]
    return OperatorMatrix(space, t_jc, hermitian=True), OperatorMatrix(space, t_ajc, hermitian=True)


def build_parity(space: HilbertSpace, k: int) -> OperatorMatrix:
    """k-th power of the excitation parity operator exp(-i pi N)^k.

    The rotating number operator has exact integer spectrum, so the
    exponential is evaluated on those integers and the entries are exactly
    +/-1; both number operators give the same parity because they differ
    by an even integer on every basis state.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"parity exponent k must be an integer >= 1, got {k!r}")
    n_vals = space.photon_numbers() + space.excited_mask().astype(int)
    signs = np.where((k * n_vals) % 2 == 0, 1.0, -1.0)
    return OperatorMatrix(space, np.diag(signs), hermitian=True)


def frame_conjugation_check(params: ModelParams, space: HilbertSpace, t) -> float:
    """Deviation of the conjugated Rabi Hamiltonian from its frame split.

    Conjugating with exp(-i omega t N) must leave the rotating effective
    Hamiltonian plus a counter-rotating term oscillating at 2 omega, and
    symmetrically for exp(-i omega t N_bar). t is a time or an array of
    times; returns the worst max-abs entrywise deviation over both frames
    and all times, zero up to roundoff for any t and 0.0 for no times. The
    operators are built once; the times are visited one by one so memory
    stays O(d^2).
    """
    terms = _terms(space)
    h_rabi = build_rabi(params, space).entries
    h_rf, h_crf = (op.entries for op in build_effective(params, space))
    w, g = params.omega, params.g
    splits = (
        (np.diag(terms["n_jc"]), h_rf, terms["a_sm"], terms["ad_sp"]),
        (np.diag(terms["n_ajc"]), h_crf, terms["a_sp"], terms["ad_sm"]),
    )
    devs = []
    for tk in np.reshape(np.asarray(t, dtype=float), -1):
        slow, fast = np.exp(-2j * w * tk), np.exp(2j * w * tk)
        for numbers, h_eff, lowered, raised in splits:
            phases = np.exp(-1j * w * tk * numbers)
            conjugated = phases.conj()[:, None] * h_rabi * phases[None, :]
            expected = h_eff + g * (slow * lowered + fast * raised)
            devs.append(np.max(np.abs(conjugated - expected)))
    return float(np.max(devs, initial=0.0))
