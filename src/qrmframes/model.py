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
import numbers
from dataclasses import dataclass

import numpy as np

from .hilbert import HilbertSpace, OperatorMatrix, _dense, _terms

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


def _finite(value) -> bool:
    """The package's one rule for a numeric input: a real number, not a bool,
    that converts to a finite float (an int past the float range does not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
            if not _finite(value):
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


# each built operator as a weighted sum of the terms t, read at one offset
_FORMULAS = {
    "rabi": lambda p, t: p.omega * (t["ata"] + 0.5 * t["eye"]) + p.omega0 * t["sz"] + p.g * (t["jc"] + t["ajc"]),
    "rot": lambda p, t: p.omega * t["n_jc"] + p.delta * t["sz"] + 2.0 * p.g * t["jc"] - 0.5 * p.omega * t["eye"],
    "counter": lambda p, t: p.omega * t["n_ajc"] + p.delta_bar * t["sz"] + 2.0 * p.g * t["ajc"] - 0.5 * p.omega * t["eye"],
    "rf": lambda p, t: p.omega * t["n_jc"] + p.delta * t["sz"] + p.g * t["jc"],
    "crf": lambda p, t: p.omega * (t["n_ajc"] - t["eye"]) + p.delta_bar * t["sz"] + p.g * t["ajc"],
    "t_jc": lambda p, t: p.delta * t["sz"] + p.g * t["jc"],
    "t_ajc": lambda p, t: p.delta_bar * t["sz"] + p.g * t["ajc"],
}


def _operators(params: ModelParams, space: HilbertSpace, terms, *names: str) -> tuple[OperatorMatrix, ...]:
    """Hermiticity-checked `_FORMULAS` operators, evaluated offset by offset on the term table; a term without
    a band at an offset reads 0.0 there, so every entry goes through the same arithmetic as on dense terms."""
    at = {k: {key: term.get(k, 0.0) for key, term in terms.items()} for k in set().union(*terms.values())}
    bands = ({k: _FORMULAS[name](params, t) for k, t in at.items()} for name in names)
    return tuple(OperatorMatrix(space, _dense(space, b), hermitian=True) for b in bands)


def build_rabi(params: ModelParams, space: HilbertSpace) -> OperatorMatrix:
    """Full Rabi Hamiltonian omega(a^dag a + 1/2) + omega0 s_z + g(a + a^dag)(s- + s+)."""
    return _operators(params, space, _terms(space), "rabi")[0]


def build_number_ops(space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Conserved excitation numbers of the two components.

    Rotating: a^dag a + s+ s-. Counter-rotating: a^dag a + 1 + s- s+, the
    truncation-exact form; the two differ by 2 s- s+ entrywise.
    """
    t = _terms(space)
    return tuple(OperatorMatrix(space, _dense(space, t[key]), hermitian=True) for key in ("n_jc", "n_ajc"))


def build_components(params: ModelParams, space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Rotating and counter-rotating components whose mean is the Rabi Hamiltonian.

    Each component doubles its own interaction term and subtracts omega/2,
    so that (H_rot + H_counter) / 2 reproduces `build_rabi` entrywise.
    """
    return _operators(params, space, _terms(space), "rot", "counter")


def build_effective(params: ModelParams, space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Effective frame Hamiltonians driving the closed-form dynamics.

    Rotating frame: omega N + delta s_z + g(a s+ + a^dag s-).
    Counter-rotating frame: omega (N_bar - 1) + delta_bar s_z + g(a s- + a^dag s+).
    """
    return _operators(params, space, _terms(space), "rf", "crf")


def build_transition_ops(params: ModelParams, space: HilbertSpace) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Qubit transition operators generating the Rabi oscillations.

    Rotating: delta s_z + g(a s+ + a^dag s-), squaring to delta^2/4 + g^2 N
    on the interior block. Counter-rotating: delta_bar s_z + g(a s- + a^dag s+),
    squaring to delta_bar^2/4 + g^2 (N_bar - 1) there.
    """
    return _operators(params, space, _terms(space), "t_jc", "t_ajc")


def build_parity(space: HilbertSpace, k: int) -> OperatorMatrix:
    """k-th power of the excitation parity operator exp(-i pi N)^k.

    The rotating number operator has exact integer spectrum, so the
    exponential is evaluated on those integers and the entries are exactly
    +/-1; both number operators give the same parity because they differ
    by an even integer on every basis state.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
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
    term table is formed and the operators are built once; the times are
    visited one by one so memory stays O(d^2).
    """
    terms = _terms(space)
    h_rabi, h_rf, h_crf = (op.entries for op in _operators(params, space, terms, "rabi", "rf", "crf"))
    w, g = params.omega, params.g
    splits = (
        (terms["n_jc"][0], h_rf, _dense(space, terms["a_sm"]), _dense(space, terms["ad_sp"])),
        (terms["n_ajc"][0], h_crf, _dense(space, terms["a_sp"]), _dense(space, terms["ad_sm"])),
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
