"""Closed-form dressed states, evolution, and observables in both frames.

Each frame couples a bare state to exactly one partner, so the dynamics
factor into two-level doublets labelled by a family tag:

  jc-e(n):  {|e,n>, |g,n+1>}   photon factor n+1, detuning xi
  jc-g(n):  {|g,n>, |e,n-1>}   photon factor n,   detuning xi
  ajc-e(n): {|e,n>, |g,n-1>}   photon factor n,   detuning xi+epsilon
  ajc-g(n): {|g,n>, |e,n+1>}   photon factor n+1, detuning xi+epsilon

Every doublet carries a Rabi frequency R = g sqrt(m + d^2) with m the photon
factor and d the dimensionless detuning, a cosine c = detuning/(2R) that
keeps the detuning sign, and a sine s = g sqrt(m)/R >= 0. The transition
state of the doublet at an e atom is c|bare> + s|partner>; at a g atom it
is -c|bare> + s|partner>.

Rotating-frame evolution starts from the plus-branch eigenstate of the
counter-rotating component; counter-rotating-frame evolution starts from
the minus branch of the rotating component. Reported observables follow
the frame convention: normal order (<s+ s->, <a^dag a>) in the rotating
frame, antinormal order (<s- s+>, <a a^dag>) in the counter-rotating frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import DegenerateBranchError, NullStateError
from .hilbert import HilbertSpace, StateVector, _check_n, _times
from .model import ModelParams

__all__ = [
    "FRAMES",
    "BranchCoeffs",
    "Frame",
    "Observables",
    "jc_branch",
    "ajc_branch",
    "jc_eigenstate",
    "ajc_eigenstate",
    "rf_branch_states",
    "crf_branch_states",
    "evolve_rf",
    "evolve_crf",
    "evolve_series",
    "frame_spec",
    "initial_state",
    "observables",
    "observables_rf",
    "observables_crf",
]


@dataclass(frozen=True)
class BranchCoeffs:
    """Rabi frequency and dressing pair of one two-level doublet.

    c may be negative (it carries the detuning sign); s is never negative,
    and c^2 + s^2 = 1 whenever the doublet is non-degenerate.
    """

    rabi: float
    c: float
    s: float
    family: str


@dataclass(frozen=True, eq=False)
class Observables:
    """Frame-convention expectation values, scalar or per-grid arrays.

    atomic_excitation and photon are normal-ordered in the rotating frame
    and antinormal-ordered in the counter-rotating frame; n_jc and n_ajc
    are the two component excitation numbers, one of which is conserved
    depending on the frame.
    """

    s_z: np.ndarray | float
    atomic_excitation: np.ndarray | float
    photon: np.ndarray | float
    n_jc: np.ndarray | float
    n_ajc: np.ndarray | float

    def as_dict(self) -> dict[str, np.ndarray | float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# per family, the atom whose doublet partner holds one photon more
_RAISED = {"jc": "e", "ajc": "g"}
_OTHER = {"e": "g", "g": "e", "jc": "ajc", "ajc": "jc"}


def _doublet(params: ModelParams, family: str, atom: str, n: int) -> tuple[float, float, float]:
    """(rabi, c, s) of the `family` doublet at |atom, n>, whose photon factor m
    is the pair's larger photon number; (0, 0, 0) marks a degenerate doublet.
    A bad atom or n raises ValueError naming it."""
    if atom not in ("g", "e"):
        raise ValueError(f"atom must be 'g' or 'e', got {atom!r}")
    _check_n(n)
    m = n + 1 if atom == _RAISED[family] else n
    half_detuning = 0.5 * (params.delta if family == "jc" else params.delta_bar)
    rabi = math.hypot(params.g * math.sqrt(m), half_detuning)
    if rabi == 0.0:
        return 0.0, 0.0, 0.0
    return rabi, half_detuning / rabi, params.g * math.sqrt(m) / rabi


def _branch(params: ModelParams, family: str, atom: str, n: int) -> BranchCoeffs:
    _check_n(n, "family index")
    rabi, c, s = _doublet(params, family, atom, n)
    if rabi == 0.0:
        raise DegenerateBranchError(f"{family}-{atom}({n}) doublet is degenerate at xi = {params.xi}")
    return BranchCoeffs(rabi, c, s, f"{family}-{atom}({n})")


def jc_branch(params: ModelParams, atom: str, n: int) -> BranchCoeffs:
    """Dressing coefficients of the rotating-frame doublet at |atom, n>.

    The g-family doublet at n = 0 with zero detuning has no Rabi frequency;
    that case raises DegenerateBranchError and callers must treat |g,0> as
    a null eigenvector of the transition operator.
    """
    return _branch(params, "jc", atom, n)


def ajc_branch(params: ModelParams, atom: str, n: int) -> BranchCoeffs:
    """Dressing coefficients of the counter-rotating doublet at |atom, n>, never degenerate."""
    return _branch(params, "ajc", atom, n)


def _eigenstate(
    params: ModelParams, space: HilbertSpace, spec: Frame, n: int, sign: int
) -> tuple[np.ndarray, float]:
    """(amplitudes, energy) of `ajc_eigenstate` (rf) or `jc_eigenstate` (crf): the
    `spec.dressing` doublet on {|top_atom, n>, |bottom_atom, n-1>}, with bare
    amplitude 1 + x, x = +-sign*c for top atom e/g, as s^2 / (1 - x) if x < 0; at
    n = 0 the bare state, energy (+-c) * rabi. Needs n_max >= n: the support
    ends at photon n, and `space.index` raises TruncationError above n_max.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    _check_n(n)
    if n == 0 and sign == -spec.sign:
        raise NullStateError(f"the {'plus' if sign == +1 else 'minus'} branch at n=0 is the zero vector")
    rabi, c, s = spec.dressing(params, spec.top_atom, n)
    c = c if spec.top_atom == "e" else -c
    amps = np.zeros(space.dim, dtype=np.complex128)
    if n == 0:
        amps[space.index(spec.top_atom, 0)] = 1.0
        return amps, c * rabi
    amps[space.index(spec.top_atom, n)] = 1.0 + x if (x := sign * c) >= 0 else s * s / (1.0 - x)  # no cancellation as x -> -1
    amps[space.index(spec.bottom_atom, n - 1)] = sign * s
    amps /= np.linalg.norm(amps)
    return amps, params.omega * n + sign * rabi


def ajc_eigenstate(
    params: ModelParams, space: HilbertSpace, n: int, sign: int
) -> tuple[StateVector, float]:
    """Eigenstate of the counter-rotating effective Hamiltonian on {|e,n>, |g,n-1>}.

    Returns (state, energy) with energy = omega n + sign * rabi. At n = 0
    only the plus branch exists (it is |e,0> with energy delta_bar/2); the
    minus branch raises NullStateError.
    """
    amps, energy = _eigenstate(params, space, FRAMES["rf"], n, sign)
    return StateVector(space, amps), energy


def jc_eigenstate(
    params: ModelParams, space: HilbertSpace, n: int, sign: int
) -> tuple[StateVector, float]:
    """Eigenstate of the rotating effective Hamiltonian on {|g,n>, |e,n-1>}.

    Returns (state, energy) with energy = omega n + sign * rabi for n >= 1.
    At n = 0 the surviving branch is |g,0> with energy -delta/2; it is
    reported under the minus label for every detuning sign (the state is
    selected by its overlap with |g,0>, not by the energy label), and the
    plus label raises NullStateError. This also covers the degenerate
    doublet at zero detuning, where the energy is exactly zero.
    """
    amps, energy = _eigenstate(params, space, FRAMES["crf"], n, sign)
    return StateVector(space, amps), energy


class Frame(NamedTuple):
    """One frame's physics: the state evolves in the `family` doublets at
    |top_atom, n> and |bottom_atom, n-1>, starting from the `sign` branch of
    the eigenstate that the other family's doublet at |top_atom, n>
    (`dressing`) dresses. `doublet(params, atom, n)` gives (rabi, c, s) of
    the doublet at |atom, n>, zeros when it is degenerate. `hamiltonian`
    indexes `build_effective`, `columns` maps reported columns to raw
    expectations, `conserved` / `varying` name the raw numbers, and `k` is
    the conserved number on |top_atom, n> minus n.
    """

    family: str
    top_atom: str
    sign: int
    hamiltonian: int
    columns: dict[str, str]
    conserved: str
    varying: str
    k: float

    @property
    def bottom_atom(self) -> str:
        return _OTHER[self.top_atom]

    def initial_number(self, n: int) -> int:
        """The `varying` number of the initial eigenstate at n: N_bar = n + 1 on |e,n>, N = n on |g,n>."""
        return n + 1 if self.top_atom == "e" else n

    def doublet(self, params: ModelParams, atom: str, n: int) -> tuple[float, float, float]:
        return _doublet(params, self.family, atom, n)

    def dressing(self, params: ModelParams, atom: str, n: int) -> tuple[float, float, float]:
        return _doublet(params, _OTHER[self.family], atom, n)


FRAMES = {
    "rf": Frame(
        "jc", "e", +1, 0,
        {"s_z": "s_z", "atomic_excitation": "sp_sm", "photon": "ad_a",
         "n_jc": "n_jc", "n_ajc": "n_ajc"},
        "n_jc", "n_ajc", 1.0,
    ),
    "crf": Frame(
        "ajc", "g", -1, 1,
        {"s_z": "s_z", "atomic_excitation": "sm_sp", "photon": "a_ad",
         "n_jc": "n_jc", "n_ajc": "n_ajc"},
        "n_ajc", "n_jc", 2.0,
    ),
}


def frame_spec(frame: str) -> Frame:
    """The `FRAMES` entry of a frame name; anything but 'rf' or 'crf' raises ValueError."""
    if frame not in FRAMES:
        raise ValueError(f"frame must be 'rf' or 'crf', got {frame!r}")
    return FRAMES[frame]


def initial_state(params: ModelParams, space: HilbertSpace, frame: str, n: int) -> StateVector:
    """Plus-branch counter-rotating eigenstate (rf) or minus-branch rotating
    eigenstate (crf) at n; at n = 0 the bare |e,0> or |g,0>."""
    spec = frame_spec(frame)
    return StateVector(space, _eigenstate(params, space, spec, n, spec.sign)[0])


def _evolve(params: ModelParams, space: HilbertSpace, family: str, amps0, tt) -> np.ndarray:
    """(T, d) evolution of amps0 over times tt: each nonzero bare component
    |atom, k> rotates inside its `family` doublet, with the phase
    exp(-i omega m t) of the pair's larger photon number m; a partner below
    photon 0 leaves a singleton, one above n_max raises TruncationError."""
    out = np.zeros((tt.size, space.dim), dtype=np.complex128)
    photons, excited = space.photon_numbers(), space.excited_mask()
    for index in np.flatnonzero(amps0):
        atom, k = ("e" if excited[index] else "g"), int(photons[index])
        partner = k + 1 if atom == _RAISED[family] else k - 1
        rabi, c, s = _doublet(params, family, atom, k)
        phase = np.exp(-1j * params.omega * max(k, partner) * tt)
        cos, sin = np.cos(rabi * tt), np.sin(rabi * tt)
        twist = -1j if atom == "e" else 1j  # see the transition states above
        out[:, index] += amps0[index] * (phase * (cos + twist * c * sin))
        if partner >= 0:
            out[:, space.index(_OTHER[atom], partner)] += amps0[index] * (phase * (-1j * s * sin))
    return out


def _branch_series(
    params: ModelParams, space: HilbertSpace, frame: str, n: int, tt: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """(T, d) evolutions of |top_atom, n> and |bottom_atom, n-1> (None at n = 0)
    over times tt; both stay unit norm and mutually orthogonal at every t."""
    spec = frame_spec(frame)
    _check_n(n)
    top = _evolve(params, space, spec.family, np.eye(1, space.dim, space.index(spec.top_atom, n))[0], tt)
    if n == 0:
        return top, None
    return top, _evolve(params, space, spec.family, np.eye(1, space.dim, space.index(spec.bottom_atom, n - 1))[0], tt)


def evolve_series(
    params: ModelParams, space: HilbertSpace, frame: str, n: int, grid
) -> np.ndarray:
    """Closed-form frame state at every grid time, as a (T, d) amplitude array:
    `initial_state` evolved doublet by doublet; needs n_max >= n + 1, where the
    top component's partner sits, or `space.index` raises TruncationError."""
    tt = _times(grid).reshape(-1)
    spec = frame_spec(frame)
    return _evolve(params, space, spec.family, _eigenstate(params, space, spec, n, spec.sign)[0], tt)


def _branch_states(
    params: ModelParams, space: HilbertSpace, frame: str, n: int, t: float
) -> tuple[StateVector, StateVector | None]:
    top, bottom = _branch_series(params, space, frame, n, _times(t).reshape(1))
    return (
        StateVector(space, top[0]),
        None if bottom is None else StateVector(space, bottom[0]),
    )


def rf_branch_states(
    params: ModelParams, space: HilbertSpace, n: int, t: float
) -> tuple[StateVector, StateVector | None]:
    """Rotating-frame branches: |e,n> inside jc-e(n), |g,n-1> inside jc-g(n-1)."""
    return _branch_states(params, space, "rf", n, t)


def crf_branch_states(
    params: ModelParams, space: HilbertSpace, n: int, t: float
) -> tuple[StateVector, StateVector | None]:
    """Counter-rotating branches: |g,n> inside ajc-g(n), |e,n-1> inside ajc-e(n-1)."""
    return _branch_states(params, space, "crf", n, t)


def evolve_rf(params: ModelParams, space: HilbertSpace, n: int, t: float) -> StateVector:
    """Closed-form rotating-frame state at time t (`evolve_series` at one point)."""
    return StateVector(space, evolve_series(params, space, "rf", n, np.reshape(t, 1))[0])


def evolve_crf(params: ModelParams, space: HilbertSpace, n: int, t: float) -> StateVector:
    """Closed-form counter-rotating-frame state at time t (`evolve_series` at one point)."""
    return StateVector(space, evolve_series(params, space, "crf", n, np.reshape(t, 1))[0])


def observables(params: ModelParams, frame: str, n: int, t) -> Observables:
    """Frame-convention observables of the evolved initial state.

    Accepts a scalar time or an array and broadcasts. The two doublets
    carry weights (1 + c)^2 and s^2 with the dressing pair of the initial
    eigenstate, and <s_z> swings with the sign of the top branch's bare
    atom. The frame's own number is conserved at its initial value
    n + k - s^2/(1 + c), k = `Frame.k` (1 rotating, 2 counter-rotating);
    at n = 0 the initial state is bare and that weight vanishes. Calls go
    through the module's `observables_rf` / `observables_crf`, so wrappers
    bound over those (bench/tracing.py) see them.
    """
    frame_spec(frame)
    return globals()[f"observables_{frame}"](params, n, t)


def _observables(params: ModelParams, frame: str, n: int, t) -> Observables:
    spec = FRAMES[frame]
    _check_n(n)
    tt = _times(t)
    r1, _, s1 = spec.doublet(params, spec.top_atom, n)
    top_factor = 1.0 - 2.0 * s1**2 * np.sin(r1 * tt) ** 2
    if n == 0:
        c, s, bottom_factor = 1.0, 0.0, 1.0
    else:
        _, c, s = spec.dressing(params, spec.top_atom, n)
        r2, _, s2 = spec.doublet(params, spec.bottom_atom, n - 1)
        bottom_factor = 1.0 - 2.0 * s2**2 * np.sin(r2 * tt) ** 2
    opc = 1.0 + c if c >= 0 else s * s / (1.0 - c)  # 1 + c without cancellation as c -> -1
    weight = s**2 / opc
    swing = (opc**2 * top_factor - s**2 * bottom_factor) / (4.0 * opc)
    # conserved number n + k - weight; N_bar - N = 1 - 2 s_z; photon = conserved - ordered excitation
    k = spec.k
    numbers = {spec.conserved: (n + k - weight) + 0.0 * swing, spec.varying: (n + (3.0 - k) - weight) - 2.0 * swing}
    return Observables(
        s_z=spec.sign * swing, atomic_excitation=0.5 + swing, photon=(n + (k - 0.5) - weight) - swing, **numbers
    )


def observables_rf(params: ModelParams, n: int, t) -> Observables:
    """Rotating-frame `observables`: <s+ s->, <a^dag a>, conserved n_jc."""
    return _observables(params, "rf", n, t)


def observables_crf(params: ModelParams, n: int, t) -> Observables:
    """Counter-rotating-frame `observables`: <s- s+>, <a a^dag>, conserved n_ajc."""
    return _observables(params, "crf", n, t)
