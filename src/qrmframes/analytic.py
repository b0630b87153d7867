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
state attached to an e-family doublet is c|bare> + s|partner>; a g-family
doublet uses -c|bare> + s|partner>.

Rotating-frame evolution starts from the plus-branch eigenstate of the
counter-rotating component; counter-rotating-frame evolution starts from
the minus branch of the rotating component. Reported observables follow
the frame convention: normal order (<s+ s->, <a^dag a>) in the rotating
frame, antinormal order (<s- s+>, <a a^dag>) in the counter-rotating frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateBranchError, NullStateError, TruncationError
from .hilbert import HilbertSpace, StateVector
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


def _check_family_args(atom: str, n: int) -> None:
    if atom not in ("g", "e"):
        raise ValueError(f"family atom must be 'g' or 'e', got {atom!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"family index must be a non-negative integer, got {n!r}")


def _doublet(g: float, m: int, half_detuning: float) -> tuple[float, float, float]:
    """(rabi, c, s) for photon factor m; (0, 0, 0) marks a degenerate doublet."""
    rabi = math.hypot(g * math.sqrt(m), half_detuning)
    if rabi == 0.0:
        return 0.0, 0.0, 0.0
    return rabi, half_detuning / rabi, g * math.sqrt(m) / rabi


def _jc_doublet(params: ModelParams, atom: str, n: int) -> tuple[float, float, float]:
    m = n + 1 if atom == "e" else n
    return _doublet(params.g, m, 0.5 * params.delta)


def _ajc_doublet(params: ModelParams, atom: str, n: int) -> tuple[float, float, float]:
    m = n if atom == "e" else n + 1
    return _doublet(params.g, m, 0.5 * params.delta_bar)


def jc_branch(params: ModelParams, atom: str, n: int) -> BranchCoeffs:
    """Dressing coefficients of the rotating-frame doublet at |atom, n>.

    The g-family doublet at n = 0 with zero detuning has no Rabi frequency;
    that case raises DegenerateBranchError and callers must treat |g,0> as
    a null eigenvector of the transition operator.
    """
    _check_family_args(atom, n)
    rabi, c, s = _jc_doublet(params, atom, n)
    if rabi == 0.0:
        raise DegenerateBranchError(
            f"jc-{atom}({n}) doublet is degenerate at xi = {params.xi}"
        )
    return BranchCoeffs(rabi, c, s, f"jc-{atom}({n})")


def ajc_branch(params: ModelParams, atom: str, n: int) -> BranchCoeffs:
    """Dressing coefficients of the counter-rotating doublet at |atom, n>."""
    _check_family_args(atom, n)
    rabi, c, s = _ajc_doublet(params, atom, n)
    # delta_bar = omega0 + omega > 0 for any valid params, so rabi > 0 always
    assert rabi > 0.0, "counter-rotating doublet cannot be degenerate"
    return BranchCoeffs(rabi, c, s, f"ajc-{atom}({n})")


def ajc_eigenstate(
    params: ModelParams, space: HilbertSpace, n: int, sign: int
) -> tuple[StateVector, float]:
    """Eigenstate of the counter-rotating effective Hamiltonian on {|e,n>, |g,n-1>}.

    Returns (state, energy) with energy = omega n + sign * rabi. At n = 0
    only the plus branch exists (it is |e,0> with energy delta_bar/2); the
    minus branch raises NullStateError.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n + 1 > space.n_max:
        raise TruncationError(f"eigenstate at n={n} needs n_max >= {n + 1}, got {space.n_max}")
    if n == 0 and sign == -1:
        raise NullStateError("the minus branch at n=0 is the zero vector")
    rabi, c, s = _ajc_doublet(params, "e", n)
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index("e", n)] = 1.0 + sign * c
    if n >= 1:
        amps[space.index("g", n - 1)] = sign * s
    amps /= np.linalg.norm(amps)
    return StateVector(space, amps), params.omega * n + sign * rabi


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
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n > space.n_max:
        raise TruncationError(f"eigenstate at n={n} needs n_max >= {n}, got {space.n_max}")
    if n == 0:
        if sign == +1:
            raise NullStateError("the plus branch at n=0 is the zero vector")
        amps = np.zeros(space.dim, dtype=np.complex128)
        amps[space.index("g", 0)] = 1.0
        return StateVector(space, amps), -0.5 * params.delta
    rabi, c, s = _jc_doublet(params, "g", n)
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index("g", n)] = 1.0 - sign * c
    amps[space.index("e", n - 1)] = sign * s
    amps /= np.linalg.norm(amps)
    return StateVector(space, amps), params.omega * n + sign * rabi


def _require_headroom(space: HilbertSpace, n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n + 2 > space.n_max:
        raise TruncationError(
            f"closed-form evolution at n={n} needs n_max >= {n + 2}, got {space.n_max}"
        )


_OTHER_ATOM = {"e": "g", "g": "e"}


class Frame(NamedTuple):
    """One frame's physics: the state evolves in `doublet` doublets at
    |top_atom, n> and |bottom_atom, n-1>, starting from the `sign` branch of
    `eigenstate`, which the other family's doublet at |top_atom, n>
    (`dressing`) dresses. `doublet(params, atom, n)` gives (rabi, c, s) of
    the doublet at |atom, n>, zeros when it is degenerate. `hamiltonian`
    indexes `build_effective`, `columns` maps reported columns to raw
    expectations, and `conserved` / `varying` name the raw numbers.
    """

    doublet: Callable[[ModelParams, str, int], tuple[float, float, float]]
    top_atom: str
    eigenstate: Callable[..., tuple[StateVector, float]]
    sign: int
    hamiltonian: int
    columns: dict[str, str]
    conserved: str
    varying: str

    @property
    def bottom_atom(self) -> str:
        return _OTHER_ATOM[self.top_atom]

    @property
    def dressing(self) -> Callable[[ModelParams, str, int], tuple[float, float, float]]:
        return _ajc_doublet if self.doublet is _jc_doublet else _jc_doublet


FRAMES = {
    "rf": Frame(
        _jc_doublet, "e", ajc_eigenstate, +1, 0,
        {"s_z": "s_z", "atomic_excitation": "sp_sm", "photon": "ad_a",
         "n_jc": "n_jc", "n_ajc": "n_ajc"},
        "n_jc", "n_ajc",
    ),
    "crf": Frame(
        _ajc_doublet, "g", jc_eigenstate, -1, 1,
        {"s_z": "s_z", "atomic_excitation": "sm_sp", "photon": "a_ad",
         "n_jc": "n_jc", "n_ajc": "n_ajc"},
        "n_ajc", "n_jc",
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
    return spec.eigenstate(params, space, n, spec.sign)[0]


def _as_time_array(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("times must be finite")
    return arr


def _branch_series(
    params: ModelParams, space: HilbertSpace, frame: str, n: int, tt: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """(T, d) amplitudes of the frame's two doublet evolutions over times tt.

    The top branch lives in the doublet at |atom, n> with partner photon
    number n+1 and phase photon number n+1; the bottom branch in the doublet
    at |other, n-1> with partner photon number n-2 and phase photon number
    n-1, and is None at n = 0. Both stay unit norm and mutually orthogonal
    at every t. An e-family transition state is c|bare> + s|partner> and a
    g-family one -c|bare> + s|partner>, hence -i c or +i c on the bare
    amplitude.
    """
    spec = frame_spec(frame)
    _require_headroom(space, n)

    def evolve(atom: str, m: int, phase_m: int, partner_m: int) -> np.ndarray:
        rabi, c, s = spec.doublet(params, atom, m)
        phase = np.exp(-1j * params.omega * phase_m * tt)
        cos, sin = np.cos(rabi * tt), np.sin(rabi * tt)
        twist = -1j if atom == "e" else 1j
        amps = np.zeros((tt.size, space.dim), dtype=np.complex128)
        amps[:, space.index(atom, m)] = phase * (cos + twist * c * sin)
        if partner_m >= 0:
            amps[:, space.index(_OTHER_ATOM[atom], partner_m)] = phase * (-1j * s * sin)
        return amps

    top = evolve(spec.top_atom, n, n + 1, n + 1)
    if n == 0:
        return top, None
    return top, evolve(spec.bottom_atom, n - 1, n - 1, n - 2)


def evolve_series(
    params: ModelParams, space: HilbertSpace, frame: str, n: int, grid
) -> np.ndarray:
    """Closed-form frame state at every grid time, as a (T, d) amplitude array.

    The frame's initial state (see `initial_state`) splits over its two
    doublets with weights (1 + c) and sign * s of the dressing pair; at
    n = 0 it is the top branch's bare state. Support spans photon numbers
    n-2 .. n+1, so n + 2 <= n_max is required as headroom for cross-checks
    against matrix propagation.
    """
    top, bottom = _branch_series(params, space, frame, n, _as_time_array(grid).reshape(-1))
    if bottom is None:
        return top
    spec = FRAMES[frame]
    _, c, s = spec.dressing(params, spec.top_atom, n)
    s = spec.sign * s
    norm = math.sqrt(2.0 * (1.0 + c))
    return (1.0 + c) / norm * top + (s / norm) * bottom


def _branch_states(
    params: ModelParams, space: HilbertSpace, frame: str, n: int, t: float
) -> tuple[StateVector, StateVector | None]:
    top, bottom = _branch_series(params, space, frame, n, _as_time_array(t).reshape(1))
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
    n + 1 - s^2/(1 + c) (rotating) or n + 2 - s^2/(1 + c)
    (counter-rotating); at n = 0 the initial state is bare and that weight
    vanishes. Calls go through the module's `observables_rf` /
    `observables_crf`, so wrappers bound over those (bench/tracing.py) see them.
    """
    frame_spec(frame)
    return globals()[f"observables_{frame}"](params, n, t)


def _observables(params: ModelParams, frame: str, n: int, t) -> Observables:
    spec = FRAMES[frame]
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    tt = _as_time_array(t)
    r1, _, s1 = spec.doublet(params, spec.top_atom, n)
    top_factor = 1.0 - 2.0 * s1**2 * np.sin(r1 * tt) ** 2
    if n == 0:
        c, s = 1.0, 0.0
        bottom_factor = np.ones_like(tt)
    else:
        _, c, s = spec.dressing(params, spec.top_atom, n)
        r2, _, s2 = spec.doublet(params, spec.bottom_atom, n - 1)
        bottom_factor = 1.0 - 2.0 * s2**2 * np.sin(r2 * tt) ** 2
    weight = s**2 / (1.0 + c)
    swing = ((1.0 + c) ** 2 * top_factor - s**2 * bottom_factor) / (4.0 * (1.0 + c))
    # top atom e, normal order and a conserved N in the rotating frame;
    # top atom g, antinormal order and a conserved N_bar in the other
    if frame == "rf":
        s_z = swing
        photon = (n + 0.5 - weight) - swing
        n_jc = (n + 1.0 - weight) + 0.0 * swing
        n_ajc = (n - weight) + 2.0 * (1.0 - swing)
    else:
        s_z = -swing
        photon = (n + 1.5 - weight) - swing
        n_jc = (n + 1.0 - weight) - 2.0 * swing
        n_ajc = (n + 2.0 - weight) + 0.0 * swing
    return Observables(s_z, 0.5 + swing, photon, n_jc, n_ajc)


def observables_rf(params: ModelParams, n: int, t) -> Observables:
    """Rotating-frame `observables`: <s+ s->, <a^dag a>, conserved n_jc."""
    return _observables(params, "rf", n, t)


def observables_crf(params: ModelParams, n: int, t) -> Observables:
    """Counter-rotating-frame `observables`: <s- s+>, <a a^dag>, conserved n_ajc."""
    return _observables(params, "crf", n, t)
