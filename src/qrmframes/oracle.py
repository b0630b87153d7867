"""Brute-force cross-validation of the closed-form solver.

Propagates states by dense Hermitian eigendecomposition, takes raw
expectation values without any frame convention, and compares both the
amplitudes (phase sensitive) and the reported observables against the
analytic path over a whole time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HermiticityError, NumericConsistencyError
from .hilbert import (
    HilbertSpace,
    OperatorMatrix,
    StateVector,
    _propagate,
    commutator,
)
from .model import ModelParams, _terms, build_effective
from . import analytic

__all__ = [
    "ComparisonReport",
    "propagate_series",
    "standard_observables",
    "observable_series",
    "compare_scenario",
    "interior_projector",
    "interior_commutator_norm",
]

STATE_TOL = 1e-9
OBS_TOL = 1e-9

# reported column -> raw expectation, per frame
RF_COLUMN_MAP = analytic.FRAMES["rf"].columns
CRF_COLUMN_MAP = analytic.FRAMES["crf"].columns


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of one closed-form versus propagator scenario.

    Carries the propagated trajectory as one read-only (T, d) array `amps`,
    its `standard_observables` series (`raw`), and the Hamiltonian and
    initial state it was propagated from. `states` gives the same
    trajectory as one StateVector per grid time, built on first use.
    """

    scenario: str
    frame: str
    n: int
    n_max: int
    grid: np.ndarray
    max_state_dev: float
    max_obs_dev: dict[str, float]
    passed: bool
    amps: np.ndarray
    raw: dict[str, np.ndarray]
    hamiltonian: OperatorMatrix
    initial: StateVector

    @cached_property
    def states(self) -> list[StateVector]:
        return [StateVector(self.initial.space, row) for row in self.amps]

    def worst_obs_dev(self) -> float:
        return max(self.max_obs_dev.values())


def _trajectory(hamiltonian: OperatorMatrix, psi0: StateVector, grid) -> np.ndarray:
    """(T, d) amplitudes exp(-i H t) psi0 on every grid time, from one eigendecomposition."""
    if not hamiltonian.hermitian:
        raise HermiticityError("propagation requires a hermitian-tagged operator")
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise NumericConsistencyError(f"initial norm {psi0.norm()!r} is not 1")
    return _propagate(hamiltonian, psi0.amps, np.asarray(grid, dtype=float))


def propagate_series(
    hamiltonian: OperatorMatrix, psi0: StateVector, grid
) -> list[StateVector]:
    """exp(-i H t) psi0 on every grid time from a single eigendecomposition."""
    return [StateVector(psi0.space, row) for row in _trajectory(hamiltonian, psi0, grid)]


def standard_observables(space: HilbertSpace) -> dict[str, OperatorMatrix]:
    """The raw operator set used for cross-checks, read from the model's term table.

    a_ad is the algebraic a^dag a + 1, exact under truncation for any state
    with support below the top photon level; the number operators are the
    model's own for the same reason.
    """
    t = _terms(space)
    keys = {"s_z": "sz", "sp_sm": "sp_sm", "sm_sp": "sm_sp", "ad_a": "ata", "a_ad": "a_ad", "n_jc": "n_jc", "n_ajc": "n_ajc"}
    return {name: OperatorMatrix(space, t[key], hermitian=True) for name, key in keys.items()}


def _expectations(amps: np.ndarray, ops: dict[str, OperatorMatrix]) -> dict[str, np.ndarray]:
    """Expectation value of every named operator on every row of a (T, d) array.

    An operator whose entries are exactly diagonal scales each row by its
    diagonal, O(T d); any operator with an off-diagonal entry is applied to
    the whole stack in one dense matrix product, O(T d^2) in BLAS. Both
    images go through the same row-wise reduction against the bras, formed
    once per trajectory, so the diagonal path keeps the dense path's
    rounding. On both paths an imaginary residue above 1e-12 raises
    NumericConsistencyError.
    """
    bra = amps.conj()
    out = {}
    for name, op in ops.items():
        entries = op.entries
        d = entries.shape[0]
        # the flattened matrix holds exactly its off-diagonal entries
        # between consecutive diagonal ones
        if entries.reshape(-1)[:-1].reshape(d - 1, d + 1)[:, 1:].any():
            image = amps @ entries.T
        else:
            image = amps * np.diagonal(entries)
        values = np.einsum("ti,ti->t", bra, image)
        residue = float(np.max(np.abs(values.imag), initial=0.0))
        if residue > 1e-12:
            raise NumericConsistencyError(
                f"<{name}> has imaginary residue {residue:.3e}"
            )
        out[name] = values.real
    return out


def observable_series(
    states: list[StateVector], ops: dict[str, OperatorMatrix]
) -> dict[str, np.ndarray]:
    """Expectation value of every named operator on every state.

    The states are stacked into one (T, d) array. A diagonal operator (all
    of `standard_observables`) scales that stack by its diagonal, O(T d);
    any other operator costs one dense matrix product, O(T d^2) in BLAS.
    """
    if not states:
        return {name: np.array([]) for name in ops}
    return _expectations(np.stack([psi.amps for psi in states]), ops)


def compare_scenario(
    params: ModelParams,
    frame: str,
    n: int,
    grid,
    n_max: int | None = None,
) -> ComparisonReport:
    """Run one frame scenario both ways and report the worst deviations.

    The initial state is the frame's canonical eigenstate (plus branch of
    the counter-rotating component in the rotating frame, minus branch of
    the rotating component in the counter-rotating frame). Times are
    physical; multiply by g for the dimensionless axis. A truncation that
    cannot hold the analytic support raises TruncationError. The report
    passes when every deviation is within STATE_TOL / OBS_TOL.
    """
    spec = analytic.frame_spec(frame)
    analytic._check_n(n)
    if n_max is None:
        n_max = n + 20
    space = HilbertSpace(n_max)
    grid = np.asarray(grid, dtype=float)
    hamiltonian = build_effective(params, space)[spec.hamiltonian]
    psi0 = analytic.initial_state(params, space, frame, n)

    analytic_amps = analytic.evolve_series(params, space, frame, n, grid)
    numeric_amps = _trajectory(hamiltonian, psi0, grid)
    numeric_amps.setflags(write=False)
    state_dev = float(np.max(np.abs(analytic_amps - numeric_amps), initial=0.0))

    raw = _expectations(numeric_amps, standard_observables(space))
    predicted = analytic.observables(params, frame, n, grid).as_dict()
    obs_dev = {
        column: float(np.max(np.abs(np.broadcast_to(predicted[column], grid.shape) - raw[raw_name]), initial=0.0))
        for column, raw_name in spec.columns.items()
    }
    passed = state_dev <= STATE_TOL and all(v <= OBS_TOL for v in obs_dev.values())
    label = f"{frame} n={n} xi={params.xi:.6g} eps={params.epsilon:.6g}"
    return ComparisonReport(
        scenario=label,
        frame=frame,
        n=n,
        n_max=n_max,
        grid=grid,
        max_state_dev=state_dev,
        max_obs_dev=obs_dev,
        passed=passed,
        amps=numeric_amps,
        raw=raw,
        hamiltonian=hamiltonian,
        initial=psi0,
    )


def interior_projector(space: HilbertSpace, keep: int) -> np.ndarray:
    """Boolean mask of basis indices with photon number <= keep."""
    if keep < 0 or keep > space.n_max:
        raise ValueError(f"keep must lie in 0..{space.n_max}, got {keep}")
    return space.photon_numbers() <= keep


def interior_commutator_norm(
    a: OperatorMatrix, b: OperatorMatrix, keep: int
) -> float:
    """Max-abs entry of [a, b] restricted to the interior photon block.

    Products of single-ladder operators are only trustworthy away from the
    truncation edge, so keep must leave at least two photon levels above.
    """
    space = a.space
    if keep > space.n_max - 2:
        raise ValueError(
            f"interior block needs keep <= n_max - 2 = {space.n_max - 2}, got {keep}"
        )
    mask = interior_projector(space, keep)
    comm = commutator(a, b).entries
    block = comm[np.ix_(mask, mask)]
    return float(np.max(np.abs(block)))
