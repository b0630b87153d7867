"""Brute-force cross-validation of the closed-form solver.

Propagates states by dense Hermitian eigendecomposition, takes raw
expectation values without any frame convention, and compares both the
amplitudes (phase sensitive) and the reported observables against the
analytic path over a whole time grid. The decomposition is split only by
the QRM parity, where the Hamiltonian's entries do not couple its two
sectors (`hilbert`); no code here reads the doublets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, NumericConsistencyError
from .hilbert import (
    NORM_TOL,
    HilbertSpace,
    OperatorMatrix,
    StateVector,
    _check_n,
    _dense,
    _expectations,
    _propagate,
    _require_same_space,
    commutator,
)
from .model import ModelParams, _operators
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
    initial state it was propagated from.
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

    def worst_obs_dev(self) -> float:
        return max(self.max_obs_dev.values())


def _trajectory(hamiltonian: OperatorMatrix, psi0: StateVector, grid) -> np.ndarray:
    """(T, d) amplitudes exp(-i H t) psi0 on every grid time from a unit psi0 (`_propagate`)."""
    if abs(psi0.norm() - 1.0) > NORM_TOL:
        raise NumericConsistencyError(f"initial norm {psi0.norm()!r} is not 1")
    return _propagate(hamiltonian, psi0, grid)


def propagate_series(
    hamiltonian: OperatorMatrix, psi0: StateVector, grid
) -> list[StateVector]:
    """exp(-i H t) psi0 on every grid time from a single eigendecomposition."""
    return [StateVector(psi0.space, row) for row in _trajectory(hamiltonian, psi0, grid)]


_OBSERVABLE_TERMS = {"s_z": "sz", "sp_sm": "sp_sm", "sm_sp": "sm_sp", "ad_a": "ata", "a_ad": "a_ad", "n_jc": "n_jc", "n_ajc": "n_ajc"}


def standard_observables(space: HilbertSpace) -> dict[str, OperatorMatrix]:
    """The raw operator set used for cross-checks, read from the model's term table.

    a_ad is the algebraic a^dag a + 1, exact under truncation for any state
    with support below the top photon level; the number operators are the
    model's own for the same reason. All seven are diagonal: the oracle reads them off the table.
    """
    return {name: OperatorMatrix(space, _dense(space, space._terms[key]), hermitian=True) for name, key in _OBSERVABLE_TERMS.items()}


def observable_series(
    states: list[StateVector], ops: dict[str, OperatorMatrix]
) -> dict[str, np.ndarray]:
    """Expectation value of every named operator on every state.

    The states are stacked into one (T, d) array. An operator with exactly
    diagonal real entries (all of `standard_observables`) is read from the
    populations |amps|^2, formed once, in one real product, O(T d); any other
    costs one dense matrix product, O(T d^2) in BLAS (`hilbert._expectations`).
    As in `expectation`, an untagged operator or a foreign space raises.
    """
    if untagged := [name for name, op in ops.items() if not op.hermitian]:
        raise HermiticityError(f"observable_series requires hermitian-tagged operators, not {untagged}")
    if not states:
        return {name: np.array([]) for name in ops}
    for item in (*states, *ops.values()):
        _require_same_space(states[0].space, item.space)
    return _expectations(np.stack([psi.amps for psi in states]), ops)


def _observe(
    params: ModelParams, frame: str, psi0: StateVector, grid: np.ndarray
) -> tuple[OperatorMatrix, np.ndarray, dict[str, np.ndarray]]:
    """The propagated half of `compare_scenario`: the frame Hamiltonian on psi0's
    space, psi0's read-only (T, d) trajectory under it on the grid, and that
    trajectory's `standard_observables` series, read from the term table."""
    space = psi0.space
    (hamiltonian,) = _operators(params, space, frame)
    amps = _trajectory(hamiltonian, psi0, grid)
    amps.setflags(write=False)
    return hamiltonian, amps, _expectations(amps, {name: space._terms[key][0] for name, key in _OBSERVABLE_TERMS.items()})


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
    _check_n(n)
    if n_max is None:
        n_max = n + 20
    space = HilbertSpace(n_max)
    grid = np.asarray(grid, dtype=float)
    psi0 = analytic.initial_state(params, space, frame, n)
    analytic_amps = analytic.evolve_series(params, space, frame, n, grid)  # raises before any operator is built
    hamiltonian, numeric_amps, raw = _observe(params, frame, psi0, grid)
    analytic_amps -= numeric_amps  # in place: the closed form is a fresh local, read once
    state_dev = float(np.max(np.abs(analytic_amps), initial=0.0))

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
    if isinstance(keep, bool) or not isinstance(keep, (int, np.integer)) or not 0 <= keep <= space.n_max:
        raise ValueError(f"keep must be an integer in 0..{space.n_max}, got {keep!r}")
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
