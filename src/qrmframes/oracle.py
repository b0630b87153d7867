"""Brute-force cross-validation of the closed-form solver.

Propagates states by dense Hermitian eigendecomposition, takes raw
expectation values without any frame convention, and compares both the
amplitudes (phase sensitive) and the reported observables against the
analytic path over a whole time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError, NumericConsistencyError
from .hilbert import (
    HilbertSpace,
    OperatorMatrix,
    StateVector,
    _propagate,
    commutator,
    primitive_matrices,
)
from .model import ModelParams, build_effective, build_number_ops
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

RAW_NAMES = ("s_z", "sp_sm", "sm_sp", "ad_a", "a_ad", "n_jc", "n_ajc")

# reported column -> raw expectation, per frame
RF_COLUMN_MAP = analytic.FRAMES["rf"].columns
CRF_COLUMN_MAP = analytic.FRAMES["crf"].columns


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Outcome of one closed-form versus propagator scenario, with the
    propagated trajectory (states) and its `standard_observables` series (raw)."""

    scenario: str
    frame: str
    n: int
    n_max: int
    grid: np.ndarray
    max_state_dev: float
    max_obs_dev: dict[str, float]
    passed: bool
    states: list[StateVector]
    raw: dict[str, np.ndarray]

    def worst_obs_dev(self) -> float:
        return max(self.max_obs_dev.values())


def propagate_series(
    hamiltonian: OperatorMatrix, psi0: StateVector, grid
) -> list[StateVector]:
    """exp(-i H t) psi0 on every grid time from a single eigendecomposition."""
    if not hamiltonian.hermitian:
        raise HermiticityError("propagation requires a hermitian-tagged operator")
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise NumericConsistencyError(f"initial norm {psi0.norm()!r} is not 1")
    amps = _propagate(hamiltonian.entries, psi0.amps, np.asarray(grid, dtype=float))
    return [StateVector(psi0.space, row) for row in amps]


def standard_observables(space: HilbertSpace) -> dict[str, OperatorMatrix]:
    """The raw operator set used for cross-checks.

    a_ad is the algebraic a^dag a + 1, exact under truncation for any state
    with support below the top photon level; the number operators come from
    the model builders for the same reason.
    """
    p = primitive_matrices(space)
    n_jc, n_ajc = build_number_ops(space)
    return {
        "s_z": OperatorMatrix(space, p["sz"], hermitian=True),
        "sp_sm": OperatorMatrix(space, p["sp"] @ p["sm"], hermitian=True),
        "sm_sp": OperatorMatrix(space, p["sm"] @ p["sp"], hermitian=True),
        "ad_a": OperatorMatrix(space, p["ata"], hermitian=True),
        "a_ad": OperatorMatrix(space, p["ata"] + p["eye"], hermitian=True),
        "n_jc": n_jc,
        "n_ajc": n_ajc,
    }


def observable_series(
    states: list[StateVector], ops: dict[str, OperatorMatrix]
) -> dict[str, np.ndarray]:
    """Expectation value of every named operator on every state.

    Each operator is applied to the whole (T, d) stack in one matrix
    product, so any dense Hermitian operator costs O(T d^2) in BLAS.
    """
    if not states:
        return {name: np.array([]) for name in ops}
    stack = np.stack([psi.amps for psi in states])
    bra = stack.conj()
    out = {}
    for name, op in ops.items():
        values = np.einsum("ti,ti->t", bra, stack @ op.entries.T)
        imag = float(np.max(np.abs(values.imag)))
        if imag > 1e-12:
            raise NumericConsistencyError(
                f"<{name}> has imaginary residue {imag:.3e}"
            )
        out[name] = values.real
    return out


def compare_scenario(
    params: ModelParams,
    frame: str,
    n: int,
    grid,
    n_max: int | None = None,
    state_tol: float = STATE_TOL,
    obs_tol: float = OBS_TOL,
) -> ComparisonReport:
    """Run one frame scenario both ways and report the worst deviations.

    The initial state is the frame's canonical eigenstate (plus branch of
    the counter-rotating component in the rotating frame, minus branch of
    the rotating component in the counter-rotating frame). Times are
    physical; multiply by g for the dimensionless axis. A truncation that
    cannot hold the analytic support raises TruncationError.
    """
    spec = analytic.frame_spec(frame)
    if n_max is None:
        n_max = n + 20
    space = HilbertSpace(n_max)
    grid = np.asarray(grid, dtype=float)
    hamiltonian = build_effective(params, space)[spec.hamiltonian]
    psi0 = analytic.initial_state(params, space, frame, n)

    analytic_amps = analytic.evolve_series(params, space, frame, n, grid)
    numeric_states = propagate_series(hamiltonian, psi0, grid)
    numeric_amps = np.reshape([psi.amps for psi in numeric_states], analytic_amps.shape)
    state_dev = float(np.max(np.abs(analytic_amps - numeric_amps), initial=0.0))

    raw = observable_series(numeric_states, standard_observables(space))
    predicted = analytic.observables(params, frame, n, grid).as_dict()
    obs_dev = {
        column: float(np.max(np.abs(np.broadcast_to(predicted[column], grid.shape) - raw[raw_name])))
        for column, raw_name in spec.columns.items()
    }
    passed = state_dev <= state_tol and all(v <= obs_tol for v in obs_dev.values())
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
        states=numeric_states,
        raw=raw,
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
