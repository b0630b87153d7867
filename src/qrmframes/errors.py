"""Exception types shared across the package."""


class QrmError(Exception):
    """Base class for package-specific errors."""


class TruncationError(QrmError):
    """Photon index outside the truncated Fock space."""


class HermiticityError(QrmError):
    """An operator failed a Hermiticity requirement."""


class NumericConsistencyError(QrmError):
    """A numerically derived quantity violated its consistency bound."""


class DegenerateBranchError(QrmError):
    """Qubit doublet with zero Rabi frequency; dressing coefficients undefined."""


class NullStateError(QrmError):
    """Requested eigenstate branch reduces to the zero vector."""


class ConfigError(QrmError):
    """Invalid experiment configuration. `field` names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
