"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ConfigError -> 2, NumericalGuardError -> 3,
anything else -> 4.
"""


class ScnlsError(Exception):
    """Base class for package errors."""


class ConfigError(ScnlsError):
    """Invalid configuration document or parameter value."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class GridMismatchError(ScnlsError):
    """Operands live on different grids."""


class NumericalGuardError(ScnlsError):
    """A solver self-check failed (non-finite values, CFL breach,
    or a step-doubling convergence guard above tolerance).

    ``trajectory`` is the flagged run when the check came after a complete
    integration (the wavefunction's step-doubling guard), else None."""

    def __init__(self, message: str, value: float | None = None,
                 trajectory=None):
        self.value = value
        self.trajectory = trajectory
        super().__init__(message)
