"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: ConfigError -> 2, NumericalGuardError -> 3,
anything else -> 4.
"""

from contextlib import contextmanager


class ScnlsError(Exception):
    """Base class for package errors."""


class ConfigError(ScnlsError):
    """Invalid configuration document or parameter value."""

    def __init__(self, key: str, message: str):
        self.key, self.message = key, message
        super().__init__(f"{key}: {message}")


@contextmanager
def rekeyed(key: str, new_key: str):
    """A ConfigError with key ``key`` from the block, raised under new_key."""
    try:
        yield
    except ConfigError as exc:
        if exc.key != key:
            raise
        raise ConfigError(new_key, exc.message) from exc


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
