"""Exception types raised by the solver."""


class ShwaveError(Exception):
    """Base class for all package-specific errors."""


class ProfileError(ShwaveError):
    """Invalid material profile data (non-positive values, bad grids, ...)."""


class DomainError(ShwaveError, ValueError):
    """Evaluation requested outside the half-line domain (y < 0, tau < 0)."""


class ThresholdError(ShwaveError):
    """Parameters at or above the cutoff ray where no decaying tail exists."""


class NoNegativeTailError(ShwaveError):
    """The coefficient never settles to a negative sign on the scanned range."""


class TailSelectionError(ShwaveError):
    """No tail-start depth meets the closeness or contraction criteria."""


class IntegrationError(ShwaveError):
    """Adaptive integration failed (step-size underflow or non-finite values).

    Carries the last accepted state so callers can diagnose where the
    integration broke down.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class TailConvergenceError(ShwaveError):
    """Tail-window doubling failed to stabilize the decaying phase angle."""


class MatchConsistencyError(ShwaveError):
    """Forward and backward sweeps disagree at the matching point."""


class OracleUnavailableError(ShwaveError):
    """An oracle failed its accuracy self-test and must not be trusted."""
