"""Exception hierarchy shared across the package."""


class HitPathsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HitPathsError):
    """Malformed input text (bad token, missing header, wrong counts)."""


class ValidationError(HitPathsError):
    """Structurally invalid data (ids out of range, non-adjacent path steps, ...)."""


class NotAPath(HitPathsError):
    """A component that was required to be an induced path is not one."""


class ClauseTooWide(HitPathsError):
    """A clause exceeds the width supported by the consumer."""


class CapExceeded(HitPathsError):
    """An enumeration would exceed its configured work cap."""


class FlowerShapeViolation(HitPathsError):
    """Branch construction did not yield a flower with simple target paths."""


class InvariantViolation(HitPathsError):
    """A solver produced output that failed its own verification."""


class TooFewEdges(HitPathsError):
    """Clique reduction input has fewer edges than required pairs."""


class InfeasibleConfig(HitPathsError):
    """Generator configuration cannot be realized."""
