"""Exception types shared across the library.

The hierarchy is deliberately shallow: one base class so callers can
catch everything from this package, plus a handful of distinguishable
failure kinds that the command line maps to exit codes.
"""


class PowergramError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(PowergramError):
    """Network data violates a structural requirement.

    Raised for asymmetric or indefinite Laplacians, positive
    off-diagonals, non-positive inertia or damping, malformed input
    files, and degenerate equilibria during admittance recovery.
    """


class StabilityError(PowergramError):
    """A matrix required to be Hurwitz is not."""


class NumericalError(PowergramError):
    """A numerical routine failed to converge or returned garbage."""


class NotPositiveDefiniteError(NumericalError):
    """A matrix required to be symmetric positive definite is not."""


class CombinationCapError(PowergramError):
    """Exhaustive enumeration would exceed the configured cap."""
