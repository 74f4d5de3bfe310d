"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes, so every user-facing failure
mode gets its own class.
"""


class WaldschmidtError(Exception):
    """Base class for all package errors."""


class RankMismatchError(WaldschmidtError):
    """Two lattice classes of different rank were combined."""


class UnsupportedRankError(WaldschmidtError):
    """A rank outside the supported range 0..8 was requested."""


class ClassParseError(WaldschmidtError):
    """A class string off the grammar, or a class with a non-integer coefficient."""


class InvalidRootError(WaldschmidtError):
    """A reflection was requested in a class that is not a root."""


class OrbitTooLargeError(WaldschmidtError):
    """A Weyl-orbit closure exceeded the hard element cap."""


class ConfigurationError(WaldschmidtError):
    """A surface configuration failed validation."""


class ProximityViolationError(WaldschmidtError):
    """Multiplicities violate the proximity inequalities of a configuration."""


class InfeasibleConeError(WaldschmidtError):
    """The requested class never enters the effective cone (inconsistent input)."""


class SolverInvariantError(WaldschmidtError):
    """An internal solver invariant failed: a bug, never a property of the input."""


class BoundingFailureError(WaldschmidtError):
    """No bounding functional could be derived for an integer monoid search."""


class MonomialError(WaldschmidtError):
    """Invalid monomial-ideal input or operation."""
