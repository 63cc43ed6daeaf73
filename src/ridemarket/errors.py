"""Exception types shared across the package.

Every error raised by the library on bad input derives from MarketError,
raised where the input is read, so callers (notably the command line
front end) can tell validation failures from programming errors, which
keep their built-in types.
"""
from __future__ import annotations


class MarketError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(MarketError):
    """Caller input is invalid: a field of the wrong type or a value out of range."""


# --- network -----------------------------------------------------------------

class MissingFileError(MarketError):
    """An input file does not exist or cannot be read."""


class MalformedRowError(MarketError):
    """A row of an input file cannot be parsed; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DanglingEdgeError(MarketError):
    """An edge references a node that was never declared."""


class InvalidDimensionError(MarketError):
    """Grid construction called with non-positive dimensions or rates."""


class UnknownNodeError(MarketError):
    """A node id is not part of the network."""


class UnreachableError(MarketError):
    """No directed path exists between the queried nodes."""


# --- model -------------------------------------------------------------------

class NegativeInputError(MarketError):
    """A distance, duration or amount that must be non-negative was negative."""


# --- rtv ---------------------------------------------------------------------

class UnmappedEntityError(MarketError):
    """A request or vehicle has no platform mapping."""


# --- solve -------------------------------------------------------------------

class TooLargeError(MarketError):
    """Input exceeds a size guard: the network's node bound, a platform's
    fleet bound or the oracle's."""


class DimensionMismatchError(MarketError):
    """Linear program rows or bounds disagree with the variable count."""


class PivotLimitError(MarketError):
    """The simplex method hit its pivot limit; names the tableau size."""


class SolverError(MarketError):
    """A solver invariant failed: a relaxation reported an impossible status."""


# --- mechanisms --------------------------------------------------------------

class EmptyCoalitionError(MarketError):
    """The empty coalition has no characteristic value."""


class NonpositiveStandaloneError(MarketError):
    """Ratio-based allocation requires every singleton value to be positive."""


class ZeroDenominatorError(MarketError):
    """Weight construction would divide by a non-positive total."""


class ZeroWeightError(MarketError):
    """A player weight is zero or negative where a positive weight is required."""


class InvalidGammaError(MarketError):
    """The information price rate must lie in [0, 1]."""


# --- engine ------------------------------------------------------------------

class DrainError(MarketError):
    """A simulation ran out of epochs with requests or vehicles still busy."""


# --- io / cli ----------------------------------------------------------------

class ScenarioParseError(MarketError):
    """Scenario or game file is not syntactically valid."""


class UnknownKeyError(MarketError):
    """Scenario file contains a key outside the schema."""


class OutputError(MarketError):
    """A result file could not be written."""
