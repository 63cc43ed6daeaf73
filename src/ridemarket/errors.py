"""Exception types shared across the package: one class per failure kind.

Every error raised by the library on bad input derives from MarketError,
raised where the input is read, so callers (notably the command line
front end) can tell validation failures from programming errors, which
keep their built-in types.

- ValidationError: caller input is invalid (a wrong type, a value out of
  range, an unknown node, key, player or platform mapping).
- TooLargeError: input exceeds a size guard.
- UnreachableError: no directed path exists between two nodes.
- ScenarioParseError: a scenario, game or network file cannot be read or
  parsed.
- OutputError: a result file cannot be written.
- SolverError, PivotLimitError: the solver failed an invariant or hit its
  pivot limit.
- DrainError: a simulation ran out of epochs with work still in progress.
"""
from __future__ import annotations


class MarketError(Exception):
    """Base class for all domain errors raised by this package."""


class ValidationError(MarketError):
    """Caller input is invalid: a field of the wrong type or a value out of range."""


class TooLargeError(MarketError):
    """Input exceeds a size guard: the network's node bound, a platform's
    fleet bound or the oracle's."""


class UnreachableError(MarketError):
    """No directed path exists between the queried nodes."""


class ScenarioParseError(MarketError):
    """A scenario, game or network file cannot be read or parsed."""


class OutputError(MarketError):
    """A result file could not be written."""


class SolverError(MarketError):
    """A solver invariant failed: a relaxation reported an impossible status."""


class PivotLimitError(MarketError):
    """The simplex method hit its pivot limit; names the tableau size."""


class DrainError(MarketError):
    """A simulation ran out of epochs with requests or vehicles still busy."""
