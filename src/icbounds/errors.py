"""Exception types shared across the package.

The CLI maps these onto exit codes in one place, ``cli.EXIT_CODES``:
input/shape problems and simulations over the codebook cap exit 2,
undefined quantities exit 3, regime violations exit 4.  The errors that only the tests' reference code raises
live with it, in ``tests/reference.py``.
"""


class InputError(ValueError):
    """Malformed or invariant-violating input (channel spec, config, table)."""


class ChannelShapeError(InputError):
    """Channel does not have the structure an operation requires."""


class UndefinedThresholdError(Exception):
    """A regime threshold involves a division by zero."""


class RegimeViolationError(Exception):
    """Channel fails the regime condition an evaluator assumes."""


class ResourceLimitError(RuntimeError):
    """Requested simulation exceeds the configured codebook cap."""
