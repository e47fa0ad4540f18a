"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`LatentOtError` so
callers (and the CLI) can map failures to exit codes without matching on
message text.
"""

from __future__ import annotations


class LatentOtError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(LatentOtError, ValueError):
    """A function argument violates its documented precondition."""


class ConfigError(LatentOtError, ValueError):
    """An experiment configuration file is malformed or inconsistent."""


class NumericFailureError(LatentOtError):
    """An iterative numeric routine failed to converge or broke down."""


class DensityMisconfiguredError(LatentOtError):
    """Rejection sampling cannot make progress with the given density."""


class TargetsDisconnectedError(LatentOtError):
    """A source/target pair has no connecting path in the graph."""

    def __init__(self, source_index: int, target_index: int):
        self.source_index = source_index
        self.target_index = target_index
        super().__init__(
            f"no path between source node {source_index} and target node {target_index}"
        )
