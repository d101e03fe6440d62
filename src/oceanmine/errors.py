"""Exceptions shared across the pipeline stages.

The CLI maps ConfigError, OSError and DataError each to its own exit
code, without string matching.  A fault in the input is one DataError
whose message names its line or its block's lines; the position prefix
is formatted once, in DataError.  A subclass exists only where a
caller catches it by type.
"""

from __future__ import annotations


class ConfigError(Exception):
    """A configuration value is out of range or otherwise unusable."""


class DataError(Exception):
    """Input data violates the format or leaves a stage with nothing to do.

    ``line`` prefixes the message with "line N: " and ``span`` with
    "lines a..b: ".  ``stage`` names the pipeline stage that failed, for
    the CLI message.
    """

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        span: tuple[int, int] | None = None,
        stage: str = "data",
    ):
        if line is not None:
            message = f"line {line}: {message}"
        if span is not None:
            message = f"lines {span[0]}..{span[1]}: {message}"
        super().__init__(message)
        self.stage = stage


class NonTripleWordCount(DataError):
    """A block's word count is not a multiple of three."""


class AllSamplesRejected(DataError):
    """Every record in a segment failed the pressure precondition."""
