"""Exceptions shared across the pipeline stages.

The CLI maps ConfigError, OSError and DataError (with its subclasses)
each to its own exit code, without string matching.  Parsing and
decoding errors name the offending input line or block span; the
position prefix is formatted once, in DataError.
"""

from __future__ import annotations


class ConfigError(Exception):
    """A configuration value is out of range or otherwise unusable."""


class DataError(Exception):
    """Input data violates the format or leaves a stage with nothing to do.

    ``line`` prefixes the message with "line N: " and ``span`` with
    "lines a..b: "; ``span`` is kept for callers.  ``stage`` names the
    pipeline stage that failed, for the CLI message.
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
        self.span = span
        self.stage = stage


class MalformedHeader(DataError):
    """A header line does not match the positional token grammar."""


class BadHexToken(DataError):
    """A data line token is not a two-hex-digit byte."""


class OddByteCount(DataError):
    """A message block ends with an unpaired byte."""


class EmptyInput(DataError):
    """No message blocks were found in the input."""


class NonTripleWordCount(DataError):
    """A block's word count is not a multiple of three."""


class AllSamplesRejected(DataError):
    """Every record in a segment failed the pressure precondition."""
