"""Exception hierarchy shared across the pipeline stages.

Every stage failure derives from OceanMineError so the CLI can map a
failure class to an exit code without string matching.  Parsing and
decoding errors carry enough position context (line numbers, block
spans) to locate the offending input.
"""

from __future__ import annotations


class OceanMineError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(OceanMineError):
    """A configuration value is out of range or otherwise unusable."""


class DataError(OceanMineError):
    """Input data violates the format or leaves a stage with nothing to do.

    ``stage`` names the pipeline stage that failed, for the CLI message.
    """

    def __init__(self, *args: object, stage: str = "data"):
        super().__init__(*args)
        self.stage = stage


class MalformedHeader(DataError):
    """A header line does not match the positional token grammar."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class BadHexToken(DataError):
    """A data line token is not a two-hex-digit byte."""

    def __init__(self, token: str, line_no: int | None = None):
        self.token = token
        self.line_no = line_no
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}bad hex byte token {token!r}")


class OddByteCount(DataError):
    """A message block ends with an unpaired byte."""

    def __init__(self, message: str, span: tuple[int, int] | None = None):
        self.span = span
        if span is not None:
            message = f"lines {span[0]}..{span[1]}: {message}"
        super().__init__(message)


class EmptyInput(DataError):
    """No message blocks were found in the input."""


class NonTripleWordCount(DataError):
    """A block's word count is not a multiple of three."""

    def __init__(self, count: int, span: tuple[int, int] | None = None):
        self.count = count
        self.span = span
        where = f"lines {span[0]}..{span[1]}: " if span is not None else ""
        super().__init__(
            f"{where}block has {count} words, not a multiple of 3"
        )


class DivergentIndex(DataError):
    """Pressure at or below the floor; the index would blow up."""


class AllSamplesRejected(DataError):
    """Every record in a segment failed the pressure precondition."""


class SeriesTooShort(DataError):
    """An index series is too short for the requested operation."""
