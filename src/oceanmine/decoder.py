"""Counts-to-physical-units decoding for message block payloads.

A block payload is a flat run of 16-bit words in repeating
(temperature, salinity, pressure) triples, one triple per depth level,
shallow to deep.  Each channel maps counts to physical units linearly:

    value = offset + word * resolution

Default calibration (counts are unsigned 16-bit):

    channel      offset   resolution   decoded range
    -----------  -------  -----------  ----------------
    temperature  -5.0     0.001 degC   -5.0 .. 60.535
    salinity      0.0     0.001 PSU     0.0 .. 65.535
    pressure      0.0     0.1 dbar      0.0 .. 6553.5

Published values are rounded half away from zero to the channel's
canonical precision: three decimals for temperature and salinity, one
for pressure.  CalibrationTable.lines() is the one channel table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from pathlib import Path

from .errors import ConfigError, NonTripleWordCount
from .telemetry import LINE_RE, MessageBlock

_WORD_MAX = 0xFFFF


@dataclass(frozen=True)
class CalibrationTable:
    """Linear count-to-unit mapping for the three channels."""

    temp_offset: float = -5.0
    temp_resolution: float = 0.001
    sal_offset: float = 0.0
    sal_resolution: float = 0.001
    pres_offset: float = 0.0
    pres_resolution: float = 0.1

    def lines(self) -> tuple[tuple[str, float, float, int], ...]:
        """(channel, offset, resolution, decimals kept) in payload order."""
        return (
            ("temperature", self.temp_offset, self.temp_resolution, 3),
            ("salinity", self.sal_offset, self.sal_resolution, 3),
            ("pressure", self.pres_offset, self.pres_resolution, 1),
        )


DEFAULT_CALIBRATION = CalibrationTable()


@dataclass
class ProfileRecord:
    """One decoded depth level of one message block."""

    observed_at: datetime
    level: int
    temperature: float
    salinity: float
    pressure: float


def round_half_away(value: float, ndigits: int) -> float:
    """Round to ndigits decimals with ties going away from zero."""
    q = Decimal(1).scaleb(-ndigits)
    # repr() keeps the shortest decimal that round-trips, so a value
    # already on the grid stays put and the op is idempotent.
    out = float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))
    return out + 0.0  # normalise -0.0


def decode_block(
    block: MessageBlock, cal: CalibrationTable = DEFAULT_CALIBRATION
) -> list[ProfileRecord]:
    """Decode a block's words into per-level records.

    Words come in (temperature, salinity, pressure) triples, so each
    channel's words (every third, from its place in the triple) are
    mapped and rounded through its line in cal.lines(); level
    numbering starts at 1.  Every record carries the block time
    when the block has one, the header time otherwise.  Raises
    NonTripleWordCount when the word count is not a multiple of three.
    """
    words = block.words
    if len(words) % 3:
        raise NonTripleWordCount(
            f"block has {len(words)} words, not a multiple of 3",
            span=block.source_line_span,
        )
    observed_at = block.block_time or block.header.observed_at
    temperature, salinity, pressure = (
        [round_half_away(offset + word * resolution, decimals) for word in words[i::3]]
        for i, (_, offset, resolution, decimals) in enumerate(cal.lines())
    )
    return [
        ProfileRecord(observed_at, level, t, s, p)
        for level, (t, s, p) in enumerate(zip(temperature, salinity, pressure), start=1)
    ]


def load_calibration(path: str | Path) -> CalibrationTable:
    """Load a calibration table from a key = value file.

    Lines are "key = value" and end at LF, CR or CRLF, as in dumps;
    blank lines and '#' comments are ignored.
    Missing keys keep their defaults.  A file that is not ASCII,
    unknown keys, unparseable or non-finite values, non-positive
    resolutions, and a channel whose decoded range cannot be rounded
    to its precision raise ConfigError.
    """
    known = {f.name for f in fields(CalibrationTable)}
    values: dict[str, float] = {}
    try:
        text = Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: non-ASCII byte at offset {e.start}") from None
    for line_no, match in enumerate(LINE_RE.finditer(text), start=1):
        raw = match[0].rstrip("\r\n")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{line_no}: unknown calibration key {key!r}")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise ConfigError(
                f"{path}:{line_no}: bad value for {key}: {val.strip()!r}"
            ) from None
        if not math.isfinite(values[key]):
            raise ConfigError(f"{path}:{line_no}: {key} must be finite, got {values[key]}")
    cal = CalibrationTable(**values)
    for channel, offset, resolution, decimals in cal.lines():
        if resolution <= 0:
            raise ConfigError(f"{channel} resolution must be positive, got {resolution}")
        # The map is linear, so every word rounds if both extremes do.
        for word in (0, _WORD_MAX):
            value = offset + word * resolution
            try:
                round_half_away(value, decimals)
            except InvalidOperation:
                raise ConfigError(
                    f"{channel} calibration maps word {word} to "
                    f"{value}, beyond the decodable range"
                ) from None
    return cal
