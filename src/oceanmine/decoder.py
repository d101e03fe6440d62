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
for pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import datetime
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from pathlib import Path

from .errors import ConfigError, NonTripleWordCount
from .telemetry import LINE_RE, MessageBlock

CHANNELS = ("temperature", "salinity", "pressure")

# Decimal places kept per channel, ties away from zero.
PRECISION = {"temperature": 3, "salinity": 3, "pressure": 1}

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

    def line_for(self, channel: str) -> tuple[float, float]:
        """Return (offset, resolution) for a channel name."""
        if channel == "temperature":
            return self.temp_offset, self.temp_resolution
        if channel == "salinity":
            return self.sal_offset, self.sal_resolution
        if channel == "pressure":
            return self.pres_offset, self.pres_resolution
        raise ConfigError(f"unknown channel {channel!r}")


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


def decode_word(word: int, channel: str, cal: CalibrationTable = DEFAULT_CALIBRATION) -> float:
    """Map one raw count to physical units (no precision rounding)."""
    offset, resolution = cal.line_for(channel)
    return offset + word * resolution


def decode_block(
    block: MessageBlock, cal: CalibrationTable = DEFAULT_CALIBRATION
) -> list[ProfileRecord]:
    """Decode a block's words into per-level records.

    Words are consumed in (temperature, salinity, pressure) triples;
    level numbering starts at 1.  Every record carries the block time
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

    def value(word: int, channel: str) -> float:
        return round_half_away(decode_word(word, channel, cal), PRECISION[channel])

    return [
        ProfileRecord(
            observed_at=observed_at,
            level=i // 3 + 1,
            temperature=value(words[i], "temperature"),
            salinity=value(words[i + 1], "salinity"),
            pressure=value(words[i + 2], "pressure"),
        )
        for i in range(0, len(words), 3)
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
    for channel in CHANNELS:
        _, resolution = cal.line_for(channel)
        if resolution <= 0:
            raise ConfigError(f"{channel} resolution must be positive, got {resolution}")
        # The map is linear, so every word rounds if both extremes do.
        for word in (0, _WORD_MAX):
            try:
                round_half_away(decode_word(word, channel, cal), PRECISION[channel])
            except InvalidOperation:
                raise ConfigError(
                    f"{channel} calibration maps word {word} to "
                    f"{decode_word(word, channel, cal)}, beyond the decodable range"
                ) from None
    return cal
