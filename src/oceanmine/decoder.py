"""Counts-to-physical-units decoding for message block payloads.

A block payload is a flat run of big-endian 16-bit words in repeating
(temperature, salinity, pressure) triples, one triple per depth level,
shallow to deep.  Each channel maps counts to physical units linearly:

    value = offset + word * resolution

Default calibration (counts are unsigned 16-bit):

    channel      offset   resolution   decoded range
    -----------  -------  -----------  ----------------
    temperature  -5.0     0.001 degC   -5.0 .. 60.535
    salinity      0.0     0.001 PSU     0.0 .. 65.535
    pressure      0.0     0.1 dbar      0.0 .. 6553.5

Published values are rounded half away from zero to the decimals of
CalibrationTable.lines(), the one channel table, and records.csv prints
them at those decimals: three for temperature and salinity, one for pressure.

A channel has at most 65,536 words, so decoding goes through an exact
memo: decode_memo(cal) gives one dict per channel line, filled on first
use with the rounded value the formula gives, and decode_block(block,
memo) reads it.  pipeline.run builds one memo per run and drops it after
decoding, so nothing is shared between runs.  Every word must map to a
magnitude below 10**(28 - decimals), 1e25 for temperature and salinity
and 1e27 for pressure.  That keeps T**2 and S*T in the oscillation index
near 1e50 at most, where a merely finite bound would let an offset of
1e200 square to inf and write -inf into the index.

round_half_away rounds in float arithmetic.  With P = 10**ndigits, exact
for ndigits <= 22, and u = 2**-53, s = |value| * P is within u * S of the
exact product S, and a tie that repr() shows is a decimal (n + 1/2) / P
whose nearest double is |value|, so its S is within u * S of n + 1/2.  So
an s more than 2 * u * S from every half-integer is no tie and rounds as
S does, to k = floor(s + 1/2), and k / P, one correctly rounded division,
is the double round() gives.  It tests 1/2 - |s - k| > s * 2**-51, at
least 2 * u * S, and reads all else off repr()'s digits: every ndigits
> 22, all s from 2**50 on (whole doubles from 2**52 on among them), and
any s + 1/2 that rounds up onto the next integer, as |s - k| > 1/2 then.
"""

from __future__ import annotations

import math
import struct
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, NonTripleWordCount
from .telemetry import MessageBlock, lf_endings, read_number

_WORD_MAX = 0xFFFF


class CalibrationTable(NamedTuple):
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


class ProfileRecord(NamedTuple):
    """One decoded depth level of one message block."""

    observed_at: datetime
    level: int
    temperature: float
    salinity: float
    pressure: float


def round_half_away(value: float, ndigits: int) -> float:
    """Round to ndigits >= 0 decimals with ties going away from zero.

    A tie is read off the shortest decimal that repr() prints, so a
    value already on the grid stays put and 0.0005 rounds to 0.001.
    """
    if ndigits <= 22:  # 10.0**ndigits is exact
        scale = 10.0**ndigits
        scaled = abs(value) * scale
        k = (scaled + 0.5) // 1.0  # floor; nan when scaled is inf
        if 0.5 - abs(scaled - k) > scaled * 2.0**-51:  # clear of every tie
            return math.copysign(k / scale, value) + 0.0
    digits, _, exp = repr(abs(value)).partition("e")
    whole, _, frac = digits.partition(".")
    if digits[-1] == "5" and len(frac) - int(exp or 0) == ndigits + 1:
        # int / int is correctly rounded, so the tie rounds exactly
        return math.copysign((int(whole + frac) // 10 + 1) / 10**ndigits, value)
    # round() rounds the exact binary value; no tie at ndigits + 1
    # decimals lies between a float and its repr(), so both agree
    return round(value, ndigits) + 0.0  # normalise -0.0


class _RoundedLine(dict):
    """word -> its rounded value on one channel line, filled on first use."""

    __slots__ = ("offset", "resolution", "decimals")

    def __init__(self, line: tuple[str, float, float, int]):
        super().__init__()
        _, self.offset, self.resolution, self.decimals = line

    def __missing__(self, word: int) -> float:
        value = self.offset + word * self.resolution
        self[word] = rounded = round_half_away(value, self.decimals)
        return rounded


def decode_memo(cal: CalibrationTable) -> tuple[_RoundedLine, ...]:
    """One empty word -> rounded value dict per line of cal.lines()."""
    return tuple(map(_RoundedLine, cal.lines()))


def decode_block(
    block: MessageBlock, memo: tuple[_RoundedLine, ...]
) -> list[ProfileRecord]:
    """Decode a block's payload into per-level records.

    The payload's words come in (temperature, salinity, pressure)
    triples; each word is mapped and rounded through its channel's line
    of memo, a decode_memo(cal), and level numbering starts at 1.  Every
    record carries the header's observed_at.  Raises NonTripleWordCount
    when the word count is not a multiple of three.  Pass the same memo
    for every block of a run.
    """
    payload = block.payload
    if len(payload) % 6:
        raise NonTripleWordCount(
            f"block has {len(payload) // 2} words, not a multiple of 3",
            span=block.source_line_span,
        )
    observed_at = block.header.observed_at
    temperature, salinity, pressure = memo
    return [
        ProfileRecord(observed_at, level, temperature[t], salinity[s], pressure[p])
        for level, (t, s, p) in enumerate(struct.iter_unpack(">3H", payload), start=1)
    ]


def load_calibration(path: str | Path) -> CalibrationTable:
    """Load a calibration table from a key = value file.

    Lines are "key = value" and are read as in dumps: they end at LF, CR
    or CRLF, and a non-ASCII byte is named with its line.  Blank lines
    and '#' comments are ignored.
    Missing keys keep their defaults.  A non-ASCII file, an unknown or
    repeated key, a value read_number rejects, a non-positive resolution
    and a channel that maps a word outside the decodable range raise
    ConfigError.
    """
    values: dict[str, float] = {}
    line_of: dict[str, int] = {}
    text = lf_endings(Path(path).read_bytes().decode("latin-1"))  # a byte a character
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw.isascii():
            bad = next(ch for ch in raw if not ch.isascii())
            raise ConfigError(f"{path}:{line_no}: non-ASCII byte 0x{ord(bad):02x}")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CalibrationTable._fields:
            raise ConfigError(f"{path}:{line_no}: unknown calibration key {key!r}")
        if line_of.setdefault(key, line_no) != line_no:
            raise ConfigError(f"{path}:{line_no}: {key} already set on line {line_of[key]}")
        try:
            values[key] = read_number(val.strip(), float)
        except ValueError:
            raise ConfigError(
                f"{path}:{line_no}: bad value for {key}: {val.strip()!r}"
            ) from None
    cal = CalibrationTable(**values)
    for channel, offset, resolution, decimals in cal.lines():
        if resolution <= 0:
            raise ConfigError(f"{channel} resolution must be positive, got {resolution}")
        # The map is linear, so every word decodes if both extremes do.
        bound = 10.0 ** (28 - decimals)
        for word in (0, _WORD_MAX):
            value = offset + word * resolution
            if not abs(value) < bound:
                raise ConfigError(
                    f"{channel} calibration maps word {word} to {value}, "
                    f"beyond the decodable range: magnitude below {bound:g}"
                )
    return cal
