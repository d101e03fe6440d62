"""Reader for raw drifting-float telemetry dumps.

A dump is line-oriented ASCII.  Lines end at LF, CR or CRLF; no other
character breaks a line.  The first line holding a non-ASCII byte is
a data error naming that line.  Three kinds of line occur:

  header line      one per satellite message, positional whitespace-
                   separated tokens (see table below)
  block time line  optional, starts with a date token; restamps the
                   message payload with a per-block acquisition time
  data line        whitespace-separated two-hex-digit byte tokens

Header token layout (left to right):

  pos  field            form                  example
  ---  ---------------  --------------------  -------------
  1    platform_id      5 decimal digits      02602
  2    message_id       decimal digits        2902102
  3    field_a          integer               65
  4    field_b          integer               32
  5    class_code       single uppercase      K
  6    pass_count       integer               2
  7    date             YYYY-MM-DD            2003-01-10
  8    time             HH:MM:SS[.ffffff]     11:50:18.0
  9    latitude         decimal degrees       0.691
  10   longitude        decimal degrees       76.559
  11   altitude_or_zero decimal               0.000
  12   transmitter_id   opaque token          401647210

Dates and times are ASCII digits in exactly the layout shown; the
time may carry 1 to 6 fractional-second digits.  A field out of the
calendar's range, or a longer fraction, is an unparseable timestamp.

Some feeds split message_id across several tokens ("29021 02" for
"2902102").  The reader re-joins them: the tokens between platform_id
and the two integers preceding class_code are concatenated, so both
renditions parse to the same header.

A block time line is "DATE TIME SEQ [BYTE ...]"; SEQ is a decimal
sequence number and is validated then dropped.  The first block time
line of a block sets block_time; any bytes riding on the line join the
payload in reading order.

Data bytes pair big-endian into 16-bit words, across line boundaries,
within a block.  A block ending on an unpaired byte is an error.  A
data line is checked whole, with one match over its joined tokens; the
first token that is not two hex digits is named only when that fails.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from .errors import (
    BadHexToken,
    DataError,
    EmptyInput,
    MalformedHeader,
    OddByteCount,
)

# ASCII digits only, so every field slices to an int as written.
_DATE_RE = re.compile(r"^[0-9]{4}-[0-9]{2}-[0-9]{2}$")
_TIME_RE = re.compile(r"^[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?$")
_HEX_RE = re.compile(r"^[0-9a-fA-F]{2}$")
# A data line's tokens joined by single spaces, all of them byte tokens.
_HEX_LINE_RE = re.compile(r"(?:[0-9a-fA-F]{2}(?: [0-9a-fA-F]{2})*)?")
_PLATFORM_RE = re.compile(r"^\d{5}$")
# One line and its ending; only LF, CR and CRLF end a line.  Matching
# lines in place keeps one copy of the dump in memory.
LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")

# Minimum token count for a header line; message_id may span extra
# tokens beyond this, the rest of the layout is fixed.
_MIN_TOKENS = 12


@dataclass(frozen=True)
class HeaderFields:
    """One parsed header line."""

    platform_id: str
    message_id: str
    field_a: int
    field_b: int
    class_code: str
    pass_count: int
    observed_at: datetime
    latitude: float
    longitude: float
    altitude_or_zero: float
    transmitter_id: str


@dataclass
class MessageBlock:
    """A header plus the words decoded from the lines attributed to it."""

    header: HeaderFields
    words: list[int]
    block_time: datetime | None = None
    source_line_span: tuple[int, int] = field(default=(0, 0), compare=False)


def _parse_timestamp(date_tok: str, time_tok: str, line_no: int | None) -> datetime:
    if not _DATE_RE.match(date_tok) or not _TIME_RE.match(time_tok):
        raise MalformedHeader(
            f"bad timestamp tokens {date_tok!r} {time_tok!r}", line=line_no
        )
    # The regexes fix every field's place; datetime checks the ranges.
    frac = time_tok[9:]
    if len(frac) <= 6:
        try:
            return datetime(
                int(date_tok[:4]), int(date_tok[5:7]), int(date_tok[8:]),
                int(time_tok[:2]), int(time_tok[3:5]), int(time_tok[6:8]),
                int(frac.ljust(6, "0")),
            )
        except ValueError:
            pass
    text = f"{date_tok} {time_tok}"
    raise MalformedHeader(f"unparseable timestamp {text!r}", line=line_no)


def parse_header(line: str, line_no: int | None = None) -> HeaderFields:
    """Parse one header line into HeaderFields.

    Tokens are bound positionally as documented in the module
    docstring.  Raises MalformedHeader (with the line number when
    known) on wrong token count, a malformed field, or an out-of-range
    coordinate.
    """
    tokens = line.split()
    if len(tokens) < _MIN_TOKENS:
        raise MalformedHeader(
            f"expected at least {_MIN_TOKENS} tokens, got {len(tokens)}", line=line_no
        )

    platform_id = tokens[0]
    if not _PLATFORM_RE.match(platform_id):
        raise MalformedHeader(f"bad platform id {platform_id!r}", line=line_no)

    # Fixed tail: class_code pass_count date time lat lon alt transmitter.
    (class_code, pass_tok, date_tok, time_tok,
     lat_tok, lon_tok, alt_tok, transmitter_id) = tokens[-8:]
    mid = tokens[1:-8]

    message_id = "".join(mid[:-2])
    if not message_id.isdigit():
        raise MalformedHeader(f"bad message id {' '.join(mid[:-2])!r}", line=line_no)

    try:
        field_a = int(mid[-2])
        field_b = int(mid[-1])
    except ValueError:
        raise MalformedHeader(
            f"bad integer fields {mid[-2]!r} {mid[-1]!r}", line=line_no
        ) from None

    if len(class_code) != 1 or not class_code.isupper():
        raise MalformedHeader(f"bad class code {class_code!r}", line=line_no)
    if not pass_tok.isdigit():
        raise MalformedHeader(f"bad pass count {pass_tok!r}", line=line_no)

    observed_at = _parse_timestamp(date_tok, time_tok, line_no)

    try:
        latitude = float(lat_tok)
        longitude = float(lon_tok)
        altitude = float(alt_tok)
    except ValueError:
        raise MalformedHeader(
            f"bad coordinate tokens {lat_tok!r} {lon_tok!r} {alt_tok!r}", line=line_no
        ) from None
    if not -90.0 <= latitude <= 90.0:
        raise MalformedHeader(f"latitude {latitude} out of [-90, 90]", line=line_no)
    if not -180.0 <= longitude <= 180.0:
        raise MalformedHeader(f"longitude {longitude} out of [-180, 180]", line=line_no)

    return HeaderFields(
        platform_id=platform_id,
        message_id=message_id,
        field_a=field_a,
        field_b=field_b,
        class_code=class_code,
        pass_count=int(pass_tok),
        observed_at=observed_at,
        latitude=latitude,
        longitude=longitude,
        altitude_or_zero=altitude,
        transmitter_id=transmitter_id,
    )


class _BlockBuilder:
    """Accumulates one block's bytes until the next header closes it."""

    def __init__(self, header: HeaderFields, first_line: int):
        self.header = header
        self.block_time: datetime | None = None
        self.payload = bytearray()
        self.first_line = first_line
        self.last_line = first_line

    def add_bytes(self, tokens: list[str], line_no: int) -> None:
        line = " ".join(tokens)
        if not _HEX_LINE_RE.fullmatch(line):
            bad = next(tok for tok in tokens if not _HEX_RE.match(tok))
            raise BadHexToken(f"bad hex byte token {bad!r}", line=line_no)
        self.payload += bytes.fromhex(line)
        self.last_line = line_no

    def finish(self) -> MessageBlock:
        n, odd = divmod(len(self.payload), 2)
        if odd:
            raise OddByteCount(
                f"block has {len(self.payload)} bytes, one unpaired",
                span=(self.first_line, self.last_line),
            )
        return MessageBlock(
            header=self.header,
            words=list(struct.unpack(f">{n}H", self.payload)),
            block_time=self.block_time,
            source_line_span=(self.first_line, self.last_line),
        )


def parse_stream(text: str) -> list[MessageBlock]:
    """Parse a telemetry dump into MessageBlocks, in input order.

    Lines end at LF, CR or CRLF.  Every data line is attributed to the
    most recent header.  Blank lines are skipped and surrounding
    whitespace is tolerated.  Raises DataError naming the line of the
    first non-ASCII character, MalformedHeader, BadHexToken,
    OddByteCount (all with line positions) and EmptyInput when no block
    is found.
    """
    blocks: list[MessageBlock] = []
    current: _BlockBuilder | None = None

    for line_no, line in enumerate(LINE_RE.finditer(text), start=1):
        raw = line[0]
        if not raw.isascii():
            bad = next(ch for ch in raw if not ch.isascii())
            raise DataError(f"non-ASCII byte 0x{ord(bad):02x}", line=line_no)
        tokens = raw.split()
        if not tokens:
            continue

        if _PLATFORM_RE.match(tokens[0]):
            if current is not None:
                blocks.append(current.finish())
            header = parse_header(raw, line_no)
            current = _BlockBuilder(header, line_no)
            continue

        if current is None:
            raise MalformedHeader("data line before any header", line=line_no)

        if _DATE_RE.match(tokens[0]):
            if len(tokens) < 2 or not _TIME_RE.match(tokens[1]):
                raise MalformedHeader(
                    f"block time line missing time token: {raw.strip()!r}", line=line_no
                )
            stamp = _parse_timestamp(tokens[0], tokens[1], line_no)
            if current.block_time is None:
                current.block_time = stamp
            rest = tokens[2:]
            if rest:
                if not rest[0].isdigit():
                    raise MalformedHeader(
                        f"block time line has bad sequence token {rest[0]!r}",
                        line=line_no,
                    )
                current.add_bytes(rest[1:], line_no)
            else:
                current.last_line = line_no
            continue

        current.add_bytes(tokens, line_no)

    if current is not None:
        blocks.append(current.finish())
    if not blocks:
        raise EmptyInput("no message blocks in input")
    return blocks


def parse_file(path: str | Path) -> list[MessageBlock]:
    """Parse a telemetry dump from disk, under parse_stream's rules.

    latin-1 maps each byte to one character, so a non-ASCII byte
    reaches parse_stream's check as itself.
    """
    return parse_stream(Path(path).read_bytes().decode("latin-1"))
