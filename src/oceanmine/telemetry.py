"""Reader for raw drifting-float telemetry dumps.

A dump is line-oriented ASCII.  Lines end at LF, CR or CRLF; no other
character breaks a line.  The first line holding a non-ASCII byte is
a data error naming that line.  Three kinds of line occur:

  header line      one per satellite message, positional whitespace-
                   separated tokens (see table below)
  block time line  optional, starts with a date token; restamps the
                   block with a per-block acquisition time
  data line        whitespace-separated two-hex-digit byte tokens

Header token layout (left to right).  HeaderFields keeps the starred
tokens, date and time as observed_at; parse_header checks the others
and drops them.

  pos  field            form                       example
  ---  ---------------  -------------------------  -------------
  1  * platform_id      5 ASCII digits             02602
  2    message_id       ASCII digits               2902102
  3    field_a          integer                    65
  4    field_b          integer                    32
  5    class_code       single uppercase           K
  6    pass_count       ASCII digits               2
  7  * date             YYYY-MM-DD                 2003-01-10
  8  * time             HH:MM:SS[.ffffff]          11:50:18.0
  9  * latitude         decimal degrees            0.691
  10 * longitude        decimal degrees            76.559
  11   altitude_or_zero finite decimal             0.000
  12   transmitter_id   opaque token               401647210

Dates and times are ASCII digits in exactly the layout shown; the
time may carry 1 to 6 fractional-second digits.  A field out of the
calendar's range, or a longer fraction, is an unparseable timestamp.

Some feeds split message_id across several tokens ("29021 02" for
"2902102").  The reader re-joins them: the tokens between platform_id
and the two integers preceding class_code are concatenated, so both
renditions pass the same check.

A block time line is "DATE TIME SEQ [BYTE ...]"; SEQ is a decimal
sequence number and is validated then dropped.  The first block time
line of a block replaces the header's observed_at; any bytes riding
on the line join the payload in reading order.

A block carries its data bytes as read, in one bytes payload.  They
pair big-endian into 16-bit words, across line boundaries, within a
block; a block ending on an unpaired byte is an error.  A dump is read
one block to a match; one that this does not cover, valid or not (two
block time lines in a block, \x1c-\x1f in a data line), is walked line
by line instead.  Only the walk raises; both give the same blocks.
"""

from __future__ import annotations

import math
import re
from datetime import datetime
from pathlib import Path
from typing import NamedTuple

from .errors import (
    BadHexToken,
    DataError,
    EmptyInput,
    MalformedHeader,
    OddByteCount,
)

# ASCII digits and capitals only, so every field slices to an int as
# written and no other script's digit or letter passes.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_TIME_RE = re.compile(r"[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?")
_PLATFORM_RE = re.compile(r"[0-9]{5}")
_DIGITS_RE = re.compile(r"[0-9]+")
_CLASS_RE = re.compile(r"[A-Z]")
_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(\.[0-9]*)?|(\.[0-9]+))([eE][+-]?[0-9]+)?")
_HEX_RE = re.compile(r"[0-9a-fA-F]{2}")
# A data line's tokens joined by single spaces, all of them byte tokens.
_HEX_LINE_RE = re.compile(r"(?:[0-9a-fA-F]{2}(?: [0-9a-fA-F]{2})*)?")
# One line and its ending; only LF, CR and CRLF end a line.
LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")

# A block over \n line endings: blank lines, a header line, a block time
# line with a sequence number or none, lines of hex digits.  Tokens part at
# the whitespace bytes.fromhex skips.  Groups: platform_id, date, time, the
# latitude, longitude and altitude tokens, block date and time, payload text.
_S = r"[\t\x0b\x0c ]"
_STAMP = rf"({_DATE_RE.pattern}){_S}+([0-9]{{2}}(?::[0-9]{{2}}){{2}}(?:\.[0-9]{{1,6}})?)"
_NUM = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_BLOCK_RE = re.compile(
    rf"(?:{_S}*\n)*{_S}*([0-9]{{5}})(?:{_S}+[0-9]+)+(?:{_S}+[+-]?[0-9]+){{2}}"
    rf"{_S}+[A-Z]{_S}+[0-9]+{_S}+{_STAMP}((?:{_S}+{_NUM}){{3}}){_S}+\S+{_S}*(?=\n|\Z)"
    rf"(?:(?:\n{_S}*)+{_STAMP}{_S}+[0-9]+(?=\s|\Z))?"
    rf"([0-9A-Fa-f\t\x0b\x0c \n]*){_S}*(?:\n|\Z)"
)

# Minimum token count for a header line; message_id may span extra
# tokens beyond this, the rest of the layout is fixed.
_MIN_TOKENS = 12


def read_number(text: str, kind: type[int] | type[float]) -> int | float:
    """The int or finite float that text spells, else a ValueError.

    ASCII only: an optional sign and digits, and for a float an optional
    fraction ("5." and ".5" too) and exponent.  Unlike int() and float(),
    no "_", other digits, padding, "nan" or "inf".
    """
    match = _NUMBER_RE.fullmatch(text)
    if match and (kind is float or not match.lastindex):  # an int sets no group
        value = kind(text)
        if kind is int or math.isfinite(value):  # "1e999" overflows to inf
            return value
    raise ValueError(f"invalid {kind.__name__} value: {text!r}")


class HeaderFields(NamedTuple):
    """The fields of one header line that a run reads."""

    platform_id: str
    observed_at: datetime
    latitude: float
    longitude: float


class MessageBlock(NamedTuple):
    """A header plus the payload bytes of the lines attributed to it.

    The header's observed_at is the block time when the block has one.
    """

    header: HeaderFields
    payload: bytes
    source_line_span: tuple[int, int]


def _stamp(date_tok: str, time_tok: str) -> datetime:
    """The datetime of tokens laid out as _DATE_RE and _TIME_RE fix them, with
    at most 6 fraction digits; ValueError when a field is out of range."""
    return datetime(
        int(date_tok[:4]), int(date_tok[5:7]), int(date_tok[8:]),
        int(time_tok[:2]), int(time_tok[3:5]), int(time_tok[6:8]),
        int(time_tok[9:].ljust(6, "0")),
    )


def _parse_timestamp(date_tok: str, time_tok: str, line_no: int | None) -> datetime:
    if not _DATE_RE.fullmatch(date_tok) or not _TIME_RE.fullmatch(time_tok):
        raise MalformedHeader(
            f"bad timestamp tokens {date_tok!r} {time_tok!r}", line=line_no
        )
    if len(time_tok) <= 15:  # at most 6 fraction digits
        try:
            return _stamp(date_tok, time_tok)
        except ValueError:
            pass
    text = f"{date_tok} {time_tok}"
    raise MalformedHeader(f"unparseable timestamp {text!r}", line=line_no)


def parse_header(line: str, line_no: int | None = None) -> HeaderFields:
    """Parse one header line into HeaderFields.

    Tokens are bound positionally as documented in the module
    docstring, and every one is checked before the unkept ones are
    dropped.  Raises MalformedHeader (with the line number when known)
    on wrong token count, a malformed field, or an out-of-range
    coordinate.
    """
    tokens = line.split()
    if len(tokens) < _MIN_TOKENS:
        raise MalformedHeader(
            f"expected at least {_MIN_TOKENS} tokens, got {len(tokens)}", line=line_no
        )

    platform_id = tokens[0]
    if not _PLATFORM_RE.fullmatch(platform_id):
        raise MalformedHeader(f"bad platform id {platform_id!r}", line=line_no)

    # Fixed tail: class_code pass_count date time lat lon alt transmitter;
    # the transmitter id is opaque, so it has nothing to check.
    (class_code, pass_tok, date_tok, time_tok,
     lat_tok, lon_tok, alt_tok, _) = tokens[-8:]
    mid = tokens[1:-8]

    message_id = "".join(mid[:-2])
    if not _DIGITS_RE.fullmatch(message_id):
        raise MalformedHeader(f"bad message id {' '.join(mid[:-2])!r}", line=line_no)

    try:
        read_number(mid[-2], int)
        read_number(mid[-1], int)
    except ValueError:
        raise MalformedHeader(
            f"bad integer fields {mid[-2]!r} {mid[-1]!r}", line=line_no
        ) from None

    if not _CLASS_RE.fullmatch(class_code):
        raise MalformedHeader(f"bad class code {class_code!r}", line=line_no)
    if not _DIGITS_RE.fullmatch(pass_tok):
        raise MalformedHeader(f"bad pass count {pass_tok!r}", line=line_no)

    observed_at = _parse_timestamp(date_tok, time_tok, line_no)

    try:
        latitude = read_number(lat_tok, float)
        longitude = read_number(lon_tok, float)
        read_number(alt_tok, float)
    except ValueError:
        raise MalformedHeader(
            f"bad coordinate tokens {lat_tok!r} {lon_tok!r} {alt_tok!r}", line=line_no
        ) from None
    if not -90.0 <= latitude <= 90.0:
        raise MalformedHeader(f"latitude {latitude} out of [-90, 90]", line=line_no)
    if not -180.0 <= longitude <= 180.0:
        raise MalformedHeader(f"longitude {longitude} out of [-180, 180]", line=line_no)

    return HeaderFields(platform_id, observed_at, latitude, longitude)


class _BlockBuilder:
    """Accumulates one block's bytes until the next header closes it."""

    def __init__(self, header: HeaderFields, first_line: int):
        self.header = header
        self.restamped = False
        self.payload = bytearray()
        self.first_line = first_line
        self.last_line = first_line

    def add_bytes(self, tokens: list[str], line_no: int) -> None:
        line = " ".join(tokens)
        if not _HEX_LINE_RE.fullmatch(line):
            bad = next(tok for tok in tokens if not _HEX_RE.fullmatch(tok))
            raise BadHexToken(f"bad hex byte token {bad!r}", line=line_no)
        self.payload += bytes.fromhex(line)
        self.last_line = line_no

    def finish(self) -> MessageBlock:
        span = (self.first_line, self.last_line)
        if len(self.payload) % 2:
            raise OddByteCount(
                f"block has {len(self.payload)} bytes, one unpaired", span=span
            )
        return MessageBlock(self.header, bytes(self.payload), span)


def parse_stream(text: str) -> list[MessageBlock]:
    """Parse a telemetry dump into MessageBlocks, in input order.

    Lines end at LF, CR or CRLF.  Every data line is attributed to the
    most recent header.  Blank lines are skipped and surrounding
    whitespace is tolerated.  Raises DataError naming the line of the
    first non-ASCII character, MalformedHeader, BadHexToken,
    OddByteCount (all with line positions) and EmptyInput when no block
    is found.
    """
    return _read_blocks(text) or _walk_lines(text)


def _read_blocks(text: str) -> list[MessageBlock] | None:
    """The blocks of a dump that _BLOCK_RE covers whole, else None."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # same line numbers
    blocks = []
    pos = mark = 0
    line_no = 1  # the line that text[mark] is on
    while match := _BLOCK_RE.match(text, pos):
        pid, date, time, coordinates, block_date, block_time, data = match.groups()
        try:
            observed_at = _stamp(date, time)
            if block_date:
                observed_at = _stamp(block_date, block_time)
            payload = bytes.fromhex(data)  # fails on a token of odd length
        except ValueError:
            return None
        if len(payload) % 2 or len(payload) != len(data.split()):  # 2 digits a token
            return None
        latitude, longitude, altitude = map(float, coordinates.split())
        if abs(latitude) > 90.0 or abs(longitude) > 180.0 or math.isinf(altitude):
            return None
        first = line_no + text.count("\n", mark, match.start(1))
        mark = match.start(7) + len(data.rstrip())  # the end of the last token
        line_no = first + text.count("\n", match.start(1), mark)
        header = HeaderFields(pid, observed_at, latitude, longitude)
        blocks.append(MessageBlock(header, payload, (first, line_no)))
        pos = match.end()
    return blocks if blocks and text.isascii() and not text[pos:].strip() else None


def _walk_lines(text: str) -> list[MessageBlock]:
    """parse_stream's reading of a dump, one line at a time."""
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

        if _PLATFORM_RE.fullmatch(tokens[0]):
            if current is not None:
                blocks.append(current.finish())
            header = parse_header(raw, line_no)
            current = _BlockBuilder(header, line_no)
            continue

        if current is None:
            raise MalformedHeader("data line before any header", line=line_no)

        if _DATE_RE.fullmatch(tokens[0]):
            if len(tokens) < 2 or not _TIME_RE.fullmatch(tokens[1]):
                raise MalformedHeader(
                    f"block time line missing time token: {raw.strip()!r}", line=line_no
                )
            stamp = _parse_timestamp(tokens[0], tokens[1], line_no)
            if not current.restamped:
                current.header = current.header._replace(observed_at=stamp)
                current.restamped = True
            rest = tokens[2:]
            if rest:
                if not _DIGITS_RE.fullmatch(rest[0]):
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
