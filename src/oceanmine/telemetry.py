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
block; a block ending on an unpaired byte is an error naming the
block's lines.  A dump is read once, from the top.  A line is taken only
through _DUMP_RE and its value checks, and _refuse alone names a refused
line: the first in the dump, and the first fault in it.  A run of byte
lines is checked whole; a run that fails is cut at its first refused line.
"""

from __future__ import annotations

import math
import re
from datetime import datetime
from pathlib import Path
from typing import NamedTuple, NoReturn

from .errors import DataError

# ASCII digits and capitals only, so every field slices to an int as
# written and no other script's digit or letter passes.  Each token grammar
# is stated once: _DUMP_RE and _BYTE_LINES_RE are built from these.
_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_TIME_RE = re.compile(r"[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?")
_PLATFORM_RE = re.compile(r"[0-9]{5}")
_DIGITS_RE = re.compile(r"[0-9]+")
_CLASS_RE = re.compile(r"[A-Z]")
_HEX_RE = re.compile(r"[0-9a-fA-F]{2}")
# The one number grammar: read_number's, and the header's in _DUMP_RE.
_NUMBER = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_NUMBER_RE = re.compile(_NUMBER)

# One match reads, each part optional: blank lines, a header line (any ASCII
# token a transmitter id), a block time line, a run of byte lines.  Tokens part
# where str.split() parts an ASCII line; values are checked after the match.
# Groups: platform_id, date, time, latitude, longitude, altitude, then the
# block date, time, and the bytes from after its sequence number.
_W = r"[\t\x0b\x0c\x1c-\x1f ]"
_HEX_W = r"[0-9A-Fa-f\t\x0b\x0c\x1c-\x1f ]"
_STAMP = rf"({_DATE_RE.pattern}){_W}+([0-9]{{2}}(?::[0-9]{{2}}){{2}}(?:\.[0-9]{{1,6}})?)"
_DUMP_RE = re.compile(
    rf"(?:{_W}*\n)*"
    rf"(?:{_W}*({_PLATFORM_RE.pattern})(?:{_W}+{_DIGITS_RE.pattern})+(?:{_W}+[+-]?[0-9]+){{2}}"
    rf"{_W}+{_CLASS_RE.pattern}{_W}+{_DIGITS_RE.pattern}{_W}+{_STAMP}"
    rf"{_W}+({_NUMBER}){_W}+({_NUMBER}){_W}+({_NUMBER}){_W}+[\x00-\x08\x0e-\x1b!-\x7f]+"
    rf"{_W}*(?:\n|\Z))?"
    rf"(?:{_W}*{_STAMP}(?:{_W}+{_DIGITS_RE.pattern}(?={_W}{_HEX_W}*(?:\n|\Z)|\n|\Z)"
    rf"|{_W}*(?:\n|\Z)))?"
    rf"((?:{_HEX_W}|\n)*)(?:(?<=\n)|\A|\Z)"
)
# Whole lines of byte tokens: where a run of byte lines that fails the
# checks in parse_stream is cut.
_BYTE_LINES_RE = re.compile(rf"(?:{_W}*(?:{_HEX_RE.pattern}(?={_W}|\n|\Z){_W}*)*(?:\n|\Z))*")
# Hex digits to "x": three in a row are a token of more than one byte.
_HEX_X = bytes.maketrans(b"0123456789ABCDEFabcdef", b"x" * 22)

# Minimum token count for a header line; message_id may span extra
# tokens beyond this, the rest of the layout is fixed.
_MIN_TOKENS = 12


def read_number(text: str, kind: type[int] | type[float]) -> int | float:
    """The int or finite float that text spells, else a ValueError.

    ASCII only: an optional sign and digits, and for a float an optional
    fraction ("5." and ".5" too) and exponent.  Unlike int() and float(),
    no "_", other digits, padding, "nan" or "inf".
    """
    if _NUMBER_RE.fullmatch(text) and (kind is float or text.lstrip("+-").isdigit()):
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
        raise DataError(
            f"bad timestamp tokens {date_tok!r} {time_tok!r}", line=line_no
        )
    if len(time_tok) <= 15:  # at most 6 fraction digits
        try:
            return _stamp(date_tok, time_tok)
        except ValueError:
            pass
    text = f"{date_tok} {time_tok}"
    raise DataError(f"unparseable timestamp {text!r}", line=line_no)


def parse_header(line: str, line_no: int | None = None) -> HeaderFields:
    """Parse one header line into HeaderFields.

    Tokens are bound positionally as documented in the module
    docstring, and every one is checked before the unkept ones are
    dropped.  Raises DataError (with the line number when known) on
    wrong token count, a malformed field, or an out-of-range
    coordinate.
    """
    tokens = line.split()
    if len(tokens) < _MIN_TOKENS:
        raise DataError(
            f"expected at least {_MIN_TOKENS} tokens, got {len(tokens)}", line=line_no
        )

    platform_id = tokens[0]
    if not _PLATFORM_RE.fullmatch(platform_id):
        raise DataError(f"bad platform id {platform_id!r}", line=line_no)

    # Fixed tail: class_code pass_count date time lat lon alt transmitter;
    # the transmitter id is opaque, so it has nothing to check.
    (class_code, pass_tok, date_tok, time_tok,
     lat_tok, lon_tok, alt_tok, _) = tokens[-8:]
    mid = tokens[1:-8]

    message_id = "".join(mid[:-2])
    if not _DIGITS_RE.fullmatch(message_id):
        raise DataError(f"bad message id {' '.join(mid[:-2])!r}", line=line_no)

    try:
        read_number(mid[-2], int)
        read_number(mid[-1], int)
    except ValueError:
        raise DataError(
            f"bad integer fields {mid[-2]!r} {mid[-1]!r}", line=line_no
        ) from None

    if not _CLASS_RE.fullmatch(class_code):
        raise DataError(f"bad class code {class_code!r}", line=line_no)
    if not _DIGITS_RE.fullmatch(pass_tok):
        raise DataError(f"bad pass count {pass_tok!r}", line=line_no)

    observed_at = _parse_timestamp(date_tok, time_tok, line_no)

    try:
        latitude = read_number(lat_tok, float)
        longitude = read_number(lon_tok, float)
        read_number(alt_tok, float)
    except ValueError:
        raise DataError(
            f"bad coordinate tokens {lat_tok!r} {lon_tok!r} {alt_tok!r}", line=line_no
        ) from None
    if not -90.0 <= latitude <= 90.0:
        raise DataError(f"latitude {latitude} out of [-90, 90]", line=line_no)
    if not -180.0 <= longitude <= 180.0:
        raise DataError(f"longitude {longitude} out of [-180, 180]", line=line_no)

    return HeaderFields(platform_id, observed_at, latitude, longitude)


def lf_endings(text: str) -> str:
    """text with each line ending (LF, CR or CRLF) as LF: lines keep their numbers."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_stream(text: str) -> list[MessageBlock]:
    """Parse a telemetry dump into MessageBlocks, in input order.

    Every data line is attributed to the most recent header; blank lines
    are skipped and surrounding whitespace is tolerated.  Lines are taken
    and refused as the module docstring says.  DataError is also raised
    for a block ending on an unpaired byte, and for an input without blocks.
    """
    text = lf_endings(text)
    blocks: list[MessageBlock] = []
    header = None  # the open block: header, payload, first and last line
    payload, first, last, restamped = b"", 0, 0, False
    pos, line_no = 0, 1  # line_no: the line text[pos] begins
    while pos < len(text):
        m = _DUMP_RE.match(text, pos)
        if m.end() == pos:
            _refuse(text, pos, header and MessageBlock(header, payload, (first, last)))
        pid, date, time, lat, lon, alt, block_date, block_time, data = m.groups()
        if pid:
            if header:
                blocks.append(_closed(MessageBlock(header, payload, (first, last))))
            try:
                latitude, longitude = float(lat), float(lon)
                if abs(latitude) > 90.0 or abs(longitude) > 180.0 or math.isinf(float(alt)):
                    raise ValueError
                header = HeaderFields(pid, _stamp(date, time), latitude, longitude)
            except ValueError:  # the block before it is closed
                _refuse(text, m.start(1), None)
            first = last = line_no + text.count("\n", pos, m.start(1))
            payload, restamped = b"", False
        if block_date:
            try:
                if header is None:
                    raise ValueError
                stamp = _stamp(block_date, block_time)
            except ValueError:
                _refuse(text, m.start(7), header and MessageBlock(header, payload, (first, last)))
            if not restamped:
                header = HeaderFields(header.platform_id, stamp, header.latitude, header.longitude)
                restamped = True
            last = line_no + text.count("\n", pos, m.start(7))
        if data:
            try:
                chunk = bytes.fromhex(data)  # fails on a token of odd length
            except ValueError:  # or on \x1c-\x1f, which str.split() splits on
                chunk = None
            cut = m.end()
            if chunk is None or b"xxx" in data.encode().translate(_HEX_X) or not header and chunk:
                # Keep the run's leading lines of byte tokens (its leading blanks
                # before a header); the line at the cut is refused below.
                cut = (_BYTE_LINES_RE.match(text, m.start(9), cut).end() if header
                       else cut - len(data.lstrip()))
                data = text[m.start(9):cut]
                chunk = bytes.fromhex(" ".join(data.split()))
            if chunk:  # the last token's line
                last = line_no + text.count("\n", pos, m.start(9) + len(data.rstrip()))
            payload += chunk
            if cut < m.end():
                _refuse(text, cut, header and MessageBlock(header, payload, (first, last)))
        line_no += text.count("\n", pos, m.end())
        pos = m.end()
    if header:
        blocks.append(_closed(MessageBlock(header, payload, (first, last))))
    if not blocks:
        raise DataError("no message blocks in input")
    return blocks


def _closed(block: MessageBlock) -> MessageBlock:
    """block, unless its payload ends on an unpaired byte."""
    if len(block.payload) % 2:
        count = len(block.payload)
        raise DataError(f"block has {count} bytes, one unpaired", span=block.source_line_span)
    return block


def _refuse(text: str, at: int, block: MessageBlock | None) -> NoReturn:
    """Raise the error for the line holding text[at], the first line
    parse_stream refuses; block is the block open before it.  The checks
    run in the order the line is read, so the first fault in it is named."""
    line = text[text.rfind("\n", 0, at) + 1:].partition("\n")[0]
    line_no = text.count("\n", 0, at) + 1
    if not line.isascii():
        bad = next(ch for ch in line if not ch.isascii())
        raise DataError(f"non-ASCII byte 0x{ord(bad):02x}", line=line_no)
    tokens = line.split()
    if _PLATFORM_RE.fullmatch(tokens[0]):
        if block:
            _closed(block)
        parse_header(line, line_no)
        tokens = []
    elif block is None:
        raise DataError("data line before any header", line=line_no)
    elif _DATE_RE.fullmatch(tokens[0]):
        if len(tokens) < 2 or not _TIME_RE.fullmatch(tokens[1]):
            raise DataError(
                f"block time line missing time token: {line.strip()!r}", line=line_no
            )
        _parse_timestamp(tokens[0], tokens[1], line_no)
        if len(tokens) > 2 and not _DIGITS_RE.fullmatch(tokens[2]):
            raise DataError(
                f"block time line has bad sequence token {tokens[2]!r}", line=line_no
            )
        tokens = tokens[3:]
    for token in tokens:
        if not _HEX_RE.fullmatch(token):
            raise DataError(f"bad hex byte token {token!r}", line=line_no)
    raise AssertionError(f"line {line_no} was refused but reads as valid")


def parse_file(path: str | Path) -> list[MessageBlock]:
    """Parse a telemetry dump from disk, under parse_stream's rules.

    latin-1 maps each byte to one character, so a non-ASCII byte
    reaches parse_stream's check as itself.
    """
    return parse_stream(Path(path).read_bytes().decode("latin-1"))
