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
tokens, date and time as observed_at; parse_stream checks the others
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
calendar's range, or a longer fraction, makes the timestamp unparseable.

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
block's lines.  A dump is read once, from the top, and its first faulty
line is named with the first fault in it.  A line is taken only through
_DUMP_RE and the value rules of _stamp and _position: a value fault in a
matched line is named where it is read, and _refuse names a line that
_DUMP_RE does not match, a header's tokens checked in the table's order.
A run of byte lines is checked whole and cut at its first refused line.
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
_CLOCK = r"[0-9]{2}(?::[0-9]{2}){2}"
_TIME_RE = re.compile(rf"{_CLOCK}(\.[0-9]+)?")
_PLATFORM_RE = re.compile(r"[0-9]{5}")
_DIGITS_RE = re.compile(r"[0-9]+")
_CLASS_RE = re.compile(r"[A-Z]")
_HEX_RE = re.compile(r"[0-9a-fA-F]{2}")
# The int and number grammars: read_number's, and the header's in _DUMP_RE.
_INT = r"[+-]?[0-9]+"
_NUMBER = rf"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE]{_INT})?"
_INT_RE, _NUMBER_RE = re.compile(_INT), re.compile(_NUMBER)

# One match reads, each part optional: blank lines, a header line (any ASCII
# token a transmitter id), a block time line, a run of byte lines.  Tokens part
# where str.split() parts an ASCII line; values are checked after the match.
# Groups: platform_id, date, time, latitude, longitude, altitude, then the
# block date, time, and the bytes from after its sequence number.
_W = r"[\t\x0b\x0c\x1c-\x1f ]"
_HEX_W = r"[0-9A-Fa-f\t\x0b\x0c\x1c-\x1f ]"
_STAMP = rf"({_DATE_RE.pattern}){_W}+({_CLOCK}(?:\.[0-9]{{1,6}})?)"
_DUMP_RE = re.compile(
    rf"(?:{_W}*\n)*"
    rf"(?:{_W}*({_PLATFORM_RE.pattern})(?:{_W}+{_DIGITS_RE.pattern})+(?:{_W}+{_INT}){{2}}"
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


def read_number(text: str, kind: type[int] | type[float]) -> int | float:
    """The int or finite float that text spells, else a ValueError.

    ASCII only: an optional sign and digits, and for a float an optional
    fraction ("5." and ".5" too) and exponent.  Unlike int() and float(),
    no "_", other digits, padding, "nan" or "inf".
    """
    if (_NUMBER_RE if kind is float else _INT_RE).fullmatch(text):
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


def _stamp(date_tok: str, time_tok: str, line_no: int) -> datetime:
    """The datetime of tokens laid out as _DATE_RE and _TIME_RE fix them, else a
    DataError for line_no: over 6 fraction digits, or a field out of range."""
    if len(time_tok) <= 15:  # at most 6 fraction digits
        try:
            return datetime(
                int(date_tok[:4]), int(date_tok[5:7]), int(date_tok[8:]),
                int(time_tok[:2]), int(time_tok[3:5]), int(time_tok[6:8]),
                int(time_tok[9:].ljust(6, "0")),
            )
        except ValueError:
            pass
    raise DataError(f"unparseable timestamp {date_tok + ' ' + time_tok!r}", line=line_no)


def _position(lat_tok: str, lon_tok: str, alt_tok: str, line_no: int) -> tuple[float, float]:
    """The latitude and longitude of coordinate tokens that float() reads; a
    DataError for line_no when a value is not finite or out of range."""
    latitude, longitude, altitude = float(lat_tok), float(lon_tok), float(alt_tok)
    # Each on its own: the sum of two finite values can overflow.
    if not (math.isfinite(latitude) and math.isfinite(longitude) and math.isfinite(altitude)):
        raise DataError(f"bad coordinate tokens {lat_tok!r} {lon_tok!r} {alt_tok!r}", line=line_no)
    if not -90.0 <= latitude <= 90.0:
        raise DataError(f"latitude {latitude} out of [-90, 90]", line=line_no)
    if not -180.0 <= longitude <= 180.0:
        raise DataError(f"longitude {longitude} out of [-180, 180]", line=line_no)
    return latitude, longitude


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
            first = last = line_no + text.count("\n", pos, m.start(1))
            # the timestamp is checked before the coordinates, as in _refuse
            header = HeaderFields(pid, _stamp(date, time, first), *_position(lat, lon, alt, first))
            payload, restamped = b"", False
        if block_date:
            if header is None:
                _refuse(text, m.start(7), None)
            last = line_no + text.count("\n", pos, m.start(7))
            stamp = _stamp(block_date, block_time, last)
            if not restamped:
                header = HeaderFields(header.platform_id, stamp, header.latitude, header.longitude)
                restamped = True
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
        if len(tokens) < 12:  # message_id may span more tokens
            raise DataError(f"expected at least 12 tokens, got {len(tokens)}", line=line_no)
        # The transmitter id, last, is opaque: it has nothing to check.
        class_code, pass_count, date, time, lat, lon, alt, _ = tokens[-8:]
        *message_id, int_a, int_b = tokens[1:-8]
        if not _DIGITS_RE.fullmatch("".join(message_id)):
            raise DataError(f"bad message id {' '.join(message_id)!r}", line=line_no)
        if not (_INT_RE.fullmatch(int_a) and _INT_RE.fullmatch(int_b)):
            raise DataError(f"bad integer fields {int_a!r} {int_b!r}", line=line_no)
        if not _CLASS_RE.fullmatch(class_code):
            raise DataError(f"bad class code {class_code!r}", line=line_no)
        if not _DIGITS_RE.fullmatch(pass_count):
            raise DataError(f"bad pass count {pass_count!r}", line=line_no)
        if not _DATE_RE.fullmatch(date) or not _TIME_RE.fullmatch(time):
            raise DataError(f"bad timestamp tokens {date!r} {time!r}", line=line_no)
        _stamp(date, time, line_no)
        # float() also reads "1_0", "nan" and other scripts' digits.
        if not all(map(_NUMBER_RE.fullmatch, (lat, lon, alt))):
            raise DataError(f"bad coordinate tokens {lat!r} {lon!r} {alt!r}", line=line_no)
        _position(lat, lon, alt, line_no)
        tokens = []
    elif block is None:
        raise DataError("data line before any header", line=line_no)
    elif _DATE_RE.fullmatch(tokens[0]):
        if len(tokens) < 2 or not _TIME_RE.fullmatch(tokens[1]):
            raise DataError(
                f"block time line missing time token: {line.strip()!r}", line=line_no
            )
        _stamp(tokens[0], tokens[1], line_no)
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
