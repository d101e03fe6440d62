"""Helpers that only the tests use.

They build inputs from physical values and blocks (raw counts, payload
bytes, dump text, edits of the sample dump) and configs for validation
checks, read one header line, restate the index derivative for the
gradient checks, name one block predicate, and read a block's payload
back as words.  The package never calls them.
"""

from __future__ import annotations

import struct
from datetime import datetime
from pathlib import Path
from typing import Iterable, NamedTuple

from oceanmine.decoder import (
    DEFAULT_CALIBRATION,
    CalibrationTable,
    ProfileRecord,
    round_half_away,
)
from oceanmine.oscillation import ST_COEFF, T2_COEFF
from oceanmine.pipeline import PipelineConfig
from oceanmine.telemetry import HeaderFields, MessageBlock, parse_stream

WORDS_PER_RENDER_LINE = 3
# The line endings a dump may use, by name; each numbers the lines alike.
ENDINGS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}


def quantize(value: float, channel: str, cal: CalibrationTable = DEFAULT_CALIBRATION) -> int:
    """Map a physical value back to the nearest raw count."""
    ((offset, resolution),) = [(o, r) for name, o, r, _ in cal.lines() if name == channel]
    return round((value - offset) / resolution)


def apply_precision(record: ProfileRecord) -> ProfileRecord:
    """Return the record with channel values at canonical precision.

    Idempotent: applying twice equals applying once.
    """
    return record._replace(
        **{
            channel: round_half_away(getattr(record, channel), decimals)
            for channel, _, _, decimals in DEFAULT_CALIBRATION.lines()
        },
    )


def config_with(**fields) -> PipelineConfig:
    """A config over a placeholder input; validate() opens no file."""
    return PipelineConfig(inputs=[Path("in.txt")], out_dir=Path("out"), **fields)


def edited_sample(
    sample_path: Path, edits: Iterable[tuple[int, str, str | None]], ending: str
) -> str:
    """The sample dump with each (line number, old, new) edit, lines ending at ending.

    An edit whose new is None drops its line; the line numbers are the sample's.
    """
    lines: list[str | None] = list(sample_path.read_text().splitlines())
    for line_no, old, new in edits:
        assert old in lines[line_no - 1]
        lines[line_no - 1] = None if new is None else lines[line_no - 1].replace(old, new)
    return "".join(line + ending for line in lines if line is not None)


def read_header(line: str, line_no: int = 1) -> HeaderFields:
    """The header of a dump holding line as its line line_no, as parse_stream reads it."""
    return parse_stream("\n" * (line_no - 1) + line)[0].header


def d_index_d_temperature(temperature: float, salinity: float) -> float:
    """Analytic partial derivative of the index in temperature."""
    return 2.0 * T2_COEFF * temperature + ST_COEFF * salinity


def is_position_only(block: MessageBlock) -> bool:
    """True when the block carried no payload at all."""
    return not block.payload


def payload_of(words: list[int]) -> bytes:
    """The big-endian payload bytes that carry words."""
    return struct.pack(f">{len(words)}H", *words)


def words_of(block: MessageBlock) -> list[int]:
    """The 16-bit words of a block's payload, in order."""
    return [word for (word,) in struct.iter_unpack(">H", block.payload)]


def _format_timestamp(ts: datetime) -> str:
    base = ts.strftime("%Y-%m-%d %H:%M:%S")
    if ts.microsecond:
        frac = f"{ts.microsecond:06d}".rstrip("0")
        return f"{base}.{frac}"
    return base


class DroppedTokens(NamedTuple):
    """The header tokens parse_stream checks and drops; the sample's by default."""

    message_id: str = "2902102"
    field_a: int = 65
    field_b: int = 32
    class_code: str = "K"
    pass_count: int = 2
    altitude_or_zero: float = 0.0
    transmitter_id: str = "401647210"


def render_header(h: HeaderFields, dropped: DroppedTokens = DroppedTokens()) -> str:
    """Render a header and the dropped tokens as a canonical 12-token line."""
    return " ".join(
        [
            h.platform_id,
            dropped.message_id,
            str(dropped.field_a),
            str(dropped.field_b),
            dropped.class_code,
            str(dropped.pass_count),
            _format_timestamp(h.observed_at),
            repr(h.latitude),
            repr(h.longitude),
            repr(dropped.altitude_or_zero),
            dropped.transmitter_id,
        ]
    )


def render_block(
    block: MessageBlock,
    block_time: datetime | None = None,
    dropped: DroppedTokens = DroppedTokens(),
) -> str:
    """Render a block to text such that re-parsing reproduces it.

    The payload is written as byte tokens, three words per line.  With
    a block_time, the header line keeps the header's time and a block
    time line with sequence number 1 and no payload of its own follows
    it, so the parsed header is restamped with block_time.
    """
    out = [render_header(block.header, dropped)]
    if block_time is not None:
        out.append(f"{_format_timestamp(block_time)} 1")
    byte_toks = [f"{byte:02X}" for byte in block.payload]
    per_line = WORDS_PER_RENDER_LINE * 2
    for i in range(0, len(byte_toks), per_line):
        out.append(" ".join(byte_toks[i : i + per_line]))
    return "\n".join(out) + "\n"


def render_stream(blocks: Iterable[MessageBlock | tuple], ending: str = "\n") -> str:
    """Render a sequence of blocks to one dump, each line ending at ending.

    An item is a block, or the arguments of render_block for one.
    """
    text = "".join(render_block(b) if isinstance(b, MessageBlock) else render_block(*b)
                   for b in blocks)
    return text.replace("\n", ending)
