"""Helpers that only the tests use.

They build inputs from physical values and blocks (raw counts, dump
text) and configs for validation checks, restate the index derivative
for the gradient checks, and name one block predicate.  The package
never calls them.
"""

from __future__ import annotations

from dataclasses import replace
from datetime import datetime
from pathlib import Path
from typing import Iterable

from oceanmine.decoder import (
    DEFAULT_CALIBRATION,
    CalibrationTable,
    ProfileRecord,
    round_half_away,
)
from oceanmine.oscillation import ST_COEFF, T2_COEFF
from oceanmine.pipeline import PipelineConfig
from oceanmine.telemetry import HeaderFields, MessageBlock

WORDS_PER_RENDER_LINE = 3


def quantize(value: float, channel: str, cal: CalibrationTable = DEFAULT_CALIBRATION) -> int:
    """Map a physical value back to the nearest raw count."""
    ((offset, resolution),) = [(o, r) for name, o, r, _ in cal.lines() if name == channel]
    return round((value - offset) / resolution)


def apply_precision(record: ProfileRecord) -> ProfileRecord:
    """Return the record with channel values at canonical precision.

    Idempotent: applying twice equals applying once.
    """
    return replace(
        record,
        **{
            channel: round_half_away(getattr(record, channel), decimals)
            for channel, _, _, decimals in DEFAULT_CALIBRATION.lines()
        },
    )


def config_with(**fields) -> PipelineConfig:
    """A config over a placeholder input; validate() opens no file."""
    return PipelineConfig(inputs=[Path("in.txt")], out_dir=Path("out"), **fields)


def d_index_d_temperature(temperature: float, salinity: float) -> float:
    """Analytic partial derivative of the index in temperature."""
    return 2.0 * T2_COEFF * temperature + ST_COEFF * salinity


def is_position_only(block: MessageBlock) -> bool:
    """True when the block carried no payload at all."""
    return not block.words


def _format_timestamp(ts: datetime) -> str:
    base = ts.strftime("%Y-%m-%d %H:%M:%S")
    if ts.microsecond:
        frac = f"{ts.microsecond:06d}".rstrip("0")
        return f"{base}.{frac}"
    return base


def render_header(h: HeaderFields) -> str:
    """Render a header back to its canonical 12-token line."""
    return " ".join(
        [
            h.platform_id,
            h.message_id,
            str(h.field_a),
            str(h.field_b),
            h.class_code,
            str(h.pass_count),
            _format_timestamp(h.observed_at),
            repr(h.latitude),
            repr(h.longitude),
            repr(h.altitude_or_zero),
            h.transmitter_id,
        ]
    )


def render_block(block: MessageBlock) -> str:
    """Render a block to text such that re-parsing reproduces it.

    Words are split back into big-endian byte pairs, three words per
    line.  The block time line, when present, is emitted with sequence
    number 1 and no payload of its own.
    """
    out = [render_header(block.header)]
    if block.block_time is not None:
        out.append(f"{_format_timestamp(block.block_time)} 1")
    byte_toks = []
    for w in block.words:
        byte_toks.append(f"{w >> 8:02X}")
        byte_toks.append(f"{w & 0xFF:02X}")
    per_line = WORDS_PER_RENDER_LINE * 2
    for i in range(0, len(byte_toks), per_line):
        out.append(" ".join(byte_toks[i : i + per_line]))
    return "\n".join(out) + "\n"


def render_stream(blocks: Iterable[MessageBlock]) -> str:
    """Render a sequence of blocks to one dump."""
    return "".join(render_block(b) for b in blocks)
