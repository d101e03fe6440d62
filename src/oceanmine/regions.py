"""Spatial grouping of decoded records onto a platform/grid-cell grid.

Records from the same platform whose header positions fall in the same
cell of a regular lat/lon grid belong to one region and are analysed
as one series.  Cell indices come from flooring the coordinates, so
cells are half-open on their upper edges and negative coordinates land
in negative cells.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .decoder import ProfileRecord
from .telemetry import HeaderFields


class RegionKey(NamedTuple):
    platform_id: str
    lat_cell: int
    lon_cell: int


def key_string(key: RegionKey) -> str:
    """Filesystem-safe rendering of a region key."""
    return f"{key.platform_id}_{key.lat_cell}_{key.lon_cell}"


class RegionSegment(NamedTuple):
    """All records of one region, in tuple order: by observed_at, level, values."""

    key: RegionKey
    records: list[ProfileRecord]


def region_key_of(header: HeaderFields, cell_size: float) -> RegionKey:
    """Grid the header position into a region key."""
    return RegionKey(
        platform_id=header.platform_id,
        lat_cell=math.floor(header.latitude / cell_size),
        lon_cell=math.floor(header.longitude / cell_size),
    )


def segment(
    blocks: Iterable[tuple[HeaderFields, list[ProfileRecord]]],
    cell_size: float,
) -> list[RegionSegment]:
    """Partition decoded (header, records) blocks by the header's region.

    blocks may be a one-shot iterator: it is read once, and no header
    is held after its block.  The header is gridded once per block.
    Every input record lands in exactly one segment; a block without
    records adds no region.  Within a segment records are sorted in
    place as tuples, by (observed_at, level) and then by values, so
    same-time blocks of one region come out in one order whichever was
    read first; no decoded value is -0.0, so equal records are equal
    byte for byte.  Segments come out sorted by key.
    """
    by_key: dict[RegionKey, list[ProfileRecord]] = {}
    for header, records in blocks:
        if records:
            by_key.setdefault(region_key_of(header, cell_size), []).extend(records)
        del header  # not held while blocks reads its next input
    segments = []
    for key in sorted(by_key):
        records = by_key[key]
        records.sort()
        segments.append(RegionSegment(key=key, records=records))
    return segments
