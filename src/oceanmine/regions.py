"""Spatial grouping of decoded records onto a platform/grid-cell grid.

Records from the same platform whose header positions fall in the same
cell of a regular lat/lon grid belong to one region and are analysed
as one series.  Cell indices come from flooring the coordinates, so
cells are half-open on their upper edges and negative coordinates land
in negative cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass
class RegionSegment:
    """All records of one region, in (observed_at, level) order."""

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
    tagged_records: Iterable[tuple[ProfileRecord, HeaderFields]],
    cell_size: float,
) -> list[RegionSegment]:
    """Partition records into regions keyed by platform and grid cell.

    Every input record lands in exactly one segment.  Within a segment
    records are sorted by (observed_at, level); ties keep input order.
    Segments come out sorted by key.
    """
    by_key: dict[RegionKey, list[ProfileRecord]] = {}
    for record, header in tagged_records:
        key = region_key_of(header, cell_size)
        by_key.setdefault(key, []).append(record)
    segments = []
    for key in sorted(by_key):
        records = sorted(by_key[key], key=lambda r: (r.observed_at, r.level))
        segments.append(RegionSegment(key=key, records=records))
    return segments
