"""Spatial grouping of decoded records onto a platform/grid-cell grid.

Records from the same platform whose header positions fall in the same
cell of a regular lat/lon grid belong to one region and are analysed
as one series.  Cell indices come from flooring the coordinates, so
cells are half-open on their upper edges and negative coordinates land
in negative cells.  A region is known by its name,
"<platform>_<lat cell>_<lon cell>"; a platform id is five digits, so
each region has one name.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

from .decoder import ProfileRecord
from .telemetry import HeaderFields


class RegionSegment(NamedTuple):
    """All records of one region, in tuple order: by observed_at, level, values."""

    region: str
    records: list[ProfileRecord]


def region_key_of(header: HeaderFields, cell_size: float) -> str:
    """Grid the header position into its region's name."""
    lat_cell = math.floor(header.latitude / cell_size)
    lon_cell = math.floor(header.longitude / cell_size)
    return f"{header.platform_id}_{lat_cell}_{lon_cell}"


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
    byte for byte.  Segments come out sorted by region name, the order
    of the report's rows.
    """
    by_region: dict[str, list[ProfileRecord]] = {}
    for header, records in blocks:
        if records:
            by_region.setdefault(region_key_of(header, cell_size), []).extend(records)
        del header  # not held while blocks reads its next input
    segments = []
    for region in sorted(by_region):
        records = by_region[region]
        records.sort()
        segments.append(RegionSegment(region, records))
    return segments
