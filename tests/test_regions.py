from __future__ import annotations

import random
from datetime import datetime, timedelta

import pytest

from oceanmine.decoder import ProfileRecord
from oceanmine.errors import ConfigError
from oceanmine.regions import region_key_of, segment
from oceanmine.telemetry import parse_header

from conftest import SPLIT_ID_HEADER
from helpers import config_with

HEADER = parse_header(SPLIT_ID_HEADER)


def header_at(lat, lon, platform="02602", ts=None):
    h = parse_header(SPLIT_ID_HEADER)
    return h._replace(
        platform_id=platform,
        latitude=lat,
        longitude=lon,
        observed_at=ts or h.observed_at,
    )


def record_at(ts, level=1):
    return ProfileRecord(
        observed_at=ts, level=level, temperature=10.0, salinity=35.0, pressure=100.0
    )


class TestRegionKey:
    def test_reference_position(self):
        assert region_key_of(HEADER, 1.0) == "02602_0_76"

    def test_negative_latitude_floors_down(self):
        assert region_key_of(header_at(-0.5, 76.559), 1.0) == "02602_-1_76"

    def test_cell_size_scales(self):
        assert region_key_of(HEADER, 2.0) == "02602_0_38"

    def test_non_positive_cell_size(self):
        for cell_size in (0.0, -1.0):
            with pytest.raises(ConfigError):
                config_with(cell_size=cell_size).validate()


class TestSegment:
    def test_same_cell_merges(self):
        t0 = datetime(2003, 1, 10, 11, 50)
        blocks = [
            (header_at(0.691, 76.559), [record_at(t0)]),
            (header_at(0.706, 76.542), [record_at(t0 + timedelta(hours=3))]),
        ]
        segs = segment(blocks, 1.0)
        assert len(segs) == 1
        assert segs[0].region == "02602_0_76"
        assert len(segs[0].records) == 2

    def test_records_sorted_by_time_then_level(self):
        t0 = datetime(2003, 1, 10)
        t1 = t0 + timedelta(hours=1)
        h = header_at(0.5, 76.5)
        blocks = [
            (h, [record_at(t1, level=2), record_at(t0, level=2)]),
            (h, [record_at(t1, level=1), record_at(t0, level=1)]),
        ]
        (seg,) = segment(blocks, 1.0)
        assert [(r.observed_at, r.level) for r in seg.records] == [
            (t0, 1), (t0, 2), (t1, 1), (t1, 2),
        ]

    def test_ties_break_on_values(self):
        t0 = datetime(2003, 1, 10)
        h = header_at(0.5, 76.5)
        a = record_at(t0, level=1)._replace(temperature=9.0, salinity=35.002)
        b = record_at(t0, level=1)._replace(salinity=35.001)
        c = record_at(t0, level=1)._replace(salinity=35.002)
        # equal (observed_at, level): temperature, then salinity, decide
        want = [a, b, c]
        for order in ([a, b, c], [c, b, a], [b, c, a]):
            (seg,) = segment([(h, [r]) for r in order], 1.0)
            assert seg.records == want

    def test_segments_sorted_by_key(self):
        t0 = datetime(2003, 1, 10)
        blocks = [
            (header_at(0.5, 80.5, platform="99999"), [record_at(t0)]),
            (header_at(0.5, 76.5, platform="02602"), [record_at(t0)]),
            (header_at(5.5, 76.5, platform="02602"), [record_at(t0)]),
        ]
        segs = segment(blocks, 1.0)
        assert [s.region for s in segs] == sorted(s.region for s in segs)

    def test_partition_fuzz(self):
        rng = random.Random(76559)
        t0 = datetime(2003, 1, 10)
        platforms = [f"{n:05d}" for n in (11111, 22222, 33333, 44444, 55555)]
        blocks = []
        for i in range(1000):
            h = header_at(
                rng.uniform(-10, 10),
                rng.uniform(70, 80),
                platform=rng.choice(platforms),
            )
            blocks.append((h, [record_at(t0 + timedelta(minutes=i), level=i)]))
        segs = segment(blocks, 1.0)
        assert sum(len(s.records) for s in segs) == 1000
        levels = [r.level for s in segs for r in s.records]
        assert len(set(levels)) == 1000  # no record in two segments
        header_of = {recs[0].level: h for h, recs in blocks}
        for s in segs:
            assert all(region_key_of(header_of[r.level], 1.0) == s.region for r in s.records)
