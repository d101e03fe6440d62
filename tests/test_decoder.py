from __future__ import annotations

import random
from datetime import datetime

import pytest

from oceanmine.decoder import (
    DEFAULT_CALIBRATION,
    CalibrationTable,
    ProfileRecord,
    decode_block,
    decode_word,
    load_calibration,
    round_half_away,
)
from oceanmine.errors import ConfigError, NonTripleWordCount
from oceanmine.telemetry import MessageBlock, parse_header

from conftest import SPLIT_ID_HEADER
from helpers import apply_precision, quantize

HEADER = parse_header(SPLIT_ID_HEADER)


def block_of(words, block_time=None):
    return MessageBlock(header=HEADER, words=words, block_time=block_time,
                        source_line_span=(1, 3))


class TestDecodeWord:
    def test_temperature_offset(self):
        assert decode_word(13725, "temperature") == pytest.approx(8.725, abs=1e-12)

    def test_count_boundaries(self):
        assert decode_word(0, "temperature") == -5.0
        assert decode_word(65535, "temperature") == pytest.approx(60.535, abs=1e-12)
        assert decode_word(0, "salinity") == 0.0
        assert decode_word(65535, "salinity") == pytest.approx(65.535, abs=1e-12)
        assert decode_word(1995, "pressure") == pytest.approx(199.5, abs=1e-12)

    def test_monotone_in_word(self):
        for channel in ("temperature", "salinity", "pressure"):
            assert decode_word(100, channel) < decode_word(101, channel)

    def test_unknown_channel(self):
        with pytest.raises(ConfigError):
            decode_word(0, "density")


class TestQuantize:
    def test_inverts_decode(self):
        for channel in ("temperature", "salinity", "pressure"):
            for word in (0, 1, 1995, 13725, 35134, 65535):
                assert quantize(decode_word(word, channel), channel) == word

    def test_custom_calibration(self):
        cal = CalibrationTable(temp_offset=0.0, temp_resolution=0.002)
        assert decode_word(500, "temperature", cal) == 1.0
        assert quantize(1.0, "temperature", cal) == 500


class TestApplyPrecision:
    def test_pressure_tie_goes_up(self):
        assert round_half_away(199.55, 1) == 199.6

    def test_below_tie_goes_down(self):
        assert round_half_away(13.7254999, 3) == 13.725

    def test_negative_tie_away_from_zero(self):
        assert round_half_away(-0.0005, 3) == -0.001
        assert round_half_away(-199.55, 1) == -199.6

    def test_record_fields(self):
        rec = ProfileRecord(
            observed_at=datetime(2003, 1, 10),
            level=1,
            temperature=13.7254999,
            salinity=35.1336,
            pressure=199.55,
        )
        out = apply_precision(rec)
        assert (out.temperature, out.salinity, out.pressure) == (13.725, 35.134, 199.6)

    def test_idempotent_on_random_records(self):
        rng = random.Random(20030110)
        for _ in range(1000):
            rec = ProfileRecord(
                observed_at=datetime(2003, 1, 10),
                level=1,
                temperature=rng.uniform(-5, 60.535),
                salinity=rng.uniform(0, 65.535),
                pressure=rng.uniform(0, 6553.5),
            )
            once = apply_precision(rec)
            assert apply_precision(once) == once


class TestDecodeBlock:
    def test_triple_order(self):
        (rec,) = decode_block(block_of([18725, 40134, 1995]))
        assert rec.temperature == 13.725
        assert rec.salinity == 40.134
        assert rec.pressure == 199.5
        assert rec.level == 1

    def test_levels_number_from_one(self):
        recs = decode_block(block_of([0, 0, 0, 1, 1, 1, 2, 2, 2]))
        assert [r.level for r in recs] == [1, 2, 3]

    def test_block_time_stamps_records(self):
        bt = datetime(2003, 1, 10, 12, 49, 18)
        (rec,) = decode_block(block_of([1, 2, 3], block_time=bt))
        assert rec.observed_at == bt

    def test_header_time_when_no_block_time(self):
        (rec,) = decode_block(block_of([1, 2, 3]))
        assert rec.observed_at == HEADER.observed_at

    def test_non_triple_rejected_with_span(self):
        with pytest.raises(NonTripleWordCount) as err:
            decode_block(block_of([1, 2, 3, 4]))
        assert err.value.span == (1, 3)

    def test_empty_block_decodes_to_nothing(self):
        assert decode_block(block_of([])) == []

    def test_custom_calibration_applied(self):
        cal = CalibrationTable(pres_offset=100.0)
        (rec,) = decode_block(block_of([18725, 40134, 1995]), cal)
        assert rec.pressure == 299.5


class TestLoadCalibration:
    def test_overrides_and_defaults(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("temp_offset = -2.0\npres_resolution = 0.2  # coarse\n")
        cal = load_calibration(path)
        assert cal.temp_offset == -2.0
        assert cal.pres_resolution == 0.2
        assert cal.sal_resolution == DEFAULT_CALIBRATION.sal_resolution

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("density_offset = 1\n")
        with pytest.raises(ConfigError):
            load_calibration(path)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("temp_offset = cold\n")
        with pytest.raises(ConfigError):
            load_calibration(path)

    def test_non_positive_resolution(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("sal_resolution = 0\n")
        with pytest.raises(ConfigError):
            load_calibration(path)

    def test_nan_offset(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("temp_offset = nan\n")
        with pytest.raises(ConfigError, match="finite"):
            load_calibration(path)

    def test_infinite_resolution(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("temp_resolution = inf\n")
        with pytest.raises(ConfigError, match="finite"):
            load_calibration(path)

    def test_offset_beyond_rounding_range(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("pres_offset = 1e308\n")
        with pytest.raises(ConfigError, match="pressure"):
            load_calibration(path)
