from __future__ import annotations

import random
import re
from datetime import datetime

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oceanmine import decoder
from oceanmine.decoder import (
    DEFAULT_CALIBRATION,
    CalibrationTable,
    ProfileRecord,
    decode_block,
    decode_memo,
    load_calibration,
    round_half_away,
)
from oceanmine.errors import ConfigError, NonTripleWordCount
from oceanmine.telemetry import MessageBlock, parse_header

from conftest import SPLIT_ID_HEADER
from helpers import apply_precision, payload_of, quantize
from oracles import round_half_away_reference

HEADER = parse_header(SPLIT_ID_HEADER)


def block_of(words, block_time=None):
    """A block of words, its header restamped as a block time line would."""
    header = HEADER if block_time is None else HEADER._replace(observed_at=block_time)
    return MessageBlock(header=header, payload=payload_of(words), source_line_span=(1, 3))


def values(record):
    return record.temperature, record.salinity, record.pressure


class TestChannelLines:
    def test_payload_order_and_decimals(self):
        assert DEFAULT_CALIBRATION.lines() == (
            ("temperature", -5.0, 0.001, 3),
            ("salinity", 0.0, 0.001, 3),
            ("pressure", 0.0, 0.1, 1),
        )


class TestDecodeWord:
    """Single words, decoded through their channel's line by decode_block."""

    def test_temperature_offset(self):
        (rec,) = decode_block(block_of([13725, 0, 1995]), decode_memo(DEFAULT_CALIBRATION))
        assert rec.temperature == 8.725
        assert rec.pressure == 199.5

    def test_count_boundaries(self):
        low, high = decode_block(
            block_of([0, 0, 0, 65535, 65535, 65535]), decode_memo(DEFAULT_CALIBRATION)
        )
        assert values(low) == (-5.0, 0.0, 0.0)
        assert values(high) == (60.535, 65.535, 6553.5)

    def test_monotone_in_word(self):
        low, high = decode_block(
            block_of([100, 100, 100, 101, 101, 101]), decode_memo(DEFAULT_CALIBRATION)
        )
        assert all(a < b for a, b in zip(values(low), values(high)))


class TestQuantize:
    def test_inverts_decode(self):
        for word in (0, 1, 1995, 13725, 35134, 65535):
            (rec,) = decode_block(block_of([word] * 3), decode_memo(DEFAULT_CALIBRATION))
            for channel, value in zip(("temperature", "salinity", "pressure"), values(rec)):
                assert quantize(value, channel) == word

    def test_custom_calibration(self):
        cal = CalibrationTable(temp_offset=0.0, temp_resolution=0.002)
        (rec,) = decode_block(block_of([500, 0, 0]), decode_memo(cal))
        assert rec.temperature == 1.0
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
        (rec,) = decode_block(block_of([18725, 40134, 1995]), decode_memo(DEFAULT_CALIBRATION))
        assert rec.temperature == 13.725
        assert rec.salinity == 40.134
        assert rec.pressure == 199.5
        assert rec.level == 1

    def test_levels_number_from_one(self):
        recs = decode_block(
            block_of([0, 0, 0, 1, 1, 1, 2, 2, 2]), decode_memo(DEFAULT_CALIBRATION)
        )
        assert [r.level for r in recs] == [1, 2, 3]

    def test_block_time_stamps_records(self):
        bt = datetime(2003, 1, 10, 12, 49, 18)
        (rec,) = decode_block(block_of([1, 2, 3], block_time=bt), decode_memo(DEFAULT_CALIBRATION))
        assert rec.observed_at == bt

    def test_header_time_when_no_block_time(self):
        (rec,) = decode_block(block_of([1, 2, 3]), decode_memo(DEFAULT_CALIBRATION))
        assert rec.observed_at == HEADER.observed_at

    def test_non_triple_rejected_with_span(self):
        with pytest.raises(NonTripleWordCount) as err:
            decode_block(block_of([1, 2, 3, 4]), decode_memo(DEFAULT_CALIBRATION))
        assert str(err.value) == "lines 1..3: block has 4 words, not a multiple of 3"

    def test_empty_block_decodes_to_nothing(self):
        assert decode_block(block_of([]), decode_memo(DEFAULT_CALIBRATION)) == []

    def test_custom_calibration_applied(self):
        cal = CalibrationTable(pres_offset=100.0)
        (rec,) = decode_block(block_of([18725, 40134, 1995]), decode_memo(cal))
        assert rec.pressure == 299.5


# Every payload value on every channel, each word once per channel.
ALL_WORDS = [word for word in range(0x10000) for _ in range(3)]
OTHER_CALIBRATION = CalibrationTable(
    temp_offset=-2.5, temp_resolution=0.0015,
    sal_offset=1.25, sal_resolution=0.0007,
    pres_offset=-3.0, pres_resolution=0.25,
)


class TestDecodeMemo:
    @pytest.mark.parametrize("cal", [DEFAULT_CALIBRATION, OTHER_CALIBRATION])
    def test_every_word_equals_the_formula(self, cal):
        memo = decode_memo(cal)
        filled = decode_block(block_of(ALL_WORDS), memo)
        # the second pass reads every value back from the filled memo
        reread = decode_block(block_of(ALL_WORDS[::-1]), memo)[::-1]
        for channel, offset, resolution, decimals in cal.lines():
            want = [
                repr(round_half_away_reference(offset + w * resolution, decimals))
                for w in range(0x10000)
            ]
            assert [repr(getattr(r, channel)) for r in filled] == want, channel
            assert [repr(getattr(r, channel)) for r in reread] == want, channel

    def test_each_word_rounds_once_per_memo(self, monkeypatch):
        calls = []
        real = decoder._RoundedLine.__missing__
        monkeypatch.setattr(
            decoder._RoundedLine,
            "__missing__",
            lambda line, word: calls.append(word) or real(line, word),
        )
        block = block_of([7, 8, 9, 7, 8, 9, 7, 8, 10])
        memo = decode_memo(DEFAULT_CALIBRATION)
        first = decode_block(block, memo)
        assert len(calls) == 4
        assert decode_block(block, memo) == first
        assert len(calls) == 4


# A value (n + 1/2) / 1000 as the nearest double, so that repr() shows a tie.
_TIES = st.integers(-(10**9), 10**9).map(lambda n: (n + 0.5) / 1000)


class TestMemoFill:
    @settings(max_examples=1000, deadline=None)
    @given(
        offset=st.floats(-1e25, 1e25) | _TIES,
        resolution=st.floats(1e-9, 1e15, exclude_min=True) | _TIES.filter(lambda r: r > 0),
        word=st.integers(0, 0xFFFF),
    )
    @example(offset=0.0005, resolution=0.001, word=0)  # ties that repr() shows
    @example(offset=-199.55, resolution=0.1, word=0)
    @example(offset=-2.5, resolution=0.0015, word=1)
    # the last value on either side of 2.0005 that falls back, and the
    # first that does not
    @example(offset=2.0005000000000006, resolution=1.0, word=0)
    @example(offset=2.000500000000001, resolution=1.0, word=0)
    @example(offset=2.0004999999999993, resolution=1.0, word=0)
    @example(offset=2.000499999999999, resolution=1.0, word=0)
    @example(offset=1234.5675000000006, resolution=1.0, word=0)
    @example(offset=1234.5675000000008, resolution=1.0, word=0)
    # |value| * 10**decimals at and past 2**52, where doubles are whole
    @example(offset=4503599627370.4955, resolution=1e-3, word=1)
    @example(offset=-4.503599627370497e15, resolution=0.5, word=3)
    def test_equals_the_reference(self, offset, resolution, word):
        cal = CalibrationTable(offset, resolution, offset, resolution, offset, resolution)
        # inside the decodable range of every channel, as load_calibration checks
        assume(abs(offset) < 1e25 and abs(offset + 0xFFFF * resolution) < 1e25)
        memo = decode_memo(cal)
        for line, (channel, _, _, decimals) in zip(memo, cal.lines()):
            want = round_half_away_reference(offset + word * resolution, decimals)
            assert repr(line[word]) == repr(want), channel


class TestRoundHalfAway:
    @settings(max_examples=2000, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        ndigits=st.integers(0, 12),
    )
    @example(value=0.0005, ndigits=3)
    @example(value=-0.0005, ndigits=3)
    @example(value=199.55, ndigits=1)
    @example(value=0.125, ndigits=2)
    @example(value=2.5, ndigits=0)
    @example(value=5e-05, ndigits=4)
    @example(value=28147321.574496735, ndigits=8)
    @example(value=-2.25, ndigits=1)
    def test_equals_decimal_rounding(self, value, ndigits):
        # the reference needs at most 28 significant digits, as a
        # calibration's decodable range does
        assume(abs(value) < 10.0 ** (28 - ndigits))
        want = round_half_away_reference(value, ndigits)
        assert repr(round_half_away(value, ndigits)) == repr(want)


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

    @pytest.mark.parametrize("value", ["-5_0", "1_000.5", "2.5e1_0", "0.2_"])
    def test_underscore_in_value(self, tmp_path, value):
        # float() reads "-5_0" as -50.0; a calibration number is taken as written
        path = tmp_path / "cal.txt"
        path.write_text(f"# calibration\ntemp_offset = {value}\n")
        with pytest.raises(ConfigError, match=f"cal.txt:2: bad value for temp_offset: '{value}'"):
            load_calibration(path)

    def test_non_positive_resolution(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("sal_resolution = 0\n")
        with pytest.raises(ConfigError):
            load_calibration(path)

    def test_nan_offset(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("temp_offset = nan\n")
        with pytest.raises(ConfigError, match="cal.txt:1: bad value for temp_offset: 'nan'"):
            load_calibration(path)

    def test_infinite_resolution(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("temp_resolution = inf\n")
        with pytest.raises(ConfigError, match="cal.txt:1: bad value for temp_resolution: 'inf'"):
            load_calibration(path)

    def test_repeated_key(self, tmp_path):
        # the last value used to win silently
        path = tmp_path / "cal.txt"
        path.write_text("temp_offset = -4.0\n# warmer\ntemp_offset = 7\n")
        with pytest.raises(ConfigError, match="cal.txt:3: temp_offset already set on line 1"):
            load_calibration(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_line_endings_read_as_lf(self, tmp_path, ending):
        # dumps and calibration files end their lines by one rule
        lf = tmp_path / "lf.txt"
        lf.write_bytes(b"temp_offset = -2.0\n\n# coarse\npres_resolution = 0.2\n")
        other = tmp_path / "other.txt"
        other.write_bytes(lf.read_bytes().replace(b"\n", ending.encode()))
        assert load_calibration(other) == load_calibration(lf)
        assert load_calibration(lf) != DEFAULT_CALIBRATION
        text = "temp_offset = -4.0\n# warmer\n\ntemp_offset = 7\n".replace("\n", ending)
        other.write_bytes(text.encode())
        with pytest.raises(ConfigError, match="other.txt:4: temp_offset already set on line 1"):
            load_calibration(other)

    def test_offset_beyond_rounding_range(self, tmp_path):
        path = tmp_path / "cal.txt"
        path.write_text("pres_offset = 1e308\n")
        with pytest.raises(ConfigError, match="pressure"):
            load_calibration(path)

    @pytest.mark.parametrize(
        "key, value, channel, word, bound",
        [
            ("temp_offset", "1e25", "temperature", 0, "1e+25"),
            ("temp_offset", "-1e25", "temperature", 0, "1e+25"),
            ("sal_offset", "1e25", "salinity", 0, "1e+25"),
            ("pres_offset", "1e27", "pressure", 0, "1e+27"),
            ("sal_resolution", "2e20", "salinity", 65535, "1e+25"),
            # finite, but T**2 in the index would overflow to inf
            ("temp_offset", "1e200", "temperature", 0, "1e+25"),
        ],
    )
    def test_decodable_range_bound_rejected(self, tmp_path, key, value, channel, word, bound):
        # the same calibrations that 28-digit decimal rounding rejected
        path = tmp_path / "cal.txt"
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(
            ConfigError,
            match=f"{channel} calibration maps word {word} .* below {re.escape(bound)}",
        ):
            load_calibration(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("temp_offset", "9.99e24"),
            ("temp_offset", "-9.99e24"),
            ("sal_offset", "9.99e24"),
            ("pres_offset", "9.9e26"),
        ],
    )
    def test_just_inside_decodable_range_accepted(self, tmp_path, key, value):
        # the same calibrations that 28-digit decimal rounding accepted
        path = tmp_path / "cal.txt"
        path.write_text(f"{key} = {value}\n")
        assert getattr(load_calibration(path), key) == float(value)
