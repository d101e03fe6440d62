from __future__ import annotations

import math
import random
from datetime import datetime, timedelta

import pytest

from oceanmine.decoder import ProfileRecord
from oceanmine.errors import AllSamplesRejected, ConfigError
from oceanmine.oscillation import band_of, compute_index, compute_series
from oceanmine.regions import RegionSegment

import oracles
from helpers import config_with, d_index_d_temperature

# Frozen from the 50-digit reference evaluation of the first decoded
# profile row: N(13.725, 35.134, 199.5).
N_REFERENCE_ROW = 1.3935828853874582


def seg_of(pressures):
    t0 = datetime(2003, 1, 10, 12, 49, 18)
    records = [
        ProfileRecord(
            observed_at=t0 + timedelta(minutes=i),
            level=1,
            temperature=13.725,
            salinity=35.134,
            pressure=p,
        )
        for i, p in enumerate(pressures)
    ]
    return RegionSegment("02602_0_76", records)


class TestComputeIndex:
    def test_reference_row(self):
        n = compute_index(13.725, 35.134, 199.5)
        assert n == pytest.approx(N_REFERENCE_ROW, rel=1e-12)

    def test_pressure_terms_cancel(self):
        p_star = math.sqrt(3.2e7 / 3300.0)
        assert compute_index(0.0, 0.0, p_star) == pytest.approx(1.3247, abs=1e-9)

    def test_divergent_at_floor(self):
        # compute_index takes no floor; compute_series skips records at it
        series = compute_series(seg_of([199.5, 0.5, 0.2]), 0.5)
        assert (len(series.samples), series.skipped) == (1, 2)
        series = compute_series(seg_of([199.5, 2.0]), pressure_floor=2.0)
        assert (len(series.samples), series.skipped) == (1, 1)

    def test_floor_is_strict_above(self):
        assert compute_index(10.0, 35.0, 0.5001) < 0  # huge negative, but defined

    def test_bad_floor(self):
        for floor in (0.0, -1.0):
            with pytest.raises(ConfigError):
                config_with(pressure_floor=floor).validate()

    def test_matches_reference_evaluator(self):
        rng = random.Random(13247)
        for _ in range(200):
            t = rng.uniform(-2, 35)
            s = rng.uniform(30, 40)
            p = rng.uniform(1, 2000)
            ours = compute_index(t, s, p)
            ref = oracles.index_reference(t, s, p)
            assert abs((ours - ref) / ref) <= 1e-12

    def test_gradient_formula(self):
        rng = random.Random(5)
        for _ in range(50):
            t = rng.uniform(-2, 35)
            s = rng.uniform(30, 40)
            p = rng.uniform(1, 2000)
            fd = oracles.gradient_reference_fd(t, s, p)
            an = d_index_d_temperature(t, s)
            assert abs((fd - an) / an) <= 1e-6


class TestComputeSeries:
    def test_skips_low_pressure_and_counts(self):
        series = compute_series(seg_of([199.5, 0.0, 150.0]), 0.5)
        assert len(series.samples) == 2
        assert series.skipped == 1
        assert series.samples[0].n_value == pytest.approx(N_REFERENCE_ROW, rel=1e-12)

    def test_all_rejected(self):
        with pytest.raises(AllSamplesRejected):
            compute_series(seg_of([0.0, 0.3, 0.5]), 0.5)

    def test_sample_order_follows_records(self):
        series = compute_series(seg_of([199.5, 150.0, 120.0]), 0.5)
        stamps = [s.observed_at for s in series.samples]
        assert stamps == sorted(stamps)


class TestBandOf:
    def test_reference_example(self):
        band = band_of([1.0, 3.0, 2.0, 8.0], 2)
        assert band.avg_min == 1.5
        assert band.avg_max == 5.5

    def test_window_equal_to_length(self):
        band = band_of([1.0, 3.0, 2.0, 8.0], 4)
        assert band.avg_min == 1.0
        assert band.avg_max == 8.0

    def test_partial_final_window_counts(self):
        # windows [5, 1], [9]: minima (1, 9), maxima (5, 9)
        band = band_of([5.0, 1.0, 9.0], 2)
        assert band.avg_min == 5.0
        assert band.avg_max == 7.0

    def test_means_add_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the plain sum is 0.0; the
        # compensated sum() of Python 3.12 gives 1.0, a mean of 1/3.
        band = band_of([1e16, 1.0, -1e16], 1)
        assert band.avg_min == band.avg_max == 0.0

    def test_constant_series_collapses(self):
        band = band_of([2.5] * 7, 3)
        assert band.avg_min == band.avg_max == 2.5

    def test_errors(self):
        # band_of trusts its window; an empty series never reaches it
        with pytest.raises(ConfigError):
            config_with(window_len=0).validate()

    def test_band_inside_series_range(self):
        rng = random.Random(8)
        for _ in range(100):
            values = [rng.uniform(-100, 100) for _ in range(rng.randint(1, 40))]
            wl = rng.randint(1, 12)
            band = band_of(values, wl)
            assert min(values) <= band.avg_min <= band.avg_max <= max(values)
