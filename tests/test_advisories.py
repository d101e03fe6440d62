import json
import random
from datetime import timedelta

import pytest

from oceanmine.advisories import (
    KIND_FISHING_ZONE,
    KIND_STRONG_WAVE,
    Advisory,
    RegionSummary,
    ReportTable,
    compose_report,
    detect_fishing_zone,
    detect_strong_waves,
    report_jsonl,
    report_text,
)
from oceanmine.errors import ConfigError
from oceanmine.oscillation import IndexBand, IndexSample, band_of

from helpers import config_with
from oracles import at


def series_of(values, spacing_s=60.0):
    return [IndexSample(at(i * spacing_s), float(v)) for i, v in enumerate(values)]


class TestStrongWaves:
    def test_escapes_are_flagged_with_crossed_bound(self):
        samples = series_of([1.0, 3.0, 2.0, 8.0])
        band = band_of([s.n_value for s in samples], window_len=2)
        assert (band.avg_min, band.avg_max) == (1.5, 5.5)
        alerts = detect_strong_waves(samples, band)
        assert [(a.at, a.value, a.threshold) for a in alerts] == [
            (at(0), 1.0, 1.5),
            (at(180), 8.0, 5.5),
        ]
        assert all(a.kind == KIND_STRONG_WAVE for a in alerts)

    def test_constant_series_is_quiet(self):
        samples = series_of([2.5] * 40)
        band = band_of([s.n_value for s in samples], window_len=10)
        assert detect_strong_waves(samples, band) == []

    def test_bound_equality_is_quiet(self):
        band = IndexBand(avg_min=1.0, avg_max=2.0, window_len=10)
        samples = series_of([1.0, 2.0, 1.5])
        assert detect_strong_waves(samples, band) == []

    def test_spikes_in_flat_background(self):
        rng = random.Random(8)
        values = [5.0] * 100
        spikes = sorted(rng.sample(range(100), 3))
        values[spikes[0]] = 5.0 + 2.0
        values[spikes[1]] = 5.0 - 2.0
        values[spikes[2]] = 5.0 + 3.0
        samples = series_of(values)
        band = band_of([5.0] * 100, window_len=10)
        alerts = detect_strong_waves(samples, band)
        assert [a.at for a in alerts] == [samples[i].observed_at for i in spikes]

    def test_direction_recoverable_from_threshold(self):
        # every alert can be re-checked as value outside its threshold
        samples = series_of([0.0, 10.0, 5.0])
        band = IndexBand(avg_min=4.0, avg_max=6.0, window_len=1)
        for a in detect_strong_waves(samples, band):
            assert a.value < a.threshold or a.value > a.threshold


class TestFishingZone:
    CURVE = [(at(0), 0.0), (at(2), 1.0), (at(4), 0.5), (at(6), 0.5)]

    def test_peak_point_flagged(self):
        advisories = detect_fishing_zone(self.CURVE, theta=0.8, rule="MID=>LOW")
        assert len(advisories) == 1
        adv = advisories[0]
        assert adv.kind == KIND_FISHING_ZONE
        assert adv.at == at(2)
        assert adv.value == 1.0
        assert adv.threshold == 0.8
        assert adv.rule == "MID=>LOW"

    def test_plateau_flags_every_peak_point(self):
        curve = [(at(0), 0.3), (at(1), 0.9), (at(2), 0.9), (at(3), 0.5)]
        advisories = detect_fishing_zone(curve, theta=0.8)
        assert [a.at for a in advisories] == [at(1), at(2)]

    def test_flat_curve_above_theta_flags_everything(self):
        curve = [(at(i), 0.9) for i in range(4)]
        assert len(detect_fishing_zone(curve, theta=0.8)) == 4

    def test_peak_below_theta_is_quiet(self):
        curve = [(at(0), 0.0), (at(1), 0.79)]
        assert detect_fishing_zone(curve, theta=0.8) == []

    def test_all_zero_curve_is_quiet(self):
        curve = [(at(i), 0.0) for i in range(5)]
        assert detect_fishing_zone(curve, theta=0.8) == []

    def test_theta_one_is_allowed(self):
        advisories = detect_fishing_zone(self.CURVE, theta=1.0)
        assert [a.at for a in advisories] == [at(2)]

    def test_empty_curve(self):
        assert detect_fishing_zone([], theta=0.8) == []

    @pytest.mark.parametrize("theta", [0.0, -0.1, 1.0001, 2.0])
    def test_theta_out_of_range(self, theta):
        # detect_fishing_zone trusts theta; validation keeps it in (0, 1]
        with pytest.raises(ConfigError):
            config_with(theta=theta).validate()

    def test_time_shift_equivariance(self):
        rng = random.Random(14)
        for _ in range(20):
            curve = [
                (at(i * 7), round(rng.random(), 3)) for i in range(rng.randint(1, 12))
            ]
            shift = timedelta(seconds=rng.randint(1, 10 ** 6))
            shifted = [(t + shift, c) for t, c in curve]
            base = detect_fishing_zone(curve, theta=0.5)
            moved = detect_fishing_zone(shifted, theta=0.5)
            assert [(a.at + shift, a.value) for a in base] == [
                (a.at, a.value) for a in moved
            ]


def summary(region, **kw):
    defaults = dict(
        region=region,
        status="ok",
        sample_count=4,
        skipped=0,
        first_seen=at(0),
        last_seen=at(180),
        avg_min=1.5,
        avg_max=5.5,
        window_len=2,
        top_rule="LOW=>HIGH",
        top_confidence=1.0,
        advisories=[],
    )
    defaults.update(kw)
    return RegionSummary(**defaults)


class TestReport:
    def test_rows_sorted_by_region(self):
        table = compose_report(
            [summary("99999_1_2"), summary("02602_0_76")], generated_at=at(300)
        )
        assert [r.region for r in table.rows] == ["02602_0_76", "99999_1_2"]

    def test_advisories_sorted_within_row(self):
        adv = [
            Advisory(KIND_FISHING_ZONE, at(20), 0.9, 0.8, rule="B"),
            Advisory(KIND_STRONG_WAVE, at(10), 9.0, 5.5),
            Advisory(KIND_FISHING_ZONE, at(20), 0.9, 0.8, rule="A"),
        ]
        table = compose_report([summary("r", advisories=adv)], generated_at=at(300))
        got = table.rows[0].advisories
        assert [(a.at, a.kind, a.rule) for a in got] == [
            (at(10), KIND_STRONG_WAVE, None),
            (at(20), KIND_FISHING_ZONE, "A"),
            (at(20), KIND_FISHING_ZONE, "B"),
        ]

    def test_jsonl_rendering(self):
        adv = [Advisory(KIND_STRONG_WAVE, at(10), 9.0, 5.5)]
        table = compose_report(
            [summary("a_0_0", advisories=adv), summary("b_0_0")],
            generated_at=at(300),
        )
        lines = report_jsonl(table).splitlines()
        head = json.loads(lines[0])
        assert head == {"generated_at": at(300).isoformat(), "regions": 2}
        rows = [json.loads(line) for line in lines[1:]]
        assert [r["region"] for r in rows] == ["a_0_0", "b_0_0"]
        assert rows[0]["avg_min"] == 1.5
        assert rows[0]["advisories"][0]["value"] == 9.0
        assert rows[0]["advisories"][0]["threshold"] == 5.5

    def test_jsonl_advisories_recheckable(self):
        # the machine report alone must let a reader re-verify triggers
        adv = [
            Advisory(KIND_STRONG_WAVE, at(10), 9.0, 5.5),
            Advisory(KIND_FISHING_ZONE, at(20), 0.9, 0.8, rule="LOW=>HIGH"),
        ]
        table = compose_report([summary("r_0_0", advisories=adv)], generated_at=at(99))
        for line in report_jsonl(table).splitlines()[1:]:
            for a in json.loads(line)["advisories"]:
                if a["kind"] == "strong_wave":
                    assert a["value"] != a["threshold"]
                else:
                    assert a["value"] >= a["threshold"]
                    assert a["rule"]

    def test_text_rendering(self):
        table = compose_report(
            [
                summary("02602_0_76"),
                summary(
                    "02602_1_76",
                    status="all-samples-rejected",
                    sample_count=0,
                    skipped=3,
                    avg_min=None,
                    avg_max=None,
                    window_len=None,
                    top_rule=None,
                    top_confidence=None,
                ),
            ],
            generated_at=at(300),
        )
        text = report_text(table)
        lines = text.splitlines()
        assert lines[0] == f"advisory report  generated_at={at(300).isoformat()}"
        assert lines[1].split() == [
            "region", "status", "samples", "skipped", "span",
            "avg_min", "avg_max", "top_rule", "confidence", "waves", "zones",
        ]
        assert len(lines) == 5
        assert "02602_0_76" in lines[3]
        assert "all-samples-rejected" in lines[4]
        # rejected rows render placeholders, not stale numbers
        assert lines[4].split()[2:4] == ["0", "3"]
        assert text.endswith("\n")

    def test_text_columns_align(self):
        table = compose_report(
            [summary("a_0_0"), summary("long_region_name_9_9")], generated_at=at(0)
        )
        lines = report_text(table).splitlines()
        status_col = lines[1].index("status")
        for line in lines[2:]:
            assert len(line) > status_col

    def test_empty_report_renders(self):
        table = compose_report([], generated_at=at(0))
        assert report_jsonl(table).splitlines()[0]
        assert report_text(table).splitlines()[1].startswith("region")

