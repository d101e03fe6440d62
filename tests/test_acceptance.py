"""Acceptance gate: ten checks, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every check prints `[PASS]`/`[FAIL] criterion NN` before asserting, so
a red run still reports the full scoreboard.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
import time
from datetime import datetime, timedelta
from pathlib import Path

import mpmath
import pytest

from oceanmine.advisories import detect_fishing_zone, detect_strong_waves
from oceanmine.decoder import DEFAULT_CALIBRATION, ProfileRecord
from oceanmine.episodes import (
    Event,
    EpisodeRule,
    confidence_series,
    frequent_episodes,
    mine_rules,
)
from oceanmine.oscillation import (
    IndexSample,
    band_of,
    compute_index,
)
from oceanmine.regions import region_key_of, segment
from oceanmine.telemetry import HeaderFields

import oracles
from helpers import d_index_d_temperature, quantize
from oracles import at

SEED = 20030110


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def instances_200():
    rng = random.Random(SEED)
    return [oracles.random_instance(rng) for _ in range(200)]


def test_criterion_01_index_oracle_equivalence():
    rng = random.Random(SEED)
    points = [
        (rng.uniform(-2.0, 35.0), rng.uniform(30.0, 40.0), rng.uniform(1.0, 2000.0))
        for _ in range(1000)
    ]
    t0 = time.perf_counter()
    got = [compute_index(t, s, p) for t, s, p in points]
    elapsed = time.perf_counter() - t0
    worst = mpmath.mpf(0)
    for (t, s, p), g in zip(points, got):
        ref = oracles.index_reference(t, s, p)
        worst = max(worst, abs((mpmath.mpf(g) - ref) / ref))
    ok = worst <= mpmath.mpf("1e-12") and elapsed < 1.0
    _verdict(
        1, "index matches high-precision oracle on 1000 draws", ok,
        f"max_rel={mpmath.nstr(worst, 3)} time={elapsed:.3f}s",
    )


def test_criterion_02_analytic_cancellation():
    p_star = math.sqrt(3.2e7 / 3300.0)
    value = compute_index(0.0, 0.0, p_star)
    err = abs(value - 1.3247)
    ok = err <= 1e-9
    _verdict(2, "pressure terms cancel at P*", ok, f"N={value!r} abs_err={err:.3g}")


def test_criterion_03_temperature_gradient():
    rng = random.Random(SEED)
    worst = mpmath.mpf(0)
    for _ in range(100):
        t = rng.uniform(-2.0, 35.0)
        s = rng.uniform(30.0, 40.0)
        p = rng.uniform(1.0, 2000.0)
        fd = oracles.gradient_reference_fd(t, s, p, h="1e-4")
        analytic = d_index_d_temperature(t, s)
        worst = max(worst, abs((mpmath.mpf(analytic) - fd) / fd))
    ok = worst <= mpmath.mpf("1e-6")
    _verdict(
        3, "analytic dN/dT matches central differences (h=1e-4)", ok,
        f"max_rel={mpmath.nstr(worst, 3)}",
    )


def test_criterion_04_decoder_round_trip():
    t0 = time.perf_counter()
    bad = 0
    for channel, offset, resolution, _ in DEFAULT_CALIBRATION.lines():
        for word in range(65536):
            if quantize(offset + word * resolution, channel) != word:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    _verdict(
        4, "quantize(decode(w)) == w for all 65536 words x 3 channels", ok,
        f"mismatches={bad} time={elapsed:.3f}s",
    )


def test_criterion_05_miner_oracle_equivalence(instances_200):
    t0 = time.perf_counter()
    mismatches = 0
    for events, params in instances_200:
        got = [
            (r.antecedent, r.consequent, r.support, r.confidence)
            for r in mine_rules(events, **params)
        ]
        want = oracles.mine_rules_brute(events, **params)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _verdict(
        5, "miner equals brute-force enumeration on 200 instances", ok,
        f"mismatches={mismatches} time={elapsed:.2f}s",
    )


def test_criterion_06_anti_monotonicity(instances_200):
    violations = 0
    for events, params in instances_200:
        for window in (params["win_a"], params["win_c"]):
            freq = frequent_episodes(events, 1, params["max_len"], window)
            counts = {e: sum(1 for s in starts if s) for e, starts in freq.items()}
            for episode, count in counts.items():
                for cut in range(1, len(episode)):
                    if counts[episode[:cut]] < count:
                        violations += 1
    ok = violations == 0
    _verdict(
        6, "episode support is anti-monotone over prefixes", ok,
        f"violations={violations}",
    )


def test_criterion_07_strong_wave_detection():
    values = [5.0] * 103
    spikes = {15: 7.0, 47: 3.0, 101: 8.0}
    for i, v in spikes.items():
        values[i] = v
    samples = [IndexSample(at(i * 60.0), v) for i, v in enumerate(values)]
    band = band_of(values, window_len=10)
    alerts = detect_strong_waves(samples, band)
    flagged = [a.at for a in alerts]
    expected = [samples[i].observed_at for i in sorted(spikes)]
    ok = flagged == expected
    _verdict(
        7, "3 injected spikes flagged, 0 false positives", ok,
        f"flagged={len(flagged)}/3 band=({band.avg_min:.3f}, {band.avg_max:.3f})",
    )


def test_criterion_08_fishing_zone_at_peak():
    A, B, C = 0, 1, 2
    events = [
        Event(items=((at(1), A), (at(2), B))),
        Event(items=((at(3), A), (at(4), C))),
        Event(items=((at(5), B), (at(6), B))),
    ]
    zero = timedelta(0)
    rule = EpisodeRule((A,), (B,), zero, zero, timedelta(seconds=2), 1, 0.5)
    curve = confidence_series(events, rule, timedelta(seconds=2))
    ok = [c for _, c in curve] == [0.0, 1.0, 0.5, 0.5]
    advisories = detect_fishing_zone(curve, theta=0.8, rule="A=>B")
    ok = ok and [(a.at, a.value) for a in advisories] == [(at(2), 1.0)]
    plateau = [(at(0), 0.3), (at(1), 0.9), (at(2), 0.9), (at(3), 0.5)]
    ok = ok and [a.at for a in detect_fishing_zone(plateau, theta=0.8)] == [at(1), at(2)]
    _verdict(
        8, "advisories at exactly the max-attaining curve points", ok,
        f"advisories={len(advisories)}",
    )


def test_criterion_09_end_to_end_determinism(tmp_path):
    sample = Path(__file__).resolve().parent.parent / "data" / "sample_telemetry.txt"
    t0 = time.perf_counter()
    trees = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "oceanmine", str(sample), "--out-dir", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in out.iterdir()})
    elapsed = time.perf_counter() - t0
    identical = trees[0] == trees[1]
    ok = identical and len(trees[0]) == 6 and elapsed < 5.0
    _verdict(
        9, "two CLI runs on the bundled sample are byte-identical", ok,
        f"files={len(trees[0])} identical={identical} time={elapsed:.2f}s",
    )


def test_criterion_10_region_partition():
    rng = random.Random(SEED)
    platforms = [f"{n:05d}" for n in (1, 2, 3, 4, 5)]
    blocks = []
    for uid in range(1, 1001):
        header = HeaderFields(
            platform_id=rng.choice(platforms),
            message_id="1",
            field_a=0,
            field_b=0,
            class_code="K",
            pass_count=1,
            observed_at=datetime(2003, 1, 10) + timedelta(seconds=rng.randrange(86400)),
            latitude=rng.uniform(-90.0, 90.0),
            longitude=rng.uniform(-180.0, 180.0),
            altitude_or_zero=0.0,
            transmitter_id="t",
        )
        record = ProfileRecord(
            observed_at=header.observed_at,
            level=uid,
            temperature=rng.uniform(-2.0, 35.0),
            salinity=rng.uniform(30.0, 40.0),
            pressure=rng.uniform(1.0, 2000.0),
        )
        blocks.append((header, [record]))

    segments = segment(blocks, cell_size=1.0)
    total = sum(len(seg.records) for seg in segments)
    seen_ids = [rec.level for seg in segments for rec in seg.records]
    violations = 0
    by_id = {recs[0].level: hdr for hdr, recs in blocks}
    for seg in segments:
        for rec in seg.records:
            hdr = by_id[rec.level]
            if seg.key != region_key_of(hdr, 1.0):
                violations += 1
    ok = total == 1000 and len(set(seen_ids)) == 1000 and violations == 0
    _verdict(
        10, "region segmentation is a partition of 1000 fuzzed records", ok,
        f"total={total} unique={len(set(seen_ids))} violations={violations}",
    )
