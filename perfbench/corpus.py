"""Seeded telemetry corpora for the benchmark workloads.

The generator writes the dump format documented in the oceanmine
README and in ``telemetry.py`` (header line, optional block-time line,
hex byte lines) on its own, without importing oceanmine, so a change
under ``src/`` cannot silently change the benchmark's inputs.

Blocks are emitted day-major (every float's first profile of day 0,
then every float's second profile, then day 1, ...), and the random
stream is consumed in that order, so the corpus for the first ``n``
days of a workload is a byte prefix of the corpus for more days.  The
benchmark relies on that to measure how each stage grows with series
length.

The generator also returns the counts a correct run must report
(records, regions, rejected blocks), worked out from what it wrote.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

LEVELS = 10
PROFILES_PER_DAY = 2
CELL_SIZE = 1.0  # the CLI default; regions below are counted on this grid


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: corpus shape plus the CLI flags it runs with."""

    name: str
    why: str
    floats: int
    days: int
    files: int = 1
    drift_deg: float = 0.0  # max position step per profile
    short_block_ratio: float = 0.0  # blocks one word short, rejected by decode
    surface_floats: int = 0  # the last floats report zero pressure throughout
    flags: tuple[str, ...] = ()

    @property
    def prefix_days(self) -> int:
        """Days in the prefix corpus used for the growth ratios."""
        return self.days // 2


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="long_series",
            why=(
                "one long series in one region: confidence_series recomputes "
                "confidence per grid point over all earlier events, so it is "
                "quadratic in series length"
            ),
            floats=1,
            days=240,
        ),
        Workload(
            name="deep_rules",
            why=(
                "large alphabet and long episodes (--k 5 --max-len 3): "
                "candidate-pair scoring in mine_rules dominates"
            ),
            floats=1,
            days=15,
            flags=("--k", "5", "--max-len", "3"),
        ),
        Workload(
            name="fleet",
            why=(
                "many short drifting series over several files with rejected "
                "blocks: parse, decode, segment, index and the writers dominate"
            ),
            floats=200,
            days=6,
            files=4,
            drift_deg=0.05,
            short_block_ratio=0.02,
            surface_floats=2,
            flags=("--max-len", "1"),
        ),
    )
}


@dataclass
class Corpus:
    """The files written for one workload and seed, with expected counts."""

    paths: list[Path]
    records: int
    regions: int
    rejected_blocks: int
    sha256: str
    bytes: int


@dataclass
class _Float:
    platform_id: str
    transmitter_id: str
    lat: float
    lon: float
    surface_only: bool
    temp_bias: float
    messages: int = 0


def _hex_bytes(words: list[int]) -> list[str]:
    out = []
    for w in words:
        out.append(f"{w >> 8:02X}")
        out.append(f"{w & 0xFF:02X}")
    return out


def _fmt_time(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%d %H:%M:%S")


def _profile_words(rng: random.Random, fl: _Float, day: int) -> list[int]:
    """Ten (temperature, salinity, pressure) count triples.

    Pressures are drawn independently per level, so the index classes of
    a profile are close to independent draws: every seed then yields
    about the same number of frequent episodes, and so about the same
    mining work.
    """
    words = []
    season = 3.0 * math.sin(2 * math.pi * day / 365.0)
    for level in range(1, LEVELS + 1):
        temp = 26.0 - 2.2 * level + season + fl.temp_bias + rng.gauss(0.0, 1.5)
        sal = 34.5 + 0.08 * level + rng.gauss(0.0, 0.2)
        if fl.surface_only or (level == 1 and rng.random() < 0.05):
            pres = 0.0
        else:
            pres = rng.uniform(2.0, 400.0)
        words.append(min(0xFFFF, max(0, round((temp + 5.0) / 0.001))))
        words.append(min(0xFFFF, max(0, round(sal / 0.001))))
        words.append(min(0xFFFF, max(0, round(pres / 0.1))))
    return words


def _block_text(
    rng: random.Random, fl: _Float, when: datetime, words: list[int]
) -> str:
    """Render one message block in the dump format."""
    fl.messages += 1
    message_id = f"{(fl.messages * 7919 + int(fl.platform_id)) % 10_000_000:07d}"
    if rng.random() < 0.3:  # some feeds split the message id over two tokens
        message_id = f"{message_id[:5]} {message_id[5:]}"
    header = (
        f"{fl.platform_id} {message_id} {rng.randint(10, 99)} 32 K "
        f"{rng.randint(1, 4)} {_fmt_time(when)} {fl.lat:.3f} {fl.lon:.3f} "
        f"0.000 {fl.transmitter_id}"
    )
    lines = [header]
    toks = _hex_bytes(words)
    if rng.random() < 0.8:
        block_time = when + timedelta(minutes=rng.randint(40, 65), seconds=rng.randint(0, 59))
        lines.append(f"{_fmt_time(block_time)} 1 " + " ".join(toks[:6]))
        toks = toks[6:]
    for i in range(0, len(toks), 6):
        lines.append(" ".join(toks[i : i + 6]))
    return "\n".join(lines) + "\n"


def generate(workload: Workload, seed: int, out_dir: Path, days: int | None = None) -> Corpus:
    """Write the workload's corpus for ``seed`` into ``out_dir``.

    ``days`` truncates the corpus to its first days; the files written
    are then byte prefixes of the full corpus's files.
    """
    days = workload.days if days is None else days
    rng = random.Random(f"oceanmine-bench/{workload.name}/{seed}")
    start = datetime(2003, 1, 1) + timedelta(days=rng.randint(0, 3000))
    fleet = workload.floats > 1
    floats = []
    for i in range(workload.floats):
        platform_id = f"{10000 + i * 37 + rng.randint(0, 36):05d}"
        transmitter_id = str(rng.randint(100_000_000, 999_999_999))
        # A lone float sits mid-cell and never drifts: one region.
        lat = rng.uniform(-60.0, 60.0) if fleet else rng.randint(-50, 50) + 0.5
        lon = rng.uniform(-170.0, 170.0) if fleet else rng.randint(-170, 170) + 0.5
        floats.append(
            _Float(
                platform_id=platform_id,
                transmitter_id=transmitter_id,
                lat=lat,
                lon=lon,
                surface_only=i >= workload.floats - workload.surface_floats,
                temp_bias=rng.uniform(-3.0, 3.0),
            )
        )
    texts: list[list[str]] = [[] for _ in range(workload.files)]
    records = rejected = 0
    keys: set[tuple[str, int, int]] = set()
    for day in range(days):
        for profile in range(PROFILES_PER_DAY):
            # Both profiles of a day fall within the 4 h default --delta of
            # each other and days are far apart, so every day is one event.
            base = start + timedelta(days=day, hours=11 + 2 * profile)
            for idx, fl in enumerate(floats):
                when = base + timedelta(minutes=rng.randint(0, 20), seconds=rng.randint(0, 59))
                if workload.drift_deg:
                    step = workload.drift_deg
                    fl.lat = min(89.0, max(-89.0, fl.lat + rng.uniform(-step, step)))
                    fl.lon = min(179.0, max(-179.0, fl.lon + rng.uniform(-step, step)))
                words = _profile_words(rng, fl, day)
                if rng.random() < workload.short_block_ratio:
                    words = words[:-1]
                    rejected += 1
                else:
                    records += LEVELS
                    # Cells come from the coordinates as the header prints them.
                    lat = float(f"{fl.lat:.3f}")
                    lon = float(f"{fl.lon:.3f}")
                    keys.add(
                        (fl.platform_id, math.floor(lat / CELL_SIZE), math.floor(lon / CELL_SIZE))
                    )
                texts[idx % workload.files].append(_block_text(rng, fl, when, words))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    digest = hashlib.sha256()
    size = 0
    for i, chunks in enumerate(texts):
        data = "".join(chunks).encode("ascii")
        path = out_dir / f"{workload.name}_{i}.txt"
        path.write_bytes(data)
        paths.append(path)
        digest.update(f"{path.name}\0{len(data)}\n".encode("ascii"))
        digest.update(data)
        size += len(data)
    return Corpus(
        paths=paths,
        records=records,
        regions=len(keys),
        rejected_blocks=rejected,
        sha256=digest.hexdigest(),
        bytes=size,
    )
