"""End-to-end run: telemetry text in, per-region CSVs and a report out.

Stages run strictly in order: parse, decode, segment, index, mine,
compose.  Every artifact is computed in memory first and written only
after the whole run has succeeded, so a failing run leaves no partial
output tree behind.  All writes are plain ASCII with LF newlines and
fully determined by the inputs; rerunning a config produces a
byte-identical tree.

Output layout under the configured directory:

    records_<region>.csv     decoded profile records
    index_<region>.csv       index series (plot data)
    rules_<region>.csv       mined episode rules
    confidence_<region>.csv  cumulative confidence of the top rule
    report.jsonl             one JSON record per region row
    report.txt               the same table, aligned for reading
"""

from __future__ import annotations

import errno
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

from . import advisories as adv
from . import decoder
from . import episodes as ep
from .decoder import DEFAULT_CALIBRATION, ProfileRecord, load_calibration
from .errors import (
    AllSamplesRejected,
    ConfigError,
    DataError,
    NonTripleWordCount,
)
from .oscillation import IndexSample, band_of, compute_series
from .regions import key_string, segment
from .telemetry import HeaderFields, parse_file

# Seconds values must stay below this to fit a timedelta.
_MAX_SECONDS = timedelta.max.total_seconds()


@dataclass
class PipelineConfig:
    inputs: list[Path]
    out_dir: Path
    cell_size: float = 1.0
    calibration_path: Path | None = None
    pressure_floor: float = 0.5
    window_len: int = 10
    delta_s: float = 14400.0  # bridges same-day profile pairs, splits days
    k: int = 3
    max_len: int = 2
    win_a_s: float = 0.0
    win_c_s: float = 0.0
    lag_s: float | None = None  # defaults to delta_s
    min_support: int = 2
    theta: float = 0.8
    write_plots: bool = True

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("at least one input file is required")
        if not (math.isfinite(self.cell_size) and self.cell_size > 0):
            raise ConfigError(
                f"cell size must be positive and finite, got {self.cell_size}"
            )
        # Coordinates reach +-180 and are floored after dividing by the cell
        # size; indexes below 1e100 keep region file names under 255 bytes.
        if not 180.0 / self.cell_size < 1e100:
            raise ConfigError(f"cell size {self.cell_size} is too small to grid")
        if not (math.isfinite(self.pressure_floor) and self.pressure_floor > 0):
            raise ConfigError(
                f"pressure floor must be positive and finite, got {self.pressure_floor}"
            )
        if self.window_len < 1:
            raise ConfigError(f"window length must be >= 1, got {self.window_len}")
        for name, seconds in (
            ("delta", self.delta_s),
            ("win_a", self.win_a_s),
            ("win_c", self.win_c_s),
            ("lag", self.lag_s),
        ):
            if seconds is None:
                continue
            if not (math.isfinite(seconds) and 0 <= seconds < _MAX_SECONDS):
                raise ConfigError(
                    f"{name} must be in [0, {_MAX_SECONDS:.0f}) seconds, got {seconds}"
                )
        if not 1 <= self.k <= sys.maxsize:
            raise ConfigError(f"class count must be in [1, {sys.maxsize}], got {self.k}")
        if self.max_len < 1:
            raise ConfigError(f"max episode length must be >= 1, got {self.max_len}")
        if self.min_support < 1:
            raise ConfigError(f"min support must be >= 1, got {self.min_support}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")

    @property
    def lag(self) -> timedelta:
        return timedelta(seconds=self.lag_s if self.lag_s is not None else self.delta_s)


@dataclass
class RunResult:
    report: adv.ReportTable
    record_count: int
    region_count: int
    rejected_blocks: int


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


# --- persistence -----------------------------------------------------------


# The levels of a block share one datetime object, so the writers below
# format a timestamp only when it differs from the previous row's.


def records_csv(records: list[ProfileRecord], region: str) -> str:
    lines = ["region,observed_at,level,temperature,salinity,pressure"]
    ts = stamp = None
    for r in records:
        if r.observed_at is not ts:
            ts = r.observed_at
            stamp = ts.isoformat()
        lines.append(
            f"{region},{stamp},{r.level},"
            f"{r.temperature:.3f},{r.salinity:.3f},{r.pressure:.1f}"
        )
    return "\n".join(lines) + "\n"


def index_csv(samples: list[IndexSample]) -> str:
    lines = ["observed_at,n_value"]
    ts = stamp = None
    for s in samples:
        if s.observed_at is not ts:
            ts = s.observed_at
            stamp = ts.isoformat()
        lines.append(f"{stamp},{_fmt17(s.n_value)}")
    return "\n".join(lines) + "\n"


def rules_csv(rules: list[ep.EpisodeRule], k: int) -> str:
    lines = ["antecedent,consequent,win_a_s,win_c_s,lag_s,support,confidence"]
    for r in rules:
        lines.append(
            f"{ep.episode_label(r.antecedent, k)},{ep.episode_label(r.consequent, k)},"
            f"{_fmt17(r.win_a.total_seconds())},{_fmt17(r.win_c.total_seconds())},"
            f"{_fmt17(r.lag.total_seconds())},{r.support},{_fmt17(r.confidence)}"
        )
    return "\n".join(lines) + "\n"


def confidence_csv(curve: list[tuple[datetime, float]], rule_label: str) -> str:
    lines = ["observed_at,rule_id,confidence"]
    for ts, conf in curve:
        lines.append(f"{ts.isoformat()},{rule_label},{_fmt17(conf)}")
    return "\n".join(lines) + "\n"


# --- the run ---------------------------------------------------------------


def run(config: PipelineConfig) -> RunResult:
    """Execute the full pipeline for one configuration.

    Raises ConfigError for bad parameters, OSError for unreadable
    inputs, DataError subclasses (naming the failed stage in .stage) for
    format and content failures.  Nothing is written unless the whole
    run succeeds.
    """
    config.validate()

    cal = DEFAULT_CALIBRATION
    if config.calibration_path is not None:
        cal = load_calibration(config.calibration_path)

    # All inputs must be present and readable before any work starts.
    for path in config.inputs:
        if not Path(path).is_file():
            raise FileNotFoundError(f"input file not found: {path}")

    blocks = []
    for path in config.inputs:
        try:
            blocks.extend(parse_file(path))
        except DataError as e:
            e.stage = f"parse {path}"
            raise

    decoded: list[tuple[HeaderFields, list[ProfileRecord]]] = []
    rejected_blocks = 0
    memo = decoder.DecodeMemo()  # this run's rounded words; records share its floats
    for block in blocks:
        try:
            decoded.append((block.header, decoder.decode_block(block, cal, memo)))
        except NonTripleWordCount:
            rejected_blocks += 1
    segments = segment(decoded, config.cell_size)
    if not segments:
        raise DataError(
            f"no decodable records in {len(blocks)} blocks "
            f"({rejected_blocks} rejected)",
            stage="decode",
        )
    # Segmented: free the words and the memo before the outputs accumulate.
    del blocks, decoded, memo

    delta = timedelta(seconds=config.delta_s)
    win_a = timedelta(seconds=config.win_a_s)
    win_c = timedelta(seconds=config.win_c_s)
    lag = config.lag

    # Serialize each region once analysed; write only after all succeed.
    files: dict[str, str] = {}
    summaries: list[adv.RegionSummary] = []
    for seg in segments:
        key_str = key_string(seg.key)
        row = adv.RegionSummary(
            region=key_str,
            status=adv.STATUS_REJECTED,
            sample_count=0,
            skipped=len(seg.records),
            first_seen=seg.records[0].observed_at,
            last_seen=seg.records[-1].observed_at,
        )
        samples: list[IndexSample] = []
        rules: list[ep.EpisodeRule] = []
        curve: list[tuple[datetime, float]] = []
        try:
            series = compute_series(seg, config.pressure_floor)
        except AllSamplesRejected:
            pass
        else:
            samples = series.samples
            row.status = adv.STATUS_OK
            row.sample_count = len(samples)
            row.skipped = series.skipped
            row.band = band_of([s.n_value for s in samples], config.window_len)
            row.advisories = adv.detect_strong_waves(samples, row.band)

            events = ep.build_events(samples, delta, config.k)
            rules = ep.mine_rules(
                events,
                min_support=config.min_support,
                max_len=config.max_len,
                win_a=win_a,
                win_c=win_c,
                lag=lag,
            )
            if rules:
                top = rules[0]
                row.top_rule = ep.rule_id(top, config.k)
                row.top_confidence = top.confidence
                curve = ep.confidence_series(events, top, delta)
                row.advisories.extend(
                    adv.detect_fishing_zone(curve, config.theta, rule=row.top_rule)
                )
        summaries.append(row)
        files[f"records_{key_str}.csv"] = records_csv(seg.records, key_str)
        files[f"rules_{key_str}.csv"] = rules_csv(rules, config.k)
        if config.write_plots:
            files[f"index_{key_str}.csv"] = index_csv(samples)
            files[f"confidence_{key_str}.csv"] = confidence_csv(curve, row.top_rule or "")

    if all(row.status == adv.STATUS_REJECTED for row in summaries):
        raise AllSamplesRejected("every region failed the pressure floor", stage="index")

    generated_at = max(seg.records[-1].observed_at for seg in segments)
    report = adv.compose_report(summaries, generated_at)
    files["report.jsonl"] = adv.report_jsonl(report)
    files["report.txt"] = adv.report_text(report)

    out_dir = Path(config.out_dir)
    # A target that cannot be written as a file fails the run before any
    # write; so does a symlink, which could point outside out_dir.
    for name in files:
        target = out_dir / name
        if target.is_symlink() or (target.exists() and not target.is_file()):
            code = errno.EISDIR if target.is_dir() else errno.EEXIST
            raise OSError(code, os.strerror(code), str(target))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="ascii", newline="")

    return RunResult(
        report=report,
        record_count=sum(len(seg.records) for seg in segments),
        region_count=len(segments),
        rejected_blocks=rejected_blocks,
    )
