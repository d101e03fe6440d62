"""End-to-end run: telemetry text in, per-region CSVs and a report out.

Stages run strictly in order: parse and decode (one input file at a
time) into segment, then index, mine and compose region by region.  All
writes are plain ASCII with LF newlines and fully determined by the
inputs; rerunning a config produces a byte-identical tree.

oceanmine.tree names the output files (listed in README's "Output
layout") and puts them in the output directory's place.
"""

from __future__ import annotations

import os
import sys
from datetime import datetime, timedelta
from functools import cache
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from . import advisories as adv
from . import decoder
from . import episodes as ep
from . import tree
from .decoder import DEFAULT_CALIBRATION, ProfileRecord, load_calibration
from .errors import (
    AllSamplesRejected,
    ConfigError,
    DataError,
    NonTripleWordCount,
)
from .oscillation import IndexSample, band_of, compute_series
from .regions import RegionSegment, segment
from .telemetry import HeaderFields, parse_file

# Seconds values must stay below this to fit a timedelta.
_MAX_SECONDS = timedelta.max.total_seconds()


class PipelineConfig(NamedTuple):
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
    lag_s: float | None = None
    min_support: int = 2
    theta: float = 0.8
    write_plots: bool = True

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("at least one input file is required")
        # One row per number setting: name, value, (types, noun), (range test, text).
        count, number = ((int,), "an integer"), ((int, float), "a number")
        positive = (lambda v: 0 < v <= sys.float_info.max, "positive and finite")
        at_least_1 = (lambda v: v >= 1, ">= 1")
        seconds = (lambda v: 0 <= v < _MAX_SECONDS, f"in [0, {_MAX_SECONDS:.0f}) seconds")
        classes = (lambda v: 1 <= v <= sys.maxsize, f"in [1, {sys.maxsize}]")
        for name, value, (types, noun), (in_range, text) in (
            ("cell size", self.cell_size, number, positive),
            ("pressure floor", self.pressure_floor, number, positive),
            ("window length", self.window_len, count, at_least_1),
            ("delta", self.delta_s, number, seconds),
            ("class count", self.k, count, classes),
            ("max episode length", self.max_len, count, at_least_1),
            ("win_a", self.win_a_s, number, seconds),
            ("win_c", self.win_c_s, number, seconds),
            ("lag", self.lag_s, ((int, float, type(None)), "a number"), seconds),
            ("min support", self.min_support, count, at_least_1),
            ("theta", self.theta, number, (lambda v: 0 < v <= 1, "in (0, 1]")),
        ):
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{name} must be {noun}, got {value!r}")
            if value is not None and not in_range(value):
                raise ConfigError(f"{name} must be {text}, got {value}")
        # Coordinates reach +-180 and are floored after dividing by the cell
        # size; indexes below 1e100 keep region file names under 255 bytes.
        if not 180.0 / self.cell_size < 1e100:
            raise ConfigError(f"cell size {self.cell_size} is too small to grid")

    @property
    def windows(self) -> ep.Windows:
        lag_s = self.lag_s if self.lag_s is not None else self.delta_s
        return tuple(timedelta(seconds=s) for s in (self.win_a_s, self.win_c_s, lag_s))


class RunResult(NamedTuple):
    report: adv.ReportTable
    rejected_blocks: int


_fmt17 = "{:.17g}".format
# A records.csv row: the region-and-time prefix, the level, then each channel in
# payload order (a record's) at its lines() decimals, which no calibration changes.
_record_row = ",".join(["{}{}", *(f"{{:.{d}f}}" for *_, d in DEFAULT_CALIBRATION.lines())]).format


# --- persistence -----------------------------------------------------------


def _time_runs(rows: Iterable[Any]) -> Iterator[tuple[str, Iterator[Any]]]:
    """Each run of rows that share an observed_at, with its ISO text: a block's
    levels share one datetime, and equal naive times print alike."""
    for ts, group in groupby(rows, attrgetter("observed_at")):
        yield ts.isoformat(), group


def records_csv(records: list[ProfileRecord], region: str) -> str:
    lines = [",".join(("region", *ProfileRecord._fields))]
    for stamp, group in _time_runs(records):
        prefix = f"{region},{stamp},"
        for _, level, t, s, p in group:
            lines.append(_record_row(prefix, level, t, s, p))
    return "\n".join(lines) + "\n"


def index_csv(samples: list[IndexSample]) -> str:
    lines = [",".join(IndexSample._fields)]
    for stamp, group in _time_runs(samples):
        for s in group:
            lines.append(f"{stamp},{_fmt17(s.n_value)}")
    return "\n".join(lines) + "\n"


def rules_csv(rules: list[ep.EpisodeRule], k: int, windows: ep.Windows) -> str:
    lines = ["antecedent,consequent,win_a_s,win_c_s,lag_s,support,confidence"]
    # The rules share one mining run's windows, episodes recur, and rules
    # come sorted by confidence (support over a count, never -0.0): each
    # value is formatted once, or once per run of rules sharing it.
    spans = ",".join(_fmt17(w.total_seconds()) for w in windows)
    label = cache(lambda episode: ep.episode_label(episode, k))
    confidence = conf = None
    for r in rules:
        if r.confidence != confidence:
            confidence = r.confidence
            conf = _fmt17(confidence)
        lines.append(
            f"{label(r.antecedent)},{label(r.consequent)},{spans},{r.support},{conf}"
        )
    return "\n".join(lines) + "\n"


def confidence_csv(curve: list[tuple[datetime, float]], rule_label: str) -> str:
    lines = ["observed_at,rule_id,confidence"]
    for ts, conf in curve:
        lines.append(f"{ts.isoformat()},{rule_label},{_fmt17(conf)}")
    return "\n".join(lines) + "\n"


# --- the run ---------------------------------------------------------------


def _analyse(
    seg: RegionSegment, config: PipelineConfig, write: Callable[[str, str], None]
) -> adv.RegionSummary:
    """Analyse one region, write its files, and return its report row."""
    first_seen, last_seen = seg.records[0].observed_at, seg.records[-1].observed_at
    samples: list[IndexSample] = []
    rules: list[ep.EpisodeRule] = []
    curve: list[tuple[datetime, float]] = []
    windows = config.windows
    try:
        series = compute_series(seg, config.pressure_floor)
    except AllSamplesRejected:
        row = adv.RegionSummary(
            seg.region, adv.STATUS_REJECTED, 0, len(seg.records), first_seen, last_seen
        )
    else:
        samples = series.samples
        band = band_of([s.n_value for s in samples], config.window_len)
        advisories = adv.detect_strong_waves(samples, band)

        delta = timedelta(seconds=config.delta_s)
        events = ep.build_events(samples, delta, config.k)
        rules = ep.mine_rules(events, config.min_support, config.max_len, windows)
        top_rule = top_confidence = None
        if rules:
            top = rules[0]
            top_rule = ep.rule_id(top, config.k)
            top_confidence = top.confidence
            curve = ep.confidence_series(events, top, windows, delta)
            # report.jsonl prints the threshold, so an int theta must print as 1.0
            advisories += adv.detect_fishing_zone(curve, float(config.theta), rule=top_rule)
        del events  # the region's largest structure: not held through the writes
        row = adv.RegionSummary(
            region=seg.region, status=adv.STATUS_OK, sample_count=len(samples),
            skipped=series.skipped, first_seen=first_seen, last_seen=last_seen,
            avg_min=band.avg_min, avg_max=band.avg_max, window_len=config.window_len,
            top_rule=top_rule, top_confidence=top_confidence,
            advisories=adv.in_report_order(advisories),
        )
    names = iter(tree.region_files(seg.region, config.write_plots))
    write(next(names), records_csv(seg.records, seg.region))
    write(next(names), rules_csv(rules, config.k, windows))
    if config.write_plots:
        write(next(names), index_csv(samples))
        write(next(names), confidence_csv(curve, row.top_rule or ""))
    return row


def _segments(
    config: PipelineConfig, cal: decoder.CalibrationTable
) -> tuple[list[RegionSegment], int]:
    """The run's regions, and the number of blocks rejected on the way.

    Each file is decoded as it is parsed, into segment: one file's
    blocks at a time.
    """
    block_count = rejected_blocks = 0
    memo = decoder.decode_memo(cal)  # this run's rounded words; records share its floats

    def decoded() -> Iterator[tuple[HeaderFields, list[ProfileRecord]]]:
        nonlocal block_count, rejected_blocks
        for path in config.inputs:
            try:
                blocks = parse_file(path)
            except DataError as e:
                e.stage = f"parse {path}"
                raise
            block_count += len(blocks)
            for block in blocks:
                try:
                    yield block.header, decoder.decode_block(block, memo)
                except NonTripleWordCount:
                    rejected_blocks += 1
            del blocks, block

    segments = segment(decoded(), config.cell_size)
    if not segments:
        raise DataError(
            f"no decodable records in {block_count} blocks "
            f"({rejected_blocks} rejected)",
            stage="decode",
        )
    return segments, rejected_blocks


def run(config: PipelineConfig) -> RunResult:
    """Execute the full pipeline for one configuration.

    Raises ConfigError for bad parameters, OSError for unreadable
    inputs or an output directory oceanmine may not replace, DataError
    (naming the failed stage in .stage) for format and content
    failures.  A failing run leaves the output directory as it was.
    """
    config.validate()

    cal = DEFAULT_CALIBRATION
    if config.calibration_path is not None:
        cal = load_calibration(config.calibration_path)

    # All inputs must be present, as regular files, before any work starts;
    # one that cannot be read fails when it is parsed, and nothing is written.
    for path in config.inputs:
        if Path(path).is_file():
            continue
        if os.path.exists(path):
            raise OSError(f"input is not a regular file: {path}")
        raise FileNotFoundError(f"input file not found: {path}")

    with tree.replacing(config.out_dir) as staging:
        segments, rejected_blocks = _segments(config, cal)
        staging.start(
            [n for seg in segments for n in tree.region_files(seg.region, config.write_plots)]
        )
        # Each region's files go to disk once it is analysed, the report last.
        summaries = [_analyse(seg, config, staging.write) for seg in segments]
        if all(row.status == adv.STATUS_REJECTED for row in summaries):
            raise DataError("every region failed the pressure floor", stage="index")
        report = adv.compose_report(summaries, max(r.last_seen for r in summaries))
        with staging.stream(tree.REPORT_JSONL) as f:
            adv.report_jsonl(report, f)
        staging.write(tree.REPORT_TXT, adv.report_text(report))

    return RunResult(report, rejected_blocks)
