"""End-to-end run: telemetry text in, per-region CSVs and a report out.

Stages run strictly in order: parse and decode (one input file at a
time) into segment, then index, mine and compose region by region.  All
writes are plain ASCII with LF newlines and fully determined by the
inputs; rerunning a config produces a byte-identical tree.

Output layout under the configured directory:

    records_<region>.csv     decoded profile records
    index_<region>.csv       index series (plot data)
    rules_<region>.csv       mined episode rules
    confidence_<region>.csv  cumulative confidence of the top rule
    report.jsonl             one JSON record per region row
    report.txt               the same table, aligned for reading

The output directory holds exactly one run's files, or is left as it
was.  Each region's files are written as soon as the region is
analysed, into a sibling staging directory `.<name>.oceanmine-staging`;
the report files go last.  The staging directory then replaces the
output directory: the old tree is renamed aside to `.<name>.oceanmine-old`
and removed.  Before any work, the output directory and any leftover
staging or aside directory must hold nothing but regular files with
output names, so no path that oceanmine did not name is ever replaced
or removed.  A failing run removes its staging directory.  One run at
a time owns these names: a run holds an flock on the sibling file
`.<name>.oceanmine-lock` from before its first check until after the
swap, and a run that finds it held fails at once, touching nothing.

Creating a file costs the kernel far more than filling one, and two
processes creating files in one directory take as long as one.  So
while the regions are analysed, a forked helper creates the run's
files in the staging directory, empty and in writing order; a write
fills the file in place, or creates it when the helper is behind.
The helper never writes, and it is killed and reaped before the
staging directory is renamed or removed, so the tree depends on the
writes alone.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import re
import signal
import stat
import sys
from datetime import datetime, timedelta
from functools import cache
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

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
from .regions import RegionSegment, segment
from .telemetry import HeaderFields, parse_file

try:
    import fcntl
except ImportError:  # runs then go unlocked
    fcntl = None

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
    lag_s: float | None = None  # defaults to delta_s
    min_support: int = 2
    theta: float = 0.8
    write_plots: bool = True

    def validate(self) -> None:
        if not self.inputs:
            raise ConfigError("at least one input file is required")
        for name, value in (
            ("cell size", self.cell_size),
            ("pressure floor", self.pressure_floor),
        ):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        # Coordinates reach +-180 and are floored after dividing by the cell
        # size; indexes below 1e100 keep region file names under 255 bytes.
        if not 180.0 / self.cell_size < 1e100:
            raise ConfigError(f"cell size {self.cell_size} is too small to grid")
        for name, count in (
            ("window length", self.window_len),
            ("max episode length", self.max_len),
            ("min support", self.min_support),
        ):
            if count < 1:
                raise ConfigError(f"{name} must be >= 1, got {count}")
        for name, seconds in (
            ("delta", self.delta_s),
            ("win_a", self.win_a_s),
            ("win_c", self.win_c_s),
            ("lag", self.lag_s),
        ):
            if seconds is not None and not 0 <= seconds < _MAX_SECONDS:
                raise ConfigError(
                    f"{name} must be in [0, {_MAX_SECONDS:.0f}) seconds, got {seconds}"
                )
        if not 1 <= self.k <= sys.maxsize:
            raise ConfigError(f"class count must be in [1, {sys.maxsize}], got {self.k}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")

    @property
    def windows(self) -> ep.Windows:
        lag_s = self.lag_s if self.lag_s is not None else self.delta_s
        return tuple(timedelta(seconds=s) for s in (self.win_a_s, self.win_c_s, lag_s))


class RunResult(NamedTuple):
    report: adv.ReportTable
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


# --- the output tree -------------------------------------------------------

_REPORT_FILES = ("report.jsonl", "report.txt")
_REGION_KINDS = ("records", "rules", "index", "confidence")  # the last two are plots


def _region_files(region: str, write_plots: bool) -> list[str]:
    """The names run() writes for one region, in writing order."""
    kinds = _REGION_KINDS if write_plots else _REGION_KINDS[:2]
    return [f"{kind}_{region}.csv" for kind in kinds]


# The names run() writes, and so the only names it replaces or removes.
_OUTPUT_NAME = re.compile(
    "|".join([rf"(?:{'|'.join(_REGION_KINDS)})_.*\.csv", *map(re.escape, _REPORT_FILES)])
)


def _outputs_in(directory: Path, remove: bool = False) -> list[str] | None:
    """The names in an output tree, or None when nothing is at directory.

    Raises OSError unless directory is a directory, not a symlink, that
    holds only regular files with output names: anything else is not
    oceanmine's to replace or remove.  With remove, the names are then
    unlinked through the fd they were listed through, so nothing put in
    the directory's place meanwhile is reached, and the directory goes.
    """
    try:
        if stat.S_ISLNK(os.lstat(directory).st_mode):
            raise OSError(errno.ELOOP, "output directory is a symlink", str(directory))
    except FileNotFoundError:
        return None
    # Refuses a non-directory, and a symlink put in place since the lstat.
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
    try:
        names = []
        with os.scandir(fd) as entries:
            for entry in entries:
                path = os.path.join(directory, entry.name)
                # A symlink could point outside the directory.
                if not entry.is_file(follow_symlinks=False):
                    code = errno.EISDIR if entry.is_dir(follow_symlinks=False) else errno.EEXIST
                    raise OSError(code, os.strerror(code), path)
                if not _OUTPUT_NAME.fullmatch(entry.name):
                    raise OSError(errno.EEXIST, "not an oceanmine output", path)
                names.append(entry.name)
        if remove:
            for name in names:
                os.unlink(name, dir_fd=fd)
    finally:
        os.close(fd)
    if remove:
        os.rmdir(directory)
    return names


def _swap(staging: Path, out_dir: Path, aside: Path) -> None:
    """Put the staged tree in out_dir's place and remove the old tree."""
    _outputs_in(aside, remove=True)  # left by a killed run
    had_old = _outputs_in(out_dir) is not None
    if had_old:
        os.rename(out_dir, aside)
    try:
        os.rename(staging, out_dir)
    except OSError:
        if had_old:
            os.rename(aside, out_dir)
        raise
    _outputs_in(aside, remove=True)


@contextlib.contextmanager
def _claimed(out_dir: Path) -> Iterator[int | None]:
    """Make out_dir's missing parents, and hold out_dir's lock meanwhile.

    The lock is an flock on the sibling file `.<name>.oceanmine-lock`.
    Yields its fd, or None where fcntl is missing and runs go unlocked.
    While another run holds it, raises OSError naming out_dir and leaves
    the file alone; else the file goes on leaving, and if anything
    failed, so do the parents made here (rmdir keeps a filled one).
    """
    created = []  # deepest first
    parent = out_dir.parent
    while not os.path.lexists(parent):
        created.append(parent)
        parent = parent.parent
    lock_path = out_dir.with_name(f".{out_dir.name}.oceanmine-lock")
    lock = None  # an fd on the file at lock_path, which is then this run's
    try:
        try:
            if created:
                os.makedirs(created[0], exist_ok=True)
            if fcntl is not None:
                lock = os.open(lock_path, os.O_RDWR | os.O_CREAT | os.O_NOFOLLOW, 0o666)
                try:
                    fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    # A run removes the file before it unlocks: a lock taken
                    # on a removed file locks nothing.
                    held = os.path.samestat(os.fstat(lock), os.lstat(lock_path))
                except (BlockingIOError, FileNotFoundError):
                    held = False
                except OSError as e:  # flock names no file
                    raise OSError(e.errno, e.strerror, str(lock_path)) from None
                if not held:  # the file is the holder's to remove
                    os.close(lock)
                    lock = None
                    busy = "another run is writing this output directory"
                    raise OSError(errno.EBUSY, busy, str(out_dir))
            yield lock
        finally:
            if lock is not None:
                with contextlib.suppress(OSError):
                    os.unlink(lock_path)
                os.close(lock)
    except BaseException:
        for path in created:
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


# --- creating the files ahead of the writes -------------------------------


def _single_threaded() -> bool:
    """Whether this process has one thread, counted as os.fork counts them."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        import threading

        return threading.active_count() == 1


def _create_empty(directory: Path, names: list[str], parent: int) -> None:
    """Create each name in directory as an empty file, unless it exists.

    Never truncates or writes, so a file the parent has written keeps
    its text.  Stops once the parent, whose pid is parent, has exited.
    """
    dir_fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for name in names:
            if os.getppid() != parent:
                return
            flags = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW
            os.close(os.open(name, flags, 0o666, dir_fd=dir_fd))
    finally:
        os.close(dir_fd)


def _start_creating(directory: Path, names: list[str], lock: int | None) -> int | None:
    """Fork a helper that creates names in directory; its pid, or None.

    The helper closes its copy of the fd lock, so that the lock goes
    with the run that holds it.  No helper is started where os.fork is
    missing or fails, while other threads run, which a fork could
    deadlock, or while SIGCHLD is ignored, which reaps children before
    they can be killed and waited for.
    """
    if (
        not hasattr(os, "fork")
        or signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN
        or not _single_threaded()
    ):
        return None
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        try:
            if lock is not None:
                os.close(lock)
            _create_empty(directory, names, parent)
        finally:
            os._exit(0)
    return pid


def _stop(helper: int | None) -> None:
    """Kill and reap the helper, so that it creates nothing more."""
    if helper is not None:
        os.kill(helper, signal.SIGKILL)
        os.waitpid(helper, 0)


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
            advisories += adv.detect_fishing_zone(curve, config.theta, rule=top_rule)
        del events  # the region's largest structure: not held through the writes
        row = adv.RegionSummary(
            region=seg.region, status=adv.STATUS_OK, sample_count=len(samples),
            skipped=series.skipped, first_seen=first_seen, last_seen=last_seen,
            avg_min=band.avg_min, avg_max=band.avg_max, window_len=config.window_len,
            top_rule=top_rule, top_confidence=top_confidence,
            advisories=adv.in_report_order(advisories),
        )
    names = iter(_region_files(seg.region, config.write_plots))
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

    # All inputs must be present and readable before any work starts.
    for path in config.inputs:
        if Path(path).is_file():
            continue
        if os.path.exists(path):
            raise OSError(f"input is not a regular file: {path}")
        raise FileNotFoundError(f"input file not found: {path}")

    out_dir = Path(os.path.abspath(config.out_dir))  # "." has no name or sibling
    if not out_dir.name:
        raise OSError(errno.EBUSY, "cannot replace the root directory", str(out_dir))
    staging = out_dir.with_name(f".{out_dir.name}.oceanmine-staging")
    aside = out_dir.with_name(f".{out_dir.name}.oceanmine-old")

    def write(name: str, text: str) -> None:
        (staging / name).write_text(text, encoding="ascii", newline="")

    with _claimed(out_dir) as lock:
        # So must the output tree be replaceable, and any leftover of a killed run.
        if _outputs_in(out_dir) is not None and os.path.samefile(out_dir, os.curdir):
            # renamed aside, it would leave the caller in a removed directory
            raise OSError(errno.EBUSY, "cannot replace the working directory", str(out_dir))
        _outputs_in(staging)
        _outputs_in(aside)

        segments, rejected_blocks = _segments(config, cal)
        names = [
            name
            for seg in segments
            for name in _region_files(seg.region, config.write_plots)
        ]
        names += _REPORT_FILES
        try:
            _outputs_in(staging, remove=True)  # left by a killed run
            staging.mkdir()
            helper = _start_creating(staging, names, lock)
            try:
                # Each region's files go to disk once it is analysed, the report last.
                summaries = [_analyse(seg, config, write) for seg in segments]
                if all(row.status == adv.STATUS_REJECTED for row in summaries):
                    raise DataError("every region failed the pressure floor", stage="index")
                report = adv.compose_report(summaries, max(r.last_seen for r in summaries))
                jsonl = staging / _REPORT_FILES[0]
                with jsonl.open("w", encoding="ascii", newline="") as f:
                    adv.report_jsonl(report, f)
                write(_REPORT_FILES[1], adv.report_text(report))
            finally:
                _stop(helper)
            _swap(staging, out_dir, aside)
        except BaseException:
            # Everything here was named by this run.
            with contextlib.suppress(OSError):
                _outputs_in(staging, remove=True)
            raise

    return RunResult(report, rejected_blocks)
