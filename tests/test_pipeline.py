"""End-to-end pipeline and CLI behaviour.

The bundled sample dump drives most of these: one float, three days,
a morning deep profile and an afternoon shallow profile per day, plus
one zero-pressure record that the index stage must skip.
"""

import errno
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import weakref
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oceanmine import advisories, pipeline, regions
from oceanmine.cli import EXIT_CONFIG, EXIT_DATA, EXIT_IO, EXIT_OK, main
from oceanmine.decoder import ProfileRecord
from oceanmine.errors import AllSamplesRejected, ConfigError, DataError
from oceanmine.pipeline import (
    PipelineConfig,
    index_csv,
    records_csv,
    run,
)
from oceanmine.oscillation import IndexSample
from oceanmine.telemetry import HeaderFields, MessageBlock, parse_file

from conftest import REPO_ROOT
from helpers import payload_of, quantize, render_stream, words_of
from oracles import at

SAMPLE_REGION = "02602_0_76"

NUMERIC_FLAGS = (
    "--cell-size", "--pressure-floor", "--window-len", "--delta", "--k",
    "--max-len", "--win-a", "--win-c", "--lag", "--min-support", "--theta",
)


def load_records(path):
    """Read a records CSV back; inverse of records_csv.

    Returns the region names column and the records.
    """
    regions = []
    records = []
    lines = Path(path).read_text(encoding="ascii").splitlines()
    for line in lines[1:]:
        region, ts, level, t, s, p = line.split(",")
        regions.append(region)
        records.append(
            ProfileRecord(
                observed_at=datetime.fromisoformat(ts),
                level=int(level),
                temperature=float(t),
                salinity=float(s),
                pressure=float(p),
            )
        )
    return regions, records


def config_for(sample_path, out_dir, **kw):
    return PipelineConfig(inputs=[Path(sample_path)], out_dir=Path(out_dir), **kw)


def header(platform, lat, lon, when):
    return HeaderFields(platform_id=platform, observed_at=when, latitude=lat, longitude=lon)


def block_of(header, triples):
    """A block whose payload carries (temperature, salinity, pressure) triples."""
    words = []
    for t, s, p in triples:
        words += [
            quantize(t, "temperature"),
            quantize(s, "salinity"),
            quantize(p, "pressure"),
        ]
    return MessageBlock(header=header, payload=payload_of(words), source_line_span=(1, 1))


class TestCsvRoundTrips:
    def test_records_csv_inverts(self, tmp_path):
        records = [
            ProfileRecord(
                observed_at=datetime(2003, 1, 10, 11, 50, 18),
                level=1,
                temperature=13.725,
                salinity=35.134,
                pressure=199.5,
            ),
            ProfileRecord(
                observed_at=datetime(2003, 1, 10, 11, 50, 18),
                level=2,
                temperature=-1.5,
                salinity=34.0,
                pressure=0.0,
            ),
        ]
        path = tmp_path / "records.csv"
        path.write_text(records_csv(records, "02602_-3_-77"), encoding="ascii")
        assert load_records(path) == (["02602_-3_-77"] * 2, records)

    def test_index_csv_floats_survive(self, tmp_path):
        samples = [
            IndexSample(at(0), 1.3935828853874582),
            IndexSample(at(60), -2157.041498739139),
            IndexSample(at(120), 1e-17),
        ]
        lines = index_csv(samples).splitlines()[1:]
        for sample, line in zip(samples, lines):
            _, printed = line.split(",")
            assert float(printed) == sample.n_value


class TestRunOnSample:
    def test_frozen_outcome(self, sample_path, tmp_path):
        result = run(config_for(sample_path, tmp_path / "out"))
        assert result.rejected_blocks == 0
        (row,) = result.report.rows
        assert row.sample_count + row.skipped == 31  # the CLI's record count
        assert row.region == SAMPLE_REGION
        assert row.status == "ok"
        assert row.sample_count == 30
        assert row.skipped == 1
        assert row.top_rule == "MID=>LOW"
        assert row.top_confidence == 1.0
        waves = [a for a in row.advisories if a.kind == "strong_wave"]
        zones = [a for a in row.advisories if a.kind == "fishing_zone"]
        assert len(waves) == 3
        assert len(zones) == 13
        assert result.report.generated_at == datetime(2003, 1, 12, 15, 31, 10)

    def test_advisories_in_report_order(self, sample_path, tmp_path):
        # _analyse sorts each row's advisories once, by time, kind and rule
        result = run(config_for(sample_path, tmp_path / "out"))
        (row,) = result.report.rows
        keys = [(a.at, a.kind, a.rule or "") for a in row.advisories]
        assert len(keys) == 16
        assert {a.kind for a in row.advisories} == {"strong_wave", "fishing_zone"}
        assert keys == sorted(keys)

    def test_output_tree(self, sample_path, tmp_path):
        out = tmp_path / "out"
        run(config_for(sample_path, out))
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            f"confidence_{SAMPLE_REGION}.csv",
            f"index_{SAMPLE_REGION}.csv",
            f"records_{SAMPLE_REGION}.csv",
            "report.jsonl",
            "report.txt",
            f"rules_{SAMPLE_REGION}.csv",
        ]
        records = (out / f"records_{SAMPLE_REGION}.csv").read_text(encoding="ascii")
        assert len(records.splitlines()) == 1 + 31
        rules = (out / f"rules_{SAMPLE_REGION}.csv").read_text(encoding="ascii")
        assert len(rules.splitlines()) == 1 + 35
        assert rules.splitlines()[1] == "MID,LOW,0,0,14400,3,1"

    def test_slotted_report_rows_render_unchanged(self, sample_path, tmp_path):
        # the report types keep no per-instance __dict__; report.jsonl reads
        # their declared fields and its bytes stay as before
        out = tmp_path / "out"
        result = run(config_for(sample_path, out))
        (row,) = result.report.rows
        for obj in (row, *row.advisories):
            assert not hasattr(obj, "__dict__")
        assert hashlib.sha256((out / "report.jsonl").read_bytes()).hexdigest() == (
            "30c3677896c2f27dda0e09c8848ea4a74e1902918ed03ab41ff2873953457d2a"
        )

    def test_rerun_is_byte_identical(self, sample_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(config_for(sample_path, out_a))
        run(config_for(sample_path, out_b))
        for pa in sorted(out_a.iterdir()):
            assert pa.read_bytes() == (out_b / pa.name).read_bytes()

    def test_region_key_once_per_block(self, sample_path, tmp_path, monkeypatch):
        keyed = []
        key_of = regions.region_key_of

        def counted(header, cell_size):
            keyed.append(header)
            return key_of(header, cell_size)

        monkeypatch.setattr(regions, "region_key_of", counted)
        result = run(config_for(sample_path, tmp_path / "out"))
        blocks = parse_file(sample_path)
        assert all(b.payload for b in blocks)
        assert keyed == [b.header for b in blocks]
        assert sum(r.sample_count + r.skipped for r in result.report.rows) > len(blocks)

    def test_no_plots_drops_plot_csvs(self, sample_path, tmp_path):
        out = tmp_path / "out"
        run(config_for(sample_path, out, write_plots=False))
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            f"records_{SAMPLE_REGION}.csv",
            "report.jsonl",
            "report.txt",
            f"rules_{SAMPLE_REGION}.csv",
        ]

    def test_calibration_file_shifts_values(self, sample_path, tmp_path):
        cal = tmp_path / "cal.txt"
        cal.write_text(
            "# bench unit B\ntemp_offset = -4.0\npres_resolution = 0.2\n",
            encoding="ascii",
        )
        out = tmp_path / "out"
        run(config_for(sample_path, out, calibration_path=cal))
        _, records = load_records(out / f"records_{SAMPLE_REGION}.csv")
        baseline_out = tmp_path / "base"
        run(config_for(sample_path, baseline_out))
        _, baseline = load_records(baseline_out / f"records_{SAMPLE_REGION}.csv")
        for got, plain in zip(records, baseline):
            assert got.temperature == pytest.approx(plain.temperature + 1.0)
            assert got.pressure == pytest.approx(plain.pressure * 2.0)


    def test_runs_in_one_process_match_fresh_processes(self, sample_path, tmp_path):
        # decoding memoises per run, so a second calibration in the same
        # process must not see the first one's values
        cals = []
        for name, text in (("a", "temp_offset = -4.0\n"), ("b", "pres_resolution = 0.2\n")):
            cal = tmp_path / f"cal_{name}.txt"
            cal.write_text(text, encoding="ascii")
            cals.append(cal)
        for cal in cals:
            run(config_for(sample_path, tmp_path / f"in_{cal.stem}", calibration_path=cal))
        for cal in cals:
            fresh = tmp_path / f"fresh_{cal.stem}"
            proc = subprocess.run(
                [sys.executable, "-m", "oceanmine", str(sample_path),
                 "--out-dir", str(fresh), "--calibration", str(cal)],
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            assert tree_digest(tmp_path / f"in_{cal.stem}") == tree_digest(fresh)
        assert tree_digest(tmp_path / "in_cal_a") != tree_digest(tmp_path / "in_cal_b")

    def test_edge_of_the_decodable_range_keeps_the_index_finite(self, sample_path, tmp_path):
        # The range bound keeps |T| and |S| below 1e25, so T**2 and S*T in
        # the index stay near 1e50 at most: every index value is finite and
        # the report is strict JSON.  A bound of "finite" alone would let an
        # offset of 1e200 through, and T**2 would write -inf.
        cal = tmp_path / "cal.txt"
        cal.write_text(
            "temp_offset = 9.99e24\nsal_offset = -9.99e24\npres_offset = 9.9e26\n",
            encoding="ascii",
        )
        out = tmp_path / "out"
        run(config_for(sample_path, out, calibration_path=cal))
        lines = (out / f"index_{SAMPLE_REGION}.csv").read_text(encoding="ascii").splitlines()
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values and all(math.isfinite(v) and abs(v) > 1e40 for v in values)

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        for line in (out / "report.jsonl").read_text(encoding="ascii").splitlines():
            json.loads(line, parse_constant=refuse)


class TestFailureModes:
    def test_missing_input_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            run(config_for(tmp_path / "nope.txt", out))
        assert not out.exists()

    def test_directory_input_is_not_reported_missing(self, tmp_path, capsys):
        # An input that exists but is not a regular file is named as such,
        # with the I/O exit code, and nothing is written.
        out = tmp_path / "out"
        with pytest.raises(OSError, match="input is not a regular file") as err:
            run(config_for(tmp_path, out))
        assert not isinstance(err.value, FileNotFoundError)
        assert main([str(tmp_path), "--out-dir", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"oceanmine: io error: input is not a regular file: {tmp_path}\n"
        )
        assert not out.exists()

    def test_malformed_input_writes_nothing(self, sample_path, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            Path(sample_path).read_text(encoding="ascii") + "aa bb zz\n",
            encoding="ascii",
        )
        old = tmp_path / "old"
        run(config_for(sample_path, old))
        before = snapshot(old)
        # After a good input, the bad one fails while segment reads the blocks.
        for inputs in ([bad], [Path(sample_path), bad]):
            for out in (tmp_path / "fresh", old):
                with pytest.raises(DataError) as info:
                    run(PipelineConfig(inputs=inputs, out_dir=out))
                assert info.value.stage == f"parse {bad}"
                assert leftovers(out) == []
            assert not (tmp_path / "fresh").exists()
            assert snapshot(old) == before

    def test_invalid_config_rejected_early(self, sample_path, tmp_path):
        out = tmp_path / "out"
        for field, value in [
            ("theta", 0.0),
            ("cell_size", -1.0),
            ("window_len", 0),
            ("k", 0),
            ("min_support", 0),
            ("pressure_floor", 0.0),
            ("delta_s", -5.0),
            ("cell_size", float("nan")),
            ("cell_size", 5e-324),
            ("pressure_floor", float("inf")),
            ("delta_s", float("nan")),
            ("delta_s", float("inf")),
            ("win_a_s", float("inf")),
            ("win_c_s", float("nan")),
            ("lag_s", float("nan")),
            ("lag_s", 1e300),
            ("lag_s", 86400e9),
            ("k", sys.maxsize + 1),
            ("theta", -0.1),
            ("theta", 1.0001),
            ("theta", 2.0),
            ("max_len", 0),
            ("win_a_s", -1.0),
            ("win_c_s", -1.0),
            ("lag_s", -1.0),
            ("cell_size", 0.0),
            ("cell_size", 1e-300),  # cell indexes too long for file names
            ("pressure_floor", -1.0),
        ]:
            with pytest.raises(ConfigError):
                run(config_for(sample_path, out, **{field: value}))
        with pytest.raises(ConfigError, match="at least one input file is required"):
            run(config_for(sample_path, out)._replace(inputs=[]))
        assert not out.exists()

    def test_unwritable_target_writes_nothing(self, sample_path, tmp_path):
        out = tmp_path / "out"
        (out / "report.txt").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            run(config_for(sample_path, out))
        assert [p.name for p in out.iterdir()] == ["report.txt"]
        assert not any((out / "report.txt").iterdir())

    def test_symlinked_target_writes_nothing(self, sample_path, tmp_path, capsys):
        # a link at an output name would write wherever it points
        victim = tmp_path / "victim.txt"
        victim.write_text("keep\n", encoding="ascii")
        for link_to in ("../nowhere", "../victim.txt"):
            out = tmp_path / f"out_{link_to[3:]}"
            out.mkdir()
            (out / "report.txt").symlink_to(link_to)
            code = main([str(sample_path), "--out-dir", str(out)])
            assert code == EXIT_IO, link_to
            assert "io error" in capsys.readouterr().err, link_to
            assert [p.name for p in out.iterdir()] == ["report.txt"], link_to
            assert (out / "report.txt").is_symlink(), link_to
        assert not (tmp_path / "nowhere").exists()
        assert victim.read_text(encoding="ascii") == "keep\n"

    def test_data_error_stage_defaults_to_data(self):
        assert DataError("x").stage == "data"
        assert AllSamplesRejected("x", stage="index").stage == "index"

    def test_every_region_rejected(self, sample_path, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(DataError, match="every region failed the pressure floor") as info:
            run(config_for(sample_path, out, pressure_floor=1e6))
        # a plain DataError: AllSamplesRejected marks one region only
        assert type(info.value) is DataError
        assert info.value.stage == "index"
        assert not out.exists()

    def test_dead_region_reported_alongside_live_one(self, tmp_path):
        live = block_of(
            header("11111", 0.7, 76.5, datetime(2003, 1, 10, 12, 0, 0)),
            [(20.0, 35.0, 100.0), (19.0, 35.1, 150.0)],
        )
        dead = block_of(
            header("09999", 10.5, -40.2, datetime(2003, 1, 10, 13, 0, 0)),
            [(20.0, 35.0, 0.0), (21.0, 35.2, 0.0)],
        )
        src = tmp_path / "two_floats.txt"
        src.write_text(render_stream([live, dead]), encoding="ascii")
        out = tmp_path / "out"
        result = run(config_for(src, out))
        by_region = {row.region: row for row in result.report.rows}
        assert by_region["09999_10_-41"].status == "all-samples-rejected"
        assert by_region["09999_10_-41"].skipped == 2
        assert by_region["11111_0_76"].status == "ok"
        # a dead region still gets its records and an empty rules file
        assert (out / "records_09999_10_-41.csv").exists()
        rules = (out / "rules_09999_10_-41.csv").read_text(encoding="ascii")
        assert rules.splitlines() == [
            "antecedent,consequent,win_a_s,win_c_s,lag_s,support,confidence"
        ]

    def test_rejected_region_json_row(self, sample_path, tmp_path):
        # the sample plus a second float whose pressure words are all 0
        dead = block_of(
            header("09999", 10.5, -40.2, datetime(2003, 1, 10, 13, 0, 0)),
            [(20.0, 35.0, 0.0), (21.0, 35.2, 0.0)],
        )
        assert words_of(dead)[2::3] == [0, 0]
        src = tmp_path / "sample_and_dead.txt"
        src.write_text(
            Path(sample_path).read_text(encoding="ascii") + render_stream([dead]),
            encoding="ascii",
        )
        out = tmp_path / "out"
        run(config_for(src, out))
        lines = (out / "report.jsonl").read_text(encoding="ascii").splitlines()
        head, *rows = map(json.loads, lines)
        assert set(head) == {"generated_at", "regions"}
        assert head["regions"] == len(rows) == 2
        by_region = {row["region"]: row for row in rows}
        dead_row = by_region["09999_10_-41"]
        assert dead_row["status"] == "all-samples-rejected"
        for key in ("avg_min", "avg_max", "window_len", "top_rule", "top_confidence"):
            assert dead_row[key] is None
        assert dead_row["advisories"] == []
        assert by_region[SAMPLE_REGION]["advisories"]
        for row in rows:
            assert set(row) == {
                "region", "status", "sample_count", "skipped", "first_seen",
                "last_seen", "avg_min", "avg_max", "window_len", "top_rule",
                "top_confidence", "advisories",
            }
            for a in row["advisories"]:
                assert set(a) == {"kind", "at", "value", "threshold", "rule"}


def two_region_stream():
    """A live float and a float whose every record is at zero pressure."""
    live = block_of(
        header("11111", 0.7, 76.5, datetime(2003, 1, 10, 12, 0, 0)),
        [(20.0, 35.0, 100.0), (19.0, 35.1, 150.0)],
    )
    dead = block_of(
        header("09999", 10.5, -40.2, datetime(2003, 1, 10, 13, 0, 0)),
        [(20.0, 35.0, 0.0), (21.0, 35.2, 0.0)],
    )
    return render_stream([live, dead])


def snapshot(directory):
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def record_writes(monkeypatch, fail_at=None):
    """Log every written file: each Path.write_text target, and the stream
    report.jsonl is written to.  The fail_at-th write finds the disk full.
    """
    written = []
    write_text = Path.write_text
    report_jsonl = advisories.report_jsonl

    def logged(path):
        written.append(path)
        if len(written) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

    def recorded(path, *args, **kwargs):
        logged(path)
        return write_text(path, *args, **kwargs)

    def streamed(table, out):
        logged(Path(out.name))
        return report_jsonl(table, out)

    monkeypatch.setattr(Path, "write_text", recorded)
    monkeypatch.setattr(advisories, "report_jsonl", streamed)
    return written


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers run() forks; os.fork itself still runs."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_nothing_left(out):
    """No helper outlives the run, and no staging directory is left."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not out.with_name(f".{out.name}.oceanmine-staging").exists()


def leftovers(out):
    """The staging and aside directories oceanmine names next to out."""
    return [
        p
        for p in (
            out.with_name(f".{out.name}.oceanmine-staging"),
            out.with_name(f".{out.name}.oceanmine-old"),
        )
        if p.exists()
    ]


class TestOutputTree:
    """The output directory ends as exactly one run's files, or as it was."""

    def test_stale_rerun_leaves_exactly_this_runs_files(self, sample_path, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run(config_for(sample_path, out, cell_size=0.01))
        assert len(snapshot(out)) == 26  # six regions, none of them the default's
        run(config_for(sample_path, out))
        run(config_for(sample_path, fresh))
        assert snapshot(out) == snapshot(fresh)
        assert len(snapshot(out)) == 6
        assert leftovers(out) == []

    def test_failed_write_leaves_earlier_tree(
        self, sample_path, tmp_path, monkeypatch, forks
    ):
        out = tmp_path / "out"
        run(config_for(sample_path, out))
        before = snapshot(out)
        written = record_writes(monkeypatch, fail_at=3)
        with pytest.raises(OSError) as info:
            run(config_for(sample_path, out, cell_size=0.5, k=5))
        assert info.value.errno == errno.ENOSPC
        assert len(written) == 3
        assert snapshot(out) == before
        assert leftovers(out) == []
        assert len(forks) == 2
        assert_nothing_left(out)

    def test_failed_swap_puts_the_old_tree_back(self, sample_path, tmp_path, monkeypatch):
        # The staged tree cannot take out_dir's place once the old tree is
        # renamed aside: the old tree goes back, and nothing else is left.
        out = tmp_path / "out"
        run(config_for(sample_path, out))
        before = snapshot(out)
        renames = []
        rename = os.rename

        def failing(src, dst):
            renames.append((Path(src).name, Path(dst).name))
            if Path(src).name == ".out.oceanmine-staging":
                raise OSError(errno.EIO, os.strerror(errno.EIO), str(src))
            rename(src, dst)

        monkeypatch.setattr(os, "rename", failing)
        with pytest.raises(OSError) as info:
            run(config_for(sample_path, out, cell_size=0.5))
        assert info.value.errno == errno.EIO
        assert renames == [
            ("out", ".out.oceanmine-old"),
            (".out.oceanmine-staging", "out"),
            (".out.oceanmine-old", "out"),
        ]
        assert snapshot(out) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert_nothing_left(out)

    def test_foreign_file_is_refused(self, sample_path, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("mine\n", encoding="ascii")
        (out / "report.txt").write_text("old\n", encoding="ascii")
        before = snapshot(out)
        assert main([str(sample_path), "--out-dir", str(out)]) == EXIT_IO
        assert "notes.txt" in capsys.readouterr().err
        assert snapshot(out) == before
        assert leftovers(out) == []

    @pytest.mark.parametrize("holding", [[], ["report.txt"]])
    def test_symlinked_out_dir_is_refused(self, sample_path, tmp_path, capsys, holding):
        target = tmp_path / "target"
        target.mkdir()
        for name in holding:
            (target / name).write_text("old\n", encoding="ascii")
        out = tmp_path / "out"
        out.symlink_to(target)
        assert main([str(sample_path), "--out-dir", str(out)]) == EXIT_IO
        assert "symlink" in capsys.readouterr().err
        assert out.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "target"]
        assert snapshot(target) == {name: b"old\n" for name in holding}

    def test_out_dir_that_is_a_file_is_refused(self, sample_path, tmp_path):
        out = tmp_path / "out"
        out.write_text("keep\n", encoding="ascii")
        with pytest.raises(NotADirectoryError):
            run(config_for(sample_path, out))
        assert out.read_text(encoding="ascii") == "keep\n"
        assert leftovers(out) == []

    def test_working_directory_is_not_replaced(self, sample_path, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        monkeypatch.chdir(out)
        for spelling in (".", str(out)):
            with pytest.raises(OSError, match="working directory"):
                run(config_for(sample_path, spelling))
        assert list(out.iterdir()) == []
        assert leftovers(out) == []

    def test_root_directory_is_not_replaced(self, sample_path, capsys):
        # The root has no name, so no sibling staging, aside or lock file.
        assert main([str(sample_path), "--out-dir", "/"]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"oceanmine: io error: [Errno {errno.EBUSY}] cannot replace the root directory: '/'\n"
        )

    @pytest.mark.parametrize("suffix", ["staging", "old"])
    def test_leftover_of_a_killed_run_is_removed(self, sample_path, tmp_path, suffix):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        leftover = tmp_path / f".out.oceanmine-{suffix}"
        leftover.mkdir()
        for name in ("records_x.csv", "report.jsonl"):
            (leftover / name).write_text("partial\n", encoding="ascii")
        run(config_for(sample_path, out))
        run(config_for(sample_path, fresh))
        assert leftovers(out) == []
        assert snapshot(out) == snapshot(fresh)

    @pytest.mark.parametrize("suffix", ["staging", "old"])
    def test_leftover_with_foreign_name_is_refused(self, sample_path, tmp_path, suffix):
        out = tmp_path / "out"
        leftover = tmp_path / f".out.oceanmine-{suffix}"
        leftover.mkdir()
        (leftover / "notes.txt").write_text("mine\n", encoding="ascii")
        with pytest.raises(OSError):
            run(config_for(sample_path, out))
        assert not out.exists()
        assert snapshot(leftover) == {"notes.txt": b"mine\n"}

    def test_every_region_rejected_removes_staging(
        self, sample_path, tmp_path, monkeypatch, forks
    ):
        # The run fails after its region files were staged, in place of a
        # leftover staging directory; neither the output nor the staging
        # directory is left.
        out = tmp_path / "out"
        staging = tmp_path / ".out.oceanmine-staging"
        staging.mkdir()
        written = record_writes(monkeypatch)
        with pytest.raises(DataError, match="every region failed the pressure floor") as info:
            run(config_for(sample_path, out, pressure_floor=1e6))
        assert type(info.value) is DataError
        assert [p.parent for p in written] == [staging] * 4
        assert list(tmp_path.iterdir()) == []
        assert len(forks) == 1
        assert_nothing_left(out)

    def test_missing_parents_removed_after_failure(self, sample_path, tmp_path):
        out = tmp_path / "a" / "b" / "out"
        with pytest.raises(DataError, match="every region failed the pressure floor") as info:
            run(config_for(sample_path, out, pressure_floor=1e6))
        assert type(info.value) is DataError
        assert list(tmp_path.iterdir()) == []
        run(config_for(sample_path, out))
        assert len(snapshot(out)) == 6
        assert leftovers(out) == []

    def test_each_region_is_written_once_analysed(self, tmp_path, monkeypatch):
        src = tmp_path / "two_floats.txt"
        src.write_text(two_region_stream(), encoding="ascii")
        written = record_writes(monkeypatch)
        calls = []
        compute_series = pipeline.compute_series

        def recorded_series(seg, floor):
            calls.append((len(written), seg.region))
            return compute_series(seg, floor)

        monkeypatch.setattr(pipeline, "compute_series", recorded_series)
        run(config_for(src, tmp_path / "out"))
        names = [p.name for p in written]
        # region 1's records are on disk before region 2 is indexed
        (_, first), (writes_before_second, second) = calls
        assert (first, second) == ("09999_10_-41", "11111_0_76")
        assert f"records_{first}.csv" in names[:writes_before_second]
        assert f"records_{second}.csv" not in names[:writes_before_second]
        # the report follows every region file
        assert len(names) == 10
        assert names[-2:] == ["report.jsonl", "report.txt"]

    def test_segments_writes_and_report_share_the_name_order(self, tmp_path, monkeypatch):
        # One float in lat cells 9 and 10: by name, "11111_10_76" comes first.
        src = tmp_path / "two_cells.txt"
        src.write_text(
            render_stream(
                block_of(header("11111", lat, 76.5, datetime(2003, 1, 10, hour)),
                         [(20.0, 35.0, 100.0), (19.0, 35.1, 150.0)])
                for lat, hour in ((9.5, 12), (10.5, 13))
            ),
            encoding="ascii",
        )
        segmented = []
        segment = pipeline.segment

        def recorded_segment(blocks, cell_size):
            segs = segment(blocks, cell_size)
            segmented.extend(seg.region for seg in segs)
            return segs

        monkeypatch.setattr(pipeline, "segment", recorded_segment)
        written = record_writes(monkeypatch)
        result = run(config_for(src, tmp_path / "out"))
        order = ["11111_10_76", "11111_9_76"]
        assert segmented == order
        kinds = ("records", "rules", "index", "confidence")
        assert [p.name for p in written] == [
            f"{kind}_{region}.csv" for region in order for kind in kinds
        ] + ["report.jsonl", "report.txt"]
        assert [row.region for row in result.report.rows] == order

    def test_removal_goes_through_the_checked_directory(self, tmp_path, monkeypatch):
        # A symlink put in the checked directory's place between the scan
        # and the unlinks leads nowhere: the files behind it stay.
        aside = tmp_path / ".out.oceanmine-old"
        moved, victim = tmp_path / "moved", tmp_path / "victim"
        names = ("records_x.csv", "report.txt")
        for directory in (aside, victim):
            directory.mkdir()
            for name in names:
                (directory / name).write_text("keep\n", encoding="ascii")
        unlink = os.unlink

        def swapped(*args, **kwargs):
            if not moved.exists():
                os.rename(aside, moved)
                aside.symlink_to(victim)
            return unlink(*args, **kwargs)

        monkeypatch.setattr(os, "unlink", swapped)
        with pytest.raises(NotADirectoryError):
            pipeline._outputs_in(aside, remove=True)
        assert snapshot(victim) == {name: b"keep\n" for name in names}
        assert snapshot(moved) == {}


# Run A of a pair: the CLI with its helper off, which pauses after its first
# write until told to go on.  argv: the "wrote" and "go" pipe fds, then the
# CLI's arguments.
PAUSED_RUN = (
    "import os, sys\n"
    "from pathlib import Path\n"
    "from oceanmine import pipeline\n"
    "from oceanmine.cli import main\n"
    "wrote, go = map(int, sys.argv[1:3])\n"
    "write_text = Path.write_text\n"
    "def paused(path, *args, **kwargs):\n"
    "    Path.write_text = write_text\n"
    "    written = write_text(path, *args, **kwargs)\n"
    "    os.write(wrote, b'w')\n"
    "    os.read(go, 1)\n"
    "    return written\n"
    "Path.write_text = paused\n"
    "pipeline._start_creating = lambda *args: None\n"
    "sys.exit(main(sys.argv[3:]))\n"
)


# A run that holds an output directory's claim and has started its helper,
# until it is killed.  The helper writes "h" once started, then blocks until
# the "go" pipe is closed and writes "e"; the run writes "c" once the helper
# is started.  argv: the "ready" and "go" pipe fds, then the output directory.
CLAIMING_RUN = (
    "import os, sys\n"
    "from pathlib import Path\n"
    "from oceanmine import pipeline\n"
    "ready, go = map(int, sys.argv[1:3])\n"
    "def blocked(*args):\n"
    "    os.write(ready, b'h')\n"
    "    os.read(go, 1)\n"
    "    os.write(ready, b'e')\n"
    "pipeline._create_empty = blocked\n"
    "out = Path(sys.argv[3])\n"
    "with pipeline._claimed(out) as lock:\n"
    "    assert pipeline._start_creating(out.parent, ['report.txt'], lock)\n"
    "    os.write(ready, b'c')\n"
    "    os.read(go, 1)\n"
)


class TestOneRunPerOutDir:
    """While one run holds an output directory, another into it fails at once."""

    def test_second_run_is_refused_and_touches_nothing(self, sample_path, tmp_path, capsys):
        out, solo = tmp_path / "out", tmp_path / "solo"
        staging = tmp_path / ".out.oceanmine-staging"
        wrote_r, wrote_w = os.pipe()
        go_r, go_w = os.pipe()
        run_a = subprocess.Popen(
            [sys.executable, "-c", PAUSED_RUN, str(wrote_w), str(go_r),
             str(sample_path), "--out-dir", str(out)],
            pass_fds=(wrote_w, go_r),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        os.close(wrote_w)
        os.close(go_r)
        try:
            # Run A has written its first region file and holds the lock.
            assert os.read(wrote_r, 1) == b"w"
            staged = snapshot(staging)
            assert list(staged) == [f"records_{SAMPLE_REGION}.csv"]
            assert main([str(sample_path), "--out-dir", str(out)]) == EXIT_IO
            assert capsys.readouterr().err == (
                f"oceanmine: io error: [Errno {errno.EBUSY}] another run is "
                f"writing this output directory: '{out}'\n"
            )
            assert snapshot(staging) == staged
            assert not out.exists()
        finally:
            os.close(go_w)  # run A reads end of file and goes on
            stdout, stderr = run_a.communicate(timeout=60)
            os.close(wrote_r)
        assert run_a.returncode == EXIT_OK, stderr
        assert stdout.startswith("oceanmine: 31 records, 1 regions,")
        run(config_for(sample_path, solo))
        assert snapshot(out) == snapshot(solo)
        # the lock file goes with its run
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "solo"]

    def test_lock_goes_with_its_run_not_its_helper(self, tmp_path):
        # A killed run's helper can outlive it by a few creates; the helper
        # closes its copy of the lock's fd, so the lock is free once the run
        # is gone.
        out, lock_path = tmp_path / "out", tmp_path / ".out.oceanmine-lock"
        ready_r, ready_w = os.pipe()
        go_r, go_w = os.pipe()
        run_a = subprocess.Popen(
            [sys.executable, "-c", CLAIMING_RUN, str(ready_w), str(go_r), str(out)],
            pass_fds=(ready_w, go_r),
        )
        os.close(ready_w)
        os.close(go_r)
        try:
            # Run A holds the claim, and its helper is blocked on go.
            assert sorted(os.read(ready_r, 1) + os.read(ready_r, 1)) == sorted(b"ch")
            with pytest.raises(OSError, match="another run"):
                with pipeline._claimed(out):
                    pass
            run_a.send_signal(signal.SIGKILL)
            assert run_a.wait(timeout=60) == -signal.SIGKILL
            assert lock_path.exists()  # left by the killed run
            with pipeline._claimed(out) as lock:
                assert lock is not None
            assert not lock_path.exists()
        finally:
            run_a.kill()
            run_a.wait(timeout=60)
            os.close(go_w)  # the helper reads end of file, writes "e" and exits
            with os.fdopen(ready_r, "rb") as ready:
                rest = ready.read()
        assert rest == b"e"  # the helper lived through the claims above

    def test_failed_lock_is_named_and_leaves_nothing(
        self, sample_path, tmp_path, monkeypatch, capsys
    ):
        # flock on a file system without a lock manager, as on NFS
        def failing(fd, operation):
            raise OSError(errno.ENOLCK, os.strerror(errno.ENOLCK))

        monkeypatch.setattr(pipeline.fcntl, "flock", failing)
        out = tmp_path / "a" / "b" / "out"
        assert main([str(sample_path), "--out-dir", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"oceanmine: io error: [Errno {errno.ENOLCK}] {os.strerror(errno.ENOLCK)}: "
            f"'{out.with_name('.out.oceanmine-lock')}'\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_symlink_at_the_lock_name_is_refused_and_kept(
        self, sample_path, tmp_path, capsys
    ):
        lock_path = tmp_path / ".out.oceanmine-lock"
        lock_path.symlink_to("nowhere")
        out = tmp_path / "out"
        assert main([str(sample_path), "--out-dir", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"oceanmine: io error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: "
            f"'{lock_path}'\n"
        )
        assert os.readlink(lock_path) == "nowhere"
        assert list(tmp_path.iterdir()) == [lock_path]

    def test_without_fcntl_runs_go_unlocked(self, sample_path, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(pipeline, "fcntl", None)
        out = tmp_path / "a" / "out"
        run(config_for(sample_path, out))
        assert tree_digest(out) == SAMPLE_DIGEST
        assert not out.with_name(".out.oceanmine-lock").exists()
        assert list(out.parent.iterdir()) == [out]
        assert len(forks) == 1


SAMPLE_DIGEST = "1103e97faf436de1c5f97ec815035428e247eba3a77e2bb9e50f3bd01fd03119"


class TestCreateAhead:
    """A forked helper creates the run's files early; only the writes fill them."""

    @pytest.mark.parametrize(
        "kw",
        [{}, {"write_plots": False}, {"cell_size": 0.01}],
        ids=["default", "no-plots", "cell-0.01"],
    )
    def test_helper_creates_the_written_names_in_order(
        self, sample_path, tmp_path, monkeypatch, kw
    ):
        started = []
        start = pipeline._start_creating

        def recorded(directory, names, lock):
            started.append(list(names))
            return start(directory, names, lock)

        monkeypatch.setattr(pipeline, "_start_creating", recorded)
        written = record_writes(monkeypatch)
        out = tmp_path / "out"
        run(config_for(sample_path, out, **kw))
        [names] = started
        assert names == [p.name for p in written]
        assert sorted(names) == sorted(snapshot(out))

    def test_successful_run_reaps_its_helper(self, sample_path, tmp_path, forks):
        out = tmp_path / "out"
        run(config_for(sample_path, out))
        assert len(forks) == 1
        assert_nothing_left(out)
        assert tree_digest(out) == SAMPLE_DIGEST

    def test_helper_only_creates(self, tmp_path):
        (tmp_path / "report.txt").write_text("written\n", encoding="ascii")
        pipeline._create_empty(tmp_path, ["records_x.csv", "report.txt"], os.getppid())
        assert snapshot(tmp_path) == {"records_x.csv": b"", "report.txt": b"written\n"}

    def test_helper_stops_once_its_parent_is_gone(self, tmp_path):
        # this process is not its own parent, as an orphaned helper's is not
        pipeline._create_empty(tmp_path, ["records_x.csv"], os.getpid())
        assert list(tmp_path.iterdir()) == []

    def test_a_stuck_helper_is_killed(self, sample_path, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(pipeline, "_create_empty", lambda *args: time.sleep(60))
        out = tmp_path / "out"
        started = time.monotonic()
        run(config_for(sample_path, out))
        assert time.monotonic() - started < 30
        assert len(forks) == 1
        assert_nothing_left(out)
        assert tree_digest(out) == SAMPLE_DIGEST

    @pytest.mark.parametrize("fork", ["failing", "missing"])
    def test_without_a_helper_the_tree_is_the_same(
        self, sample_path, tmp_path, monkeypatch, fork
    ):
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:

            def failing():
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(os, "fork", failing)
        out = tmp_path / "out"
        run(config_for(sample_path, out))
        assert tree_digest(out) == SAMPLE_DIGEST
        assert_nothing_left(out)

    def test_no_helper_while_another_thread_runs(self, sample_path, tmp_path, forks):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run(config_for(sample_path, tmp_path / "out"))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert tree_digest(tmp_path / "out") == SAMPLE_DIGEST

    def test_threads_are_counted_without_proc(
        self, sample_path, tmp_path, monkeypatch, forks
    ):
        # Where /proc/self/task cannot be listed, as on macOS, Python's
        # count of its threads decides.
        asked = []
        listdir = os.listdir

        def no_proc(path="."):
            if path == "/proc/self/task":
                asked.append(path)
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            return listdir(path)

        monkeypatch.setattr(os, "listdir", no_proc)
        run(config_for(sample_path, tmp_path / "alone"))
        assert (len(asked), len(forks)) == (1, 1)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            run(config_for(sample_path, tmp_path / "threaded"))
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert (len(asked), len(forks)) == (2, 1)
        for out in ("alone", "threaded"):
            assert tree_digest(tmp_path / out) == SAMPLE_DIGEST

    def test_no_helper_while_sigchld_is_ignored(self, sample_path, tmp_path, forks):
        # the kernel would reap a helper before the run could kill it
        handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            run(config_for(sample_path, tmp_path / "out"))
        finally:
            signal.signal(signal.SIGCHLD, handler)
        assert forks == []
        assert tree_digest(tmp_path / "out") == SAMPLE_DIGEST

    def test_thread_running_under_warnings_as_errors(self, sample_path, tmp_path):
        # Python 3.12 and later warn when a process with threads forks.
        script = (
            "import sys, threading\n"
            "from oceanmine.cli import main\n"
            "stop = threading.Event()\n"
            "thread = threading.Thread(target=stop.wait)\n"
            "thread.start()\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "finally:\n"
            "    stop.set()\n"
            "    thread.join(timeout=10)\n"
            "sys.exit(code)\n"
        )
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", script, str(sample_path),
             "--out-dir", str(out)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr == ""
        assert tree_digest(out) == SAMPLE_DIGEST

    def test_interrupt_mid_loop_leaves_nothing(self, tmp_path, monkeypatch, forks):
        src = tmp_path / "two_floats.txt"
        src.write_text(two_region_stream(), encoding="ascii")
        calls = []
        compute_series = pipeline.compute_series

        def interrupted(seg, floor):
            calls.append(seg)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return compute_series(seg, floor)

        monkeypatch.setattr(pipeline, "compute_series", interrupted)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            run(config_for(src, out))
        assert len(forks) == 1
        assert_nothing_left(out)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two_floats.txt"]


def many_region_stream(floats=120):
    """Two days of profiles, one every six hours, from each of many floats."""
    rng = random.Random(floats)
    blocks = []
    for i in range(floats):
        for hour in range(0, 48, 6):
            triples = [
                (rng.uniform(10, 25), rng.uniform(34, 36), 50.0 * level)
                for level in range(1, 4)
            ]
            blocks.append(
                block_of(
                    header(f"{10000 + i}", 0.5, 76.5, at(hour * 3600)),
                    triples,
                )
            )
    return render_stream(blocks)


class TestHeldMemory:
    """A run holds one input file's blocks, and one report row, at a time."""

    def test_report_jsonl_is_not_held_whole(self, tmp_path, monkeypatch):
        src = tmp_path / "fleet.txt"
        src.write_text(many_region_stream(), encoding="ascii")
        report_jsonl = advisories.report_jsonl
        heap = {}

        def measured(*args):
            tracemalloc.reset_peak()
            heap["before"] = tracemalloc.get_traced_memory()[0]
            result = report_jsonl(*args)
            heap["peak"] = tracemalloc.get_traced_memory()[1]
            return result

        monkeypatch.setattr(advisories, "report_jsonl", measured)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            result = run(config_for(src, out))
        finally:
            tracemalloc.stop()
        assert len(result.report.rows) >= 100
        size = (out / "report.jsonl").stat().st_size
        assert heap["peak"] - heap["before"] < size / 2

    def test_first_input_is_dropped_before_the_second_is_parsed(
        self, sample_path, tmp_path, monkeypatch
    ):
        second = tmp_path / "two_floats.txt"
        second.write_text(two_region_stream(), encoding="ascii")
        refs = []
        alive_on_entry = []

        # Tuples and bytes take no weak reference, so each block carries a
        # probe in its payload and its header one in its latitude.
        class Payload(bytearray):
            pass

        class Latitude(float):
            pass

        def probed(path):
            alive_on_entry.append(
                sorted({type(ref()).__name__ for ref in refs if ref() is not None})
            )
            blocks = [
                b._replace(
                    payload=Payload(b.payload),
                    header=b.header._replace(latitude=Latitude(b.header.latitude)),
                )
                for b in parse_file(path)
            ]
            refs.extend(
                weakref.ref(obj) for b in blocks for obj in (b.payload, b.header.latitude)
            )
            return blocks

        monkeypatch.setattr(pipeline, "parse_file", probed)
        result = run(
            PipelineConfig(inputs=[Path(sample_path), second], out_dir=tmp_path / "out")
        )
        assert len(result.report.rows) == 3
        assert alive_on_entry == [[], []]


class TestCli:
    def test_exit_ok_and_summary_line(self, sample_path, tmp_path, capsys):
        code = main([str(sample_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "31 records, 1 regions, 3 strong-wave alerts," in out
        assert "13 fishing-zone advisories" in out
        assert "report.txt" in out

    def test_region_count_is_the_report_rows(self, tmp_path, capsys):
        # one live region and one whose samples are all rejected
        src = tmp_path / "two_floats.txt"
        src.write_text(two_region_stream(), encoding="ascii")
        out = tmp_path / "out"
        assert main([str(src), "--out-dir", str(out)]) == EXIT_OK
        assert ", 2 regions, " in capsys.readouterr().out
        head = json.loads((out / "report.jsonl").read_text().splitlines()[0])
        assert head["regions"] == 2

    def test_exit_config(self, sample_path, tmp_path, capsys):
        nokv = tmp_path / "nokv.txt"
        nokv.write_text("temp_offset -5\n", encoding="ascii")
        out = tmp_path / "out"
        for flags, message in (
            (["--theta", "0"], "config error"),
            (["--calibration", str(nokv)],
             f"config error: {nokv}:1: expected key = value, got 'temp_offset -5'\n"),
        ):
            code = main([str(sample_path), "--out-dir", str(out), *flags])
            assert code == EXIT_CONFIG, flags
            assert message in capsys.readouterr().err, flags
            assert not out.exists(), flags

    def test_exit_io(self, sample_path, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (
            [str(tmp_path / "absent.txt")],
            # an empty path names no file, not the built-in table
            [str(sample_path), "--calibration", ""],
        ):
            code = main([*argv, "--out-dir", str(out)])
            assert code == EXIT_IO, argv
            assert "io error" in capsys.readouterr().err, argv
            assert not out.exists(), argv

    def test_rejected_block_is_counted_and_dropped(self, sample_path, tmp_path, capsys):
        # Line 3 loses a word, so the first block (lines 1-6) holds 14 words:
        # no whole number of triples.  The run reports it and goes on.
        lines = sample_path.read_text(encoding="ascii").splitlines(keepends=True)
        short, without = tmp_path / "short.txt", tmp_path / "without.txt"
        without.write_text("".join(lines[6:]), encoding="ascii")
        assert lines[2].endswith(" 07 62\n")
        lines[2] = lines[2].removesuffix(" 07 62\n") + "\n"
        short.write_text("".join(lines), encoding="ascii")
        assert main([str(short), "--out-dir", str(tmp_path / "cli")]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "oceanmine: 26 records, 1 regions," in out
        assert err == "oceanmine: 1 blocks rejected\n"
        result = run(config_for(short, tmp_path / "run"))
        (row,) = result.report.rows
        assert (row.sample_count + row.skipped, result.rejected_blocks) == (26, 1)
        run(config_for(without, tmp_path / "without"))
        assert snapshot(tmp_path / "cli") == snapshot(tmp_path / "run")
        assert snapshot(tmp_path / "run") == snapshot(tmp_path / "without")

    def test_exit_data_with_stage(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("\n", encoding="ascii")
        code = main([str(src), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error [parse" in err

    def test_exit_data_when_nothing_decodes(self, tmp_path, capsys):
        src = tmp_path / "position_only.txt"
        block = block_of(header("11111", 0.7, 76.5, datetime(2003, 1, 10, 12, 0, 0)), [])
        src.write_text(render_stream([block]), encoding="ascii")
        code = main([str(src), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "data error [decode]" in capsys.readouterr().err

    def test_header_only_block_adds_no_region(self, sample_path, tmp_path, capsys):
        # a block in a grid cell of its own that decodes to no records
        block = block_of(header("02602", 10.691, 76.559, datetime(2003, 1, 11, 9, 0, 0)), [])
        src = tmp_path / "with_empty_block.txt"
        src.write_text(
            sample_path.read_text(encoding="ascii") + render_stream([block]),
            encoding="ascii",
        )
        assert main([str(sample_path), "--out-dir", str(tmp_path / "a")]) == EXIT_OK
        capsys.readouterr()
        assert main([str(src), "--out-dir", str(tmp_path / "b")]) == EXIT_OK
        assert "31 records, 1 regions," in capsys.readouterr().out
        trees = [
            {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            for name in ("a", "b")
        ]
        assert trees[0] == trees[1]

    def test_non_finite_and_huge_flags_are_config_errors(
        self, sample_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        for flags in (
            ["--lag", "1e300"],
            ["--delta", "1e13", "--min-support", "1"],
            ["--k", str(sys.maxsize + 1)],
        ):
            # finite but out of range; "nan" and "inf" are usage errors
            # (test_underscore_in_numeric_flag_is_config_error)
            # main returning, not raising, is what keeps a traceback off stderr
            code = main([str(sample_path), "--out-dir", str(out), *flags])
            assert code == EXIT_CONFIG, flags
            assert "config error" in capsys.readouterr().err, flags
            assert not out.exists(), flags

    def test_non_ascii_input_is_a_data_error(self, sample_path, tmp_path, capsys):
        src = tmp_path / "latin1.txt"
        lines = Path(sample_path).read_bytes().split(b"\n")
        lines[4] += b" \xe9"
        src.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        code = main([str(src), "--out-dir", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error [parse" in err
        assert "line 5: non-ASCII byte 0xe9" in err
        assert not out.exists()

    def test_non_ascii_calibration_is_a_config_error(self, sample_path, tmp_path, capsys):
        cal = tmp_path / "cal.txt"
        cal.write_bytes(b"# bench unit \xc2\xb5\ntemp_offset = -4.0\n")
        out = tmp_path / "out"
        code = main([str(sample_path), "--out-dir", str(out), "--calibration", str(cal)])
        assert code == EXIT_CONFIG
        # named as a dump names one: the line and the byte
        assert f"config error: {cal}:1: non-ASCII byte 0xc2\n" in capsys.readouterr().err
        assert not out.exists()

    def test_calibration_lines_end_as_in_dumps(self, sample_path, tmp_path, capsys):
        # A form feed does not end a line, so this is one bad temp_offset value.
        cal = tmp_path / "cal.txt"
        cal.write_bytes(b"temp_offset = -4.0\x0ctemp_resolution = 0.002\n")
        out = tmp_path / "out"
        code = main([str(sample_path), "--out-dir", str(out), "--calibration", str(cal)])
        assert code == EXIT_CONFIG
        assert "bad value for temp_offset" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_k_finishes(self, sample_path, tmp_path):
        # enumerating k-1 class boundaries per sample would never finish
        proc = subprocess.run(
            [sys.executable, "-m", "oceanmine", str(sample_path),
             "--out-dir", str(tmp_path / "out"), "--k", "1000000000000"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_huge_max_len_finishes(self, sample_path, tmp_path):
        # the level search stops at the first level with nothing frequent
        proc = subprocess.run(
            [sys.executable, "-m", "oceanmine", str(sample_path),
             "--out-dir", str(tmp_path / "out"), "--max-len", "1000000000"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr

    def test_unusable_flags_are_config_errors(self, sample_path, tmp_path, capsys):
        out = tmp_path / "out"
        for argv in (
            [str(sample_path), "--k", "abc"],
            [str(sample_path), "--bogus"],
            [],
        ):
            with pytest.raises(SystemExit) as info:
                main([*argv, "--out-dir", str(out)])
            assert info.value.code == EXIT_CONFIG, argv
            assert "usage: oceanmine" in capsys.readouterr().err, argv
            assert not out.exists(), argv

    @pytest.mark.parametrize("flag", NUMERIC_FLAGS)
    def test_underscore_in_numeric_flag_is_config_error(
        self, sample_path, tmp_path, capsys, flag
    ):
        # int() and float() read "1_0" as 10 and "0.5_0" as 0.5, non-ASCII
        # digits ("١", "１") as their values, skip padding and read "nan" and
        # "inf", and "1e999" overflows to inf; written so, it is a usage error.
        underscored = "0.5_0" if flag == "--theta" else "1_0"
        out = tmp_path / "out"
        for value in (underscored, "\u0661", "\uff11", " 1", "1 ",
                      "nan", "inf", "1e999"):
            with pytest.raises(SystemExit) as info:
                main([str(sample_path), "--out-dir", str(out), flag, value])
            assert info.value.code == EXIT_CONFIG, value
            assert f"argument {flag}: invalid" in capsys.readouterr().err, value
            assert not out.exists(), value

    def test_zero_delta_mines_no_rules(self, sample_path, tmp_path):
        # delta is also the confidence step; at 0 no rule reaches the curve
        out = tmp_path / "out"
        code = main(
            [str(sample_path), "--out-dir", str(out), "--delta", "0",
             "--lag", "86400", "--min-support", "1", "--max-len", "3",
             "--win-a", "86400", "--win-c", "86400"]
        )
        assert code == EXIT_OK
        rules = (out / f"rules_{SAMPLE_REGION}.csv").read_text(encoding="ascii")
        assert rules.splitlines() == [
            "antecedent,consequent,win_a_s,win_c_s,lag_s,support,confidence"
        ]

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        flag=st.sampled_from(NUMERIC_FLAGS),
        value=st.one_of(
            st.integers(-10 ** 20, 10 ** 20).map(str),
            st.floats().map(str),
            st.text(max_size=6),
        ),
    )
    @example(flag="--delta", value="0")
    @example(flag="--theta", value="nan")
    @example(flag="--pressure-floor", value="-0.0")
    @example(flag="--cell-size", value="1e-300")
    @example(flag="--k", value="100000000000000000000")
    def test_any_numeric_flag_value_exits_cleanly(self, sample_path, flag, value):
        # One flag per example: several wide windows at once with
        # --min-support 1 make the miner's output, and its time, explode.
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            try:
                # "--flag=value" keeps a value such as "-h" from reading as a flag
                code = main([str(sample_path), "--out-dir", str(out), f"{flag}={value}"])
            except SystemExit as e:
                code = e.code
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA)
            assert code == EXIT_OK or not out.exists()

    def test_import_loads_no_numpy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, oceanmine.cli; assert 'numpy' not in sys.modules"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_import_and_run_load_no_introspection_or_decimal_modules(
        self, sample_path, tmp_path
    ):
        # The records are NamedTuples, so no run needs dataclasses or
        # inspect; decoded values round on repr()'s digits, without decimal.
        unused = "{'dataclasses', 'inspect', 'decimal', '_decimal', 'numbers'}"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, oceanmine.cli; "
             f"assert not {unused} & set(sys.modules), 'import'; "
             f"code = oceanmine.cli.main([sys.argv[1], '--out-dir', sys.argv[2]]); "
             f"loaded = {unused} & set(sys.modules); "
             "assert code == 0 and not loaded, (code, sorted(loaded))",
             str(sample_path), str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0

    def test_help_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "usage: oceanmine" in capsys.readouterr().out

    def test_help_lists_config_defaults(self, capsys, monkeypatch):
        # The flags take their defaults from PipelineConfig; an action left
        # without one would print "(default: None)".
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        out = " ".join(capsys.readouterr().out.split())
        for value in ("out", "1.0", "0.5", "10", "14400.0", "3", "2", "--delta", "0.8"):
            assert f"(default: {value})" in out, value
        assert out.count("(default: 0.0)") == 2

    def test_flags_reach_pipeline(self, sample_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                str(sample_path),
                "--out-dir", str(out),
                "--no-plots",
                "--window-len", "5",
                "--min-support", "3",
            ]
        )
        assert code == EXIT_OK
        assert not (out / f"index_{SAMPLE_REGION}.csv").exists()
        assert (out / f"records_{SAMPLE_REGION}.csv").exists()


def tree_digest(out_dir):
    """SHA-256 over sorted "<relpath>\\0<sha256 of file>\\n" lines of a tree."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        rel = path.relative_to(out_dir).as_posix()
        h.update(f"{rel}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


SAMPLE_STDOUT = (
    "oceanmine: 31 records, 1 regions, 3 strong-wave alerts, "
    "13 fishing-zone advisories\n"
    "oceanmine: report at out/report.txt\n"
)


class TestGoldenOutput:
    """The sample's output tree and stdout, pinned byte for byte.

    Rerun equality cannot catch a change that alters the bytes the same
    way on every run; these digests can.  Changing one is a change to
    the program's output and needs a reason.
    """

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ([], SAMPLE_DIGEST),
            (
                ["--k", "5", "--max-len", "3", "--win-a", "7200", "--win-c", "3600"],
                "52d02b26e8e9deec65addd4bab71e38c0edd9f90c98b104ee3e01cb1b50c7a2c",
            ),
            (
                ["--no-plots", "--cell-size", "0.5"],
                "17c8b28f359b0c025bd432c7a415be89af07fa201b45b2be68a6f1a1c031ecf9",
            ),
            (
                ["--max-len", "3", "--win-a", "0.25", "--win-c", "5400", "--lag", "43200.5"],
                "06f45ef4ee290bf1891cc03dfc3c6ff1e7e983035a84382b8edcf1b5cecb3346",
            ),
        ],
    )
    def test_sample_tree_and_stdout(
        self, sample_path, tmp_path, monkeypatch, capsys, flags, digest
    ):
        monkeypatch.chdir(tmp_path)
        assert main([str(sample_path), "--out-dir", "out", *flags]) == EXIT_OK
        assert capsys.readouterr().out == SAMPLE_STDOUT
        assert tree_digest(tmp_path / "out") == digest

    def test_sample_tree_with_half_way_ties(self, sample_path, tmp_path, monkeypatch, capsys):
        # A quarter-dbar pressure line puts words on exact ties at one
        # decimal (-3.0 + 1485 * 0.25 = 368.25), which round away from zero.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cal.txt").write_text(
            "pres_offset = -3.0\npres_resolution = 0.25\n", encoding="ascii"
        )
        assert main([str(sample_path), "--out-dir", "out", "--calibration", "cal.txt"]) == EXIT_OK
        assert capsys.readouterr().out == SAMPLE_STDOUT
        assert tree_digest(tmp_path / "out") == (
            "6e16c244fa5779ff3391e387383c55afe83e5b976a39fc3dbfae844e1be777a4"
        )


# A second block with the sample's first platform, position and block time
# but other words: its one record ties with the first block's level 1 on
# (observed_at, level).
SAME_TIME_BLOCK = (
    "02602 29021 02 65 32 K 2 2003-01-10 11:50:18.0 0.691 76.559 0.000 401647210\n"
    "2003-01-10 12:49:18 1 49 26 89 3E 07 CB\n"
)
SAME_TIME_DIGEST = "ba64578dcf26ecd2fd7ce4cbf99b8015f0b4d1af6b847ea3c91a8ae1d73095ef"


def dump_blocks(text):
    """A dump's blocks, each as its lines from its header line on."""
    blocks = []
    for line in text.splitlines():
        if line[:5].isdigit() and line[5:6] == " ":
            blocks.append([])
        blocks[-1].append(line)
    return blocks


@st.composite
def shuffled_dumps(draw, blocks):
    """blocks permuted and split into 1 to 3 dumps, each with its own line ending."""
    order = draw(st.permutations(blocks))
    files = draw(st.integers(1, 3))
    cuts = draw(st.sets(st.integers(1, len(blocks) - 1), min_size=files - 1, max_size=files - 1))
    bounds = [0, *sorted(cuts), len(blocks)]
    dumps = []
    for start, stop in zip(bounds, bounds[1:]):
        ending = draw(st.sampled_from(["\n", "\r", "\r\n"]))
        dumps.append("".join(line + ending for block in order[start:stop] for line in block))
    return dumps


def run_on_dumps(directory, dumps):
    """Run on dumps written as files, in order, and return the tree."""
    inputs = []
    for i, text in enumerate(dumps):
        inputs.append(directory / f"in{i}.txt")
        inputs[-1].write_bytes(text.encode("ascii"))
    run(PipelineConfig(inputs=inputs, out_dir=directory / "out"))
    return snapshot(directory / "out")


ORDER_CORPUS = (
    (REPO_ROOT / "data" / "sample_telemetry.txt").read_text(encoding="ascii")
    + two_region_stream()
    + SAME_TIME_BLOCK
)


class TestInputOrder:
    """The tree depends on the set of blocks, not on their order or files."""

    def test_same_time_block_in_either_place(self, sample_path, tmp_path):
        sample = sample_path.read_text(encoding="ascii")
        runs = {
            "appended": [sample + SAME_TIME_BLOCK],
            "prepended": [SAME_TIME_BLOCK + sample],
            "second_file": [sample, SAME_TIME_BLOCK],
            "first_file": [SAME_TIME_BLOCK, sample],
        }
        digests = {}
        for name, dumps in runs.items():
            (tmp_path / name).mkdir()
            run_on_dumps(tmp_path / name, dumps)
            digests[name] = tree_digest(tmp_path / name / "out")
        assert digests == dict.fromkeys(runs, SAME_TIME_DIGEST)

    @pytest.fixture(scope="class")
    def in_order_tree(self, tmp_path_factory):
        return run_on_dumps(tmp_path_factory.mktemp("in_order"), [ORDER_CORPUS])

    @settings(max_examples=30, deadline=None)
    @given(dumps=shuffled_dumps(dump_blocks(ORDER_CORPUS)))
    def test_shuffled_and_split_blocks_give_the_same_tree(self, in_order_tree, dumps):
        with tempfile.TemporaryDirectory() as directory:
            assert run_on_dumps(Path(directory), dumps) == in_order_tree
