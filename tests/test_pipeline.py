"""End-to-end pipeline and CLI behaviour.

The bundled sample dump drives most of these: one float, three days,
a morning deep profile and an afternoon shallow profile per day, plus
one zero-pressure record that the index stage must skip.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oceanmine import regions
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

from helpers import quantize, render_stream
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
    return HeaderFields(
        platform_id=platform,
        message_id="2902102",
        field_a=65,
        field_b=32,
        class_code="K",
        pass_count=2,
        observed_at=when,
        latitude=lat,
        longitude=lon,
        altitude_or_zero=0.0,
        transmitter_id="401647210",
    )


def words_for(triples):
    words = []
    for t, s, p in triples:
        words += [
            quantize(t, "temperature"),
            quantize(s, "salinity"),
            quantize(p, "pressure"),
        ]
    return words


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
        assert result.record_count == 31
        assert result.region_count == 1
        assert result.rejected_blocks == 0
        (row,) = result.report.rows
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
        assert all(b.words for b in blocks)
        assert keyed == [b.header for b in blocks]
        assert result.record_count > len(blocks)

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


class TestFailureModes:
    def test_missing_input_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            run(config_for(tmp_path / "nope.txt", out))
        assert not out.exists()

    def test_malformed_input_writes_nothing(self, sample_path, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            Path(sample_path).read_text(encoding="ascii") + "aa bb zz\n",
            encoding="ascii",
        )
        out = tmp_path / "out"
        with pytest.raises(DataError) as info:
            run(config_for(bad, out))
        assert "parse" in getattr(info.value, "stage", "")
        assert not out.exists()

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
        with pytest.raises(AllSamplesRejected) as info:
            run(config_for(sample_path, out, pressure_floor=1e6))
        assert getattr(info.value, "stage", "") == "index"
        assert not out.exists()

    def test_dead_region_reported_alongside_live_one(self, tmp_path):
        live = MessageBlock(
            header=header("11111", 0.7, 76.5, datetime(2003, 1, 10, 12, 0, 0)),
            words=words_for([(20.0, 35.0, 100.0), (19.0, 35.1, 150.0)]),
        )
        dead = MessageBlock(
            header=header("09999", 10.5, -40.2, datetime(2003, 1, 10, 13, 0, 0)),
            words=words_for([(20.0, 35.0, 0.0), (21.0, 35.2, 0.0)]),
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
        dead = MessageBlock(
            header=header("09999", 10.5, -40.2, datetime(2003, 1, 10, 13, 0, 0)),
            words=words_for([(20.0, 35.0, 0.0), (21.0, 35.2, 0.0)]),
        )
        assert dead.words[2::3] == [0, 0]
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


class TestCli:
    def test_exit_ok_and_summary_line(self, sample_path, tmp_path, capsys):
        code = main([str(sample_path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "31 records, 1 regions, 3 strong-wave alerts," in out
        assert "13 fishing-zone advisories" in out
        assert "report.txt" in out

    def test_exit_config(self, sample_path, tmp_path, capsys):
        code = main(
            [str(sample_path), "--out-dir", str(tmp_path / "out"), "--theta", "0"]
        )
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

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

    def test_exit_data_with_stage(self, tmp_path, capsys):
        src = tmp_path / "empty.txt"
        src.write_text("\n", encoding="ascii")
        code = main([str(src), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error [parse" in err

    def test_exit_data_when_nothing_decodes(self, tmp_path, capsys):
        src = tmp_path / "position_only.txt"
        block = MessageBlock(
            header=header("11111", 0.7, 76.5, datetime(2003, 1, 10, 12, 0, 0)),
            words=[],
        )
        src.write_text(render_stream([block]), encoding="ascii")
        code = main([str(src), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "data error [decode]" in capsys.readouterr().err

    def test_header_only_block_adds_no_region(self, sample_path, tmp_path, capsys):
        # a block in a grid cell of its own that decodes to no records
        block = MessageBlock(
            header=header("02602", 10.691, 76.559, datetime(2003, 1, 11, 9, 0, 0)),
            words=[],
        )
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
            ["--delta", "nan"],
            ["--lag", "nan"],
            ["--lag", "1e300"],
            ["--win-a", "inf"],
            ["--cell-size", "nan"],
            ["--delta", "1e13", "--min-support", "1"],
            ["--k", str(sys.maxsize + 1)],
        ):
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
        assert "config error" in capsys.readouterr().err
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
            ([], "1103e97faf436de1c5f97ec815035428e247eba3a77e2bb9e50f3bd01fd03119"),
            (
                ["--k", "5", "--max-len", "3", "--win-a", "7200", "--win-c", "3600"],
                "52d02b26e8e9deec65addd4bab71e38c0edd9f90c98b104ee3e01cb1b50c7a2c",
            ),
            (
                ["--no-plots", "--cell-size", "0.5"],
                "17c8b28f359b0c025bd432c7a415be89af07fa201b45b2be68a6f1a1c031ecf9",
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
