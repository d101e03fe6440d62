"""The whole run against oracles.run_reference, on generated valid dumps.

Each dump holds 1 to 4 platforms over 1 to 10 days, 1 to 4 profiles a day,
with block-time lines, split message ids, short (rejected) blocks and
blocks without words, floats that drift across cells, and all three line
endings.  Every file the run writes is read back and compared row by row.
"""

import json
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import mpmath
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oceanmine.pipeline import PipelineConfig, run
from oceanmine.telemetry import HeaderFields, MessageBlock

import oracles
from helpers import ENDINGS, DroppedTokens, payload_of, render_stream

# Criterion 01's bound on the index's relative error.
INDEX_TOLERANCE = mpmath.mpf("1e-12")
# Each CSV's cells after its header, as they read back.
CELL_TYPES = {
    "records": (str,) * 6,
    "index": (str, float),
    "rules": (str, str, float, float, float, int, float),
    "confidence": (str, str, float),
}


@st.composite
def profiles(draw, platform, start, day_count):
    """One platform's blocks, one to four a day, each with its rendering arguments.

    A day's profiles fall within 12 hours and 10 minutes to 3 hours apart,
    so an event can hold three or four times, which the windows (up to 2
    hours) tell apart.
    """
    lat, lon = draw(st.integers(-1500, 1500)), draw(st.integers(75_000, 78_000))
    out = []
    for day in range(day_count):
        times = [start + timedelta(days=day, seconds=draw(st.integers(0, 3 * 3600)))]
        for _ in range(draw(st.integers(0, 3))):
            times.append(times[-1] + timedelta(seconds=draw(st.integers(600, 3 * 3600))))
        for when in times:
            when += timedelta(microseconds=draw(st.sampled_from([0, 0, 500_000, 123_456])))
            lat += draw(st.integers(-60, 60))  # a drift of up to 0.06 degrees
            lon += draw(st.integers(-60, 60))
            levels = draw(st.lists(
                st.tuples(st.integers(0, 40_000), st.integers(30_000, 40_000),
                          st.integers(0, 20_000)),
                min_size=1, max_size=3,
            ))
            words = [word for level in levels for word in level]
            fault = draw(st.integers(0, 9))
            if fault < 2:
                words = words[:-1] if fault else []  # rejected, or no records
            restamp = draw(st.booleans())
            header_time = when - timedelta(seconds=draw(st.integers(1, 3600))) if restamp else when
            header = HeaderFields(platform, header_time, lat / 1000, lon / 1000)
            dropped = DroppedTokens(message_id=draw(st.sampled_from(["2902102", "29021 02"])))
            block = MessageBlock(header, payload_of(words), (0, 0))
            out.append((block, when if restamp else None, dropped))
    return out


@st.composite
def valid_runs(draw):
    """Dumps whose run succeeds, and the config to run them with."""
    day_count = draw(st.integers(1, 10))
    start = datetime(2003, 1, 10) + timedelta(days=draw(st.integers(0, 400)))
    platforms = draw(st.lists(st.integers(0, 99_999).map("{:05d}".format),
                              min_size=1, max_size=4, unique=True))
    blocks = [b for p in platforms for b in draw(profiles(p, start, day_count))]
    # one whole triple clear of every floor, so some region is analysed
    sure = blocks[0][0]._replace(payload=payload_of([25_000, 35_000, 10_000]))
    blocks[0] = (sure, *blocks[0][1:])
    blocks = draw(st.permutations(blocks))
    files = draw(st.integers(1, min(3, len(blocks))))
    cuts = sorted(draw(st.permutations(range(1, len(blocks))))[: files - 1])
    dumps = [
        render_stream(blocks[a:b], draw(st.sampled_from(list(ENDINGS.values()))))
        for a, b in zip([0, *cuts], [*cuts, len(blocks)])
    ]
    config = dict(
        cell_size=draw(st.sampled_from([0.5, 1.0])),
        pressure_floor=draw(st.sampled_from([0.5, 0.5, 500.0])),
        window_len=draw(st.integers(1, 6)),
        delta_s=draw(st.sampled_from([14400.0, 14400.0, 3600.0, 43200.0])),
        k=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 2)),
        win_a_s=draw(st.sampled_from([0.0, 1800.0, 7200.0])),
        win_c_s=draw(st.sampled_from([0.0, 1800.0, 7200.0])),
        lag_s=draw(st.sampled_from([None, 3600.0, 21600.0])),
        min_support=draw(st.integers(1, 2)),
        theta=draw(st.sampled_from([0.5, 0.8, 1.0])),
    )
    return dumps, config


def read_tree(out: Path) -> tuple[dict[str, list[tuple]], list[dict]]:
    """Every file of a tree read back as run_reference states it."""
    files, report = {}, []
    for path in out.iterdir():
        lines = path.read_text(encoding="ascii").splitlines()
        if path.name == "report.jsonl":
            report = [json.loads(line) for line in lines]
        elif path.name == "report.txt":
            files[path.name] = [tuple(line.split()) for i, line in enumerate(lines) if i != 2]
        else:
            types = CELL_TYPES[path.name.partition("_")[0]]
            rows = [tuple(line.split(",")) for line in lines]
            files[path.name] = rows[:1] + [
                tuple(kind(cell) for kind, cell in zip(types, row, strict=True))
                for row in rows[1:]
            ]
    return files, report


# One region whose only rule of confidence 1 is LOW+HIGH=>MID, so it is the
# top rule: at win_a 2 h and win_c 0 its curve is 1 from the first event on,
# and with the two windows swapped it would be 0, as no LOW and HIGH share a
# time.  The temperature words set the classes: 35000 LOW, 20000 MID, 5000 HIGH.
TWO_SYMBOL_TOP_RULE = (
    [render_stream([
        MessageBlock(HeaderFields("02602", datetime(2003, 1, day, hour), 0.691, 76.559),
                     payload_of([temperature, 35_000, 1_000]), (0, 0))
        for day, hour, temperature in [(10, 10, 35_000), (10, 11, 5_000), (10, 12, 20_000),
                                       (11, 10, 5_000), (12, 10, 35_000)]
    ])],
    dict(cell_size=1.0, pressure_floor=0.5, window_len=2, delta_s=14400.0, k=3, max_len=2,
         win_a_s=7200.0, win_c_s=0.0, lag_s=None, min_support=1, theta=0.8),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_runs())
@example(TWO_SYMBOL_TOP_RULE)
def test_run_equals_the_reference(case):
    dumps, params = case
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [Path(tmp, f"in{i}.txt") for i in range(len(dumps))]
        for path, text in zip(inputs, dumps):
            path.write_bytes(text.encode("ascii"))
        config = PipelineConfig(inputs=inputs, out_dir=Path(tmp, "out"), **params)
        result = run(config)
        files, report = read_tree(config.out_dir)

    index_values = {
        name[len("index_"):-len(".csv")]: [value for _, value in rows[1:]]
        for name, rows in files.items() if name.startswith("index_")
    }
    want = oracles.run_reference(dumps, config, index_values)
    assert result.rejected_blocks == want.rejected_blocks
    assert sorted(files) == sorted(want.files)
    for name, rows in want.files.items():
        if name.startswith("index_"):
            got = files[name]
            assert [row[0] for row in got] == [row[0] for row in rows], name
            for (_, value), (_, exact) in zip(got[1:], rows[1:]):
                assert abs(mpmath.mpf(value) - exact) <= INDEX_TOLERANCE * abs(exact), name
        else:
            assert files[name] == rows, name
    assert report == want.report
