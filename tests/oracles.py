"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the definitions, not from
the production code: the index evaluator runs in 50-digit arithmetic
term by term, decoded values round in decimal arithmetic, a dump is
read one line at a time, and the rule miner enumerates every candidate
episode and every subsequence occurrence by brute force.  Slow is fine; these
only run in tests.
"""

from __future__ import annotations

import itertools
import math
import re
from datetime import datetime, timedelta
from decimal import ROUND_HALF_UP, Decimal
from typing import NamedTuple

import mpmath
import numpy as np

from oceanmine.errors import DataError
from oceanmine.telemetry import HeaderFields, MessageBlock

mpmath.mp.dps = 50

_EPOCH = datetime(1970, 1, 1)


def at(seconds: float) -> datetime:
    """Timestamp helper: seconds after the epoch."""
    return _EPOCH + timedelta(seconds=seconds)


# --- high-precision index ----------------------------------------------------


def index_reference(temperature: float, salinity: float, pressure: float) -> mpmath.mpf:
    """Evaluate the oscillation index in extended precision.

    Inputs are taken as exact binary doubles; constants as exact
    decimals.  Summation via fsum, one term per physical effect.
    """
    t = mpmath.mpf(temperature)
    s = mpmath.mpf(salinity)
    p = mpmath.mpf(pressure)
    terms = [
        mpmath.mpf("1.3247"),
        -(mpmath.mpf("2.5e-6") * t * t),
        s * (mpmath.mpf("2e-4") - mpmath.mpf("8e-7") * t),
        mpmath.mpf(3300) / (p * p),
        -(mpmath.mpf("3.2e7") / (p * p * p * p)),
    ]
    return mpmath.fsum(terms)


def gradient_reference_fd(
    temperature: float, salinity: float, pressure: float, h: str = "1e-4"
) -> mpmath.mpf:
    """Central finite difference of the index in T, in extended precision."""
    t = mpmath.mpf(temperature)
    hh = mpmath.mpf(h)
    # evaluate at t +/- h without round-tripping through float
    s = mpmath.mpf(salinity)
    p = mpmath.mpf(pressure)

    def f(tt: mpmath.mpf) -> mpmath.mpf:
        return mpmath.fsum(
            [
                mpmath.mpf("1.3247"),
                -(mpmath.mpf("2.5e-6") * tt * tt),
                s * (mpmath.mpf("2e-4") - mpmath.mpf("8e-7") * tt),
                mpmath.mpf(3300) / (p * p),
                -(mpmath.mpf("3.2e7") / (p * p * p * p)),
            ]
        )

    return (f(t + hh) - f(t - hh)) / (2 * hh)


# --- the number grammar -------------------------------------------------------

# What int() and float() read, cut down to ASCII digits with no "_",
# padding, "nan" or "inf".  Matched up to \Z, which unlike $ is not
# satisfied before a final newline.
_INT_TEXT = re.compile(r"[+-]?[0-9]+\Z")
_FLOAT_TEXT = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\Z")


def read_number_reference(text: str, kind: type) -> int | float | None:
    """The int or float text spells, or None when it is no such number."""
    if not (_INT_TEXT if kind is int else _FLOAT_TEXT).match(text):
        return None
    value = kind(text)
    if kind is float and abs(value) == math.inf:  # an exponent overflowed
        return None
    return value


# --- the line-by-line dump reading --------------------------------------------

# A dump read one line at a time, from the rules of the telemetry module's
# docstring stated afresh: the token forms, the timestamp rule and the
# coordinate rule here share nothing with oceanmine.telemetry, whose records
# alone it builds.  It decides how lines become blocks and spans, and which
# line and which fault in it an error names.

# One line and its ending; only LF, CR and CRLF end a line.
LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")
# A data line's tokens joined by single spaces, all of them byte tokens.
_HEX_LINE_RE = re.compile(r"(?:[0-9a-fA-F]{2}(?: [0-9a-fA-F]{2})*)?")
# Token forms, matched up to \Z; a line is ASCII before its tokens are read.
_PLATFORM_TEXT = re.compile(r"[0-9]{5}\Z")
_DIGITS_TEXT = re.compile(r"[0-9]+\Z")
_CLASS_TEXT = re.compile(r"[A-Z]\Z")
_DATE_TEXT = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_TIME_TEXT = re.compile(r"[0-9]{2}:[0-9]{2}:[0-9]{2}(\.[0-9]+)?\Z")
_BYTE_TEXT = re.compile(r"[0-9a-fA-F]{2}\Z")


def _timestamp(date_tok: str, time_tok: str, line_no: int) -> datetime:
    """The time that tokens of the date and time forms spell: at most six
    fraction digits, each field in the calendar's range.  strptime's %f reads
    one to six digits and fails on more."""
    fmt = "%Y-%m-%d %H:%M:%S.%f" if "." in time_tok else "%Y-%m-%d %H:%M:%S"
    try:
        return datetime.strptime(f"{date_tok} {time_tok}", fmt)
    except ValueError:
        raise DataError(f"unparseable timestamp '{date_tok} {time_tok}'", line=line_no) from None


def _header(tokens: list[str], line_no: int) -> HeaderFields:
    """The fields of a header line's tokens, whose first is a platform id;
    else a DataError naming the first fault in token order."""
    if len(tokens) < 12:
        raise DataError(f"expected at least 12 tokens, got {len(tokens)}", line=line_no)
    # message_id may be split; the tail of eight tokens is fixed
    platform_id, message_id, (int_a, int_b) = tokens[0], tokens[1:-10], tokens[-10:-8]
    class_code, pass_count, date_tok, time_tok, lat, lon, alt, _ = tokens[-8:]
    if not _DIGITS_TEXT.match("".join(message_id)):
        raise DataError(f"bad message id {' '.join(message_id)!r}", line=line_no)
    if read_number_reference(int_a, int) is None or read_number_reference(int_b, int) is None:
        raise DataError(f"bad integer fields {int_a!r} {int_b!r}", line=line_no)
    if not _CLASS_TEXT.match(class_code):
        raise DataError(f"bad class code {class_code!r}", line=line_no)
    if not _DIGITS_TEXT.match(pass_count):
        raise DataError(f"bad pass count {pass_count!r}", line=line_no)
    if not (_DATE_TEXT.match(date_tok) and _TIME_TEXT.match(time_tok)):
        raise DataError(f"bad timestamp tokens {date_tok!r} {time_tok!r}", line=line_no)
    observed_at = _timestamp(date_tok, time_tok, line_no)
    # three finite decimals (altitude too), then latitude and longitude in range
    coordinates = [read_number_reference(tok, float) for tok in (lat, lon, alt)]
    if None in coordinates:
        raise DataError(f"bad coordinate tokens {lat!r} {lon!r} {alt!r}", line=line_no)
    latitude, longitude, _ = coordinates
    if abs(latitude) > 90:
        raise DataError(f"latitude {latitude} out of [-90, 90]", line=line_no)
    if abs(longitude) > 180:
        raise DataError(f"longitude {longitude} out of [-180, 180]", line=line_no)
    return HeaderFields(platform_id, observed_at, latitude, longitude)


class _BlockBuilder:
    """Accumulates one block's bytes until the next header closes it."""

    def __init__(self, header: HeaderFields, first_line: int):
        self.header = header
        self.restamped = False
        self.payload = bytearray()
        self.first_line = first_line
        self.last_line = first_line

    def add_bytes(self, tokens: list[str], line_no: int) -> None:
        line = " ".join(tokens)
        if not _HEX_LINE_RE.fullmatch(line):
            bad = next(tok for tok in tokens if not _BYTE_TEXT.match(tok))
            raise DataError(f"bad hex byte token {bad!r}", line=line_no)
        self.payload += bytes.fromhex(line)
        self.last_line = line_no

    def finish(self) -> MessageBlock:
        span = (self.first_line, self.last_line)
        if len(self.payload) % 2:
            raise DataError(
                f"block has {len(self.payload)} bytes, one unpaired", span=span
            )
        return MessageBlock(self.header, bytes(self.payload), span)


def walk_lines(text: str) -> list[MessageBlock]:
    """parse_stream's reading of a dump, one line at a time."""
    blocks: list[MessageBlock] = []
    current: _BlockBuilder | None = None

    for line_no, line in enumerate(LINE_RE.finditer(text), start=1):
        raw = line[0]
        if not raw.isascii():
            bad = next(ch for ch in raw if not ch.isascii())
            raise DataError(f"non-ASCII byte 0x{ord(bad):02x}", line=line_no)
        tokens = raw.split()
        if not tokens:
            continue

        if _PLATFORM_TEXT.match(tokens[0]):
            if current is not None:
                blocks.append(current.finish())
            current = _BlockBuilder(_header(tokens, line_no), line_no)
            continue

        if current is None:
            raise DataError("data line before any header", line=line_no)

        if _DATE_TEXT.match(tokens[0]):
            if len(tokens) < 2 or not _TIME_TEXT.match(tokens[1]):
                raise DataError(
                    f"block time line missing time token: {raw.strip()!r}", line=line_no
                )
            stamp = _timestamp(tokens[0], tokens[1], line_no)
            if not current.restamped:
                current.header = current.header._replace(observed_at=stamp)
                current.restamped = True
            rest = tokens[2:]
            if rest:
                if not _DIGITS_TEXT.match(rest[0]):
                    raise DataError(
                        f"block time line has bad sequence token {rest[0]!r}",
                        line=line_no,
                    )
                current.add_bytes(rest[1:], line_no)
            else:
                current.last_line = line_no
            continue

        current.add_bytes(tokens, line_no)

    if current is not None:
        blocks.append(current.finish())
    if not blocks:
        raise DataError("no message blocks in input")
    return blocks


# --- decimal rounding --------------------------------------------------------


def round_half_away_reference(value: float, ndigits: int) -> float:
    """repr(value) as a decimal, rounded half away from zero to ndigits.

    Raises decimal.InvalidOperation when the rounded value needs more
    than the context's 28 significant digits.
    """
    quantum = Decimal(1).scaleb(-ndigits)
    out = float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))
    return out + 0.0  # normalise -0.0


# --- brute-force episode mining ----------------------------------------------


def items_of(ev) -> list[tuple[datetime, int]]:
    """An event's (timestamp, class) samples, in order.  A list of them is
    its own; an Event's are read back from its occurrence table: item i
    has the symbol whose positions hold i, at the start plus its slot's
    ticks in microseconds."""
    if isinstance(ev, list):
        return ev
    symbol = {i: sym for sym, positions in ev.where.items() for i in positions}
    return [
        (ev.start + timedelta(microseconds=ev.ticks[slot]), symbol[i])
        for i, slot in enumerate(ev.slots)
    ]


def occurrences(
    items: list[tuple[datetime, int]],
    episode: tuple[int, ...],
    window: timedelta,
) -> list[tuple[datetime, datetime]]:
    """Every (start, end) of episode as a subsequence with span <= window.

    Full enumeration over index combinations; no greedy shortcuts.
    """
    n = len(items)
    m = len(episode)
    found = []
    for combo in itertools.combinations(range(n), m):
        if all(items[i][1] == episode[j] for j, i in enumerate(combo)):
            t0 = items[combo[0]][0]
            t1 = items[combo[-1]][0]
            if t1 - t0 <= window:
                found.append((t0, t1))
    return found


def event_contains_brute(items, episode, window) -> bool:
    return bool(occurrences(items, episode, window))


def rule_holds_brute(items, antecedent, consequent, win_a, win_c, lag) -> bool:
    for _, a_end in occurrences(items, antecedent, win_a):
        for c_start, _ in occurrences(items, consequent, win_c):
            if a_end < c_start <= a_end + lag:
                return True
    return False


def support_brute(events, antecedent, consequent, win_a, win_c, lag) -> int:
    return sum(
        1
        for ev in events
        if rule_holds_brute(items_of(ev), antecedent, consequent, win_a, win_c, lag)
    )


def episode_count_brute(events, episode, window) -> int:
    return sum(1 for ev in events if event_contains_brute(items_of(ev), episode, window))


def mine_rules_brute(events, min_support, max_len, windows):
    """All rules with support >= min_support at windows (win_a, win_c,
    lag), by exhaustive enumeration.

    Returns (antecedent, consequent, support, confidence) tuples in the
    same deterministic order the production miner uses.
    """
    win_a, win_c, lag = windows
    alphabet = sorted({sym for ev in events for _, sym in items_of(ev)})
    episodes = []
    for length in range(1, max_len + 1):
        episodes.extend(itertools.product(alphabet, repeat=length))
    rules = []
    for ant in episodes:
        denom = episode_count_brute(events, ant, win_a)
        for cons in episodes:
            sup = support_brute(events, ant, cons, win_a, win_c, lag)
            if sup >= min_support:
                rules.append((ant, cons, sup, sup / denom))
    rules.sort(key=lambda r: (-r[3], -r[2], r[0], r[1]))
    return rules


def confidence_brute(events, antecedent, consequent, win_a, win_c, lag) -> float:
    denom = episode_count_brute(events, antecedent, win_a)
    if denom == 0:
        return 0.0
    return support_brute(events, antecedent, consequent, win_a, win_c, lag) / denom


# --- random mining instances ---------------------------------------------------


def random_instance(rng):
    """One random mining problem: events plus parameters.

    Sample counts stay at or below 20 and alphabets at or below 3, with
    timestamp ties and varied gaps to stress the occurrence logic.
    """
    from oceanmine.episodes import segment_events

    n = rng.randint(1, 20)
    k = rng.randint(1, 3)
    t = 0
    samples = []
    for _ in range(n):
        t += rng.choice([0, 1, 1, 2, 3, 7])
        samples.append((at(t), rng.randrange(k)))
    delta = timedelta(seconds=rng.choice([1, 2, 4, 10, 10 ** 6]))
    events = segment_events(samples, delta)
    params = dict(
        min_support=rng.randint(1, 3),
        max_len=rng.randint(1, 3),
        windows=(
            timedelta(seconds=rng.choice([0, 1, 2, 5])),
            timedelta(seconds=rng.choice([0, 1, 2, 5])),
            timedelta(seconds=rng.choice([1, 2, 5, 10])),
        ),
    )
    return events, params


# --- the whole run -------------------------------------------------------------

# README's default calibration: each channel's offset, resolution and decimals
# kept, in payload order.
CHANNELS = (("temperature", -5.0, 0.001, 3), ("salinity", 0.0, 0.001, 3), ("pressure", 0.0, 0.1, 1))
RECORDS_HEADER = ("region", "observed_at", "level", "temperature", "salinity", "pressure")
RULES_HEADER = ("antecedent", "consequent", "win_a_s", "win_c_s", "lag_s", "support", "confidence")
INDEX_HEADER = ("observed_at", "n_value")
CONFIDENCE_HEADER = ("observed_at", "rule_id", "confidence")
REPORT_TXT_HEADER = ("region", "status", "samples", "skipped", "span", "avg_min", "avg_max",
                     "top_rule", "confidence", "waves", "zones")


class RunReference(NamedTuple):
    """A run's output, each value as it reads back from its file.

    files maps each file name to its rows, header first: records.csv as
    text cells, index.csv with 50-digit values, the other CSVs typed, and
    report.txt as its whitespace-split lines without the dashed one.
    report holds report.jsonl's objects, the head first.
    """

    files: dict[str, list[tuple]]
    report: list[dict]
    rejected_blocks: int


def _label(episode: tuple[int, ...], k: int) -> str:
    names = ("LOW", "MID", "HIGH") if k == 3 else [f"C{c}" for c in range(k)]
    return "+".join(names[c] for c in episode)


def _num(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def run_reference(dump_texts, config, index_values=None) -> RunReference:
    """What a run over dump_texts with config's parameters writes, from the
    definitions: walk_lines, round_half_away_reference, index_reference,
    mine_rules_brute, confidence_brute and plain code.  Default calibration.

    index.csv's values are index_reference's.  The band, the classes and the
    advisories start from index_values[region], the program's index.csv read
    back, when given, so that the index's tolerance cannot flip a class; else
    from index_reference rounded to a float.
    """
    assert config.calibration_path is None
    delta = timedelta(seconds=config.delta_s)
    lag_s = config.delta_s if config.lag_s is None else config.lag_s
    windows = tuple(timedelta(seconds=s) for s in (config.win_a_s, config.win_c_s, lag_s))
    spans = [w.total_seconds() for w in windows]

    # Parse, decode and group by region name; a block whose words are no
    # whole triples is rejected, and one with no words adds no region.
    by_region: dict[str, list[tuple]] = {}
    rejected = 0
    for text in dump_texts:
        for block in walk_lines(text):
            words = [int.from_bytes(block.payload[i : i + 2], "big")
                     for i in range(0, len(block.payload), 2)]
            if len(words) % 3:
                rejected += 1
                continue
            h = block.header
            region = (f"{h.platform_id}_{math.floor(h.latitude / config.cell_size)}"
                      f"_{math.floor(h.longitude / config.cell_size)}")
            for level, i in enumerate(range(0, len(words), 3), start=1):
                values = [
                    round_half_away_reference(offset + word * resolution, decimals)
                    for word, (_, offset, resolution, decimals) in zip(words[i : i + 3], CHANNELS)
                ]
                by_region.setdefault(region, []).append((h.observed_at, level, *values))

    files: dict[str, list[tuple]] = {}
    rows: list[dict] = []
    for region in sorted(by_region):
        records = sorted(by_region[region])
        files[f"records_{region}.csv"] = [RECORDS_HEADER] + [
            (region, ts.isoformat(), str(level),
             *(f"{v:.{decimals}f}" for v, (*_, decimals) in zip(values, CHANNELS)))
            for ts, level, *values in records
        ]
        kept = [(ts, t, s, p) for ts, _, t, s, p in records if p > config.pressure_floor]
        times = [ts for ts, *_ in kept]
        exact = [index_reference(t, s, p) for _, t, s, p in kept]
        values = (index_values or {}).get(region) or [float(n) for n in exact]
        row = dict(
            region=region, status="ok", sample_count=len(kept),
            skipped=len(records) - len(kept), first_seen=records[0][0],
            last_seen=records[-1][0], avg_min=None, avg_max=None, window_len=None,
            top_rule=None, top_confidence=None,
        )
        rules, curve, advisories = [], [], []
        if not kept:
            row["status"] = "all-samples-rejected"
        else:
            # the band, one loop over windows; strong waves, one comparison a sample
            starts = range(0, len(values), config.window_len)
            total_min = total_max = 0.0
            for i in starts:
                total_min += min(values[i : i + config.window_len])
                total_max += max(values[i : i + config.window_len])
            avg_min, avg_max = total_min / len(starts), total_max / len(starts)
            row.update(avg_min=avg_min, avg_max=avg_max, window_len=config.window_len)
            for ts, v in zip(times, values, strict=True):
                if v < avg_min or v > avg_max:
                    bound = avg_min if v < avg_min else avg_max
                    advisories.append(("strong_wave", ts, v, bound, None))
            # quantile classes, then events split on gaps above delta
            bounds = np.quantile(values, [c / config.k for c in range(1, config.k)])
            events: list[list[tuple[datetime, int]]] = []
            for ts, v in zip(times, values):
                if not events or ts - events[-1][-1][0] > delta:
                    events.append([])
                events[-1].append((ts, int((bounds < v).sum())))
            rules = mine_rules_brute(events, config.min_support, config.max_len, windows)
        if rules:
            ant, cons, _, top_confidence = rules[0]
            top = f"{_label(ant, config.k)}=>{_label(cons, config.k)}"
            row.update(top_rule=top, top_confidence=top_confidence)
            # every point on the delta grid from the first event's start to the
            # last event's end, over the events started by then
            point = _EPOCH + (events[0][0][0] - _EPOCH) // delta * delta
            while True:
                started = [ev for ev in events if ev[0][0] <= point]
                curve.append((point, confidence_brute(started, ant, cons, *windows)))
                if point >= events[-1][-1][0]:
                    break
                point += delta
            peak = max(conf for _, conf in curve)
            if peak >= config.theta:
                advisories += [("fishing_zone", ts, conf, config.theta, top)
                               for ts, conf in curve if conf == peak]
        advisories.sort(key=lambda a: (a[1], a[0], a[4] or ""))
        row["advisories"] = [
            dict(kind=kind, at=ts.isoformat(), value=value, threshold=threshold, rule=rule)
            for kind, ts, value, threshold, rule in advisories
        ]
        rows.append(row)
        files[f"rules_{region}.csv"] = [RULES_HEADER] + [
            (_label(ant, config.k), _label(cons, config.k), *spans, support, confidence)
            for ant, cons, support, confidence in rules
        ]
        if config.write_plots:
            files[f"index_{region}.csv"] = [INDEX_HEADER] + [
                (ts.isoformat(), n) for ts, n in zip(times, exact)
            ]
            files[f"confidence_{region}.csv"] = [CONFIDENCE_HEADER] + [
                (ts.isoformat(), row["top_rule"] or "", conf) for ts, conf in curve
            ]

    generated_at = max(row["last_seen"] for row in rows).isoformat()
    text = [("advisory", "report", f"generated_at={generated_at}"), REPORT_TXT_HEADER]
    for row in rows:
        kinds = [a["kind"] for a in row["advisories"]]
        row.update(first_seen=row["first_seen"].isoformat(), last_seen=row["last_seen"].isoformat())
        text.append((
            row["region"], row["status"], str(row["sample_count"]), str(row["skipped"]),
            f"{row['first_seen']}..{row['last_seen']}", _num(row["avg_min"]),
            _num(row["avg_max"]), row["top_rule"] or "-", _num(row["top_confidence"]),
            str(kinds.count("strong_wave")), str(kinds.count("fishing_zone")),
        ))
    files["report.txt"] = text
    report = [{"generated_at": generated_at, "regions": len(rows)}, *rows]
    return RunReference(files, report, rejected)
