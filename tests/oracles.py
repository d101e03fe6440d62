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

import mpmath

from oceanmine import telemetry
from oceanmine.errors import DataError
from oceanmine.telemetry import HeaderFields, MessageBlock, parse_header

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

# A dump read one line at a time.  It shares parse_header and the token
# patterns with oceanmine.telemetry; on its own it decides how lines become
# blocks and spans, and which line an error names.

# One line and its ending; only LF, CR and CRLF end a line.
LINE_RE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")
# A data line's tokens joined by single spaces, all of them byte tokens.
_HEX_LINE_RE = re.compile(r"(?:[0-9a-fA-F]{2}(?: [0-9a-fA-F]{2})*)?")


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
            bad = next(tok for tok in tokens if not telemetry._HEX_RE.fullmatch(tok))
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

        if telemetry._PLATFORM_RE.fullmatch(tokens[0]):
            if current is not None:
                blocks.append(current.finish())
            header = parse_header(raw, line_no)
            current = _BlockBuilder(header, line_no)
            continue

        if current is None:
            raise DataError("data line before any header", line=line_no)

        if telemetry._DATE_RE.fullmatch(tokens[0]):
            if len(tokens) < 2 or not telemetry._TIME_RE.fullmatch(tokens[1]):
                raise DataError(
                    f"block time line missing time token: {raw.strip()!r}", line=line_no
                )
            stamp = telemetry._parse_timestamp(tokens[0], tokens[1], line_no)
            if not current.restamped:
                current.header = current.header._replace(observed_at=stamp)
                current.restamped = True
            rest = tokens[2:]
            if rest:
                if not telemetry._DIGITS_RE.fullmatch(rest[0]):
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
    """An event's (timestamp, class) samples, in order, read back from
    its occurrence table: item i has the symbol whose positions hold i,
    at the start plus its slot's ticks in microseconds."""
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
