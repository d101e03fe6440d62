"""Time-lagged episode rule mining over discretized index series.

The series is cut into events (maximal runs whose inter-sample gaps
stay within delta), values are discretized into k quantile classes,
and serial episodes (ordered symbol sequences) are mined level-wise.
A rule

    antecedent [win_a]  =>  consequent [win_c]   after lag

holds in an event when the antecedent occurs as a time-ordered
subsequence spanning at most win_a, and the consequent occurs as a
subsequence spanning at most win_c whose first sample falls strictly
after the antecedent's last sample but no later than lag after it.
Support counts events (binary per event), confidence divides support
by the number of events containing the antecedent at all.

Every count is read from one occurrence table: for an episode and a
window, one greedy scan per event gives its feasible start times, and
the same scan over the reversed event gives its feasible end times
(the minimal-occurrence idea of Mannila, Toivonen & Verkamo, 1997).
Episode counts are the events with a non-empty list, and the search
keeps each frequent episode's start lists (a vertical id-list, as in
Zaki's SPADE, 2001).  A rule holds in an event when some antecedent
end and consequent start are lag-paired.
The cumulative confidence curve scans each event once and walks the
grid with running antecedent and rule counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence

from .errors import ConfigError
from .oscillation import IndexSample

Episode = tuple[int, ...]

_EPOCH = datetime(1970, 1, 1)

# Class labels for the default three-way split; other alphabets fall
# back to numbered classes.
_K3_LABELS = ("LOW", "MID", "HIGH")


@dataclass(frozen=True)
class Event:
    """A maximal run of samples with bounded inter-sample gaps."""

    items: tuple[tuple[datetime, int], ...]

    @property
    def start(self) -> datetime:
        return self.items[0][0]

    @property
    def end(self) -> datetime:
        return self.items[-1][0]


@dataclass(frozen=True)
class EpisodeRule:
    antecedent: Episode
    consequent: Episode
    win_a: timedelta
    win_c: timedelta
    lag: timedelta
    support: int
    confidence: float


def symbol_label(class_id: int, k: int) -> str:
    if k == 3 and 0 <= class_id < 3:
        return _K3_LABELS[class_id]
    return f"C{class_id}"


def episode_label(episode: Episode, k: int) -> str:
    return "+".join(symbol_label(s, k) for s in episode)


def rule_id(rule: EpisodeRule, k: int) -> str:
    return f"{episode_label(rule.antecedent, k)}=>{episode_label(rule.consequent, k)}"


# --- discretization and event segmentation -------------------------------


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Type-7 sample quantile of ascending values (Hyndman & Fan, 1996).

    The arithmetic is numpy's "linear" method step for step, so on
    finite values the result equals np.quantile(values, q) bit for bit
    (zeros of either sign compare equal and may sort in either order).
    """
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    if lo + 1 >= len(ordered):
        return ordered[-1]
    a, b = ordered[lo], ordered[lo + 1]
    t = h - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def discretize(series: Sequence[IndexSample], k: int) -> list[tuple[datetime, int]]:
    """Map each sample to a quantile class in [0, k).

    Class boundaries are the k-quantiles of this series' values; a
    value lands in class c when it lies strictly above c boundaries,
    so intervals are half-open with the top class closed above.  A
    constant series maps everything to class 0.  Boundaries rise with
    their rank, so each class is a binary search over them and any k
    costs O(log k) boundary lookups per sample; each boundary is
    computed once per call.  The search takes len(range(1, k)), so k
    lies in [1, sys.maxsize].
    """
    ordered = sorted([s.n_value for s in series])
    bounds: dict[int, float] = {}

    def boundary(i: int) -> float:
        if i not in bounds:
            bounds[i] = _quantile(ordered, i / k)
        return bounds[i]

    return [(s.observed_at, bisect_left(range(1, k), s.n_value, key=boundary)) for s in series]


def segment_events(
    samples: Iterable[tuple[datetime, int]], delta: timedelta
) -> list[Event]:
    """Split time-ordered (timestamp, class) pairs on gaps above delta."""
    events: list[Event] = []
    run: list[tuple[datetime, int]] = []
    prev: datetime | None = None
    for ts, sym in samples:
        if prev is not None and ts - prev > delta:
            events.append(Event(items=tuple(run)))
            run = []
        run.append((ts, sym))
        prev = ts
    if run:
        events.append(Event(items=tuple(run)))
    return events


def build_events(series: Sequence[IndexSample], delta: timedelta, k: int) -> list[Event]:
    """Discretize a series and segment it into events."""
    return segment_events(discretize(series, k), delta)


# --- occurrence table ------------------------------------------------------


def _feasible_starts(
    items: Sequence[tuple[datetime, int]], episode: Episode, window: timedelta
) -> list[datetime]:
    """Times at which an occurrence of episode can begin, span <= window.

    For a fixed start, matching each later symbol as early as possible
    minimises the span, so a start is feasible iff the greedy match
    fits the window.  Once a greedy match runs out of items, no later
    start can complete either.  Run over reversed items and a reversed
    episode, the same scan yields feasible ends, latest first; the span
    is an absolute difference so the test holds in both directions.
    """
    n = len(items)
    out = []
    for i in range(n - len(episode) + 1):
        if items[i][1] != episode[0]:
            continue
        j = i
        for sym in episode[1:]:
            j += 1
            while j < n and items[j][1] != sym:
                j += 1
            if j >= n:
                return out
        if abs(items[j][0] - items[i][0]) <= window:
            out.append(items[i][0])
    return out


def _occurrences(
    events: Sequence[Event], episode: Episode, window: timedelta, ends: bool = False
) -> list[list[datetime]]:
    """One scan per event: the episode's feasible start (or end) times, ascending."""
    if not ends:
        return [_feasible_starts(ev.items, episode, window) for ev in events]
    back = episode[::-1]
    return [_feasible_starts(ev.items[::-1], back, window)[::-1] for ev in events]


def _lag_paired(ends: list[datetime], starts: list[datetime], lag: timedelta) -> bool:
    """Whether some end e and start s satisfy e < s <= e + lag (ends ascending)."""
    for s in starts:
        i = bisect_left(ends, s)
        if i and s - ends[i - 1] <= lag:
            return True
    return False


# --- mining ----------------------------------------------------------------


def frequent_episodes(
    events: Sequence[Event],
    min_support: int,
    max_len: int,
    window: timedelta,
    singles: dict[Episode, list[list[datetime]]] | None = None,
) -> dict[Episode, list[list[datetime]]]:
    """Level-wise enumeration of episodes with event count >= min_support.

    Maps each frequent episode to its feasible starts per event; its
    count is the number of non-empty lists.  A single symbol spans 0, so
    it fits any window and is counted in one pass over each event's
    symbol set; for the same reason its starts do not depend on the
    window, and singles, when given, are the length-1 entries of an
    earlier call on the same events and min_support, reused as they are.
    Length-n candidates extend frequent length-(n-1) episodes by one
    frequent symbol, in sorted order: an event holding an episode holds
    each of its symbols and, with the same occurrence, its prefix, so
    nothing frequent is missed.  The search stops at the first empty
    level.
    """
    if singles is None:
        counts = Counter(s for ev in events for s in {sym for _, sym in ev.items})
        frequent = sorted(sym for sym, count in counts.items() if count >= min_support)
        singles = {(sym,): _occurrences(events, (sym,), window) for sym in frequent}
    alphabet = [sym for (sym,) in singles]
    freq = dict(singles)
    level = list(freq)
    while level and len(level[0]) < max_len:
        nxt: list[Episode] = []
        for ep in level:
            for s in alphabet:
                cand = ep + (s,)
                starts = _occurrences(events, cand, window)
                if sum(1 for st in starts if st) >= min_support:
                    freq[cand] = starts
                    nxt.append(cand)
        level = nxt
    return freq


def mine_rules(
    events: Sequence[Event],
    min_support: int,
    max_len: int,
    win_a: timedelta,
    win_c: timedelta,
    lag: timedelta,
) -> list[EpisodeRule]:
    """Mine every rule with support >= min_support, deterministically.

    A rule's support never exceeds the event count of either side, so
    candidate pairs come from the frequent episode sets, which hold the
    consequent starts; each antecedent's ends are scanned once, and
    every pair is scored from those lists.  Output is sorted by
    confidence desc, support desc, then lexicographically.
    """
    freq_a = frequent_episodes(events, min_support, max_len, win_a)
    if win_c == win_a:
        freq_c = freq_a
    else:
        singles = {ep: starts for ep, starts in freq_a.items() if len(ep) == 1}
        freq_c = frequent_episodes(events, min_support, max_len, win_c, singles)
    rules: list[EpisodeRule] = []
    for antecedent, ant_starts in freq_a.items():
        n_ant = sum(1 for st in ant_starts if st)
        ends = _occurrences(events, antecedent, win_a, ends=True)
        for consequent, starts in freq_c.items():
            sup = sum(1 for e, s in zip(ends, starts) if _lag_paired(e, s, lag))
            if sup < min_support:
                continue
            rules.append(
                EpisodeRule(
                    antecedent=antecedent,
                    consequent=consequent,
                    win_a=win_a,
                    win_c=win_c,
                    lag=lag,
                    support=sup,
                    confidence=sup / n_ant,
                )
            )
    rules.sort(
        key=lambda r: (-r.confidence, -r.support, r.antecedent, r.consequent)
    )
    return rules


# --- cumulative confidence -------------------------------------------------


def _to_epoch(ts: datetime) -> float:
    return (ts - _EPOCH).total_seconds()


def _from_epoch(seconds: float) -> datetime:
    return _EPOCH + timedelta(seconds=seconds)


def confidence_series(
    events: Sequence[Event],
    rule: EpisodeRule,
    step: timedelta,
) -> list[tuple[datetime, float]]:
    """Cumulative-prefix confidence of a rule on a step-aligned grid.

    Grid points are whole multiples of step covering the events' span;
    the value at each point is the rule's confidence over only the
    events that have started by then.  Each event's antecedent ends and
    consequent starts are scanned once, giving whether it holds the
    antecedent and whether it holds the rule; the events are then sorted
    by start and the grid is walked with running counts, so each point
    is the same integer ratio a recomputation over the prefix would
    give.  Points before the first event carry 0.

    A mined rule has support >= 1, so events is never empty.  The step
    (delta, in the pipeline) is positive: at delta 0 an event holds one
    timestamp, no antecedent end precedes a consequent start, and so no
    rule is mined.  A valid but huge step that puts grid points outside
    the calendar raises ConfigError.
    """
    ends = _occurrences(events, rule.antecedent, rule.win_a, ends=True)
    starts = _occurrences(events, rule.consequent, rule.win_c)
    table = sorted(
        (ev.start, bool(e), _lag_paired(e, s, rule.lag))
        for ev, e, s in zip(events, ends, starts)
    )
    span_lo = table[0][0]
    span_hi = max(ev.end for ev in events)
    step_s = step.total_seconds()
    n0 = math.floor(_to_epoch(span_lo) / step_s)
    n1 = math.ceil(_to_epoch(span_hi) / step_s)
    try:
        grid = [_from_epoch(n * step_s) for n in range(n0, n1 + 1)]
    except OverflowError:
        raise ConfigError(f"step {step} puts grid points outside the calendar") from None
    curve = []
    i = n_ant = n_pair = 0
    for t in grid:
        while i < len(table) and table[i][0] <= t:
            n_ant += table[i][1]
            n_pair += table[i][2]
            i += 1
        curve.append((t, n_pair / n_ant if n_ant else 0.0))
    return curve
