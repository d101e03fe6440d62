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
by the number of events containing the antecedent at all.  The windows
and the lag belong to the mining run (Mannila et al., 1997), not to a rule.

Each event is its own occurrence table, built while segmenting: each
symbol's item positions (Zaki's SPADE id-lists, 2001) and each item's
distinct-timestamp slot, and every count is read from it.  Episodes grow
by bisecting the next symbol's positions.  A rule holds in an event iff
the slots within lag after an antecedent end meet the consequent's
start slots, tested on bitmasks (as in SPAM, Ayres et al., 2002).  The
cumulative confidence curve reads the same tables.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from datetime import datetime, timedelta
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .errors import ConfigError
from .oscillation import IndexSample

Episode = tuple[int, ...]
Match = tuple[int, int]  # a greedy match's start and end item positions
Windows = tuple[timedelta, timedelta, timedelta]  # win_a, win_c, lag

_US = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1)

# Class labels for the default three-way split; other alphabets fall
# back to numbered classes.
_K3_LABELS = ("LOW", "MID", "HIGH")


class Event(NamedTuple):
    """A maximal run of samples with bounded inter-sample gaps, as its
    occurrence table: each item's slot (its time's rank among the
    distinct times), each slot's time in whole microseconds after the
    start, and each symbol's item positions."""

    start: datetime
    slots: list[int]
    ticks: list[int]
    where: dict[int, list[int]]


class EpisodeRule(NamedTuple):
    antecedent: Episode
    consequent: Episode
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
    """Split time-ordered (timestamp, class) pairs on gaps above delta,
    filling each event's table in the same walk."""
    events: list[Event] = []
    prev: datetime | None = None
    for ts, sym in samples:
        if prev is None or ts - prev > delta:
            start, slots, ticks, where = ts, [], [0], {}
            events.append(Event(start, slots, ticks, where))
        elif ts != prev:
            ticks.append((ts - start) // _US)
        prev = ts
        where.setdefault(sym, []).append(len(slots))
        slots.append(len(ticks) - 1)
    return events


def build_events(series: Sequence[IndexSample], delta: timedelta, k: int) -> list[Event]:
    """Discretize a series and segment it into events."""
    return segment_events(discretize(series, k), delta)


# --- occurrence table ------------------------------------------------------


def _extend(ev: Event, matches: list[Match], sym: int, window: int) -> list[Match]:
    """Greedy matches of an episode plus sym, from the episode's own.

    Taking each symbol as early as possible minimises the span.  Ends
    rise with starts, so once no sym follows a match, none follows later.
    """
    _, slots, ticks, where = ev
    nxt, out, j = where.get(sym, []), [], 0
    for p, q in matches:
        j = bisect_right(nxt, q, j)
        if j == len(nxt):
            break
        if ticks[slots[nxt[j]]] - ticks[slots[p]] <= window:
            out.append((p, nxt[j]))
    return out


def _matches(ev: Event, episode: Episode, window: int) -> list[Match]:
    """Greedy matches of episode within window, one per feasible start
    slot: a later start in a slot spans no less than the slot's first."""
    _, slots, _, where = ev
    matches: list[Match] = []
    for p in where.get(episode[0], []):
        if not matches or slots[matches[-1][0]] != slots[p]:
            matches.append((p, p))
    for sym in episode[1:]:
        matches = _extend(ev, matches, sym, window)
    return matches


def _end_slots(ev: Event, prefix: list[Match] | None, sym: int, window: int) -> list[int]:
    """Slots, ascending, of the feasible ends of prefix + (sym,).

    prefix holds the prefix's matches, or is None if it is empty.  An
    end is feasible iff the latest prefix match ending before it starts
    within window of it.
    """
    _, slots, ticks, where = ev
    out: list[int] = []
    i, p = 0, -1
    for q in where.get(sym, []):
        if prefix is None:
            p = q
        else:
            while i < len(prefix) and prefix[i][1] < q:
                p = prefix[i][0]
                i += 1
        t = slots[q]
        if p >= 0 and (not out or out[-1] != t) and ticks[t] - ticks[slots[p]] <= window:
            out.append(t)
    return out


def _reach(ticks: list[int], ends: list[int], lag: int) -> int:
    """Bitmask of the slots timed in (t, t + lag] for some end slot's
    time t; int ticks keep t + lag exact, where a datetime overflows."""
    reach = 0
    for e in ends:
        reach |= (1 << bisect_right(ticks, ticks[e] + lag)) - (2 << e)
    return reach


# --- mining ----------------------------------------------------------------


def frequent_episodes(
    events: Sequence[Event],
    min_support: int,
    max_len: int,
    window: timedelta,
) -> dict[Episode, list[list[Match]]]:
    """Level-wise enumeration of episodes with event count >= min_support.

    Maps each frequent episode to its matches per event (see _matches);
    its count is the number of non-empty lists.  Singles come from one
    pass over the events, in sorted order; a single symbol spans 0, so
    its matches do not depend on the window.  Length-n candidates extend
    frequent length-(n-1) episodes by one frequent symbol, in sorted
    order: an event holding an episode holds each of its symbols and,
    with the same occurrence, its prefix.  The search stops at the first
    empty level.
    """
    counts = Counter(sym for ev in events for sym in ev.where)
    alphabet = sorted(sym for sym, count in counts.items() if count >= min_support)
    freq = {(sym,): [_matches(ev, (sym,), 0) for ev in events] for sym in alphabet}
    span, level = window // _US, list(freq)
    while level and len(level[0]) < max_len:
        nxt: list[Episode] = []
        for ep in level:
            for s in alphabet:
                matches = [m and _extend(ev, m, s, span) for ev, m in zip(events, freq[ep])]
                if sum(1 for m in matches if m) >= min_support:
                    freq[ep + (s,)] = matches
                    nxt.append(ep + (s,))
        level = nxt
    return freq


def mine_rules(
    events: Sequence[Event],
    min_support: int,
    max_len: int,
    windows: Windows,
) -> list[EpisodeRule]:
    """Mine every rule with support >= min_support at the run's
    windows (win_a, win_c, lag), deterministically.

    A rule's support never exceeds either side's event count, so
    candidate pairs come from the frequent sets.  One int packs each
    consequent's start masks (matches have distinct start slots) or
    antecedent's reach masks, with each event in whole bytes: a bit per
    slot and a guard bit above, which adding `low` to a pair's AND
    carries into iff the event holds the rule.  Output is sorted by
    confidence desc, support desc, then lexicographically.
    """
    win_a, win_c, lag = windows
    freq_a = frequent_episodes(events, min_support, max_len, win_a)
    freq_c = freq_a if win_c == win_a else frequent_episodes(
        events, min_support, max_len, win_c
    )
    sizes = [len(ev.ticks) // 8 + 1 for ev in events]

    def pack(masks: Iterable[int]) -> int:
        fields = b"".join(m.to_bytes(n, "little") for m, n in zip(masks, sizes))
        return int.from_bytes(fields, "little")

    low = pack((1 << len(ev.ticks)) - 1 for ev in events)
    guard = pack(1 << len(ev.ticks) for ev in events)
    starts = {
        ep: pack(sum(1 << ev.slots[p] for p, _ in m) for ev, m in zip(events, freq_c[ep]))
        for ep in sorted(freq_c)
    }
    span, reach_us = win_a // _US, lag // _US
    rules: list[EpisodeRule] = []
    for antecedent in sorted(freq_a):
        n_ant = sum(1 for m in freq_a[antecedent] if m)
        prefixes = freq_a.get(antecedent[:-1], [None] * len(events))
        reach = pack(
            _reach(ev.ticks, _end_slots(ev, pre, antecedent[-1], span), reach_us)
            for ev, pre in zip(events, prefixes)
        )
        for consequent, start in starts.items():
            sup = (((reach & start) + low) & guard).bit_count()
            if sup >= min_support:
                rules.append(EpisodeRule(antecedent, consequent, sup, sup / n_ant))
    # Pairs were scored in lexicographic order, and a reverse sort keeps
    # equal keys in input order, so ties stay lexicographic.
    rules.sort(key=itemgetter(3, 2), reverse=True)
    return rules


# --- cumulative confidence -------------------------------------------------


def confidence_series(
    events: Sequence[Event],
    rule: EpisodeRule,
    windows: Windows,
    step: timedelta,
) -> list[tuple[datetime, float]]:
    """Cumulative-prefix confidence of a rule on a step-aligned grid.

    Grid points are whole multiples of step covering the events' span;
    the value at each point is the rule's confidence, at the mining
    run's windows (win_a, win_c, lag), over only the events that have
    started by then.  Each event's table gives whether it holds the
    antecedent and whether it holds the rule; the events are then sorted
    by start and the grid is walked with running counts, so each point is
    the same integer ratio a recomputation over the prefix would give.
    Points before the first event carry 0.

    A mined rule has support >= 1, so events is never empty.  The step
    (delta, in the pipeline) is positive: at delta 0 an event holds one
    timestamp, no antecedent end precedes a consequent start, and so no
    rule is mined.  A valid but huge step that puts grid points outside
    the calendar raises ConfigError.
    """
    ant = rule.antecedent
    win_a, win_c, lag = (w // _US for w in windows)
    held = []
    for ev in events:
        pre = _matches(ev, ant[:-1], win_a) if len(ant) > 1 else None
        ends = _end_slots(ev, pre, ant[-1], win_a)
        start = sum(1 << ev.slots[p] for p, _ in _matches(ev, rule.consequent, win_c))
        held.append((ev.start, bool(ends), (_reach(ev.ticks, ends, lag) & start) != 0))
    held.sort()
    end = max(ev.start + ev.ticks[-1] * _US for ev in events)
    step_s = step.total_seconds()
    n0 = math.floor((held[0][0] - _EPOCH).total_seconds() / step_s)
    n1 = math.ceil((end - _EPOCH).total_seconds() / step_s)
    try:
        grid = [_EPOCH + timedelta(seconds=n * step_s) for n in range(n0, n1 + 1)]
    except OverflowError:
        raise ConfigError(f"step {step} puts grid points outside the calendar") from None
    curve = []
    i = n_ant = n_pair = 0
    for t in grid:
        while i < len(held) and held[i][0] <= t:
            n_ant += held[i][1]
            n_pair += held[i][2]
            i += 1
        curve.append((t, n_pair / n_ant if n_ant else 0.0))
    return curve
