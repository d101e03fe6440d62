from __future__ import annotations

import random
import struct
import sys
from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oceanmine import episodes
from oceanmine.episodes import (
    EpisodeRule,
    build_events,
    confidence_series,
    discretize,
    episode_label,
    frequent_episodes,
    mine_rules,
    rule_id,
    segment_events,
)
from oceanmine.errors import ConfigError
from oceanmine.oscillation import IndexSample

import oracles
from helpers import config_with
from oracles import at

A, B, C = 0, 1, 2
Z = timedelta(0)


def ev(*pairs):
    """One event of (seconds, class) pairs, whatever their gaps."""
    (event,) = segment_events([(at(t), s) for t, s in pairs], timedelta.max)
    return event


class Lookups(dict):
    """An event's symbol positions that count lookups by symbol."""

    def __init__(self, where):
        super().__init__(where)
        self.counts = Counter()

    def get(self, key, default=None):
        self.counts[key] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.counts[key] += 1
        return super().__getitem__(key)


def counted(*pairs):
    event = ev(*pairs)
    return event._replace(where=Lookups(event.where))


def curve_lookups(events, rule, windows):
    """Each event's lookups in one confidence_series call, at steps of
    100, 10 and 1 s."""
    out = []
    for step_s in (100, 10, 1):
        before = [e.where.counts.total() for e in events]
        confidence_series(events, rule, windows, timedelta(seconds=step_s))
        out.append([e.where.counts.total() - b for e, b in zip(events, before)])
    return out


def series_of(values, spacing_s=1.0, start_s=0.0):
    return [
        IndexSample(at(start_s + i * spacing_s), float(v))
        for i, v in enumerate(values)
    ]


# Index values are finite and never -0.0 (every term is added to a
# positive constant); zeros of either sign compare equal, so a sort may
# leave them in any order.  The sampled pool makes ties common.
_values = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-1.5, 0.0, 2.0]),
    ).map(lambda v: v + 0.0),
    min_size=1,
    max_size=30,
)

# Two values whose difference overflows: numpy's interpolation and
# episodes._quantile both reach an infinite boundary here.
_OVERFLOWING = [1.7976931348623155e308, -2.9937604643020797e292]
# Here the difference overflows where the interpolation weight is 0, so
# numpy computes inf * 0.0: both sides return the same NaN.
_INF_TIMES_ZERO = [1.7976931348623157e308] * 4 + [-9.9792015476736e291] * 3


def np_quantile(values, q):
    """numpy's quantile, the oracle for episodes._quantile.

    numpy warns when ``b - a`` overflows in its interpolation, and when
    that infinity is then multiplied by a weight of 0, where _quantile
    does the same arithmetic without a warning; the two results are
    still compared bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.quantile(values, q))


# Reference events for the support/confidence examples: three events,
# all samples one second apart globally.
EVENTS_ABC = [ev((1, A), (2, B)), ev((3, A), (4, C)), ev((5, B), (6, B))]
LAG2 = timedelta(seconds=2)


# Gaps in microseconds: ties, sub-second steps and steps of seconds.
_gaps = st.one_of(
    st.just(0), st.integers(1, 999_999), st.integers(1, 4).map(lambda s: s * 10**6)
)
_deltas = st.one_of(
    st.just(Z),
    st.integers(1, 3 * 10**6).map(lambda us: timedelta(microseconds=us)),
    st.just(timedelta.max),
)


class TestSegmentEvents:
    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(st.tuples(_gaps, st.integers(0, 3)), max_size=30), delta=_deltas)
    @example(steps=[(0, A), (0, B), (500_000, A), (0, C), (10**6, A)], delta=Z)
    def test_table_reads_back_as_the_samples(self, steps, delta):
        samples, t = [], at(1e9 + 0.25)
        for gap, sym in steps:
            t += timedelta(microseconds=gap)
            samples.append((t, sym))
        runs = []
        for i, (ts, _) in enumerate(samples):
            if i == 0 or ts - samples[i - 1][0] > delta:
                runs.append([])
            runs[-1].append(samples[i])
        events = segment_events(samples, delta)
        assert [oracles.items_of(e) for e in events] == runs
        # an event ends at its start plus its last slot's ticks
        ends = [e.start + timedelta(microseconds=e.ticks[-1]) for e in events]
        assert ends == [run[-1][0] for run in runs]

    def test_gap_splits(self):
        samples = [(at(0), A), (at(10), B), (at(100), A), (at(110), B)]
        events = segment_events(samples, timedelta(seconds=30))
        assert [len(e.slots) for e in events] == [2, 2]
        assert events[0].start == at(0)
        assert events[1].start == at(100)

    def test_single_event_when_delta_large(self):
        samples = [(at(0), A), (at(10), B), (at(100), A)]
        (event,) = segment_events(samples, timedelta(seconds=1000))
        assert len(event.slots) == 3

    def test_equal_timestamps_never_split(self):
        samples = [(at(0), A), (at(0), B), (at(0), C)]
        (event,) = segment_events(samples, Z)
        assert len(event.slots) == 3

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError):
            config_with(delta_s=-1.0).validate()


class TestDiscretize:
    def test_six_values_three_classes(self):
        out = discretize(series_of([1, 2, 3, 4, 5, 6]), k=3)
        assert [c for _, c in out] == [0, 0, 1, 1, 2, 2]

    def test_two_values_two_classes(self):
        out = discretize(series_of([-1, 1]), k=2)
        assert [c for _, c in out] == [0, 1]

    def test_constant_series_all_class_zero(self):
        out = discretize(series_of([4.2] * 5), k=3)
        assert [c for _, c in out] == [0] * 5

    def test_empty_series_has_no_classes(self):
        assert discretize([], k=3) == []

    def test_k_one_all_class_zero(self):
        out = discretize(series_of([1, 5, 9]), k=1)
        assert [c for _, c in out] == [0, 0, 0]

    def test_deterministic(self):
        series = series_of([3, 1, 4, 1, 5, 9, 2, 6])
        assert discretize(series, 3) == discretize(series, 3)

    def test_classes_in_range(self):
        rng = random.Random(3)
        for _ in range(50):
            k = rng.randint(1, 5)
            series = series_of([rng.uniform(-10, 10) for _ in range(rng.randint(1, 30))])
            out = discretize(series, k)
            assert all(0 <= c < k for _, c in out)

    def test_bad_k(self):
        # discretize's bisect needs len(range(1, k))
        for k in (0, sys.maxsize + 1):
            with pytest.raises(ConfigError):
                config_with(k=k).validate()

    @settings(max_examples=300, deadline=None)
    @given(values=_values, k=st.integers(2, 20))
    @example(values=[5.0], k=3)
    @example(values=_OVERFLOWING, k=2)
    @example(values=_INF_TIMES_ZERO, k=3)
    def test_quantile_matches_numpy_bit_for_bit(self, values, k):
        ordered = sorted(values)
        for i in range(1, k):
            ours = episodes._quantile(ordered, i / k)
            ref = np_quantile(values, i / k)
            assert struct.pack("<d", ours) == struct.pack("<d", ref), (i, k)

    @settings(max_examples=300, deadline=None)
    @given(values=_values, k=st.integers(1, 13))
    @example(values=_OVERFLOWING, k=2)
    @example(values=_INF_TIMES_ZERO, k=3)
    def test_classes_match_enumerating_every_boundary(self, values, k):
        bounds = [np_quantile(values, i / k) for i in range(1, k)]
        want = [sum(1 for b in bounds if v > b) for v in values]
        assert [c for _, c in discretize(series_of(values), k)] == want

    def test_huge_k_takes_few_quantiles(self, monkeypatch):
        calls = []
        real = episodes._quantile
        monkeypatch.setattr(
            episodes, "_quantile", lambda o, q: calls.append(q) or real(o, q)
        )
        out = discretize(series_of([3, 1, 4, 1, 5]), k=10**12)
        assert [c for _, c in out] == [499999999999, 0, 749999999999, 0, 999999999999]
        assert len(calls) <= 5 * 41

    def test_each_boundary_computed_once(self, monkeypatch):
        rng = random.Random(5)
        values = [rng.uniform(-10, 10) for _ in range(200)]
        ordered = sorted(values)
        bounds = [episodes._quantile(ordered, i / 3) for i in (1, 2)]
        calls = []
        real = episodes._quantile
        monkeypatch.setattr(
            episodes, "_quantile", lambda o, q: calls.append(q) or real(o, q)
        )
        out = discretize(series_of(values), k=3)
        assert [c for _, c in out] == [sum(1 for b in bounds if v > b) for v in values]
        assert sorted(calls) == [1 / 3, 2 / 3]


def mined_support(antecedent, consequent, events, win_a, win_c, lag):
    """A rule's support as the miner reports it; an absent rule has 0."""
    max_len = max(len(antecedent), len(consequent))
    rules = mine_rules(events, min_support=1, max_len=max_len, windows=(win_a, win_c, lag))
    for r in rules:
        if (r.antecedent, r.consequent) == (antecedent, consequent):
            return r.support
    return 0


def final_confidence(antecedent, consequent, events, win_a, win_c, lag):
    """A rule's confidence over all events: the last confidence_series point."""
    rule = EpisodeRule(antecedent, consequent, 0, 0.0)
    curve = confidence_series(events, rule, (win_a, win_c, lag), timedelta(seconds=1))
    assert curve[-1][0] >= max(e.start for e in events)
    return curve[-1][1]


class TestSupportConfidence:
    def test_reference_events(self):
        assert mined_support((A,), (B,), EVENTS_ABC, Z, Z, LAG2) == 1
        assert final_confidence((A,), (B,), EVENTS_ABC, Z, Z, LAG2) == 0.5
        rules = mine_rules(EVENTS_ABC, min_support=1, max_len=1, windows=(Z, Z, LAG2))
        (rule,) = [r for r in rules if (r.antecedent, r.consequent) == ((A,), (B,))]
        assert (rule.support, rule.confidence) == (1, 0.5)

    def test_self_rule_needs_second_occurrence(self):
        lone = [ev((0, A))]
        eps = timedelta(seconds=1)
        assert mined_support((A,), (A,), lone, Z, Z, eps) == 0

    def test_consequent_must_start_strictly_later(self):
        # antecedent ends and consequent starts at the same instant: no pair
        tied = [ev((0, A), (0, B))]
        assert mined_support((A,), (B,), tied, Z, Z, LAG2) == 0

    def test_lag_bound_is_inclusive(self):
        events = [ev((0, A), (2, B))]
        assert mined_support((A,), (B,), events, Z, Z, timedelta(seconds=2)) == 1
        assert mined_support((A,), (B,), events, Z, Z, timedelta(seconds=1)) == 0

    def test_zero_lag_never_holds(self):
        events = [ev((0, A), (1, B))]
        assert mined_support((A,), (B,), events, Z, Z, Z) == 0

    def test_windows_bound_span(self):
        # antecedent A..B spans 3s; consequent C follows
        events = [ev((0, A), (3, B), (5, C))]
        w3 = timedelta(seconds=3)
        lag5 = timedelta(seconds=5)
        assert mined_support((A, B), (C,), events, w3, Z, lag5) == 1
        assert mined_support((A, B), (C,), events, timedelta(seconds=2), Z, lag5) == 0

    def test_late_antecedent_end_can_pair(self):
        # A@0 B@1 B@4 C@5: with win_a=4 the A..B occurrence ending at 4
        # reaches C@5 under lag 1 even though the earliest end is 1
        events = [ev((0, A), (1, B), (4, B), (5, C))]
        assert mined_support(
            (A, B), (C,), events, timedelta(seconds=4), Z, timedelta(seconds=1)
        ) == 1

    def test_confidence_inapplicable_is_zero(self):
        assert final_confidence((C,), (B,), EVENTS_ABC, Z, Z, LAG2) == 0.0

    def test_matches_brute_force_on_reference(self):
        got = mined_support((A,), (B,), EVENTS_ABC, Z, Z, LAG2)
        assert got == oracles.support_brute(EVENTS_ABC, (A,), (B,), Z, Z, LAG2)


class TestMineRules:
    def test_single_symbol_alphabet(self):
        events = [ev((0, A), (1, A), (2, A))]
        rules = mine_rules(
            events, min_support=1, max_len=1, windows=(Z, Z, timedelta(seconds=10))
        )
        assert len(rules) == 1
        (rule,) = rules
        assert rule.antecedent == (A,)
        assert rule.consequent == (A,)
        assert rule.support == 1
        assert rule.confidence == 1.0

    def test_min_support_filters(self):
        rules = mine_rules(EVENTS_ABC, min_support=2, max_len=2, windows=(Z, Z, LAG2))
        assert rules == []

    def test_sort_order(self):
        rng = random.Random(99)
        events, params = oracles.random_instance(rng)
        rules = mine_rules(events, **params)
        keys = [(-r.confidence, -r.support, r.antecedent, r.consequent) for r in rules]
        assert keys == sorted(keys)

    def test_deterministic(self):
        rng = random.Random(7)
        events, params = oracles.random_instance(rng)
        assert repr(mine_rules(events, **params)) == repr(mine_rules(events, **params))

    def test_matches_brute_force(self):
        rng = random.Random(20030110)
        for _ in range(40):
            events, params = oracles.random_instance(rng)
            assert mine_rules(events, **params) == oracles.mine_rules_brute(events, **params)

    def test_anti_monotone_supports(self):
        rng = random.Random(42)
        for _ in range(25):
            events, params = oracles.random_instance(rng)
            for window in params["windows"][:2]:
                freq = frequent_episodes(events, 1, params["max_len"], window)
                counts = {e: sum(1 for s in starts if s) for e, starts in freq.items()}
                for epi, count in counts.items():
                    for cut in range(1, len(epi)):
                        assert counts[epi[:cut]] >= count

    def test_negative_lag_rejected(self):
        with pytest.raises(ConfigError):
            config_with(lag_s=-1.0).validate()

    def test_negative_window_rejected(self):
        # a single symbol spans 0, which only a non-negative window admits
        for field in ("win_a_s", "win_c_s"):
            with pytest.raises(ConfigError):
                config_with(**{field: -1.0}).validate()

    @pytest.mark.parametrize("win_a_s, win_c_s", [(1, 1), (2, 1)])
    def test_each_event_walked_once(self, win_a_s, win_c_s):
        # A then B in every event, tied and not, plus symbols seen in one
        # event only; the rare ones must never be looked up
        events = [
            counted((10 * d, A), (10 * d, B), (10 * d + 1, A),
                    *((10 * d + 1, 3 + 4 * d + j) for j in range(d % 4)), (10 * d + 2, B))
            for d in range(30)
        ]
        windows = (timedelta(seconds=win_a_s), timedelta(seconds=win_c_s), LAG2)
        rules = mine_rules(events, min_support=2, max_len=3, windows=windows)
        assert {(r.antecedent, r.consequent) for r in rules} >= {((A, B), (B,))}
        for rule in (rules[0], rules[-1]):
            coarse, mid, fine = curve_lookups(events, rule, windows)
            assert coarse == mid == fine
            assert 0 not in fine
        assert all(set(e.where.counts) <= {A, B} for e in events)

    def test_lag_near_longest_duration(self):
        rules = mine_rules(EVENTS_ABC, min_support=1, max_len=1, windows=(Z, Z, timedelta.max))
        pairs = {(r.antecedent, r.consequent): r.support for r in rules}
        assert pairs[(A,), (B,)] == 1
        assert pairs[(B,), (B,)] == 1

    def test_support_bounded_by_events(self):
        rules = mine_rules(EVENTS_ABC, min_support=1, max_len=2, windows=(Z, Z, LAG2))
        for r in rules:
            assert 1 <= r.support <= len(EVENTS_ABC)
            assert 0.0 <= r.confidence <= 1.0


GAP = timedelta(hours=6)  # between the profiles of one event
DURATIONS = [Z, GAP, timedelta.max]


def profile_events(rng):
    """Events of one to three profiles GAP apart, whose levels share a timestamp."""
    events, t = [], 0
    for _ in range(rng.randint(1, 4)):
        samples = []
        for _ in range(rng.randint(1, 3)):
            samples += [(at(t), rng.randrange(3)) for _ in range(rng.randint(1, 4))]
            t += GAP.total_seconds()
        events += segment_events(samples, timedelta.max)
        t += 100 * GAP.total_seconds()
    return events


class TestProfileShapedEvents:
    """Events whose timestamps each hold several items, as a profile's
    levels do, at windows and lags of 0, the profile gap and the longest
    duration.  The brute-force oracle adds the lag to a timestamp, which
    overflows at timedelta.max; any lag of at least an event's span
    gives the same answer, so it is given the span of the longest event."""

    def test_matches_brute_force(self):
        rng = random.Random(2002)
        for _ in range(60):
            events = profile_events(rng)
            win_a, win_c, lag = (rng.choice(DURATIONS) for _ in range(3))
            params = dict(min_support=rng.randint(1, 2), max_len=rng.randint(1, 2))
            brute_lag = min(lag, max(oracles.items_of(e)[-1][0] - e.start for e in events))
            got = mine_rules(events, **params, windows=(win_a, win_c, lag))
            assert got == oracles.mine_rules_brute(
                events, **params, windows=(win_a, win_c, brute_lag)
            )
            for ant, cons in [((A,), (B,)), ((B, A), (A,)), ((A,), (C, A)), ((C, C), (B, B))]:
                rule = EpisodeRule(ant, cons, 0, 0.0)
                last = confidence_series(events, rule, (win_a, win_c, lag), GAP)[-1][1]
                want = oracles.confidence_brute(events, ant, cons, win_a, win_c, brute_lag)
                assert last == want, (ant, cons)


class TestConfidenceSeries:
    def test_reference_curve(self):
        rule = EpisodeRule((A,), (B,), 1, 0.5)
        curve = confidence_series(EVENTS_ABC, rule, (Z, Z, LAG2), timedelta(seconds=2))
        assert [c for _, c in curve] == [0.0, 1.0, 0.5, 0.5]
        assert [t for t, _ in curve] == [at(0), at(2), at(4), at(6)]

    def test_point_before_first_event_is_zero(self):
        events = [ev((3, A), (4, B))]
        rule = EpisodeRule((A,), (B,), 1, 1.0)
        curve = confidence_series(events, rule, (Z, Z, LAG2), timedelta(seconds=2))
        assert curve[0] == (at(2), 0.0)

    def test_matches_prefix_recomputation(self):
        rng = random.Random(11)
        for _ in range(20):
            events, params = oracles.random_instance(rng)
            rules = mine_rules(events, **params)
            if not rules:
                continue
            rule = rules[0]
            step = timedelta(seconds=rng.choice([1, 2, 5]))
            windows = params["windows"]
            curve = confidence_series(events, rule, windows, step)
            for t, conf in curve:
                prefix = [e for e in events if e.start <= t]
                want = oracles.confidence_brute(
                    prefix, rule.antecedent, rule.consequent, *windows
                )
                assert conf == want
                assert 0.0 <= conf <= 1.0

    def test_shuffled_events_match_prefix_recomputation(self):
        rng = random.Random(13)
        checked = 0
        for _ in range(40):
            events, params = oracles.random_instance(rng)
            rules = mine_rules(events, **params)
            if len(events) < 2 or not rules:
                continue
            shuffled = events[:]
            rng.shuffle(shuffled)
            rule = rules[rng.randrange(len(rules))]
            windows = params["windows"]
            for t, conf in confidence_series(shuffled, rule, windows, timedelta(seconds=1)):
                prefix = [e for e in shuffled if e.start <= t]
                assert conf == oracles.confidence_brute(
                    prefix, rule.antecedent, rule.consequent, *windows
                )
            checked += 1
        assert checked >= 5

    def test_scans_independent_of_grid_points(self):
        events = [counted((10 * d, A), (10 * d + 1, B), (10 * d + 2, A)) for d in range(30)]
        rule = EpisodeRule((A,), (B,), 1, 1.0)
        points = len(confidence_series(events, rule, (Z, Z, LAG2), timedelta(seconds=1)))
        assert points >= 290  # one point per second over the span
        coarse, mid, fine = curve_lookups(events, rule, (Z, Z, LAG2))
        assert coarse == mid == fine
        assert 0 not in fine

    @settings(max_examples=300, deadline=None)
    @given(
        first=st.datetimes(datetime(2000, 1, 1), datetime(2100, 1, 1)),
        step=st.timedeltas(timedelta(microseconds=1), timedelta(days=1)),
    )
    # first is a multiple of 123 us after the epoch; a grid placed in
    # float seconds put a 0.0 point one step before it
    @example(
        first=datetime(2010, 9, 10, 19, 47, 29, 378790), step=timedelta(microseconds=123)
    )
    def test_grid_is_exact_multiples_of_the_step(self, first, step):
        last = first + timedelta(microseconds=1)
        events = segment_events([(first, A), (last, B)], step)
        rule = EpisodeRule((A,), (B,), 1, 1.0)
        curve = confidence_series(events, rule, (Z, Z, step), step)
        times = [t for t, _ in curve]
        assert times[0] == episodes._EPOCH + ((first - episodes._EPOCH) // step) * step
        assert (times[-1] - episodes._EPOCH) % step == Z
        assert last <= times[-1] < last + step
        assert all(b - a == step for a, b in zip(times, times[1:]))
        assert curve == [(t, 1.0 if t >= first else 0.0) for t in times]

    def test_step_past_calendar_rejected(self):
        rule = EpisodeRule((A,), (B,), 1, 0.5)
        with pytest.raises(ConfigError):
            confidence_series(EVENTS_ABC, rule, (Z, Z, LAG2), timedelta(days=10 ** 8))

    def test_bad_step(self):
        # The step is delta, and a zero step never reaches the curve: at
        # delta 0 an event holds one timestamp, so no consequent starts
        # after an antecedent ends and no rule is mined.
        samples = [(at(t), s) for t in range(4) for s in (A, B, C)]
        events = segment_events(samples, Z)
        assert len(events) == 4
        day = timedelta(days=1)
        assert mine_rules(events, 1, 3, (day, day, day)) == []


class TestLabels:
    def test_default_three_way_labels(self):
        assert episode_label((0, 2), 3) == "LOW+HIGH"
        assert episode_label((1,), 3) == "MID"

    def test_other_alphabets_numbered(self):
        assert episode_label((0, 3), 5) == "C0+C3"

    def test_rule_id(self):
        rule = EpisodeRule((0,), (2, 2), 1, 0.5)
        assert rule_id(rule, 3) == "LOW=>HIGH+HIGH"


class TestBuildEvents:
    def test_composes_discretize_and_segment(self):
        series = series_of([1, 2, 3, 4, 5, 6], spacing_s=10)
        events = build_events(series, timedelta(seconds=15), k=3)
        assert len(events) == 1
        assert [s for _, s in oracles.items_of(events[0])] == [0, 0, 1, 1, 2, 2]
        events = build_events(series, timedelta(seconds=5), k=3)
        assert len(events) == 6
