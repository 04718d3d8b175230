"""Differential tests: the run-based engine against the expanded oracles."""

import itertools
import random

import oracles
from conftest import D, O, R, labels, per_minute
from tachocheck.minutes import Rule51Semantics, label_minutes
from tachocheck.periods import DailyDrivingSpan, accumulate_driving, classify_rests
from tachocheck.profiles import builtin_profiles
from tachocheck.rules import _minimize_extension_violations, check_article7
from tachocheck.timeline import SecondTrace, TimeGrid

SPIRIT = builtin_profiles()["spirit"]


def _random_trace(rng: random.Random) -> SecondTrace:
    """Runs from single seconds to hours, so that minutes straddle one, two
    or many boundaries and accumulations pass the Article 7 limit."""
    runs = []
    for _ in range(rng.randint(3, 20)):
        kind = rng.random()
        if kind < 0.5:
            seconds = rng.randint(1, 70)
        elif kind < 0.8:
            seconds = rng.randint(60, 1800)
        else:
            seconds = rng.randint(1800, 4 * 3600)
        runs.append((rng.choices([D, R, O], weights=[5, 4, 1])[0], seconds))
    runs.append((D, rng.randint(60, 300)))
    return SecondTrace.from_runs(rng.randint(0, 300), runs)


def test_labels_and_article7_match_the_oracles_on_every_offset_and_reading():
    rng = random.Random(2016)
    compared = 0
    for _ in range(12):
        trace = _random_trace(rng)
        for offset in range(60):
            grid = TimeGrid(offset)
            for semantics in Rule51Semantics:
                mt = label_minutes(trace, grid, semantics)
                first, expected = oracles.label_minutes(trace, grid, semantics)
                assert mt.start_minute == first
                assert len(mt) == len(expected)
                assert labels(mt) == expected
                runs = tuple((a, len(list(g))) for a, g in itertools.groupby(expected))
                assert mt.segments == runs
                assert mt.driving_minutes() == expected.count(D)

                rests = classify_rests(mt, SPIRIT)
                items = accumulate_driving(mt, rests)
                stream = oracles.accumulate_driving(first, expected, grid, rests)
                assert per_minute(items) == stream
                assert check_article7(items, "p") == oracles.check_article7(stream, "p")
                compared += 1
    assert compared == 12 * 60 * 3


def test_driving_between_matches_a_count_over_labels():
    rng = random.Random(52)
    for _ in range(20):
        trace = _random_trace(rng)
        mt = label_minutes(trace, TimeGrid(rng.randrange(60)))
        per = labels(mt)
        for _ in range(50):
            start = rng.randint(mt.start_instant - 120, mt.end_instant + 120)
            end = rng.randint(start, mt.end_instant + 240)
            lo = min(len(per), max(0, (start - mt.start_instant) // 60))
            hi = min(len(per), max(0, (end - mt.start_instant) // 60))
            assert mt.driving_between(start, end) == per[lo:hi].count(D)


def _random_attribution_instance(rng: random.Random):
    """Fixed extension weeks plus a chain of week-crossing spans."""
    crossing = []
    week = rng.randint(0, 2)
    for i in range(rng.randint(1, 10)):
        week += rng.choice([0, 0, 1, 2])
        end_week = week + rng.choice([1, 1, 1, 2])
        span = DailyDrivingSpan(i * 1000, i * 1000 + 500, 600, (None, None))
        crossing.append((span, week, end_week))
        week = end_week
    fixed = {}
    for j in range(rng.randint(0, 2 * len(crossing) + 2)):
        span = DailyDrivingSpan(-1000 - j, -999 - j, 560, (None, None))
        fixed[span] = rng.randint(0, week)
    rng.shuffle(crossing)
    return fixed, crossing


def test_extension_attribution_matches_exhaustive_search():
    rng = random.Random(61)
    for _ in range(400):
        fixed, crossing = _random_attribution_instance(rng)
        expected = oracles.minimize_extension_violations(fixed, crossing)
        assert _minimize_extension_violations(fixed, crossing) == expected
