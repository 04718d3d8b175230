"""`Report.to_json` writes exactly the bytes of its reference,
`json.dumps(report.to_dict(), indent=2, sort_keys=True)`.

Criterion 10 and `tests/golden/` pin those bytes for a few reports; these
tests compare the writer with the reference on random traces, on every
builtin profile and a profile that sets every knob, on ids that need
escaping, and on values that only an in-process caller can pass.
"""

import json
import random

from conftest import HOUR, D, O, R, trace_of, week_runs
from tachocheck.minutes import Rule51Semantics
from tachocheck.profiles import (
    ExtendedAttribution,
    InterpretationProfile,
    WeeklyGapSemantics,
    builtin_profiles,
    parse_profile,
)
from tachocheck.report import Report, Violation
from tachocheck.rules import check_all
from tachocheck.timeline import SecondTrace, WeekPolicy, parse_trace

PROFILES = builtin_profiles()


def reference(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def checked(trace: SecondTrace, profile: InterpretationProfile) -> Report:
    report = check_all(trace, profile.grid(), profile)
    assert report.to_json() == reference(report)
    return report


def _random_trace(rng: random.Random) -> SecondTrace:
    """Up to five weeks of runs from seconds to two days, so that reports
    range from none to many violations of every article."""
    runs = []
    for _ in range(rng.randint(1, 120)):
        kind = rng.random()
        if kind < 0.4:
            seconds = rng.randint(1, 600)
        elif kind < 0.9:
            seconds = rng.randint(600, 12 * HOUR)
        else:
            seconds = rng.randint(12 * HOUR, 48 * HOUR)
        runs.append((rng.choices([D, R, O], weights=[5, 4, 1])[0], seconds))
    return SecondTrace.from_runs(rng.randint(-HOUR, HOUR), runs)


def test_random_reports_under_every_builtin_profile():
    rng = random.Random(25)
    articles = set()
    for _ in range(60):
        trace = _random_trace(rng)
        for profile in PROFILES.values():
            articles |= {v.article for v in checked(trace, profile).violations}
    assert articles == {"7", "6.1", "8.2", "8.6"}


def test_a_profile_that_sets_every_knob():
    profile = InterpretationProfile(
        "every-knob",
        leap_week_policy=WeekPolicy.LETTER,
        rule51=Rule51Semantics.FIXPOINT,
        weekly_gap=WeeklyGapSemantics.STRICT,
        trace_edge_is_rest=False,
        extended_attribution=ExtendedAttribution.MINIMIZE_VIOLATIONS,
        daily_rest_threshold=660,
        attached_compensation=True,
        grid_offset=27,
    )
    default = InterpretationProfile("default")
    assert all(getattr(profile, knob) != getattr(default, knob) for knob in profile._fields[1:])
    rng = random.Random(2501)
    for _ in range(10):
        checked(_random_trace(rng), profile)


def test_an_id_that_needs_escaping():
    # non-ASCII, a quote, a backslash, a tab and a lone surrogate
    profile = parse_profile(r'{"id": "Fahrer é€漢 \"q\" \\ \t \ud800"}')
    assert profile.id == 'Fahrer é€漢 "q" \\ \t \ud800'
    report = checked(trace_of((D, 5 * HOUR)), profile)
    assert report.violations and all(v.profile_id == profile.id for v in report.violations)
    assert r'"Fahrer \u00e9\u20ac\u6f22 \"q\" \\ \t \ud800"' in report.to_json()


def test_no_violations_both_notices_and_all_four_articles():
    spirit = PROFILES["spirit"]
    report = checked(trace_of((R, 2 * HOUR)), spirit)
    assert report.violations == () and len(report.notices) == 1
    report = checked(parse_trace("30,DRIVING,50\n"), spirit)
    assert report.violations == () and len(report.notices) == 2
    # 11 h of driving, 30 h without a daily rest, then weeks with 24 h rests
    runs = [(D, 11 * HOUR), (O, 19 * HOUR)]
    runs += [(R, 24 * HOUR), (O, 144 * HOUR)] * 4
    report = checked(trace_of(*runs), spirit)
    assert {v.article for v in report.violations} == {"7", "6.1", "8.2", "8.6"}
    checked(SecondTrace.from_runs(0, week_runs(45) + week_runs(24) + week_runs(45)), spirit)


def test_values_only_an_in_process_caller_can_pass():
    # a float threshold: json.dumps writes it, as it would inside the dict
    profile = InterpretationProfile("x", daily_rest_threshold=540.0)
    report = checked(trace_of((D, 5 * HOUR), (R, 10 * HOUR), (D, 5 * HOUR)), profile)
    assert '"daily_rest_threshold": 540.0,' in report.to_json()
    # any value the record accepts, nested or with keys that are not strings
    report = Report(
        trace_digest="d",
        trace_start=-1,
        trace_seconds=True,
        grid_offset=None,
        profile=profile,
        violations=(
            Violation("7", 0, 2.5, "dé\ntail", {"b": [1, {}], "a": ()}),
            Violation("8.2", False, [7, {"e": None}], "", "p"),
        ),
        statistics={2: [1.5, None], 1: {"k": False}},
        notices=("n", 3, [], ["x", {"y": float("inf")}]),
    )
    assert report.to_json() == reference(report)
    report = report.replace(statistics={}, notices=())
    assert report.to_json() == reference(report)
