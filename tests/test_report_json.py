"""`Report.to_json` and `DivergenceReport.to_json` write exactly the bytes
of their reference, `json.dumps(report.to_dict(), indent=2, sort_keys=True)`.

Criterion 10 and `tests/golden/` pin those bytes for a few reports; these
tests compare the writer with the reference on random traces, on every
builtin profile and a profile that sets every knob, on ids that need
escaping, and on values that only an in-process caller can pass. A diff's
`to_dict` hands out containers of its own, so editing them leaves the
report as it was.
"""

import json
import random

import pytest

from tachocheck import patterns
from tachocheck.cli import _DEMOS
from tachocheck.minutes import Rule51Semantics
from tachocheck.profiles import (
    ExtendedAttribution,
    InterpretationProfile,
    ProfileError,
    WeeklyGapSemantics,
    diff_verdicts,
    parse_profile,
)
from tachocheck.report import DivergenceReport, Report, Violation
from tachocheck.rules import check_all
from tachocheck.timeline import SecondTrace, WeekPolicy, parse_trace
from traces import BUILTINS, HOUR, PROFILES, D, O, R, random_weeks_trace, trace_of


def reference(report: Report | DivergenceReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def checked(trace: SecondTrace, profile: InterpretationProfile) -> Report:
    report = check_all(trace, profile.grid(), profile)
    assert report.to_json() == reference(report)
    return report


def test_random_reports_under_every_builtin_profile():
    rng = random.Random(25)
    articles = set()
    for _ in range(60):
        trace = random_weeks_trace(rng)
        for profile in BUILTINS.values():
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
        checked(random_weeks_trace(rng), profile)


def test_an_id_that_needs_escaping():
    # non-ASCII, a quote, a backslash, a tab and a lone surrogate
    profile = parse_profile(r'{"id": "Fahrer é€漢 \"q\" \\ \t \ud800"}')
    assert profile.id == 'Fahrer é€漢 "q" \\ \t \ud800'
    report = checked(trace_of((D, 5 * HOUR)), profile)
    assert report.violations and all(v.profile_id == profile.id for v in report.violations)
    assert r'"Fahrer \u00e9\u20ac\u6f22 \"q\" \\ \t \ud800"' in report.to_json()


def test_no_violations_both_notices_and_all_four_articles():
    spirit = BUILTINS["spirit"]
    report = checked(trace_of((R, 2 * HOUR)), spirit)
    assert report.violations == () and len(report.notices) == 1
    report = checked(parse_trace("30,DRIVING,50\n"), spirit)
    assert report.violations == () and len(report.notices) == 2
    # 11 h of driving, 30 h without a daily rest, then weeks with 24 h rests
    runs = [(D, 11 * HOUR), (O, 19 * HOUR)]
    runs += [(R, 24 * HOUR), (O, 144 * HOUR)] * 4
    report = checked(trace_of(*runs), spirit)
    assert {v.article for v in report.violations} == {"7", "6.1", "8.2", "8.6"}
    checked(patterns.gen_weeks([45, 24, 45]), spirit)


def test_values_only_an_in_process_caller_can_pass():
    # a float threshold is refused, as JSON's is; the report below writes
    # floats as json.dumps does inside the dict
    with pytest.raises(ProfileError, match="knob 'daily_rest_threshold': expected an integer"):
        InterpretationProfile("x", daily_rest_threshold=540.0)
    profile = InterpretationProfile("x")
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


def diffed(trace: SecondTrace, profiles=PROFILES) -> DivergenceReport:
    report = diff_verdicts(trace, profiles)
    assert report.to_json() == reference(report)
    return report


def test_random_diffs():
    rng = random.Random(30)
    reports = [diffed(random_weeks_trace(rng)) for _ in range(30)]
    assert {d["article"] for r in reports for d in r.disagreements} >= {"7", "6.1", "8.2"}


@pytest.mark.parametrize("name", sorted(_DEMOS))
def test_the_diff_of_every_demo(name):
    build, _ = _DEMOS[name]
    diffed(build(patterns, 2))


def test_a_diff_whose_profiles_carry_different_notices():
    report = diffed(parse_trace("0,DRIVING,80\n"), [BUILTINS["unix-grid"], BUILTINS["utc-grid"]])
    assert report.notices and report.notices["unix-grid"] != report.notices["utc-grid"]


def _edit_every_level(value) -> None:
    """Change every container in `value`, innermost first."""
    if isinstance(value, dict):
        for item in value.values():
            _edit_every_level(item)
        value["edited"] = True
    elif isinstance(value, list):
        for item in value:
            _edit_every_level(item)
        value.append("edited")


@pytest.mark.parametrize("records", ["0,DRIVING,18000\n", "0,DRIVING,80\n"])
def test_editing_a_diffs_dict_leaves_the_diff_as_it_was(records):
    # 5 h of driving: verdicts and a disagreement; 80 s: notices
    report = diff_verdicts(parse_trace(records), [BUILTINS["unix-grid"], BUILTINS["utc-grid"]])
    assert (report.verdicts and report.disagreements) or report.notices
    before, text = report.to_dict(), report.to_json()
    _edit_every_level(report.to_dict())
    assert report.to_dict() == before and report.to_json() == text == reference(report)
