import collections
import json
import random
from enum import Enum

import pytest

import tachocheck.timeline as timeline
from tachocheck import minutes, rules
from tachocheck.minutes import Rule51Semantics
from tachocheck.patterns import find_shift_divergent, gen_weekly_sandwich, week_runs
from tachocheck.profiles import (
    ExtendedAttribution,
    InterpretationProfile,
    ProfileError,
    WeeklyGapSemantics,
    builtin_profiles,
    diff_verdicts,
    parse_profile,
)
from tachocheck.rules import check_all
from tachocheck.timeline import LeapSecond, SecondTrace, WeekPolicy, WeekUndefinedError
from traces import (
    HOUR,
    SPIRIT,
    D,
    O,
    R,
    compensated_reduction_trace,
    crossing_week_trace,
    ext_day,
    minutes_of,
    stop_and_go_trace,
    trace_of,
)


def test_builtin_profiles_exist_with_expected_knobs():
    profiles = builtin_profiles()
    assert set(profiles) >= {"letter", "spirit", "unix-grid", "utc-grid"}
    assert profiles["unix-grid"].grid_offset == 0
    assert profiles["utc-grid"].grid_offset == 27
    assert profiles["letter"].weekly_gap is WeeklyGapSemantics.STRICT
    assert profiles["letter"].leap_week_policy is WeekPolicy.LETTER
    assert profiles["spirit"].weekly_gap is WeeklyGapSemantics.SPIRIT


def test_profile_json_roundtrip():
    profile = builtin_profiles()["letter"]
    text = json.dumps(profile.to_dict())
    assert parse_profile(text) == profile


def test_unknown_keys_are_rejected():
    with pytest.raises(ProfileError, match="unknown profile keys"):
        parse_profile('{"id": "x", "rule_51": "Fixpoint"}')


def test_bad_enum_value_is_rejected():
    with pytest.raises(ProfileError, match="rule51"):
        parse_profile('{"id": "x", "rule51": "Neighbourly"}')


def test_bad_types_are_rejected():
    with pytest.raises(ProfileError):
        parse_profile('{"id": "x", "trace_edge_is_rest": "yes"}')
    with pytest.raises(ProfileError):
        parse_profile('{"id": "x", "daily_rest_threshold": "540"}')


def _non_default(value):
    if isinstance(value, Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "-other"
    raise AssertionError(f"no non-default value for {value!r}")


@pytest.mark.parametrize("name", InterpretationProfile._fields)
def test_every_knob_round_trips_through_json(name):
    changed = SPIRIT.replace(**{name: _non_default(getattr(SPIRIT, name))})
    assert changed != SPIRIT
    assert parse_profile(json.dumps(changed.to_dict())) == changed


def test_knobs_bind_positionally_in_field_order():
    names = InterpretationProfile._fields[1:]
    values = [_non_default(getattr(SPIRIT, name)) for name in names]
    assert InterpretationProfile("p", *values) == InterpretationProfile(
        "p", **dict(zip(names, values))
    )
    with pytest.raises(TypeError, match="at most 9 arguments, got 10"):
        InterpretationProfile("p", *values, 0)
    with pytest.raises(TypeError, match="two values for 'leap_week_policy'"):
        InterpretationProfile("p", WeekPolicy.LETTER, leap_week_policy=WeekPolicy.SPIRIT)
    with pytest.raises(TypeError) as info:
        InterpretationProfile("p", grid=0)
    assert str(info.value) == "InterpretationProfile got unknown fields ['grid']"


@pytest.mark.parametrize(
    "key, value",
    [
        ("trace_edge_is_rest", 1),
        ("attached_compensation", 0),
        ("daily_rest_threshold", True),
        ("grid_offset", 27.0),
        ("rule51", None),
        ("grid_offset", True),
        ("daily_rest_threshold", 540.0),
        # an Enum knob's value: JSON spells the member so, a caller in
        # process must pass the member
        ("leap_week_policy", "Letter"),
        ("rule51", "NeighborRaw"),
        ("weekly_gap", "Strict"),
        ("extended_attribution", "StartWeek"),
    ],
)
def test_knob_values_of_the_wrong_type_are_rejected(key, value):
    # however the profile is built, so that no report states one reading
    # while the engine applies another
    for build in (
        lambda: InterpretationProfile("x", **{key: value}),
        lambda: SPIRIT.replace(**{key: value}),
    ):
        with pytest.raises(ProfileError, match=f"knob '{key}': expected "):
            build()
    text = json.dumps({"id": "x", key: value})
    if not isinstance(value, str):
        with pytest.raises(ProfileError, match=f"knob '{key}'"):
            parse_profile(text)
    else:
        member = type(getattr(SPIRIT, key))(value)
        assert parse_profile(text) == InterpretationProfile("x", **{key: member})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: InterpretationProfile(123), "profile id must be a string"),
        (lambda: SPIRIT.replace(id=1), "profile id must be a string"),
        (lambda: InterpretationProfile(""), "profile id must be non-empty"),
    ],
    ids=["int", "replaced-int", "empty"],
)
def test_a_profile_id_is_a_non_empty_string(build, message):
    # a non-string id would be written into the report, and ids 1 and "a"
    # would not sort in a diff
    with pytest.raises(ProfileError) as info:
        build()
    assert str(info.value) == message


def test_threshold_and_offset_bounds():
    with pytest.raises(ProfileError):
        InterpretationProfile(id="x", daily_rest_threshold=0)
    with pytest.raises(ProfileError):
        InterpretationProfile(id="x", grid_offset=60)


def test_missing_id_uses_default():
    profile = parse_profile("{}", default_id="from-filename")
    assert profile.id == "from-filename"
    with pytest.raises(ProfileError):
        parse_profile("{}")


def test_all_rest_trace_has_empty_divergence():
    trace = trace_of((R, 2 * HOUR))
    report = diff_verdicts(trace, list(builtin_profiles().values()))
    assert report.is_empty


def test_sandwich_diverges_between_letter_and_spirit():
    profiles = builtin_profiles()
    report = diff_verdicts(gen_weekly_sandwich(), [profiles["letter"], profiles["spirit"]])
    assert not report.is_empty
    assert any(d["article"] == "6.1" for d in report.disagreements)
    assert report.verdicts["6.1"]["spirit"] == 1
    assert report.verdicts["6.1"]["letter"] == 0


def test_shift_pattern_diverges_between_grids():
    profiles = builtin_profiles()
    trace = find_shift_divergent()
    report = diff_verdicts(trace, [profiles["unix-grid"], profiles["utc-grid"]])
    assert not report.is_empty
    assert any(d["article"] == "7" for d in report.disagreements)


def test_diff_is_symmetric_in_profile_order():
    profiles = builtin_profiles()
    pair = [profiles["letter"], profiles["spirit"]]
    a = diff_verdicts(gen_weekly_sandwich(), pair).to_json()
    b = diff_verdicts(gen_weekly_sandwich(), list(reversed(pair))).to_json()
    assert a == b


def test_identical_knobs_never_diverge():
    clone = SPIRIT.replace(id="spirit-clone")
    report = diff_verdicts(gen_weekly_sandwich(), [SPIRIT, clone])
    assert report.is_empty


def test_duplicate_ids_are_rejected():
    with pytest.raises(ProfileError):
        diff_verdicts(gen_weekly_sandwich(), [SPIRIT, SPIRIT])


# --- one witness per knob: flipping only that knob changes an observable ---


def flip(**kwargs):
    return SPIRIT.replace(id="flipped", **kwargs)


def run(trace, profile, leap_table=()):
    return check_all(trace, profile.grid(), profile, leap_table)


def test_knob_leap_week_policy():
    trace = trace_of((R, 9 * HOUR), *ext_day(60), (R, 9 * HOUR))
    table = (LeapSecond(sunday_index=0, delta=-1),)
    run(trace, SPIRIT, table)  # Spirit tolerates the missing instant
    with pytest.raises(WeekUndefinedError):
        run(trace, flip(leap_week_policy=WeekPolicy.LETTER), table)


def test_knob_rule51():
    trace = trace_of((R, 20), (D, 40), (R, 60), (D, 40), (R, 20))
    by_label = run(trace, SPIRIT)
    by_raw = run(trace, flip(rule51=Rule51Semantics.NEIGHBOR_RAW))
    assert (
        by_label.statistics["total_driving_minutes"]
        != by_raw.statistics["total_driving_minutes"]
    )


def test_knob_rule51_fixpoint_has_no_witness():
    # Fixpoint provably coincides with the single NeighborRule52 pass (see
    # test_minutes.test_fixpoint_equals_single_pass_on_random_traces), so no
    # single-knob witness can exist; pin the equivalence on a sandwich-heavy
    # trace instead.
    trace = minutes_of((D, 1), (R, 1), (D, 1), (R, 1), (D, 1), (R, 2), (D, 2))
    single = run(trace, SPIRIT)
    fixed = run(trace, flip(rule51=Rule51Semantics.FIXPOINT))
    assert (
        single.statistics["total_driving_minutes"]
        == fixed.statistics["total_driving_minutes"]
    )


def test_knob_weekly_gap():
    strict = run(gen_weekly_sandwich(), flip(weekly_gap=WeeklyGapSemantics.STRICT))
    spirit = run(gen_weekly_sandwich(), SPIRIT)
    assert [v.article for v in spirit.violations] == ["6.1"]
    assert strict.violations == ()


def test_knob_trace_edge_is_rest():
    trace = minutes_of((D, 60), (R, 9 * 60), (O, 30))
    with_edge = run(trace, SPIRIT)
    without_edge = run(trace, flip(trace_edge_is_rest=False))
    assert with_edge.statistics["daily_driving_spans"] == 1
    assert without_edge.statistics["daily_driving_spans"] == 0


def test_knob_extended_attribution():
    trace = crossing_week_trace()
    start_week = run(trace, flip(extended_attribution=ExtendedAttribution.START_WEEK))
    end_week = run(trace, SPIRIT)  # spirit default is EndWeek
    assert [v.article for v in start_week.violations] == ["6.1"]
    assert end_week.violations == ()


def test_knob_daily_rest_threshold():
    trace = trace_of((R, 9 * HOUR), (O, 15 * HOUR), (R, 8 * HOUR), (O, 9 * HOUR))
    default = run(trace, SPIRIT)
    lowered = run(trace, flip(daily_rest_threshold=480))
    assert [v.article for v in default.violations] == ["8.2"]
    assert lowered.violations == ()


def test_knob_attached_compensation():
    trace = compensated_reduction_trace()
    default = run(trace, SPIRIT)
    attached = run(trace, flip(attached_compensation=True))
    assert default.violations == ()
    assert any(v.article == "8.6" for v in attached.violations)


def test_knob_grid_offset():
    trace = find_shift_divergent()
    base = run(trace, SPIRIT)
    shifted = run(trace, flip(grid_offset=27))
    assert base.violations == ()
    assert any(v.article == "7" for v in shifted.violations)


def test_diff_hashes_the_trace_once(monkeypatch):
    made = []
    sha256 = timeline.hashlib.sha256

    def counting_sha256(*args, **kwargs):
        made.append(args)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(timeline.hashlib, "sha256", counting_sha256)
    trace = SecondTrace.from_runs(0, week_runs(45) * 2)
    profiles = list(builtin_profiles().values())
    raw = SPIRIT.replace(id="neighbor-raw", rule51=Rule51Semantics.NEIGHBOR_RAW)
    profiles.append(raw)
    assert len(profiles) == 5
    diff_verdicts(trace, profiles)
    assert len(made) == 1
    check_all(trace, SPIRIT.grid(), SPIRIT)
    assert len(made) == 1


def test_diff_labels_each_grid_offset_once(monkeypatch):
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    check = rules.check_all
    monkeypatch.setattr(minutes, "_walk_runs", counting("walk", minutes._walk_runs))

    class CountedMinuteTrace(minutes.MinuteTrace):
        # counts every minute trace built, through `__init__` or `_of_maximal`
        def __new__(cls, *args, **kwargs):
            calls["build"] += 1
            return super().__new__(cls)

    monkeypatch.setattr(minutes, "MinuteTrace", CountedMinuteTrace)
    monkeypatch.setattr(rules, "label_minutes", counting("label", rules.label_minutes))
    monkeypatch.setattr(rules, "check_all", counting("check", check))
    raw = SPIRIT.replace(id="neighbor-raw", rule51=Rule51Semantics.NEIGHBOR_RAW)
    builtin = [*builtin_profiles().values(), raw]
    # ids that interleave the offsets: a@27, b@0, c@27, d@0, e@27
    interleaved = [
        SPIRIT.replace(id="a", grid_offset=27),
        SPIRIT.replace(id="b", grid_offset=0, rule51=Rule51Semantics.NEIGHBOR_RAW),
        raw.replace(id="c", grid_offset=27),
        builtin_profiles()["letter"].replace(id="d"),
        SPIRIT.replace(id="e", grid_offset=27, daily_rest_threshold=15),
    ]

    def unlabeled(trace):
        return SecondTrace(trace.start, trace.activities, trace.seconds)

    rng = random.Random(41)
    traces = [stop_and_go_trace(rng) for _ in range(3)]
    shared = []
    for trace in traces:
        calls.clear()
        shared.append(diff_verdicts(unlabeled(trace), builtin).to_json())
        # two grid offsets walked, and one labeling per (offset, reading);
        # still one label_minutes and one check_all per profile
        assert calls == {"walk": 2, "build": 3, "label": 5, "check": 5}
        calls.clear()
        shared.append(diff_verdicts(unlabeled(trace), interleaved).to_json())
        assert calls["walk"] == 2 and calls["check"] == 5
    # notices that differ are still listed in id order: offset 27 labels no
    # minute of 80 s from 0, offset 0 labels one
    assert list(diff_verdicts(trace_of((D, 80)), interleaved[:3]).notices) == ["a", "b", "c"]

    # the same diffs with each profile checked on a fresh, unlabeled copy
    def fresh_check(trace, *args):
        return check(unlabeled(trace), *args)

    monkeypatch.setattr(rules, "check_all", fresh_check)
    calls.clear()
    fresh = [
        diff_verdicts(trace, profiles).to_json()
        for trace in traces
        for profiles in (builtin, interleaved)
    ]
    assert fresh == shared
    assert calls["walk"] == 10 * len(traces)
    # some trace divides the profiles of both diffs
    divided = ['"divergent": true' in report for report in shared]
    assert any(a and b for a, b in zip(divided[0::2], divided[1::2])), divided
