"""Differential tests: the engine against the executable specification in
`spec.py`, on small random traces; and two engine paths against each other
where one is a faster form of the other (the closed-form labels and the
walk, a resumed Article 8.6 pass and a fresh one)."""

import ast
import bisect
import collections
import functools
import hashlib
import itertools
import operator
import pathlib
import random
import re
from enum import Enum

import pytest

import spec
import tachocheck
from conftest import D, O, R, labels, per_minute, per_run
from tachocheck import minutes, periods
from tachocheck.minutes import (
    MinuteTrace,
    Rule51Semantics,
    label_minutes,
    label_rule52,
)
from tachocheck import rules
from tachocheck.periods import (
    FULL_BREAK_MIN_MINUTES,
    REDUCED_WEEKLY_MIN_MINUTES,
    REGULAR_WEEKLY_MIN_MINUTES,
    DailyDrivingSpan,
    accumulate_driving,
    classify_rests,
    daily_driving_spans,
)
from tachocheck.profiles import (
    ExtendedAttribution,
    WeeklyGapSemantics,
    builtin_profiles,
)
from tachocheck.report import Violation
from tachocheck.rules import check_all, check_article7, check_article82
from tachocheck import weekly
from tachocheck.weekly import WeeklyRestProblem, check_article86, solve_weekly_rests
from tachocheck import timeline
from tachocheck.timeline import (
    SECONDS_PER_WEEK,
    Calendar,
    LeapSecond,
    SecondTrace,
    TimeGrid,
    TraceError,
    WeekPolicy,
    WeekUndefinedError,
    maximal_columns,
    parse_trace,
)
from test_rules import verify_witness

SPIRIT = builtin_profiles()["spirit"]
# every builtin profile, and the readings no builtin takes
PROFILES = [
    *builtin_profiles().values(),
    SPIRIT.replace(id="minimize", extended_attribution=ExtendedAttribution.MINIMIZE_VIOLATIONS),
    SPIRIT.replace(id="neighbor-raw", rule51=Rule51Semantics.NEIGHBOR_RAW),
]
# the Sunday before week 0 ends a second late, and week 0's a second early
MIXED_LEAP_TABLE = (LeapSecond(-1, 1), LeapSecond(0, -1))
# the data types the specification may import from the package
SPEC_MAY_IMPORT = {
    "Activity",
    "DailyDrivingSpan",
    "ExtendedAttribution",
    "Rule51Semantics",
    "TraceParseError",
    "Violation",
    "WeekPolicy",
    "WeekUndefinedError",
    "WeeklyGapSemantics",
}


def test_the_specification_imports_only_data_types_from_the_package():
    # a reference that called engine code could not catch a fault in it
    tree = ast.parse(pathlib.Path(spec.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = {alias.name.split(".")[0] for alias in node.names}
            assert not names & {"tachocheck", "importlib"}, names
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module != "importlib", node.module
            if node.module.split(".")[0] == "tachocheck":
                imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"
    assert imported <= SPEC_MAY_IMPORT, imported - SPEC_MAY_IMPORT
    # each allowed name is a record, an enum or an error class
    for name in SPEC_MAY_IMPORT:
        value = getattr(tachocheck, name)
        assert not name.startswith("_") and isinstance(value, type), name
        assert issubclass(value, (timeline.Record, Enum, Exception)), name


def _package_imports(module) -> set[str]:
    """The package modules that `module`'s source imports, at its top or
    inside a function."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            imported |= {path[1] for path in paths if path[0] == "tachocheck" and path[1:]}
        elif isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if node.level == 0:
                if path[0] != "tachocheck":
                    continue
                path = path[1:]
            imported |= {path[0]} if path and path[0] else {alias.name for alias in node.names}
    return imported


def test_the_report_imports_no_stage_and_the_solver_never_imports_the_rules():
    # the report stays data and its writers; the 8.6 solver sits below the
    # module that composes the articles, not beside it
    from tachocheck import report

    assert "timeline" in _package_imports(report) and "report" in _package_imports(weekly)
    assert not _package_imports(report) & {"minutes", "periods", "rules", "weekly"}
    assert "rules" not in _package_imports(weekly)


def test_the_engines_limits_are_the_texts():
    # a limit no random trace happens to reach still shows here: each one
    # the engine names is the one the specification restates from the text
    assert (
        rules.DRIVE_BEFORE_BREAK_LIMIT_MINUTES,
        rules.DAILY_DRIVING_LIMIT_MINUTES,
        rules.EXTENDED_DAILY_LIMIT_MINUTES,
        rules.MAX_EXTENSIONS_PER_WEEK,
        weekly.COMPENSATION_WINDOW_WEEKS,
        rules.NEW_REST_WINDOW_SECONDS,
        periods.BREAK_MIN_MINUTES,
        periods.SPLIT_SECOND_MIN_MINUTES,
        periods.FULL_BREAK_MIN_MINUTES,
        periods.REDUCED_WEEKLY_MIN_MINUTES,
        periods.REGULAR_WEEKLY_MIN_MINUTES,
        timeline.SECONDS_PER_MINUTE,
        timeline.SECONDS_PER_WEEK,
    ) == (
        spec.DRIVING_BEFORE_BREAK,
        spec.DAILY_DRIVING,
        spec.EXTENDED_DRIVING,
        spec.EXTENSIONS_PER_WEEK,
        spec.COMPENSATION_WEEKS,
        spec.NEW_REST_WINDOW,
        spec.SPLIT_FIRST,
        spec.SPLIT_SECOND,
        spec.BREAK,
        spec.REDUCED_WEEKLY,
        spec.REGULAR_WEEKLY,
        spec.MINUTE,
        spec.WEEK,
    )


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


def _stop_and_go_trace(rng: random.Random) -> SecondTrace:
    """Hundreds of 3-90 s runs, like a day of urban deliveries, so that most
    minutes straddle boundaries and many label runs merge as they are
    appended; an occasional long stop or drive and a stretch of the 31 s
    rest / 29 s driving alternation mix whole minutes and ties in."""
    runs = []
    for _ in range(rng.randint(200, 600)):
        kind = rng.random()
        if kind < 0.03:
            runs.append((rng.choice([R, O]), rng.randint(15 * 60, 50 * 60)))
        elif kind < 0.06:
            runs.append((D, rng.randint(5 * 60, 30 * 60)))
        elif kind < 0.08:
            runs.extend([(R, 31), (D, 29)] * rng.randint(2, 20))
        else:
            runs.append((rng.choices([D, R, O], weights=[6, 5, 1])[0], rng.randint(3, 90)))
    return SecondTrace.from_runs(rng.randint(0, 300), runs)


def _spec_labels(trace: SecondTrace, grid: TimeGrid, semantics) -> tuple:
    return spec.minute_labels(trace, grid.minute_offset_seconds, semantics)


def _totals(mt: MinuteTrace, stretches) -> list[int]:
    """The engine's accumulator after each minute."""
    return [total for _, total in per_minute(mt, stretches)]


def _assert_labels_and_article7_match(trace: SecondTrace, grid: TimeGrid, semantics) -> None:
    mt = label_minutes(trace, grid, semantics)
    first, expected = _spec_labels(trace, grid, semantics)
    assert mt.start == grid.minute_start(first)
    assert len(mt) == len(expected)
    assert labels(mt) == expected
    assert mt.segments == spec.merge((label, 1) for label in expected)
    assert mt.driving_minutes() == expected.count(D)

    stretches = accumulate_driving(mt, classify_rests(mt), SPIRIT)
    threshold = SPIRIT.daily_rest_threshold
    assert _totals(mt, stretches) == spec.accumulated(expected, threshold)
    article7 = spec.article7(expected, mt.start, threshold, "p")
    assert check_article7(stretches, mt, "p") == article7


def test_labels_and_article7_match_the_oracles_on_every_offset_and_reading():
    rng = random.Random(2016)
    compared = 0
    for _ in range(12):
        trace = _random_trace(rng)
        for offset in range(60):
            for semantics in Rule51Semantics:
                _assert_labels_and_article7_match(trace, TimeGrid(offset), semantics)
                compared += 1
    assert compared == 12 * 60 * 3


def test_labels_and_article7_match_the_oracles_on_stop_and_go_traces():
    rng = random.Random(799)
    upgraded = 0
    for _ in range(10):
        trace = _stop_and_go_trace(rng)
        for offset in rng.sample(range(60), 6):
            grid = TimeGrid(offset)
            for semantics in Rule51Semantics:
                _assert_labels_and_article7_match(trace, grid, semantics)
            upgraded += label_minutes(trace, grid).driving_minutes() - sum(
                n for a, n in label_rule52(trace, grid).segments if a is D
            )
        # whole reports, each labeled per second by the specification
        for profile in PROFILES:
            report = check_all(trace, profile.grid(), profile, MIXED_LEAP_TABLE)
            got = (list(report.violations), report.statistics, list(report.notices))
            assert got == spec.report(trace, profile, MIXED_LEAP_TABLE), profile
    # the traces exercise the upgrade, not only the first layer
    assert upgraded > 1000


def _long_run_trace(rng: random.Random) -> SecondTrace:
    """Interior runs of at least a minute, so that no grid minute holds two
    run boundaries: runs of exactly 60 s, 61-119 s runs that label one
    minute at most offsets, and longer ones, driving-heavy so that rule 51
    upgrades; often a first or last run shorter than a minute; starts on
    both sides of 0. Every boundary lands 30 s into a minute at one offset,
    so every trace ties; one in seven has no interior run and covers no
    complete minute at many offsets."""
    runs = []
    if rng.random() < 0.7:
        runs.append((rng.choice([D, R, O]), rng.randint(1, 59)))
    for _ in range(0 if rng.random() < 0.15 else rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.2:
            seconds = 60
        elif kind < 0.7:
            seconds = rng.randint(61, 119)
        else:
            seconds = rng.randint(120, 1800)
        runs.append((rng.choices([D, R, O], weights=[6, 3, 1])[0], seconds))
    if rng.random() < 0.7 or not runs:
        runs.append((rng.choice([D, R, O]), rng.randint(1, 59)))
    return SecondTrace.from_runs(rng.randint(-400, 400), runs)


def test_closed_form_labels_match_the_oracles_and_the_walk(monkeypatch):
    walk = minutes._walk_runs

    def no_walk(*args):
        raise AssertionError("a trace with no short interior run was walked")

    monkeypatch.setattr(minutes, "_walk_runs", no_walk)
    rng = random.Random(5260)
    too_short = upgraded = 0
    for _ in range(60):
        trace = _long_run_trace(rng)
        for offset in range(60):
            grid = TimeGrid(offset)
            start = grid.minute_start(grid.first_full_minute(trace.start))
            if not _spec_labels(trace, grid, Rule51Semantics.NEIGHBOR_RULE52)[1]:
                empty = MinuteTrace(start, (), ())
                assert label_rule52(trace, grid) == empty
                for semantics in Rule51Semantics:
                    assert label_minutes(trace, grid, semantics) == empty
                too_short += 1
                continue
            closed = minutes._rule52_runs(trace, grid)
            assert closed[0] == start
            walked = walk(trace, start)
            assert closed[1:] == (tuple(walked[0]), tuple(walked[1]))
            for semantics in Rule51Semantics:
                _assert_labels_and_article7_match(trace, grid, semantics)
            upgraded += (
                label_minutes(trace, grid).driving_minutes()
                - label_rule52(trace, grid).driving_minutes()
            )
    assert too_short > 100 and upgraded > 500, (too_short, upgraded)


def test_labels_a_trace_keeps_equal_those_of_a_fresh_copy():
    # One trace object labeled over a shuffled sequence of (offset, reading)
    # pairs, with repeats and offsets interleaved, against a fresh copy for
    # each labeling: what the trace kept from earlier labelings must change
    # no label and no byte of the report.
    rng = random.Random(2606)
    kinds = (_random_trace, _stop_and_go_trace, _long_run_trace)
    reused = replaced = merged = 0
    for case in range(24):
        trace = kinds[case % 3](rng)
        pairs = [(o, s) for o in rng.sample(range(60), 3) for s in Rule51Semantics] * 2
        rng.shuffle(pairs)
        for offset, semantics in pairs:
            grid = TimeGrid(offset)
            fresh = SecondTrace(trace.start, trace.activities, trace.seconds)
            kept = trace._labels is not None and trace._labels[0] == offset
            mt = label_minutes(trace, grid, semantics)
            first_layer = label_rule52(fresh, grid)
            assert mt == label_minutes(fresh, grid, semantics)
            assert label_rule52(trace, grid) == first_layer
            profile = SPIRIT.replace(rule51=semantics, grid_offset=offset)
            report = check_all(trace, grid, profile).to_json()
            assert report == check_all(fresh, grid, profile).to_json()
            reused += kept
            replaced += not kept
            merged += len(mt.counts) < len(first_layer.counts)
    assert reused > 80 and replaced > 200 and merged > 100, (reused, replaced, merged)


def test_only_a_short_interior_run_sends_labeling_to_the_walk(monkeypatch):
    walked = []
    walk = minutes._walk_runs
    monkeypatch.setattr(
        minutes, "_walk_runs", lambda *args: walked.append(args[0]) or walk(*args)
    )
    qualifying = SecondTrace.from_runs(-7, [(R, 5), (D, 60), (R, 61), (D, 3600), (O, 59)])
    short = SecondTrace.from_runs(-7, [(R, 5), (D, 60), (R, 59), (D, 3600), (O, 59)])
    for trace in (qualifying, short, qualifying):
        for offset in (0, 31):
            label_minutes(trace, TimeGrid(offset))
    assert walked == [short, short]


def _assert_maximal(mt: MinuteTrace) -> None:
    """`mt`'s columns are what the validating constructor builds from them."""
    activities, counts = mt.activities, mt.counts
    assert type(activities) is tuple and type(counts) is tuple
    assert not any(map(operator.is_, activities[1:], activities)), activities
    assert all(count > 0 for count in counts), counts
    columns = maximal_columns(activities, counts)
    assert columns[0] is activities and columns[1] is counts
    rebuilt = MinuteTrace(mt.start, activities, counts)
    assert (rebuilt.bounds, rebuilt.driving) == (mt.bounds, mt.driving)


def test_first_layers_and_unupgraded_labelings_hold_maximal_columns():
    # The first layer and a labeling rule 51 leaves alone skip the
    # constructor's checks: on every path their columns must pass them
    # unchanged.
    rng = random.Random(2900)
    kinds = (_random_trace, _stop_and_go_trace, _long_run_trace)
    seen = collections.Counter()
    for case in range(150):
        trace = kinds[case % 3](rng)
        closed = all(seconds >= 60 for seconds in trace.seconds[1:-1])
        for offset in (0, 27):
            grid = TimeGrid(offset)
            first = label_rule52(trace, grid)
            _assert_maximal(first)
            seen["closed form" if closed else "walk", 1 in first.counts] += 1
            for semantics in Rule51Semantics:
                mt = label_minutes(trace, grid, semantics)
                _assert_maximal(mt)
                seen["unupgraded" if mt == first else "upgraded"] += 1
    for path in ("closed form", "walk"):
        for one_minute_run in (False, True):
            assert seen[path, one_minute_run] >= 10, seen
    assert seen["unupgraded"] >= 300 and seen["upgraded"] >= 300, seen


def _random_minute_trace(rng: random.Random, grid: TimeGrid | None = None) -> MinuteTrace:
    """Label runs on either side of every length that decides a rest's kind
    or an accumulator reset: rests of 1-14, 15-29, 30-44 and 45-539
    minutes, daily, reduced and regular weekly rests, and driving runs that
    pass the Article 7 limit alone or together. A trace spans minutes to a
    few weeks, on any grid, from minutes before and after 0."""
    short = [(1, 14)] * 3 + [(15, 15), (15, 29), (15, 29), (30, 30), (30, 44), (30, 44)]
    rests = short + [(45, 45), (45, 539), (540, 1439), (540, 1439), (1440, 2699), (2700, 3600)]
    # one trace in fifteen spans weeks, so that Article 8.6 is judged too
    weeks = rng.random() < 0.07
    runs = []
    for _ in range(rng.randint(100, 160) if weeks else rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.4:
            lo, hi = rng.choice(((1, 5), (1, 120), (100, 300)))
            runs.append((D, rng.randint(lo, hi)))
        elif roll < 0.85:
            lo, hi = rng.choice(rests[len(short) :] if weeks and roll < 0.5 else rests)
            # one rest in five lasts exactly a bound of its range
            runs.append((R, rng.choice((lo, hi)) if rng.random() < 0.2 else rng.randint(lo, hi)))
        else:
            runs.append((O, rng.randint(1, 180)))
    grid = grid or TimeGrid(rng.randrange(60))
    return MinuteTrace(grid.minute_start(rng.randint(-3000, 3000)), *zip(*runs))


def _report_outcome(check):
    """A report's violations, statistics and notices, or the error it raised."""
    try:
        return check()
    except WeekUndefinedError as exc:
        return str(exc)


def test_stretches_spans_and_reports_match_the_per_run_code():
    # every stage and the whole report against the specification, on label
    # runs of whole minutes on the profile's grid; the labels the report
    # reads are those runs after the spec's item (51) pass. Every third
    # trace has a leap table that adds a second to one Sunday and removes one
    # from the next, so that Letter refuses some weeks.
    profiles = [
        base.replace(
            daily_rest_threshold=threshold, trace_edge_is_rest=edge, weekly_gap=gap
        )
        for base in PROFILES
        for threshold in (15, 30, 45, 540, 1440)
        for edge in (False, True)
        for gap in WeeklyGapSemantics
    ]
    rng = random.Random(7)
    seen = collections.Counter()
    refused = 0  # reports that Letter refused, when a day ends in week 0
    for n in range(1300):
        profile = profiles[n % len(profiles)]
        leap_table = MIXED_LEAP_TABLE if n % 3 == 0 else ()
        mt = _random_minute_trace(rng, profile.grid())
        expected, threshold = labels(mt), profile.daily_rest_threshold
        rests = classify_rests(mt)

        stretches = accumulate_driving(mt, rests, profile)
        # the accumulator after each run
        totals = spec.accumulated(expected, threshold)
        after = [totals[end - 1] for end in mt.bounds[1:]]
        assert [item[3] for item in per_run(mt, stretches)] == after
        violations = check_article7(stretches, mt, profile.id)
        spans = daily_driving_spans(mt, rests, profile)
        assert spans == spec.daily_driving(expected, mt.start, profile)

        trace = SecondTrace.from_runs(mt.start, [(a, m * 60) for a, m in mt.segments])
        report = _report_outcome(lambda: check_all(trace, profile.grid(), profile, leap_table))
        got = report if isinstance(report, str) else (
            list(report.violations), report.statistics, list(report.notices)
        )
        upgraded = spec.item51(expected, list(map(operator.is_, expected, itertools.repeat(D))))
        start, end = trace.start, trace.end
        first = profile.grid().first_full_minute(start)
        expected_report = _report_outcome(
            lambda: spec.judge(first, upgraded, start, end, profile, leap_table)
        )
        assert got == expected_report, (n, profile)
        if isinstance(report, str):
            refused += 1
            continue

        seen["resets"] += len(stretches) - 1
        seen["split resets"] += sum(
            1
            for _, end in stretches[:-1]
            if mt.counts[end] < min(FULL_BREAK_MIN_MINUTES, profile.daily_rest_threshold)
        )
        seen["article 7"] += len(violations)
        seen["spans"] += len(spans)
        if profile.weekly_gap is WeeklyGapSemantics.STRICT:
            spirit = profile.replace(weekly_gap=WeeklyGapSemantics.SPIRIT)
            seen["strict skips"] += len(daily_driving_spans(mt, rests, spirit)) - len(spans)
        seen["8.6 judged"] += not any(x.startswith("article 8.6") for x in report.notices)
    judged = seen.pop("8.6 judged")  # one trace in fifteen spans weeks
    assert min(seen.values()) > 100 and judged > 50 and refused, (seen, judged, refused)


def _random_article61_instance(rng: random.Random):
    """Disjoint, time-ordered daily spans over 1-12 weeks and a random leap
    table. Each week holds 0-3 days inside it, and most weeks end in a day
    that crosses Sunday 24:00, at most 10 of them extensions; some crossing
    days start or end a second or two from the (leap-shifted) boundary, and
    some cross two boundaries. Most days are extensions, so weeks fill up."""
    first = rng.randint(-2, 2)
    weeks = range(first, first + rng.randint(1, 12))
    # distinct Sundays, as a Calendar requires: a Sunday drawn again keeps
    # its first delta
    deltas = {}
    for _ in range(rng.choice((0, 0, 1, 2))):
        deltas.setdefault(rng.randint(first - 1, weeks[-1]), rng.choice((-1, 1)))
    leap_table = tuple(LeapSecond(sunday, delta) for sunday, delta in deltas.items())
    driving_minutes = [480, 540, 541, 570, 600, 600, 601]
    spans, crossing = [], 0
    at = spec.monday(first, leap_table)
    for week in weeks:
        boundary = spec.monday(week + 1, leap_table)
        for _ in range(rng.randint(0, 3)):
            start = at + rng.randint(1, 30000)
            end = start + rng.randint(3600, 50000)
            if end > boundary - 40000:
                break
            spans.append(DailyDrivingSpan(start, end, rng.choice(driving_minutes)))
            at = end
        if at >= boundary - 2 or crossing == 10 or rng.random() < 0.15:
            continue
        start = max(at, boundary - rng.choice((1, 2, rng.randint(1, 40000))))
        end = boundary + rng.choice((0, 1, 2, rng.randint(1, 40000), SECONDS_PER_WEEK + 1))
        driving = rng.choice(driving_minutes[2:])
        spans.append(DailyDrivingSpan(start, end, driving))
        crossing += 540 < driving <= 600
        at = end
    return spans, leap_table


def test_article61_matches_the_regrouping_oracle():
    rng = random.Random(61)
    seen = collections.Counter()
    for _ in range(1000):
        spans, leap_table = _random_article61_instance(rng)
        for policy in WeekPolicy:
            found = {}
            for attribution in ExtendedAttribution:
                profile = SPIRIT.replace(
                    id="x", extended_attribution=attribution, leap_week_policy=policy
                )
                calendar = Calendar(leap_table, policy)
                results = []
                for check in (
                    lambda: rules.check_article61(spans, profile, calendar),
                    lambda: spec.article61(spans, profile, leap_table),
                ):
                    try:
                        violations = check()
                    except WeekUndefinedError as exc:
                        results.append(("raised", str(exc)))
                    else:
                        results.append(sorted(violations, key=Violation.sort_key))
                assert results[0] == results[1], (spans, leap_table, profile)
                found[attribution] = results[0]
            minimized = found.pop(ExtendedAttribution.MINIMIZE_VIOLATIONS)
            seen["raised"] += isinstance(minimized, tuple)
            seen["flagged"] += isinstance(minimized, list) and bool(minimized)
            seen["minimize differs"] += all(minimized != fixed for fixed in found.values())
    assert all(count > 100 for count in seen.values()), seen


def _random_weekly_rest_instance(rng: random.Random, max_weeks: int = 6):
    """2 to `max_weeks` weeks of a minute trace: breaks, daily rests and
    24-75 h rests, with 1-15 h of other work between them, and random
    waived weeks, leap seconds and compensation knobs."""
    first = rng.randint(0, 3)
    scope = list(range(first, first + rng.randint(2, max_weeks)))
    # distinct Sundays, as check_all requires: a Sunday drawn again keeps its
    # first delta
    deltas = {}
    for _ in range(rng.randint(0, 2)):
        deltas.setdefault(rng.randint(first - 1, scope[-1] + 1), rng.choice((-1, 1)))
    leap_table = timeline.validate_leap_table(
        [LeapSecond(sunday, deltas[sunday]) for sunday in sorted(deltas)]
    )
    long_share = rng.uniform(0.03, 0.4)
    runs = []
    start = spec.monday(first) // 60 + rng.randint(-2000, 600)
    t = start * 60
    while t < spec.monday(scope[-1] + 1, leap_table) + 3 * 86400:
        gap = rng.randint(60, 900)
        roll = rng.random()
        if roll < long_share:
            minutes = rng.randint(1440, 4500)
        elif roll < 0.6:
            minutes = rng.randint(540, 1439)
        else:
            minutes = rng.randint(15, 60)
        runs += [(O, gap), (R, minutes)]
        t += (gap + minutes) * 60
    mt = MinuteTrace(start * 60, *zip(*runs))
    waived = frozenset(w for w in scope if rng.random() < 0.15)
    profile = SPIRIT.replace(
        id="random",
        attached_compensation=rng.random() < 0.4,
        daily_rest_threshold=rng.choice((15, 540, 660, 1440, rng.randint(15, 1440))),
    )
    return scope, mt, profile, leap_table, waived


def _rests(mt: MinuteTrace) -> list[tuple[int, int]]:
    """The (start, minutes) of the rests of at least 15 minutes, as the
    specification reads them off the labels."""
    runs = spec.runs(labels(mt))
    return [(mt.start + 60 * m, n) for a, m, n in runs if a is R and n >= 15]


def test_weekly_rest_solver_matches_the_backtracking_search():
    rng = random.Random(86)
    feasible = 0
    for _ in range(300):
        scope, mt, profile, leap_table, waived = _random_weekly_rest_instance(rng)
        rests = classify_rests(mt)
        witness = solve_weekly_rests(scope, mt, rests, profile, Calendar(leap_table), waived)
        expected = spec.weekly_rests_feasible(_rests(mt), scope, waived, profile, leap_table)
        assert (witness is not None) == expected
        if witness is not None:
            feasible += 1
            verify_witness(
                witness,
                scope,
                mt,
                rests,
                profile.daily_rest_threshold,
                profile.attached_compensation,
                leap_table,
                waived,
            )
    assert 60 <= feasible <= 240  # both verdicts are well represented


def test_one_prepared_problem_answers_every_waiver_like_a_fresh_solve():
    # probes share the prepared rests; a state leaking from one probe into
    # the next would show as a verdict or witness that a fresh solve, or
    # the backtracking search, does not give
    rng = random.Random(8686)
    feasible = infeasible = 0
    for _ in range(20):
        scope, mt, profile, leap_table, _ = _random_weekly_rest_instance(rng)
        rests = classify_rests(mt)
        calendar = Calendar(leap_table)
        problem = WeeklyRestProblem(scope, mt, rests, profile, calendar)
        for _ in range(24):
            waived = frozenset(w for w in scope if rng.random() < rng.choice((0.1, 0.3, 0.6)))
            witness = weekly._Pass(problem, waived).witness()
            fresh = solve_weekly_rests(scope, mt, rests, profile, calendar, waived)
            expected = spec.weekly_rests_feasible(_rests(mt), scope, waived, profile, leap_table)
            assert (witness is None) == (fresh is None) == (not expected)
            if witness is None:
                infeasible += 1
                continue
            feasible += 1
            assert witness == fresh
            verify_witness(
                witness,
                scope,
                mt,
                rests,
                profile.daily_rest_threshold,
                profile.attached_compensation,
                leap_table,
                waived,
            )
    assert feasible >= 100 and infeasible >= 100  # both verdicts are well represented


def test_a_resumed_pass_holds_a_fresh_passs_frontiers():
    # a pass that waives the weeks `extra` besides its source's resumes at
    # their divergence from the source's frontier; before every run it must
    # hold the states a fresh pass holds there, and give the same verdict
    rng = random.Random(1887)
    seen = collections.Counter()
    for _ in range(150):
        scope, mt, profile, leap_table, _ = _random_weekly_rest_instance(rng, max_weeks=10)
        problem = WeeklyRestProblem(scope, mt, classify_rests(mt), profile, Calendar(leap_table))
        n = len(problem.starts)
        for _ in range(6):
            source = weekly._Pass(problem, frozenset(w for w in scope if rng.random() < 0.15))
            for _ in range(rng.randint(1, 3)):  # a chain of resumed passes
                first = rng.choice(scope)
                extra = range(first, min(scope[-1], first + rng.choice((0, 0, 1, 3))) + 1)
                seen["unservable source"] += problem.unserved(source.waived)
                resumed = weekly._Pass(problem, source.waived | set(extra), source, extra)
                seen["source died"] += source.frontier(resumed.start) is None
                seen["resumes at run 0"] += resumed.start == 0
                fresh = list(problem.frontiers(resumed.waived))
                for run in range(n + 1):
                    at = bisect.bisect_left(fresh, run, key=lambda record: record[0])
                    expected = fresh[at][1] if at < len(fresh) else None
                    record = resumed.frontier(run)
                    assert (record and record[1]) == expected, (run, resumed.waived)
                witness = weekly._Pass(problem, resumed.waived).witness()
                assert resumed.feasible() == (witness is not None)
                seen["feasible"] += witness is not None
                source = resumed
    assert min(seen.values()) >= 40, seen


def test_article86_blame_matches_the_waiver_rounds():
    # the blame as the specification states it: the least k, then the
    # earliest later week w, whose waiver with the first k weeks leaves a
    # feasible scope, each probe a search of its own
    rng = random.Random(8609)
    multi = 0
    for case in range(300):
        if case % 4:
            scope, mt, profile, leap_table = _weekly_layout_instance(rng, max_weeks=6)
        else:
            scope, mt, profile, leap_table, _ = _random_weekly_rest_instance(rng, max_weeks=4)
        rests = classify_rests(mt)
        violations = check_article86(scope, mt, rests, profile, Calendar(leap_table))
        assert violations == spec.article86(_rests(mt), scope, profile, leap_table)
        multi += len(violations) >= 2
    assert multi >= 50  # blames of several weeks are well represented


def _weekly_layout_instance(rng: random.Random, max_weeks: int = 40):
    """2 to `max_weeks` weeks whose rests sit near each week's start, in one
    of four layouts: an early obstruction (reduced weeks, maybe a long one)
    with a long regular tail, one rest spanning weeks, a 45/24/66-like
    rotation, or weeks drawn from a menu of rest lengths. Day cycles fill
    each week; knobs and leap seconds are random."""
    first = rng.randint(0, 3)
    n = rng.randint(2, max_weeks)
    layout = rng.choice(("tail", "long", "rotation", "menu"))
    if layout == "tail":
        reduced = rng.randint(1, min(8, n))
        hours = [rng.randint(24, 40) for _ in range(reduced)]
        if rng.random() < 0.6:
            hours.append(rng.randint(55, 80))
        hours += [rng.randint(45, 50)] * (n - len(hours))
    elif layout == "long":
        hours = [rng.choice((24, 45, 45, 66)) for _ in range(n)]
        at = rng.randrange(n)
        hours[at] = rng.randint(1, min(4, n - at)) * 168 - rng.randint(20, 60)
    elif layout == "rotation":
        cycle = [rng.choice((24, 30, 45, 50, 66, 70)) for _ in range(rng.randint(2, 4))]
        hours = [cycle[w % len(cycle)] for w in range(n)]
    else:
        hours = [rng.choice((0, 24, 30, 36, 45, 45, 45, 66, 80)) for _ in range(n)]
    leap_table = tuple(
        LeapSecond(i, rng.choice((-1, 1)))
        for i in sorted(rng.sample(range(first - 1, first + n + 1), rng.randint(0, 2)))
    )
    week = 7 * 24 * 60
    start = spec.monday(first, leap_table) // 60 - rng.randint(0, 600)
    runs = [(R, rng.randint(1, 600))]
    skip = 0  # weeks a long rest already covers
    for h in hours:
        if skip:
            skip -= 1
            continue
        lead = rng.randint(0, 1800)
        rest = h * 60 + rng.randint(-30, 30) if h else 0
        runs += [(O, lead + 1), (R, max(rest, 1))]
        used = lead + 1 + max(rest, 1)
        skip = used // week
        used %= week
        while used + 24 * 60 <= week:
            runs += [(O, 13 * 60), (R, 11 * 60)]
            used += 24 * 60
        runs.append((O, week - used + 1))
    runs.append((R, rng.randint(60, 3000)))
    mt = MinuteTrace(start * 60, *zip(*runs))
    profile = SPIRIT.replace(
        id="layout",
        attached_compensation=rng.random() < 0.3,
        daily_rest_threshold=rng.choice((15, 540, 660, 1440)),
    )
    return list(range(first, first + n)), mt, profile, leap_table


def _bisected_blame(scope: list[int], problem: WeeklyRestProblem) -> list[int]:
    """The weeks `check_article86` blames, found by bisections whose every
    probe is a fresh pass from the first run.

    Waiving a week drops its pairs and its candidacy, so "waiving S leaves
    a feasible scope" is monotone in S. Let j be the least j at which
    waiving scope[:j] does; then only weeks from scope[j - 1] on can rescue
    a shorter prefix, and rescue is monotone in the prefix too.
    """

    @functools.cache
    def rescues(k: int, w: int) -> bool:
        return weekly._Pass(problem, frozenset(scope[:k] + [w])).feasible()

    if weekly._Pass(problem, frozenset()).feasible():
        return []
    j = bisect.bisect_left(
        range(len(scope) - 1), True, lo=1, key=lambda j: rescues(j - 1, scope[j - 1])
    )
    tail = scope[j - 1 :]
    k = bisect.bisect_left(range(j - 1), True, key=lambda k: any(rescues(k, w) for w in tail))
    return scope[:k] + [next(w for w in tail if rescues(k, w))]


def test_article86_blame_matches_the_fresh_solve_bisections():
    # two engine paths: every probe of `_bisected_blame` solves from the
    # first run; the engine's probes resume from recorded frontiers and skip
    # those whose source died. Scopes reach 40 weeks, past the sizes the
    # specification's search can take, so the blame's own claim is checked
    # too: waiving the blamed weeks leaves a scope with a valid witness.
    rng = random.Random(1886)
    seen = collections.Counter()
    for case in range(2000):
        max_weeks = rng.choice((8, 16, 40))
        if case % 2:
            scope, mt, profile, leap_table, _ = _random_weekly_rest_instance(rng, max_weeks)
        else:
            scope, mt, profile, leap_table = _weekly_layout_instance(rng, max_weeks)
        rests = classify_rests(mt)
        calendar = Calendar(leap_table)
        problem = WeeklyRestProblem(scope, mt, rests, profile, calendar)
        blamed = weekly._blamed_weeks(scope, problem)
        assert blamed == _bisected_blame(scope, problem), (case, scope, blamed)
        witness = solve_weekly_rests(scope, mt, rests, profile, calendar, frozenset(blamed))
        assert witness is not None, (case, scope, blamed)
        verify_witness(
            witness,
            scope,
            mt,
            rests,
            profile.daily_rest_threshold,
            profile.attached_compensation,
            leap_table,
            blamed,
        )
        seen["infeasible"] += bool(blamed)
        seen["several"] += len(blamed) >= 2
        seen["long scope"] += len(scope) >= 20 and bool(blamed)
    assert seen["infeasible"] >= 800 and seen["several"] >= 200 and seen["long scope"] >= 200, seen


def _letter_week(t: int, leap_table) -> int | str:
    """The specification's Letter week of t, or the message its lookup raises."""
    try:
        return spec.week_of(t, leap_table, WeekPolicy.LETTER)
    except WeekUndefinedError as exc:
        return str(exc)


def test_complete_weeks_match_the_week_walk():
    # the calendar against the specification's `monday`, `week_of` and
    # week walk: tables of 0-3 Sundays near the trace and some of ~500 spread
    # around it, unsorted, with both signs; instants within 2 s of each
    # boundary; traces starting at or near a boundary
    rng = random.Random(1653)
    durations = (1, SECONDS_PER_WEEK - 1, SECONDS_PER_WEEK, SECONDS_PER_WEEK + 1)
    seen = collections.Counter()
    for case in range(2000):
        if case % 40:
            sundays = rng.sample(range(-4, 12), rng.randint(0, 3))
            weeks = range(-3, 11)
        else:
            sundays = rng.sample(range(-300, 300), rng.randint(450, 550))
            weeks = sorted(rng.sample(range(-350, 350), 14))
        leap_table = tuple(LeapSecond(i, rng.choice((-1, 1))) for i in sundays)
        letter = Calendar(leap_table, WeekPolicy.LETTER)
        spirit = letter.spirit()
        # the one-pass list of Mondays, over a span that holds table Sundays
        first = rng.randint(-6, 6) if case % 40 else rng.randint(-320, 0)
        stop = first + rng.randint(-1, 20 if case % 40 else 340)
        expected = [spec.monday(w, leap_table) for w in range(first, stop)]
        assert letter.mondays(first, stop) == expected
        for week in weeks:
            monday = spec.monday(week, leap_table)
            assert spirit.monday(week) == letter.monday(week) == monday
            for t in range(monday - 2, monday + 3):
                assert spirit.week_of(t) == spec.week_of(t, leap_table)
                expected = _letter_week(t, leap_table)
                try:
                    assert letter.week_of(t) == expected
                except WeekUndefinedError as exc:
                    assert str(exc) == expected
                    seen["undefined"] += 1

        boundary = spec.monday(rng.choice(weeks[1:-4]), leap_table)
        if rng.random() < 0.7:
            start = boundary + rng.randint(-2, 2)
        else:
            start = boundary + rng.randint(-SECONDS_PER_WEEK, SECONDS_PER_WEEK)
        if rng.random() < 0.6:
            duration = rng.choice(durations)
        else:
            duration = rng.randint(1, 3 * SECONDS_PER_WEEK)
        trace = SecondTrace.from_runs(start, [(R, duration)])
        expected = spec.complete_weeks(trace.start, trace.end, leap_table)
        assert list(spirit.complete_weeks(trace.start, trace.end)) == expected
        seen["complete"] += bool(expected)
        lookups = [_letter_week(t, leap_table) for t in (start - 1, trace.end)]
        undefined = [w for w in lookups if isinstance(w, str)]
        try:
            assert list(letter.complete_weeks(trace.start, trace.end)) == expected
            assert not undefined
        except WeekUndefinedError as exc:
            assert str(exc) == undefined[0]
            seen["letter refuses the scope"] += 1
    assert min(seen.values()) >= 100, seen


# blank, whitespace-only and comment lines, one of them not ASCII
SKIPPED_LINES = ["", "  ", "\t", "# note", "  #0,DRIVING,60", "#a,b,c", "# é"]
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


def _random_record_text(rng: random.Random, fault_rate: float) -> str | bytes:
    """Record text in every spelling the format allows, with faults of each
    kind planted at `fault_rate` per record, so a text may hold several."""
    lines = []
    t = rng.randint(0, 10**6)
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.1:
            lines.append(rng.choice(SKIPPED_LINES))
            continue
        start, duration = t, rng.randint(1, 5000)
        name = rng.choice(["DRIVING", "REST", "OTHER_WORK"])
        fields = None
        if rng.random() < fault_rate:
            fault = rng.randrange(6)
            if fault == 0:
                start += rng.randint(1, 100)  # gap
            elif fault == 1:
                start -= rng.randint(1, 100)  # overlap
            elif fault == 2:
                name = rng.choice(["NAPPING", "driving", "", "DRIVING REST"])
            elif fault == 3:
                duration = rng.choice([0, -1, -60])
            elif fault == 4:
                fields = rng.choice([[str(start)], [str(start), name], [str(start), name, "", ""]])
            else:
                fields = [str(start), name, rng.choice(["1.5", "0x10", "", "ten", "1__0"])]
        t = start + duration
        if fields is None:
            spell = rng.choice([str, "+{}".format, "{:_}".format, " {} ".format])
            pad = rng.choice(["", " ", "\t"])
            fields = [spell(start), pad + name + pad, spell(duration)]
        line = rng.choice(["", " ", "\t"]) + ",".join(fields) + rng.choice(["", " "])
        if rng.random() < 0.05:
            # a character that ends a line for `str.splitlines` but not here
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(NOT_LINE_ENDS) + line[at:]
        lines.append(line)
    newline = rng.choice(["\n", "\r\n", "\r"])
    text = newline.join(lines) + rng.choice(["", newline])
    return text.encode("utf-8") if rng.random() < 0.5 else text


def _parse_outcome(parse, data):
    try:
        return parse(data)
    except TraceError as exc:
        return type(exc), str(exc)


def _checked_parse(data):
    """`parse_trace` of data, or its error, once the specification's parse
    is found to agree."""
    outcome = _parse_outcome(parse_trace, data)
    expected = _parse_outcome(spec.parse, data)
    if isinstance(outcome, SecondTrace):
        assert (outcome.start, outcome.segments) == expected, data
    else:
        assert outcome == expected, data
    return outcome


PARSE_ERRORS = (
    "not ASCII",
    "no records",
    "expected 'start,ACTIVITY,duration'",
    "non-integer field",
    "unknown activity",
    "must be positive",
    "gap of",
    "overlap",
)


def test_parse_trace_matches_the_two_loop_parser_on_random_texts():
    rng = random.Random(1_000)
    kinds = collections.Counter()
    for _ in range(3000):
        data = _random_record_text(rng, rng.choice([0.0, 0.02, 0.1, 0.3]))
        outcome = _checked_parse(data)
        if isinstance(outcome, SecondTrace):
            kinds["trace"] += 1
            continue
        message = outcome[1]
        kinds[next(kind for kind in PARSE_ERRORS if kind in message)] += 1
        if message.startswith("line "):
            # is there a gap or overlap before the line in error?
            lineno = int(message.split(":")[0].split()[1])
            text = data.decode("ascii") if isinstance(data, bytes) else data
            head = "\n".join(re.split("\r\n|\r|\n", text)[: lineno - 1])
            earlier = _parse_outcome(parse_trace, head)
            if isinstance(earlier, tuple) and ("gap" in earlier[1] or "overlap" in earlier[1]):
                kinds["format error after a disorder"] += 1
    assert len(kinds) == len(PARSE_ERRORS) + 2 and min(kinds.values()) >= 20, kinds


def _canonical_record_text(rng: random.Random) -> str:
    """`to_records` of a random trace of maximal runs, from a start that may
    be zero or negative."""
    start = rng.choice([0, rng.randint(-10**6, -1), rng.randint(1, 10**9)])
    count = rng.choice([1, rng.randint(2, 40)])
    runs = [
        (rng.choice([D, R, O]), rng.choice([1, 60, rng.randint(2, 10**5)])) for _ in range(count)
    ]
    return SecondTrace.from_runs(start, runs).to_records()


def _respell_duration(spell):
    def edit(rng, lines, i):
        start, name, duration = lines[i].split(",")
        lines[i] = f"{start},{name},{spell(duration)}"
    return edit


def _split_record(rng, lines, i):
    # the longest record, which has two seconds unless every record has one
    i = max(range(len(lines)), key=lambda k: int(lines[k].split(",")[2]))
    start, name, duration = lines[i].split(",")
    head = rng.randint(1, int(duration) - 1) if int(duration) > 1 else 0
    tail = f"{int(start) + head},{name},{int(duration) - head}"
    lines[i : i + 1] = [f"{start},{name},{head}", tail]


def _shift_start(sign):
    def edit(rng, lines, i):
        start, rest = lines[i].split(",", 1)
        lines[i] = f"{int(start) + sign * rng.randint(1, 100)},{rest}"
    return edit


def _minus_zero(rng, lines, i):
    # on the record that starts at 0 if there is one, else a disorder
    starts = [line.split(",")[0] for line in lines]
    i = starts.index("0") if "0" in starts else i
    lines[i] = "-0" + lines[i][len(starts[i]) :]


def _comma_across_line_end(rng, lines, i):
    # the duration moves to the head of the next line, "s,N" then "d,s,N,d"
    # (or "d" alone after the last line): the fields stay as they were
    start, name, duration = lines[i].split(",")
    lines[i : i + 2] = [f"{start},{name}", ",".join([duration, *lines[i + 1 : i + 2]])]


def _whitespace_beside_a_number(rng, lines, i):
    # `int` strips a form feed or vertical tab around a number, and neither
    # ends a line
    fields = lines[i].split(",")
    k = rng.choice([0, 2])
    space = rng.choice("\f\v")
    fields[k] = space + fields[k] if rng.random() < 0.5 else fields[k] + space
    lines[i] = ",".join(fields)


def _start_at_the_digit_limit(rng, lines, i):
    # a first start of 4,300 digits, the most `int` reads and `%d` writes;
    # the starts after it reach 4,301 digits at a random record, or only at
    # the end of the trace
    records = [line.split(",") for line in lines]
    durations = [int(duration) for _, _, duration in records]
    limit = 10**4300
    t = limit - rng.randint(1, sum(durations))
    for record, duration in zip(records, durations):
        record[0] = str(t) if t < limit else "1" + str(t - limit).zfill(4300)
        t += duration
    lines[:] = map(",".join, records)


# one edit each; None keeps the text canonical
RECORD_TEXT_EDITS = {
    "canonical": None,
    "-0": _minus_zero,
    "+5": _respell_duration("+{}".format),
    "1_000": _respell_duration(lambda d: f"{d[0]}_{d[1:]}" if len(d) > 1 else f"0_{d}"),
    "05": _respell_duration("0{}".format),
    "non-ASCII digit": _respell_duration(lambda d: d[:-1] + chr(0xFF10 + int(d[-1]))),
    "trailing space": _respell_duration("{} ".format),
    "comment": lambda rng, lines, i: lines.insert(i, "# note"),
    "blank line": lambda rng, lines, i: lines.insert(i, ""),
    "split record": _split_record,
    "gap": _shift_start(+1),
    "overlap": _shift_start(-1),
    "zero duration": _respell_duration(lambda d: "0"),
    # on the last record, where no later start shows that the sum went back
    "negative duration": lambda rng, lines, i: _respell_duration("-{}".format)(
        rng, lines, len(lines) - 1
    ),
    "comma across line end": _comma_across_line_end,
    "form feed or vertical tab": _whitespace_beside_a_number,
    "4,300-digit start": _start_at_the_digit_limit,
    "CRLF": None,
    "lone CR": None,
    "no final newline": None,
}
LINE_ENDS = {"CRLF": "\r\n", "lone CR": "\r"}
ERROR_KINDS = (
    "-0", "gap", "overlap", "zero duration", "negative duration", "comma across line end"
)


def _edited_record_text(rng: random.Random, kind: str) -> str | bytes:
    lines = _canonical_record_text(rng).splitlines()
    if RECORD_TEXT_EDITS[kind] is not None:
        RECORD_TEXT_EDITS[kind](rng, lines, rng.randrange(len(lines)))
    newline = LINE_ENDS.get(kind, "\n")
    # one text in ten loses its final newline on top of its edit
    final = "" if kind == "no final newline" or rng.random() < 0.1 else newline
    text = newline.join(lines) + final
    # a non-ASCII digit is only a question for `str` input
    return text.encode("ascii") if kind != "non-ASCII digit" and rng.random() < 0.5 else text


# README "Canonical form", written as a pattern: each number as `str` writes
# it (so at most 4,300 digits), "\n" line ends, a final one optional
_CANONICAL_RECORD = re.compile(
    r"(0|-?[1-9][0-9]{0,4299}),(DRIVING|REST|OTHER_WORK),([1-9][0-9]{0,4299})"
)


def _is_canonical(text: str) -> bool:
    """Every line a canonical record, the records contiguous."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    records = [_CANONICAL_RECORD.fullmatch(line) for line in lines]
    if not records or not all(records):
        return False
    ends = itertools.accumulate((int(m[3]) for m in records), initial=int(records[0][1]))
    return all(int(m[1]) == end for m, end in zip(records, ends))


def test_parse_trace_matches_the_two_loop_parser_on_canonical_texts_and_one_edit_mutants(
    monkeypatch,
):
    line_parses = 0
    parse_lines = timeline._parse_lines

    def counting(text):
        nonlocal line_parses
        line_parses += 1
        return parse_lines(text)

    monkeypatch.setattr(timeline, "_parse_lines", counting)
    rng = random.Random(11)
    kinds = [*RECORD_TEXT_EDITS] * 3 + ["canonical"] * 10
    outcomes = collections.Counter()
    for _ in range(4000):
        kind = rng.choice(kinds)
        data = _edited_record_text(rng, kind)
        text = data.decode("ascii") if isinstance(data, bytes) else data
        before = line_parses
        outcome = _checked_parse(data)
        # a text is parsed in bulk exactly when it is canonical
        path = "line by line" if line_parses > before else "bulk"
        assert (path == "bulk") == _is_canonical(text), (kind, data)
        outcomes[kind, path] += 1
        if not isinstance(outcome, SecondTrace):
            outcomes[kind, "error"] += 1
            continue
        outcomes[kind, "trace"] += 1
        records = outcome.to_records()
        # the digest is taken from the input exactly when it is the record text
        assert (outcome._digest is not None) == (text == records), (kind, data)
        assert outcome.digest() == hashlib.sha256(records.encode("ascii")).hexdigest()
    mixed = "4,300-digit start"  # canonical while the sums stay within the limit
    for kind in RECORD_TEXT_EDITS:
        if kind not in (*ERROR_KINDS, mixed):
            assert outcomes[kind, "trace"] >= 100, (kind, outcomes)
    for kind in (*ERROR_KINDS, mixed):
        assert outcomes[kind, "error"] >= 20, (kind, outcomes)
    assert outcomes[mixed, "bulk"] >= 20 and outcomes[mixed, "trace"] >= 50, outcomes
    for kind in ("canonical", "no final newline"):
        assert outcomes[kind, "line by line"] == 0, (kind, outcomes)
    # the edits aimed at render-and-compare reach the line parser
    aimed = ("lone CR", "negative duration", "comma across line end", "form feed or vertical tab")
    for kind in aimed:
        assert outcomes[kind, "line by line"] >= 100, (kind, outcomes)


def test_coalesce_matches_groupby_on_random_run_lists():
    rng = random.Random(5)
    for _ in range(500):
        kinds = rng.sample([D, R, O], rng.randint(1, 3))
        runs = [(rng.choice(kinds), rng.randint(1, 100)) for _ in range(rng.randint(0, 30))]
        expected = spec.merge(runs)
        columns = (tuple(a for a, _ in runs), tuple(n for _, n in runs))
        assert maximal_columns(*columns) == (
            tuple(a for a, _ in expected),
            tuple(n for _, n in expected),
        )
        if not runs:
            with pytest.raises(TraceError, match="at least one second"):
                SecondTrace.from_runs(0, runs)
            continue
        assert SecondTrace.from_runs(0, runs).segments == expected
        # runs given as lists still come out as tuples
        assert SecondTrace.from_runs(0, [list(run) for run in runs]).segments == expected


def _random_run_list(rng: random.Random) -> list:
    """Runs from one second to a day whose neighbours often share an
    activity, and in two lists of five already maximal."""
    kinds = rng.sample([D, R, O], rng.randint(1, 3))
    runs = [
        (rng.choice(kinds), rng.choice([1, 59, 60, 61, rng.randint(1, 10**5)]))
        for _ in range(rng.randint(1, 40))
    ]
    return list(spec.merge(runs)) if rng.random() < 0.4 else runs


def _record_text(start: int, runs) -> str:
    """One record line per (activity, seconds) pair, neighbours left unmerged."""
    starts = itertools.accumulate((n for _, n in runs), initial=start)
    return "".join(f"{t},{a.value},{n}\n" for (a, n), t in zip(runs, starts))


def _traces_of_runs(start: int, runs: list) -> dict[str, SecondTrace]:
    """The trace of `runs` by the constructor, `from_runs` and both parsers."""
    text = _record_text(start, runs)  # a record per run, merged or not
    return {
        "bulk parse": parse_trace(text),
        "line parse": parse_trace(text.replace("\n", "\r\n")),
        "from_runs": SecondTrace.from_runs(start, runs),
        "columns": SecondTrace(start, *zip(*runs)),
    }


def test_column_traces_match_the_pair_construction_on_random_run_lists(monkeypatch):
    paths = collections.Counter()
    parse_canonical = timeline._parse_canonical

    def counting(text):
        trace = parse_canonical(text)
        paths["bulk" if trace is not None else "line by line"] += 1
        return trace

    monkeypatch.setattr(timeline, "_parse_canonical", counting)
    rng = random.Random(12)
    instants = random.Random(27)  # apart from `rng`, which draws the runs
    merged = 0
    for _ in range(400):
        start = rng.choice([0, rng.randint(-10**6, -1), rng.randint(1, 10**9)])
        runs = _random_run_list(rng)
        segments = spec.merge(runs)
        merged += len(segments) < len(runs)
        records = _record_text(start, segments)
        reference = SecondTrace(start, *zip(*segments))
        for path, trace in _traces_of_runs(start, runs).items():
            assert trace.segments == segments, path
            assert (trace.activities, trace.seconds) == tuple(zip(*segments)), path
            assert trace == reference and hash(trace) == hash(reference), path
            # a bulk parse of maximal records builds no trace through the
            # constructor's checks: what they derive must still agree
            assert (trace._bounds, trace.end) == (reference._bounds, reference.end), path
            t = instants.randrange(start, reference.end)
            assert trace.run_at(t) == reference.run_at(t), path
            assert trace.truncated(t + 1) == reference.truncated(t + 1), path
            starts = itertools.accumulate((n for _, n in segments), initial=start)
            assert list(trace.runs()) == [(a, t, n) for (a, n), t in zip(segments, starts)], path
            assert trace.to_records() == records, path
            assert trace.digest() == hashlib.sha256(records.encode("ascii")).hexdigest(), path
    assert paths["bulk"] == paths["line by line"] == 400, paths
    assert 100 <= merged <= 300, merged


def _split_runs(rng: random.Random, trace: SecondTrace) -> list:
    """The runs of `trace`, some cut in two, so that neighbours share an activity."""
    runs = []
    for activity, seconds in trace.segments:
        if seconds > 1 and rng.random() < 0.3:
            head = rng.randint(1, seconds - 1)
            runs += [(activity, head), (activity, seconds - head)]
        else:
            runs.append((activity, seconds))
    return runs


def test_labels_of_column_traces_match_the_oracles_where_upgrades_merge_runs():
    rng = random.Random(51)
    merges = 0
    for _ in range(6):
        trace = _stop_and_go_trace(rng)
        runs = _split_runs(rng, trace)
        assert len(runs) > len(trace.segments)
        for built in _traces_of_runs(trace.start, runs).values():
            assert built == trace
        for offset in rng.sample(range(60), 3):
            grid = TimeGrid(offset)
            first_layer = label_rule52(trace, grid)
            for semantics in Rule51Semantics:
                mt = label_minutes(trace, grid, semantics)
                first, expected = _spec_labels(trace, grid, semantics)
                # one run per minute, merged by the constructor
                reference = MinuteTrace(grid.minute_start(first), expected, [1] * len(expected))
                assert mt == reference and hash(mt) == hash(reference)
                assert labels(mt) == expected
                assert mt.segments == spec.merge((label, 1) for label in expected)
                # an upgrade merges three runs into one
                merges += (len(first_layer.counts) - len(mt.counts)) // 2
    assert merges > 500, merges


def test_article82_matches_the_all_rests_scan_on_random_layouts():
    rng = random.Random(82)
    judged = collections.Counter()
    for _ in range(1500):
        mt = _random_minute_trace(rng)
        threshold = rng.choice([15, 45, 540, 660, 1440, rng.randint(15, 1440)])
        profile = SPIRIT.replace(daily_rest_threshold=threshold)
        violations = check_article82(classify_rests(mt), mt, profile)
        assert violations == spec.article82(labels(mt), mt.start, profile)
        judged["violated"] += len(violations)
        judged["met"] += sum(
            mt.start + 60 * mt.bounds[i + 1] + 86400 <= mt.end
            for i in classify_rests(mt)
            if mt.counts[i] >= threshold
        ) - len(violations)
    assert min(judged.values()) > 500, judged


def test_rest_indices_are_the_classified_periods():
    # each kind the later stages read off a rest's minutes is the kind the
    # specification gives it
    rng = random.Random(1516)
    kinds = collections.Counter()
    for _ in range(1000):
        mt = _random_minute_trace(rng)
        threshold = rng.choice([15, 44, 45, 46, 540, 1440, rng.randint(15, 1440)])
        rests = classify_rests(mt)
        periods = [(m, n) for a, m, n in spec.runs(labels(mt)) if a is R and n >= 15]
        assert [(mt.bounds[i], mt.counts[i]) for i in rests] == periods
        for i in rests:
            assert mt.activities[i] is R
            minutes = mt.counts[i]
            kind = spec.kind(minutes, threshold)
            assert (minutes >= threshold) == (kind in spec.REST_PERIODS)
            assert (minutes >= REDUCED_WEEKLY_MIN_MINUTES) == (kind in spec.WEEKLY_RESTS)
            assert (minutes >= REGULAR_WEEKLY_MIN_MINUTES) == (kind == "regular weekly rest")
            # the accumulator's reset test for a rest with no pending part
            assert (minutes >= min(FULL_BREAK_MIN_MINUTES, threshold)) == (
                kind != "break" or minutes >= 45
            )
            kinds[kind] += 1
    assert len(kinds) == 4 and min(kinds.values()) > 200, kinds
