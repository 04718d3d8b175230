"""Differential tests: the engine against the executable specification in
`spec.py`, on small random traces; and two engine paths against each other
where one is a faster form of the other (the closed-form labels and the
walk, a resumed Article 8.6 pass and a fresh one)."""

import ast
import bisect
import collections
import copy
import functools
import hashlib
import itertools
import operator
import pathlib
import pickle
import random
import re
from enum import Enum

import pytest

import spec
import tachocheck
from tachocheck import minutes, periods, rules, timeline, weekly
from tachocheck.minutes import MinuteTrace, Rule51Semantics, label_minutes, label_rule52
from tachocheck.periods import (
    FULL_BREAK_MIN_MINUTES,
    REDUCED_WEEKLY_MIN_MINUTES,
    REGULAR_WEEKLY_MIN_MINUTES,
    accumulate_driving,
    classify_rests,
    daily_driving_spans,
)
from tachocheck.profiles import ExtendedAttribution, WeeklyGapSemantics
from tachocheck.report import Violation
from tachocheck.rules import check_all, check_article7, check_article82
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
    shift_grid,
)
from tachocheck.weekly import WeeklyRestProblem, check_article86, solve_weekly_rests
from traces import (
    MIXED_LEAP_TABLE,
    PROFILES,
    RECORD_TEXT_EDITS,
    SPIRIT,
    D,
    O,
    R,
    article61_instance,
    edited_record_text,
    labels,
    long_run_trace,
    per_minute,
    per_run,
    random_minute_trace,
    random_record_text,
    random_run_list,
    random_trace,
    record_text,
    split_runs,
    stop_and_go_trace,
    traces_of_runs,
    weekly_layout_instance,
    weekly_rest_instance,
)

# the data types the specification may import from the package
SPEC_MAY_IMPORT = {
    "Activity",
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
        trace = random_trace(rng)
        for offset in range(60):
            for semantics in Rule51Semantics:
                _assert_labels_and_article7_match(trace, TimeGrid(offset), semantics)
                compared += 1
    assert compared == 12 * 60 * 3


def test_labels_and_article7_match_the_oracles_on_stop_and_go_traces():
    rng = random.Random(799)
    upgraded = 0
    for _ in range(10):
        trace = stop_and_go_trace(rng)
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


def test_closed_form_labels_match_the_oracles_and_the_walk(monkeypatch):
    walk = minutes._walk_runs

    def no_walk(*args):
        raise AssertionError("a trace with no short interior run was walked")

    monkeypatch.setattr(minutes, "_walk_runs", no_walk)
    rng = random.Random(5260)
    too_short = upgraded = 0
    for _ in range(60):
        trace = long_run_trace(rng)
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
            closed_start, activities, counts, _ = minutes._rule52_runs(trace, grid)
            assert closed_start == start
            walked = walk(trace, start)
            assert (activities, counts) == (tuple(walked[0]), tuple(walked[1]))
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
    kinds = (random_trace, stop_and_go_trace, long_run_trace)
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


def test_traces_derived_from_a_labeled_trace_keep_no_labels():
    # Each way to derive a trace builds a new one: none may carry the labels
    # its source kept, so each labels and checks like a trace built afresh.
    rng = random.Random(2207)
    derivations = {
        "truncated": lambda t: t.truncated(t.start + rng.randint(1, t.duration)),
        "shift_grid": lambda t: shift_grid(t, rng.randint(1, 59)),
        "replace": lambda t: t.replace(),
        "copy": copy.copy,
        "pickle": lambda t: pickle.loads(pickle.dumps(t)),
        "split": lambda t: SecondTrace.from_runs(t.start, split_runs(rng, t)),
    }
    kinds = (random_trace, stop_and_go_trace, long_run_trace)
    for case in range(12):
        source = kinds[case % 3](rng)
        profile = SPIRIT.replace(grid_offset=rng.randrange(60))
        grid = profile.grid()
        for semantics in Rule51Semantics:
            label_minutes(source, grid, semantics)
        assert source._labels is not None
        for name, derive in derivations.items():
            derived = derive(source)
            assert derived._labels is None, name
            fresh = SecondTrace(derived.start, derived.activities, derived.seconds)
            for semantics in Rule51Semantics:
                mt = label_minutes(derived, grid, semantics)
                assert mt == label_minutes(fresh, grid, semantics), (name, semantics)
            report = check_all(derived, grid, profile).to_json()
            assert report == check_all(fresh, grid, profile).to_json(), name


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
    # unchanged. The closed form hands over the minute bounds it found,
    # which must be the counts' prefix sums, and the kept first layer and
    # its unupgraded minute traces share that one tuple.
    rng = random.Random(2900)
    kinds = (random_trace, stop_and_go_trace, long_run_trace)
    seen = collections.Counter()
    for case in range(150):
        trace = kinds[case % 3](rng)
        closed = all(seconds >= 60 for seconds in trace.seconds[1:-1])
        for offset in (0, 27):
            grid = TimeGrid(offset)
            first = label_rule52(trace, grid)
            _assert_maximal(first)
            bounds = trace._labels[1][3]  # None from the walk
            assert bounds is not None or not closed
            if bounds is not None:
                assert bounds == tuple(itertools.accumulate(first.counts, initial=0))
                assert first.bounds is bounds
            seen["closed form" if closed else "walk", 1 in first.counts] += 1
            for semantics in Rule51Semantics:
                mt = label_minutes(trace, grid, semantics)
                _assert_maximal(mt)
                unupgraded = mt == first
                if bounds is not None:
                    assert (mt.bounds is bounds) == unupgraded
                seen["unupgraded" if unupgraded else "upgraded"] += 1
    for path in ("closed form", "walk"):
        for one_minute_run in (False, True):
            assert seen[path, one_minute_run] >= 10, seen
    assert seen["unupgraded"] >= 300 and seen["upgraded"] >= 300, seen


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
        mt = random_minute_trace(rng, profile.grid())
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


def test_article61_matches_the_regrouping_oracle():
    rng = random.Random(61)
    seen = collections.Counter()
    for _ in range(1000):
        spans, leap_table = article61_instance(rng)
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


def _rests(mt: MinuteTrace) -> list[tuple[int, int]]:
    """The (start, minutes) of the rests of at least 15 minutes, as the
    specification reads them off the labels."""
    return [(mt.start + 60 * m, n) for m, n in spec.rest_runs(labels(mt))]


def test_weekly_rest_solver_matches_the_backtracking_search():
    rng = random.Random(86)
    feasible = 0
    for _ in range(300):
        scope, mt, profile, leap_table, waived = weekly_rest_instance(rng)
        rests = classify_rests(mt)
        witness = solve_weekly_rests(scope, mt, rests, profile, Calendar(leap_table), waived)
        expected = spec.weekly_rests_feasible(_rests(mt), scope, waived, profile, leap_table)
        assert (witness is not None) == expected
        if witness is not None:
            feasible += 1
            spec.verify_witness(
                witness, scope, mt, rests, profile.daily_rest_threshold,
                profile.attached_compensation, leap_table, waived
            )
    assert 60 <= feasible <= 240  # both verdicts are well represented


def test_one_prepared_problem_answers_every_waiver_like_a_fresh_solve():
    # probes share the prepared rests; a state leaking from one probe into
    # the next would show as a verdict or witness that a fresh solve, or
    # the backtracking search, does not give
    rng = random.Random(8686)
    feasible = infeasible = 0
    for _ in range(20):
        scope, mt, profile, leap_table, _ = weekly_rest_instance(rng)
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
            spec.verify_witness(
                witness, scope, mt, rests, profile.daily_rest_threshold,
                profile.attached_compensation, leap_table, waived
            )
    assert feasible >= 100 and infeasible >= 100  # both verdicts are well represented


def test_a_resumed_pass_holds_a_fresh_passs_frontiers():
    # a pass that waives the weeks `extra` besides its source's resumes at
    # their divergence from the source's frontier; before every run it must
    # hold the states a fresh pass holds there, and give the same verdict
    rng = random.Random(1887)
    seen = collections.Counter()
    for _ in range(150):
        scope, mt, profile, leap_table, _ = weekly_rest_instance(rng, max_weeks=10)
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
            scope, mt, profile, leap_table = weekly_layout_instance(rng, max_weeks=6)
        else:
            scope, mt, profile, leap_table, _ = weekly_rest_instance(rng, max_weeks=4)
        rests = classify_rests(mt)
        violations = check_article86(scope, mt, rests, profile, Calendar(leap_table))
        assert violations == spec.article86(_rests(mt), scope, profile, leap_table)
        multi += len(violations) >= 2
    assert multi >= 50  # blames of several weeks are well represented


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
            scope, mt, profile, leap_table, _ = weekly_rest_instance(rng, max_weeks)
        else:
            scope, mt, profile, leap_table = weekly_layout_instance(rng, max_weeks)
        rests = classify_rests(mt)
        calendar = Calendar(leap_table)
        problem = WeeklyRestProblem(scope, mt, rests, profile, calendar)
        blamed = weekly._blamed_weeks(scope, problem)
        assert blamed == _bisected_blame(scope, problem), (case, scope, blamed)
        witness = solve_weekly_rests(scope, mt, rests, profile, calendar, frozenset(blamed))
        assert witness is not None, (case, scope, blamed)
        spec.verify_witness(
            witness, scope, mt, rests, profile.daily_rest_threshold,
            profile.attached_compensation, leap_table, blamed
        )
        seen["infeasible"] += bool(blamed)
        seen["several"] += len(blamed) >= 2
        seen["long scope"] += len(scope) >= 20 and bool(blamed)
    assert seen["infeasible"] >= 800 and seen["several"] >= 200 and seen["long scope"] >= 200, seen


def test_the_regular_rest_certificate_agrees_with_the_exact_pass(monkeypatch):
    # `regular_each` settles a probe without a pass. On the two waiver
    # shapes of the blame's probes, a prefix scope[:k] and such a prefix
    # with one later week, a scope it certifies must be one whose exact pass, run to the end,
    # holds a debt-free state; the blame must be the same without it; and
    # the candidate weeks it reads, bisected from the list of Mondays, must
    # be `Calendar.week_of`'s for every long rest, including rests that
    # start before the scope or end after it.
    rng = random.Random(8627)
    seen = collections.Counter()
    for case in range(600):
        if case % 2:
            scope, mt, profile, leap_table, _ = weekly_rest_instance(rng, rng.choice((4, 10)))
        else:
            scope, mt, profile, leap_table = weekly_layout_instance(rng, rng.choice((8, 24)))
        rests = classify_rests(mt)
        calendar = Calendar(leap_table)
        problem = WeeklyRestProblem(scope, mt, rests, profile, calendar)
        seen["negative leap second"] += any(ls.delta == -1 for ls in leap_table)
        for i, (start, minutes) in enumerate(zip(problem.starts, problem.minutes)):
            if minutes < REDUCED_WEEKLY_MIN_MINUTES:
                continue
            first, last = calendar.week_of(start), calendar.week_of(start + minutes * 60 - 1)
            weeks = range(max(first, scope[0]), min(last, scope[-1]) + 1)
            assert problem.candidates[i] == (weeks or ()), (case, i)
            seen["starts before the scope"] += bool(weeks) and first < scope[0]
            seen["ends after the scope"] += bool(weeks) and last > scope[-1]
        for _ in range(4):
            k = rng.randrange(len(scope))
            later = [frozenset([*scope[:k], w]) for w in scope[k + 1 :]]
            for waived in (range(scope[0], scope[0] + k), *rng.sample(later, min(2, len(later)))):
                if problem.regular_each(waived):
                    assert not problem.unserved(waived), (case, waived)
                    assert weekly._Pass(problem, waived).ends_debt_free(), (case, waived)
                    seen["certified", type(waived).__name__] += 1
        blamed = check_article86(scope, mt, rests, profile, calendar)
        with monkeypatch.context() as patched:
            patched.setattr(WeeklyRestProblem, "regular_each", lambda self, waived: False)
            assert check_article86(scope, mt, rests, profile, calendar) == blamed, case
        seen["blamed"] += bool(blamed)
        seen["certified scope"] += not blamed and problem.regular_each(range(0))
    assert min(seen.values()) >= 40, seen


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
        data = random_record_text(rng, rng.choice([0.0, 0.02, 0.1, 0.3]))
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


ERROR_KINDS = (
    "-0", "gap", "overlap", "zero duration", "negative duration", "comma across line end"
)


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
        data = edited_record_text(rng, kind)
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
        runs = random_run_list(rng)
        segments = spec.merge(runs)
        merged += len(segments) < len(runs)
        records = record_text(start, segments)
        reference = SecondTrace(start, *zip(*segments))
        for path, trace in traces_of_runs(start, runs).items():
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


def test_labels_of_column_traces_match_the_oracles_where_upgrades_merge_runs():
    rng = random.Random(51)
    merges = 0
    for _ in range(6):
        trace = stop_and_go_trace(rng)
        runs = split_runs(rng, trace)
        assert len(runs) > len(trace.segments)
        for built in traces_of_runs(trace.start, runs).values():
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
        mt = random_minute_trace(rng)
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
        mt = random_minute_trace(rng)
        threshold = rng.choice([15, 44, 45, 46, 540, 1440, rng.randint(15, 1440)])
        rests = classify_rests(mt)
        periods = spec.rest_runs(labels(mt))
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
