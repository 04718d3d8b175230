import random
import time

import pytest

import spec
from conftest import D, HOUR, O, R, day_cycle, minutes_of, trace_of, week_runs
from tachocheck import weekly
from tachocheck.minutes import label_minutes
from tachocheck.patterns import gen_compensation_chain
from tachocheck.periods import accumulate_driving, classify_rests, daily_driving_spans
from tachocheck.profiles import (
    ExtendedAttribution,
    builtin_profiles,
    diff_verdicts,
)
from tachocheck.rules import check_all, check_article7, check_article61, check_article82
from tachocheck.weekly import check_article86, solve_weekly_rests
from tachocheck.timeline import (
    SECONDS_PER_WEEK,
    Calendar,
    LeapSecond,
    SecondTrace,
    TimeGrid,
    TraceError,
    WeekUndefinedError,
    parse_trace,
    validate_leap_table,
)

GRID = TimeGrid(0)
SPIRIT = builtin_profiles()["spirit"]
LETTER = builtin_profiles()["letter"]
CALENDAR = Calendar()


def scope_of(trace):
    """The complete weeks of `trace`, the scope `check_all` gives 8.6."""
    return CALENDAR.complete_weeks(trace.start, trace.end)


def pipeline(trace, profile=SPIRIT):
    mt = label_minutes(trace, GRID, profile.rule51)
    rests = classify_rests(mt)
    return mt, rests


# --- article 7 ---


def test_article7_interleaved_rests_stay_legal():
    trace = minutes_of(*([(D, 1), (R, 2), (D, 1)] * 135))
    mt, rests = pipeline(trace)
    assert check_article7(accumulate_driving(mt, rests, SPIRIT), mt) == []


def test_article7_one_minute_over():
    trace = minutes_of((D, 271))
    mt, rests = pipeline(trace)
    violations = check_article7(accumulate_driving(mt, rests, SPIRIT), mt)
    assert len(violations) == 1
    assert violations[0].window_start == 270 * 60
    assert violations[0].window_end == 271 * 60


def test_article7_split_break_window():
    trace = minutes_of((D, 260), (R, 15), (D, 20), (R, 30), (D, 200))
    mt, rests = pipeline(trace)
    violations = check_article7(accumulate_driving(mt, rests, SPIRIT), mt)
    assert len(violations) == 1
    # accumulated driving minutes 271..280 fall in trace minutes 285..294
    assert violations[0].window_start == 285 * 60
    assert violations[0].window_end == 295 * 60


def test_article7_two_separate_overruns():
    trace = minutes_of((D, 300), (R, 45), (D, 300))
    mt, rests = pipeline(trace)
    violations = check_article7(accumulate_driving(mt, rests, SPIRIT), mt)
    assert len(violations) == 2


def article7_windows(trace, profile=SPIRIT):
    """(start minute, end minute, peak) of each Article 7 violation."""
    mt, rests = pipeline(trace, profile)
    return [
        (v.window_start // 60, v.window_end // 60, int(v.detail.split()[3]))
        for v in check_article7(accumulate_driving(mt, rests, profile), mt)
    ]


def test_article7_limit_reached_at_a_run_boundary_opens_at_the_next_drive():
    trace = minutes_of((D, 200), (R, 10), (D, 70), (O, 5), (R, 3), (D, 4))
    assert article7_windows(trace) == [(288, 292, 274)]


def test_article7_window_ends_with_the_last_drive_not_the_reset():
    trace = minutes_of((D, 280), (O, 30), (R, 45), (D, 10))
    assert article7_windows(trace) == [(270, 280, 280)]


def test_article7_split_break_resets_across_other_work():
    split = minutes_of((D, 200), (R, 15), (O, 20), (R, 30), (D, 200))
    assert article7_windows(split) == []
    second_part_too_short = minutes_of((D, 200), (R, 15), (O, 20), (R, 29), (D, 200))
    assert article7_windows(second_part_too_short) == [(334, 464, 400)]


def test_article7_thirty_minute_daily_rest_resets():
    trace = minutes_of((D, 200), (R, 30), (D, 100))
    # under the default threshold the 30 min rest is only a first split part
    assert article7_windows(trace) == [(300, 330, 300)]
    daily = SPIRIT.replace(id="short-daily", daily_rest_threshold=30)
    assert article7_windows(trace, daily) == []


def test_article7_trace_ending_over_the_limit():
    trace = minutes_of((D, 100), (R, 10), (D, 200))
    assert article7_windows(trace) == [(280, 310, 300)]


def test_article7_monotone_under_added_rest():
    rng = random.Random(5)
    for _ in range(25):
        runs = [
            (rng.choice([D, R, O]), rng.randint(1, 120))
            for _ in range(rng.randint(3, 14))
        ]
        trace = minutes_of(*runs)
        mt, rests = pipeline(trace)
        before = len(check_article7(accumulate_driving(mt, rests, SPIRIT), mt))

        position = rng.randint(0, len(runs))
        longer = runs[:position] + [(R, rng.randint(1, 60))] + runs[position:]
        trace2 = minutes_of(*longer)
        mt2, rests2 = pipeline(trace2)
        after = len(check_article7(accumulate_driving(mt2, rests2, SPIRIT), mt2))
        assert after <= before


# --- article 6.1 ---


def ext_day(last_drive_minutes):
    """Driving block with compliant breaks totalling 540 + last_drive_minutes."""
    return [
        (D, 270 * 60),
        (R, 45 * 60),
        (D, 270 * 60),
        (R, 45 * 60),
        (D, last_drive_minutes * 60),
    ]


def test_three_extensions_in_one_week_flag_the_third():
    runs = [(R, 9 * HOUR)]
    for _ in range(3):
        runs += ext_day(30) + [(R, 9 * HOUR)]  # 570 driving minutes each
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    assert [s.driving_minutes for s in spans] == [570, 570, 570]
    violations = check_article61(spans, SPIRIT)
    assert len(violations) == 1
    assert violations[0].window_start == spans[2].start


def test_two_extensions_and_a_plain_day_are_fine():
    runs = [(R, 9 * HOUR)]
    runs += ext_day(60) + [(R, 9 * HOUR)]  # 600
    runs += ext_day(60) + [(R, 9 * HOUR)]  # 600
    runs += [(D, 540 * 60), (R, 9 * HOUR)]  # 540: not an extension
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    assert check_article61(spans, SPIRIT) == []


def test_driving_over_600_minutes_always_flags():
    trace = SecondTrace.from_runs(0, [(R, 9 * HOUR)] + ext_day(61) + [(R, 9 * HOUR)])
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    violations = check_article61(spans, SPIRIT)
    assert len(violations) == 1
    assert "extension cap" in violations[0].detail


def _crossing_week_trace():
    """Two extensions inside week 0 plus one extension crossing into week 1."""
    runs = [(R, 9 * HOUR)]
    runs += ext_day(60) + [(R, 9 * HOUR)]
    runs += ext_day(60) + [(R, 9 * HOUR)]
    used = sum(s for _, s in runs)
    # keep the daily-rest rhythm, then start the last 10 h day at 162 h so
    # it straddles the Sunday 24:00 boundary at 168 h
    while used + 23 * HOUR + 9 * HOUR <= 162 * HOUR:
        for run in day_cycle():
            runs.append(run)
            used += run[1]
    runs.append((O, 153 * HOUR - used))
    runs.append((R, 9 * HOUR))
    runs += ext_day(60) + [(R, 9 * HOUR)]
    return SecondTrace.from_runs(0, runs)


def test_extension_attribution_knob_changes_the_verdict():
    trace = _crossing_week_trace()
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    crossing = [s for s in spans if s.start < SECONDS_PER_WEEK < s.end]
    assert len(crossing) == 1

    def with_attribution(attribution):
        profile = SPIRIT.replace(id="x", extended_attribution=attribution)
        return check_article61(spans, profile)

    assert len(with_attribution(ExtendedAttribution.START_WEEK)) == 1
    assert with_attribution(ExtendedAttribution.END_WEEK) == []
    assert with_attribution(ExtendedAttribution.MINIMIZE_VIOLATIONS) == []


def test_minimize_violations_cannot_fix_two_full_weeks():
    # two 10 h days inside each adjacent week and a crossing 10 h day:
    # every attribution leaves some week with three extensions
    base = _crossing_week_trace()
    runs = [(activity, seconds) for activity, _, seconds in base.runs()]
    runs += ext_day(60) + [(R, 9 * HOUR)]
    runs += ext_day(60) + [(R, 9 * HOUR)]
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    third = "daily driving of 600 minutes is a third or later 10-hour extension"
    in_week0 = [(583200, 624600, f"{third} in week 0")]
    in_week1 = [(730800, 772200, f"{third} in week 1")]
    # a tie between the crossing day's two weeks goes to its start week
    for attribution, expected in (
        (ExtendedAttribution.START_WEEK, in_week0),
        (ExtendedAttribution.END_WEEK, in_week1),
        (ExtendedAttribution.MINIMIZE_VIOLATIONS, in_week0),
    ):
        profile = SPIRIT.replace(id="x", extended_attribution=attribution)
        found = [(v.window_start, v.window_end, v.detail) for v in check_article61(spans, profile)]
        assert found == expected


def test_minimize_violations_is_linear_in_crossing_extensions():
    # 26 weeks; a 10 h day crosses each of the 25 Sunday boundaries. Even
    # weeks already hold two mid-week 10 h days, odd weeks one, so each odd
    # week can absorb one of its two crossing neighbours: 13 are absorbed
    # and 12 are violations whatever the attribution.
    week_minutes = SECONDS_PER_WEEK // 60
    days = []
    for week in range(26):
        for weekday in (1, 3) if week % 2 == 0 else (2,):
            days.append(week * week_minutes + weekday * 1440 + 480)
        if week < 25:
            days.append((week + 1) * week_minutes - 300)
    runs, at = [], 0
    for day in days:
        runs.append((R, (day - at) * 60))
        runs += ext_day(60)
        at = day + 690
    runs.append((R, (26 * week_minutes - at) * 60))
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    assert sum(1 for s in spans if s.driving_minutes == 600) == 25 + 13 * 2 + 13
    profile = SPIRIT.replace(
        id="x", extended_attribution=ExtendedAttribution.MINIMIZE_VIOLATIONS
    )
    started = time.perf_counter()
    violations = check_article61(spans, profile)
    assert time.perf_counter() - started < 1.0
    assert len(violations) == 12


def test_more_rest_can_raise_the_61_count():
    # three 9.5 h days after 11 h rests, then 9 h of other work and a fourth
    # day: one 19 h span exceeds the 10 h cap. Turning the 9 h into rest
    # splits it into two 9.5 h spans, the third and fourth extensions of
    # week 0, so 6.1 counts two where it counted one, while the total falls.
    day = [(D, 270), (R, 45), (D, 270), (R, 45), (D, 30)]
    rest = [(R, 660)]
    for gap, expected in (
        (O, [("6.1", 198000, 309600), ("7", 284400, 286200), ("8.2", 198000, 284400)]),
        (R, [("6.1", 198000, 237600), ("6.1", 270000, 309600)]),
    ):
        trace = minutes_of(*rest, *day, *rest, *day, *rest, *day, (gap, 540), *day, *rest)
        for profile in (SPIRIT, LETTER):
            report = check_all(trace, GRID, profile)
            windows = [(v.article, v.window_start, v.window_end) for v in report.violations]
            assert windows == expected


def test_letter_leap_policy_surfaces_in_week_attribution():
    trace = SecondTrace.from_runs(0, [(R, 9 * HOUR)] + ext_day(60) + [(R, 9 * HOUR)])
    mt, rests = pipeline(trace)
    spans = daily_driving_spans(mt, rests, SPIRIT)
    table = (LeapSecond(sunday_index=0, delta=-1),)
    with pytest.raises(WeekUndefinedError):
        check_article61(spans, SPIRIT, Calendar(table, LETTER.leap_week_policy))
    assert check_article61(spans, SPIRIT, Calendar(table)) == []
    profile = SPIRIT.replace(id="x", leap_week_policy=LETTER.leap_week_policy)
    with pytest.raises(WeekUndefinedError):
        check_all(trace, GRID, profile, table)


def test_article86_reads_spirit_weeks_under_letter():
    """Article 8.6 and its complete-week scope read Spirit weeks under
    every profile: `letter` judges week 1, whose Sunday 24:00 a negative
    leap second removed, as if it ended, and does not raise. ROADMAP item 1
    will change the `letter` half of this pin."""
    table = (LeapSecond(0, 1), LeapSecond(1, -1), LeapSecond(2, 1))
    trace = gen_compensation_chain(3).truncated(Calendar(table).monday(3))
    for profile in (SPIRIT, LETTER):
        report = check_all(trace, profile.grid(), profile, table)
        found = [(v.article, v.window_start, v.window_end) for v in report.violations]
        assert found == [("8.6", 0, 604801)]


def test_check_all_refuses_a_leap_table_naming_a_sunday_twice():
    # two +1 entries would make week 0 two seconds longer, and a +1 and a -1
    # would cancel while Letter still refused week 0's 24:00
    trace = chain_weeks(45, 45, 45)
    for delta in (1, -1):
        table = (LeapSecond(0, 1), LeapSecond(0, delta))
        with pytest.raises(TraceError, match="that Sunday is already listed"):
            check_all(trace, GRID, SPIRIT, table)
        with pytest.raises(TraceError, match="that Sunday is already listed"):
            Calendar(table)
        with pytest.raises(TraceError, match="that Sunday is already listed"):
            diff_verdicts(trace, [SPIRIT, LETTER], table)
    table = [LeapSecond(0, 1), LeapSecond(1, -1)]
    assert validate_leap_table(table) == tuple(table)
    assert check_all(trace, GRID, SPIRIT, table).violations == ()


# --- article 8.2 ---


def test_new_rest_within_24h_is_fine():
    trace = trace_of((R, 9 * HOUR), (O, 14 * HOUR), (R, 9 * HOUR), (O, HOUR))
    mt, rests = pipeline(trace)
    assert check_article82(rests, mt, SPIRIT) == []


def test_late_rest_is_flagged():
    trace = trace_of((R, 9 * HOUR), (O, 21 * HOUR), (R, 9 * HOUR), (O, HOUR))
    mt, rests = pipeline(trace)
    violations = check_article82(rests, mt, SPIRIT)
    assert len(violations) == 1
    assert violations[0].window_start == 9 * HOUR
    assert violations[0].window_end == 33 * HOUR


def test_long_rest_counts_once_enough_of_it_fits():
    # next rest run is 20 h long and ends past the window, but its first
    # 9 h complete inside it
    trace = trace_of((R, 9 * HOUR), (O, 14 * HOUR), (R, 20 * HOUR), (O, 2 * HOUR))
    mt, rests = pipeline(trace)
    assert check_article82(rests, mt, SPIRIT) == []


def test_window_running_past_trace_end_is_not_judged():
    trace = trace_of((R, 9 * HOUR), (O, 10 * HOUR))
    mt, rests = pipeline(trace)
    assert check_article82(rests, mt, SPIRIT) == []
    # a window that ends with the trace is judged; one a minute longer is not
    for tail, judged in ((24 * HOUR, True), (24 * HOUR - 60, False)):
        mt, rests = pipeline(trace_of((R, 9 * HOUR), (O, tail)))
        assert len(check_article82(rests, mt, SPIRIT)) == judged


def test_interleaved_driving_between_close_daily_rests():
    runs = [(R, 9 * HOUR)] + [(D, 60), (R, 120), (D, 60)] * 135 + [(R, 11 * HOUR)]
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    assert check_article82(rests, mt, SPIRIT) == []


# --- article 8.6 / 8.9 ---


def chain_weeks(*rest_hours):
    runs = []
    for hours in rest_hours:
        runs.extend(week_runs(hours))
    return SecondTrace.from_runs(0, runs)


def test_full_weekly_rests_every_week_pass():
    trace = chain_weeks(45, 45, 45)
    mt, rests = pipeline(trace)
    assert check_article86(scope_of(trace), mt, rests, SPIRIT) == []


def test_scope_must_be_consecutive_weeks():
    # judging the pair (0, 1) on the scope [0, 2] would blame week 0 of a
    # compliant trace
    trace = chain_weeks(45, 45, 45, 45)
    mt, rests = pipeline(trace)
    with pytest.raises(ValueError, match=r"consecutive weeks, got \[0, 2\]"):
        check_article86([0, 2], mt, rests, SPIRIT)
    with pytest.raises(ValueError, match=r"consecutive weeks, got \[2, 1\]"):
        solve_weekly_rests([2, 1], mt, rests, SPIRIT)
    assert check_article86([1, 2], mt, rests, SPIRIT) == []
    assert check_article86(range(4), mt, rests, SPIRIT) == []


def test_reduced_rest_needs_compensation():
    trace = chain_weeks(45, 24, 45, 45)
    mt, rests = pipeline(trace)
    violations = check_article86(scope_of(trace), mt, rests, SPIRIT)
    assert [v.window_start // SECONDS_PER_WEEK for v in violations] == [1]


def test_compensated_reduction_passes():
    runs = week_runs(45)
    runs += week_runs(24)
    # week 2 carries its own regular rest plus a separate 21 h block that
    # completes well before the end of week 4
    runs += [(R, 45 * HOUR), (O, HOUR), (R, 21 * HOUR)]
    gap = SECONDS_PER_WEEK - 67 * HOUR
    cycles, rem = divmod(gap, 23 * HOUR)
    for _ in range(cycles):
        runs.extend(day_cycle())
    if rem:
        runs.append((O, rem))
    runs += week_runs(45)
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    assert check_article86(scope_of(trace), mt, rests, SPIRIT) == []


def test_two_consecutive_reduced_rests_fail():
    trace = chain_weeks(45, 24, 24, 45)
    mt, rests = pipeline(trace)
    violations = check_article86(scope_of(trace), mt, rests, SPIRIT)
    assert violations != []


def test_week_without_weekly_rest_fails():
    runs = week_runs(45)
    runs += [(O, 14 * HOUR), (R, 9 * HOUR)] * 7 + [(O, SECONDS_PER_WEEK - 7 * 23 * HOUR)]
    runs += week_runs(45)
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    violations = check_article86(scope_of(trace), mt, rests, SPIRIT)
    assert [v.window_start // SECONDS_PER_WEEK for v in violations] == [1]


def test_restless_week_can_be_carried_by_a_neighbour_with_two_rests():
    # the pair requirement literally asks for two weekly rests "in any two
    # consecutive weeks"; both may sit in the same week
    runs = [(R, 45 * HOUR), (O, 2 * HOUR), (R, 45 * HOUR)]
    used = 92 * HOUR
    cycles, rem = divmod(SECONDS_PER_WEEK - used, 23 * HOUR)
    for _ in range(cycles):
        runs.extend(day_cycle())
    if rem:
        runs.append((O, rem))
    runs += [(O, 14 * HOUR), (R, 9 * HOUR)] * 7 + [(O, SECONDS_PER_WEEK - 7 * 23 * HOUR)]
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    scope = scope_of(trace)
    assert check_article86(scope, mt, rests, SPIRIT) == []
    witness = solve_weekly_rests(scope, mt, rests, SPIRIT)
    assert len(witness["assignments"]) == 2
    verify_witness(witness, scope, mt, rests)


def test_rest_ending_at_monday_midnight_is_not_a_candidate_for_that_week():
    # week 1 holds two 45 h rests, the second ending exactly at week 2's
    # start, week 2 none and week 3 one. Counted for week 2, that rest would
    # meet both pairs; it does not overlap week 2, so pair (2, 3) fails.
    # One minute more of it does overlap week 2, and the scope is feasible.
    for extra, feasible in ((0, False), (60, True)):
        trace = SecondTrace.from_runs(
            CALENDAR.monday(1),
            [
                (O, 2 * HOUR),
                (R, 45 * HOUR),
                (O, 76 * HOUR),
                (R, 45 * HOUR + extra),
                (O, SECONDS_PER_WEEK - extra + 2 * HOUR),
                (R, 45 * HOUR),
                (O, 121 * HOUR),
            ],
        )
        mt, rests = pipeline(trace)
        witness = solve_weekly_rests([1, 2, 3], mt, rests, SPIRIT)
        assert (witness is not None) == feasible
        if feasible:
            verify_witness(witness, [1, 2, 3], mt, rests)


def test_a_compensation_block_may_end_exactly_at_its_deadline():
    # week 1's 24 h rest leaves 21 h to compensate before the end of week 4,
    # and the only rest that can host them is 21 h long. Ending at Monday
    # 00:00 of week 5 it is in time; one minute later it is not.
    host_end = CALENDAR.monday(5)
    for late, feasible in ((0, True), (60, False)):
        host = host_end - 21 * HOUR + late
        trace = SecondTrace.from_runs(
            CALENDAR.monday(1),
            [
                (R, 24 * HOUR),
                (O, SECONDS_PER_WEEK - 24 * HOUR),
                (R, 45 * HOUR),
                (O, host - CALENDAR.monday(2) - 45 * HOUR),
                (R, 21 * HOUR),
                (O, HOUR),
            ],
        )
        mt, rests = pipeline(trace)
        witness = solve_weekly_rests([1, 2], mt, rests, SPIRIT)
        assert (witness is not None) == feasible
        if feasible:
            verify_witness(witness, [1, 2], mt, rests)
            assert witness["compensations"][0]["donor_start"] == host


def verify_witness(
    witness,
    scope,
    mt,
    rests,
    daily_threshold=540,
    attached=False,
    leap_table=(),
    waived=frozenset(),
):
    """Check a weekly-rest witness by direct arithmetic, independently of the
    solver's own bookkeeping."""
    runs = {mt.start + 60 * mt.bounds[i]: mt.counts[i] for i in rests}
    assignments = witness["assignments"]
    blocks = witness["compensations"]

    # each rest run is counted in at most one week it overlaps, within its
    # own length
    starts = [entry["run_start"] for entry in assignments]
    assert len(starts) == len(set(starts))
    for entry in assignments:
        assert entry["run_minutes"] == runs[entry["run_start"]]
        assert 1440 <= entry["counted_minutes"] <= min(2700, entry["run_minutes"])
        assert entry["role"] == (
            "regular" if entry["counted_minutes"] == 2700 else "reduced"
        )
        week = entry["week"]
        assert week in scope and week not in waived
        run_end = entry["run_start"] + entry["run_minutes"] * 60
        assert entry["run_start"] < spec.monday(week + 1, leap_table)
        assert run_end > spec.monday(week, leap_table)

    # every consecutive pair of non-waived weeks sees two regular rests or
    # one of each
    for w1, w2 in zip(scope, scope[1:]):
        if w1 in waived or w2 in waived:
            continue
        roles = [e["role"] for e in assignments if e["week"] in (w1, w2)]
        regular = roles.count("regular")
        reduced = roles.count("reduced")
        assert regular >= 2 or (regular >= 1 and reduced >= 1), (w1, w2, roles)

    # each reduction is covered by exactly one block of exactly its size,
    # in a later run and inside its deadline; reductions are keyed by their
    # run, since one week may count two reduced rests
    debts = {
        entry["run_start"]: (entry["week"], 2700 - entry["counted_minutes"])
        for entry in assignments
        if entry["role"] == "reduced"
    }
    assert sorted(block["debtor_start"] for block in blocks) == sorted(debts)
    for block in blocks:
        week, minutes = debts[block["debtor_start"]]
        assert (block["week"], block["minutes"]) == (week, minutes)
        assert block["deadline"] == spec.monday(week + 4, leap_table)
        assert block["donor_start"] > block["debtor_start"]

    # donors: counted part plus blocks fit, and blocks meet their deadlines
    # even when tiled from the run start in deadline order
    counted_by_run = {e["run_start"]: e["counted_minutes"] for e in assignments}
    donors = {}
    for block in blocks:
        donors.setdefault(block["donor_start"], []).append(block)
    for donor_start, donor_blocks in donors.items():
        total = sum(b["minutes"] for b in donor_blocks)
        leftover = runs[donor_start] - total - counted_by_run.get(donor_start, 0)
        assert leftover >= 0
        t = donor_start
        for block in sorted(donor_blocks, key=lambda b: b["deadline"]):
            t += block["minutes"] * 60
            assert t <= block["deadline"]
        if attached and donor_start not in counted_by_run:
            assert runs[donor_start] - total >= daily_threshold


def test_solver_witness_counts_each_rest_once():
    trace = chain_weeks(45, 24, 66, 45)
    mt, rests = pipeline(trace)
    scope = scope_of(trace)
    witness = solve_weekly_rests(scope, mt, rests, SPIRIT)
    assert witness is not None
    assert {entry["week"] for entry in witness["assignments"]} == set(scope)
    verify_witness(witness, scope, mt, rests)


def test_solver_witnesses_verify_independently():
    cases = [
        chain_weeks(45, 45, 45),
        chain_weeks(45, 24, 66, 45),
        chain_weeks(45, 30, 60, 45, 45),
        chain_weeks(45, 24, 45, 66, 45),
        chain_weeks(45, 24, 45, 45, 45, 66, 45),
    ]
    for trace in cases:
        mt, rests = pipeline(trace)
        scope = scope_of(trace)
        witness = solve_weekly_rests(scope, mt, rests, SPIRIT)
        assert witness is not None, "expected a satisfiable layout"
        verify_witness(witness, scope, mt, rests)


def test_spare_rest_before_the_reduction_does_not_compensate():
    # week 0 has 21 h of spare rest, but compensation follows the reduction:
    # week 1's debt cannot reach backwards, and pushing it forward only
    # produces adjacent reduced weeks
    trace = chain_weeks(66, 24, 45, 45)
    mt, rests = pipeline(trace)
    violations = check_article86(scope_of(trace), mt, rests, SPIRIT)
    assert [v.window_start // SECONDS_PER_WEEK for v in violations] == [1]


def test_deadline_forces_a_cascade_instead_of_direct_donation():
    # spare capacity only exists in week 5's long rest, out of reach of week
    # 1's end-of-week-4 deadline; the solver must route the compensation
    # through an intermediate week, reducing that week's own rest in turn
    trace = chain_weeks(45, 24, 45, 45, 45, 66, 45)
    mt, rests = pipeline(trace)
    scope = scope_of(trace)
    assert check_article86(scope, mt, rests, SPIRIT) == []
    witness = solve_weekly_rests(scope, mt, rests, SPIRIT)
    blocks = witness["compensations"]
    assert len(blocks) >= 2  # the debt hopped at least once
    for block in blocks:
        assert block["deadline"] == CALENDAR.monday(block["week"] + 4)
        assert block["donor_start"] + block["minutes"] * 60 <= block["deadline"]
    donors = {block["donor_start"] for block in blocks}
    fat_run_start = 5 * SECONDS_PER_WEEK
    assert fat_run_start in donors  # the chain ends at week 5's spare
    direct = [b for b in blocks if b["week"] == 1 and b["donor_start"] == fat_run_start]
    assert direct == []  # week 1 could not reach week 5 directly


def test_counted_host_keeps_a_reduced_weekly_rest():
    # week 0's 21 h debt must be paid before the end of week 3. Weeks 1 and
    # 3 hold exactly 45 h, and week 2's 30 h rest is needed for the pairs
    # but may keep no less than 24 h, so it cannot host the debt and pass a
    # larger one on to week 4's spare. A 45 h week 2 can, and keeps 24 h;
    # one a minute shorter cannot.
    shorter = [(R, 45 * HOUR - 60), (O, 60), *week_runs(45)[1:]]
    for week2, feasible in ((week_runs(30), False), (shorter, False), (week_runs(45), True)):
        runs = [*week_runs(24), *week_runs(45), *week2, *week_runs(45), *week_runs(66)]
        trace = SecondTrace.from_runs(0, runs)
        mt, rests = pipeline(trace)
        witness = solve_weekly_rests([0, 1, 2, 3], mt, rests, SPIRIT)
        assert (witness is not None) == feasible
        if feasible:
            verify_witness(witness, [0, 1, 2, 3], mt, rests)


def test_attached_compensation_knob():
    # the 21 h donor block stands alone: allowed by default, rejected when
    # compensation must attach to another rest period
    runs = week_runs(45)
    runs += week_runs(24)
    runs += [(R, 45 * HOUR), (O, HOUR), (R, 21 * HOUR)]
    gap = SECONDS_PER_WEEK - 67 * HOUR
    cycles, rem = divmod(gap, 23 * HOUR)
    for _ in range(cycles):
        runs.extend(day_cycle())
    if rem:
        runs.append((O, rem))
    runs += week_runs(45)
    trace = SecondTrace.from_runs(0, runs)
    mt, rests = pipeline(trace)
    scope = scope_of(trace)
    assert check_article86(scope, mt, rests, SPIRIT) == []
    attached = SPIRIT.replace(id="att", attached_compensation=True)
    assert check_article86(scope, mt, rests, attached) != []


def test_solver_stays_fast_on_long_infeasible_traces():
    import time

    trace = chain_weeks(*[45 if i != 8 else 24 for i in range(16)])
    mt, rests = pipeline(trace)
    start = time.perf_counter()
    violations = check_article86(scope_of(trace), mt, rests, SPIRIT)
    elapsed = time.perf_counter() - start
    assert [v.window_start // SECONDS_PER_WEEK for v in violations] == [8]
    assert elapsed < 5.0


def test_solver_attribution_is_deterministic_on_messy_traces():
    trace = chain_weeks(*[24 if i % 2 == 0 else 45 for i in range(10)])
    mt, rests = pipeline(trace)
    first = check_article86(scope_of(trace), mt, rests, SPIRIT)
    second = check_article86(scope_of(trace), mt, rests, SPIRIT)
    assert first == second
    assert all(v.article == "8.6" for v in first)
    assert first != []


def test_compensation_chain_has_no_depth_cliff():
    # week 0's verdict hinges on week 49, forty-nine weeks later
    trace = gen_compensation_chain(49)
    started = time.perf_counter()
    full = check_all(trace, GRID, SPIRIT)
    cut = check_all(trace.truncated(CALENDAR.monday(49)), GRID, SPIRIT)
    elapsed = time.perf_counter() - started
    assert full.violations == ()
    assert [(v.article, v.window_start // SECONDS_PER_WEEK) for v in cut.violations] == [
        ("8.6", 0)
    ]
    assert elapsed < 2.0


def count_passes(monkeypatch) -> list:
    """Make the 8.6 forward pass append one entry per pass started to the
    returned list: a full solve, or a pass resumed from a recorded frontier.
    A probe whose source died before the week it waives starts none."""
    calls = []
    frontiers = weekly.WeeklyRestProblem.frontiers

    def counting_frontiers(*args, **kwargs):
        calls.append(None)
        return frontiers(*args, **kwargs)

    monkeypatch.setattr(weekly.WeeklyRestProblem, "frontiers", counting_frontiers)
    return calls


def test_long_reduced_rest_rotation_checks_quickly(monkeypatch):
    # 45/24/66 over 26 weeks ends on an unpaid reduction in week 25; the
    # blame is week 24, as the backtracking solver found. One pass of the
    # whole scope, which ends with the debt unpaid; the search for the
    # shortest waived prefix that restores feasibility starts at week 25,
    # and one pass waiving weeks 0-23 fails, so it is weeks 0-24. Then
    # week 24 alone rescues: its probe resumes near the end of the first
    # pass.
    calls = count_passes(monkeypatch)
    trace = chain_weeks(*[(45, 24, 66)[w % 3] for w in range(26)])
    started = time.perf_counter()
    report = check_all(trace, GRID, SPIRIT)
    elapsed = time.perf_counter() - started
    assert [(v.article, v.window_start // SECONDS_PER_WEEK) for v in report.violations] == [
        ("8.6", 24)
    ]
    assert len(calls) == 3
    assert elapsed < 1.0


def test_one_check_prepares_the_rests_once(monkeypatch):
    # the rotation makes 3 passes over one prepared problem
    trace = chain_weeks(*[(45, 24, 66)[w % 3] for w in range(26)])
    mt, rests = pipeline(trace)
    scope = scope_of(trace)
    prepared = []
    prepare = weekly.WeeklyRestProblem.__init__

    def counting_prepare(*args, **kwargs):
        prepared.append(None)
        prepare(*args, **kwargs)

    monkeypatch.setattr(weekly.WeeklyRestProblem, "__init__", counting_prepare)
    calls = count_passes(monkeypatch)
    assert len(check_article86(scope, mt, rests, SPIRIT)) == 1
    assert len(calls) == 3
    assert len(prepared) == 1


def test_early_obstruction_with_a_long_tail_checks_quickly(monkeypatch):
    # ten reduced weeks and a 66 h week, then 300 regular weeks: the
    # unwaived pass dies in week 1, so the prefix search starts there and
    # its infeasible passes die early too; each probe of the tail resumes
    # from a prefix's pass, and those past where it died start no pass
    calls = count_passes(monkeypatch)
    trace = chain_weeks(*[24] * 10, 66, *[45] * 300)
    started = time.perf_counter()
    report = check_all(trace, GRID, SPIRIT)
    elapsed = time.perf_counter() - started
    assert [(v.article, CALENDAR.week_of(v.window_start)) for v in report.violations] == [
        ("8.6", week) for week in [*range(7), 8]
    ]
    assert len(calls) == 12
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "trace, blamed, passes",
    [
        # every week reduced and never compensated
        (lambda: SecondTrace.from_runs(0, week_runs(24) * 104), [*range(101), 102], 17),
        # one valid record: a single rest spanning n complete weeks counts for
        # at most one week, so no pair is met and the blame is weeks 0 to
        # n - 4 and week n - 2
        (lambda: parse_trace("0,REST,100000000\n"), [*range(162), 163], 9),
        (lambda: parse_trace("0,REST,1000000000\n"), [*range(1650), 1651], 9),
        (lambda: parse_trace("0,REST,10000000000\n"), [*range(16531), 16532], 9),
    ],
    ids=["week-runs-24-x104", "rest-1e8-seconds", "rest-1e9-seconds", "rest-1e10-seconds"],
)
def test_long_infeasible_traces_blame_the_same_weeks_quickly(
    monkeypatch, trace, blamed, passes
):
    calls = count_passes(monkeypatch)
    trace = trace()
    started = time.perf_counter()
    report = check_all(trace, GRID, SPIRIT)
    elapsed = time.perf_counter() - started
    assert [(v.article, CALENDAR.week_of(v.window_start)) for v in report.violations] == [
        ("8.6", week) for week in blamed
    ]
    assert len(calls) == passes
    assert elapsed < 2.0


def test_short_trace_skips_86_with_notice():
    trace = chain_weeks(45)
    report = check_all(trace, GRID, SPIRIT)
    assert any("8.6" in n for n in report.notices)
    assert all(v.article != "8.6" for v in report.violations)


# --- check_all ---


def test_all_rest_week_is_compliant():
    trace = trace_of((R, SECONDS_PER_WEEK))
    report = check_all(trace, GRID, SPIRIT)
    assert report.violations == ()
    assert report.statistics["total_driving_minutes"] == 0


def test_check_all_statistics():
    trace = minutes_of((D, 60), (R, 1), (D, 60))
    report = check_all(trace, GRID, SPIRIT)
    assert report.statistics["total_driving_minutes"] == 121


def test_check_all_is_deterministic():
    trace = chain_weeks(45, 24, 45, 45)
    first = check_all(trace, GRID, SPIRIT).to_json()
    second = check_all(trace, GRID, SPIRIT).to_json()
    assert first == second


@pytest.mark.parametrize("threshold", [15, 44, 45, 46, 1440])
def test_a_rest_of_the_threshold_is_a_rest_period_and_one_minute_less_is_not(threshold):
    # a 24 h rest, 200 min driving, the rest under test, 100 min driving,
    # then other work long enough for both 8.2 windows to be judged
    profile = SPIRIT.replace(id="t", daily_rest_threshold=threshold)
    day = 1440
    for rest, period in ((threshold, True), (threshold - 1, False)):
        trace = minutes_of((R, day), (D, 200), (R, rest), (D, 100), (O, 3000))
        report = check_all(trace, GRID, profile)
        assert report.statistics["rest_periods"] == 1 + period
        # a rest period bounds two spans; a shorter rest leaves one
        assert report.statistics["daily_driving_spans"] == 1 + period
        rest_end = day + 200 + rest
        expected = set()
        # 300 driving minutes pass the Article 7 limit unless the rest resets
        if not (period or rest >= 45):
            expected.add(("7", rest_end + 70, rest_end + 100))
        # the 24 h rest's window needs a new rest period to complete in it;
        # one of 1440 minutes could only by starting at the window's start
        if not period or rest_end + rest > 2 * day:
            expected.add(("8.2", day, 2 * day))
        if period:
            expected.add(("8.2", rest_end, rest_end + day))
        assert {
            (v.article, v.window_start // 60, v.window_end // 60) for v in report.violations
        } == expected


def test_violation_windows_lie_within_trace():
    rng = random.Random(77)
    for _ in range(10):
        runs = [
            (rng.choice([D, R, O]), rng.randint(60, 4 * HOUR))
            for _ in range(rng.randint(4, 16))
        ]
        trace = SecondTrace.from_runs(0, runs)
        report = check_all(trace, GRID, SPIRIT)
        for violation in report.violations:
            assert trace.start <= violation.window_start < violation.window_end
            assert violation.window_end <= trace.end + 86400
