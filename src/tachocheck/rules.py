"""Articles 7, 6.1 and 8.2 over a labeled, segmented trace, and `check_all`.

Each check is relative to an interpretation profile:

- Article 7: at most 270 accumulated driving minutes before a qualifying
  break. Exactly 270 is legal; thresholds are strict throughout.
- Article 6.1: daily driving time of at most 540 minutes, extendable to 600
  at most twice per calendar week; the week an extension crossing Sunday
  24:00 counts against is a profile knob.
- Article 8.2: within 24 hours of the end of a rest period, a new daily (or
  weekly) rest must have been completed.

`check_all` runs these and Article 8.6 (`weekly`) and writes a `Report`
(`report`).
"""

from __future__ import annotations

import bisect
from typing import Sequence

from .minutes import MinuteTrace, label_minutes
from .periods import accumulate_driving, classify_rests, daily_driving_spans
from .profiles import ExtendedAttribution, InterpretationProfile, ProfileError
from .report import Report, Violation
from .timeline import (
    SECONDS_PER_DAY,
    SECONDS_PER_MINUTE,
    Calendar,
    LeapSecond,
    SecondTrace,
    TimeGrid,
)

# `solve_weekly_rests` is imported for the name `rules.solve_weekly_rests`
# only, which callers such as the benchmark's tracer look up here
from .weekly import check_article86, solve_weekly_rests  # noqa: F401

DRIVE_BEFORE_BREAK_LIMIT_MINUTES = 270
DAILY_DRIVING_LIMIT_MINUTES = 540
EXTENDED_DAILY_LIMIT_MINUTES = 600
MAX_EXTENSIONS_PER_WEEK = 2
NEW_REST_WINDOW_SECONDS = SECONDS_PER_DAY


def check_article7(
    stretches: Sequence[tuple[int, int]], mt: MinuteTrace, profile_id: str = ""
) -> list[Violation]:
    """One violation per maximal interval of accumulation beyond 270 minutes.

    Takes the stretches of `accumulate_driving` over the label runs of
    `mt`. The reported window runs from the minute the accumulator first
    exceeded the limit to the end of the last minute that still added
    driving before the next reset. A stretch's driving is a difference of
    the driving prefix sums; only a stretch over the limit is searched, by
    two bisections on those sums.
    """
    bounds, driving = mt.bounds, mt.driving
    origin = mt.start
    limit = DRIVE_BEFORE_BREAK_LIMIT_MINUTES
    violations = []
    for first, end in stretches:
        base, total = driving[first], driving[end]
        if total - base <= limit:
            continue
        # the driving run during which the accumulator passes the limit
        over = bisect.bisect_right(driving, base + limit, first, end) - 1
        over_minute = bounds[over] + base + limit - driving[over]
        # one past the stretch's last driving run
        last = bisect.bisect_left(driving, total, first, end)
        violations.append(
            Violation(
                "7",
                origin + over_minute * SECONDS_PER_MINUTE,
                origin + bounds[last] * SECONDS_PER_MINUTE,
                f"accumulated driving reached {total - base} minutes without a "
                f"qualifying break (limit {limit})",
                profile_id,
            )
        )
    return violations


def check_article61(
    spans: Sequence[tuple[int, int, int]],
    profile: InterpretationProfile,
    calendar: Calendar = Calendar(),
) -> list[Violation]:
    """Daily driving limit with the twice-per-week 10-hour extension.

    `spans` are `(start, end, driving_minutes)` tuples, disjoint and in
    time order, as `daily_driving_spans` returns them. An extension (over
    540, at most 600 minutes) counts against its week. One that crosses
    Sunday 24:00 counts against its start week or its end week, as
    `extended_attribution` says; under MinimizeViolations, against
    whichever leaves the fewest third-or-later extensions, ties going to
    the start week, earlier spans first.

    Lemma: whichever week each crossing extension takes, the week an
    extension counts against never decreases along the spans, since its end
    week is at most the next span's start week. So each week's extensions
    are consecutive, and the state after an extension is its week and its
    count there, capped at 2. A backward pass finds `least[i, state]`, the
    fewest third-or-later extensions that extensions i.. can leave after
    `state`. The forward pass takes each extension's first option that
    keeps that optimum, and flags it when its week's count passes 2. Under
    a fixed reading every extension has one option.
    """
    attribution = profile.extended_attribution
    violations = []
    extensions = []  # (span, the weeks it may count against: start week first)
    for span in spans:
        start, end, driving = span
        if driving > EXTENDED_DAILY_LIMIT_MINUTES:
            violations.append(
                Violation(
                    "6.1",
                    start,
                    end,
                    f"daily driving of {driving} minutes exceeds even "
                    f"the {EXTENDED_DAILY_LIMIT_MINUTES}-minute extension cap",
                    profile.id,
                )
            )
        elif driving > DAILY_DRIVING_LIMIT_MINUTES:
            start_week = calendar.week_of(start)
            end_week = calendar.week_of(end - 1)
            if start_week == end_week or attribution is ExtendedAttribution.START_WEEK:
                extensions.append((span, (start_week,)))
            elif attribution is ExtendedAttribution.END_WEEK:
                extensions.append((span, (end_week,)))
            else:
                extensions.append((span, (start_week, end_week)))

    # least[i, state]; past the last extension nothing is left to count
    least = {}
    counts = range(1, MAX_EXTENSIONS_PER_WEEK + 1)
    for i in range(len(extensions) - 1, -1, -1):
        states = [(week, c) for week in extensions[i - 1][1] for c in counts] if i else [(None, 0)]
        for state in states:
            least[i, state] = min(
                third + least.get((i + 1, after), 0)
                for after, third in (_count_extension(state, w) for w in extensions[i][1])
            )

    state = (None, 0)
    for i, ((start, end, driving), weeks) in enumerate(extensions):
        for week in weeks:
            after, third = _count_extension(state, week)
            if third + least.get((i + 1, after), 0) == least[i, state]:
                break
        state = after
        if third:
            violations.append(
                Violation(
                    "6.1",
                    start,
                    end,
                    f"daily driving of {driving} minutes is a third "
                    f"or later 10-hour extension in week {week}",
                    profile.id,
                )
            )
    return violations


def _count_extension(state: tuple, week: int) -> tuple[tuple, bool]:
    """The state after one more extension in `week`, and whether that is a
    third or later extension there."""
    last_week, count = state
    if week != last_week:
        return (week, 1), False
    return (week, min(count + 1, MAX_EXTENSIONS_PER_WEEK)), count == MAX_EXTENSIONS_PER_WEEK


def check_article82(
    rests: Sequence[int],
    mt: MinuteTrace,
    profile: InterpretationProfile,
) -> list[Violation]:
    """A new daily rest must complete within 24 h of the last rest's end.

    A rest of at least the daily threshold completes when its first
    threshold-many minutes have elapsed, so a long rest starting late in the
    window still counts as long as enough of it fits. Windows running past
    the end of the trace are not judged. `rests` are `classify_rests(mt)`.

    Rest runs are disjoint and in time order, so the rest period that
    completes first after rest period k ends is rest period k + 1: every
    later one starts after it, and all complete the same threshold-many
    minutes after they start. So each rest period is judged against the
    next one alone.
    """
    counts, bounds = mt.counts, mt.bounds
    origin, horizon = mt.start, mt.end
    threshold = profile.daily_rest_threshold
    periods = [i for i in rests if counts[i] >= threshold]
    violations = []
    for i, following in zip(periods, [*periods[1:], None]):
        end = origin + bounds[i + 1] * SECONDS_PER_MINUTE
        deadline = end + NEW_REST_WINDOW_SECONDS
        if deadline > horizon:
            continue
        if following is None or (
            origin + (bounds[following] + threshold) * SECONDS_PER_MINUTE > deadline
        ):
            violations.append(
                Violation(
                    "8.2",
                    end,
                    deadline,
                    "no new daily rest completed within 24 hours of the end of "
                    f"the rest finishing at second {end}",
                    profile.id,
                )
            )
    return violations


def check_all(
    trace: SecondTrace,
    grid: TimeGrid,
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
) -> Report:
    """Label, segment and run every check; deterministic for fixed inputs.

    A trace that covers no complete minute on the grid is judged on no
    minutes: the report has no violations and says so in a notice. A leap
    table that names a Sunday twice raises TraceError, and a grid whose
    offset is not the profile's `grid_offset` raises ProfileError.
    """
    if grid.minute_offset_seconds != profile.grid_offset:
        raise ProfileError(
            f"grid offset {grid.minute_offset_seconds} is not the profile's "
            f"grid_offset {profile.grid_offset}"
        )
    calendar = Calendar(leap_table, profile.leap_week_policy)
    notices = []
    mt = label_minutes(trace, grid, profile.rule51)
    if not mt.counts:
        notices.append(
            "no minute labeled: trace covers no complete minute on grid offset "
            f"{grid.minute_offset_seconds}"
        )
    rests = classify_rests(mt)
    stretches = accumulate_driving(mt, rests, profile)
    spans = daily_driving_spans(mt, rests, profile)

    violations = []
    violations += check_article7(stretches, mt, profile.id)
    violations += check_article61(spans, profile, calendar)
    violations += check_article82(rests, mt, profile)

    # an open reading: 8.6 and its scope read Spirit weeks under every policy
    calendar = calendar.spirit()
    scope = calendar.complete_weeks(trace.start, trace.end)
    if len(scope) < 2:
        notices.append(
            "article 8.6 skipped: trace covers fewer than two complete weeks"
        )
    else:
        violations += check_article86(scope, mt, rests, profile, calendar)

    violations.sort(key=Violation.sort_key)
    statistics = {
        "total_driving_minutes": mt.driving_minutes(),
        "daily_driving_spans": len(spans),
        "rest_periods": sum(mt.counts[i] >= profile.daily_rest_threshold for i in rests),
    }
    return Report(
        trace_digest=trace.digest(),
        trace_start=trace.start,
        trace_seconds=trace.duration,
        grid_offset=grid.minute_offset_seconds,
        profile=profile,
        violations=tuple(violations),
        statistics=statistics,
        notices=tuple(notices),
    )
