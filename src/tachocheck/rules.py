"""Legality checks over a labeled, segmented trace.

Implemented checks, each relative to an interpretation profile:

- Article 7: at most 270 accumulated driving minutes before a qualifying
  break. Exactly 270 is legal; thresholds are strict throughout.
- Article 6.1: daily driving time of at most 540 minutes, extendable to 600
  at most twice per calendar week; the week an extension crossing Sunday
  24:00 counts against is a profile knob.
- Article 8.2: within 24 hours of the end of a rest period, a new daily (or
  weekly) rest must have been completed.
- Article 8.6 with 8.9: every two consecutive weeks need two regular weekly
  rests, or one regular plus one reduced rest of at least 24 hours whose
  reduction is compensated en bloc before the end of the third following
  week. Evaluated exactly, by search over all ways of counting rests into
  weeks and placing compensation blocks; greedy choices are unsound because
  a compensation can force the donor week's own rest to shrink, cascading
  arbitrarily far forward.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .minutes import MinuteTrace, label_minutes
from .periods import (
    REDUCED_WEEKLY_MIN_MINUTES,
    REGULAR_WEEKLY_MIN_MINUTES,
    REST_PERIOD_KINDS,
    DailyDrivingSpan,
    Period,
    accumulate_driving,
    classify_rests,
    daily_driving_spans,
)
from .profiles import ExtendedAttribution, InterpretationProfile
from .timeline import (
    SECONDS_PER_DAY,
    SECONDS_PER_MINUTE,
    LeapSecond,
    SecondTrace,
    TimeGrid,
    week_of,
    week_start,
)

DRIVE_BEFORE_BREAK_LIMIT_MINUTES = 270
DAILY_DRIVING_LIMIT_MINUTES = 540
EXTENDED_DAILY_LIMIT_MINUTES = 600
MAX_EXTENSIONS_PER_WEEK = 2
COMPENSATION_WINDOW_WEEKS = 3
NEW_REST_WINDOW_SECONDS = SECONDS_PER_DAY


@dataclass(frozen=True)
class Violation:
    article: str
    window_start: int
    window_end: int
    detail: str
    profile_id: str

    def to_dict(self) -> dict:
        return {
            "article": self.article,
            "window": {"start": self.window_start, "end": self.window_end},
            "detail": self.detail,
            "profile_id": self.profile_id,
        }

    def sort_key(self) -> tuple:
        return (self.article, self.window_start, self.window_end, self.detail)


@dataclass(frozen=True)
class Report:
    trace_digest: str
    trace_start: int
    trace_seconds: int
    grid_offset: int
    profile: InterpretationProfile
    violations: tuple[Violation, ...]
    statistics: dict
    notices: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "trace": {
                "digest": self.trace_digest,
                "start": self.trace_start,
                "duration_seconds": self.trace_seconds,
            },
            "grid_offset": self.grid_offset,
            "profile": self.profile.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "statistics": dict(self.statistics),
            "notices": list(self.notices),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def check_article7(
    stream: Sequence[tuple[int, int, int, int]], profile_id: str = ""
) -> list[Violation]:
    """One violation per maximal interval of accumulation beyond 270 minutes.

    Takes the per-run items of `accumulate_driving`. The reported window
    runs from the minute the accumulator first exceeded the limit to the
    end of the last minute that still added driving before the next reset.
    """
    violations = []
    over_start: Optional[int] = None
    last_drive_end = 0
    peak = 0
    for start, minutes, before, after in stream:
        if after > before:
            last_drive_end = start + minutes * SECONDS_PER_MINUTE
            peak = after
            if after > DRIVE_BEFORE_BREAK_LIMIT_MINUTES and over_start is None:
                first_over = max(0, DRIVE_BEFORE_BREAK_LIMIT_MINUTES - before)
                over_start = start + first_over * SECONDS_PER_MINUTE
        elif after < before and over_start is not None:
            violations.append(_article7_violation(over_start, last_drive_end, peak, profile_id))
            over_start = None
    if over_start is not None:
        violations.append(_article7_violation(over_start, last_drive_end, peak, profile_id))
    return violations


def _article7_violation(start: int, end: int, peak: int, profile_id: str) -> Violation:
    return Violation(
        "7",
        start,
        end,
        f"accumulated driving reached {peak} minutes without a qualifying break "
        f"(limit {DRIVE_BEFORE_BREAK_LIMIT_MINUTES})",
        profile_id,
    )


def check_article61(
    spans: Sequence[DailyDrivingSpan],
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
) -> list[Violation]:
    """Daily driving limit with the twice-per-week 10-hour extension."""
    violations = []
    extension_spans = []
    for span in spans:
        if span.driving_minutes > EXTENDED_DAILY_LIMIT_MINUTES:
            violations.append(
                Violation(
                    "6.1",
                    span.start,
                    span.end,
                    f"daily driving of {span.driving_minutes} minutes exceeds even "
                    f"the {EXTENDED_DAILY_LIMIT_MINUTES}-minute extension cap",
                    profile.id,
                )
            )
        elif span.driving_minutes > DAILY_DRIVING_LIMIT_MINUTES:
            extension_spans.append(span)

    def week_at(t: int) -> int:
        return week_of(t, profile.leap_week_policy, leap_table)

    fixed: dict = {}
    crossing = []
    for span in extension_spans:
        start_week = week_at(span.start)
        end_week = week_at(span.end - 1)
        if start_week == end_week:
            fixed[span] = start_week
        elif profile.extended_attribution is ExtendedAttribution.START_WEEK:
            fixed[span] = start_week
        elif profile.extended_attribution is ExtendedAttribution.END_WEEK:
            fixed[span] = end_week
        else:
            crossing.append((span, start_week, end_week))

    if crossing:
        fixed.update(_minimize_extension_violations(fixed, crossing))

    by_week: dict[int, list[DailyDrivingSpan]] = {}
    for span, week in fixed.items():
        by_week.setdefault(week, []).append(span)
    for week in sorted(by_week):
        week_spans = sorted(by_week[week], key=lambda s: (s.start, s.end))
        for span in week_spans[MAX_EXTENSIONS_PER_WEEK:]:
            violations.append(
                Violation(
                    "6.1",
                    span.start,
                    span.end,
                    f"daily driving of {span.driving_minutes} minutes is a third "
                    f"or later 10-hour extension in week {week}",
                    profile.id,
                )
            )
    return violations


def _minimize_extension_violations(fixed, crossing):
    """Exact minimum over attributions of week-crossing extensions.

    Spans are disjoint, so two crossing spans can only compete for a week
    when one ends in the week the next one starts in. A backward pass finds
    the least cost of each suffix; the forward pass then picks the start
    week whenever that is still optimal, so ties prefer the start week,
    earlier spans first.
    """
    counts = Counter(fixed.values())
    crossing = sorted(crossing, key=lambda item: (item[0].start, item[0].end))
    n = len(crossing)

    def step_cost(i: int, prev_end: int, end: int) -> int:
        # Excess in span i's start week (shared with span i-1's end week when
        # they coincide) and in its end week, unless span i+1 starts there.
        _span, start_week, end_week = crossing[i]
        shared = i > 0 and prev_end and crossing[i - 1][2] == start_week
        settled = {start_week: 1 - end + shared}
        if i + 1 == n or crossing[i + 1][1] != end_week:
            settled[end_week] = end
        return sum(
            max(0, counts[week] + extra - MAX_EXTENSIONS_PER_WEEK)
            for week, extra in settled.items()
        )

    # best[i][prev_end]: least cost of spans i.. given span i-1's choice
    best = [[0, 0] for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        best[i] = [min(step_cost(i, p, e) + best[i + 1][e] for e in (0, 1)) for p in (0, 1)]

    result = {}
    prev_end = 0
    for i, (span, start_week, end_week) in enumerate(crossing):
        prev_end = int(step_cost(i, prev_end, 0) + best[i + 1][0] != best[i][prev_end])
        result[span] = end_week if prev_end else start_week
    return result


def check_article82(
    rests: Sequence[Period],
    mt: MinuteTrace,
    profile: InterpretationProfile,
) -> list[Violation]:
    """A new daily rest must complete within 24 h of the last rest's end.

    A rest of at least the daily threshold completes when its first
    threshold-many minutes have elapsed, so a long rest starting late in the
    window still counts as long as enough of it fits. Windows running past
    the end of the trace are not judged.
    """
    rest_periods = sorted(
        (p for p in rests if p.kind in REST_PERIOD_KINDS), key=lambda p: p.start
    )
    threshold_seconds = profile.daily_rest_threshold * SECONDS_PER_MINUTE
    violations = []
    for period in rest_periods:
        deadline = period.end + NEW_REST_WINDOW_SECONDS
        if deadline > mt.end_instant:
            continue
        satisfied = any(
            q.start >= period.end and q.start + threshold_seconds <= deadline
            for q in rest_periods
        )
        if not satisfied:
            violations.append(
                Violation(
                    "8.2",
                    period.end,
                    deadline,
                    "no new daily rest completed within 24 hours of the end of "
                    f"the rest finishing at second {period.end}",
                    profile.id,
                )
            )
    return violations


@dataclass(frozen=True)
class RestRun:
    """A maximal rest run usable by the weekly-rest solver."""

    start: int
    minutes: int

    @property
    def end(self) -> int:
        return self.start + self.minutes * SECONDS_PER_MINUTE


def solve_weekly_rests(
    scope_weeks: Sequence[int],
    rests: Sequence[Period],
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
    waived: frozenset[int] = frozenset(),
) -> Optional[dict]:
    """Exact feasibility search for Articles 8.6/8.9 over the given weeks.

    Model: every classified rest run may be counted as the weekly rest of at
    most one week it overlaps (never two). A counted run serves as a regular
    rest when at least 2700 of its minutes remain counted, or as a reduced
    rest when at least 1440 do; minutes not counted may be carved off as
    compensation blocks. Each reduction (2700 minus the counted minutes)
    must be covered by one contiguous block from a single run that starts no
    earlier than the reduced run and whose block completes before the end of
    the third following week. Donating from a counted run shrinks that run's
    own weekly rest, which may turn it reduced and create a further debt —
    the search explores these cascades exhaustively.

    Returns a witness dict when an assignment satisfying every pair of
    consecutive non-waived weeks exists, else None.
    """
    active = [w for w in scope_weeks if w not in waived]
    pairs = [
        (w, w + 1)
        for w in list(scope_weeks)[:-1]
        if w not in waived and (w + 1) not in waived
    ]

    runs = sorted(
        (RestRun(p.start, p.minutes) for p in rests), key=lambda r: r.start
    )
    week_bounds = {
        w: (week_start(w, leap_table), week_start(w + 1, leap_table))
        for w in active
    }

    def overlapped_weeks(run: RestRun) -> list[int]:
        return [
            w
            for w, (lo, hi) in week_bounds.items()
            if run.start < hi and run.end > lo
        ]

    weekly_candidates = [
        (run, overlapped_weeks(run))
        for run in runs
        if run.minutes >= REDUCED_WEEKLY_MIN_MINUTES
    ]
    weekly_candidates = [(run, weeks) for run, weeks in weekly_candidates if weeks]

    # A pair is decided once every run able to serve either week has been
    # assigned or passed over; from then on it must already hold two counted
    # rests, at least one long enough to stay regular. Pruning on this keeps
    # infeasible instances from enumerating every assignment.
    pairs_decided_at: dict[int, list[tuple[int, int]]] = {}
    for pair in pairs:
        last = -1
        for index, (_run, weeks) in enumerate(weekly_candidates):
            if pair[0] in weeks or pair[1] in weeks:
                last = index
        if last == -1:
            return None  # no rest can ever serve this pair
        pairs_decided_at.setdefault(last, []).append(pair)

    assign: dict[RestRun, int] = {}
    donated: dict[RestRun, int] = {}
    blocks: list[tuple[RestRun, int, int, int]] = []  # host, minutes, deadline, week

    def pair_still_possible(pair: tuple[int, int]) -> bool:
        members = [run for run, week in assign.items() if week in pair]
        if len(members) < 2:
            return False
        return any(r.minutes >= REGULAR_WEEKLY_MIN_MINUTES for r in members)

    def finalize() -> Optional[dict]:
        roles = {}
        for run, week in assign.items():
            counted = min(
                REGULAR_WEEKLY_MIN_MINUTES, run.minutes - donated.get(run, 0)
            )
            roles[run] = (week, counted)
        for w1, w2 in pairs:
            regular = reduced = 0
            for week, counted in roles.values():
                if week not in (w1, w2):
                    continue
                if counted >= REGULAR_WEEKLY_MIN_MINUTES:
                    regular += 1
                else:
                    reduced += 1
            if not (regular >= 2 or (regular >= 1 and reduced >= 1)):
                return None
        # Deadlines: blocks in one host run tile it from the start; check the
        # earliest-deadline-first schedule.
        per_host: dict[RestRun, list[tuple[int, int]]] = {}
        for host, minutes, deadline, _week in blocks:
            per_host.setdefault(host, []).append((deadline, minutes))
        for host, items in per_host.items():
            t = host.start
            for deadline, minutes in sorted(items):
                t += minutes * SECONDS_PER_MINUTE
                if t > deadline:
                    return None
            if profile.attached_compensation:
                leftover = host.minutes - donated.get(host, 0)
                if host not in assign and leftover < profile.daily_rest_threshold:
                    return None
        return {
            "assignments": [
                {
                    "week": week,
                    "run_start": run.start,
                    "run_minutes": run.minutes,
                    "counted_minutes": counted,
                    "role": "regular"
                    if counted >= REGULAR_WEEKLY_MIN_MINUTES
                    else "reduced",
                }
                for run, (week, counted) in sorted(
                    roles.items(), key=lambda item: (item[1][0], item[0].start)
                )
            ],
            "compensations": [
                {
                    "week": week,
                    "minutes": minutes,
                    "donor_start": host.start,
                    "deadline": deadline,
                }
                for host, minutes, deadline, week in blocks
            ],
        }

    def resolve(index: int) -> Optional[dict]:
        if index == len(runs):
            return finalize()
        run = runs[index]
        week = assign.get(run)
        if week is None:
            return resolve(index + 1)
        counted = run.minutes - donated.get(run, 0)
        if counted >= REGULAR_WEEKLY_MIN_MINUTES:
            return resolve(index + 1)
        if counted < REDUCED_WEEKLY_MIN_MINUTES:
            return None
        debt = REGULAR_WEEKLY_MIN_MINUTES - counted
        deadline = week_start(week + COMPENSATION_WINDOW_WEEKS + 1, leap_table)
        for host in runs[index + 1 :]:
            reserve = REDUCED_WEEKLY_MIN_MINUTES if host in assign else 0
            capacity = host.minutes - donated.get(host, 0) - reserve
            if capacity < debt:
                continue
            if host.start + debt * SECONDS_PER_MINUTE > deadline:
                continue
            donated[host] = donated.get(host, 0) + debt
            blocks.append((host, debt, deadline, week))
            witness = resolve(index + 1)
            if witness is not None:
                return witness
            blocks.pop()
            donated[host] -= debt
        return None

    def choose(index: int) -> Optional[dict]:
        if index == len(weekly_candidates):
            return resolve(0)
        run, weeks = weekly_candidates[index]
        for week in [None] + sorted(weeks):
            if week is not None:
                assign[run] = week
            if all(pair_still_possible(p) for p in pairs_decided_at.get(index, ())):
                witness = choose(index + 1)
                if witness is not None:
                    return witness
            if week is not None:
                del assign[run]
        return None

    return choose(0)


def check_article86(
    weeks: Sequence[int],
    rests: Sequence[Period],
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
) -> list[Violation]:
    """Weekly-rest and compensation check over complete weeks.

    When no assignment at all satisfies the scope, the infeasibility is
    pinned to specific weeks: weeks are waived one at a time, earliest first,
    preferring weeks whose waiver restores feasibility, until the remainder
    is satisfiable; each waived week is reported as a violation.
    """
    scope = list(weeks)
    if len(scope) < 2:
        return []

    waived: list[int] = []

    def feasible(extra: Sequence[int]) -> bool:
        return (
            solve_weekly_rests(
                scope, rests, profile, leap_table, frozenset(waived) | frozenset(extra)
            )
            is not None
        )

    while not feasible(()):
        for week in scope:
            if week in waived:
                continue
            if feasible((week,)):
                waived.append(week)
                break
        else:
            for week in scope:
                if week not in waived:
                    waived.append(week)
                    break

    violations = []
    for week in sorted(waived):
        violations.append(
            Violation(
                "8.6",
                week_start(week, leap_table),
                week_start(week + 1, leap_table),
                f"no weekly-rest assignment with compensation satisfies week {week}",
                profile.id,
            )
        )
    return violations


def complete_weeks(
    trace: SecondTrace, leap_table: Sequence[LeapSecond] = ()
) -> list[int]:
    """Weeks whose full [Monday 00:00, Sunday 24:00) interval the trace covers."""
    first = trace.start // (7 * SECONDS_PER_DAY) - 2
    weeks = []
    w = first
    while week_start(w, leap_table) < trace.start:
        w += 1
    while week_start(w + 1, leap_table) <= trace.end:
        weeks.append(w)
        w += 1
    return weeks


def check_all(
    trace: SecondTrace,
    grid: TimeGrid,
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
) -> Report:
    """Label, segment and run every check; deterministic for fixed inputs."""
    mt = label_minutes(trace, grid, profile.rule51)
    rests = classify_rests(mt, profile)
    stream = accumulate_driving(mt, rests)
    spans = daily_driving_spans(mt, rests, profile)

    violations = []
    violations += check_article7(stream, profile.id)
    violations += check_article61(spans, profile, leap_table)
    violations += check_article82(rests, mt, profile)

    notices = []
    scope = complete_weeks(trace, leap_table)
    if len(scope) < 2:
        notices.append(
            "article 8.6 skipped: trace covers fewer than two complete weeks"
        )
    else:
        violations += check_article86(scope, rests, profile, leap_table)

    violations.sort(key=Violation.sort_key)
    statistics = {
        "total_driving_minutes": mt.driving_minutes(),
        "daily_driving_spans": len(spans),
        "rest_periods": sum(1 for p in rests if p.kind in REST_PERIOD_KINDS),
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
