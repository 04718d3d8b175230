"""Reference implementations on expanded forms, kept as test oracles.

They parse records in two loops (fields first, contiguity second), merge
runs with `itertools.groupby`, walk a trace's runs and write its records
from (activity, seconds) pairs, label one activity code per
second, classify each rest run as a `Period` of one kind, accumulate one
sample per minute or one item per label run, count
the driving of each daily span between its instants, look for the next
daily rest of Article 8.2 among all rests, attribute Article 6.1 extensions by
brute-force search and count them per week after regrouping and sorting,
decide Article 8.6 by backtracking over every
assignment of rests to weeks and every compensation cascade, blame an
infeasible Article 8.6 scope by waiving weeks one round at a time, or by
bisections that solve every probe afresh, find a week's start by summing
the whole leap table and an instant's week by stepping week starts, and
find the complete weeks of a trace by walking week starts. They are slow and
literal on purpose; the differential tests compare the engine with
them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from conftest import ACTIVITY_BY_CODE, CODE, samples
from tachocheck.minutes import MinuteTrace, Rule51Semantics, TraceTooShortError
from tachocheck.periods import (
    BREAK_MIN_MINUTES,
    FULL_BREAK_MIN_MINUTES,
    REDUCED_WEEKLY_MIN_MINUTES,
    REGULAR_WEEKLY_MIN_MINUTES,
    SPLIT_FIRST_MIN_MINUTES,
    SPLIT_SECOND_MIN_MINUTES,
    DailyDrivingSpan,
)
from tachocheck import rules
from tachocheck.profiles import (
    ExtendedAttribution,
    InterpretationProfile,
    WeeklyGapSemantics,
)
from tachocheck.rules import (
    COMPENSATION_WINDOW_WEEKS,
    DAILY_DRIVING_LIMIT_MINUTES,
    DRIVE_BEFORE_BREAK_LIMIT_MINUTES,
    EXTENDED_DAILY_LIMIT_MINUTES,
    MAX_EXTENSIONS_PER_WEEK,
    NEW_REST_WINDOW_SECONDS,
    Violation,
)
from tachocheck.timeline import (
    _ACTIVITY_BY_NAME,
    SECONDS_PER_DAY,
    SECONDS_PER_MINUTE,
    SECONDS_PER_WEEK,
    Activity,
    Calendar,
    LeapSecond,
    SecondTrace,
    TraceError,
    TraceParseError,
    WeekPolicy,
    WeekUndefinedError,
)


class PeriodKind(Enum):
    BREAK = "Break"
    DAILY_REST = "DailyRest"
    WEEKLY_REST_REDUCED = "WeeklyRestReduced"
    WEEKLY_REST_REGULAR = "WeeklyRestRegular"


REST_PERIOD_KINDS = frozenset(
    {PeriodKind.DAILY_REST, PeriodKind.WEEKLY_REST_REDUCED, PeriodKind.WEEKLY_REST_REGULAR}
)
WEEKLY_REST_KINDS = frozenset(
    {PeriodKind.WEEKLY_REST_REDUCED, PeriodKind.WEEKLY_REST_REGULAR}
)


@dataclass(frozen=True)
class Period:
    kind: PeriodKind
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError(f"period must have positive duration: {self}")

    @property
    def minutes(self) -> int:
        return (self.end - self.start) // SECONDS_PER_MINUTE


def classify_rests(mt: MinuteTrace, profile: InterpretationProfile) -> list[Period]:
    """Classify every maximal rest run by duration.

    A span of rest has exactly one kind: a rest long enough to be a weekly
    rest is a weekly rest, not simultaneously a daily rest. Runs under
    15 minutes are not even breaks and are not returned.
    """
    periods = []
    rest = Activity.REST  # a local: enum attribute lookups are slow
    end = mt.start_instant
    for activity, count in zip(mt.activities, mt.counts):
        start = end
        end += count * SECONDS_PER_MINUTE
        if activity is not rest:
            continue
        if count >= REGULAR_WEEKLY_MIN_MINUTES:
            kind = PeriodKind.WEEKLY_REST_REGULAR
        elif count >= REDUCED_WEEKLY_MIN_MINUTES:
            kind = PeriodKind.WEEKLY_REST_REDUCED
        elif count >= profile.daily_rest_threshold:
            kind = PeriodKind.DAILY_REST
        elif count >= BREAK_MIN_MINUTES:
            kind = PeriodKind.BREAK
        else:
            continue
        periods.append(Period(kind, start, end))
    return periods


def parse_trace(data: bytes | str) -> SecondTrace:
    """Parse the record-per-line text format into a trace.

    Each record is `start_second,ACTIVITY,duration_seconds`; records must be
    sorted and contiguous. Blank lines and lines starting with '#' are skipped.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"trace is not ASCII text: {exc}") from exc
    else:
        text = data

    records: list[tuple[int, Activity, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceParseError(
                f"line {lineno}: expected 'start,ACTIVITY,duration', got {line!r}"
            )
        try:
            start = int(parts[0])
            duration = int(parts[2])
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-integer field in {line!r}") from None
        name = parts[1].strip()
        if name not in _ACTIVITY_BY_NAME:
            raise TraceParseError(f"line {lineno}: unknown activity {name!r}")
        if duration <= 0:
            raise TraceParseError(f"line {lineno}: duration must be positive")
        records.append((start, _ACTIVITY_BY_NAME[name], duration))

    if not records:
        raise TraceParseError("trace contains no records")

    expected = records[0][0]
    for start, _activity, duration in records:
        if start < expected:
            raise TraceParseError(
                f"records overlap or are unsorted at second {start} (expected {expected})"
            )
        if start > expected:
            raise TraceParseError(
                f"gap of {start - expected} s before record starting at second {start}"
            )
        expected = start + duration
    return SecondTrace.from_runs(records[0][0], tuple((a, n) for _, a, n in records))


def coalesce(runs):
    """Merge adjacent runs of the same activity; every length must be positive."""
    runs = tuple(runs)
    for _activity, length in runs:
        if length <= 0:
            raise TraceError(f"run duration must be positive, got {length}")
    groups = itertools.groupby(runs, key=lambda run: run[0])
    return tuple((activity, sum(n for _, n in group)) for activity, group in groups)


def runs(start, segments):
    """(activity, start instant, seconds) of each (activity, seconds) pair."""
    out = []
    for activity, seconds in segments:
        out.append((activity, start, seconds))
        start += seconds
    return out


def to_records(start, segments):
    """One record line per (activity, seconds) pair, neighbours left unmerged."""
    return "".join(f"{t},{a.value},{n}\n" for a, t, n in runs(start, segments))


def _longest_latest(window: bytes) -> Activity:
    # Scan runs; ">=" hands ties to the run seen later.
    best_len = 0
    best_code = window[0]
    run_len = 0
    prev = -1
    for code in window:
        if code == prev:
            run_len += 1
        else:
            prev = code
            run_len = 1
        if run_len >= best_len:
            best_len = run_len
            best_code = code
    return ACTIVITY_BY_CODE[best_code]


def _upgrade_pass(labels, neighbor_is_driving):
    out = list(labels)
    for i in range(1, len(labels) - 1):
        if (
            labels[i] is not Activity.DRIVING
            and neighbor_is_driving[i - 1]
            and neighbor_is_driving[i + 1]
        ):
            out[i] = Activity.DRIVING
    return out


def label_minutes(trace, grid, semantics=Rule51Semantics.NEIGHBOR_RULE52):
    """(first minute index, one label per minute) by scanning every second."""
    data = samples(trace)
    first = grid.first_full_minute(trace.start)
    count = (trace.end - grid.minute_offset_seconds) // SECONDS_PER_MINUTE - first
    if count < 1:
        raise TraceTooShortError("trace does not cover a complete minute")
    windows = []
    for minute in range(first, first + count):
        offset = grid.minute_start(minute) - trace.start
        windows.append(data[offset : offset + SECONDS_PER_MINUTE])
    labels = [
        ACTIVITY_BY_CODE[w[0]] if w.count(w[0]) == SECONDS_PER_MINUTE else _longest_latest(w)
        for w in windows
    ]

    if semantics is Rule51Semantics.NEIGHBOR_RULE52:
        labels = _upgrade_pass(labels, [a is Activity.DRIVING for a in labels])
    elif semantics is Rule51Semantics.NEIGHBOR_RAW:
        raw = [w.count(CODE[Activity.DRIVING]) == SECONDS_PER_MINUTE for w in windows]
        labels = _upgrade_pass(labels, raw)
    else:
        for _ in range(len(labels) + 1):
            new = _upgrade_pass(labels, [a is Activity.DRIVING for a in labels])
            if new == labels:
                break
            labels = new
    return first, tuple(labels)


def accumulate_driving(first, labels, grid, rests):
    """One (minute start instant, accumulated minutes) sample per minute."""
    rest_period_ends = {p.end for p in rests if p.kind in REST_PERIOD_KINDS}
    stream = []
    acc = 0
    pending_first_part = False
    index = 0
    for activity, group in itertools.groupby(labels):
        count = len(list(group))
        instants = [grid.minute_start(first + k) for k in range(index, index + count)]
        if activity is Activity.DRIVING:
            for instant in instants:
                acc += 1
                stream.append((instant, acc))
        elif activity is Activity.REST:
            resets = (
                count >= FULL_BREAK_MIN_MINUTES
                or instants[-1] + SECONDS_PER_MINUTE in rest_period_ends
                or (pending_first_part and count >= SPLIT_SECOND_MIN_MINUTES)
            )
            stream.extend((instant, acc) for instant in instants[:-1])
            if resets:
                acc = 0
                pending_first_part = False
            elif count >= SPLIT_FIRST_MIN_MINUTES:
                pending_first_part = True
            stream.append((instants[-1], acc))
        else:
            stream.extend((instant, acc) for instant in instants)
        index += count
    return stream


def check_article7(stream, profile_id=""):
    """Article 7 over a per-minute accumulator stream."""

    def violation(start, end, peak):
        return Violation(
            "7",
            start,
            end,
            f"accumulated driving reached {peak} minutes without a qualifying break "
            f"(limit {DRIVE_BEFORE_BREAK_LIMIT_MINUTES})",
            profile_id,
        )

    violations = []
    prev = 0
    over_start = None
    last_drive_end = 0
    peak = 0
    for instant, acc in stream:
        if acc < prev and over_start is not None:
            violations.append(violation(over_start, last_drive_end, peak))
            over_start = None
        if acc > prev:
            last_drive_end = instant + SECONDS_PER_MINUTE
            if acc > DRIVE_BEFORE_BREAK_LIMIT_MINUTES and over_start is None:
                over_start = instant
            peak = acc
        prev = acc
    if over_start is not None:
        violations.append(violation(over_start, last_drive_end, peak))
    return violations


def accumulate_driving_per_run(mt, rests):
    """Driving minutes since the last qualifying break, one item per label run.

    Items are (start instant, minutes, accumulated before, accumulated
    after), the resets those of `periods.accumulate_driving`, found by
    walking every label run. `rests` are `classify_rests(mt, profile)`.
    """
    rest_period_ends = {p.end for p in rests if p.kind in REST_PERIOD_KINDS}
    items = []
    acc = 0
    pending_first_part = False
    end = mt.start_instant
    for activity, count in zip(mt.activities, mt.counts):
        start = end
        end += count * SECONDS_PER_MINUTE
        before = acc
        if activity is Activity.DRIVING:
            acc += count
        elif activity is Activity.REST:
            if (
                count >= FULL_BREAK_MIN_MINUTES
                or end in rest_period_ends
                or (pending_first_part and count >= SPLIT_SECOND_MIN_MINUTES)
            ):
                acc = 0
                pending_first_part = False
            elif count >= SPLIT_FIRST_MIN_MINUTES:
                pending_first_part = True
        items.append((start, count, before, acc))
    return items


def check_article7_per_run(items, profile_id=""):
    """Article 7 over the items of `accumulate_driving_per_run`."""
    violation = rules._article7_violation
    violations = []
    over_start = None
    last_drive_end = 0
    peak = 0
    for start, minutes, before, after in items:
        if after > before:
            last_drive_end = start + minutes * SECONDS_PER_MINUTE
            peak = after
            if after > DRIVE_BEFORE_BREAK_LIMIT_MINUTES and over_start is None:
                first_over = max(0, DRIVE_BEFORE_BREAK_LIMIT_MINUTES - before)
                over_start = start + first_over * SECONDS_PER_MINUTE
        elif after < before and over_start is not None:
            violations.append(violation(over_start, last_drive_end, peak, profile_id))
            over_start = None
    if over_start is not None:
        violations.append(violation(over_start, last_drive_end, peak, profile_id))
    return violations


def driving_between(mt, start, end):
    """Driving-labeled minutes of `mt` in the instant range [start, end)."""

    def driving_before(index):
        i = bisect.bisect_right(mt._bounds, index, hi=len(mt.counts)) - 1
        inside = index - mt._bounds[i] if mt.activities[i] is Activity.DRIVING else 0
        return mt._driving[i] + inside

    lo = min(len(mt), max(0, (start - mt.start_instant) // SECONDS_PER_MINUTE))
    hi = min(len(mt), max(0, (end - mt.start_instant) // SECONDS_PER_MINUTE))
    return max(0, driving_before(hi) - driving_before(lo))


def daily_driving_spans(mt, rests, profile):
    """Daily driving spans, each counted by `driving_between` its instants."""
    rest_periods = sorted(
        (p for p in rests if p.kind in REST_PERIOD_KINDS), key=lambda p: p.start
    )

    stretches = []
    left = (None, mt.start_instant) if profile.trace_edge_is_rest else None
    for period in rest_periods:
        if left is not None:
            stretches.append((left[0], left[1], period, period.start))
        left = (period, period.end)
    if profile.trace_edge_is_rest and left is not None:
        stretches.append((left[0], left[1], None, mt.end_instant))

    spans = []
    for left_period, start, right_period, end in stretches:
        if end <= start:
            continue
        if (
            profile.weekly_gap is WeeklyGapSemantics.STRICT
            and left_period is not None
            and right_period is not None
            and left_period.kind in WEEKLY_REST_KINDS
            and right_period.kind in WEEKLY_REST_KINDS
        ):
            continue
        driving = driving_between(mt, start, end)
        if driving == 0:
            continue
        spans.append(DailyDrivingSpan(start, end, driving))
    return spans


def check_article82(rests, mt, profile):
    """Article 8.2, looking for the next rest among every rest."""
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
        fixed.update(minimize_extension_violations(fixed, crossing))

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


def minimize_extension_violations(fixed, crossing):
    """Try every attribution; the first optimum in product order wins."""
    base_counts = {}
    for week in fixed.values():
        base_counts[week] = base_counts.get(week, 0) + 1
    crossing = sorted(crossing, key=lambda item: (item[0].start, item[0].end))
    best_cost = None
    best_choice = None
    for choice in itertools.product((0, 1), repeat=len(crossing)):
        counts = dict(base_counts)
        for picked, (_span, start_week, end_week) in zip(choice, crossing):
            week = start_week if picked == 0 else end_week
            counts[week] = counts.get(week, 0) + 1
        cost = sum(max(0, c - MAX_EXTENSIONS_PER_WEEK) for c in counts.values())
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_choice = choice
    return {
        span: start_week if picked == 0 else end_week
        for picked, (span, start_week, end_week) in zip(best_choice, crossing)
    }


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
    mt: MinuteTrace,
    rests: Sequence[int],
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
) -> list[Violation]:
    """Blame by rounds: each round waives the earliest week whose waiver
    restores feasibility, else the earliest week not yet waived, and reruns
    the engine's solver for every candidate week, O(weeks^2) solves.
    `rests` are the engine's `classify_rests(mt)`."""
    scope = list(weeks)
    if len(scope) < 2:
        return []

    waived: list[int] = []

    calendar = Calendar(leap_table)

    def feasible(extra: Sequence[int]) -> bool:
        return (
            rules.solve_weekly_rests(
                scope, mt, rests, profile, calendar, frozenset(waived) | frozenset(extra)
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


def blamed_weeks(scope: list[int], problem: rules.WeeklyRestProblem) -> list[int]:
    """The weeks `check_article86` blames, by bisections whose every probe
    is a fresh `problem.solve` from the first run; none when the scope is
    feasible."""

    def feasible(waived: Sequence[int]) -> bool:
        return problem.solve(frozenset(waived)) is not None

    if feasible(()):
        return []

    @functools.cache
    def rescues(k: int, w: int) -> bool:
        return feasible(scope[:k] + [w])

    # Waiving a week drops its pairs and its candidacy and adds no
    # constraint, so F(S), "waiving S leaves a feasible scope", is monotone.
    # Let j be the least j with F(scope[:j]); one week has no pair, so
    # 1 <= j <= n - 1. scope[:k] + [scope[i]] lies inside
    # scope[:max(k, i + 1)], so for k < j only weeks from scope[j - 1] on
    # can rescue, and k = j - 1 is rescued by scope[j - 1] itself. Rescue is
    # monotone in k too, so j and k are both found by bisection.
    j = bisect.bisect_left(
        range(len(scope) - 1), True, lo=1, key=lambda j: rescues(j - 1, scope[j - 1])
    )
    tail = scope[j - 1 :]
    k = bisect.bisect_left(range(j - 1), True, key=lambda k: any(rescues(k, w) for w in tail))
    return scope[:k] + [next(w for w in tail if rescues(k, w))]


def complete_weeks(
    trace: SecondTrace, leap_table: Sequence[LeapSecond] = ()
) -> list[int]:
    """Weeks whose full [Monday 00:00, Sunday 24:00) interval the trace covers,
    found by walking `week_start` from two weeks before the trace start."""
    first = trace.start // (7 * SECONDS_PER_DAY) - 2
    weeks = []
    w = first
    while week_start(w, leap_table) < trace.start:
        w += 1
    while week_start(w + 1, leap_table) <= trace.end:
        weeks.append(w)
        w += 1
    return weeks


def week_start(week: int, leap_table: Sequence[LeapSecond] = ()) -> int:
    """Instant at which the given calendar week begins (Monday 00:00)."""
    base = week * SECONDS_PER_WEEK
    return base + sum(ls.delta for ls in leap_table if ls.sunday_index < week)


def week_of(
    t: int,
    policy: WeekPolicy = WeekPolicy.SPIRIT,
    leap_table: Sequence[LeapSecond] = (),
) -> int:
    """Calendar week containing instant t.

    Under the Spirit policy a week simply ends when its Sunday ends, leap
    seconds included. Under the Letter policy a negative leap second on the
    closing Sunday removes the Sunday-24:00 instant the week definition
    hangs on, so the lookup is refused.
    """
    week = t // SECONDS_PER_WEEK
    while t < week_start(week, leap_table):
        week -= 1
    while t >= week_start(week + 1, leap_table):
        week += 1
    if policy is WeekPolicy.LETTER:
        for ls in leap_table:
            if ls.sunday_index == week and ls.delta == -1:
                raise WeekUndefinedError(
                    f"week {week}: its Sunday ends at 23:59:59 and the 24:00 "
                    "instant the week definition refers to does not exist"
                )
    return week
