"""Segmentation of a minute trace into breaks, rests and driving periods."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .minutes import MinuteTrace
from .profiles import InterpretationProfile, WeeklyGapSemantics
from .timeline import SECONDS_PER_MINUTE, Activity

BREAK_MIN_MINUTES = 15
SPLIT_FIRST_MIN_MINUTES = 15
SPLIT_SECOND_MIN_MINUTES = 30
FULL_BREAK_MIN_MINUTES = 45
REDUCED_WEEKLY_MIN_MINUTES = 24 * 60
REGULAR_WEEKLY_MIN_MINUTES = 45 * 60


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


@dataclass(frozen=True)
class DailyDrivingSpan:
    """A driving accumulation between two bounding rests (or trace edges)."""

    start: int
    end: int
    driving_minutes: int
    bounding_rests: tuple[Optional[Period], Optional[Period]]  # None = trace edge


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


def accumulate_driving(mt: MinuteTrace, rests: Sequence[Period]) -> list[tuple[int, int]]:
    """The stretches of label runs between resets of the break accumulator.

    Each item `(first, end)` holds the runs `first` to `end - 1`, over
    which the driving minutes since the last qualifying break count up from
    zero. Every item but the last is followed by the rest run at index
    `end`, whose completion resets the accumulator; the next item starts
    after it. The last item ends with the trace. So there is one item more
    than there are resets, and an item may hold no run.

    The accumulator resets upon completion of a single break of at least 45
    minutes, of any daily or weekly rest period, or of the second part
    (>= 30 min) of a split break whose first part (>= 15 min) is still
    pending. The first split part alone never resets, and other work
    neither accumulates driving nor counts toward any break. `rests` are
    `classify_rests(mt, ...)`, in time order; only they are walked, never
    the label runs.
    """
    bounds = mt._bounds
    origin = mt.start_instant
    brk = PeriodKind.BREAK  # a local: enum attribute lookups are slow
    full_break = FULL_BREAK_MIN_MINUTES * SECONDS_PER_MINUTE
    second_part = SPLIT_SECOND_MIN_MINUTES * SECONDS_PER_MINUTE
    stretches = []
    first = 0
    pending_first_part = False
    for period in rests:
        seconds = period.end - period.start
        if (
            period.kind is not brk
            or seconds >= full_break
            or (pending_first_part and seconds >= second_part)
        ):
            minute = (period.start - origin) // SECONDS_PER_MINUTE
            end = bisect.bisect_left(bounds, minute, first)
            stretches.append((first, end))
            first = end + 1
            pending_first_part = False
        else:  # any break lasts the first split part's 15 minutes
            pending_first_part = True
    stretches.append((first, len(mt.counts)))
    return stretches


def daily_driving_spans(
    mt: MinuteTrace,
    rests: Sequence[Period],
    profile: InterpretationProfile,
) -> list[DailyDrivingSpan]:
    """Driving accumulations delimited by daily/weekly rests.

    Under the Strict weekly-gap reading, a stretch delimited by two weekly
    rests defines no daily driving time and yields no span. When the trace
    edge counts as a rest boundary, driving before the first rest and after
    the last one is covered too; the edge behaves like a daily (not weekly)
    rest for the Strict rule. Stretches without any driving yield no span.
    `rests` are `classify_rests(mt, ...)`, in time order. A span's driving
    minutes are the difference of the driving prefix sums at the runs
    bounding it, so a span costs one bisection whatever runs it holds.
    """
    bounds, driving = mt._bounds, mt._driving
    origin = mt.start_instant
    brk = PeriodKind.BREAK
    strict = profile.weekly_gap is WeeklyGapSemantics.STRICT
    edge = profile.trace_edge_is_rest
    spans = []
    # The left bound: its period (None for the trace edge), its end and the
    # run after it. Before the first rest there is one only at a rest edge.
    left: Optional[Period] = None
    start, after = origin, 0
    have_left = edge
    for period in rests:
        if period.kind is brk:
            continue
        minute = (period.start - origin) // SECONDS_PER_MINUTE
        run = bisect.bisect_left(bounds, minute, after)
        minutes = driving[run] - driving[after]
        if (
            have_left
            and minutes
            and not (
                strict
                and left is not None
                and left.kind in WEEKLY_REST_KINDS
                and period.kind in WEEKLY_REST_KINDS
            )
        ):
            spans.append(DailyDrivingSpan(start, period.start, minutes, (left, period)))
        left, start, after, have_left = period, period.end, run + 1, True
    if edge:
        minutes = driving[-1] - driving[after]
        if minutes:
            spans.append(DailyDrivingSpan(start, mt.end_instant, minutes, (left, None)))
    return spans
