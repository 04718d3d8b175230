"""Segmentation of a minute trace into breaks, rests and driving periods."""

from __future__ import annotations

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


def accumulate_driving(
    mt: MinuteTrace, rests: Sequence[Period]
) -> list[tuple[int, int, int, int]]:
    """Driving minutes since the last qualifying break, one item per label run.

    Items are (start instant, minutes, accumulated before, accumulated
    after). The accumulator resets upon completion of a single break of at
    least 45 minutes, of any daily or weekly rest period, or of the second
    part (>= 30 min) of a split break whose first part (>= 15 min) is still
    pending. The first split part alone never resets, and other work
    neither accumulates driving nor counts toward any break.
    """
    rest_period_ends = {p.end for p in rests if p.kind in REST_PERIOD_KINDS}
    items: list[tuple[int, int, int, int]] = []
    acc = 0
    pending_first_part = False

    driving, rest = Activity.DRIVING, Activity.REST  # locals, as above
    end = mt.start_instant
    for activity, count in zip(mt.activities, mt.counts):
        start = end
        end += count * SECONDS_PER_MINUTE
        before = acc
        if activity is driving:
            acc += count
        elif activity is rest:
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
    """
    rest_periods = sorted(
        (p for p in rests if p.kind in REST_PERIOD_KINDS), key=lambda p: p.start
    )

    stretches: list[tuple[Optional[Period], int, Optional[Period], int]] = []
    left: Optional[tuple[Optional[Period], int]]
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
        driving = mt.driving_between(start, end)
        if driving == 0:
            continue
        spans.append(DailyDrivingSpan(start, end, driving, (left_period, right_period)))
    return spans
