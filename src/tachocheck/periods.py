"""Segmentation of a minute trace into breaks, rests and driving periods.

A rest is the index of its label run in the `MinuteTrace`. Its kind is a
comparison of the run's minutes, `mt.counts[i]`: a break from 15 minutes
on, a rest period (daily or weekly) from the profile's
`daily_rest_threshold` on, a weekly rest from 1440 minutes on, and a
regular weekly rest from 2700 minutes on. The threshold lies in [15, 1440],
so every rest period is a break and every weekly rest a rest period. A span
of rest has exactly one kind: a rest long enough to be a weekly rest is a
weekly rest, not simultaneously a daily rest.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_
from typing import Sequence

from .minutes import MinuteTrace
from .profiles import InterpretationProfile, WeeklyGapSemantics
from .timeline import SECONDS_PER_MINUTE, Activity

BREAK_MIN_MINUTES = 15
SPLIT_SECOND_MIN_MINUTES = 30
FULL_BREAK_MIN_MINUTES = 45
REDUCED_WEEKLY_MIN_MINUTES = 24 * 60
REGULAR_WEEKLY_MIN_MINUTES = 45 * 60


def classify_rests(mt: MinuteTrace) -> list[int]:
    """The indices of the rest runs of at least 15 minutes, in time order.

    Shorter rest runs are not even breaks. The later stages read each
    rest's kind from its minutes; see the module docstring.
    """
    counts = mt.counts
    rest = map(is_, mt.activities, repeat(Activity.REST))
    return [i for i in compress(range(len(counts)), rest) if counts[i] >= BREAK_MIN_MINUTES]


def accumulate_driving(
    mt: MinuteTrace, rests: Sequence[int], profile: InterpretationProfile
) -> list[tuple[int, int]]:
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
    `classify_rests(mt)`; only they are walked, never the label runs.
    """
    counts = mt.counts
    # a rest period, or a break long enough to stand alone
    reset = min(FULL_BREAK_MIN_MINUTES, profile.daily_rest_threshold)
    stretches = []
    first = 0
    pending_first_part = False
    for i in rests:
        minutes = counts[i]
        if minutes >= reset or (pending_first_part and minutes >= SPLIT_SECOND_MIN_MINUTES):
            stretches.append((first, i))
            first = i + 1
            pending_first_part = False
        else:  # any break lasts the first split part's 15 minutes
            pending_first_part = True
    stretches.append((first, len(counts)))
    return stretches


def daily_driving_spans(
    mt: MinuteTrace,
    rests: Sequence[int],
    profile: InterpretationProfile,
) -> list[tuple[int, int, int]]:
    """Driving accumulations delimited by daily/weekly rests.

    Each span is a `(start, end, driving_minutes)` tuple: the instants it
    begins and ends at, and the driving minutes between them.

    Under the Strict weekly-gap reading, a stretch delimited by two weekly
    rests defines no daily driving time and yields no span. When the trace
    edge counts as a rest boundary, driving before the first rest and after
    the last one is covered too; the edge behaves like a daily (not weekly)
    rest for the Strict rule. Stretches without any driving yield no span.
    `rests` are `classify_rests(mt)`. A span's driving minutes are the
    difference of the driving prefix sums at the runs bounding it, so a span
    costs the same whatever runs it holds.
    """
    counts, bounds, driving = mt.counts, mt.bounds, mt.driving
    origin = mt.start
    threshold = profile.daily_rest_threshold
    strict = profile.weekly_gap is WeeklyGapSemantics.STRICT
    edge = profile.trace_edge_is_rest
    spans = []
    # The left bound: the run after it and whether it is a weekly rest (the
    # trace edge is not). Before the first rest there is one only at an edge.
    after, left_weekly = 0, False
    have_left = edge
    for i in rests:
        minutes = counts[i]
        if minutes < threshold:
            continue
        weekly = minutes >= REDUCED_WEEKLY_MIN_MINUTES
        driven = driving[i] - driving[after]
        if have_left and driven and not (strict and left_weekly and weekly):
            start = origin + bounds[after] * SECONDS_PER_MINUTE
            spans.append((start, origin + bounds[i] * SECONDS_PER_MINUTE, driven))
        after, left_weekly, have_left = i + 1, weekly, True
    if edge:
        driven = driving[-1] - driving[after]
        if driven:
            start = origin + bounds[after] * SECONDS_PER_MINUTE
            spans.append((start, mt.end, driven))
    return spans
