"""Generators for the adversarial driving patterns the engine demonstrates.

These build traces that are individually innocuous but expose edges of the
rules: interleaved micro-rests that keep nine hours of near-continuous
driving legal, driving squeezed between two weekly rests, minute labels that
flip with a sub-minute grid shift, and weekly-rest compensations that chain
a week's verdict to activity weeks away.
"""

from __future__ import annotations

from .minutes import label_minutes
from .periods import accumulate_driving, classify_rests
from .profiles import builtin_profiles
from .rules import check_article7
from .timeline import (
    SECONDS_PER_MINUTE,
    SECONDS_PER_WEEK,
    Activity,
    SecondTrace,
    TimeGrid,
)

_HOUR = 3600

MAX_CHAIN_DEPTH = 49  # keeps generated traces within one year of weeks


class PatternNotFoundError(RuntimeError):
    """No divergent pattern exists within the requested bound."""


def gen_pattern(n: int, drive_s: int, rest_s: int) -> SecondTrace:
    """n repetitions of a drive/rest/drive block, starting at the epoch."""
    if n <= 0:
        raise ValueError(f"repeat count must be positive, got {n}")
    if drive_s <= 0 or rest_s <= 0:
        raise ValueError("drive and rest durations must be positive")
    block = [
        (Activity.DRIVING, drive_s),
        (Activity.REST, rest_s),
        (Activity.DRIVING, drive_s),
    ]
    return SecondTrace.from_runs(0, block * n)


def gen_weekly_sandwich() -> SecondTrace:
    """13.5 hours of driving wedged between two 45-hour weekly rests.

    Three 4.5-hour driving stretches separated by 45-minute breaks: no break
    rule is violated, and under the strict reading the stretch between the
    weekly rests defines no daily driving time at all.
    """
    runs = [
        (Activity.REST, 45 * _HOUR),
        (Activity.DRIVING, 16200),
        (Activity.REST, 2700),
        (Activity.DRIVING, 16200),
        (Activity.REST, 2700),
        (Activity.DRIVING, 16200),
        (Activity.REST, 45 * _HOUR),
    ]
    return SecondTrace.from_runs(0, runs)


def _divergent_block(shift: int) -> tuple[int, int] | None:
    """Rest/drive second counts for a minute that flips label under `shift`.

    A block of `rest` then `drive` seconds is rest-labeled on the base grid
    (the rest run is strictly longest). On the shifted grid each window sees
    the drive run flanked by two shorter rest fragments, so it is
    driving-labeled.
    """
    for drive in range(29, 0, -1):
        rest = SECONDS_PER_MINUTE - drive
        if drive > shift and 2 * drive > SECONDS_PER_MINUTE - shift:
            return rest, drive
    return None


def is_shift_divergent(trace: SecondTrace, offsets: tuple[int, int] = (0, 27)) -> bool:
    """Whether total labeled driving differs between the two grid phases."""
    totals = []
    for offset in offsets:
        mt = label_minutes(trace, TimeGrid(offset % SECONDS_PER_MINUTE))
        totals.append(mt.driving_minutes())
    return totals[0] != totals[1]


def find_shift_divergent(
    offsets: tuple[int, int] = (0, 27), max_minutes: int = 300
) -> SecondTrace:
    """A trace legal on one minute grid and illegal on the other.

    On one of the offsets every minute labels as rest; on the other, all
    interior minutes label as driving and the accumulated driving exceeds
    the 270-minute limit with no qualifying break in sight. The returned
    witness is re-verified through the labeling and break checks before
    being handed out.
    """
    if max_minutes < 300:
        raise ValueError(f"max_minutes must be at least 300, got {max_minutes}")
    first, second = offsets
    shift = (second - first) % SECONDS_PER_MINUTE
    if shift == 0:
        raise PatternNotFoundError("offsets lie on the same grid; labels cannot differ")

    flipped = False
    block = _divergent_block(shift)
    if block is None:
        block = _divergent_block(SECONDS_PER_MINUTE - shift)
        flipped = True
    if block is None:
        raise PatternNotFoundError(f"no divergent block exists for shift {shift}")
    rest, drive = block
    rest_offset, drive_offset = (second, first) if flipped else (first, second)

    # Anchor the blocks to the rest-side grid so its minutes see the rest
    # run whole; the other grid then cuts every block across two windows.
    minutes = min(max_minutes, 280)
    trace = SecondTrace.from_runs(
        rest_offset % SECONDS_PER_MINUTE,
        [(Activity.REST, rest), (Activity.DRIVING, drive)] * minutes,
    )

    legal_mt = label_minutes(trace, TimeGrid(rest_offset % SECONDS_PER_MINUTE))
    illegal_mt = label_minutes(trace, TimeGrid(drive_offset % SECONDS_PER_MINUTE))
    profile = builtin_profiles()["spirit"]
    legal = check_article7(
        accumulate_driving(legal_mt, classify_rests(legal_mt), profile), legal_mt
    )
    illegal = check_article7(
        accumulate_driving(illegal_mt, classify_rests(illegal_mt), profile), illegal_mt
    )
    if legal or not illegal or not is_shift_divergent(trace, offsets):
        raise PatternNotFoundError(
            f"constructed pattern failed verification for offsets {offsets}"
        )
    return trace


def workday_runs() -> list[tuple[Activity, int]]:
    """A 23-hour block that satisfies every rule: 8 h of driving split by a
    full break, padding work, then a 9 h daily rest."""
    return [
        (Activity.DRIVING, 4 * _HOUR),
        (Activity.REST, 1 * _HOUR),
        (Activity.DRIVING, 4 * _HOUR),
        (Activity.OTHER_WORK, 5 * _HOUR),
        (Activity.REST, 9 * _HOUR),
    ]


def week_runs(weekly_rest_hours: int) -> list[tuple[Activity, int]]:
    """One full calendar week: a leading weekly rest, then `fill_week`."""
    return fill_week([(Activity.REST, weekly_rest_hours * _HOUR)])


def fill_week(runs: list[tuple[Activity, int]]) -> list[tuple[Activity, int]]:
    """`runs`, then workdays and other work up to the end of one calendar
    week from their start."""
    gap = SECONDS_PER_WEEK - sum(seconds for _, seconds in runs)
    cycles, remainder = divmod(gap, 23 * _HOUR)
    runs = [*runs, *workday_runs() * cycles]
    if remainder:
        runs.append((Activity.OTHER_WORK, remainder))
    return runs


def gen_weeks(rest_hours) -> SecondTrace:
    """Full calendar weeks from the epoch, week i leading with a weekly rest
    of `rest_hours[i]` hours."""
    return SecondTrace.from_runs(0, [run for hours in rest_hours for run in week_runs(hours)])


def gen_compensation_chain(k: int) -> SecondTrace:
    """k+3 full weeks whose week-0 verdict hinges on week k.

    Week 0 holds only a 24-hour weekly rest, a 21-hour reduction. Weeks
    1..k-1 hold exactly 45-hour rests: any compensation carved from them
    turns their own rest reduced and pushes the debt onward. Only week k's
    66-hour rest has true spare capacity, so the compensation cascade
    resolves exactly when the trace still contains week k. Daily rests are
    too short to host the 21-hour block, and the day cycle keeps every other
    rule satisfied.
    """
    if k < 2:
        raise ValueError(f"chain depth must be at least 2, got {k}")
    if k > MAX_CHAIN_DEPTH:
        raise ValueError(f"chain depth {k} exceeds the trace-size limit of {MAX_CHAIN_DEPTH}")
    return gen_weeks([24, *[45] * (k - 1), 66, 45, 45])
