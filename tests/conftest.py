"""Shared trace-building helpers."""

from __future__ import annotations

import itertools

from tachocheck.timeline import SECONDS_PER_WEEK, Activity, SecondTrace

HOUR = 3600
D = Activity.DRIVING
R = Activity.REST
O = Activity.OTHER_WORK
# the byte standing for one second of each activity in a per-second expansion
CODE = {activity: ord(activity.value[0]) for activity in Activity}
ACTIVITY_BY_CODE = {code: activity for activity, code in CODE.items()}


def trace_of(*runs: tuple[Activity, int], start: int = 0) -> SecondTrace:
    return SecondTrace.from_runs(start, runs)


def minutes_of(*runs: tuple[Activity, int], start: int = 0) -> SecondTrace:
    """Like trace_of but with durations given in minutes."""
    return SecondTrace.from_runs(start, [(a, m * 60) for a, m in runs])


def samples(trace: SecondTrace) -> bytes:
    """The trace expanded to one activity code per second."""
    return b"".join(bytes([CODE[a]]) * n for a, n in trace.segments)


def from_samples(start: int, data: bytes) -> SecondTrace:
    """The trace whose per-second activity codes are `data`."""
    return SecondTrace.from_runs(
        start, [(ACTIVITY_BY_CODE[code], len(list(g))) for code, g in itertools.groupby(data)]
    )


def labels(mt) -> tuple[Activity, ...]:
    """One label per minute of a minute trace."""
    return tuple(itertools.chain.from_iterable(map(itertools.repeat, mt.activities, mt.counts)))


def per_run(mt, stretches) -> list[tuple[int, int, int, int]]:
    """Expand accumulate_driving stretches to one item per label run.

    Items are (start instant, minutes, accumulated before, accumulated
    after). The stretches must tile the runs, each but the last followed by
    the rest run that resets the accumulator.
    """
    starts = [mt.start + 60 * b for b in mt.bounds]
    items = []
    for n, (first, end) in enumerate(stretches):
        assert first == (stretches[n - 1][1] + 1 if n else 0) and first <= end
        acc = 0
        for i in range(first, end):
            before = acc
            if mt.activities[i] is D:
                acc += mt.counts[i]
            items.append((starts[i], mt.counts[i], before, acc))
        if n + 1 < len(stretches):
            assert mt.activities[end] is R
            items.append((starts[end], mt.counts[end], acc, 0))
    assert len(items) == len(mt.counts)
    return items


def per_minute(mt, stretches) -> list[tuple[int, int]]:
    """Expand accumulate_driving stretches to one (minute start, count) per minute.

    Driving minutes count up; other minutes hold the count, except the last
    minute of a run, which shows the count after any reset.
    """
    stream = []
    for start, minutes, before, after in per_run(mt, stretches):
        for k in range(minutes):
            if after > before:
                acc = before + k + 1
            else:
                acc = after if k == minutes - 1 else before
            stream.append((start + k * 60, acc))
    return stream


def day_cycle() -> list[tuple[Activity, int]]:
    """A 23-hour block that satisfies every rule: 8 h driving split by a
    full break, padding work, then a 9 h daily rest."""
    return [(D, 4 * HOUR), (R, 1 * HOUR), (D, 4 * HOUR), (O, 5 * HOUR), (R, 9 * HOUR)]


def week_runs(weekly_rest_hours: int) -> list[tuple[Activity, int]]:
    """One full calendar week: a leading weekly rest, then day cycles."""
    runs: list[tuple[Activity, int]] = [(R, weekly_rest_hours * HOUR)]
    gap = SECONDS_PER_WEEK - weekly_rest_hours * HOUR
    cycles, remainder = divmod(gap, 23 * HOUR)
    for _ in range(cycles):
        runs.extend(day_cycle())
    if remainder:
        runs.append((O, remainder))
    return runs
