"""Reference implementations on expanded forms, kept as test oracles.

They label one activity code per second, accumulate one sample per minute
and attribute Article 6.1 extensions by brute-force search. They are slow
and literal on purpose; the differential tests compare the engine with them.
"""

from __future__ import annotations

import itertools

from conftest import ACTIVITY_BY_CODE, samples
from tachocheck.minutes import Rule51Semantics, TraceTooShortError
from tachocheck.periods import (
    FULL_BREAK_MIN_MINUTES,
    REST_PERIOD_KINDS,
    SPLIT_FIRST_MIN_MINUTES,
    SPLIT_SECOND_MIN_MINUTES,
)
from tachocheck.rules import (
    DRIVE_BEFORE_BREAK_LIMIT_MINUTES,
    MAX_EXTENSIONS_PER_WEEK,
    Violation,
)
from tachocheck.timeline import SECONDS_PER_MINUTE, Activity


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
        raw = [w.count(Activity.DRIVING.code) == SECONDS_PER_MINUTE for w in windows]
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
