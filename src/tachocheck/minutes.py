"""Second-to-minute activity labeling.

Minute labeling happens in two layers. First each complete calendar minute
takes the label of the longest continuous activity run inside it, ties going
to the latest of the equally long runs. Second, any minute whose two
neighbouring minutes are both driving is upgraded to driving.

What exactly makes a neighbour "driving" for the second layer is not pinned
down by the rule text, so it is a configurable semantics here rather than a
silent choice:

- NeighborRule52: neighbours are judged by their first-layer labels and the
  upgrade runs in a single pass.
- NeighborRaw: a neighbour counts only if every one of its raw seconds is
  driving.
- Fixpoint: the NeighborRule52 pass re-applied until stable. A single pass
  is provably already stable: an upgrade needs both raw-layer neighbours
  labeled driving, and an upgraded neighbour would itself have needed this
  minute to be driving already. So Fixpoint shares the NeighborRule52 code;
  the value exists so the reading can be selected and audited.

Both layers work on runs: only minutes that straddle a run boundary are
scanned, and only a one-minute run between two driving runs can upgrade.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .timeline import (
    SECONDS_PER_MINUTE,
    Activity,
    SecondTrace,
    TimeGrid,
    TraceError,
    coalesce,
)


class TraceTooShortError(TraceError):
    """Trace does not cover a single complete minute on the grid."""


class Rule51Semantics(Enum):
    NEIGHBOR_RAW = "NeighborRaw"
    NEIGHBOR_RULE52 = "NeighborRule52"
    FIXPOINT = "Fixpoint"


@dataclass(frozen=True)
class MinuteTrace:
    """One activity label per complete calendar minute, held as label runs.

    `segments` lists (activity, minutes) pairs in time order; construction
    merges adjacent pairs of the same activity.
    """

    start_minute: int
    segments: tuple[tuple[Activity, int], ...]
    grid: TimeGrid
    # first minute of each run (then the total) and driving minutes before it
    _bounds: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _driving: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        segments = coalesce(self.segments)
        object.__setattr__(self, "segments", segments)
        counts = [n for _, n in segments]
        driving = [n if a is Activity.DRIVING else 0 for a, n in segments]
        object.__setattr__(self, "_bounds", tuple(itertools.accumulate(counts, initial=0)))
        object.__setattr__(self, "_driving", tuple(itertools.accumulate(driving, initial=0)))

    def __len__(self) -> int:
        return self._bounds[-1]

    @property
    def start_instant(self) -> int:
        return self.grid.minute_start(self.start_minute)

    @property
    def end_instant(self) -> int:
        return self.grid.minute_start(self.start_minute + len(self))

    def minute_instant(self, index: int) -> int:
        """Instant at which minute `index` (relative to this trace) begins."""
        return self.grid.minute_start(self.start_minute + index)

    def driving_minutes(self) -> int:
        return self._driving[-1]

    def label_runs(self) -> Iterator[tuple[Activity, int, int]]:
        """Yield maximal (activity, first minute index, minute count) runs."""
        for (activity, count), index in zip(self.segments, self._bounds):
            yield activity, index, count

    def _driving_before(self, index: int) -> int:
        i = bisect.bisect_right(self._bounds, index, hi=len(self.segments)) - 1
        inside = index - self._bounds[i] if self.segments[i][0] is Activity.DRIVING else 0
        return self._driving[i] + inside

    def driving_between(self, start: int, end: int) -> int:
        """Count driving-labeled minutes in the instant range [start, end)."""
        lo = min(len(self), max(0, (start - self.start_instant) // SECONDS_PER_MINUTE))
        hi = min(len(self), max(0, (end - self.start_instant) // SECONDS_PER_MINUTE))
        return max(0, self._driving_before(hi) - self._driving_before(lo))

    def to_records(self) -> str:
        """Serialize to the trace record format at 60-second granularity."""
        return SecondTrace(
            self.start_instant, tuple((a, n * SECONDS_PER_MINUTE) for a, n in self.segments)
        ).to_records()


def label_rule52(trace: SecondTrace, grid: TimeGrid) -> MinuteTrace:
    """First-layer labels: longest continuous activity, latest wins ties.

    Partial minutes at the trace edges are dropped; they would have to be
    padded with invented data to be labeled.
    """
    first = grid.first_full_minute(trace.start)
    count = (trace.end - grid.minute_offset_seconds) // SECONDS_PER_MINUTE - first
    if count < 1:
        raise TraceTooShortError(
            "trace does not cover a complete minute on the given grid"
        )
    # Walk the runs, closing minutes as they fill: a run covering whole
    # minutes labels them in bulk; a minute straddling run boundaries takes
    # its longest piece, ">=" handing ties to the piece seen later.
    labels: list[tuple[Activity, int]] = []
    t = grid.minute_start(first)  # start of the minute being filled
    stop = grid.minute_start(first + count)
    best_len, best = 0, None
    for activity, start, seconds in trace.runs():
        end = min(start + seconds, stop)
        if end <= t:
            continue
        piece = min(end, t + SECONDS_PER_MINUTE) - max(start, t)
        if piece >= best_len:
            best_len, best = piece, activity
        if end < t + SECONDS_PER_MINUTE:
            continue
        labels.append((best, 1))
        t += SECONDS_PER_MINUTE
        whole = (end - t) // SECONDS_PER_MINUTE
        if whole:
            labels.append((activity, whole))
            t += whole * SECONDS_PER_MINUTE
        best_len, best = end - t, activity
    return MinuteTrace(first, tuple(labels), grid)


def _all_driving(trace: SecondTrace, grid: TimeGrid, minute: int) -> bool:
    activity, start, seconds = trace.run_at(grid.minute_start(minute))
    return activity is Activity.DRIVING and start + seconds >= grid.minute_start(minute + 1)


def label_minutes(
    trace: SecondTrace,
    grid: TimeGrid,
    semantics: Rule51Semantics = Rule51Semantics.NEIGHBOR_RULE52,
) -> MinuteTrace:
    """Full minute labeling: first-layer labels plus the driving upgrade.

    The first and last minutes never have two neighbours, so they are never
    upgraded under any semantics.
    """
    base = label_rule52(trace, grid)
    runs = list(base.segments)
    # Fixpoint takes the NeighborRule52 path: see the module docstring.
    raw = semantics is Rule51Semantics.NEIGHBOR_RAW
    minute = base.start_minute
    for k in range(1, len(runs) - 1):
        minute += runs[k - 1][1]
        (left, _), (activity, count), (right, _) = base.segments[k - 1 : k + 2]
        if count > 1 or activity is Activity.DRIVING or not (left is right is Activity.DRIVING):
            continue
        if not raw or (
            _all_driving(trace, grid, minute - 1) and _all_driving(trace, grid, minute + 1)
        ):
            runs[k] = (Activity.DRIVING, 1)
    return MinuteTrace(base.start_minute, tuple(runs), grid)
