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
from dataclasses import dataclass, field
from enum import Enum

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
        bounds, driving = [0], [0]
        total = driven = 0
        driving_activity = Activity.DRIVING  # a local: enum attribute lookups are slow
        for activity, count in segments:
            total += count
            if activity is driving_activity:
                driven += count
            bounds.append(total)
            driving.append(driven)
        object.__setattr__(self, "_bounds", tuple(bounds))
        object.__setattr__(self, "_driving", tuple(driving))

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


def _rule52_runs(trace: SecondTrace, grid: TimeGrid) -> tuple[int, list, list[int]]:
    """First-layer label runs as (first minute, activities, minute counts).

    One walk over the runs closes minutes as they fill: a run covering whole
    minutes labels them in bulk; a minute straddling run boundaries takes
    its longest piece, ">=" handing ties to the piece seen later. Runs are
    merged as they are appended, so the lists hold maximal label runs.
    """
    first = grid.first_full_minute(trace.start)
    boundary = grid.minute_start(first)  # where the minute being filled ends
    if trace.end < boundary + SECONDS_PER_MINUTE:
        raise TraceTooShortError(
            "trace does not cover a complete minute on the given grid"
        )
    # Every run starts inside the minute being filled, so a run ending
    # before `boundary` is one whole piece of it. The seconds before the
    # first grid minute fill a minute of their own: none of its pieces is
    # as long as the 60 s that `best_len` starts at, so it closes as label
    # None, which a placeholder run absorbs and which is dropped at the end.
    activities: list = [None]
    counts = [0]
    best_len, best = SECONDS_PER_MINUTE, None
    end = trace.start
    for activity, seconds in trace.segments:
        end += seconds
        if end < boundary:
            if seconds >= best_len:
                best_len, best = seconds, activity
            continue
        if boundary - end + seconds >= best_len:
            best = activity
        whole = (end - boundary) // SECONDS_PER_MINUTE
        boundary += (whole + 1) * SECONDS_PER_MINUTE
        if best is activity:
            whole += 1
        elif best is activities[-1]:
            counts[-1] += 1
        else:
            activities.append(best)
            counts.append(1)
        if whole:
            if activity is activities[-1]:
                counts[-1] += whole
            else:
                activities.append(activity)
                counts.append(whole)
        best_len, best = end - boundary + SECONDS_PER_MINUTE, activity
    del activities[0], counts[0]
    return first, activities, counts


def label_rule52(trace: SecondTrace, grid: TimeGrid) -> MinuteTrace:
    """First-layer labels: longest continuous activity, latest wins ties.

    Partial minutes at the trace edges are dropped; they would have to be
    padded with invented data to be labeled.
    """
    first, activities, counts = _rule52_runs(trace, grid)
    return MinuteTrace(first, tuple(zip(activities, counts)), grid)


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
    first, activities, counts = _rule52_runs(trace, grid)
    # The upgrade judges first-layer labels and rewrites the list in place:
    # a candidate's neighbours are driving, so no rewrite touches another
    # candidate's neighbours. Fixpoint takes the NeighborRule52 path: see
    # the module docstring.
    raw = semantics is Rule51Semantics.NEIGHBOR_RAW
    driving = Activity.DRIVING
    minute = first
    for k in range(1, len(counts) - 1):
        minute += counts[k - 1]
        if counts[k] == 1 and activities[k - 1] is driving and activities[k + 1] is driving:
            if not raw or (
                _all_driving(trace, grid, minute - 1) and _all_driving(trace, grid, minute + 1)
            ):
                activities[k] = driving
    return MinuteTrace(first, tuple(zip(activities, counts)), grid)
