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

Both layers work on runs. When every run but the first and the last lasts
at least 60 s, no minute holds two run boundaries: each boundary hands its
minute to the run holding at least 31 of its seconds, the later run on a
30/30 tie, so the first layer is computed in closed form from the run ends
(see `_closed_form_runs`). Any other trace is walked run by run, with only
the minutes that straddle a boundary scanned. In the second layer only a
one-minute run between two driving runs can upgrade, so a labeling with no
one-minute run skips it.

A trace keeps the labelings of the last grid offset it was labeled on: the
first layer, and the minute trace of each reading labeled so far. A second
labeling on that offset reuses them, so checks on one grid under several
readings walk the trace once; a labeling on another offset replaces them,
so a trace holds one offset's labels at most.
"""

from __future__ import annotations

import bisect
from enum import Enum
from itertools import accumulate, islice, repeat
from operator import floordiv, ge, is_, mul, sub
from typing import Sequence

from .timeline import (
    SECONDS_PER_MINUTE,
    Activity,
    Record,
    SecondTrace,
    TimeGrid,
    maximal_columns,
    set_field,
)


class Rule51Semantics(Enum):
    NEIGHBOR_RAW = "NeighborRaw"
    NEIGHBOR_RULE52 = "NeighborRule52"
    FIXPOINT = "Fixpoint"


class MinuteTrace(Record):
    """One activity label per complete calendar minute, held as label runs.

    The labeled minutes begin at instant `start`, which lies on the grid
    they were labeled on. The runs are held as two parallel columns:
    `activities[i]` labels `counts[i]` minutes. Construction merges adjacent
    runs of the same activity. `segments`, the (activity, minutes) pairs, is
    derived on demand and costs one tuple per run.

    Two prefix sums are what the later stages read instead of the runs:
    `bounds[i]`, the minutes from `start` to run `i`, and `driving[i]`, the
    driving minutes before run `i`; each ends with the total.
    """

    _fields = ("start", "activities", "counts")
    __slots__ = (*_fields, "bounds", "driving")

    def __init__(
        self, start: int, activities: Sequence[Activity], counts: Sequence[int]
    ) -> None:
        self._set_columns(start, *maximal_columns(activities, counts), None)

    @classmethod
    def _of_maximal(
        cls, start: int, activities: tuple, counts: tuple[int, ...], bounds: tuple | None
    ) -> "MinuteTrace":
        """The minute trace of columns its caller has proven to be what
        `__init__` builds: tuples of maximal runs, every count positive,
        with `bounds` their prefix sums from 0, or None to have them summed
        here. Nothing is checked."""
        mt = cls.__new__(cls)
        mt._set_columns(start, activities, counts, bounds)
        return mt

    def _set_columns(self, start, activities, counts, bounds) -> None:
        set_field(self, "start", start)
        set_field(self, "activities", activities)
        set_field(self, "counts", counts)
        if bounds is None:
            bounds = tuple(accumulate(counts, initial=0))
        set_field(self, "bounds", bounds)
        # True * count is count: the driving runs' minutes, summed in C
        driven = map(mul, map(is_, activities, repeat(Activity.DRIVING)), counts)
        set_field(self, "driving", tuple(accumulate(driven, initial=0)))

    @property
    def segments(self) -> tuple[tuple[Activity, int], ...]:
        """The (activity, minutes) pairs of the label runs, in time order."""
        return tuple(zip(self.activities, self.counts))

    def __len__(self) -> int:
        return self.bounds[-1]

    @property
    def end(self) -> int:
        return self.start + len(self) * SECONDS_PER_MINUTE

    def driving_minutes(self) -> int:
        return self.driving[-1]

    def to_records(self) -> str:
        """Serialize to the trace record format at 60-second granularity.

        A labeling with no runs has no records: it serializes as "", which
        is not a trace, since a trace covers at least one second.
        """
        if not self.counts:
            return ""
        seconds = map(mul, self.counts, repeat(SECONDS_PER_MINUTE))
        return SecondTrace(self.start, self.activities, seconds).to_records()


def _rule52_runs(
    trace: SecondTrace, grid: TimeGrid
) -> tuple[int, tuple, tuple[int, ...], tuple[int, ...] | None]:
    """First-layer label runs as (start instant, activities, minute counts,
    minute bounds), the bounds being the counts' prefix sums from 0 where
    the labeling found them, else None.

    The runs start at the first grid minute of the trace. A trace that
    covers no grid minute has no runs. A trace whose runs, but for the first
    and the last, all last at least a minute has no grid minute that holds
    two run boundaries, and its labels have a closed form. Any other trace
    is walked run by run. Either way the runs are maximal and every count
    is positive, so they need no check on their way into a `MinuteTrace`.
    The closed form finds the bounds on its way to the counts, and a minute
    trace of its runs shares them. The walk finds none: each minute trace
    of its runs sums its own, so that the runs kept on the trace hold no
    bounds that every reading's upgrade would leave unread.

    The runs are kept on the trace as `(offset, runs, {reading:
    MinuteTrace})`, which a call on another grid offset replaces.
    """
    offset = grid.minute_offset_seconds
    if trace._labels is not None and trace._labels[0] == offset:
        return trace._labels[1]
    first = grid.first_full_minute(trace.start)
    last = (trace.end - offset) // SECONDS_PER_MINUTE
    start = grid.minute_start(first)
    seconds = trace.seconds
    if last <= first:
        runs = start, (), (), (0,)
    # stops at the first short interior run
    elif all(map(ge, islice(seconds, 1, len(seconds) - 1), repeat(SECONDS_PER_MINUTE))):
        runs = start, *_closed_form_runs(trace, grid, first, last)
    else:
        activities, counts = _walk_runs(trace, start)
        runs = start, tuple(activities), tuple(counts), None
    set_field(trace, "_labels", (offset, runs, {}))
    return runs


def _closed_form_runs(
    trace: SecondTrace, grid: TimeGrid, first: int, last: int
) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """The label runs of a trace with no minute holding two run boundaries,
    as (activities, minute counts, minute bounds from minute `first`).

    Labels are kept for minutes `first` to `last - 1`. A minute holding the
    end of run `i`, `p` seconds after the minute starts, holds `p` seconds
    of run `i` and `60 - p` of run `i + 1`. It goes to run `i` when
    `p >= 31`; at `p = 30` the two pieces are equally long, and rule 52
    gives a tie to the latest activity, run `i + 1`. So the labels of run
    `i` end before minute `(end_i - offset + 29) // 60`. These cuts rise
    with `i`, each interior run keeping at least one minute. Counted from
    minute `first` and clamped to [0, last - first] by two bisections, they
    are the runs' minute bounds; they leave without a minute only runs at
    the edges, which are dropped.
    """
    seconds = trace.seconds
    # end_i - offset + 29 - 60 * first for every run but the last: one sum
    # over the seconds runs faster than shifting each of `trace._bounds`
    shift = trace.start - grid.minute_offset_seconds + 29 - first * SECONDS_PER_MINUTE
    ends = islice(accumulate(seconds, initial=shift), 1, len(seconds))
    cuts = list(map(floordiv, ends, repeat(SECONDS_PER_MINUTE)))
    lo = bisect.bisect_right(cuts, 0)
    hi = bisect.bisect_left(cuts, last - first, lo)
    bounds = (0, *cuts[lo:hi], last - first)
    return trace.activities[lo : hi + 1], tuple(map(sub, bounds[1:], bounds)), bounds


def _walk_runs(trace: SecondTrace, start: int) -> tuple[list, list[int]]:
    """The label runs of any trace from the grid minute beginning at
    `start`, by one walk over its runs.

    The walk closes minutes as they fill: a run covering whole minutes
    labels them in bulk; a minute straddling run boundaries takes its
    longest piece, ">=" handing ties to the piece seen later. Runs are
    merged as they are appended, so the lists hold maximal label runs.
    """
    boundary = start  # where the minute being filled ends
    # Every run starts inside the minute being filled, so a run ending
    # before `boundary` is one whole piece of it. The seconds before the
    # first grid minute fill a minute of their own: none of its pieces is
    # as long as the 60 s that `best_len` starts at, so it closes as label
    # None, which a placeholder run absorbs and which is dropped at the end.
    activities: list = [None]
    counts = [0]
    best_len, best = SECONDS_PER_MINUTE, None
    end = trace.start
    for activity, seconds in zip(trace.activities, trace.seconds):
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
    return activities, counts


def label_rule52(trace: SecondTrace, grid: TimeGrid) -> MinuteTrace:
    """First-layer labels: longest continuous activity, latest wins ties.

    Partial minutes at the trace edges are dropped; they would have to be
    padded with invented data to be labeled. A trace that covers no grid
    minute labels as a minute trace with no runs.
    """
    return MinuteTrace._of_maximal(*_rule52_runs(trace, grid))


def _all_driving(trace: SecondTrace, t: int) -> bool:
    """Whether every second of the minute beginning at `t` is driving."""
    activity, start, seconds = trace.run_at(t)
    return activity is Activity.DRIVING and start + seconds >= t + SECONDS_PER_MINUTE


def label_minutes(
    trace: SecondTrace,
    grid: TimeGrid,
    semantics: Rule51Semantics = Rule51Semantics.NEIGHBOR_RULE52,
) -> MinuteTrace:
    """Full minute labeling: first-layer labels plus the driving upgrade.

    The first and last minutes never have two neighbours, so they are never
    upgraded under any semantics. A trace that covers no grid minute labels
    as a minute trace with no runs. The result is kept on the trace with
    its first layer (see `_rule52_runs`), so a repeat returns the same
    minute trace.
    """
    runs = _rule52_runs(trace, grid)
    labelings = trace._labels[2]
    # Fixpoint takes the NeighborRule52 path: see the module docstring
    raw = semantics is Rule51Semantics.NEIGHBOR_RAW
    mt = labelings.get(raw)
    if mt is None:
        mt = labelings[raw] = _upgraded(trace, runs, raw)
    return mt


def _upgraded(trace: SecondTrace, runs: tuple, raw: bool) -> MinuteTrace:
    """The first layer `runs` with rule 51's driving upgrade applied."""
    start, activities, counts, _ = runs
    upgraded = None  # the labels, copied at the first upgrade
    # only a one-minute run can be upgraded
    if 1 in counts:
        # The upgrade judges first-layer labels; reading its own upgrades
        # would change nothing, as a candidate's neighbours are driving.
        driving = Activity.DRIVING
        t = start  # where run k begins
        for k in range(1, len(counts) - 1):
            t += counts[k - 1] * SECONDS_PER_MINUTE
            if counts[k] == 1 and activities[k - 1] is driving and activities[k + 1] is driving:
                if not raw or (
                    _all_driving(trace, t - SECONDS_PER_MINUTE)
                    and _all_driving(trace, t + SECONDS_PER_MINUTE)
                ):
                    if upgraded is None:
                        upgraded = list(activities)
                    upgraded[k] = driving
    if upgraded is None:
        return MinuteTrace._of_maximal(*runs)  # the first layer's runs and bounds
    # an upgraded run merges with its two driving neighbours
    return MinuteTrace(start, upgraded, counts)
