"""Legality checks over a labeled, segmented trace.

Implemented checks, each relative to an interpretation profile:

- Article 7: at most 270 accumulated driving minutes before a qualifying
  break. Exactly 270 is legal; thresholds are strict throughout.
- Article 6.1: daily driving time of at most 540 minutes, extendable to 600
  at most twice per calendar week; the week an extension crossing Sunday
  24:00 counts against is a profile knob.
- Article 8.2: within 24 hours of the end of a rest period, a new daily (or
  weekly) rest must have been completed.
- Article 8.6 with 8.9: every two consecutive weeks need two regular weekly
  rests, or one regular plus one reduced rest of at least 24 hours whose
  reduction is compensated en bloc before the end of the third following
  week. Evaluated exactly, by one forward pass over the rest runs that
  keeps every undominated state of open compensation debts and pair
  tallies; greedy choices are unsound because a compensation can force the
  donor week's own rest to shrink, cascading arbitrarily far forward.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
from typing import Container, Iterator, Optional, Sequence

from .minutes import MinuteTrace, label_minutes
from .periods import (
    REDUCED_WEEKLY_MIN_MINUTES,
    REGULAR_WEEKLY_MIN_MINUTES,
    DailyDrivingSpan,
    accumulate_driving,
    classify_rests,
    daily_driving_spans,
)
from .profiles import ExtendedAttribution, InterpretationProfile
from .timeline import (
    SECONDS_PER_DAY,
    SECONDS_PER_MINUTE,
    Calendar,
    LeapSecond,
    Record,
    SecondTrace,
    TimeGrid,
    set_field,
)

DRIVE_BEFORE_BREAK_LIMIT_MINUTES = 270
DAILY_DRIVING_LIMIT_MINUTES = 540
EXTENDED_DAILY_LIMIT_MINUTES = 600
MAX_EXTENSIONS_PER_WEEK = 2
COMPENSATION_WINDOW_WEEKS = 3
NEW_REST_WINDOW_SECONDS = SECONDS_PER_DAY


class Violation(Record):
    __slots__ = _fields = ("article", "window_start", "window_end", "detail", "profile_id")

    def __init__(
        self, article: str, window_start: int, window_end: int, detail: str, profile_id: str
    ) -> None:
        set_field(self, "article", article)
        set_field(self, "window_start", window_start)
        set_field(self, "window_end", window_end)
        set_field(self, "detail", detail)
        set_field(self, "profile_id", profile_id)

    def to_dict(self) -> dict:
        return {
            "article": self.article,
            "window": {"start": self.window_start, "end": self.window_end},
            "detail": self.detail,
            "profile_id": self.profile_id,
        }

    def sort_key(self) -> tuple:
        return (self.article, self.window_start, self.window_end, self.detail)


class Report(Record):
    __slots__ = _fields = (
        "trace_digest",
        "trace_start",
        "trace_seconds",
        "grid_offset",
        "profile",
        "violations",
        "statistics",
        "notices",
    )

    def __init__(
        self,
        trace_digest: str,
        trace_start: int,
        trace_seconds: int,
        grid_offset: int,
        profile: InterpretationProfile,
        violations: tuple[Violation, ...],
        statistics: dict,
        notices: tuple[str, ...],
    ) -> None:
        set_field(self, "trace_digest", trace_digest)
        set_field(self, "trace_start", trace_start)
        set_field(self, "trace_seconds", trace_seconds)
        set_field(self, "grid_offset", grid_offset)
        set_field(self, "profile", profile)
        set_field(self, "violations", violations)
        set_field(self, "statistics", statistics)
        set_field(self, "notices", notices)

    def to_dict(self) -> dict:
        """The report as plain data: the reference that `to_json` writes."""
        return {
            "trace": {
                "digest": self.trace_digest,
                "start": self.trace_start,
                "duration_seconds": self.trace_seconds,
            },
            "grid_offset": self.grid_offset,
            "profile": self.profile.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "statistics": dict(self.statistics),
            "notices": list(self.notices),
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2, sort_keys=True)`, byte for
        byte, written straight from the fields. With `indent`, `json.dumps`
        runs CPython's pure-Python encoder, which takes several times the
        time of this writer and, on a large report, several times its
        memory."""
        violations = ",\n".join(
            [
                _VIOLATION_JSON % tuple(map(_json_value, fields, _INDENTS))
                for fields in map(_violation_fields, self.violations)
            ]
        )
        head = _REPORT_JSON_HEAD % (
            _json_value(self.grid_offset, "  "),
            _json_array(self.notices, "  "),
            _json_object(self.profile.to_dict(), "  "),
            _json_object(self.statistics, "  "),
            _json_value(self.trace_digest, "    "),
            _json_value(self.trace_seconds, "    "),
            _json_value(self.trace_start, "    "),
        )
        if not violations:
            return head + "[]\n}"
        # one copy of the violations' text, which can run to tens of MB
        return "".join((head, "[\n", violations, "\n  ]\n}"))


# The report's layout as `json.dumps(indent=2, sort_keys=True)` writes it:
# keys sorted, two spaces per level, and each value's text written by the
# `_json_*` helpers for the indent of its line. The violations come last.
_REPORT_JSON_HEAD = """{
  "grid_offset": %s,
  "notices": %s,
  "profile": %s,
  "statistics": %s,
  "trace": {
    "digest": %s,
    "duration_seconds": %s,
    "start": %s
  },
  "violations": """
# A violation's fields in the order of `_VIOLATION_JSON`, and the indent of
# each one's line.
_violation_fields = operator.attrgetter(
    "article", "detail", "profile_id", "window_end", "window_start"
)
_INDENTS = ("      ",) * 3 + ("        ",) * 2
_VIOLATION_JSON = """    {
      "article": %s,
      "detail": %s,
      "profile_id": %s,
      "window": {
        "end": %s,
        "start": %s
      }
    }"""

# the C function `json.dumps` calls for every string under `ensure_ascii`
_json_string = json.encoder.encode_basestring_ascii


def _json_value(value, indent: str) -> str:
    """`value` as `json.dumps(indent=2, sort_keys=True)` writes it on a line
    indented by `indent`. A str, int, bool or None of exact type is written
    here (so a bool is never written as an int); anything else goes through
    `json.dumps` itself."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _json_array(items, indent: str) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    lines = ",\n".join([inner + _json_value(item, inner) for item in items])
    return f"[\n{lines}\n{indent}]"


def _json_object(mapping: dict, indent: str) -> str:
    if not mapping or any(type(key) is not str for key in mapping):
        return _json_value(mapping, indent)
    inner = indent + "  "
    lines = ",\n".join(
        [
            f"{inner}{_json_string(key)}: {_json_value(value, inner)}"
            for key, value in sorted(mapping.items())
        ]
    )
    return f"{{\n{lines}\n{indent}}}"


def check_article7(
    stretches: Sequence[tuple[int, int]], mt: MinuteTrace, profile_id: str = ""
) -> list[Violation]:
    """One violation per maximal interval of accumulation beyond 270 minutes.

    Takes the stretches of `accumulate_driving` over the label runs of
    `mt`. The reported window runs from the minute the accumulator first
    exceeded the limit to the end of the last minute that still added
    driving before the next reset. A stretch's driving is a difference of
    the driving prefix sums; only a stretch over the limit is searched, by
    two bisections on those sums.
    """
    bounds, driving = mt.bounds, mt.driving
    origin = mt.start
    limit = DRIVE_BEFORE_BREAK_LIMIT_MINUTES
    violations = []
    for first, end in stretches:
        base, total = driving[first], driving[end]
        if total - base <= limit:
            continue
        # the driving run during which the accumulator passes the limit
        over = bisect.bisect_right(driving, base + limit, first, end) - 1
        over_minute = bounds[over] + base + limit - driving[over]
        # one past the stretch's last driving run
        last = bisect.bisect_left(driving, total, first, end)
        violations.append(
            Violation(
                "7",
                origin + over_minute * SECONDS_PER_MINUTE,
                origin + bounds[last] * SECONDS_PER_MINUTE,
                f"accumulated driving reached {total - base} minutes without a "
                f"qualifying break (limit {limit})",
                profile_id,
            )
        )
    return violations


def check_article61(
    spans: Sequence[DailyDrivingSpan],
    profile: InterpretationProfile,
    calendar: Calendar = Calendar(),
) -> list[Violation]:
    """Daily driving limit with the twice-per-week 10-hour extension.

    `spans` must be disjoint and in time order, as `daily_driving_spans`
    returns them. An extension (over 540, at most 600 minutes) counts
    against its week. One that crosses Sunday 24:00 counts against its
    start week or its end week, as `extended_attribution` says; under
    MinimizeViolations, against whichever leaves the fewest third-or-later
    extensions, ties going to the start week, earlier spans first.

    Lemma: whichever week each crossing extension takes, the week an
    extension counts against never decreases along the spans, since its end
    week is at most the next span's start week. So each week's extensions
    are consecutive, and the state after an extension is its week and its
    count there, capped at 2. A backward pass finds `least[i, state]`, the
    fewest third-or-later extensions that extensions i.. can leave after
    `state`. The forward pass takes each extension's first option that
    keeps that optimum, and flags it when its week's count passes 2. Under
    a fixed reading every extension has one option.
    """
    attribution = profile.extended_attribution
    violations = []
    extensions = []  # (span, the weeks it may count against: start week first)
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
            start_week = calendar.week_of(span.start)
            end_week = calendar.week_of(span.end - 1)
            if start_week == end_week or attribution is ExtendedAttribution.START_WEEK:
                extensions.append((span, (start_week,)))
            elif attribution is ExtendedAttribution.END_WEEK:
                extensions.append((span, (end_week,)))
            else:
                extensions.append((span, (start_week, end_week)))

    # least[i, state]; past the last extension nothing is left to count
    least = {}
    counts = range(1, MAX_EXTENSIONS_PER_WEEK + 1)
    for i in range(len(extensions) - 1, -1, -1):
        states = [(week, c) for week in extensions[i - 1][1] for c in counts] if i else [(None, 0)]
        for state in states:
            least[i, state] = min(
                third + least.get((i + 1, after), 0)
                for after, third in (_count_extension(state, w) for w in extensions[i][1])
            )

    state = (None, 0)
    for i, (span, weeks) in enumerate(extensions):
        for week in weeks:
            after, third = _count_extension(state, week)
            if third + least.get((i + 1, after), 0) == least[i, state]:
                break
        state = after
        if third:
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


def _count_extension(state: tuple, week: int) -> tuple[tuple, bool]:
    """The state after one more extension in `week`, and whether that is a
    third or later extension there."""
    last_week, count = state
    if week != last_week:
        return (week, 1), False
    return (week, min(count + 1, MAX_EXTENSIONS_PER_WEEK)), count == MAX_EXTENSIONS_PER_WEEK


def check_article82(
    rests: Sequence[int],
    mt: MinuteTrace,
    profile: InterpretationProfile,
) -> list[Violation]:
    """A new daily rest must complete within 24 h of the last rest's end.

    A rest of at least the daily threshold completes when its first
    threshold-many minutes have elapsed, so a long rest starting late in the
    window still counts as long as enough of it fits. Windows running past
    the end of the trace are not judged. `rests` are `classify_rests(mt)`.

    Rest runs are disjoint and in time order, so the rest period that
    completes first after rest period k ends is rest period k + 1: every
    later one starts after it, and all complete the same threshold-many
    minutes after they start. So each rest period is judged against the
    next one alone.
    """
    counts, bounds = mt.counts, mt.bounds
    origin, horizon = mt.start, mt.end
    threshold = profile.daily_rest_threshold
    periods = [i for i in rests if counts[i] >= threshold]
    violations = []
    for i, following in zip(periods, [*periods[1:], None]):
        end = origin + bounds[i + 1] * SECONDS_PER_MINUTE
        deadline = end + NEW_REST_WINDOW_SECONDS
        if deadline > horizon:
            continue
        if following is None or (
            origin + (bounds[following] + threshold) * SECONDS_PER_MINUTE > deadline
        ):
            violations.append(
                Violation(
                    "8.2",
                    end,
                    deadline,
                    "no new daily rest completed within 24 hours of the end of "
                    f"the rest finishing at second {end}",
                    profile.id,
                )
            )
    return violations


def solve_weekly_rests(
    scope_weeks: Sequence[int],
    mt: MinuteTrace,
    rests: Sequence[int],
    profile: InterpretationProfile,
    calendar: Calendar = Calendar(),
    waived: frozenset[int] = frozenset(),
) -> Optional[dict]:
    """Exact feasibility check for Articles 8.6/8.9 over the given weeks.

    `rests` are `classify_rests(mt)`. Model: a rest run of at least 1440
    minutes may be counted as the weekly rest of at most one non-waived week
    it overlaps. It keeps at most 2700 of its minutes, less the compensation
    it hosts: regular at 2700, reduced below. Each reduction (2700 minus the
    minutes kept) is paid by one contiguous block in a later run. A run's
    blocks tile it from its start in deadline order, each completing before
    the end of the third week after the reduced week. A counted host keeps
    1440 minutes; with `attached_compensation` an uncounted host keeps the
    daily-rest threshold. Every pair of consecutive non-waived weeks needs
    two counted rests, one of them regular. The scope must be consecutive
    weeks in ascending order; any other scope raises ValueError.

    Prepares a `WeeklyRestProblem` and solves it once; `check_article86`
    prepares once per check and resumes its probes from recorded frontiers.

    Returns a witness dict when an assignment satisfying every pair of
    consecutive non-waived weeks exists, else None.
    """
    problem = WeeklyRestProblem(scope_weeks, mt, rests, profile, calendar)
    solution = problem.solve(waived)
    return None if solution is None else problem.witness(solution)


class WeeklyRestProblem:
    """The inputs of the Article 8.6 search, prepared once per check.

    The preparation reads each rest run's start and minutes. Only the runs
    of at least 1440 minutes get candidate weeks, the scope weeks of
    `calendar` they overlap. It computes each scope week's compensation
    deadline. A pair of consecutive weeks is judged at the last run that
    could count for either week; pairs that no run can serve are kept
    apart. A pass filters all of this by `waived` alone.

    Resume rule: waiving the weeks X as well drops only their candidacy and
    the pairs x - 1 and x for each x in X. A run whose candidate weeks miss
    every x - 1, x and x + 1 counts for the same weeks, touches the same
    pair tallies and judges the same pairs either way. So a pass with X
    waived as well takes every step before `divergence(X)`, the first run
    whose candidate weeks meet them, exactly as the pass without, and can
    resume there from that pass's frontier; if that pass died before the
    run, it dies too.
    """

    def __init__(
        self,
        scope_weeks: Sequence[int],
        mt: MinuteTrace,
        rests: Sequence[int],
        profile: InterpretationProfile,
        calendar: Calendar = Calendar(),
    ) -> None:
        scope = list(scope_weeks)
        if any(b != a + 1 for a, b in zip(scope, scope[1:])):
            raise ValueError(f"Article 8.6 scope must be consecutive weeks, got {scope}")
        origin, bounds, counts = mt.start, mt.bounds, mt.counts
        self.starts = [origin + bounds[i] * SECONDS_PER_MINUTE for i in rests]
        self.minutes = [counts[i] for i in rests]
        self.uncounted_reserve = (
            profile.daily_rest_threshold if profile.attached_compensation else 0
        )
        first, last = (scope[0], scope[-1]) if scope else (0, -1)
        # the scope weeks' Mondays through the last deadline, in one pass
        self.mondays = calendar.mondays(first, last + COMPENSATION_WINDOW_WEEKS + 2)
        self.deadlines = dict(zip(scope, self.mondays[COMPENSATION_WINDOW_WEEKS + 1 :]))
        n = len(self.starts)
        self.candidates: list = [()] * n
        self.candidate_runs = []  # the runs with a candidate week, then n
        last_candidate = {}
        for i in [i for i, m in enumerate(self.minutes) if m >= REDUCED_WEEKLY_MIN_MINUTES]:
            start = self.starts[i]
            end = start + self.minutes[i] * SECONDS_PER_MINUTE
            weeks = range(
                max(first, calendar.week_of(start)), min(last, calendar.week_of(end - 1)) + 1
            )
            if weeks:
                self.candidates[i] = weeks
                self.candidate_runs.append(i)
                last_candidate.update(zip(weeks, itertools.repeat(i)))
        self.candidate_runs.append(n)
        self.pairs = range(first, last)  # by first week
        self.unservable = []  # pairs no run can serve
        self.judged_at: dict[int, list[int]] = {}  # run index -> pairs
        for pair in range(first, last):
            judge = max(last_candidate.get(pair, -1), last_candidate.get(pair + 1, -1))
            if judge == -1:
                self.unservable.append(pair)
            else:
                self.judged_at.setdefault(judge, []).append(pair)

    def unserved(self, waived: Container[int]) -> bool:
        """Whether a pair no run can serve is left when `waived` are waived."""
        return any(pair not in waived and pair + 1 not in waived for pair in self.unservable)

    def divergence(self, weeks: Sequence[int]) -> int:
        """The first run whose candidate weeks meet weeks[0] - 1 through
        weeks[-1] + 1, or the number of runs when none does: a pass that
        also waives the consecutive `weeks` takes every step before it
        exactly as the pass without (see the resume rule)."""
        runs = self.candidate_runs
        # candidate weeks are ranges whose both ends grow along the runs
        k = bisect.bisect_left(
            runs, weeks[0] - 1, 0, len(runs) - 1, key=lambda i: self.candidates[i][-1]
        )
        if k < len(runs) - 1 and self.candidates[runs[k]][0] <= weeks[-1] + 1:
            return runs[k]
        return runs[-1]

    def frontiers(
        self,
        waived: Container[int] = frozenset(),
        start: int = 0,
        states: Sequence[tuple] = (((), ()),),
        trail: Optional[list] = None,
    ) -> Iterator[tuple[int, list]]:
        """One forward pass over the runs in start order with `waived` waived.

        Hosting can reduce a counted run and so create a further debt. The
        pass keeps every reachable state: the open debts as sorted (week,
        minutes), and for each pair not yet judged its counted rests
        (capped at two) and whether one is regular. A state is dropped when
        a debt no longer fits, when a judged pair is unmet, or when another
        state has no lower tally and a sub-multiset of its debts. While no
        state holds an open debt, a run with no candidate week changes no
        state, so the pass jumps to the next candidate run: a pass costs
        the candidate runs plus the runs visited while a debt is open.

        Yields (i, states) before each step, the undominated states the pass
        holds before run i, and (n, states) at the end, n being the number of
        runs; after a step that leaves no state it stops. It starts at run
        `start` from `states`: another pass's frontier there, under the
        resume rule. With `trail`, each step is appended to it as (run
        index, {state: (previous state, counted week, hosted debts)}). Pairs
        no run can serve are never judged; `unserved` tells them.
        """
        touches: dict = {}  # counted week -> the pairs its count adds to
        deadlines = self.deadlines
        uncounted_reserve = self.uncounted_reserve
        n = len(self.starts)
        smallest_debt = min((m for debts, _ in states for _, m in debts), default=math.inf)
        i = start
        while i < n:
            minutes = self.minutes[i]
            weeks = self.candidates[i]
            if weeks and waived:
                weeks = [w for w in weeks if w not in waived]
            # a run that can neither be counted nor host a debt changes nothing
            if weeks or minutes - uncounted_reserve >= smallest_debt:
                yield i, states
                run_start = self.starts[i]
                judged = self.judged_at.get(i, ())
                if judged and waived:  # a pair is left when neither of its weeks is waived
                    judged = [p for p in judged if p not in waived and p + 1 not in waived]
                step: dict = {}
                for state in states:
                    debts, tallies = state
                    if debts:
                        if any(run_start + m * SECONDS_PER_MINUTE > deadlines[w] for w, m in debts):
                            continue
                        uncounted = _hostings(
                            run_start, minutes - uncounted_reserve, debts, deadlines
                        )
                        counted = weeks and _hostings(
                            run_start, minutes - REDUCED_WEEKLY_MIN_MINUTES, debts, deadlines
                        )
                    else:
                        uncounted = counted = _NOTHING_HOSTED
                    current = dict(tallies)
                    # one run adds at most one count to a pair
                    if judged and not all(pair in current for pair in judged):
                        continue
                    for week in (None, *weeks):
                        if week is None:
                            hostings, touched = uncounted, ()
                        else:
                            hostings, touched = counted, touches.get(week)
                            if touched is None:
                                touched = [
                                    p
                                    for p in (week - 1, week)
                                    if p in self.pairs and p not in waived and p + 1 not in waived
                                ]
                                touches[week] = touched
                        for hosted, kept, total in hostings:
                            if week is not None:
                                regular = minutes - total >= REGULAR_WEEKLY_MIN_MINUTES
                                if not regular:
                                    debt = (week, REGULAR_WEEKLY_MIN_MINUTES - minutes + total)
                                    kept = tuple(sorted(kept + (debt,)))
                            if touched or judged:
                                pair_tallies = current.copy()
                                for pair in touched:
                                    count, was_regular = pair_tallies.get(pair, (0, False))
                                    pair_tallies[pair] = (min(2, count + 1), was_regular or regular)
                                # stops at the first unmet pair: the option is dropped then
                                if judged and not all(
                                    pair_tallies.pop(pair) == (2, True) for pair in judged
                                ):
                                    continue
                                tallies_after = tuple(sorted(pair_tallies.items()))
                            else:
                                tallies_after = tallies
                            step.setdefault((kept, tallies_after), (state, week, hosted))
                states = _undominated(step)
                if not states:
                    return
                if trail is not None:
                    trail.append((i, step))
                smallest_debt = min(
                    (m for debts, _ in states for _, m in debts), default=math.inf
                )
            if smallest_debt < math.inf:
                i += 1
            else:
                runs = self.candidate_runs
                i = runs[bisect.bisect_left(runs, i + 1)]
        yield n, states

    def solve(self, waived: frozenset[int] = frozenset()) -> Optional[tuple]:
        """One full pass with `waived` waived.

        Returns the final debt-free state and the trail of steps that reach
        it, or None when no assignment satisfies every pair of consecutive
        non-waived weeks.
        """
        if self.unserved(waived):
            return None
        trail: list = []
        for i, states in self.frontiers(waived, trail=trail):
            pass  # to the last record: the end, or the run the pass died at
        state = next((s for s in states if not s[0]), None) if i == len(self.starts) else None
        return None if state is None else (state, trail)

    def witness(self, solution: tuple) -> dict:
        """The assignments and compensation blocks of a solution of `solve`."""
        state, trail = solution
        choices = []
        for i, step in reversed(trail):
            state, week, hosted = step[state]
            choices.append((i, week, hosted))
        assignments, compensations, owed = [], [], []  # owed: (week, minutes, debtor start)
        for i, week, hosted in reversed(choices):
            start, minutes = self.starts[i], self.minutes[i]
            for debt in hosted:
                debtor = next(o for o in owed if o[:2] == debt)
                owed.remove(debtor)
                compensations.append(
                    {
                        "week": debt[0],
                        "minutes": debt[1],
                        "debtor_start": debtor[2],
                        "donor_start": start,
                        "deadline": self.deadlines[debt[0]],
                    }
                )
            if week is not None:
                counted = min(REGULAR_WEEKLY_MIN_MINUTES, minutes - sum(m for _, m in hosted))
                if counted < REGULAR_WEEKLY_MIN_MINUTES:
                    owed.append((week, REGULAR_WEEKLY_MIN_MINUTES - counted, start))
                assignments.append(
                    {
                        "week": week,
                        "run_start": start,
                        "run_minutes": minutes,
                        "counted_minutes": counted,
                        "role": "regular" if counted >= REGULAR_WEEKLY_MIN_MINUTES else "reduced",
                    }
                )
        return {
            "assignments": sorted(assignments, key=lambda a: (a["week"], a["run_start"])),
            "compensations": sorted(compensations, key=lambda c: c["debtor_start"]),
        }


_NOTHING_HOSTED = (((), (), 0),)  # the one hosting of a state with no debt


def _hostings(start: int, capacity: int, debts: tuple, deadlines: dict) -> list:
    """(hosted, kept, hosted minutes) for each subset of `debts` that fits
    in `capacity` minutes of a run starting at `start`. Debts come in
    deadline order, so each block is checked where it lands when tiled from
    the run start."""
    options = [((), (), 0)]
    for debt in debts:
        week, minutes = debt
        grown = []
        for hosted, kept, total in options:
            grown.append((hosted, kept + (debt,), total))
            end = total + minutes
            if end <= capacity and start + end * SECONDS_PER_MINUTE <= deadlines[week]:
                grown.append((hosted + (debt,), kept, end))
        options = grown
    return options


def _undominated(states) -> list:
    survivors: list = []
    for state in states:
        if not any(_dominates(other, state) for other in survivors):
            survivors = [other for other in survivors if not _dominates(state, other)]
            survivors.append(state)
    return survivors


def _dominates(a: tuple, b: tuple) -> bool:
    """Whether state a completes whenever state b does."""
    if a[0]:
        remaining = iter(b[0])
        if not all(debt in remaining for debt in a[0]):  # sorted: a sub-multiset
            return False
    tallies = dict(a[1])
    return all(
        pair in tallies and tallies[pair][0] >= count and tallies[pair][1] >= regular
        for pair, (count, regular) in b[1]
    )


class _Pass:
    """A pass of `problem` with `waived` waived, taken only as far as asked.

    Without a `source` it starts at run 0. A `source` is a pass that waives
    all these weeks but the consecutive `extra`; this pass resumes at
    `problem.divergence(extra)` from the source's frontier there, and is
    the source before that run. `records` holds the (i, states) that
    `frontiers` has yielded so far.
    """

    def __init__(
        self,
        problem: WeeklyRestProblem,
        waived: Container[int],
        source: Optional[_Pass] = None,
        extra: Sequence[int] = (),
    ) -> None:
        self.problem = problem
        self.waived = waived
        self.source = source
        self.start = 0 if source is None else problem.divergence(extra)
        self.records: list = []
        self.steps: Optional[Iterator] = None

    def frontier(self, run: int) -> Optional[tuple[int, list]]:
        """The first record at or after `run`, whose states are those the
        pass holds before `run`; None when the pass died before it."""
        if self.source is not None and run <= self.start:
            return self.source.frontier(run)
        if self.steps is None:
            if self.source is None:
                self.steps = self.problem.frontiers(self.waived)
            else:
                resume = self.source.frontier(self.start)
                self.steps = (
                    iter(())
                    if resume is None
                    else self.problem.frontiers(self.waived, self.start, resume[1])
                )
        while not self.records or self.records[-1][0] < run:
            record = next(self.steps, None)
            if record is None:
                return None
            self.records.append(record)
        return self.records[bisect.bisect_left(self.records, run, key=operator.itemgetter(0))]

    def feasible(self) -> bool:
        """Whether an assignment satisfies every pair the pass leaves."""
        if self.problem.unserved(self.waived):
            return False
        end = self.frontier(len(self.problem.starts))
        return end is not None and any(not debts for debts, _ in end[1])


def check_article86(
    weeks: Sequence[int],
    mt: MinuteTrace,
    rests: Sequence[int],
    profile: InterpretationProfile,
    calendar: Calendar = Calendar(),
) -> list[Violation]:
    """Weekly-rest and compensation check over complete, consecutive weeks.

    When no assignment at all satisfies the scope, the infeasibility is
    pinned to specific weeks: the first k weeks of the scope plus the
    earliest later week whose waiver then restores feasibility, with k as
    small as possible. Each waived week is reported as a violation. The
    rests are prepared once per check (their starts and minutes, the long
    rests' candidate weeks, deadlines and judged pairs found). Each pass
    then costs the candidate runs plus the runs it visits while a
    compensation debt is open. A probe that waives one more week resumes,
    under the resume rule of `WeeklyRestProblem`, from the frontier a
    recorded pass held before the first run that could count for that week
    or a neighbour, and starts no pass when that pass died earlier (see
    `_blamed_weeks`). A scope infeasible only at its end costs about one
    pass: the 26-week 45/24/66 rotation takes 3, two of them two steps
    long. A scope that is not consecutive weeks raises ValueError.
    """
    scope = list(weeks)
    if len(scope) < 2:
        return []
    problem = WeeklyRestProblem(scope, mt, rests, profile, calendar)
    mondays = problem.mondays
    blamed = _blamed_weeks(scope, problem)
    del problem  # the prepared rests are freed before the violations are built
    first = scope[0]
    return [
        Violation(
            "8.6",
            mondays[week - first],
            mondays[week - first + 1],
            f"no weekly-rest assignment with compensation satisfies week {week}",
            profile.id,
        )
        for week in blamed
    ]


def _blamed_weeks(scope: list[int], problem: WeeklyRestProblem) -> list[int]:
    """The weeks `check_article86` blames; none when the scope is feasible.

    Waiving a week drops its pairs and its candidacy and adds no
    constraint, so F(S), "waiving S leaves a feasible scope", is monotone.
    Let j be the least j with F(scope[:j]); one week has no pair, so
    1 <= j <= n - 1. scope[:k] + [scope[i]] lies inside
    scope[:max(k, i + 1)], so for k < j only weeks from scope[j - 1] on
    can rescue, and k = j - 1 is rescued by scope[j - 1] itself. Rescue is
    monotone in k too. So j is found by a galloping search that starts at
    the last week the unwaived pass could count before it died, where the
    obstruction usually lies, and k is 0 when a week of the tail rescues
    alone, else found by a galloping search down from j - 1.

    Every pass waives a prefix scope[:k], or such a prefix and one week. It
    resumes, at the divergence of the weeks it adds, from the pass of the
    longest shorter prefix, or of its own prefix; a prefix's pass goes only
    as far as the passes resumed from it ask. So a probe costs the runs
    from its week on, and one whose source died before that week costs no
    pass. A scope whose one obstruction lies at week d costs the unwaived
    pass, O(log d) prefix passes, most of them short, and a few probes.
    """
    n = len(problem.starts)
    prefixes = {0: _Pass(problem, range(0))}  # k -> the pass waiving scope[:k]

    def prefix(k: int) -> _Pass:
        if k not in prefixes:
            below = max(p for p in prefixes if p < k)
            waived = range(scope[0], scope[0] + k)  # no set: a scope can span 10^5 weeks
            prefixes[k] = _Pass(problem, waived, prefixes[below], scope[below:k])
        return prefixes[k]

    if prefix(0).feasible():
        return []

    @functools.cache
    def rescues(k: int, w: int) -> bool:
        if w == scope[k]:
            return prefix(k + 1).feasible()
        return _Pass(problem, frozenset([*scope[:k], w]), prefix(k), (w,)).feasible()

    guess = len(scope) - 1
    records = prefix(0).records  # none when a pair no run can serve stopped it
    if records and records[-1][0] < n:  # it died at that run
        runs = problem.candidate_runs
        reached = problem.candidates[runs[bisect.bisect_right(runs, records[-1][0]) - 1]][-1]
        guess = min(guess, max(1, reached - scope[0] + 1))
    j = _least(1, len(scope) - 1, guess, lambda j: prefix(j).feasible())
    tail = scope[j - 1 :]

    def any_rescue(k: int) -> bool:
        return any(rescues(k, w) for w in tail)

    k = 0 if any_rescue(0) else _least(1, j - 1, j - 1, any_rescue)
    return scope[:k] + [next(w for w in tail if rescues(k, w))]


def _least(lo: int, hi: int, guess: int, holds) -> int:
    """The least x in [lo, hi] at which the monotone `holds` is true, given
    that it is true at hi. Gallops from `guess` (tries guess + 1, + 2, + 4,
    ... when false there, guess - 1, - 2, - 4, ... when true) and bisects
    the last gap, so an answer d away from the guess costs O(log d) calls."""
    if guess < hi and not holds(guess):
        lo, step = guess + 1, 1
        while guess + step < hi and not holds(guess + step):
            lo = guess + step + 1
            step *= 2
        hi = min(hi, guess + step)
    else:
        hi, step = min(hi, guess), 1
        while hi - step >= lo and holds(hi - step):
            hi -= step
            step *= 2
        lo = max(lo, hi - step + 1)
    return bisect.bisect_left(range(hi), True, lo=lo, key=holds)


def check_all(
    trace: SecondTrace,
    grid: TimeGrid,
    profile: InterpretationProfile,
    leap_table: Sequence[LeapSecond] = (),
) -> Report:
    """Label, segment and run every check; deterministic for fixed inputs.

    A trace that covers no complete minute on the grid is judged on no
    minutes: the report has no violations and says so in a notice. A leap
    table that names a Sunday twice raises TraceError.
    """
    calendar = Calendar(leap_table, profile.leap_week_policy)
    notices = []
    mt = label_minutes(trace, grid, profile.rule51)
    if not mt.counts:
        notices.append(
            "no minute labeled: trace covers no complete minute on grid offset "
            f"{grid.minute_offset_seconds}"
        )
    rests = classify_rests(mt)
    stretches = accumulate_driving(mt, rests, profile)
    spans = daily_driving_spans(mt, rests, profile)

    violations = []
    violations += check_article7(stretches, mt, profile.id)
    violations += check_article61(spans, profile, calendar)
    violations += check_article82(rests, mt, profile)

    # an open reading: 8.6 and its scope read Spirit weeks under every policy
    calendar = calendar.spirit()
    scope = calendar.complete_weeks(trace.start, trace.end)
    if len(scope) < 2:
        notices.append(
            "article 8.6 skipped: trace covers fewer than two complete weeks"
        )
    else:
        violations += check_article86(scope, mt, rests, profile, calendar)

    violations.sort(key=Violation.sort_key)
    statistics = {
        "total_driving_minutes": mt.driving_minutes(),
        "daily_driving_spans": len(spans),
        "rest_periods": sum(mt.counts[i] >= profile.daily_rest_threshold for i in rests),
    }
    return Report(
        trace_digest=trace.digest(),
        trace_start=trace.start,
        trace_seconds=trace.duration,
        grid_offset=grid.minute_offset_seconds,
        profile=profile,
        violations=tuple(violations),
        statistics=statistics,
        notices=tuple(notices),
    )
