"""Article 8.6 with 8.9: the weekly rests, solved exactly.

The model, stated here once. A rest run of at least 1440 minutes may be
counted as the weekly rest of at most one non-waived week it overlaps. It
keeps at most 2700 of its minutes, less the compensation it hosts: regular
at 2700, reduced below. Each reduction (2700 minus the minutes kept) is
paid by one contiguous block in a later run. A run's blocks tile it from
its start in deadline order, each completing before the end of the third
week after the reduced week. A counted host keeps 1440 minutes; with
`attached_compensation` an uncounted host keeps the daily-rest threshold.
Every pair of consecutive non-waived weeks needs two counted rests, one of
them regular. Greedy choices are unsound, because a compensation can force
the donor week's own rest to shrink, cascading arbitrarily far forward: a
pass keeps every undominated state instead. A scope must be consecutive
weeks in ascending order; any other scope raises ValueError.

One lemma settles most scopes without a pass. If every non-waived week
can count a run of at least 2700 minutes of its own, that assignment owes
no debt and gives every pair two regular rests, so the scope is feasible.
Whether such a matching exists is decided by a greedy match from the
earliest unmatched week: a run's candidate weeks form a range whose both
ends rise along the runs, so the earliest run that can still count a week
is never better spent on a later one.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from typing import Collection, Container, Iterator, Optional, Sequence

from .minutes import MinuteTrace
from .periods import REDUCED_WEEKLY_MIN_MINUTES, REGULAR_WEEKLY_MIN_MINUTES
from .profiles import InterpretationProfile
from .report import Violation
from .timeline import SECONDS_PER_MINUTE, Calendar

COMPENSATION_WINDOW_WEEKS = 3

# the frontier before the first run: no debt, no tally, no back-pointer
_START = ((((), ()), None),)


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
        self.mondays = mondays = calendar.mondays(first, last + COMPENSATION_WINDOW_WEEKS + 2)
        self.deadlines = dict(zip(scope, mondays[COMPENSATION_WINDOW_WEEKS + 1 :]))
        n = len(self.starts)
        self.candidates: list = [()] * n
        self.candidate_runs = []  # the runs with a candidate week, then n
        self.regular = []  # the candidate weeks of each run of at least 2700 minutes
        last_candidate = {}
        for i in [i for i, m in enumerate(self.minutes) if m >= REDUCED_WEEKLY_MIN_MINUTES]:
            start = self.starts[i]
            end = start + self.minutes[i] * SECONDS_PER_MINUTE
            # the weeks holding the run's first and last second, by bisection
            weeks = range(
                first + max(0, bisect.bisect_right(mondays, start) - 1),
                first + bisect.bisect_right(mondays, end - 1, 0, len(scope)),
            )
            if weeks:
                self.candidates[i] = weeks
                self.candidate_runs.append(i)
                if self.minutes[i] >= REGULAR_WEEKLY_MIN_MINUTES:
                    self.regular.append(weeks)
                last_candidate.update(zip(weeks, itertools.repeat(i)))
        self.candidate_runs.append(n)
        self.pairs = range(first, last)  # by first week
        self.unservable = []  # pairs no run can serve
        self.judged_at: dict[int, set[int]] = {}  # run index -> pairs
        for pair in range(first, last):
            judge = max(last_candidate.get(pair, -1), last_candidate.get(pair + 1, -1))
            if judge == -1:
                self.unservable.append(pair)
            else:
                self.judged_at.setdefault(judge, set()).add(pair)

    def unserved(self, waived: Container[int]) -> bool:
        """Whether a pair no run can serve is left when `waived` are waived."""
        return any(pair not in waived and pair + 1 not in waived for pair in self.unservable)

    def regular_each(self, waived: Collection[int]) -> bool:
        """Whether every non-waived scope week can count a regular run of its
        own, matched greedily from the earliest week (see the module
        docstring): if so, `waived` leaves a feasible scope."""
        scope = range(self.pairs.start, self.pairs.stop + 1)
        # each week left needs a run; len(waived) bounds the waived scope weeks
        if len(self.regular) < len(scope) - len(waived):
            return False
        runs = iter(self.regular)
        for week in itertools.filterfalse(waived.__contains__, scope):
            for weeks in runs:  # the first unmatched run that reaches the week
                if weeks[-1] >= week:
                    break
            else:
                return False
            if weeks[0] > week:  # no later run starts earlier
                return False
        return True

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
        frontier: Sequence[tuple] = _START,
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

        Yields (i, frontier) before each step, the undominated states the
        pass holds before run i, and (n, frontier) at the end, n being the
        number of runs; after a step that leaves no state it stops. A
        frontier holds (state, back-pointer) pairs. The back-pointer is
        (the state the previous step took it from, the week that step
        counted its run for or None, the debts the run hosted), and None
        for a state no step reached. The pass starts at run `start` from
        `frontier`: another pass's frontier there, under the resume rule.
        Pairs no run can serve are never judged; `unserved` tells them.
        """
        touches: dict = {}  # counted week -> the pairs its count adds to
        deadlines = self.deadlines
        uncounted_reserve = self.uncounted_reserve
        n = len(self.starts)
        smallest_debt = min((m for (debts, _), _ in frontier for _, m in debts), default=math.inf)
        i = start
        while i < n:
            minutes = self.minutes[i]
            weeks = self.candidates[i]
            if weeks and waived:
                weeks = [w for w in weeks if w not in waived]
            # a run that can neither be counted nor host a debt changes nothing
            if weeks or minutes - uncounted_reserve >= smallest_debt:
                yield i, frontier
                run_start = self.starts[i]
                judged = self.judged_at.get(i, ())
                if judged and waived:  # a pair is left when neither of its weeks is waived
                    judged = {p for p in judged if p not in waived and p + 1 not in waived}
                step: dict = {}
                for state, _ in frontier:
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
                    current = None  # the tallies as a dict, built once an option needs it
                    if judged:
                        current = dict(tallies)
                        # one run adds at most one count to a pair, so a
                        # judged pair with no count yet stays unmet
                        if not current.keys() >= judged:
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
                                if current is None:
                                    current = dict(tallies)
                                pair_tallies = current.copy()
                                for pair in touched:
                                    count, was_regular = pair_tallies.get(pair, (0, False))
                                    pair_tallies[pair] = (min(2, count + 1), was_regular or regular)
                                # an option that leaves a judged pair unmet is dropped
                                for pair in judged:
                                    if pair_tallies.pop(pair) != (2, True):
                                        break
                                else:
                                    tallies_after = tuple(sorted(pair_tallies.items()))
                                    step.setdefault((kept, tallies_after), (state, week, hosted))
                            else:
                                step.setdefault((kept, tallies), (state, week, hosted))
                # one state dominates no other
                frontier = list(step.items()) if len(step) == 1 else _undominated(step.items())
                if not frontier:
                    return
                smallest_debt = min(
                    (m for (debts, _), _ in frontier for _, m in debts), default=math.inf
                )
            if smallest_debt < math.inf:
                i += 1
            else:
                runs = self.candidate_runs
                i = runs[bisect.bisect_left(runs, i + 1)]
        yield n, frontier


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


def _undominated(pairs) -> list:
    """The (state, back-pointer) pairs whose state no other one dominates."""
    survivors: list = []
    for pair in pairs:
        state = pair[0]
        for other, _ in survivors:
            if _dominates(other, state):
                break
        else:
            survivors = [kept for kept in survivors if not _dominates(state, kept[0])]
            survivors.append(pair)
    return survivors


def _dominates(a: tuple, b: tuple) -> bool:
    """Whether state a completes whenever state b does."""
    if a[0]:
        remaining = iter(b[0])
        for debt in a[0]:
            if debt not in remaining:  # sorted: a sub-multiset
                return False
    if b[1]:
        tallies = dict(a[1])
        for pair, (count, regular) in b[1]:
            mine = tallies.get(pair)
            if mine is None or mine[0] < count or mine[1] < regular:
                return False
    return True


class _Pass:
    """A pass of `problem` with `waived` waived, taken only as far as asked.

    Without a `source` it starts at run 0. A `source` is a pass that waives
    all these weeks but the consecutive `extra`; this pass resumes at
    `problem.divergence(extra)` from the source's frontier there, and is
    the source before that run. `records` holds the (i, frontier) that
    `frontiers` has yielded so far.
    """

    def __init__(
        self,
        problem: WeeklyRestProblem,
        waived: Collection[int],
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
        """The first record at or after `run`, whose frontier is the one the
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
        """Whether an assignment satisfies every pair the pass leaves. When
        each week it leaves has a regular run of its own, no pass starts."""
        if self.problem.unserved(self.waived):
            return False
        return self.problem.regular_each(self.waived) or self.ends_debt_free()

    def ends_debt_free(self) -> bool:
        """Whether the pass, run to the end, holds a state with no debt."""
        end = self.frontier(len(self.problem.starts))
        return end is not None and any(not debts for (debts, _), _ in end[1])

    def witness(self) -> Optional[dict]:
        """The counted rests and compensation blocks of an assignment, read
        back along the back-pointers of the records from the first debt-free
        state at the end; None when the pass is infeasible. Only a pass
        without a `source` holds the records of every run."""
        if self.problem.unserved(self.waived) or not self.ends_debt_free():
            return None
        records = reversed(self.records)
        _, end = next(records)
        back = next(back for (debts, _), back in end if not debts)
        choices = []  # (run, counted week or None, hosted debts), last run first
        for i, frontier in records:
            state, week, hosted = back
            choices.append((i, week, hosted))
            back = next(back for other, back in frontier if other is state)
        problem = self.problem
        assignments, compensations, owed = [], [], []  # owed: (week, minutes, debtor start)
        for i, week, hosted in reversed(choices):
            start, minutes = problem.starts[i], problem.minutes[i]
            for debt in hosted:
                debtor = next(o for o in owed if o[:2] == debt)
                owed.remove(debtor)
                compensations.append(
                    {
                        "week": debt[0],
                        "minutes": debt[1],
                        "debtor_start": debtor[2],
                        "donor_start": start,
                        "deadline": problem.deadlines[debt[0]],
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


def solve_weekly_rests(
    scope_weeks: Sequence[int],
    mt: MinuteTrace,
    rests: Sequence[int],
    profile: InterpretationProfile,
    calendar: Calendar = Calendar(),
    waived: frozenset[int] = frozenset(),
) -> Optional[dict]:
    """The counted rests and compensation blocks of an assignment over
    `scope_weeks` with `waived` waived, read back from one pass from the
    first run; None when no assignment satisfies every pair of consecutive
    non-waived weeks. `rests` are `classify_rests(mt)`. This is the one
    entry point for a witness.
    """
    return _Pass(WeeklyRestProblem(scope_weeks, mt, rests, profile, calendar), waived).witness()


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
    rests are prepared once per check, and each probe resumes from a
    recorded pass (see `_blamed_weeks`), so a scope infeasible only at its
    end costs about one pass: the 26-week 45/24/66 rotation takes 3, two of
    them two steps long. A scope whose weeks each have a regular rest of
    their own takes none.
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
    from its week on; one whose source died before that week costs no pass,
    and neither does one that `regular_each` settles. A scope whose one
    obstruction lies at week d costs the unwaived pass, O(log d) prefix
    passes, most of them short, and a few probes.
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

