"""An executable specification of the checks, written from the rule text.

Each function states one rule as its article does, in the most literal form
that runs: one code per second for the labeling of Reg. (EU) 2016/799, one
label per minute for Reg. (EC) No 561/2006, and exhaustive search wherever
the text quantifies over choices. It reads no engine code: it imports only
data types from `tachocheck`, and restates every number from its text.
"""

from __future__ import annotations

import functools
import itertools
import re
from operator import and_

from tachocheck import (
    Activity,
    ExtendedAttribution,
    Rule51Semantics,
    TraceParseError,
    Violation,
    WeeklyGapSemantics,
    WeekPolicy,
    WeekUndefinedError,
)

MINUTE = 60  # seconds
WEEK = 7 * 24 * 60 * 60  # 561/2006 Art. 4(i): "00.00 on Monday to 24.00 on Sunday"
DRIVING_BEFORE_BREAK = 4 * 60 + 30  # Art. 7: "a driving period of four and a half hours"
BREAK = 45  # Art. 7: "a break of not less than 45 minutes"
SPLIT_FIRST, SPLIT_SECOND = 15, 30  # Art. 7: "at least 15 minutes followed by ... 30"
DAILY_DRIVING = 9 * 60  # Art. 6(1): "shall not exceed nine hours"
EXTENDED_DRIVING = 10 * 60  # Art. 6(1): "extended to at most 10 hours"
EXTENSIONS_PER_WEEK = 2  # Art. 6(1): "not more than twice during the week"
NEW_REST_WINDOW = 24 * 60 * 60  # Art. 8(2): "within each period of 24 hours"
REDUCED_WEEKLY = 24 * 60  # Art. 4(h): a reduced weekly rest, "at least 24 hours"
REGULAR_WEEKLY = 45 * 60  # Art. 4(h): a regular weekly rest, "at least 45 hours"
COMPENSATION_WEEKS = 3  # Art. 8(6): "before the end of the third week following"

D, R = Activity.DRIVING, Activity.REST
ACTIVITY = {ord(a.value[0]): a for a in Activity}  # a second's code: D, R or O
WEEKLY_RESTS = ("reduced weekly rest", "regular weekly rest")
REST_PERIODS = ("daily rest", *WEEKLY_RESTS)


def parse(data: bytes | str) -> tuple[int, tuple]:
    """README "File formats": the start and maximal runs of a trace text.
    One record `start_second,ACTIVITY,duration_seconds` per line; a line ends
    at LF, CR LF or a lone CR only. Whitespace around a line or a field, blank
    lines and '#' lines are ignored; a number is an `int`, a duration positive.
    Records are contiguous. A bad line is reported before a gap or overlap."""
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"trace is not ASCII text: {exc}") from exc
    records = []
    for lineno, raw in enumerate(re.split("\r\n|\r|\n", data), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 3:
            expected = "expected 'start,ACTIVITY,duration'"
            raise TraceParseError(f"line {lineno}: {expected}, got {line!r}")
        try:
            start, seconds = int(fields[0]), int(fields[2])
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-integer field in {line!r}") from None
        name = fields[1].strip()
        if name not in {a.value for a in Activity}:
            raise TraceParseError(f"line {lineno}: unknown activity {name!r}")
        if seconds <= 0:
            raise TraceParseError(f"line {lineno}: duration must be positive")
        records.append((start, Activity(name), seconds))
    if not records:
        raise TraceParseError("trace contains no records")
    for (start, _, seconds), (following, _, _) in zip(records, records[1:]):
        if following < start + seconds:
            at = f"at second {following} (expected {start + seconds})"
            raise TraceParseError(f"records overlap or are unsorted {at}")
        if following > start + seconds:
            gap = following - start - seconds
            raise TraceParseError(f"gap of {gap} s before record starting at second {following}")
    return records[0][0], merge((a, n) for _, a, n in records)


def merge(pairs) -> tuple:
    """Adjacent (activity, length) runs of one activity are one run."""
    groups = itertools.groupby(pairs, lambda pair: pair[0])
    return tuple((a, sum(n for _, n in group)) for a, group in groups)


def codes(trace) -> bytes:
    """The trace's activity code (`ACTIVITY`'s key) for each of its seconds."""
    return b"".join(a.value[:1].encode() * n for a, n in zip(trace.activities, trace.seconds))


def minute_labels(trace, offset: int, rule51: Rule51Semantics) -> tuple[int, tuple]:
    """Reg. (EU) 2016/799 Annex IC items (51), (52): the first grid minute, and
    a label for each grid minute (m * 60 + offset on) the trace covers."""
    seconds = codes(trace)
    first = -((offset - trace.start) // MINUTE)
    starts = range(first * MINUTE + offset - trace.start, len(seconds) - MINUTE + 1, MINUTE)
    windows = [seconds[s : s + MINUTE] for s in starts]
    labels = [item52(w) for w in windows]
    if rule51 is Rule51Semantics.NEIGHBOR_RAW:
        return first, item51(labels, [w == b"D" * MINUTE for w in windows])
    if rule51 is Rule51Semantics.NEIGHBOR_RULE52:
        return first, item51(labels, [a is D for a in labels])
    while True:  # Fixpoint: the NeighborRule52 pass, re-applied until stable
        upgraded = item51(labels, [a is D for a in labels])
        if upgraded == tuple(labels):
            return first, upgraded
        labels = upgraded


@functools.lru_cache(maxsize=4096)
def item52(window: bytes) -> Activity:
    """Item (52): the longest continuous activity within the minute; of
    equally long ones, the latest."""
    if window.count(window[0]) == MINUTE:
        return ACTIVITY[window[0]]
    pieces = [(len(list(g)), k, code) for k, (code, g) in enumerate(itertools.groupby(window))]
    return ACTIVITY[max(pieces)[2]]


def item51(labels, driving) -> tuple:
    """Item (51): a minute whose preceding and succeeding minutes are both
    driving is driving; `driving` tells which minutes count as driving."""
    upgraded = list(labels)
    for m in itertools.compress(range(1, len(labels) - 1), map(and_, driving, driving[2:])):
        upgraded[m] = D
    return tuple(upgraded)


def runs(labels) -> list[tuple[Activity, int, int]]:
    """The maximal (activity, first minute, minutes) runs of a labeling."""
    lengths = [(a, len(list(group))) for a, group in itertools.groupby(labels)]
    starts = itertools.accumulate((n for _, n in lengths), initial=0)
    return [(a, m, n) for (a, n), m in zip(lengths, starts)]


def rest_runs(labels) -> list[tuple[int, int]]:
    """The (first minute, minutes) of the rest runs of 15 minutes or more,
    the shortest rest that any article counts."""
    return [(m, n) for a, m, n in runs(labels) if a is R and n >= SPLIT_FIRST]


def kind(minutes: int, threshold: int) -> str | None:
    """561/2006 Art. 4(d), (g), (h): what a rest of this many minutes is; a
    daily rest lasts `daily_rest_threshold` (the text names 9 and 11 hours)."""
    if minutes >= REGULAR_WEEKLY:
        return "regular weekly rest"
    if minutes >= REDUCED_WEEKLY:
        return "reduced weekly rest"
    if minutes >= threshold:
        return "daily rest"
    return "break" if minutes >= SPLIT_FIRST else None


def rest_periods(labels, threshold: int) -> list[tuple[int, int, str]]:
    """The (first minute, end minute, kind) of the daily and weekly rests."""
    kinds = [(m, m + n, kind(n, threshold)) for a, m, n in runs(labels) if a is R]
    return [period for period in kinds if period[2] in REST_PERIODS]


def accumulated(labels, threshold: int) -> list[int]:
    """Art. 7: the driving minutes since the last qualifying break, after each
    minute. A break qualifies when complete, at its last minute: one of 45
    minutes, a rest period, or one of 30 after one of 15 (a split break)."""
    out, total, first_part = [], 0, False
    for activity, _, n in runs(labels):
        if activity is D:
            out += range(total + 1, total + n + 1)
            total += n
            continue
        out += [total] * (n - 1)
        if activity is R:
            period = kind(n, threshold) in REST_PERIODS
            if n >= BREAK or period or (first_part and n >= SPLIT_SECOND):
                total, first_part = 0, False
            elif n >= SPLIT_FIRST:
                first_part = True
        out.append(total)
    return out


def article7(labels, origin: int, threshold: int, profile_id: str) -> list[Violation]:
    """Art. 7: over 270 minutes of driving before a qualifying break. One
    violation per accumulation that reaches 271, from that minute to the end
    of its last driving minute, before the next qualifying break or the end."""
    totals, violations, reset = accumulated(labels, threshold) + [0], [], 0
    while DRIVING_BEFORE_BREAK + 1 in totals[reset:]:
        over = totals.index(DRIVING_BEFORE_BREAK + 1, reset)
        reset = totals.index(0, over)
        peak = max(totals[over:reset])
        end = totals.index(peak, over) + 1
        detail = (
            f"accumulated driving reached {peak} minutes without a qualifying break "
            f"(limit {DRIVING_BEFORE_BREAK})"
        )
        start, end = origin + over * MINUTE, origin + end * MINUTE
        violations.append(Violation("7", start, end, detail, profile_id))
    return violations


def daily_driving(labels, origin: int, profile) -> list[tuple[int, int, int]]:
    """Art. 4(k): the driving between a rest period's end and the next one's
    start, as (start, end, driving minutes); the trace edges are daily rests
    under `trace_edge_is_rest`, and Strict `weekly_gap` drops a span between
    two weekly rests."""
    bounds = rest_periods(labels, profile.daily_rest_threshold)
    if profile.trace_edge_is_rest:
        bounds = [(0, 0, "daily rest"), *bounds, (len(labels), len(labels), "daily rest")]
    strict = profile.weekly_gap is WeeklyGapSemantics.STRICT
    spans = []
    for (_, end, left), (start, _, right) in zip(bounds, bounds[1:]):
        driving = labels[end:start].count(D)
        if driving and not (strict and left in WEEKLY_RESTS and right in WEEKLY_RESTS):
            spans.append((origin + end * MINUTE, origin + start * MINUTE, driving))
    return spans


def monday(week: int, leap_table=()) -> int:
    """Art. 4(i): the instant week `week` begins. A leap second listed for a
    Sunday adds or removes the last second of that Sunday."""
    return week * WEEK + sum(ls.delta for ls in leap_table if ls.sunday_index < week)


def week_of(t: int, leap_table=(), policy: WeekPolicy = WeekPolicy.SPIRIT) -> int:
    """Art. 4(i): the week holding instant t. Under the Letter policy a week
    whose Sunday lost its last second has no "24.00 on Sunday" to end at."""
    week = t // WEEK
    while t < monday(week, leap_table):
        week -= 1
    while t >= monday(week + 1, leap_table):
        week += 1
    if policy is WeekPolicy.LETTER and any(
        ls.sunday_index == week and ls.delta == -1 for ls in leap_table
    ):
        raise WeekUndefinedError(
            f"week {week}: its Sunday ends at 23:59:59 and the 24:00 "
            "instant the week definition refers to does not exist"
        )
    return week


def complete_weeks(start: int, end: int, leap_table=()) -> list[int]:
    """The weeks whose whole Monday-to-Sunday interval lies in [start, end)."""
    weeks = range(start // WEEK - 2, end // WEEK + 2)
    return [w for w in weeks if start <= monday(w, leap_table) and monday(w + 1, leap_table) <= end]


def article61(spans, profile, leap_table=()) -> list[Violation]:
    """Art. 6(1): daily driving of at most 540 minutes, or of 600 at most twice
    a week. A day crossing Sunday 24:00 counts against the week
    `extended_attribution` names; under MinimizeViolations, against the first
    choice, start weeks and earlier days first, with the fewest third ones."""
    violations, extensions = [], []
    for span in spans:
        start, end, driving = span
        if driving > EXTENDED_DRIVING:
            detail = (
                f"daily driving of {driving} minutes exceeds even "
                f"the {EXTENDED_DRIVING}-minute extension cap"
            )
            violations.append(Violation("6.1", start, end, detail, profile.id))
        elif driving > DAILY_DRIVING:
            policy = profile.leap_week_policy
            weeks = [week_of(t, leap_table, policy) for t in (start, end - 1)]
            if profile.extended_attribution is ExtendedAttribution.START_WEEK:
                weeks = weeks[:1]
            elif profile.extended_attribution is ExtendedAttribution.END_WEEK:
                weeks = weeks[1:]
            extensions.append((span, sorted(set(weeks))))

    def thirds(choice) -> list:  # the third and later extensions of a week
        out, count = [], dict.fromkeys(choice, 0)
        for (span, _), week in zip(extensions, choice):
            count[week] += 1
            if count[week] > EXTENSIONS_PER_WEEK:
                out.append((span, week))
        return out

    choices = itertools.product(*(weeks for _, weeks in extensions))
    fewest = min(choices, key=lambda choice: len(thirds(choice)))
    for (start, end, driving), week in thirds(fewest):
        detail = (
            f"daily driving of {driving} minutes is a third "
            f"or later 10-hour extension in week {week}"
        )
        violations.append(Violation("6.1", start, end, detail, profile.id))
    return violations


def article82(labels, origin: int, profile) -> list[Violation]:
    """Art. 8(2): within 24 hours of the end of a rest period a new daily rest
    is complete: one that starts by then and whose first threshold-many
    minutes fit in the window. A window past the trace's end is not judged."""
    threshold = profile.daily_rest_threshold
    minutes = rest_periods(labels, threshold)
    periods = [(origin + m * MINUTE, origin + e * MINUTE) for m, e, _ in minutes]
    violations = []
    for _, end in periods:
        deadline = end + NEW_REST_WINDOW
        if deadline > origin + len(labels) * MINUTE:
            continue
        if not any(start >= end and start + threshold * MINUTE <= deadline for start, _ in periods):
            detail = (
                "no new daily rest completed within 24 hours of the end of "
                f"the rest finishing at second {end}"
            )
            violations.append(Violation("8.2", end, deadline, detail, profile.id))
    return violations


def weekly_rests_feasible(rests, scope, waived, profile, leap_table=()) -> bool:
    """Art. 8(6), 8(9): whether weekly rests and compensation blocks can meet
    every two consecutive weeks of `scope` not waived; `rests` are the
    (start, minutes) of the rests of 15 minutes or more, in time order.
    A rest of 24 hours may count for one week it overlaps (8(9)), keeping its
    minutes but the blocks it hosts: regular from 45 hours, else reduced. A
    reduction is paid en bloc (8(6)) by one block of a later rest, complete
    by the end of the third week after; a rest's blocks sit at its start in
    deadline order. Under `attached_compensation` (8(7)) an uncounted host
    keeps a daily rest. Every two weeks need two counted rests, one regular.
    All choices are tried, but no situation already seen to fail."""
    weeks = [w for w in scope if w not in waived]
    pairs = [w for w in weeks if w + 1 in weeks]
    reserve = profile.daily_rest_threshold if profile.attached_compensation else 0
    begins = {w: monday(w, leap_table) for w in range(scope[0], scope[-1] + 3)}
    deadline = {w: monday(w + COMPENSATION_WEEKS + 1, leap_table) for w in scope}
    failed = set()

    def met(pair, counted):
        roles = [regular for week, regular in counted if week in (pair, pair + 1)]
        return len(roles) >= 2 and any(roles)

    def search(i, debts, counted) -> bool:
        if i == len(rests):
            return not debts and all(met(pair, counted) for pair in pairs)
        start, minutes = rests[i]
        if any(start + m * MINUTE > deadline[w] for w, m in debts):
            return False  # a debt no later rest can pay
        if any(not met(p, counted) for p in pairs if start >= begins[p + 2]):
            return False  # two weeks no later rest can count for
        # a week no later rest can count for no longer matters
        key = (i, debts, tuple(c for c in counted if start < begins[c[0] + 2]))
        if key in failed:
            return False
        overlapped = [w for w in weeks if begins[w] - minutes * MINUTE < start < begins[w + 1]]
        for size in range(len(debts) + 1):
            for hosted in itertools.combinations(debts, size):
                ends = itertools.accumulate(m for _, m in hosted)
                if any(start + e * MINUTE > deadline[w] for (w, _), e in zip(hosted, ends)):
                    continue
                kept = minutes - sum(m for _, m in hosted)
                left = list(debts)
                for debt in hosted:
                    left.remove(debt)
                if (not hosted or kept >= reserve) and search(i + 1, tuple(left), counted):
                    return True
                for week in overlapped if kept >= REDUCED_WEEKLY else ():
                    regular = kept >= REGULAR_WEEKLY
                    owed = left if regular else [*left, (week, REGULAR_WEEKLY - kept)]
                    now = tuple(sorted([*counted, (week, regular)]))
                    if search(i + 1, tuple(sorted(owed)), now):
                        return True
        failed.add(key)
        return False

    return search(0, (), ())


def article86(rests, scope, profile, leap_table=()) -> list[Violation]:
    """Art. 8(6) over consecutive complete weeks. When no choice satisfies
    the scope, the blame is the least k, then the earliest later week w,
    such that waiving the first k weeks and w leaves a feasible scope."""
    if len(scope) < 2 or weekly_rests_feasible(rests, scope, (), profile, leap_table):
        return []
    blamed = next(
        [*scope[:k], w]
        for k in range(len(scope))
        for w in scope[k:]
        if weekly_rests_feasible(rests, scope, {*scope[:k], w}, profile, leap_table)
    )
    return [
        Violation(
            "8.6", monday(w, leap_table), monday(w + 1, leap_table),
            f"no weekly-rest assignment with compensation satisfies week {w}", profile.id,
        )
        for w in blamed
    ]


def verify_witness(
    witness, scope, mt, rests, daily_threshold=540, attached=False, leap_table=(), waived=()
) -> None:
    """Art. 8(6), 8(9): assert that a weekly-rest witness meets the text, by
    direct arithmetic on the minute trace `mt` and its rest run indices
    `rests`, independently of the solver's own bookkeeping."""
    run_length = {mt.start + 60 * mt.bounds[i]: mt.counts[i] for i in rests}
    assignments = witness["assignments"]
    blocks = witness["compensations"]

    # each rest run is counted in at most one week it overlaps, within its
    # own length
    starts = [entry["run_start"] for entry in assignments]
    assert len(starts) == len(set(starts))
    for entry in assignments:
        assert entry["run_minutes"] == run_length[entry["run_start"]]
        assert 1440 <= entry["counted_minutes"] <= min(2700, entry["run_minutes"])
        assert entry["role"] == (
            "regular" if entry["counted_minutes"] == 2700 else "reduced"
        )
        week = entry["week"]
        assert week in scope and week not in waived
        run_end = entry["run_start"] + entry["run_minutes"] * 60
        assert entry["run_start"] < monday(week + 1, leap_table)
        assert run_end > monday(week, leap_table)

    # every consecutive pair of non-waived weeks sees two regular rests or
    # one of each
    for w1, w2 in zip(scope, scope[1:]):
        if w1 in waived or w2 in waived:
            continue
        roles = [e["role"] for e in assignments if e["week"] in (w1, w2)]
        regular = roles.count("regular")
        reduced = roles.count("reduced")
        assert regular >= 2 or (regular >= 1 and reduced >= 1), (w1, w2, roles)

    # each reduction is covered by exactly one block of exactly its size,
    # in a later run and inside its deadline; reductions are keyed by their
    # run, since one week may count two reduced rests
    debts = {
        entry["run_start"]: (entry["week"], 2700 - entry["counted_minutes"])
        for entry in assignments
        if entry["role"] == "reduced"
    }
    assert sorted(block["debtor_start"] for block in blocks) == sorted(debts)
    for block in blocks:
        week, minutes = debts[block["debtor_start"]]
        assert (block["week"], block["minutes"]) == (week, minutes)
        assert block["deadline"] == monday(week + 4, leap_table)
        assert block["donor_start"] > block["debtor_start"]

    # donors: counted part plus blocks fit, and blocks meet their deadlines
    # even when tiled from the run start in deadline order
    counted_by_run = {e["run_start"]: e["counted_minutes"] for e in assignments}
    donors = {}
    for block in blocks:
        donors.setdefault(block["donor_start"], []).append(block)
    for donor_start, donor_blocks in donors.items():
        total = sum(b["minutes"] for b in donor_blocks)
        leftover = run_length[donor_start] - total - counted_by_run.get(donor_start, 0)
        assert leftover >= 0
        t = donor_start
        for block in sorted(donor_blocks, key=lambda b: b["deadline"]):
            t += block["minutes"] * 60
            assert t <= block["deadline"]
        if attached and donor_start not in counted_by_run:
            assert run_length[donor_start] - total >= daily_threshold


def judge(first: int, labels, start: int, end: int, profile, leap_table=()):
    """The sorted violations, the statistics and the notices of the labels,
    from grid minute `first` on, of the trace [start, end). Article 8.6 judges
    its complete weeks, if two, as Spirit weeks under every policy."""
    origin, threshold = first * MINUTE + profile.grid_offset, profile.daily_rest_threshold
    notices = []
    if not labels:
        covers = f"trace covers no complete minute on grid offset {profile.grid_offset}"
        notices.append(f"no minute labeled: {covers}")
    spans = daily_driving(labels, origin, profile)
    violations = article7(labels, origin, threshold, profile.id)
    violations += article61(spans, profile, leap_table)
    violations += article82(labels, origin, profile)
    scope = complete_weeks(start, end, leap_table)
    if len(scope) < 2:
        notices.append("article 8.6 skipped: trace covers fewer than two complete weeks")
    else:
        rests = [(origin + m * MINUTE, n) for m, n in rest_runs(labels)]
        violations += article86(rests, scope, profile, leap_table)
    statistics = {
        "total_driving_minutes": labels.count(D),
        "daily_driving_spans": len(spans),
        "rest_periods": len(rest_periods(labels, threshold)),
    }
    violations.sort(key=lambda v: (v.article, v.window_start, v.window_end, v.detail))
    return violations, statistics, notices


def report(trace, profile, leap_table=()):
    """`judge` of a trace's labels under a profile's grid and item (51) reading."""
    first, labels = minute_labels(trace, profile.grid_offset, profile.rule51)
    end = trace.start + sum(trace.seconds)
    return judge(first, labels, trace.start, end, profile, leap_table)
