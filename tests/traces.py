"""The traces the tests share: builders, random generators and edits.

Each random generator draws from the `random.Random` its caller passes, so
a seed fixes what it draws. Whole weeks come from `tachocheck.patterns`,
whose demos are built from the same weeks. The module holds no test; it is
imported, as `spec` is, by the test modules.
"""

from __future__ import annotations

import itertools
import random

import spec
from tachocheck.minutes import MinuteTrace, Rule51Semantics
from tachocheck.patterns import fill_week, week_runs, workday_runs
from tachocheck.profiles import ExtendedAttribution, builtin_profiles
from tachocheck.timeline import (
    SECONDS_PER_WEEK,
    Activity,
    LeapSecond,
    SecondTrace,
    TimeGrid,
    parse_trace,
    validate_leap_table,
)

HOUR = 3600
D = Activity.DRIVING
R = Activity.REST
O = Activity.OTHER_WORK
GRID = TimeGrid(0)
BUILTINS = builtin_profiles()
SPIRIT = BUILTINS["spirit"]
LETTER = BUILTINS["letter"]
# every builtin profile, and the readings no builtin takes
PROFILES = [
    *BUILTINS.values(),
    SPIRIT.replace(id="minimize", extended_attribution=ExtendedAttribution.MINIMIZE_VIOLATIONS),
    SPIRIT.replace(id="neighbor-raw", rule51=Rule51Semantics.NEIGHBOR_RAW),
]
# the Sunday before week 0 ends a second late, and week 0's a second early
MIXED_LEAP_TABLE = (LeapSecond(-1, 1), LeapSecond(0, -1))


# --- builders ---


def trace_of(*runs: tuple[Activity, int], start: int = 0) -> SecondTrace:
    return SecondTrace.from_runs(start, runs)


def minutes_of(*runs: tuple[Activity, int], start: int = 0) -> SecondTrace:
    """Like trace_of but with durations given in minutes."""
    return SecondTrace.from_runs(start, [(a, m * 60) for a, m in runs])


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


def ext_day(last_drive_minutes: int) -> list[tuple[Activity, int]]:
    """Driving block with compliant breaks totalling 540 + last_drive_minutes."""
    return [
        (D, 270 * 60),
        (R, 45 * 60),
        (D, 270 * 60),
        (R, 45 * 60),
        (D, last_drive_minutes * 60),
    ]


def crossing_week_trace() -> SecondTrace:
    """Two extensions inside week 0 plus one extension crossing into week 1."""
    runs = [(R, 9 * HOUR)]
    runs += ext_day(60) + [(R, 9 * HOUR)]
    runs += ext_day(60) + [(R, 9 * HOUR)]
    used = sum(s for _, s in runs)
    # keep the daily-rest rhythm, then start the last 10 h day at 162 h so
    # it straddles the Sunday 24:00 boundary at 168 h
    while used + 23 * HOUR + 9 * HOUR <= 162 * HOUR:
        for run in workday_runs():
            runs.append(run)
            used += run[1]
    runs.append((O, 153 * HOUR - used))
    runs.append((R, 9 * HOUR))
    runs += ext_day(60) + [(R, 9 * HOUR)]
    return SecondTrace.from_runs(0, runs)


def compensated_reduction_trace() -> SecondTrace:
    """Week 1's 24 h rest compensated by a lone 21 h block in week 2, which
    also holds its own regular rest and completes well before the end of
    week 4."""
    week2 = fill_week([(R, 45 * HOUR), (O, HOUR), (R, 21 * HOUR)])
    return SecondTrace.from_runs(0, week_runs(45) + week_runs(24) + week2 + week_runs(45))


# seven daily rests and no weekly rest
RESTLESS_WEEK = [(O, 14 * HOUR), (R, 9 * HOUR)] * 7 + [(O, SECONDS_PER_WEEK - 7 * 23 * HOUR)]


def record_text(start: int, runs) -> str:
    """One record line per (activity, seconds) pair, neighbours left unmerged."""
    starts = itertools.accumulate((n for _, n in runs), initial=start)
    return "".join(f"{t},{a.value},{n}\n" for (a, n), t in zip(runs, starts))


def traces_of_runs(start: int, runs: list) -> dict[str, SecondTrace]:
    """The trace of `runs` by the constructor, `from_runs` and both parsers."""
    text = record_text(start, runs)  # a record per run, merged or not
    return {
        "bulk parse": parse_trace(text),
        "line parse": parse_trace(text.replace("\n", "\r\n")),
        "from_runs": SecondTrace.from_runs(start, runs),
        "columns": SecondTrace(start, *zip(*runs)),
    }


# --- random traces ---


def random_runs(rng: random.Random, count: tuple[int, int], length: tuple[int, int], unit=1):
    """Runs of any activity: their number and each length, in seconds or in
    `unit`s of seconds, drawn uniformly from the inclusive ranges."""
    n = rng.randint(*count)
    return [(rng.choice([D, R, O]), unit * rng.randint(*length)) for _ in range(n)]


def random_trace(rng: random.Random) -> SecondTrace:
    """Runs from single seconds to hours, so that minutes straddle one, two
    or many boundaries and accumulations pass the Article 7 limit."""
    runs = []
    for _ in range(rng.randint(3, 20)):
        kind = rng.random()
        if kind < 0.5:
            seconds = rng.randint(1, 70)
        elif kind < 0.8:
            seconds = rng.randint(60, 1800)
        else:
            seconds = rng.randint(1800, 4 * 3600)
        runs.append((rng.choices([D, R, O], weights=[5, 4, 1])[0], seconds))
    runs.append((D, rng.randint(60, 300)))
    return SecondTrace.from_runs(rng.randint(0, 300), runs)


def stop_and_go_trace(rng: random.Random) -> SecondTrace:
    """Hundreds of 3-90 s runs, like a day of urban deliveries, so that most
    minutes straddle boundaries and many label runs merge as they are
    appended; an occasional long stop or drive and a stretch of the 31 s
    rest / 29 s driving alternation mix whole minutes and ties in."""
    runs = []
    for _ in range(rng.randint(200, 600)):
        kind = rng.random()
        if kind < 0.03:
            runs.append((rng.choice([R, O]), rng.randint(15 * 60, 50 * 60)))
        elif kind < 0.06:
            runs.append((D, rng.randint(5 * 60, 30 * 60)))
        elif kind < 0.08:
            runs.extend([(R, 31), (D, 29)] * rng.randint(2, 20))
        else:
            runs.append((rng.choices([D, R, O], weights=[6, 5, 1])[0], rng.randint(3, 90)))
    return SecondTrace.from_runs(rng.randint(0, 300), runs)


def long_run_trace(rng: random.Random) -> SecondTrace:
    """Interior runs of at least a minute, so that no grid minute holds two
    run boundaries: runs of exactly 60 s, 61-119 s runs that label one
    minute at most offsets, and longer ones, driving-heavy so that rule 51
    upgrades; often a first or last run shorter than a minute; starts on
    both sides of 0. Every boundary lands 30 s into a minute at one offset,
    so every trace ties; one in seven has no interior run and covers no
    complete minute at many offsets."""
    runs = []
    if rng.random() < 0.7:
        runs.append((rng.choice([D, R, O]), rng.randint(1, 59)))
    for _ in range(0 if rng.random() < 0.15 else rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.2:
            seconds = 60
        elif kind < 0.7:
            seconds = rng.randint(61, 119)
        else:
            seconds = rng.randint(120, 1800)
        runs.append((rng.choices([D, R, O], weights=[6, 3, 1])[0], seconds))
    if rng.random() < 0.7 or not runs:
        runs.append((rng.choice([D, R, O]), rng.randint(1, 59)))
    return SecondTrace.from_runs(rng.randint(-400, 400), runs)


def random_weeks_trace(rng: random.Random) -> SecondTrace:
    """Up to five weeks of runs from seconds to two days, so that reports
    range from none to many violations of every article."""
    runs = []
    for _ in range(rng.randint(1, 120)):
        kind = rng.random()
        if kind < 0.4:
            seconds = rng.randint(1, 600)
        elif kind < 0.9:
            seconds = rng.randint(600, 12 * HOUR)
        else:
            seconds = rng.randint(12 * HOUR, 48 * HOUR)
        runs.append((rng.choices([D, R, O], weights=[5, 4, 1])[0], seconds))
    return SecondTrace.from_runs(rng.randint(-HOUR, HOUR), runs)


def random_run_list(rng: random.Random) -> list:
    """Runs from one second to a day whose neighbours often share an
    activity, and in two lists of five already maximal."""
    kinds = rng.sample([D, R, O], rng.randint(1, 3))
    runs = [
        (rng.choice(kinds), rng.choice([1, 59, 60, 61, rng.randint(1, 10**5)]))
        for _ in range(rng.randint(1, 40))
    ]
    return list(spec.merge(runs)) if rng.random() < 0.4 else runs


def random_minute_trace(rng: random.Random, grid: TimeGrid | None = None) -> MinuteTrace:
    """Label runs on either side of every length that decides a rest's kind
    or an accumulator reset: rests of 1-14, 15-29, 30-44 and 45-539
    minutes, daily, reduced and regular weekly rests, and driving runs that
    pass the Article 7 limit alone or together. A trace spans minutes to a
    few weeks, on any grid, from minutes before and after 0."""
    short = [(1, 14)] * 3 + [(15, 15), (15, 29), (15, 29), (30, 30), (30, 44), (30, 44)]
    rests = short + [(45, 45), (45, 539), (540, 1439), (540, 1439), (1440, 2699), (2700, 3600)]
    # one trace in fifteen spans weeks, so that Article 8.6 is judged too
    weeks = rng.random() < 0.07
    runs = []
    for _ in range(rng.randint(100, 160) if weeks else rng.randint(1, 40)):
        roll = rng.random()
        if roll < 0.4:
            lo, hi = rng.choice(((1, 5), (1, 120), (100, 300)))
            runs.append((D, rng.randint(lo, hi)))
        elif roll < 0.85:
            lo, hi = rng.choice(rests[len(short) :] if weeks and roll < 0.5 else rests)
            # one rest in five lasts exactly a bound of its range
            runs.append((R, rng.choice((lo, hi)) if rng.random() < 0.2 else rng.randint(lo, hi)))
        else:
            runs.append((O, rng.randint(1, 180)))
    grid = grid or TimeGrid(rng.randrange(60))
    return MinuteTrace(grid.minute_start(rng.randint(-3000, 3000)), *zip(*runs))


def article61_instance(rng: random.Random):
    """Disjoint, time-ordered daily spans, `(start, end, driving_minutes)`
    as `daily_driving_spans` returns them, over 1-12 weeks and a random leap
    table. Each week holds 0-3 days inside it, and most weeks end in a day
    that crosses Sunday 24:00, at most 10 of them extensions; some crossing
    days start or end a second or two from the (leap-shifted) boundary, and
    some cross two boundaries. Most days are extensions, so weeks fill up."""
    first = rng.randint(-2, 2)
    weeks = range(first, first + rng.randint(1, 12))
    # distinct Sundays, as a Calendar requires: a Sunday drawn again keeps
    # its first delta
    deltas = {}
    for _ in range(rng.choice((0, 0, 1, 2))):
        deltas.setdefault(rng.randint(first - 1, weeks[-1]), rng.choice((-1, 1)))
    leap_table = tuple(LeapSecond(sunday, delta) for sunday, delta in deltas.items())
    driving_minutes = [480, 540, 541, 570, 600, 600, 601]
    spans, crossing = [], 0
    at = spec.monday(first, leap_table)
    for week in weeks:
        boundary = spec.monday(week + 1, leap_table)
        for _ in range(rng.randint(0, 3)):
            start = at + rng.randint(1, 30000)
            end = start + rng.randint(3600, 50000)
            if end > boundary - 40000:
                break
            spans.append((start, end, rng.choice(driving_minutes)))
            at = end
        if at >= boundary - 2 or crossing == 10 or rng.random() < 0.15:
            continue
        start = max(at, boundary - rng.choice((1, 2, rng.randint(1, 40000))))
        end = boundary + rng.choice((0, 1, 2, rng.randint(1, 40000), SECONDS_PER_WEEK + 1))
        driving = rng.choice(driving_minutes[2:])
        spans.append((start, end, driving))
        crossing += 540 < driving <= 600
        at = end
    return spans, leap_table


def weekly_rest_instance(rng: random.Random, max_weeks: int = 6):
    """2 to `max_weeks` weeks of a minute trace: breaks, daily rests and
    24-75 h rests, with 1-15 h of other work between them, and random
    waived weeks, leap seconds and compensation knobs."""
    first = rng.randint(0, 3)
    scope = list(range(first, first + rng.randint(2, max_weeks)))
    # distinct Sundays, as check_all requires: a Sunday drawn again keeps its
    # first delta
    deltas = {}
    for _ in range(rng.randint(0, 2)):
        deltas.setdefault(rng.randint(first - 1, scope[-1] + 1), rng.choice((-1, 1)))
    leap_table = validate_leap_table(
        [LeapSecond(sunday, deltas[sunday]) for sunday in sorted(deltas)]
    )
    long_share = rng.uniform(0.03, 0.4)
    runs = []
    start = spec.monday(first) // 60 + rng.randint(-2000, 600)
    t = start * 60
    while t < spec.monday(scope[-1] + 1, leap_table) + 3 * 86400:
        gap = rng.randint(60, 900)
        roll = rng.random()
        if roll < long_share:
            minutes = rng.randint(1440, 4500)
        elif roll < 0.6:
            minutes = rng.randint(540, 1439)
        else:
            minutes = rng.randint(15, 60)
        runs += [(O, gap), (R, minutes)]
        t += (gap + minutes) * 60
    mt = MinuteTrace(start * 60, *zip(*runs))
    waived = frozenset(w for w in scope if rng.random() < 0.15)
    profile = SPIRIT.replace(
        id="random",
        attached_compensation=rng.random() < 0.4,
        daily_rest_threshold=rng.choice((15, 540, 660, 1440, rng.randint(15, 1440))),
    )
    return scope, mt, profile, leap_table, waived


def weekly_layout_instance(rng: random.Random, max_weeks: int = 40):
    """2 to `max_weeks` weeks whose rests sit near each week's start, in one
    of four layouts: an early obstruction (reduced weeks, maybe a long one)
    with a long regular tail, one rest spanning weeks, a 45/24/66-like
    rotation, or weeks drawn from a menu of rest lengths. Day cycles fill
    each week; knobs and leap seconds are random."""
    first = rng.randint(0, 3)
    n = rng.randint(2, max_weeks)
    layout = rng.choice(("tail", "long", "rotation", "menu"))
    if layout == "tail":
        reduced = rng.randint(1, min(8, n))
        hours = [rng.randint(24, 40) for _ in range(reduced)]
        if rng.random() < 0.6:
            hours.append(rng.randint(55, 80))
        hours += [rng.randint(45, 50)] * (n - len(hours))
    elif layout == "long":
        hours = [rng.choice((24, 45, 45, 66)) for _ in range(n)]
        at = rng.randrange(n)
        hours[at] = rng.randint(1, min(4, n - at)) * 168 - rng.randint(20, 60)
    elif layout == "rotation":
        cycle = [rng.choice((24, 30, 45, 50, 66, 70)) for _ in range(rng.randint(2, 4))]
        hours = [cycle[w % len(cycle)] for w in range(n)]
    else:
        hours = [rng.choice((0, 24, 30, 36, 45, 45, 45, 66, 80)) for _ in range(n)]
    leap_table = tuple(
        LeapSecond(i, rng.choice((-1, 1)))
        for i in sorted(rng.sample(range(first - 1, first + n + 1), rng.randint(0, 2)))
    )
    week = 7 * 24 * 60
    start = spec.monday(first, leap_table) // 60 - rng.randint(0, 600)
    runs = [(R, rng.randint(1, 600))]
    skip = 0  # weeks a long rest already covers
    for h in hours:
        if skip:
            skip -= 1
            continue
        lead = rng.randint(0, 1800)
        rest = h * 60 + rng.randint(-30, 30) if h else 0
        runs += [(O, lead + 1), (R, max(rest, 1))]
        used = lead + 1 + max(rest, 1)
        skip = used // week
        used %= week
        while used + 24 * 60 <= week:
            runs += [(O, 13 * 60), (R, 11 * 60)]
            used += 24 * 60
        runs.append((O, week - used + 1))
    runs.append((R, rng.randint(60, 3000)))
    mt = MinuteTrace(start * 60, *zip(*runs))
    profile = SPIRIT.replace(
        id="layout",
        attached_compensation=rng.random() < 0.3,
        daily_rest_threshold=rng.choice((15, 540, 660, 1440)),
    )
    return list(range(first, first + n)), mt, profile, leap_table


# --- edits ---


def split_runs(rng: random.Random, trace: SecondTrace) -> list:
    """The runs of `trace`, some cut in two, so that neighbours share an activity."""
    runs = []
    for activity, seconds in trace.segments:
        if seconds > 1 and rng.random() < 0.3:
            head = rng.randint(1, seconds - 1)
            runs += [(activity, head), (activity, seconds - head)]
        else:
            runs.append((activity, seconds))
    return runs


# --- record text ---

# blank, whitespace-only and comment lines, one of them not ASCII
SKIPPED_LINES = ["", "  ", "\t", "# note", "  #0,DRIVING,60", "#a,b,c", "# é"]
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028"]


def random_record_text(rng: random.Random, fault_rate: float) -> str | bytes:
    """Record text in every spelling the format allows, with faults of each
    kind planted at `fault_rate` per record, so a text may hold several."""
    lines = []
    t = rng.randint(0, 10**6)
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.1:
            lines.append(rng.choice(SKIPPED_LINES))
            continue
        start, duration = t, rng.randint(1, 5000)
        name = rng.choice(["DRIVING", "REST", "OTHER_WORK"])
        fields = None
        if rng.random() < fault_rate:
            fault = rng.randrange(6)
            if fault == 0:
                start += rng.randint(1, 100)  # gap
            elif fault == 1:
                start -= rng.randint(1, 100)  # overlap
            elif fault == 2:
                name = rng.choice(["NAPPING", "driving", "", "DRIVING REST"])
            elif fault == 3:
                duration = rng.choice([0, -1, -60])
            elif fault == 4:
                fields = rng.choice([[str(start)], [str(start), name], [str(start), name, "", ""]])
            else:
                fields = [str(start), name, rng.choice(["1.5", "0x10", "", "ten", "1__0"])]
        t = start + duration
        if fields is None:
            spell = rng.choice([str, "+{}".format, "{:_}".format, " {} ".format])
            pad = rng.choice(["", " ", "\t"])
            fields = [spell(start), pad + name + pad, spell(duration)]
        line = rng.choice(["", " ", "\t"]) + ",".join(fields) + rng.choice(["", " "])
        if rng.random() < 0.05:
            # a character that ends a line for `str.splitlines` but not here
            at = rng.randint(0, len(line))
            line = line[:at] + rng.choice(NOT_LINE_ENDS) + line[at:]
        lines.append(line)
    newline = rng.choice(["\n", "\r\n", "\r"])
    text = newline.join(lines) + rng.choice(["", newline])
    return text.encode("utf-8") if rng.random() < 0.5 else text


def canonical_record_text(rng: random.Random) -> str:
    """`to_records` of a random trace of maximal runs, from a start that may
    be zero or negative."""
    start = rng.choice([0, rng.randint(-10**6, -1), rng.randint(1, 10**9)])
    count = rng.choice([1, rng.randint(2, 40)])
    runs = [
        (rng.choice([D, R, O]), rng.choice([1, 60, rng.randint(2, 10**5)])) for _ in range(count)
    ]
    return SecondTrace.from_runs(start, runs).to_records()


def _respell_duration(spell):
    def edit(rng, lines, i):
        start, name, duration = lines[i].split(",")
        lines[i] = f"{start},{name},{spell(duration)}"
    return edit


def _split_record(rng, lines, i):
    # the longest record, which has two seconds unless every record has one
    i = max(range(len(lines)), key=lambda k: int(lines[k].split(",")[2]))
    start, name, duration = lines[i].split(",")
    head = rng.randint(1, int(duration) - 1) if int(duration) > 1 else 0
    tail = f"{int(start) + head},{name},{int(duration) - head}"
    lines[i : i + 1] = [f"{start},{name},{head}", tail]


def _shift_start(sign):
    def edit(rng, lines, i):
        start, rest = lines[i].split(",", 1)
        lines[i] = f"{int(start) + sign * rng.randint(1, 100)},{rest}"
    return edit


def _minus_zero(rng, lines, i):
    # on the record that starts at 0 if there is one, else a disorder
    starts = [line.split(",")[0] for line in lines]
    i = starts.index("0") if "0" in starts else i
    lines[i] = "-0" + lines[i][len(starts[i]) :]


def _comma_across_line_end(rng, lines, i):
    # the duration moves to the head of the next line, "s,N" then "d,s,N,d"
    # (or "d" alone after the last line): the fields stay as they were
    start, name, duration = lines[i].split(",")
    lines[i : i + 2] = [f"{start},{name}", ",".join([duration, *lines[i + 1 : i + 2]])]


def _whitespace_beside_a_number(rng, lines, i):
    # `int` strips a form feed or vertical tab around a number, and neither
    # ends a line
    fields = lines[i].split(",")
    k = rng.choice([0, 2])
    space = rng.choice("\f\v")
    fields[k] = space + fields[k] if rng.random() < 0.5 else fields[k] + space
    lines[i] = ",".join(fields)


def _start_at_the_digit_limit(rng, lines, i):
    # a first start of 4,300 digits, the most `int` reads and `%d` writes;
    # the starts after it reach 4,301 digits at a random record, or only at
    # the end of the trace
    records = [line.split(",") for line in lines]
    durations = [int(duration) for _, _, duration in records]
    limit = 10**4300
    t = limit - rng.randint(1, sum(durations))
    for record, duration in zip(records, durations):
        record[0] = str(t) if t < limit else "1" + str(t - limit).zfill(4300)
        t += duration
    lines[:] = map(",".join, records)


# one edit of the lines of a canonical text each, applied at a random line
# (`edit(rng, lines, i)`); None keeps the text canonical
RECORD_TEXT_EDITS = {
    "canonical": None,
    "-0": _minus_zero,
    "+5": _respell_duration("+{}".format),
    "1_000": _respell_duration(lambda d: f"{d[0]}_{d[1:]}" if len(d) > 1 else f"0_{d}"),
    "05": _respell_duration("0{}".format),
    "non-ASCII digit": _respell_duration(lambda d: d[:-1] + chr(0xFF10 + int(d[-1]))),
    "trailing space": _respell_duration("{} ".format),
    "comment": lambda rng, lines, i: lines.insert(i, "# note"),
    "blank line": lambda rng, lines, i: lines.insert(i, ""),
    "split record": _split_record,
    "gap": _shift_start(+1),
    "overlap": _shift_start(-1),
    "zero duration": _respell_duration(lambda d: "0"),
    # on the last record, where no later start shows that the sum went back
    "negative duration": lambda rng, lines, i: _respell_duration("-{}".format)(
        rng, lines, len(lines) - 1
    ),
    "comma across line end": _comma_across_line_end,
    "form feed or vertical tab": _whitespace_beside_a_number,
    "4,300-digit start": _start_at_the_digit_limit,
    "CRLF": None,
    "lone CR": None,
    "no final newline": None,
}
LINE_ENDS = {"CRLF": "\r\n", "lone CR": "\r"}


def edited_record_text(rng: random.Random, kind: str) -> str | bytes:
    """A canonical record text with the edit `kind` of `RECORD_TEXT_EDITS`."""
    lines = canonical_record_text(rng).splitlines()
    if RECORD_TEXT_EDITS[kind] is not None:
        RECORD_TEXT_EDITS[kind](rng, lines, rng.randrange(len(lines)))
    newline = LINE_ENDS.get(kind, "\n")
    # one text in ten loses its final newline on top of its edit
    final = "" if kind == "no final newline" or rng.random() < 0.1 else newline
    text = newline.join(lines) + final
    # a non-ASCII digit is only a question for `str` input
    return text.encode("ascii") if kind != "non-ASCII digit" and rng.random() < 0.5 else text
