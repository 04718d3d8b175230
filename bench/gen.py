"""Seeded corpus generators for the three benchmark workloads.

Nothing here imports tachocheck: the program under test only ever receives
the record text these functions emit. Every case carries the verdict its
construction fixes, so the benchmark can check the engine's answer without
asking the engine.

Traces start at second 0, a Monday 00:00, so week w is [w * WEEK, (w+1) * WEEK).
Expected in-process verdicts are violation counts per article under the
case's profile. Expected `diff` outcomes are per-profile counts per article,
the profile sets of the disagreements, and the exit code.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

MINUTE = 60
HOUR = 3600
WEEK = 7 * 24 * HOUR

D, R, O = "DRIVING", "REST", "OTHER_WORK"

# cli_diff compares DIFF_SPECS; all but utc-grid read the 0 s minute grid.
GRID0_IDS = ("letter", "neighbor-raw", "spirit", "unix-grid")
DIFF_SPECS = ("spirit", "letter", "unix-grid", "utc-grid", "neighbor-raw.json")
NEIGHBOR_RAW_PROFILE = json.dumps({"id": "neighbor-raw", "rule51": "NeighborRaw"})

SPIRIT_PROFILE = json.dumps({"id": "spirit"})
MINIMIZE_PROFILE = json.dumps(
    {"id": "spirit-min", "extended_attribution": "MinimizeViolations"}
)


@dataclass
class Case:
    name: str
    weeks: int
    text: str
    expected: dict
    profile: str = SPIRIT_PROFILE
    # Instants where the activity changes; the straddle share is computed
    # from these, not from the engine.
    boundaries: list = field(default_factory=list, repr=False)
    duration: int = 0


class _Builder:
    """Appends activity runs, merging neighbours of the same activity."""

    def __init__(self) -> None:
        self.runs: list[list] = []
        self.t = 0

    def add(self, activity: str, seconds: int) -> None:
        if seconds <= 0:
            raise ValueError(f"run of {seconds} s")
        if self.runs and self.runs[-1][0] == activity:
            self.runs[-1][1] += seconds
        else:
            self.runs.append([activity, seconds])
        self.t += seconds

    def case(self, name: str, expected: dict, profile: str = SPIRIT_PROFILE) -> Case:
        lines = []
        boundaries = []
        t = 0
        for activity, seconds in self.runs:
            if t:
                boundaries.append(t)
            lines.append(f"{t},{activity},{seconds}")
            t += seconds
        return Case(
            name=name,
            weeks=round(t / WEEK),
            text="\n".join(lines) + "\n",
            expected=expected,
            profile=profile,
            boundaries=boundaries,
            duration=t,
        )


def straddle_share(case: Case) -> float:
    """Share of the 0 s grid's minutes that hold an activity change."""
    minutes = {b // MINUTE for b in case.boundaries if b % MINUTE}
    return len(minutes) / (case.duration // MINUTE)


def _add(counts: dict, more: dict) -> None:
    for article, n in more.items():
        counts[article] = counts.get(article, 0) + n


# --------------------------------------------------------------------------
# fleet: realistic multi-week downloads with planted violations (spirit)
# --------------------------------------------------------------------------
#
# Margins: a driving stretch holds at most 235 min of driving plus four
# stops, so the accumulator stays far below 270; breaks last 50-60 min, so
# at least 48 labeled minutes reset it; a normal day drives under 8.5 h; a
# work block lasts under 14 h, so the next daily rest (>= 10.5 h) completes
# within 24 h of the last one. Every weekly rest lies strictly inside its
# week. Each planted deviation moves exactly the counts listed in PLANTS.


def _stretch(b: _Builder, rng: random.Random, lo: int, hi: int, stops: int) -> None:
    """lo..hi minutes of driving split by `stops` short stops of 2-6 min."""
    total = rng.randint(lo * MINUTE, hi * MINUTE)
    floor = 10 * MINUTE
    cuts = sorted(rng.randint(0, total - floor * (stops + 1)) for _ in range(stops))
    edges = [0] + cuts + [total - floor * (stops + 1)]
    for i in range(stops + 1):
        b.add(D, floor + edges[i + 1] - edges[i])
        if i < stops:
            b.add(rng.choice((O, R)), rng.randint(2 * MINUTE, 6 * MINUTE))


def _brk(b: _Builder, rng: random.Random) -> None:
    b.add(R, rng.randint(50 * MINUTE, 60 * MINUTE))


def _day_normal(b, rng):
    _stretch(b, rng, 200, 235, 4)
    _brk(b, rng)
    _stretch(b, rng, 200, 235, 4)
    b.add(O, rng.randint(60 * MINUTE, 120 * MINUTE))


def _day_long_work(b, rng):
    _stretch(b, rng, 200, 235, 4)
    _brk(b, rng)
    _stretch(b, rng, 200, 235, 4)
    b.add(O, rng.randint(150 * MINUTE, 240 * MINUTE))


def _day_a7(b, rng):
    # 300-305 min of uninterrupted driving: the accumulator passes 270 once.
    b.add(D, rng.randint(300 * MINUTE, 305 * MINUTE))
    _brk(b, rng)
    _stretch(b, rng, 160, 195, 4)
    b.add(O, rng.randint(60 * MINUTE, 120 * MINUTE))


def _day_cap(b, rng):
    # Three stretches of 210-220 min: over 618 labeled minutes, past the 600 cap.
    for i in range(3):
        _stretch(b, rng, 210, 220, 1)
        if i < 2:
            _brk(b, rng)
    b.add(O, rng.randint(10 * MINUTE, 20 * MINUTE))


def _day_ext(b, rng):
    # 555-585 driving minutes: a 10-hour extension, below the 600 cap.
    for i in range(3):
        b.add(D, rng.randint(185 * MINUTE, 195 * MINUTE))
        if i < 2:
            _brk(b, rng)
    b.add(O, rng.randint(10 * MINUTE, 30 * MINUTE))


def _daily_rest(rng):
    return rng.randint(int(10.5 * HOUR), 12 * HOUR)


# Planted week kinds and the violation counts each adds under spirit.
PLANTS = {
    "a7": {"7": 1},
    "cap": {"6.1": 1},
    "ext3": {"6.1": 1},  # the third extension in one week
    "r82": {"8.2": 1, "6.1": 1},  # short rest: 24 h window missed, two days merge
    "no86": {"8.6": 1},  # no weekly rest at all; the waiver blames this week
}


def _fleet_week(rng: random.Random, kind: str) -> _Builder:
    """One calendar week: six work days, the weekly rest after the third.

    The weekly rest absorbs the slack so the week is exactly 168 h; weeks
    whose rest would fall outside 46-80 h are redrawn. A `no86` week has
    seven days and daily rests only; its last rest absorbs the slack.
    """
    while True:
        b = _Builder()
        if kind == "no86":
            for i in range(7):
                _day_long_work(b, rng)
                if i < 6:
                    b.add(R, _daily_rest(rng))
            last = WEEK - b.t
            if 10 * HOUR <= last <= 17 * HOUR:
                b.add(R, last)
                return b
            continue
        builders = [_day_normal] * 6
        if kind == "a7":
            builders[1] = _day_a7
        elif kind == "cap":
            builders[1] = _day_cap
        elif kind == "ext3":
            builders[0] = builders[1] = builders[3] = _day_ext
        rests: list = [_daily_rest(rng) for _ in range(6)]
        if kind == "r82":
            rests[1] = rng.randint(6 * HOUR, int(7.5 * HOUR))
        rests[2] = None  # weekly rest, sized below
        tail = _Builder()
        head = _Builder()
        for i, build in enumerate(builders):
            part = head if i <= 2 else tail
            build(part, rng)
            if i != 2:
                part.add(R, rests[i])
        weekly = WEEK - head.t - tail.t
        if not 46 * HOUR <= weekly <= 80 * HOUR:
            continue
        head.add(R, weekly)
        for activity, seconds in tail.runs:
            head.add(activity, seconds)
        return head


def _fleet_trace(rng: random.Random, name: str, weeks: int) -> Case:
    """A trace whose inner weeks each carry a plant with probability 0.3."""
    kinds = ["normal"] * weeks
    for w in range(1, weeks - 1):
        if rng.random() < 0.3:
            kind = rng.choice(sorted(PLANTS))
            # Two restless weeks leave no single waiver that restores
            # feasibility, and the waiver loop's blame is then not a count
            # this generator fixes; so one per trace.
            if kind == "no86" and "no86" in kinds:
                continue
            kinds[w] = kind
    return fleet_case(rng, name, kinds)


def fleet_case(rng: random.Random, name: str, kinds: list) -> Case:
    b = _Builder()
    expected: dict = {}
    for kind in kinds:
        for activity, seconds in _fleet_week(rng, kind).runs:
            b.add(activity, seconds)
        _add(expected, PLANTS.get(kind, {}))
    return b.case(name, expected)


# Download lengths: driver cards hold 4 weeks, vehicle units about 13, an
# annual audit 52. One pass holds 45 + 12 + 3 distinct traces, so p90 falls
# inside the 13-week group (ranks 76-95 of 100) and the 52-week traces stay
# above it.
FLEET_PASS = (4,) * 45 + (13,) * 12 + (52,) * 3


def fleet_corpus(seed: int, mix=FLEET_PASS) -> list[Case]:
    rng = random.Random(f"fleet:{seed}")
    cases = [_fleet_trace(rng, f"fleet-{i:02d}-{w}w", w) for i, w in enumerate(mix)]
    rng.shuffle(cases)
    return cases


# --------------------------------------------------------------------------
# search: adversarial inputs for the Article 8.6 and 6.1 searches
# --------------------------------------------------------------------------


def _jitter(rng, seconds: int) -> int:
    return rng.randint(-seconds, seconds) if rng else 0


def _cycle_week(b: _Builder, rest_hours: int, rng=None) -> None:
    """A week opening with a rest of `rest_hours`, then legal 23 h day cycles.

    With an rng, each cycle's drives and break move by up to 10 min at
    second resolution (other work keeps the cycle at 23 h): the weekly rests,
    and so the 8.6 search, stay exactly as built.
    """
    b.add(R, rest_hours * HOUR)
    cycles, remainder = divmod(WEEK - rest_hours * HOUR, 23 * HOUR)
    for _ in range(cycles):
        moves = [_jitter(rng, 600) for _ in range(3)]
        b.add(D, 4 * HOUR + moves[0])
        b.add(R, 1 * HOUR + moves[1])
        b.add(D, 4 * HOUR + moves[2])
        b.add(O, 5 * HOUR - sum(moves))
        b.add(R, 9 * HOUR)
    if remainder:
        b.add(O, remainder)


def chain_case(depth: int, truncated: bool, rng=None) -> Case:
    """Compensation chain: week 0's 21 h reduction is paid only by week k.

    Weeks 1..k-1 hold exactly 45 h, so carving from them cascades the debt
    forward; only week k's 66 h rest has spare capacity. The full trace
    (k + 3 weeks) is legal. Cut before week k, the chain cannot resolve and
    the waiver loop blames week 0 alone.
    """
    hours = [24] + [45] * (depth - 1) + [66, 45, 45]
    if truncated:
        hours = hours[:depth]
    b = _Builder()
    for h in hours:
        _cycle_week(b, h, rng)
    label = "cut" if truncated else "full"
    return b.case(f"chain-{label}-{depth}", {"8.6": 1} if truncated else {})


def rotation_case(weeks: int, rng=None) -> Case:
    """45/24/66 weekly-rest rotation over `weeks` weeks.

    Each 24 h reduction is paid from the next week's 66 h rest. A rotation
    whose length is 2 mod 3 ends on an unpaid reduction, and the waiver loop
    blames the regular week before it: one 8.6 violation. Lengths 0 mod 3
    are legal.
    """
    if weeks % 3 == 1:
        raise ValueError("rotation length must be 0 or 2 mod 3")
    b = _Builder()
    for w in range(weeks):
        _cycle_week(b, (45, 24, 66)[w % 3], rng)
    return b.case(f"rotation-{weeks}", {"8.6": 1} if weeks % 3 == 2 else {})


def crossing_case(crossings: int, fixed: int, rng=None) -> Case:
    """`crossings` 10-hour days crossing Sunday 24:00, under MinimizeViolations.

    Every week holds `fixed` (1 or 2) extension days of its own and a 48 h
    weekly rest. With one fixed extension each, sending every crossing day
    to its end week gives no violation; with two, every crossing day is one
    extension too many wherever it goes. With an rng, each drive lasts up to
    2 min longer (an extension day stays within 570-576 min).
    """
    b = _Builder()

    def drive(seconds):
        b.add(D, seconds + (rng.randint(0, 120) if rng else 0))

    def ext_day():
        for i in range(3):
            drive(190 * MINUTE)
            if i < 2:
                b.add(R, 50 * MINUTE)

    def normal_day():
        drive(4 * HOUR)
        b.add(R, 1 * HOUR)
        drive(4 * HOUR)

    for w in range(crossings + 1):
        if w == 0:
            b.add(R, 16 * HOUR + 10 * MINUTE)
        else:
            b.add(R, 11 * HOUR)
        for i in range(2):
            ext_day() if i < fixed else normal_day()
            if i == 0:
                b.add(R, 11 * HOUR)
        b.add(R, 48 * HOUR)
        for i in range(3):
            normal_day()
            if i < 2:
                b.add(R, 11 * HOUR)
        if w < crossings:
            # Rest up to Sunday 18:00, then a 570-minute day into Monday.
            b.add(R, (w + 1) * WEEK - 6 * HOUR - b.t)
            ext_day()
        else:
            b.add(R, (w + 1) * WEEK - b.t)
    expected = {"6.1": crossings} if fixed == 2 else {}
    return b.case(f"crossing-{crossings}x{fixed}", expected, MINIMIZE_PROFILE)


def search_corpus(seed: int) -> list[Case]:
    """One pass: 88 light cases, 12 near the cliff, 3 beyond it.

    The mix and order are the same for every seed; the seed moves drives
    and breaks by seconds. Light cases spend most of their time
    parsing and labeling and hold p50. The near-cliff group (ranks 89-100
    of 103) holds p90: feasible chains stress the solver, infeasible
    rotations the waiver-loop reruns. The cases beyond today's cliffs (chain
    depth 20, a 26-week rotation, 21 crossings) keep their built-in verdicts
    and run under the per-request limit; they are never dropped or shrunk.
    """
    rng = random.Random(f"search:{seed}")
    cases = []
    for depth in range(2, 7):
        for _ in range(3):
            cases.append(chain_case(depth, False, rng))
            cases.append(chain_case(depth, True, rng))
    for weeks in (3, 5, 6, 8, 9):
        cases += [rotation_case(weeks, rng) for _ in range(6)]
    for crossings in range(2, 9):
        for fixed in (1, 2):
            cases += [crossing_case(crossings, fixed, rng) for _ in range(2)]
    for _ in range(6):
        cases.append(chain_case(12, False, rng))
        cases.append(rotation_case(14, rng))
    cases.append(chain_case(20, False, rng))
    cases.append(rotation_case(26, rng))
    cases.append(crossing_case(21, rng.choice((1, 2)), rng))
    # One fixed order for every seed: peak RSS then depends on the corpus,
    # not on which large traces happen to follow each other.
    random.Random("search-order").shuffle(cases)
    return cases


# --------------------------------------------------------------------------
# cli_diff: urban stop-and-go traces compared across five profiles
# --------------------------------------------------------------------------
#
# Urban stretches alternate 10-90 s of driving with 10-90 s stops and last
# at most 210 min of elapsed time, so even if every minute labeled driving
# no profile could see a break or daily-driving violation in them. Only the
# two planted blocks move verdicts:
#   - a shift-divergent block: 280 minutes of (31 s rest, 29 s driving)
#     anchored to the 0 s grid. Every minute labels rest at offset 0 and
#     driving at offset 27, so only utc-grid sees an Article 7 violation.
#   - a driving-majority block: 305-315 min of 45-90 s drives with 3-10 s
#     stops. Every minute labels driving on every grid, so all five profiles
#     see one Article 7 violation; the 0 s and 27 s windows differ, giving
#     two disagreements.


def _urban(b: _Builder, rng: random.Random, lo: int, hi: int) -> None:
    end = b.t + rng.randint(lo * MINUTE, hi * MINUTE)
    while b.t < end:
        b.add(D, rng.randint(10, 90))
        b.add(R, rng.randint(10, 90))
    b.add(D, rng.randint(10, 90))


def _day_urban(b, rng):
    _urban(b, rng, 150, 210)
    _brk(b, rng)
    _urban(b, rng, 150, 210)
    b.add(O, rng.randint(30 * MINUTE, 90 * MINUTE))


def _day_divergent(b, rng):
    b.add(O, rng.randint(20 * MINUTE, 40 * MINUTE))
    gap = rng.randint(50 * MINUTE, 60 * MINUTE)
    gap += -(b.t + gap) % MINUTE  # the block starts on a 0 s grid minute
    b.add(R, gap)
    for _ in range(280):
        b.add(R, 31)
        b.add(D, 29)
    _brk(b, rng)
    _urban(b, rng, 100, 150)
    b.add(O, rng.randint(30 * MINUTE, 60 * MINUTE))


def _day_majority(b, rng):
    b.add(O, rng.randint(20 * MINUTE, 40 * MINUTE))
    _brk(b, rng)
    end = b.t + rng.randint(305 * MINUTE, 315 * MINUTE)
    while b.t < end:
        b.add(D, rng.randint(45, 90))
        b.add(R, rng.randint(3, 10))
    b.add(D, rng.randint(45, 90))
    _brk(b, rng)
    _urban(b, rng, 100, 150)
    b.add(O, rng.randint(30 * MINUTE, 60 * MINUTE))


def _urban_week(rng: random.Random, plants: dict) -> _Builder:
    """Six urban days and a mid-week weekly rest; `plants` maps day -> builder."""
    while True:
        head, tail = _Builder(), _Builder()
        for i in range(6):
            part = head if i <= 2 else tail
            plants.get(i, _day_urban)(part, rng)
            if i != 2:
                part.add(R, _daily_rest(rng))
        weekly = WEEK - head.t - tail.t
        # A divergent block keeps its grid phase only if the tail starts on
        # a whole minute; the last daily rest takes the leftover seconds.
        weekly -= (head.t + weekly) % MINUTE
        rest_last = WEEK - head.t - tail.t - weekly
        if not 46 * HOUR <= weekly <= 80 * HOUR:
            continue
        head.add(R, weekly)
        for activity, seconds in tail.runs:
            head.add(activity, seconds)
        if rest_last:
            head.runs[-1][1] += rest_last  # the week's last daily rest
            head.t += rest_last
        return head


def diff_expected(divergent: int, majority: int) -> dict:
    verdicts = {}
    if divergent or majority:
        verdicts["7"] = {pid: majority for pid in GRID0_IDS}
        verdicts["7"]["utc-grid"] = majority + divergent
    sets = [list(GRID0_IDS)] * majority + [["utc-grid"]] * (majority + divergent)
    return {
        "verdicts": verdicts,
        "disagreements": sorted(sets),
        "exit": 1 if sets else 0,
    }


def urban_case(rng: random.Random, name: str, weeks: list) -> Case:
    """One urban week per (divergent, majority) pair of plant flags."""
    b = _Builder()
    divergent = majority = 0
    for has_divergent, has_majority in weeks:
        plants = {}
        days = rng.sample(range(6), 2)
        if has_divergent:
            plants[days[0]] = _day_divergent
            divergent += 1
        if has_majority:
            plants[days[1]] = _day_majority
            majority += 1
        start = b.t
        for activity, seconds in _urban_week(rng, plants).runs:
            b.add(activity, seconds)
        assert b.t == start + WEEK
    return b.case(name, diff_expected(divergent, majority))


# Mostly one-week traces, some of two weeks and one of four. p50 falls
# inside the one-week group (ranks 1-60 of 100) and p90 inside the two-week
# group (ranks 61-95), away from the jumps between groups.
CLI_DIFF_PASS = (1,) * 12 + (2,) * 7 + (4,)


def cli_diff_corpus(seed: int) -> list[Case]:
    rng = random.Random(f"cli_diff:{seed}")
    cases = []
    for i, weeks in enumerate(CLI_DIFF_PASS):
        # Half the weeks carry a divergent block, a quarter a majority block.
        flags = [(rng.random() < 0.5, rng.random() < 0.25) for _ in range(weeks)]
        cases.append(urban_case(rng, f"urban-{i:02d}-{weeks}w", flags))
    rng.shuffle(cases)
    return cases


CORPORA = {"fleet": fleet_corpus, "search": search_corpus, "cli_diff": cli_diff_corpus}
