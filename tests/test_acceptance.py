"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is exact or a stated wall-clock bound; nothing is
calibrated after the fact.
"""

import json
import random
import time

from tachocheck.machines import FuelExhausted, Halted, Program, run
from tachocheck.minutes import label_minutes
from tachocheck.partition import Patrimony, brute_force_split, count_distributions, optimal_split
from tachocheck.patterns import (
    find_shift_divergent,
    gen_compensation_chain,
    gen_pattern,
    gen_weekly_sandwich,
)
from tachocheck.periods import accumulate_driving, classify_rests
from tachocheck.proplogic import find_falsifying, is_tautology, parse_formula
from tachocheck.rules import check_all
from tachocheck.timeline import Calendar, TimeGrid
from traces import BUILTINS, GRID, LETTER, SPIRIT, per_minute

# 2^1000 as printed in full, line-wrapped in the original typesetting.
TWO_TO_1000 = (
    "10715086071862673209484250490600018105614048117055336"
    "07443750388370351051124936"
    "12249319837881569585812759467291755314682518714528569"
    "23140435984577574698574803"
    "93456777482423098542107460506237114187795418215304647"
    "49835819412673987675591655"
    "43946077062914571196477686542167660429831652624386837205668069376"
)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_one_minute_stop_yields_121_driving_minutes():
    start = time.perf_counter()
    trace = gen_pattern(1, 3600, 60)
    report = check_all(trace, GRID, SPIRIT)
    elapsed = time.perf_counter() - start
    ok = report.statistics["total_driving_minutes"] == 121 and elapsed < 1.0
    _report(1, "60m drive / 1m stop / 60m drive labels as 121 driving minutes", ok)


def test_criterion_02_interleaved_micro_rests_stay_exactly_legal():
    start = time.perf_counter()
    trace = gen_pattern(135, 60, 120)
    mt = label_minutes(trace, GRID)
    stream = per_minute(mt, accumulate_driving(mt, classify_rests(mt), SPIRIT))
    peak = max(acc for _, acc in stream)
    report = check_all(trace, GRID, SPIRIT)
    article7 = [v for v in report.violations if v.article == "7"]
    elapsed = time.perf_counter() - start
    ok = (
        len(mt) == 540
        and peak == 270
        and article7 == []
        and elapsed < 1.0
    )
    _report(2, "135 micro-rest repetitions: 540 min elapsed, peak 270, no break violation", ok)


def test_criterion_03_weekly_sandwich_splits_strict_and_spirit():
    start = time.perf_counter()
    trace = gen_weekly_sandwich()
    strict = check_all(trace, GRID, LETTER)
    spirit = check_all(trace, GRID, SPIRIT)
    elapsed = time.perf_counter() - start
    strict_61 = [v for v in strict.violations if v.article == "6.1"]
    spirit_61 = [v for v in spirit.violations if v.article == "6.1"]
    ok = (
        spirit.statistics["total_driving_minutes"] == 810
        and strict_61 == []
        and len(spirit_61) >= 1
        and elapsed < 1.0
    )
    _report(3, "weekly sandwich: 810 driving minutes, legal strictly, illegal in spirit", ok)


def test_criterion_04_grid_shift_flips_the_break_verdict():
    start = time.perf_counter()
    trace = find_shift_divergent(offsets=(0, 27), max_minutes=300)
    unix = check_all(trace, TimeGrid(0), BUILTINS["unix-grid"])
    utc = check_all(trace, TimeGrid(27), BUILTINS["utc-grid"])
    elapsed = time.perf_counter() - start
    verdict_pair = (len(unix.violations) == 0, len(utc.violations) == 0)
    flagged = unix.violations or utc.violations
    ok = (
        trace.duration <= 300 * 60
        and verdict_pair in ((True, False), (False, True))
        and any(v.article == "7" for v in flagged)
        and elapsed < 10.0
    )
    _report(4, "<=5h trace legal on one minute grid, illegal 27s away", ok)


def test_criterion_05_week0_verdict_depends_on_week_k():
    for k in (2, 3, 5):
        start = time.perf_counter()
        trace = gen_compensation_chain(k)
        full = check_all(trace, GRID, SPIRIT)
        cut = check_all(trace.truncated(Calendar().monday(k)), GRID, SPIRIT)
        elapsed = time.perf_counter() - start
        full_week0 = [
            v for v in full.violations if v.article == "8.6" and v.window_start == 0
        ]
        cut_week0 = [
            v for v in cut.violations if v.article == "8.6" and v.window_start == 0
        ]
        ok = full_week0 == [] and len(cut_week0) == 1 and elapsed < 5.0
        _report(5, f"compensation chain depth {k}: week-0 verdict flips when cut", ok)


def test_criterion_06_distribution_count_matches_the_printed_value():
    start = time.perf_counter()
    digits = str(count_distributions(1000))
    elapsed = time.perf_counter() - start
    ok = (
        digits == TWO_TO_1000
        and len(digits) == 302
        and digits.startswith("1071508607186267320948")
        and digits.endswith("205668069376")
        and elapsed < 1.0
    )
    _report(6, "2^1000 distributions, digit for digit", ok)


def test_criterion_07_split_solver_agrees_with_exhaustive_oracle():
    start = time.perf_counter()
    rng = random.Random(20260808)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 16)
        values = tuple(rng.randint(0, 10_000) for _ in range(n))
        _, fast = optimal_split(Patrimony(values))
        _, slow = brute_force_split(Patrimony(values))
        if fast != slow:
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(7, "200 random instances: optimal difference equals brute force", ok)


def test_criterion_08_register_program_trajectories():
    start = time.perf_counter()
    collatz = run(Program.COLLATZ, 3, 1_000)
    decrement = run(Program.DECREMENT, 3, 1_000)
    forever = run(Program.INCREMENT_FOREVER, 0, 100_000)
    elapsed = time.perf_counter() - start
    ok = (
        isinstance(collatz, Halted)
        and collatz.trajectory == (3, 10, 5, 16, 8, 4, 2, 1)
        and isinstance(decrement, Halted)
        and decrement.trajectory == (3, 2, 1, 0)
        and isinstance(forever, FuelExhausted)
        and elapsed < 1.0
    )
    _report(8, "decrement/3n+1/increment trajectories behave exactly", ok)


def test_criterion_09_listed_tautologies_and_the_falsifiable_rule():
    start = time.perf_counter()
    tautologies = [
        "R -> ((P & Q) -> R)",
        "!Q -> ((P & Q) -> R)",
        "!P -> ((P & Q) -> R)",
        "(!P | !Q) -> ((P & Q) -> R)",
    ]
    all_valid = all(is_tautology(parse_formula(t)) for t in tautologies)
    witness = find_falsifying(parse_formula("(P & Q) -> R"))
    elapsed = time.perf_counter() - start
    ok = all_valid and witness == {"P": 1, "Q": 1, "R": 0} and elapsed < 1.0
    _report(9, "four conditional weakenings valid; the bare rule fails at P=Q=1,R=0", ok)


def test_criterion_10_reports_are_byte_identical_across_runs():
    trace = gen_weekly_sandwich()
    first = check_all(trace, GRID, SPIRIT).to_json()
    second = check_all(trace, GRID, SPIRIT).to_json()
    ok = first == second and json.loads(first) == json.loads(second)
    _report(10, "identical inputs produce byte-identical report JSON", ok)
