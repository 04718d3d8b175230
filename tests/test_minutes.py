import random

import pytest

from tachocheck import minutes
from tachocheck.minutes import (
    MinuteTrace,
    Rule51Semantics,
    label_minutes,
    label_rule52,
)
from tachocheck.periods import accumulate_driving, classify_rests, daily_driving_spans
from tachocheck.rules import check_article7, check_article61, check_article82
from tachocheck.timeline import Activity, SecondTrace, TimeGrid, parse_trace
from traces import GRID, SPIRIT, D, O, R, labels, minutes_of, random_runs, random_trace, trace_of

ALL_SEMANTICS = list(Rule51Semantics)


def test_rule52_longest_run_wins():
    # 31 s rest then 29 s driving: rest is the longest continuous activity
    trace = trace_of((R, 31), (D, 29))
    assert labels(label_rule52(trace, GRID)) == (Activity.REST,)


def test_rule52_tie_goes_to_latest():
    trace = trace_of((D, 30), (R, 30))
    assert labels(label_rule52(trace, GRID)) == (Activity.REST,)
    trace = trace_of((R, 30), (D, 30))
    assert labels(label_rule52(trace, GRID)) == (Activity.DRIVING,)


def test_rule52_uniform_minute():
    trace = trace_of((D, 60))
    assert labels(label_rule52(trace, GRID)) == (Activity.DRIVING,)


def test_rule52_equal_runs_of_same_activity():
    # runs D20 R20 D20: all equal, the latest equally long run is driving
    trace = trace_of((D, 20), (R, 20), (D, 20))
    assert labels(label_rule52(trace, GRID)) == (Activity.DRIVING,)


def test_rule52_counts_runs_not_totals():
    # driving totals 30 s split into two runs of 15; the 20 s rest run is
    # the longest continuous activity even though driving dominates in total
    trace = trace_of((D, 15), (R, 20), (D, 15), (O, 10))
    assert labels(label_rule52(trace, GRID)) == (Activity.REST,)


def test_partial_minutes_are_dropped():
    trace = trace_of((D, 150))  # 2.5 minutes
    mt = label_rule52(trace, GRID)
    assert len(mt) == 2
    shifted = trace_of((D, 150), start=30)  # starts mid-minute
    mt2 = label_rule52(shifted, GRID)
    assert len(mt2) == 2
    assert mt2.start == 60


def test_too_short_trace_labels_as_an_empty_trace():
    for offset in range(60):
        grid = TimeGrid(offset)
        # 59 s, and 60 s that start one second after a grid minute
        traces = [
            trace_of((D, 59)),
            trace_of((R, 20), (D, 39), start=-100),
            trace_of((D, 30), (R, 30), start=offset + 1),
        ]
        for trace in traces:
            start = grid.minute_start(grid.first_full_minute(trace.start))
            labeled = [label_rule52(trace, grid)]
            labeled += [label_minutes(trace, grid, semantics) for semantics in ALL_SEMANTICS]
            for mt in labeled:
                assert mt.activities == mt.counts == () and len(mt) == 0
                assert mt.start == mt.end == start
                assert mt.to_records() == ""
                for edge in (False, True):
                    profile = SPIRIT.replace(trace_edge_is_rest=edge)
                    rests = classify_rests(mt)
                    stretches = accumulate_driving(mt, rests, profile)
                    spans = daily_driving_spans(mt, rests, profile)
                    assert (rests, stretches, spans) == ([], [(0, 0)], [])
                    assert check_article7(stretches, mt, profile.id) == []
                    assert check_article61(spans, profile) == []
                    assert check_article82(rests, mt, profile) == []


@pytest.mark.parametrize("semantics", ALL_SEMANTICS)
def test_one_rest_minute_between_driving_becomes_driving(semantics):
    trace = minutes_of((D, 60), (R, 1), (D, 60))
    mt = label_minutes(trace, GRID, semantics)
    assert len(mt) == 121
    assert mt.driving_minutes() == 121


@pytest.mark.parametrize("semantics", ALL_SEMANTICS)
def test_two_rest_minutes_stay_rest(semantics):
    trace = minutes_of((D, 60), (R, 2), (D, 60))
    mt = label_minutes(trace, GRID, semantics)
    assert mt.driving_minutes() == 120
    assert labels(mt)[60] is Activity.REST
    assert labels(mt)[61] is Activity.REST


def test_alternating_pattern_upgrades_in_one_pass():
    trace = minutes_of((D, 1), (R, 1), (D, 1), (R, 1), (D, 1))
    for semantics in (Rule51Semantics.NEIGHBOR_RULE52, Rule51Semantics.FIXPOINT):
        mt = label_minutes(trace, GRID, semantics)
        assert mt.driving_minutes() == 5


def test_neighbor_raw_requires_fully_driven_neighbours():
    # neighbours label as driving under the longest-run rule but are not
    # driving in every raw second, so the raw semantics leaves the middle
    # minute alone
    trace = trace_of((R, 20), (D, 40), (R, 60), (D, 40), (R, 20))
    by_label = label_minutes(trace, GRID, Rule51Semantics.NEIGHBOR_RULE52)
    by_raw = label_minutes(trace, GRID, Rule51Semantics.NEIGHBOR_RAW)
    assert labels(by_label)[1] is Activity.DRIVING
    assert labels(by_raw)[1] is Activity.REST
    assert by_label.driving_minutes() == by_raw.driving_minutes() + 1


def test_edge_minutes_never_upgraded():
    trace = minutes_of((R, 1), (D, 1), (R, 1))
    for semantics in ALL_SEMANTICS:
        mt = label_minutes(trace, GRID, semantics)
        assert labels(mt)[0] is Activity.REST
        assert labels(mt)[2] is Activity.REST


def test_upgrade_is_monotone_on_random_traces():
    rng = random.Random(101)
    kept = upgraded = 0
    for _ in range(40):
        trace = random_trace(rng)
        base = label_rule52(trace, GRID)
        for semantics in ALL_SEMANTICS:
            full = label_minutes(trace, GRID, semantics)
            for a, b in zip(labels(base), labels(full)):
                if a is Activity.DRIVING:
                    assert b is Activity.DRIVING
            kept += base.driving_minutes()
            upgraded += full.driving_minutes() - base.driving_minutes()
    # the draws reach the upgrade, not only labels it must keep
    assert kept > 10000 and upgraded > 20, (kept, upgraded)


def test_fixpoint_equals_single_pass_on_random_traces():
    # An upgrade needs both neighbours driving at the raw-label layer; a
    # neighbour upgraded in a first pass would itself have required this
    # minute to already be driving. So a second pass can never add anything
    # and no single-knob witness separating Fixpoint from NeighborRule52
    # exists.
    rng = random.Random(202)
    upgraded = 0
    for _ in range(60):
        trace = random_trace(rng)
        single = label_minutes(trace, GRID, Rule51Semantics.NEIGHBOR_RULE52)
        fixed = label_minutes(trace, GRID, Rule51Semantics.FIXPOINT)
        assert labels(single) == labels(fixed)
        upgraded += single.driving_minutes() - label_rule52(trace, GRID).driving_minutes()
    # a first pass that upgrades nothing would make the claim vacuous
    assert upgraded > 15, upgraded


def test_grid_aligned_traces_are_shift_invariant():
    # every run is a multiple of 60 s and the trace starts on both grids'
    # boundaries, so totals agree between the grids
    rng = random.Random(303)
    for _ in range(20):
        runs = random_runs(rng, (2, 10), (1, 5), unit=60)
        trace = SecondTrace.from_runs(0, runs)
        padded = SecondTrace.from_runs(0, [(runs[0][0], 30)] + runs + [(runs[-1][0], 30)])
        g1 = label_minutes(trace, TimeGrid(0))
        g2 = label_minutes(padded, TimeGrid(30))
        assert g1.driving_minutes() == g2.driving_minutes()


def test_minute_trace_serializes_at_minute_granularity():
    trace = minutes_of((D, 2), (R, 3), (D, 1))
    mt = label_minutes(trace, GRID)
    text = mt.to_records()
    assert text == "0,DRIVING,120\n120,REST,180\n300,DRIVING,60\n"
    reparsed = parse_trace(text)
    assert reparsed.duration == trace.duration
    # a valid trace that covers no grid minute labels no run, hence no record
    assert label_minutes(parse_trace("30,DRIVING,50\n"), GRID).to_records() == ""


def test_minute_instants():
    trace = minutes_of((D, 3), start=120)
    mt = label_minutes(trace, GRID)
    assert mt.start == 120
    assert mt.end == 300


def test_replacing_the_columns_of_a_minute_trace_recomputes_its_prefix_sums():
    mt = label_minutes(minutes_of((D, 2), (R, 3), (D, 1)), GRID)
    assert mt.bounds == (0, 2, 5, 6) and mt.driving == (0, 2, 2, 3)
    swapped = mt.replace(activities=(R, D, D), counts=(4, 1, 2))
    assert swapped == MinuteTrace(0, (R, D), (4, 3))
    assert swapped.bounds == (0, 4, 7) and swapped.driving == (0, 0, 3)
    assert len(swapped) == 7 and swapped.driving_minutes() == 3


def test_one_labeling_builds_one_minute_trace(monkeypatch):
    # each build sums the label runs' prefixes again; count every instance made
    built = []

    class CountedMinuteTrace(MinuteTrace):
        def __new__(cls, *args, **kwargs):
            mt = super().__new__(cls)
            built.append(mt)
            return mt

    monkeypatch.setattr(minutes, "MinuteTrace", CountedMinuteTrace)
    runs = [(D, 70), (R, 50), (D, 40), (O, 20)] * 20
    for semantics in ALL_SEMANTICS:
        trace = trace_of(*runs)
        built.clear()
        mt = label_minutes(trace, GRID, semantics)
        assert len(built) == 1 and built[0] is mt
        # the trace keeps the labeling: a repeat builds none
        built.clear()
        assert label_minutes(trace, GRID, semantics) is mt and not built
    built.clear()
    mt = label_rule52(trace_of(*runs), GRID)
    assert len(built) == 1 and built[0] is mt
