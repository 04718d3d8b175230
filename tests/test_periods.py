import random

import spec
from tachocheck.minutes import label_minutes
from tachocheck.patterns import gen_weekly_sandwich
from tachocheck.periods import (
    accumulate_driving,
    classify_rests,
    daily_driving_spans,
)
from traces import GRID, LETTER, SPIRIT, D, O, R, labels, minutes_of, per_minute, random_runs


def labeled(*runs, start=0):
    return label_minutes(minutes_of(*runs, start=start), GRID)


def kinds_of(mt, profile=SPIRIT):
    """The specification's kinds of the rest runs of at least 15 minutes;
    the engine must find the same runs."""
    runs = spec.rest_runs(labels(mt))
    assert [mt.bounds[i] for i in classify_rests(mt)] == [m for m, _ in runs]
    return [spec.kind(n, profile.daily_rest_threshold) for _, n in runs]


def test_45h_rest_is_regular_weekly():
    mt = labeled((O, 30), (R, 45 * 60), (O, 30))
    assert kinds_of(mt) == ["regular weekly rest"]


def test_24h_rest_is_reduced_weekly():
    mt = labeled((O, 30), (R, 24 * 60), (O, 30))
    assert kinds_of(mt) == ["reduced weekly rest"]


def test_9h_rest_is_daily():
    mt = labeled((O, 30), (R, 9 * 60), (O, 30))
    assert kinds_of(mt) == ["daily rest"]


def test_15min_rest_is_break_14_is_nothing():
    mt = labeled((O, 30), (R, 15), (O, 30))
    assert kinds_of(mt) == ["break"]
    mt = labeled((O, 30), (R, 14), (O, 30))
    assert kinds_of(mt) == []


def test_daily_threshold_is_a_knob():
    eight_hours = labeled((O, 30), (R, 8 * 60), (O, 30))
    assert kinds_of(eight_hours) == ["break"]
    lowered = SPIRIT.replace(id="low", daily_rest_threshold=480)
    assert kinds_of(eight_hours, lowered) == ["daily rest"]


def test_period_instants():
    mt = labeled((O, 10), (R, 20), (O, 10))
    assert classify_rests(mt) == [1]
    assert mt.start + 60 * mt.bounds[1] == 600
    assert mt.start + 60 * mt.bounds[2] == 1800
    assert mt.counts[1] == 20


def _stream(mt, profile=SPIRIT):
    return per_minute(mt, accumulate_driving(mt, classify_rests(mt), profile))


def test_accumulator_simple_peak():
    mt = labeled((D, 60), (R, 2), (D, 60))
    stream = _stream(mt)
    assert max(acc for _, acc in stream) == 120


def test_accumulator_interleaved_micro_rests_reach_270():
    mt = labeled(*([(D, 1), (R, 2), (D, 1)] * 135))
    stream = _stream(mt)
    assert max(acc for _, acc in stream) == 270


def test_accumulator_resets_after_full_break():
    mt = labeled((D, 270), (R, 45), (D, 10))
    stream = _stream(mt)
    assert stream[-1][1] == 10
    reset_at = 270 + 45 - 1  # last minute of the break
    assert stream[reset_at][1] == 0
    assert stream[reset_at - 1][1] == 270


def test_split_break_resets_only_at_second_part():
    mt = labeled((D, 260), (R, 15), (D, 20), (R, 30), (D, 200))
    stream = _stream(mt)
    by_minute = dict((t // 60, acc) for t, acc in stream)
    assert by_minute[274] == 260  # 15 min part alone does not reset
    assert by_minute[294] == 280  # driving between the parts accumulates
    assert by_minute[324] == 0  # the >=30 min part completes the split
    assert by_minute[524] == 200


def test_first_split_part_is_forgotten_after_full_reset():
    # 15 min pending, then a rest period resets everything; a later lone
    # 30 min break must not complete the stale split
    mt = labeled((D, 10), (R, 15), (D, 10), (R, 9 * 60), (D, 100), (R, 30), (D, 5))
    stream = _stream(mt)
    assert stream[-1][1] == 105


def test_thirty_minute_break_can_open_a_split():
    mt = labeled((D, 10), (R, 30), (D, 10), (R, 30), (D, 5))
    stream = _stream(mt)
    assert stream[-1][1] == 5  # second 30 min break closes the split


def test_other_work_neither_accumulates_nor_breaks():
    mt = labeled((D, 100), (O, 300), (D, 100))
    stream = _stream(mt)
    assert max(acc for _, acc in stream) == 200


def test_accumulator_never_decreases_between_resets():
    rng = random.Random(11)
    for _ in range(30):
        runs = random_runs(rng, (3, 20), (1, 90))
        mt = labeled(*runs)
        stream = _stream(mt)
        prev = 0
        for _, acc in stream:
            assert acc >= prev or acc == 0
            prev = acc


def test_sandwich_spans_strict_vs_spirit():
    trace = gen_weekly_sandwich()
    mt = label_minutes(trace, GRID)
    rests = classify_rests(mt)
    strict = daily_driving_spans(mt, rests, LETTER)
    spirit = daily_driving_spans(mt, rests, SPIRIT)
    assert strict == []
    [(_, _, driving)] = spirit
    assert driving == 810


def test_trace_edge_counts_as_rest_when_enabled():
    mt = labeled((D, 60), (R, 9 * 60), (O, 30))
    rests = classify_rests(mt)
    with_edge = daily_driving_spans(mt, rests, SPIRIT)
    [(start, _, driving)] = with_edge
    assert driving == 60
    assert start == mt.start
    without_edge = daily_driving_spans(mt, rests, LETTER)
    assert without_edge == []


def test_all_rest_trace_has_no_spans():
    mt = labeled((R, 10 * 60))
    rests = classify_rests(mt)
    assert daily_driving_spans(mt, rests, SPIRIT) == []


def test_weekly_to_daily_stretch_still_counts_under_strict():
    mt = labeled((R, 45 * 60), (D, 100), (R, 9 * 60), (D, 50), (R, 45 * 60))
    rests = classify_rests(mt)
    strict = daily_driving_spans(mt, rests, LETTER)
    assert [driving for _, _, driving in strict] == [100, 50]


def test_span_driving_sums_to_total_under_spirit_with_edges():
    rng = random.Random(23)
    for _ in range(30):
        runs = random_runs(rng, (3, 15), (1, 200))
        mt = labeled(*runs)
        rests = classify_rests(mt)
        spans = daily_driving_spans(mt, rests, SPIRIT)
        assert sum(driving for _, _, driving in spans) == mt.driving_minutes()


def test_periods_are_disjoint_and_ordered():
    rng = random.Random(37)
    for _ in range(30):
        runs = random_runs(rng, (3, 15), (1, 300))
        mt = labeled(*runs)
        rests = classify_rests(mt)
        assert rests == [
            i for i, (a, n) in enumerate(zip(mt.activities, mt.counts)) if a is R and n >= 15
        ]
