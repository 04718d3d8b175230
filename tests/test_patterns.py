import time

import pytest

from tachocheck.minutes import label_minutes
from tachocheck.patterns import (
    PatternNotFoundError,
    find_shift_divergent,
    gen_compensation_chain,
    gen_pattern,
    gen_weekly_sandwich,
    is_shift_divergent,
)
from tachocheck.rules import check_all
from tachocheck.timeline import (
    SECONDS_PER_WEEK,
    Activity,
    Calendar,
    SecondTrace,
    TimeGrid,
    parse_trace,
)
from traces import BUILTINS, GRID, LETTER, SPIRIT, D, R, labels


def test_gen_pattern_shapes():
    one_hour_blocks = gen_pattern(1, 3600, 60)
    assert one_hour_blocks.duration == 7260
    micro = gen_pattern(1, 60, 120)
    assert micro.duration == 240
    assert label_minutes(micro, GRID).driving_minutes() == 2
    long = gen_pattern(135, 60, 120)
    assert long.duration == 135 * 240


def test_gen_pattern_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gen_pattern(0, 60, 60)
    with pytest.raises(ValueError):
        gen_pattern(1, -5, 60)
    with pytest.raises(ValueError):
        gen_pattern(1, 60, 0)


def test_one_minute_stop_merges_into_one_driving_period():
    mt = label_minutes(gen_pattern(1, 3600, 60), GRID)
    assert mt.driving_minutes() == 121


def test_two_minute_stop_splits_the_labels_but_not_the_period():
    mt = label_minutes(gen_pattern(1, 3600, 120), GRID)
    assert mt.driving_minutes() == 120
    rests = [i for i, label in enumerate(labels(mt)) if label is Activity.REST]
    assert rests == [60, 61]


def test_generators_roundtrip_through_the_parser():
    for trace in (
        gen_pattern(3, 45, 75),
        gen_weekly_sandwich(),
        find_shift_divergent(),
        gen_compensation_chain(2),
    ):
        assert parse_trace(trace.to_records()) == trace


def test_weekly_sandwich_numbers():
    trace = gen_weekly_sandwich()
    mt = label_minutes(trace, GRID)
    assert mt.driving_minutes() == 810
    assert trace.duration == (45 + 45) * 3600 + 3 * 16200 + 2 * 2700


def test_weekly_sandwich_verdicts_split_by_profile():
    trace = gen_weekly_sandwich()
    strict = check_all(trace, GRID, LETTER)
    spirit = check_all(trace, GRID, SPIRIT)
    assert [v.article for v in strict.violations] == []
    assert [v.article for v in spirit.violations] == ["6.1"]


def test_single_minute_label_flips_with_the_grid_phase():
    # 31 s rest, 29 s driving per minute: rest wins on the aligned grid; the
    # 27 s phase sees the 29 s driving run flanked by 4 s and 27 s of rest
    trace = SecondTrace.from_runs(0, [(R, 31), (D, 29)] * 2)
    aligned = label_minutes(trace, TimeGrid(0))
    shifted = label_minutes(trace, TimeGrid(27))
    assert labels(aligned) == (Activity.REST, Activity.REST)
    assert labels(shifted) == (Activity.DRIVING,)


def test_find_shift_divergent_is_a_genuine_witness():
    start = time.perf_counter()
    trace = find_shift_divergent()
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    assert trace.duration <= 300 * 60
    assert is_shift_divergent(trace)
    unix = check_all(trace, TimeGrid(0), BUILTINS["unix-grid"])
    utc = check_all(trace, TimeGrid(27), BUILTINS["utc-grid"])
    verdicts = {len(unix.violations) == 0, len(utc.violations) == 0}
    assert verdicts == {True, False}
    flagged = unix.violations or utc.violations
    assert any(v.article == "7" for v in flagged)


def test_find_shift_divergent_validates_bounds():
    with pytest.raises(PatternNotFoundError):
        find_shift_divergent(offsets=(5, 5))


@pytest.mark.parametrize("offsets", [(5, 32), (0, 33), (27, 0), (40, 7)])
def test_find_shift_divergent_handles_other_offset_pairs(offsets):
    trace = find_shift_divergent(offsets)
    assert is_shift_divergent(trace, offsets)


def test_displacing_the_recording_by_27s_changes_driving_totals():
    # the same physical recording anchored 27 s later reads differently
    # against one fixed minute grid
    from tachocheck.timeline import shift_grid

    trace = find_shift_divergent((0, 33))
    base = label_minutes(trace, GRID).driving_minutes()
    displaced = label_minutes(shift_grid(trace, 27), GRID).driving_minutes()
    assert base != displaced


def test_grid_aligned_trace_is_not_divergent():
    trace = SecondTrace.from_runs(0, [(D, 120), (R, 180), (D, 60)])
    assert not is_shift_divergent(trace, (0, 0))
    # runs aligned to whole minutes on both grids shift cleanly
    aligned = SecondTrace.from_runs(0, [(D, 300), (R, 300)])
    padded = SecondTrace.from_runs(0, [(D, 27), (D, 300), (R, 300), (R, 33)])
    g0 = label_minutes(padded, TimeGrid(27))
    g1 = label_minutes(aligned, TimeGrid(0))
    assert g0.driving_minutes() == g1.driving_minutes()


def test_compensation_chain_rejects_bad_depths():
    with pytest.raises(ValueError):
        gen_compensation_chain(1)
    with pytest.raises(ValueError):
        gen_compensation_chain(1000)


def test_compensation_chain_structure():
    k = 2
    trace = gen_compensation_chain(k)
    assert trace.duration == (k + 3) * SECONDS_PER_WEEK
    mt = label_minutes(trace, GRID)
    # week 0 leads with a 24 h rest, week k with a 66 h rest
    runs = list(trace.runs())
    assert runs[0] == (Activity.REST, 0, 24 * 3600)
    fat = [r for r in runs if r[1] == k * SECONDS_PER_WEEK]
    assert fat[0][0] is Activity.REST and fat[0][2] == 66 * 3600


@pytest.mark.parametrize("k", [2, 3, 5])
def test_week0_verdict_flips_when_the_chain_is_cut(k):
    trace = gen_compensation_chain(k)
    full = check_all(trace, GRID, SPIRIT)
    assert full.violations == ()

    cut = check_all(trace.truncated(Calendar().monday(k)), GRID, SPIRIT)
    week0 = [
        v
        for v in cut.violations
        if v.article == "8.6" and v.window_start == 0
    ]
    assert len(week0) == 1
