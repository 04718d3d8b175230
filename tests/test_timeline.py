import gc
import hashlib
import json
import random
import tracemalloc

import pytest

import spec
from tachocheck import timeline
from tachocheck.minutes import MinuteTrace, label_minutes
from tachocheck.timeline import (
    SECONDS_PER_WEEK,
    Activity,
    Calendar,
    LeapSecond,
    SecondTrace,
    TimeGrid,
    TraceError,
    TraceParseError,
    WeekPolicy,
    WeekUndefinedError,
    maximal_columns,
    parse_leap_table,
    parse_trace,
    shift_grid,
)
from traces import D, O, R, minutes_of, random_runs, trace_of


def test_parse_single_record():
    trace = parse_trace("0,DRIVING,60")
    assert trace.start == 0
    assert trace.duration == 60
    assert spec.codes(trace) == b"D" * 60


def test_parse_two_records_contiguous():
    trace = parse_trace("0,REST,30\n30,DRIVING,30")
    assert trace.duration == 60
    assert trace.run_at(0)[0] is Activity.REST
    assert trace.run_at(29)[0] is Activity.REST
    assert trace.run_at(30)[0] is Activity.DRIVING
    assert trace.run_at(59)[0] is Activity.DRIVING


def test_parse_gap_is_error():
    with pytest.raises(TraceParseError, match="gap"):
        parse_trace("0,DRIVING,60\n120,REST,60")


def test_parse_overlap_is_error():
    with pytest.raises(TraceParseError, match="overlap"):
        parse_trace("0,DRIVING,60\n30,REST,60")


def test_parse_unknown_activity():
    with pytest.raises(TraceParseError, match="unknown activity"):
        parse_trace("0,NAPPING,60")


def test_parse_malformed_line_reports_lineno():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace("0,DRIVING,60\nthis is not a record")


def test_a_form_feed_does_not_end_a_line():
    # `str.splitlines` would read two records here; the file has one line
    with pytest.raises(TraceParseError, match="^line 1: expected 'start,ACTIVITY,duration'"):
        parse_trace(b"0,DRIVING,60\f60,REST,60\n")


@pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", " "])
def test_errors_name_the_line_counted_at_line_ends(char):
    # the character is whitespace at the end of line 1, so line 1 is valid
    # and the error is on line 2, not on a line 3 that `splitlines` counts
    text = f"0,DRIVING,60{char}\n60,BAD,60\n"
    with pytest.raises(TraceParseError, match="^line 2: unknown activity 'BAD'$"):
        parse_trace(text)
    if char.isascii():
        with pytest.raises(TraceParseError, match="^line 2: unknown activity 'BAD'$"):
            parse_trace(text.encode("ascii"))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_lf_crlf_and_lone_cr_texts_give_the_same_trace(newline):
    lines = ["# two records", "0,DRIVING,60", "", "60,REST,90"]
    expected = SecondTrace.from_runs(0, [(D, 60), (R, 90)])
    for final in ("", newline):
        text = newline.join(lines) + final
        assert parse_trace(text) == parse_trace(text.encode("ascii")) == expected
    with pytest.raises(TraceParseError, match="^line 4: unknown activity"):
        parse_trace(newline.join([*lines[:3], "60,BAD,90"]))


@pytest.mark.parametrize("final", ["", "\n"])
@pytest.mark.parametrize("comment", ["", "# two records\n"])
def test_bytearray_and_memoryview_parse_like_their_bytes(final, comment):
    # bulk parsed, or line by line after a comment; either way the caller's
    # buffer is read, never extended by the missing final line end
    data = (comment + "0,DRIVING,60\n60,REST,90" + final).encode("ascii")
    expected = parse_trace(data)
    buffer = bytearray(data)
    for view in (buffer, memoryview(data)):
        trace = parse_trace(view)
        assert trace == expected and trace.digest() == expected.digest()
    assert buffer == data


def test_parse_empty_input():
    with pytest.raises(TraceParseError, match="no records"):
        parse_trace("\n# only a comment\n")


def test_parse_nonpositive_duration():
    with pytest.raises(TraceParseError, match="positive"):
        parse_trace("0,DRIVING,0")


def test_roundtrip_records():
    rng = random.Random(7)
    for _ in range(25):
        runs = random_runs(rng, (1, 12), (1, 500))
        trace = SecondTrace.from_runs(rng.randint(0, 10_000), runs)
        assert parse_trace(trace.to_records()) == trace


def test_runs_merges_adjacent_same_activity():
    trace = trace_of((D, 10), (D, 5), (R, 3))
    assert list(trace.runs()) == [(D, 0, 15), (R, 15, 3)]
    parsed = parse_trace("0,DRIVING,10\n10,DRIVING,5\n15,REST,3")
    assert parsed == trace_of((D, 15), (R, 3))
    assert parsed.digest() == trace_of((D, 15), (R, 3)).digest()


def test_parsing_a_long_record_allocates_no_per_second_storage():
    tracemalloc.start()
    try:
        trace = parse_trace("0,REST,100000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.duration == 100_000_000
    assert peak < 1_000_000


def test_bulk_parse_peaks_below_twice_the_line_parser():
    rng = random.Random(6)
    runs = [(activity, rng.randint(1, 20_000)) for activity in [D, R, O, R] * 1_600]
    text = SecondTrace.from_runs(1_700_000_000, runs).to_records()
    # a trailing comment sends the same records through the line parser
    assert timeline._parse_canonical(text.encode("ascii")) is not None
    assert timeline._parse_canonical(text.encode("ascii") + b"# end\n") is None
    peaks = []
    for data in (text, text + "# end\n"):
        tracemalloc.start()
        try:
            parse_trace(data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    bulk, line_by_line = peaks
    assert bulk < 2 * line_by_line, peaks


def test_parsing_and_labeling_keep_no_per_run_object_alive():
    # a tuple per run outlives the call and is promoted through the garbage
    # collector's generations; columns keep a few objects whatever the runs
    rng = random.Random(12)
    runs = [(activity, rng.randint(1, 20_000)) for activity in [D, R, O, R] * 1_600]
    text = SecondTrace.from_runs(1_700_000_000, runs).to_records()
    label_minutes(parse_trace("0,REST,120\n"), TimeGrid())  # warm up
    gc.collect()
    before = len(gc.get_objects())
    trace = parse_trace(text)
    mt = label_minutes(trace, TimeGrid())
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert len(trace.segments) >= 6_000 and len(mt.segments) >= 6_000
    assert kept <= 16, kept


def test_digesting_many_short_runs_keeps_memory_bounded():
    trace = trace_of(*[(D, 50), (R, 50)] * 30_000)
    tracemalloc.start()
    try:
        trace.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.duration == 3_000_000
    assert peak < 1_000_000


def _sha256_of_records(trace: SecondTrace) -> str:
    return hashlib.sha256(trace.to_records().encode()).hexdigest()


def test_digest_is_the_sha256_of_the_record_text():
    rng = random.Random(5)
    for _ in range(200):
        # uncoalesced run lists, starting on or off the minute grid
        runs = [
            (rng.choice([D, R, O]), rng.choice([1, 59, 60, 61, rng.randint(1, 10**6)]))
            for _ in range(rng.randint(1, 40))
        ]
        trace = SecondTrace.from_runs(rng.choice([0, 30, rng.randint(0, 10**9)]), runs)
        assert trace.digest() == _sha256_of_records(trace)


@pytest.mark.parametrize("count", [4095, 4096, 4097, 2 * 4096 + 1])
def test_digest_covers_every_batch_of_lines(count):
    trace = trace_of(*[(D, 1), (R, 2), (O, 3)] * (count // 3), *[(D, 4), (R, 5)][: count % 3])
    assert len(trace.segments) == count
    assert trace.digest() == _sha256_of_records(trace)


def test_digest_hashes_the_record_text_whatever_the_duration(monkeypatch):
    hashed = []
    sha256 = timeline.hashlib.sha256

    class CountingSha256:
        def __init__(self, *args):
            self._h = sha256(*args)
            hashed.extend(args)

        def update(self, data):
            hashed.append(data)
            self._h.update(data)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(timeline.hashlib, "sha256", CountingSha256)
    trace = parse_trace("0,REST,1000000000")
    trace.digest()
    assert sum(map(len, hashed)) == len(trace.to_records()) == len("0,REST,1000000000\n")

def test_week_of_epoch_anchor():
    assert Calendar().week_of(0) == 0
    assert Calendar().monday(0) == 0


def test_week_of_boundary():
    assert Calendar().week_of(7 * 86400 - 1) == 0
    assert Calendar().week_of(7 * 86400) == 1


def test_week_of_monotone_under_random_leap_tables():
    rng = random.Random(13)
    for _ in range(20):
        table = tuple(
            LeapSecond(sunday_index=i, delta=rng.choice([-1, 1]))
            for i in sorted(rng.sample(range(10), rng.randint(0, 4)))
        )
        instants = sorted(rng.randint(0, 12 * SECONDS_PER_WEEK) for _ in range(50))
        weeks = [Calendar(table).week_of(t) for t in instants]
        assert weeks == sorted(weeks)


def test_letter_policy_rejects_missing_sunday_midnight():
    table = (LeapSecond(sunday_index=0, delta=-1),)
    letter = Calendar(table, WeekPolicy.LETTER)
    with pytest.raises(WeekUndefinedError):
        letter.week_of(3600)
    # other weeks unaffected
    assert letter.week_of(SECONDS_PER_WEEK + 10) == 1
    # the same table under Spirit answers
    assert letter.spirit().week_of(3600) == 0


def test_spirit_policy_shifts_boundary_with_leap():
    spirit = Calendar((LeapSecond(sunday_index=0, delta=-1),))
    assert spirit.week_of(SECONDS_PER_WEEK - 2) == 0
    assert spirit.week_of(SECONDS_PER_WEEK - 1) == 1
    assert spirit.monday(1) == SECONDS_PER_WEEK - 1


def test_positive_leap_extends_week():
    table = (LeapSecond(sunday_index=0, delta=1),)
    assert Calendar(table).week_of(SECONDS_PER_WEEK) == 0
    assert Calendar(table).week_of(SECONDS_PER_WEEK + 1) == 1
    # a positive leap leaves Sunday 24:00 in place, so Letter accepts it
    assert Calendar(table, WeekPolicy.LETTER).week_of(10) == 0


def test_parse_leap_table():
    table = parse_leap_table('[{"sunday_index": 3, "delta": -1}]')
    assert table == (LeapSecond(3, -1),)
    with pytest.raises(TraceError):
        parse_leap_table('[{"sunday_index": 3, "delta": 2}]')
    with pytest.raises(TraceError):
        parse_leap_table('[{"sunday": 3, "delta": 1}]')
    # both fields are JSON integers: nothing is truncated or coerced
    for index, delta in [
        ("null", "1"),
        ("2.7", "1"),
        ('"3"', "1"),
        ("true", "1"),
        ("3", "null"),
        ("3", "1.0"),
        ("3", '"-1"'),
        ("3", "true"),
    ]:
        bad = f'{{"sunday_index": {index}, "delta": {delta}}}'
        text = f'[{{"sunday_index": 1, "delta": 1}}, {bad}]'
        with pytest.raises(TraceError, match="bad leap table entry") as info:
            parse_leap_table(text)
        assert repr(json.loads(text)[1]) in str(info.value)
    # a Sunday is named once: a second entry for it, of either sign, is refused
    for delta in (-1, 1):
        text = f'[{{"sunday_index": 0, "delta": 1}}, {{"sunday_index": 0, "delta": {delta}}}]'
        with pytest.raises(TraceError, match="that Sunday is already listed"):
            parse_leap_table(text)


def test_shift_grid_identity():
    trace = minutes_of((D, 3), (R, 2))
    assert shift_grid(trace, 0) == trace


def test_shift_grid_displaces_only_start():
    trace = minutes_of((D, 3), (R, 2))
    shifted = shift_grid(trace, 27)
    assert shifted.start == 27
    assert spec.codes(shifted) == spec.codes(trace)


def test_shift_by_full_minute_shifts_labels_by_index():
    trace = minutes_of((D, 3), (R, 2), (D, 1))
    grid = TimeGrid(0)
    base = label_minutes(trace, grid)
    shifted = label_minutes(shift_grid(trace, 60), grid)
    assert shifted == base.replace(start=base.start + 60)
    # moving the trace and the grid together moves only the start
    moved = label_minutes(shift_grid(trace, 27), TimeGrid(27))
    assert moved == base.replace(start=base.start + 27)


def test_every_second_has_one_activity_and_week():
    trace = minutes_of((D, 4), (O, 2), (R, 4))
    seen = 0
    for activity, start, seconds in trace.runs():
        for t in range(start, start + seconds):
            assert trace.run_at(t)[0] is activity
            Calendar().week_of(t)
            seen += 1
    assert seen == trace.duration


def test_run_at_refuses_an_instant_outside_the_trace():
    trace = trace_of((D, 30), (R, 30), start=-10)
    assert trace.run_at(-10) == (Activity.DRIVING, -10, 30)
    assert trace.run_at(49) == (Activity.REST, 20, 30)
    for t in (-11, 50, 10**12):
        with pytest.raises(TraceError, match=rf"instant {t} outside trace \[-10, 50\)"):
            trace.run_at(t)


def test_truncated():
    trace = minutes_of((D, 3), (R, 2))
    cut = trace.truncated(60)
    assert cut.duration == 60
    # a cut at a run boundary keeps the whole run before it
    assert trace.truncated(180) == minutes_of((D, 3))
    with pytest.raises(TraceError):
        trace.truncated(0)


def test_truncated_keeps_the_seconds_before_the_cut():
    rng = random.Random(7)
    for _ in range(300):
        runs = random_runs(rng, (1, 12), (1, 90))
        trace = trace_of(*runs, start=rng.randint(-100, 100))
        # cuts inside, at the edges of and beyond the runs
        end = trace.start + rng.randint(1, trace.duration + 10)
        cut = trace.truncated(end)
        assert spec.codes(cut) == spec.codes(trace)[: end - trace.start]
        assert cut.start == trace.start and cut.digest() == _sha256_of_records(cut)


def test_grid_validation():
    with pytest.raises(TraceError):
        TimeGrid(60)
    with pytest.raises(TraceError):
        TimeGrid(-1)


def test_digest_is_stable():
    trace = minutes_of((D, 3), (R, 2))
    first = trace.digest()
    assert first == _sha256_of_records(trace)
    assert trace.digest() is first
    assert trace.digest() != shift_grid(trace, 1).digest()


def test_copies_of_a_digested_trace_get_their_own_digest():
    trace = minutes_of((D, 3), (R, 2), start=30)
    trace.digest()
    copies = (
        shift_grid(trace, 7),
        trace.truncated(trace.start + 100),
        SecondTrace.from_runs(5, trace.segments),
        SecondTrace(trace.start, (O,), (300,)),
        trace.replace(start=5),
    )
    for copy in copies:
        assert copy.digest() == _sha256_of_records(copy)
        assert copy.digest() != trace.digest()


def test_digesting_one_of_two_equal_traces_keeps_them_equal():
    a = minutes_of((D, 3), (R, 2))
    b = minutes_of((D, 1), (D, 2), (R, 2))
    a.digest()
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_coalesce_rejects_a_non_positive_length_on_every_run():
    with pytest.raises(TraceError):
        maximal_columns((D, D), (5, 0))
    with pytest.raises(TraceError):
        SecondTrace.from_runs(0, ((D, 5), (D, -1)))


def test_every_constructor_rejects_a_non_positive_length_between_other_activities():
    for length in (0, -1):
        with pytest.raises(TraceError, match="positive"):
            SecondTrace(0, (D, R, D), (5, length, 5))
        with pytest.raises(TraceError, match="positive"):
            SecondTrace.from_runs(0, ((D, 5), (R, length), (D, 5)))
        with pytest.raises(TraceError, match="positive"):
            MinuteTrace(0, (D, R), (5, length))


def test_every_constructor_rejects_columns_of_unequal_length():
    with pytest.raises(TraceError, match="2 activities but 1 lengths"):
        SecondTrace(0, (D, R), (5,))
    with pytest.raises(TraceError, match="1 activities but 2 lengths"):
        MinuteTrace(0, (D,), (5, 5))
