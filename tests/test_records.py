"""The value records of the check and diff path: construction, equality,
hash, immutability, repr and `replace`, one table row per class; then the
errors and defaults of the one binder, `Record.__init__`."""

import pickle

import pytest

import tachocheck
from tachocheck import (
    DivergenceReport,
    InterpretationProfile,
    LeapSecond,
    MinuteTrace,
    ProfileError,
    Report,
    SecondTrace,
    TimeGrid,
    TraceError,
    Violation,
    WeekPolicy,
    label_minutes,
)
from tachocheck.profiles import _KNOB_DEFAULTS
from tachocheck.timeline import Record, validate_leap_table
from traces import D, R

PROFILE_REPR = (
    "InterpretationProfile(id='p', leap_week_policy=<WeekPolicy.LETTER: 'Letter'>, "
    "rule51=<Rule51Semantics.NEIGHBOR_RULE52: 'NeighborRule52'>, "
    "weekly_gap=<WeeklyGapSemantics.SPIRIT: 'Spirit'>, trace_edge_is_rest=True, "
    "extended_attribution=<ExtendedAttribution.END_WEEK: 'EndWeek'>, "
    "daily_rest_threshold=540, attached_compensation=False, grid_offset=0)"
)
PROFILE = InterpretationProfile("p", WeekPolicy.LETTER)
VIOLATION = Violation("7", 0, 60, "d", "p")

# class, positional arguments, repr, a change that `__init__` refuses (or
# None) with the error it raises
RECORDS = [
    (
        LeapSecond,
        (0, -1),
        "LeapSecond(sunday_index=0, delta=-1)",
        {"delta": 2},
        (TraceError, "leap second delta must be -1 or +1, got 2"),
    ),
    (
        TimeGrid,
        (27,),
        "TimeGrid(minute_offset_seconds=27)",
        {"minute_offset_seconds": 60},
        (TraceError, "grid offset must be in [0, 60), got 60"),
    ),
    (
        SecondTrace,
        (0, (D, R), (60, 30)),
        "SecondTrace(start=0, activities=(<Activity.DRIVING: 'DRIVING'>, "
        "<Activity.REST: 'REST'>), seconds=(60, 30))",
        {"seconds": (60, 0)},
        (TraceError, "run duration must be positive, got 0"),
    ),
    (
        MinuteTrace,
        (300, (D,), (3,)),
        "MinuteTrace(start=300, activities=(<Activity.DRIVING: 'DRIVING'>,), counts=(3,))",
        {"activities": (D, R)},
        (TraceError, "2 activities but 1 lengths"),
    ),
    (
        InterpretationProfile,
        ("p", WeekPolicy.LETTER),
        PROFILE_REPR,
        {"grid_offset": 60},
        (ProfileError, "grid_offset must be in [0, 60), got 60"),
    ),
    (
        DivergenceReport,
        (("a", "b"), {}, (), {}),
        "DivergenceReport(profile_ids=('a', 'b'), verdicts={}, disagreements=(), notices={})",
        None,
        None,
    ),
    (
        Violation,
        ("7", 0, 60, "d", "p"),
        "Violation(article='7', window_start=0, window_end=60, detail='d', profile_id='p')",
        None,
        None,
    ),
    (
        Report,
        ("abc", 0, 90, 0, PROFILE, (VIOLATION,), {}, ()),
        f"Report(trace_digest='abc', trace_start=0, trace_seconds=90, grid_offset=0, "
        f"profile={PROFILE_REPR}, violations=({VIOLATION!r},), statistics={{}}, notices=())",
        None,
        None,
    ),
]


def test_the_table_covers_every_exported_record():
    exported = {
        value
        for value in vars(tachocheck).values()
        if isinstance(value, type) and issubclass(value, Record)
    }
    assert exported == {row[0] for row in RECORDS}


@pytest.mark.parametrize(
    "cls, args, text, bad, error", RECORDS, ids=[row[0].__name__ for row in RECORDS]
)
def test_record_behaviour(cls, args, text, bad, error):
    record = cls(*args)
    if cls is SecondTrace:
        # a trace keeps its last labels, which are no part of its value
        label_minutes(record, TimeGrid(0))
        assert record._labels is not None
    names = cls._fields
    assert record == cls(**dict(zip(names, args)))
    assert repr(record) == text

    # equal only within the same class, and not to a tuple of the values
    class Other(cls):
        pass

    assert record != Other(*args)
    assert record != tuple(getattr(record, name) for name in names)

    # the reports hold dicts and are unhashable, as they were
    if any(isinstance(getattr(record, name), dict) for name in names):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*args))

    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.undeclared = 1

    assert record.replace() == record
    changed = record.replace(**{names[0]: args[0]})
    assert changed == record and changed is not record
    with pytest.raises(TypeError):
        record.replace(undeclared=1)
    if bad is not None:
        kind, message = error
        with pytest.raises(kind) as info:
            record.replace(**bad)
        assert str(info.value) == message

    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(pickle.loads(pickle.dumps(record))) == text


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: Violation("7", 0, 60, "d", "p", "extra"),
            "Violation takes at most 5 arguments, got 6",
        ),
        (
            lambda: Violation("7", 0, 60, "d", "p", article="8.2"),
            "Violation got two values for 'article'",
        ),
        (lambda: Violation("7", 0, 60, "d"), "Violation got no value for 'profile_id'"),
        (
            lambda: Violation("7", 0, 60, "d", "p", window=0),
            "Violation got unknown fields ['window']",
        ),
        (lambda: Violation(article="7"), "Violation got no value for 'window_start'"),
        (lambda: InterpretationProfile(), "InterpretationProfile got no value for 'id'"),
    ],
    ids=["too-many", "twice", "missing", "unknown", "missing-by-name", "profile-without-id"],
)
def test_binding_errors(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_unbound_fields_take_their_defaults():
    assert TimeGrid() == TimeGrid(0)
    assert InterpretationProfile("p")._values[1:] == tuple(_KNOB_DEFAULTS.values())


def test_leap_table_error_quotes_the_entry_repr():
    with pytest.raises(TraceError) as info:
        validate_leap_table([LeapSecond(0, -1), LeapSecond(0, -1)])
    assert str(info.value) == (
        "bad leap table entry: LeapSecond(sunday_index=0, delta=-1) "
        "(that Sunday is already listed)"
    )
