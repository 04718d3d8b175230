"""Time model for second-resolution driver activity traces.

Instants are integer seconds counted from a fixed epoch. By convention the
epoch falls on a Monday 00:00, so calendar weeks (Monday 00:00 through
Sunday 24:00) are epoch-aligned and week arithmetic needs no real-world
calendar. Leap seconds are never fetched from anywhere: they are supplied
explicitly as a table of end-of-Sunday adjustments and default to none.
"""

from __future__ import annotations

import bisect
# OpenSSL's SHA-256 hashes about 5x faster than CPython's built-in `_sha256`
import hashlib
import itertools
import json
import re
from enum import Enum
from operator import attrgetter, is_, itemgetter
from typing import Iterable, Iterator, Sequence

SECONDS_PER_MINUTE = 60
SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


class TraceError(ValueError):
    """Invalid trace data or an ill-posed time computation."""


class TraceParseError(TraceError):
    """Trace text does not follow the record format."""


class WeekUndefinedError(TraceError):
    """Letter-policy week lookup on a Sunday whose 24:00 instant does not exist."""


class Activity(Enum):
    DRIVING = "DRIVING"
    REST = "REST"
    OTHER_WORK = "OTHER_WORK"


_ACTIVITY_BY_NAME = {act.value: act for act in Activity}
_ACTIVITY_BY_BYTES = {act.value.encode("ascii"): act for act in Activity}
# an activity's name as bytes, looked up by its `_value_`, the plain
# attribute behind the slower `value` property (an `Activity` key would be
# hashed by a Python method)
_NAME_BYTES = {act.value: act.value.encode("ascii") for act in Activity}
_VALUE = attrgetter("_value_")

# One record line as `to_records` writes it and the bulk parser reads it
_RECORD_LINE = b"%d,%s,%d\n"


class WeekPolicy(Enum):
    LETTER = "Letter"
    SPIRIT = "Spirit"


# A record's fields are assigned with this; `Record` refuses `=`.
set_field = object.__setattr__


class Record:
    """An immutable value with named fields.

    A subclass lists its fields in `_fields` and declares them (and any
    cached, derived attributes) in `__slots__`. `__init__` binds values by
    position, then by name, to `_fields` in order; a field left unbound
    takes its value from `_defaults`. A subclass with checks runs them after
    `super().__init__`. Two records are equal when they are of the same class
    and their fields are equal; the hash and the repr read the same fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    # the field values in `_fields` order, read by one `attrgetter` per class
    _values: tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:  # `get` returns the bare value, not a 1-tuple
            cls._values = property(lambda record: (get(record),))
        else:
            cls._values = property(get)

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        for name, value in zip(fields, values):
            set_field(self, name, value)
        if len(values) == len(fields) and not named:
            return
        cls = self.__class__.__name__
        if len(values) > len(fields):
            raise TypeError(f"{cls} takes at most {len(fields)} arguments, got {len(values)}")
        unknown = named.keys() - fields
        if unknown:
            raise TypeError(f"{cls} got unknown fields {sorted(unknown)}")
        for name in fields[: len(values)]:
            if name in named:
                raise TypeError(f"{cls} got two values for {name!r}")
        for name in fields[len(values) :]:
            if name in named:
                set_field(self, name, named[name])
            elif name in self._defaults:
                set_field(self, name, self._defaults[name])
            else:
                raise TypeError(f"{cls} got no value for {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, like `replace`
        return self.__class__, self._values

    def replace(self, **changes):
        """A copy with the given fields changed, built and validated by
        `__init__`; an unknown field name raises TypeError."""
        values = dict(zip(self._fields, self._values))
        values.update(changes)
        return self.__class__(**values)


class LeapSecond(Record):
    """A one-second adjustment at the end of the Sunday closing the given week."""

    __slots__ = _fields = ("sunday_index", "delta")

    def __init__(self, *values, **named) -> None:
        super().__init__(*values, **named)
        # delta: +1 second inserted, -1 second removed
        if self.delta not in (-1, 1):
            raise TraceError(f"leap second delta must be -1 or +1, got {self.delta}")


def parse_leap_table(text: str) -> tuple[LeapSecond, ...]:
    """Parse a JSON list of {"sunday_index": int, "delta": -1|+1} entries.

    Both fields must be JSON integers: a float, string, boolean or null is
    refused rather than truncated or coerced. The table must then pass
    `validate_leap_table`.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"leap table is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise TraceError("leap table must be a JSON list")
    entries = []
    for item in raw:
        if not isinstance(item, dict) or set(item) != {"sunday_index", "delta"}:
            raise TraceError(f"bad leap table entry: {item!r}")
        # bool is a subclass of int, so compare the exact type
        if type(item["sunday_index"]) is not int or type(item["delta"]) is not int:
            raise TraceError(
                f"bad leap table entry: {item!r} (sunday_index and delta must be integers)"
            )
        entries.append(LeapSecond(item["sunday_index"], item["delta"]))
    return validate_leap_table(entries)


def validate_leap_table(table: Sequence[LeapSecond]) -> tuple[LeapSecond, ...]:
    """The table as a tuple. A Sunday ends with at most one leap second, so
    a table naming the same `sunday_index` twice raises TraceError."""
    listed = set()
    for entry in table:
        if entry.sunday_index in listed:
            raise TraceError(f"bad leap table entry: {entry!r} (that Sunday is already listed)")
        listed.add(entry.sunday_index)
    return tuple(table)


class TimeGrid(Record):
    """Phase of the minute grid: minute boundaries sit at offset (mod 60)."""

    __slots__ = _fields = ("minute_offset_seconds",)
    _defaults = {"minute_offset_seconds": 0}

    def __init__(self, *values, **named) -> None:
        super().__init__(*values, **named)
        offset = self.minute_offset_seconds
        if not 0 <= offset < SECONDS_PER_MINUTE:
            raise TraceError(f"grid offset must be in [0, 60), got {offset}")

    def minute_start(self, index: int) -> int:
        return index * SECONDS_PER_MINUTE + self.minute_offset_seconds

    def first_full_minute(self, t: int) -> int:
        """Index of the first grid minute starting at or after t."""
        return -((self.minute_offset_seconds - t) // SECONDS_PER_MINUTE)


def maximal_columns(
    activities: Sequence[Activity], lengths: Sequence[int]
) -> tuple[tuple[Activity, ...], tuple[int, ...]]:
    """Parallel activity and length columns of maximal runs.

    Every length must be positive and the columns equally long. Columns in
    which no two neighbours share an activity are returned as they are,
    found so by two C-level scans; others are merged run by run.
    """
    activities, lengths = tuple(activities), tuple(lengths)
    if len(activities) != len(lengths):
        raise TraceError(f"{len(activities)} activities but {len(lengths)} lengths")
    if min(lengths, default=1) > 0 and not any(map(is_, activities[1:], activities)):
        return activities, lengths
    merged_activities: list[Activity] = []
    merged_lengths: list[int] = []
    current = None
    for activity, length in zip(activities, lengths):
        if length <= 0:
            raise TraceError(f"run duration must be positive, got {length}")
        if activity is current:
            merged_lengths[-1] += length
        else:
            merged_activities.append(activity)
            merged_lengths.append(length)
            current = activity
    return tuple(merged_activities), tuple(merged_lengths)


class SecondTrace(Record):
    """Per-second activity from a given instant on, held as maximal runs.

    The runs are held as two parallel columns: `activities[i]` lasts
    `seconds[i]` seconds. Construction merges adjacent runs of the same
    activity, so two traces compare equal exactly when they agree on every
    second. `segments`, the (activity, seconds) pairs, is derived on
    demand and costs one tuple per run.
    """

    _fields = ("start", "activities", "seconds")
    # `_bounds`: the instant each run starts, then the trace's end; `_digest`:
    # `digest()`, once computed; `_labels`: the labelings of the last grid
    # offset (see `minutes`)
    __slots__ = (*_fields, "_bounds", "_digest", "_labels")

    def __init__(
        self, start: int, activities: Sequence[Activity], seconds: Sequence[int]
    ) -> None:
        activities, seconds = maximal_columns(activities, seconds)
        if not seconds:
            raise TraceError("trace must cover at least one second")
        self._set_columns(
            start, activities, seconds, tuple(itertools.accumulate(seconds, initial=start))
        )

    @classmethod
    def _of_maximal(
        cls, start: int, activities: tuple, seconds: tuple[int, ...], bounds: tuple[int, ...]
    ) -> "SecondTrace":
        """The trace of columns its caller has proven to be what `__init__`
        builds: non-empty tuples of maximal runs, every length positive,
        with `bounds` their prefix sums from `start`. Nothing is checked."""
        trace = cls.__new__(cls)
        trace._set_columns(start, activities, seconds, bounds)
        return trace

    def _set_columns(self, start, activities, seconds, bounds) -> None:
        set_field(self, "start", start)
        set_field(self, "activities", activities)
        set_field(self, "seconds", seconds)
        set_field(self, "_bounds", bounds)
        set_field(self, "_digest", None)
        set_field(self, "_labels", None)

    @classmethod
    def from_runs(cls, start: int, runs: Iterable[tuple[Activity, int]]) -> "SecondTrace":
        """The trace of (activity, seconds) pairs, in time order."""
        runs = tuple(runs)
        return cls(start, tuple(map(itemgetter(0), runs)), tuple(map(itemgetter(1), runs)))

    @property
    def segments(self) -> tuple[tuple[Activity, int], ...]:
        """The (activity, seconds) pairs of the maximal runs, in time order."""
        return tuple(zip(self.activities, self.seconds))

    @property
    def duration(self) -> int:
        return self._bounds[-1] - self.start

    @property
    def end(self) -> int:
        return self._bounds[-1]

    def run_at(self, t: int) -> tuple[Activity, int, int]:
        """The maximal (activity, start instant, seconds) run containing t."""
        if not self.start <= t < self.end:
            raise TraceError(f"instant {t} outside trace [{self.start}, {self.end})")
        i = bisect.bisect_right(self._bounds, t) - 1
        return self.activities[i], self._bounds[i], self.seconds[i]

    def runs(self) -> Iterator[tuple[Activity, int, int]]:
        """The maximal (activity, start instant, seconds) runs, in time order."""
        return zip(self.activities, self._bounds, self.seconds)

    def truncated(self, end: int) -> "SecondTrace":
        """The prefix of this trace strictly before instant `end`.

        Public on purpose: README states the compensation-chain property as a
        verdict on an early week that changes when the trace is truncated."""
        if end <= self.start:
            raise TraceError("truncation would leave an empty trace")
        end = min(end, self.end)
        i = bisect.bisect_left(self._bounds, end) - 1  # the run holding second end - 1
        kept = end - self._bounds[i]
        return SecondTrace(self.start, self.activities[: i + 1], (*self.seconds[:i], kept))

    def _record_batches(self) -> Iterator[bytes]:
        # the record text, 4096 runs at a time, each batch rendered through
        # `_RECORD_LINE` by one formatting
        n = len(self.seconds)
        for lo in range(0, n, 4096):
            hi = min(lo + 4096, n)
            seconds = self.seconds[lo:hi]
            fields = [None] * (3 * len(seconds))
            fields[0::3] = self._bounds[lo:hi]
            fields[1::3] = map(_NAME_BYTES.__getitem__, map(_VALUE, self.activities[lo:hi]))
            fields[2::3] = seconds
            yield (_RECORD_LINE * len(seconds)) % tuple(fields)

    def digest(self) -> str:
        """SHA-256 of the canonical record text that `to_records` returns.

        It equals `sha256sum` of a trace file in that form, such as one
        written by `demo --out`. Runs are merged, so equal traces get
        equal digests, and the start is in the first line, so a shifted
        trace gets another. Computed on the first call and kept; the lines
        are hashed in batches, so the cost grows with the runs, not the
        seconds, and memory stays bounded.
        """
        if self._digest is None:
            h = hashlib.sha256()
            for batch in self._record_batches():
                h.update(batch)
            set_field(self, "_digest", h.hexdigest())
        return self._digest

    def to_records(self) -> str:
        return b"".join(self._record_batches()).decode("ascii")


def parse_trace(data: bytes | bytearray | memoryview | str) -> SecondTrace:
    """Parse the record-per-line text format into a trace.

    Each record is `start_second,ACTIVITY,duration_seconds`; records must be
    sorted and contiguous. A line ends at LF, CR LF or a lone CR.
    Blank lines and lines starting with '#' are skipped.

    A text that is `to_records()` of the records it holds, up to a missing
    final newline, is parsed in bulk, and when it is exactly `to_records()`
    of the trace (no two records merged), the trace's digest is the SHA-256
    of the input. Any other text is parsed line by line, which also words
    every error. Any other bytes-like input is copied to `bytes` first, so
    the caller's buffer is never changed.
    """
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError:
            return _parse_lines(data)  # not ASCII, so not canonical
    else:
        if not isinstance(data, bytes):
            # a memoryview refuses a non-buffer, where `bytes(n)` makes n zeros
            data = bytes(memoryview(data))
        raw = data
    trace = _parse_canonical(raw)
    if trace is not None:
        return trace
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise TraceParseError(f"trace is not ASCII text: {exc}") from exc
    return _parse_lines(data)


def _parse_canonical(raw: bytes) -> SecondTrace | None:
    """The trace of a canonical record text, else None.

    The text is canonical exactly when rendering the records it holds
    through `_RECORD_LINE`, each start the sum of the first start and the
    durations before it, gives back its bytes: that proves every number is
    spelled as `to_records` spells it, every name exact, every line three
    fields and the records contiguous. When, besides, the text ends in a
    line end and no two records merge, it is `to_records()` of the trace,
    whose digest is then the SHA-256 of `raw`.
    """
    # one-character `in` scans turn the usual non-canonical texts (CRLF line
    # ends, comments, padded fields) away before any field is split
    if not raw or b"\r" in raw or b"#" in raw or b" " in raw or b"\t" in raw:
        return None
    fields = raw.replace(b"\n", b",").split(b",")
    ended = raw[-1] == 10
    if ended:
        fields.pop()  # the empty field after the final line end
    else:
        raw += b"\n"  # a missing final line end is allowed
    runs, extra = divmod(len(fields), 3)
    if extra:
        return None
    try:
        start = int(fields[0])
        durations = tuple(map(int, fields[2::3]))
        activities = tuple(map(_ACTIVITY_BY_BYTES.__getitem__, fields[1::3]))
        if min(durations) <= 0:
            return None  # the line parser words it
        fields[0::3] = itertools.accumulate(durations[:-1], initial=start)
        fields[2::3] = durations
        if (_RECORD_LINE * runs) % tuple(fields) != raw:
            return None
    except (KeyError, ValueError):  # `%d`, like `int`, refuses over 4,300 digits
        return None
    # the run starts just rendered, then the end: read back after the
    # rendering, so that they add nothing to its peak
    bounds = (*fields[0::3], fields[-3] + durations[-1])
    del fields  # the field objects outweigh the trace; free them first
    if any(map(is_, activities[1:], activities)):
        return SecondTrace(start, activities, durations)  # merges the split records
    trace = SecondTrace._of_maximal(start, activities, durations, bounds)
    if ended:
        set_field(trace, "_digest", hashlib.sha256(raw).hexdigest())
    return trace


# A line ends at "\n", "\r\n" or a lone "\r", never at the other characters
# `str.splitlines` breaks at ("\v", "\f", "\x1c"-"\x1e", "\x85", ...).
_LINE_END = re.compile("\r\n|\r|\n")


def _parse_lines(text: str) -> SecondTrace:
    # One pass builds the columns and checks contiguity. A format error on
    # any line wins over a gap or overlap, so the first disorder is only
    # remembered here and raised once every line has parsed.
    activities: list[Activity] = []
    durations: list[int] = []
    first = expected = None
    disorder = None
    for lineno, raw in enumerate(_LINE_END.split(text), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise TraceParseError(
                f"line {lineno}: expected 'start,ACTIVITY,duration', got {line!r}"
            )
        try:
            start = int(parts[0])
            duration = int(parts[2])
        except ValueError:
            raise TraceParseError(f"line {lineno}: non-integer field in {line!r}") from None
        name = parts[1].strip()
        activity = _ACTIVITY_BY_NAME.get(name)
        if activity is None:
            raise TraceParseError(f"line {lineno}: unknown activity {name!r}")
        if duration <= 0:
            raise TraceParseError(f"line {lineno}: duration must be positive")
        if start != expected:
            if first is None:
                first = start
            elif disorder is None:
                disorder = (start, expected)
        expected = start + duration
        activities.append(activity)
        durations.append(duration)

    if first is None:
        raise TraceParseError("trace contains no records")
    if disorder is not None:
        start, expected = disorder
        if start < expected:
            raise TraceParseError(
                f"records overlap or are unsorted at second {start} (expected {expected})"
            )
        raise TraceParseError(
            f"gap of {start - expected} s before record starting at second {start}"
        )
    return SecondTrace(first, activities, durations)


class Calendar:
    """The week arithmetic of one check: a leap table and a week policy.

    The table is validated on construction, so a Calendar is always valid.
    The Sundays are kept sorted with the prefix sums of their deltas, so
    `monday` costs one bisection, not a pass over the table.
    """

    def __init__(
        self, leap_table: Sequence[LeapSecond] = (), policy: WeekPolicy = WeekPolicy.SPIRIT
    ) -> None:
        self.leap_table = validate_leap_table(leap_table)
        self.policy = policy
        entries = sorted(self.leap_table, key=attrgetter("sunday_index"))
        self._sundays = tuple(ls.sunday_index for ls in entries)
        self._shifts = tuple(itertools.accumulate((ls.delta for ls in entries), initial=0))
        self._undefined = frozenset(ls.sunday_index for ls in entries if ls.delta == -1)

    def spirit(self) -> "Calendar":
        """The same table under the Spirit policy."""
        return Calendar(self.leap_table)

    def monday(self, week: int) -> int:
        """Instant at which the given calendar week begins (Monday 00:00)."""
        return week * SECONDS_PER_WEEK + self._shifts[bisect.bisect_left(self._sundays, week)]

    def mondays(self, first: int, stop: int) -> list[int]:
        """`monday(w)` for every week w in range(first, stop), in one pass:
        one bisection, then one run of equal shifts per table Sunday."""
        out: list[int] = []
        i = bisect.bisect_left(self._sundays, first)
        week = first
        while week < stop:
            # the weeks through the next table Sunday share its shift
            upto = min(stop, self._sundays[i] + 1) if i < len(self._sundays) else stop
            shift = self._shifts[i]
            begin, end = week * SECONDS_PER_WEEK + shift, upto * SECONDS_PER_WEEK + shift
            out += range(begin, end, SECONDS_PER_WEEK)
            week = upto
            i += 1
        return out

    def week_of(self, t: int) -> int:
        """Calendar week containing instant t.

        Under the Spirit policy a week simply ends when its Sunday ends, leap
        seconds included. Under the Letter policy a negative leap second on
        the closing Sunday removes the Sunday-24:00 instant the week
        definition hangs on, so the lookup is refused.
        """
        week = t // SECONDS_PER_WEEK
        while t < self.monday(week):
            week -= 1
        while t >= self.monday(week + 1):
            week += 1
        if self.policy is WeekPolicy.LETTER and week in self._undefined:
            raise WeekUndefinedError(
                f"week {week}: its Sunday ends at 23:59:59 and the 24:00 "
                "instant the week definition refers to does not exist"
            )
        return week

    def complete_weeks(self, start: int, end: int) -> range:
        """Weeks whose full [Monday 00:00, Sunday 24:00) interval [start,
        end) covers: from the week after the one holding start - 1 to the
        week before the one holding end."""
        return range(self.week_of(start - 1) + 1, self.week_of(end))


def shift_grid(trace: SecondTrace, offset: int) -> SecondTrace:
    """Displace a trace by `offset` seconds without changing its content.

    Used to compare how the same physical recording reads against two minute
    grids whose origins differ, e.g. timestamps with and without accumulated
    leap seconds.
    """
    return SecondTrace(trace.start + offset, trace.activities, trace.seconds)
