"""Interpretation profiles: the closed ledger of ambiguity resolutions.

Every place where the rule text under-determines behaviour is a named knob
here. A profile assigns a value to every knob, so that a compliance verdict
is always relative to an explicit, auditable set of legal readings. Profiles
are data (JSON), not code.

A knob is one entry of `_KNOB_DEFAULTS` and nothing else: the fields of
`InterpretationProfile`, its `__init__`, `to_dict` and `parse_profile` all
walk that table, and the type of a knob's default fixes how its JSON value
is read (an Enum by its value, a bool or an int only as exactly that JSON
type).
"""

from __future__ import annotations

import json
from enum import Enum
from operator import attrgetter
from typing import Sequence

from .minutes import Rule51Semantics
from .report import DivergenceReport
from .timeline import LeapSecond, Record, SecondTrace, TimeGrid, WeekPolicy, set_field


class ProfileError(ValueError):
    """Malformed profile data."""


class WeeklyGapSemantics(Enum):
    # Strict: driving squeezed between two weekly rests defines no daily
    # driving time at all; Spirit: every rest-to-rest stretch does.
    STRICT = "Strict"
    SPIRIT = "Spirit"


class ExtendedAttribution(Enum):
    # Which week an extended daily driving time crossing Sunday 24:00 counts
    # against.
    START_WEEK = "StartWeek"
    END_WEEK = "EndWeek"
    MINIMIZE_VIOLATIONS = "MinimizeViolations"


# knob name -> its default, in field order; `id` has no default and is not a knob
_KNOB_DEFAULTS = {
    "leap_week_policy": WeekPolicy.SPIRIT,
    "rule51": Rule51Semantics.NEIGHBOR_RULE52,
    "weekly_gap": WeeklyGapSemantics.SPIRIT,
    "trace_edge_is_rest": True,
    "extended_attribution": ExtendedAttribution.END_WEEK,
    "daily_rest_threshold": 540,  # minutes; 9 h
    "attached_compensation": False,
    "grid_offset": 0,  # seconds
}


class InterpretationProfile(Record):
    """An `id` and a value for every knob; omitted knobs take their defaults.

    The knobs follow `id` in `_KNOB_DEFAULTS` order, positionally or by
    name.
    """

    __slots__ = _fields = ("id", *_KNOB_DEFAULTS)

    def __init__(self, id: str, *knob_values, **knobs) -> None:
        if len(knob_values) > len(_KNOB_DEFAULTS):
            raise TypeError(
                f"InterpretationProfile takes at most {len(self._fields)} arguments, "
                f"got {1 + len(knob_values)}"
            )
        for name, value in zip(_KNOB_DEFAULTS, knob_values):
            if name in knobs:
                raise TypeError(f"InterpretationProfile got two values for {name!r}")
            knobs[name] = value
        unknown = knobs.keys() - _KNOB_DEFAULTS.keys()
        if unknown:
            raise TypeError(f"InterpretationProfile got unknown knobs {sorted(unknown)}")
        if not id:
            raise ProfileError("profile id must be non-empty")
        set_field(self, "id", id)
        for name, default in _KNOB_DEFAULTS.items():
            set_field(self, name, knobs.get(name, default))
        if not 15 <= self.daily_rest_threshold <= 1440:
            raise ProfileError(
                f"daily_rest_threshold must be in [15, 1440] minutes, "
                f"got {self.daily_rest_threshold}"
            )
        if not 0 <= self.grid_offset < 60:
            raise ProfileError(f"grid_offset must be in [0, 60), got {self.grid_offset}")

    def grid(self) -> TimeGrid:
        return TimeGrid(self.grid_offset)

    def to_dict(self) -> dict:
        values = zip(self._fields, self._values)
        return {name: v.value if isinstance(v, Enum) else v for name, v in values}


_KNOB_TYPES = {name: type(default) for name, default in _KNOB_DEFAULTS.items()}
_TYPE_NAMES = {bool: "a boolean", int: "an integer"}


def _knob_value(name: str, value):
    kind = _KNOB_TYPES[name]
    if issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            choices = ", ".join(member.value for member in kind)
            problem = f"invalid value {value!r}; expected one of: {choices}"
    elif type(value) is kind:  # bool subclasses int, so no isinstance
        return value
    else:
        problem = f"expected {_TYPE_NAMES[kind]}, got {value!r}"
    raise ProfileError(f"knob {name!r}: {problem}")


def parse_profile(text: str, default_id: str | None = None) -> InterpretationProfile:
    """Parse a profile JSON object.

    Unknown keys are rejected so a typo cannot silently fall back to a
    default reading. Omitted knobs take the documented defaults.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProfileError("profile must be a JSON object")

    unknown = set(raw) - set(_KNOB_TYPES) - {"id"}
    if unknown:
        raise ProfileError(f"unknown profile keys: {sorted(unknown)}")

    kwargs = {}
    for key, value in raw.items():
        if key != "id":
            kwargs[key] = _knob_value(key, value)
        elif isinstance(value, str):
            kwargs["id"] = value
        else:
            raise ProfileError("profile id must be a string")

    if "id" not in kwargs:
        if default_id is None:
            raise ProfileError("profile has no id and no default was supplied")
        kwargs["id"] = default_id
    return InterpretationProfile(**kwargs)


def load_profile(path) -> InterpretationProfile:
    from pathlib import Path

    p = Path(path)
    return parse_profile(p.read_text(encoding="utf-8"), default_id=p.stem)


def builtin_profiles() -> dict[str, InterpretationProfile]:
    """Named reference profiles.

    `letter` takes every literal reading, `spirit` every purposive one;
    `unix-grid` and `utc-grid` differ only in the 27-second phase between a
    leap-second-blind minute grid and one that honours accumulated leap
    seconds.
    """
    spirit = InterpretationProfile(id="spirit")
    letter = spirit.replace(
        id="letter",
        leap_week_policy=WeekPolicy.LETTER,
        weekly_gap=WeeklyGapSemantics.STRICT,
        trace_edge_is_rest=False,
    )
    unix_grid = spirit.replace(id="unix-grid", grid_offset=0)
    utc_grid = spirit.replace(id="utc-grid", grid_offset=27)
    return {p.id: p for p in (letter, spirit, unix_grid, utc_grid)}


def diff_verdicts(
    trace: SecondTrace,
    profiles: Sequence[InterpretationProfile],
    leap_table: Sequence[LeapSecond] = (),
) -> DivergenceReport:
    """Run the full check under each profile and report disagreements.

    Profiles are evaluated independently and merged in id order, so the
    report does not depend on the order they were supplied in. They are
    evaluated grouped by grid offset, so the trace, which keeps the labels
    of the last offset it was labeled on, is labeled once per offset. When
    the profiles' reports carry different notices, such as one grid
    covering no minute of the trace, each profile's notices are reported
    too.
    """
    from .rules import check_all

    if len(profiles) < 2:
        raise ProfileError("divergence needs at least two profiles")
    ordered = sorted(profiles, key=lambda p: p.id)
    ids = tuple(p.id for p in ordered)
    if len(set(ids)) != len(ids):
        raise ProfileError("profile ids must be unique")

    keys_by_profile: dict[str, set] = {}
    counts: dict[str, dict[str, int]] = {}
    notices: dict[str, tuple[str, ...]] = {}
    for profile in sorted(ordered, key=attrgetter("grid_offset")):
        report = check_all(trace, profile.grid(), profile, leap_table)
        notices[profile.id] = report.notices
        keys = {(v.article, v.window_start, v.window_end) for v in report.violations}
        keys_by_profile[profile.id] = keys
        for violation in report.violations:
            per_article = counts.setdefault(violation.article, {})
            per_article[violation.profile_id] = per_article.get(violation.profile_id, 0) + 1

    verdicts = {
        article: {pid: per.get(pid, 0) for pid in ids}
        for article, per in sorted(counts.items())
    }

    all_keys = sorted(set().union(*keys_by_profile.values()))
    disagreements = []
    for key in all_keys:
        flagging = [pid for pid in ids if key in keys_by_profile[pid]]
        if 0 < len(flagging) < len(ids):
            article, start, end = key
            disagreements.append(
                {
                    "article": article,
                    "window": {"start": start, "end": end},
                    "profiles": flagging,
                }
            )
    if len(set(notices.values())) == 1:
        notices = {}
    else:
        notices = {pid: notices[pid] for pid in ids}
    return DivergenceReport(ids, verdicts, tuple(disagreements), notices)
