"""What the checks report: `Violation`, the `Report` of one check with its
fixed JSON layout, and the `DivergenceReport` of `diff`. Data and writers
only: no stage of the pipeline is imported here."""

from __future__ import annotations

import json
import operator
from typing import TYPE_CHECKING

from .timeline import Record, set_field

if TYPE_CHECKING:
    from .profiles import InterpretationProfile


class Violation(Record):
    __slots__ = _fields = ("article", "window_start", "window_end", "detail", "profile_id")

    def __init__(
        self, article: str, window_start: int, window_end: int, detail: str, profile_id: str
    ) -> None:
        set_field(self, "article", article)
        set_field(self, "window_start", window_start)
        set_field(self, "window_end", window_end)
        set_field(self, "detail", detail)
        set_field(self, "profile_id", profile_id)

    def to_dict(self) -> dict:
        return {
            "article": self.article,
            "window": {"start": self.window_start, "end": self.window_end},
            "detail": self.detail,
            "profile_id": self.profile_id,
        }

    def sort_key(self) -> tuple:
        return (self.article, self.window_start, self.window_end, self.detail)


class Report(Record):
    __slots__ = _fields = (
        "trace_digest",
        "trace_start",
        "trace_seconds",
        "grid_offset",
        "profile",
        "violations",
        "statistics",
        "notices",
    )

    def __init__(
        self,
        trace_digest: str,
        trace_start: int,
        trace_seconds: int,
        grid_offset: int,
        profile: InterpretationProfile,
        violations: tuple[Violation, ...],
        statistics: dict,
        notices: tuple[str, ...],
    ) -> None:
        set_field(self, "trace_digest", trace_digest)
        set_field(self, "trace_start", trace_start)
        set_field(self, "trace_seconds", trace_seconds)
        set_field(self, "grid_offset", grid_offset)
        set_field(self, "profile", profile)
        set_field(self, "violations", violations)
        set_field(self, "statistics", statistics)
        set_field(self, "notices", notices)

    def to_dict(self) -> dict:
        """The report as plain data: the reference that `to_json` writes."""
        return {
            "trace": {
                "digest": self.trace_digest,
                "start": self.trace_start,
                "duration_seconds": self.trace_seconds,
            },
            "grid_offset": self.grid_offset,
            "profile": self.profile.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "statistics": dict(self.statistics),
            "notices": list(self.notices),
        }

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2, sort_keys=True)`, byte for
        byte, written straight from the fields. With `indent`, `json.dumps`
        runs CPython's pure-Python encoder, which takes several times the
        time of this writer and, on a large report, several times its
        memory."""
        violations = ",\n".join(
            [
                _VIOLATION_JSON % tuple(map(_json_value, fields, _INDENTS))
                for fields in map(_violation_fields, self.violations)
            ]
        )
        head = _REPORT_JSON_HEAD % (
            _json_value(self.grid_offset, "  "),
            _json_array(self.notices, "  "),
            _json_object(self.profile.to_dict(), "  "),
            _json_object(self.statistics, "  "),
            _json_value(self.trace_digest, "    "),
            _json_value(self.trace_seconds, "    "),
            _json_value(self.trace_start, "    "),
        )
        if not violations:
            return head + "[]\n}"
        # one copy of the violations' text, which can run to tens of MB
        return "".join((head, "[\n", violations, "\n  ]\n}"))


# The report's layout as `json.dumps(indent=2, sort_keys=True)` writes it:
# keys sorted, two spaces per level, and each value's text written by the
# `_json_*` helpers for the indent of its line. The violations come last.
_REPORT_JSON_HEAD = """{
  "grid_offset": %s,
  "notices": %s,
  "profile": %s,
  "statistics": %s,
  "trace": {
    "digest": %s,
    "duration_seconds": %s,
    "start": %s
  },
  "violations": """
# A violation's fields in the order of `_VIOLATION_JSON`, and the indent of
# each one's line.
_violation_fields = operator.attrgetter(
    "article", "detail", "profile_id", "window_end", "window_start"
)
_INDENTS = ("      ",) * 3 + ("        ",) * 2
_VIOLATION_JSON = """    {
      "article": %s,
      "detail": %s,
      "profile_id": %s,
      "window": {
        "end": %s,
        "start": %s
      }
    }"""

# the C function `json.dumps` calls for every string under `ensure_ascii`
_json_string = json.encoder.encode_basestring_ascii


def _json_value(value, indent: str) -> str:
    """`value` as `json.dumps(indent=2, sort_keys=True)` writes it on a line
    indented by `indent`. A str, int, bool or None of exact type is written
    here (so a bool is never written as an int); anything else goes through
    `json.dumps` itself."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _json_array(items, indent: str) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    lines = ",\n".join([inner + _json_value(item, inner) for item in items])
    return f"[\n{lines}\n{indent}]"


def _json_object(mapping: dict, indent: str) -> str:
    if not mapping or any(type(key) is not str for key in mapping):
        return _json_value(mapping, indent)
    inner = indent + "  "
    lines = ",\n".join(
        [
            f"{inner}{_json_string(key)}: {_json_value(value, inner)}"
            for key, value in sorted(mapping.items())
        ]
    )
    return f"{{\n{lines}\n{indent}}}"


class DivergenceReport(Record):
    """Where profiles disagree about the same trace."""

    __slots__ = _fields = ("profile_ids", "verdicts", "disagreements", "notices")

    def __init__(
        self,
        profile_ids: tuple[str, ...],
        verdicts: dict,  # article -> {profile id -> violation count}
        disagreements: tuple[dict, ...],  # windows flagged by some profiles only
        notices: dict,  # profile id -> notices; empty when every profile has the same
    ) -> None:
        set_field(self, "profile_ids", profile_ids)
        set_field(self, "verdicts", verdicts)
        set_field(self, "disagreements", disagreements)
        set_field(self, "notices", notices)

    @property
    def is_empty(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        out = {
            "profiles": list(self.profile_ids),
            "verdicts": self.verdicts,
            "disagreements": [dict(d) for d in self.disagreements],
            "divergent": not self.is_empty,
        }
        if self.notices:
            out["notices"] = {pid: list(n) for pid, n in self.notices.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
