"""What the checks report: `Violation`, the `Report` of one check and the
`DivergenceReport` of `diff`, each laid out once as plain data, and the one
JSON writer of both. Data and writers only: no stage of the pipeline is
imported here."""

from __future__ import annotations

import json
import operator

from .timeline import Record


class Violation(Record):
    __slots__ = _fields = ("article", "window_start", "window_end", "detail", "profile_id")

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
    # `profile` is an `InterpretationProfile`, `violations` a tuple of
    # `Violation`s, `notices` a tuple of strings
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

    def _head(self) -> dict:
        """Every section of the report but its violations, which sort after
        them all: the one statement of the layout, which `to_dict` and
        `to_json` both read."""
        return {
            "trace": {
                "digest": self.trace_digest,
                "start": self.trace_start,
                "duration_seconds": self.trace_seconds,
            },
            "grid_offset": self.grid_offset,
            "profile": self.profile.to_dict(),
            "statistics": dict(self.statistics),
            "notices": list(self.notices),
        }

    def to_dict(self) -> dict:
        """The report as plain data: the reference that `to_json` writes."""
        out = self._head()
        out["violations"] = [v.to_dict() for v in self.violations]
        return out

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2, sort_keys=True)`, byte for
        byte: the head by `_json_value`, then each violation through
        `_VIOLATION_JSON`. With `indent`, `json.dumps` runs CPython's
        pure-Python encoder, which takes several times the time of this
        writer and, on a large report, several times its memory."""
        # the head without its closing "\n}": "violations" sorts after its keys
        head = _json_value(self._head(), "")[:-2]
        if not self.violations:
            return head + ',\n  "violations": []\n}'
        violations = ",\n".join(
            [
                _VIOLATION_JSON % tuple(map(_json_value, fields, _INDENTS))
                for fields in map(_violation_fields, self.violations)
            ]
        )
        # one copy of the violations' text, which can run to tens of MB
        return "".join((head, ',\n  "violations": [\n', violations, "\n  ]\n}"))


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
    indented by `indent`: keys sorted, two spaces per level. A str, int,
    bool, None, list, tuple, or dict with str keys, of exact type, is
    written here (so a bool is never written as an int); anything else goes
    through `json.dumps` itself."""
    kind = type(value)
    if kind is str:
        return _json_string(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is dict and all(type(key) is str for key in value):
        return _json_object(value, indent)
    if kind is list or kind is tuple:
        return _json_array(value, indent)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _json_array(items, indent: str) -> str:
    if not items:
        return "[]"
    inner = indent + "  "
    lines = ",\n".join([inner + _json_value(item, inner) for item in items])
    return f"[\n{lines}\n{indent}]"


def _json_object(mapping: dict, indent: str) -> str:
    if not mapping:
        return "{}"
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

    # `verdicts`: article -> {profile id -> violation count};
    # `disagreements`: the windows flagged by some profiles only;
    # `notices`: profile id -> notices, empty when every profile has the same
    __slots__ = _fields = ("profile_ids", "verdicts", "disagreements", "notices")

    @property
    def is_empty(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> dict:
        """The report as plain data, in containers of its own: the reference
        that `to_json` writes."""
        out = {
            "profiles": list(self.profile_ids),
            "verdicts": {article: dict(counts) for article, counts in self.verdicts.items()},
            "disagreements": [
                {**d, "window": dict(d["window"]), "profiles": list(d["profiles"])}
                for d in self.disagreements
            ],
            "divergent": not self.is_empty,
        }
        if self.notices:
            out["notices"] = {pid: list(n) for pid, n in self.notices.items()}
        return out

    def to_json(self) -> str:
        """`json.dumps(self.to_dict(), indent=2, sort_keys=True)`, byte for byte."""
        return _json_value(self.to_dict(), "")
