"""Spans around tachocheck's public functions, installed from outside.

The tracer replaces each named function in every tachocheck module that
holds a reference to it, so calls across module boundaries (and a module's
calls to its own public functions) pass through a wrapper that records
(name, start, end, parent span, request id). Spans stay in memory; the
caller writes them out when the run ends. Nothing in the package changes.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric prefix, module, attribute ("Class.method" for methods)
LAYERS = (
    ("timeline.parse_trace", "tachocheck.timeline", "parse_trace"),
    ("timeline.digest", "tachocheck.timeline", "SecondTrace.digest"),
    ("minutes.label_minutes", "tachocheck.minutes", "label_minutes"),
    ("periods.classify_rests", "tachocheck.periods", "classify_rests"),
    ("periods.accumulate_driving", "tachocheck.periods", "accumulate_driving"),
    ("periods.daily_driving_spans", "tachocheck.periods", "daily_driving_spans"),
    ("rules.check_all", "tachocheck.rules", "check_all"),
    ("rules.check_article7", "tachocheck.rules", "check_article7"),
    ("rules.check_article61", "tachocheck.rules", "check_article61"),
    ("rules.check_article82", "tachocheck.rules", "check_article82"),
    ("rules.check_article86", "tachocheck.rules", "check_article86"),
    ("rules.solve_weekly_rests", "tachocheck.rules", "solve_weekly_rests"),
    ("rules.Report.to_json", "tachocheck.rules", "Report.to_json"),
    ("profiles.diff_verdicts", "tachocheck.profiles", "diff_verdicts"),
    ("cli.main", "tachocheck.cli", "main"),
)

# Layers whose result length is recorded with the span.
SIZED = frozenset({"minutes.label_minutes", "periods.accumulate_driving"})

NAME, START, END, PARENT, REQUEST, SIZE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        tracer = self
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, perf_counter(), None, parent, tracer.request, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if sized:
                    span[SIZE] = len(result)
                return result
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in LAYERS; the package must be imported."""
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "tachocheck" or name.startswith("tachocheck.")
        ]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def end_request(self) -> None:
        """Forget spans left open by a request the time limit interrupted."""
        self._stack.clear()
        self.request = None


def summarize(spans: list) -> dict:
    """Per layer: calls, total ms, self ms, and the sizes of its results.

    Self time is a span's duration minus the durations of its child spans.
    Spans that never closed are dropped, and so are their children.
    """
    closed = [s[END] is not None for s in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if closed[i] and span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    out: dict = {}
    for i, span in enumerate(spans):
        if not closed[i] or (span[PARENT] >= 0 and not closed[span[PARENT]]):
            continue
        entry = out.setdefault(
            span[NAME], {"calls": 0, "ms": 0.0, "self_ms": 0.0, "sizes": []}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["ms"] += duration * 1e3
        entry["self_ms"] += (duration - child_time[i]) * 1e3
        if span[SIZE] is not None:
            entry["sizes"].append(span[SIZE])
    return out
