"""Compliance engine for driver-hours rules over second-resolution traces."""

from .timeline import (
    Activity,
    Calendar,
    LeapSecond,
    SecondTrace,
    TimeGrid,
    TraceError,
    TraceParseError,
    WeekPolicy,
    WeekUndefinedError,
    parse_leap_table,
    parse_trace,
    shift_grid,
)
from .minutes import MinuteTrace, Rule51Semantics, label_minutes, label_rule52
from .periods import (
    DailyDrivingSpan,
    accumulate_driving,
    classify_rests,
    daily_driving_spans,
)
from .profiles import (
    ExtendedAttribution,
    InterpretationProfile,
    ProfileError,
    WeeklyGapSemantics,
    builtin_profiles,
    diff_verdicts,
    load_profile,
    parse_profile,
)
from .report import DivergenceReport, Report, Violation
from .rules import check_all, check_article7, check_article61, check_article82
from .weekly import check_article86, solve_weekly_rests

__version__ = "0.1.0"
