"""Command-line frontend.

Exit codes: 0 compliant/success, 1 violations or divergence found,
2 usage or input-format error. Reports on stdout are JSON; prose goes to
stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from .profiles import (
    InterpretationProfile,
    ProfileError,
    builtin_profiles,
    diff_verdicts,
    load_profile,
)
from .rules import check_all
from .timeline import parse_leap_table, parse_trace


def _load_trace(path: str):
    return parse_trace(Path(path).read_bytes())


def _load_leap_table(path: str | None):
    if path is None:
        return ()
    return parse_leap_table(Path(path).read_text(encoding="utf-8"))


def _resolve_profile(spec: str) -> InterpretationProfile:
    if Path(spec).is_file():
        return load_profile(spec)
    builtins = builtin_profiles()
    if spec in builtins:
        return builtins[spec]
    raise ProfileError(f"profile {spec!r} is neither a file nor a builtin name")


def _cmd_check(args) -> int:
    trace = _load_trace(args.trace)
    profile = _resolve_profile(args.profile)
    leap_table = _load_leap_table(args.leap_table)
    if args.grid_offset is not None:
        profile = profile.replace(grid_offset=args.grid_offset)
    report = check_all(trace, profile.grid(), profile, leap_table)
    print(report.to_json())
    if args.pretty:
        print(
            f"{len(report.violations)} violation(s) under profile "
            f"{profile.id!r}; {report.statistics['total_driving_minutes']} "
            "driving minutes",
            file=sys.stderr,
        )
    return 1 if report.violations else 0


def _cmd_diff(args) -> int:
    trace = _load_trace(args.trace)
    profiles = [_resolve_profile(spec) for spec in args.profiles]
    leap_table = _load_leap_table(args.leap_table)
    report = diff_verdicts(trace, profiles, leap_table)
    print(report.to_json())
    return 0 if report.is_empty else 1


# demo name -> (trace builder taking the patterns module `p` and --depth,
# builtin profiles whose verdicts the summary shows)
_DEMOS = {
    "pattern1": (lambda p, depth: p.gen_pattern(1, 3600, 60), ("spirit",)),
    "pattern2": (lambda p, depth: p.gen_pattern(1, 3600, 120), ("spirit",)),
    "pattern3": (lambda p, depth: p.gen_pattern(1, 60, 120), ("spirit",)),
    "pattern4": (lambda p, depth: p.gen_pattern(135, 60, 120), ("spirit",)),
    "weekly-sandwich": (lambda p, depth: p.gen_weekly_sandwich(), ("letter", "spirit")),
    "shift-divergence": (lambda p, depth: p.find_shift_divergent(), ("unix-grid", "utc-grid")),
    "compensation-chain": (lambda p, depth: p.gen_compensation_chain(depth), ("spirit",)),
}


def _cmd_demo(args) -> int:
    from . import patterns

    build, compared = _DEMOS[args.name]
    trace = build(patterns, args.depth)
    out = Path(args.out if args.out else f"{args.name}.trace")
    out.write_bytes(trace.to_records().encode("ascii"))

    builtins = builtin_profiles()
    verdicts = {}
    for profile_id in compared:
        profile = builtins[profile_id]
        report = check_all(trace, profile.grid(), profile)
        verdicts[profile_id] = {
            "violations": len(report.violations),
            "total_driving_minutes": report.statistics["total_driving_minutes"],
        }
    summary = {"demo": args.name, "trace_file": str(out), "verdicts": verdicts}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_partition(args) -> int:
    from .partition import Patrimony, optimal_split

    if args.file:
        text = Path(args.file).read_text(encoding="utf-8")
        raw = [part for part in text.replace(",", "\n").split() if part]
    else:
        raw = [part for part in args.values.split(",") if part]
    try:
        values = tuple(int(part) for part in raw)
    except ValueError:
        raise ValueError(f"values must be integers, got {raw!r}") from None
    assignment, difference = optimal_split(Patrimony(values))
    side_a = [v for v, side in zip(values, assignment) if side == 0]
    side_b = [v for v, side in zip(values, assignment) if side == 1]
    print(
        json.dumps(
            {
                "values": list(values),
                "assignment": list(assignment),
                "difference": difference,
                "side_a_total": sum(side_a),
                "side_b_total": sum(side_b),
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _program(name: str):
    # an argparse type, so that building the parser imports no demo module
    from .machines import Program

    try:
        return Program(name)
    except ValueError:
        names = ", ".join(program.value for program in Program)
        raise argparse.ArgumentTypeError(
            f"unknown program {name!r} (choose from {names})"
        ) from None


def _cmd_machine(args) -> int:
    from .machines import Halted, run

    outcome = run(args.program, args.input, args.fuel)
    if isinstance(outcome, Halted):
        print(" ".join(str(v) for v in outcome.trajectory))
    else:
        print(outcome.last_value)
        print(
            f"fuel exhausted after {args.fuel} steps without halting",
            file=sys.stderr,
        )
    return 0


def _cmd_logic(args) -> int:
    from .proplogic import find_falsifying, format_formula, parse_formula, truth_table

    formula = parse_formula(args.formula)
    witness = find_falsifying(formula)
    payload = {
        "formula": format_formula(formula),
        "tautology": witness is None,
        "witness": witness,
    }
    if args.table:
        payload["table"] = [
            {"valuation": valuation, "value": value}
            for valuation, value in truth_table(formula)
        ]
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tachocheck",
        description="Driver-hours compliance checks over second-resolution traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate one trace under one profile")
    p_check.add_argument("trace")
    p_check.add_argument("--profile", required=True, help="profile file or builtin name")
    p_check.add_argument("--grid-offset", type=int, default=None)
    p_check.add_argument("--leap-table", default=None)
    p_check.add_argument("--pretty", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_diff = sub.add_parser("diff", help="compare verdicts across profiles")
    p_diff.add_argument("trace")
    p_diff.add_argument("--profiles", nargs="+", required=True)
    p_diff.add_argument("--leap-table", default=None)
    p_diff.set_defaults(func=_cmd_diff)

    p_demo = sub.add_parser("demo", help="emit a generated pattern and its verdicts")
    p_demo.add_argument("name", choices=_DEMOS)
    p_demo.add_argument("--out", default=None)
    p_demo.add_argument("--depth", type=int, default=2, help="compensation-chain depth")
    p_demo.set_defaults(func=_cmd_demo)

    p_part = sub.add_parser("partition", help="minimum-difference split of amounts")
    p_part.add_argument("values", nargs="?", default="", help="comma-separated integers")
    p_part.add_argument("--file", default=None)
    p_part.set_defaults(func=_cmd_partition)

    p_machine = sub.add_parser("machine", help="run a register program")
    p_machine.add_argument(
        "program", type=_program, help="register program; an unknown name lists them"
    )
    p_machine.add_argument("input", type=int)
    p_machine.add_argument("--fuel", type=int, default=1_000_000)
    p_machine.set_defaults(func=_cmd_machine)

    p_logic = sub.add_parser("logic", help="tautology check for a formula")
    p_logic.add_argument("formula")
    p_logic.add_argument("--table", action="store_true")
    p_logic.set_defaults(func=_cmd_logic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # TraceError and ProfileError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry point: exit with the status of `main` on `sys.argv`.

    The heap is frozen first, so the interpreter's shutdown collections
    skip every object still alive; atexit handlers and the stdio flush run
    as usual. `main` itself leaves the collector alone for in-process
    callers.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
