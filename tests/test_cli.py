import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tachocheck
from tachocheck.cli import main, run
from tachocheck.patterns import gen_weekly_sandwich, gen_weeks, week_runs
from tachocheck.profiles import builtin_profiles
from tachocheck.timeline import SecondTrace
from traces import HOUR, D


@pytest.fixture
def sandwich_file(tmp_path):
    path = tmp_path / "sandwich.trace"
    path.write_text(gen_weekly_sandwich().to_records())
    return path


@pytest.fixture
def all_rest_file(tmp_path):
    path = tmp_path / "all_rest.trace"
    path.write_text("0,REST,604800\n")
    return path


def profile_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(builtin_profiles()[name].to_dict()))
    return path


def test_check_compliant_trace_exits_zero(tmp_path, all_rest_file, capsys):
    spirit = profile_file(tmp_path, "spirit")
    status = main(["check", str(all_rest_file), "--profile", str(spirit)])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert status == 0
    assert report["violations"] == []
    assert report["statistics"]["total_driving_minutes"] == 0


def test_check_two_year_compliant_trace_exits_zero(tmp_path, capsys):
    # 104 weeks, 1,144 rest runs: the weekly-rest check must not recurse
    # once per rest run
    path = tmp_path / "two_years.trace"
    path.write_text(gen_weeks([45] * 104).to_records())
    status = main(["check", str(path), "--profile", "spirit"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["violations"] == []


def test_check_violating_trace_exits_one(tmp_path, sandwich_file, capsys):
    spirit = profile_file(tmp_path, "spirit")
    status = main(["check", str(sandwich_file), "--profile", str(spirit)])
    report = json.loads(capsys.readouterr().out)
    assert status == 1
    assert [v["article"] for v in report["violations"]] == ["6.1"]


def test_check_accepts_builtin_profile_names(all_rest_file, capsys):
    status = main(["check", str(all_rest_file), "--profile", "spirit"])
    capsys.readouterr()
    assert status == 0


def test_a_directory_named_like_a_builtin_profile_does_not_shadow_it(
    tmp_path, sandwich_file, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spirit").mkdir()
    status = main(["check", str(sandwich_file), "--profile", "spirit"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1 and report["profile"]["id"] == "spirit"
    status = main(["diff", str(sandwich_file), "--profiles", "spirit", "letter"])
    report = json.loads(capsys.readouterr().out)
    assert status == 1 and report["divergent"] is True


def test_check_grid_offset_flag_overrides_profile(tmp_path, capsys):
    from tachocheck.patterns import find_shift_divergent

    path = tmp_path / "shift.trace"
    path.write_text(find_shift_divergent().to_records())
    assert main(["check", str(path), "--profile", "spirit"]) == 0
    capsys.readouterr()
    assert main(["check", str(path), "--profile", "spirit", "--grid-offset", "27"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["grid_offset"] == 27
    assert report["profile"]["grid_offset"] == 27


@pytest.mark.parametrize("offset", ["60", "-1"])
def test_check_refuses_a_grid_offset_outside_the_minute(all_rest_file, capsys, offset):
    argv = ["check", str(all_rest_file), "--profile", "spirit", "--grid-offset", offset]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid_offset must be in [0, 60), got {offset}\n"


def test_check_report_schema(tmp_path, sandwich_file, capsys):
    spirit = profile_file(tmp_path, "spirit")
    main(["check", str(sandwich_file), "--profile", str(spirit)])
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "trace",
        "grid_offset",
        "profile",
        "violations",
        "statistics",
        "notices",
    }
    assert set(report["trace"]) == {"digest", "start", "duration_seconds"}
    assert set(report["statistics"]) == {
        "total_driving_minutes",
        "daily_driving_spans",
        "rest_periods",
    }
    (violation,) = report["violations"]
    assert set(violation) == {"article", "window", "detail", "profile_id"}
    assert set(violation["window"]) == {"start", "end"}
    assert violation["profile_id"] == "spirit"


def test_check_pretty_summary_goes_to_stderr(tmp_path, sandwich_file, capsys):
    spirit = profile_file(tmp_path, "spirit")
    status = main(["check", str(sandwich_file), "--profile", str(spirit), "--pretty"])
    captured = capsys.readouterr()
    assert status == 1
    json.loads(captured.out)  # stdout stays pure JSON
    assert "violation" in captured.err


def test_check_output_is_byte_identical_across_runs(tmp_path, sandwich_file, capsys):
    spirit = profile_file(tmp_path, "spirit")
    main(["check", str(sandwich_file), "--profile", str(spirit)])
    first = capsys.readouterr().out
    main(["check", str(sandwich_file), "--profile", str(spirit)])
    second = capsys.readouterr().out
    assert first == second


def test_check_missing_file_and_bad_profile_exit_two(tmp_path, all_rest_file, capsys):
    assert main(["check", "no-such.trace", "--profile", "spirit"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"rule51": "Wrong"}')
    assert main(["check", str(all_rest_file), "--profile", str(bad)]) == 2
    capsys.readouterr()


def test_check_malformed_trace_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("0,DRIVING,60\n120,REST,60\n")
    assert main(["check", str(path), "--profile", "spirit"]) == 2
    capsys.readouterr()


def test_diff_reports_divergence_with_status_one(tmp_path, sandwich_file, capsys):
    letter = profile_file(tmp_path, "letter")
    spirit = profile_file(tmp_path, "spirit")
    status = main(
        ["diff", str(sandwich_file), "--profiles", str(letter), str(spirit)]
    )
    report = json.loads(capsys.readouterr().out)
    assert status == 1
    assert report["divergent"] is True
    assert report["disagreements"]


def test_diff_agreement_exits_zero(tmp_path, all_rest_file, capsys):
    letter = profile_file(tmp_path, "letter")
    spirit = profile_file(tmp_path, "spirit")
    status = main(
        ["diff", str(all_rest_file), "--profiles", str(letter), str(spirit)]
    )
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["divergent"] is False


def test_check_trace_covering_no_minute_reports_a_notice(tmp_path, capsys):
    path = tmp_path / "short.trace"
    path.write_text("0,DRIVING,59\n")
    status = main(["check", str(path), "--profile", "spirit"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["violations"] == []
    assert report["statistics"] == {
        "daily_driving_spans": 0,
        "rest_periods": 0,
        "total_driving_minutes": 0,
    }
    assert report["notices"] == [
        "no minute labeled: trace covers no complete minute on grid offset 0",
        "article 8.6 skipped: trace covers fewer than two complete weeks",
    ]


def test_diff_reports_both_profiles_when_one_grid_covers_no_minute(tmp_path, capsys):
    # 80 s cover minute 0 on the unix grid but no minute on the 27 s grid
    path = tmp_path / "short.trace"
    path.write_text("0,DRIVING,80\n")
    status = main(["diff", str(path), "--profiles", "unix-grid", "utc-grid"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    assert report["profiles"] == ["unix-grid", "utc-grid"]
    assert report["divergent"] is False
    assert report["disagreements"] == []
    skipped = "article 8.6 skipped: trace covers fewer than two complete weeks"
    assert report["notices"] == {
        "unix-grid": [skipped],
        "utc-grid": [
            "no minute labeled: trace covers no complete minute on grid offset 27",
            skipped,
        ],
    }
    assert main(["check", str(path), "--profile", "utc-grid"]) == 0
    notices = json.loads(capsys.readouterr().out)["notices"]
    assert notices[0] == "no minute labeled: trace covers no complete minute on grid offset 27"
    assert main(["check", str(path), "--profile", "unix-grid"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["statistics"]["total_driving_minutes"] == 1
    assert not any(n.startswith("no minute labeled") for n in report["notices"])


def test_diff_leaves_out_notices_every_profile_shares(tmp_path, capsys):
    # one week ending in a 30 h drive: every profile skips Article 8.6 alike
    path = tmp_path / "week.trace"
    path.write_text(SecondTrace.from_runs(0, week_runs(45) + [(D, 30 * HOUR)]).to_records())
    status = main(["diff", str(path), "--profiles", "letter", "spirit", "unix-grid", "utc-grid"])
    out = capsys.readouterr().out
    assert status == 1
    assert "notices" not in json.loads(out)
    # the bytes of the report from before diff reported notices
    digest = "bef83d1bf31295639b5ac379e46e9f3b23f08f96a84875bbcb166901ad41f58c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_demo_writes_trace_and_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status = main(["demo", "pattern1", "--out", "p1.trace"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    assert summary["verdicts"]["spirit"]["total_driving_minutes"] == 121
    text = (tmp_path / "p1.trace").read_text()
    assert text.startswith("0,DRIVING,3600")


DEMO_VERDICTS = {
    "pattern1": {"spirit": (121, 0)},
    "pattern2": {"spirit": (120, 0)},
    "pattern3": {"spirit": (2, 0)},
    "pattern4": {"spirit": (270, 0)},
    "weekly-sandwich": {"letter": (810, 0), "spirit": (810, 1)},
    "shift-divergence": {"unix-grid": (0, 0), "utc-grid": (279, 1)},
    "compensation-chain": {"spirit": (12000, 0)},
}


@pytest.mark.parametrize("name", sorted(DEMO_VERDICTS))
def test_every_demo_summary_is_pinned(name, tmp_path, capsys, monkeypatch):
    # (driving minutes, violations) per compared profile, default --depth
    monkeypatch.chdir(tmp_path)
    assert main(["demo", name]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["demo"] == name
    assert summary["trace_file"] == f"{name}.trace"
    verdicts = {
        pid: (v["total_driving_minutes"], v["violations"])
        for pid, v in summary["verdicts"].items()
    }
    assert verdicts == DEMO_VERDICTS[name]
    assert (tmp_path / f"{name}.trace").exists()


def test_check_digest_is_the_sha256_of_the_demo_file(tmp_path, capsys):
    path = tmp_path / "demo.trace"
    assert main(["demo", "compensation-chain", "--out", str(path), "--depth", "3"]) == 0
    capsys.readouterr()
    main(["check", str(path), "--profile", "spirit"])
    report = json.loads(capsys.readouterr().out)
    assert report["trace"]["digest"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_demo_unknown_name_exits_two(capsys):
    assert main(["demo", "nonsense"]) == 2
    capsys.readouterr()


def test_demo_weekly_sandwich_compares_letter_and_spirit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status = main(["demo", "weekly-sandwich"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    assert summary["verdicts"]["letter"]["violations"] == 0
    assert summary["verdicts"]["spirit"]["violations"] == 1
    assert (tmp_path / "weekly-sandwich.trace").exists()


def test_demo_compensation_chain_with_depth(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status = main(["demo", "compensation-chain", "--depth", "2"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    assert summary["verdicts"]["spirit"]["violations"] == 0


def test_demo_shift_divergence(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status = main(["demo", "shift-divergence"])
    summary = json.loads(capsys.readouterr().out)
    assert status == 0
    verdicts = summary["verdicts"]
    assert verdicts["unix-grid"]["violations"] != verdicts["utc-grid"]["violations"]


def test_machine_collatz_output(capsys):
    status = main(["machine", "collatz", "3", "--fuel", "100"])
    out = capsys.readouterr().out
    assert status == 0
    assert out.strip() == "3 10 5 16 8 4 2 1"


def test_machine_fuel_exhaustion_reports_last_value(capsys):
    status = main(["machine", "increment-forever", "0", "--fuel", "5"])
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out.strip() == "5"
    assert "fuel exhausted" in captured.err


def test_partition_subcommand(capsys):
    status = main(["partition", "3,1,1,2,2,1"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["difference"] == 0
    assert payload["side_a_total"] == payload["side_b_total"]


def test_partition_from_file(tmp_path, capsys):
    values = tmp_path / "values.txt"
    values.write_text("5\n5\n")
    status = main(["partition", "--file", str(values)])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["difference"] == 0


def test_partition_bad_values_exit_two(capsys):
    assert main(["partition", "3,x,1"]) == 2
    capsys.readouterr()


def test_logic_tautology(capsys):
    status = main(["logic", "R -> ((P & Q) -> R)"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["tautology"] is True
    assert payload["witness"] is None


def test_logic_non_tautology_with_table(capsys):
    status = main(["logic", "(P & Q) -> R", "--table"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 0
    assert payload["tautology"] is False
    assert payload["witness"] == {"P": 1, "Q": 1, "R": 0}
    assert len(payload["table"]) == 8


def test_logic_syntax_error_exits_two(capsys):
    assert main(["logic", "P &"]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_leap_table_flag(tmp_path, all_rest_file, capsys):
    table = tmp_path / "leap.json"
    table.write_text('[{"sunday_index": 0, "delta": -1}]')
    status = main(
        ["check", str(all_rest_file), "--profile", "spirit", "--leap-table", str(table)]
    )
    capsys.readouterr()
    assert status == 0


def test_leap_table_with_a_null_field_exits_two(tmp_path, all_rest_file, capsys):
    table = tmp_path / "leap.json"
    table.write_text('[{"sunday_index": null, "delta": 1}]')
    status = main(
        ["check", str(all_rest_file), "--profile", "spirit", "--leap-table", str(table)]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "bad leap table entry" in err and "'sunday_index': None" in err


def test_leap_table_naming_a_sunday_twice_exits_two(tmp_path, all_rest_file, capsys):
    table = tmp_path / "leap.json"
    table.write_text('[{"sunday_index": 0, "delta": 1}, {"sunday_index": 0, "delta": -1}]')
    status = main(
        ["check", str(all_rest_file), "--profile", "spirit", "--leap-table", str(table)]
    )
    err = capsys.readouterr().err
    assert status == 2
    assert "that Sunday is already listed" in err


# Each documented input error exits 2 with one `error:` line and no report.
@pytest.mark.parametrize(
    "files, argv, message",
    [
        (
            {"leap.json": "[{"},
            ["check", "{trace}", "--profile", "spirit", "--leap-table", "leap.json"],
            "leap table is not valid JSON",
        ),
        (
            {"leap.json": '{"sunday_index": 0, "delta": 1}'},
            ["check", "{trace}", "--profile", "spirit", "--leap-table", "leap.json"],
            "leap table must be a JSON list",
        ),
        (
            {"p.json": '{"id": "p",'},
            ["check", "{trace}", "--profile", "p.json"],
            "profile is not valid JSON",
        ),
        (
            {"p.json": '[{"id": "p"}]'},
            ["check", "{trace}", "--profile", "p.json"],
            "profile must be a JSON object",
        ),
        (
            {"p.json": '{"id": 7}'},
            ["check", "{trace}", "--profile", "p.json"],
            "profile id must be a string",
        ),
        (
            {"p.json": '{"id": ""}'},
            ["check", "{trace}", "--profile", "p.json"],
            "profile id must be non-empty",
        ),
        (
            {},
            ["check", "{trace}", "--profile", "no-such-name"],
            "profile 'no-such-name' is neither a file nor a builtin name",
        ),
        (
            {},
            ["diff", "{trace}", "--profiles", "spirit"],
            "divergence needs at least two profiles",
        ),
        (
            {},
            ["diff", "{trace}", "--profiles", "spirit", "spirit"],
            "profile ids must be unique",
        ),
    ],
)
def test_documented_input_errors_exit_two_with_one_error_line(
    tmp_path, all_rest_file, capsys, monkeypatch, files, argv, message
):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    status = main([arg.replace("{trace}", str(all_rest_file)) for arg in argv])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


# The demo modules load only under their own commands; `dataclasses` and
# `inspect` cost a `check` or `diff` process about 10 ms of start-up.
@pytest.mark.parametrize(
    "module",
    [
        "tachocheck.machines",
        "tachocheck.partition",
        "tachocheck.proplogic",
        "tachocheck.patterns",
        "dataclasses",
        "inspect",
    ],
)
def test_importing_the_cli_leaves_the_module_unloaded(module):
    src = Path(tachocheck.__file__).resolve().parents[1]
    code = f"import sys, tachocheck.cli\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_machine_rejects_an_unknown_program_and_names_the_known_ones(capsys):
    assert main(["machine", "ackermann", "3"]) == 2
    err = capsys.readouterr().err
    assert "unknown program 'ackermann'" in err
    assert "decrement, increment-forever, collatz" in err


def _child(argv, **kwargs):
    """`python -m tachocheck ARGV` with this checkout's package on the path."""
    src = Path(tachocheck.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **kwargs.pop("env", {})}
    return subprocess.run(
        [sys.executable, "-m", "tachocheck", *argv], env=env, timeout=60, **kwargs
    )


def test_main_in_process_leaves_the_heap_unfrozen(sandwich_file, capsys):
    before = gc.get_freeze_count()
    assert main(["check", str(sandwich_file), "--profile", "spirit"]) == 1
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_run_freezes_the_heap_and_exits_with_the_status_of_main(
    sandwich_file, capsys, monkeypatch
):
    argv = ["tachocheck", "check", str(sandwich_file), "--profile", "spirit"]
    monkeypatch.setattr(sys, "argv", argv)
    before = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exit_info:
            run()
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert exit_info.value.code == 1
    assert json.loads(capsys.readouterr().out)["violations"]


@pytest.mark.parametrize(
    "argv, status",
    [
        (["check", "{sandwich}", "--profile", "spirit"], 1),
        (["diff", "{all_rest}", "--profiles", "letter", "spirit"], 0),
        (["diff", "{sandwich}", "--profiles", "letter", "spirit"], 1),
        (["check", "{sandwich}"], 2),  # --profile is required
    ],
)
def test_python_dash_m_matches_main_in_process(
    argv, status, sandwich_file, all_rest_file, capsys
):
    argv = [a.format(sandwich=sandwich_file, all_rest=all_rest_file) for a in argv]
    assert main(argv) == status
    captured = capsys.readouterr()
    proc = _child(argv, capture_output=True)
    assert proc.returncode == status
    assert proc.stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_stdout_pipe_gives_the_status_and_stderr_it_always_gave(
    unbuffered, sandwich_file
):
    # Freezing the heap must not change what `sys.exit(main())` gives here.
    # Buffered, the report waits in the stdout buffer until the interpreter
    # flushes it at shutdown; that flush fails, and CPython reports it and
    # exits 120 (the first stderr line is worded differently from 3.13 on).
    # Unbuffered, print fails inside `main`, which reports the OSError and
    # returns 2.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else ""}
    try:
        proc = _child(
            ["check", str(sandwich_file), "--profile", "spirit"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
        )
    finally:
        os.close(write_end)
    if unbuffered:
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"
    else:
        assert proc.returncode == 120
        first, second = proc.stderr.splitlines(keepends=True)
        assert first.startswith(b"Exception ignored ")
        assert second == b"BrokenPipeError: [Errno 32] Broken pipe\n"
