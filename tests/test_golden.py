"""Outputs pinned byte for byte across code versions.

The digests and report files come from the engine that stored traces one
byte per second, so they check that the run representation changed no
output.
"""

from pathlib import Path

import pytest

from conftest import week_runs
from tachocheck.cli import main
from tachocheck.timeline import SecondTrace, parse_trace

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "trace, digest",
    [
        (
            lambda: parse_trace("0,DRIVING,60\n60,REST,30\n90,OTHER_WORK,45\n"),
            "245de3e2bd01ff173581188f6c41fbec428c7c689a0f4854826c63543987f3cb",
        ),
        (  # starts mid-minute
            lambda: parse_trace("30,REST,90\n120,DRIVING,3601\n3721,REST,17\n3738,DRIVING,1\n"),
            "1aa1e89dfc06328827fe7f9fc7ada6203ca5fb7d12c7e28684da93f11ccaaaca",
        ),
        (  # two weeks: many digest chunks
            lambda: SecondTrace.from_runs(0, week_runs(45) + week_runs(24)),
            "3d8516bb85d0292d4043521e4bd75540cbc6f80a1a787112c3facaae11d08de5",
        ),
    ],
)
def test_digest_is_pinned(trace, digest):
    assert trace().digest() == digest


@pytest.mark.parametrize(
    "demo, depth, profile",
    [
        ("weekly-sandwich", 2, "letter"),
        ("weekly-sandwich", 2, "spirit"),
        ("shift-divergence", 2, "unix-grid"),
        ("shift-divergence", 2, "utc-grid"),
        ("compensation-chain", 3, "spirit"),
    ],
)
def test_check_report_is_pinned(demo, depth, profile, tmp_path, capsys):
    path = tmp_path / "demo.trace"
    assert main(["demo", demo, "--out", str(path), "--depth", str(depth)]) == 0
    capsys.readouterr()
    main(["check", str(path), "--profile", profile])
    suffix = f"-{depth}" if demo == "compensation-chain" else ""
    expected = (GOLDEN / f"{demo}{suffix}.{profile}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
