"""Outputs pinned byte for byte across code versions.

The report files come from the engine that stored traces one byte per
second, so they check that the run representation changed no verdict. The
digest format was changed on purpose once, from one byte per second to
the SHA-256 of the canonical record text (the `sha256sum` of the file that
`demo --out` writes); only the digests were re-pinned then, and every
other byte of the reports stayed the same.
"""

from pathlib import Path

import pytest

from tachocheck.cli import main
from tachocheck.patterns import gen_weeks
from tachocheck.timeline import parse_trace

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "trace, digest",
    [
        (
            lambda: parse_trace("0,DRIVING,60\n60,REST,30\n90,OTHER_WORK,45\n"),
            "abf0cad0b77b2bfac1ddaa0bd64e33ffe3ed92378cd4479e525564a8aeaf4837",
        ),
        (  # starts mid-minute
            lambda: parse_trace("30,REST,90\n120,DRIVING,3601\n3721,REST,17\n3738,DRIVING,1\n"),
            "6f245629615194c69b94de4e4c5f88c975b0ddd70180ce4e237d910f3cf43746",
        ),
        (  # two weeks: many runs
            lambda: gen_weeks([45, 24]),
            "7dd959e0684e5c2811ce93992f22fe54c0b4ec23fb388fd17a8932385c10111b",
        ),
    ],
    ids=["three-runs", "mid-minute-start", "two-weeks"],
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
