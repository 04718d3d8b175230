"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_bench.py

Each generator must give the same corpus for the same seed, and the engine
must return the verdict each construction fixes.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import tracing
from tachocheck import check_all, parse_profile, parse_trace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def counts(case):
    profile = parse_profile(case.profile)
    report = check_all(parse_trace(case.text), profile.grid(), profile)
    return run.counts_of(report.to_json())


def diff(case, tmp_path, traced=False):
    path = tmp_path / "case.trace"
    path.write_text(case.text)
    (tmp_path / "neighbor-raw.json").write_text(gen.NEIGHBOR_RAW_PROFILE)
    spans = tmp_path / "spans.json" if traced else None
    return run.serve_cli(path, tmp_path, 60.0, spans), spans


@pytest.mark.parametrize("corpus", [gen.fleet_corpus, gen.search_corpus, gen.cli_diff_corpus])
def test_same_seed_same_corpus(corpus):
    first, again, other = corpus(7), corpus(7), corpus(8)
    assert [c.text for c in first] == [c.text for c in again]
    assert [c.expected for c in first] == [c.expected for c in again]
    assert [c.text for c in first] != [c.text for c in other]


@pytest.mark.parametrize("kind", ["normal", *sorted(gen.PLANTS)])
def test_fleet_plants(kind):
    case = gen.fleet_case(random.Random(kind), kind, ["normal", kind, "normal"])
    assert counts(case) == gen.PLANTS.get(kind, {})


def test_fleet_tiny_corpus():
    for case in gen.fleet_corpus(3, mix=(4, 4)):
        assert counts(case) == case.expected


@pytest.mark.parametrize(
    "case",
    [
        gen.chain_case(2, truncated=False),
        gen.chain_case(3, truncated=True),
        gen.rotation_case(3),
        gen.rotation_case(5),
        gen.crossing_case(2, 1),
        gen.crossing_case(3, 2),
        gen.chain_case(3, truncated=False, rng=random.Random(1)),
        gen.rotation_case(5, rng=random.Random(2)),
        gen.crossing_case(2, 2, rng=random.Random(3)),
    ],
    ids=lambda c: c.name,
)
def test_search_cases(case):
    assert counts(case) == case.expected


@pytest.mark.parametrize("divergent, majority", [(0, 0), (1, 0), (1, 1)])
def test_cli_diff_case(tmp_path, divergent, majority):
    case = gen.urban_case(random.Random(divergent * 2 + majority), "tiny", [(divergent, majority)])
    assert case.expected == gen.diff_expected(divergent, majority)
    outcome, _ = diff(case, tmp_path)
    assert outcome.status == "ok"
    assert outcome.verdict == case.expected


def test_traced_child_matches_and_records_spans(tmp_path):
    case = gen.urban_case(random.Random(1), "tiny", [(1, 0)])
    outcome, spans_path = diff(case, tmp_path, traced=True)
    assert outcome.verdict == case.expected
    layers = tracing.summarize(json.loads(spans_path.read_text()))
    assert layers["cli.main"]["calls"] == 1
    assert layers["rules.check_all"]["calls"] == len(gen.DIFF_SPECS)
    assert layers["minutes.label_minutes"]["calls"] == len(gen.DIFF_SPECS)


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 0, None],
        ["inner", 1.0, 4.0, 0, 0, None],
        ["inner", 5.0, 6.0, 0, 0, None],
        ["open", 7.0, None, 0, 0, None],
    ]
    layers = tracing.summarize(spans)
    assert layers["outer"]["self_ms"] == pytest.approx(6000.0)
    assert layers["inner"]["calls"] == 2 and layers["inner"]["ms"] == pytest.approx(4000.0)
    assert "open" not in layers


def test_straddle_share_counts_minutes_with_a_change():
    b = gen._Builder()
    b.add(gen.D, 90)  # change inside minute 1
    b.add(gen.R, 30)  # change on the minute-2 boundary
    b.add(gen.D, 120)
    assert gen.straddle_share(b.case("s", {})) == 1 / 4


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
