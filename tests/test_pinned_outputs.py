"""The bytes of every `check` and `diff` report over a seeded corpus, pinned
by one SHA-256.

The corpus mixes the shapes the engine meets: urban stop-and-go days,
alone and chained by daily rests; chains of full weeks with weekly rests
of drawn lengths; traces of long runs that start on either side of 0; and
random weeks with violations of every article. Each trace is checked under
the four builtin profiles and a `NeighborRaw` one, and diffed over the
five. A change that keeps every verdict and every byte keeps the hash; one
that changes any report must say why and pin the new hash.

CI runs this module under two fixed `PYTHONHASHSEED`s as well, so that no
report byte depends on the order of a set or a dict.
"""

import hashlib
import random

from tachocheck.minutes import Rule51Semantics
from tachocheck.patterns import gen_weeks
from tachocheck.profiles import diff_verdicts
from tachocheck.rules import check_all
from tachocheck.timeline import SecondTrace
from traces import BUILTINS, HOUR, SPIRIT, R, long_run_trace, random_weeks_trace, stop_and_go_trace

PROFILES = [
    *BUILTINS.values(),
    SPIRIT.replace(id="neighbor-raw", rule51=Rule51Semantics.NEIGHBOR_RAW),
]
# 62 traces; 541 Article 7, 257 Article 6.1, 220 Article 8.2 and 75 Article
# 8.6 violations over the five checks, and 20 diffs that divide the profiles
CORPUS_SHA256 = "536e458cd22a2487460684636eef7b817818eac1c70e5e9850b9a3d0c7b0b37e"


def corpus() -> list[SecondTrace]:
    rng = random.Random(32)
    traces = [stop_and_go_trace(rng) for _ in range(12)]
    for _ in range(4):
        days = [stop_and_go_trace(rng) for _ in range(3)]
        runs = []
        for day in days:
            runs += [*day.segments, (R, rng.choice([9, 11, 12]) * HOUR)]
        traces.append(SecondTrace.from_runs(days[0].start, runs))
    for _ in range(10):
        weeks = rng.randint(2, 6)
        traces.append(gen_weeks([rng.choice([20, 24, 30, 45, 66, 70]) for _ in range(weeks)]))
    traces += [long_run_trace(rng) for _ in range(20)]
    traces += [random_weeks_trace(rng) for _ in range(16)]
    return traces


def test_report_bytes_are_pinned():
    h = hashlib.sha256()
    for trace in corpus():
        for profile in PROFILES:
            h.update(check_all(trace, profile.grid(), profile).to_json().encode())
            h.update(b"\0")
        h.update(diff_verdicts(trace, PROFILES).to_json().encode())
        h.update(b"\0")
    assert h.hexdigest() == CORPUS_SHA256
