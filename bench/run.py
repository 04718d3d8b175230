"""tachocheck benchmark: seeded workloads, checked verdicts, traced layers.

Usage (from the repository root):

    python3 bench/run.py --workload fleet|search|cli_diff --seed N \
        --seconds S --trace 0|1

One process, one closed-loop caller: the next request starts only after
the previous one has finished, and at most one child process runs at a
time. Requests run in whole passes over the seeded corpus until another
pass would overrun --seconds, and at least until MIN_REQUESTS have run.

--trace 0 prints the end-to-end metrics, with times scaled to a reference
host speed (see CAL_REFERENCE_S). --trace 1 runs the corpus
untraced for half the time, then the same passes again with spans around
the package's public functions, and prints the per-layer metrics. Both
check every verdict against the one the generator built in; the last
stdout line is one JSON object {correct, attempted, failed, metrics}.
Results and spans are also written under bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import gen
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
# Per-request limits, at least 4x the slowest case that finishes and (for
# search) at most 1/4 of the fastest case beyond the cliff. Measured with
# Python 3.11 on 2 cores: 52-week fleet trace 1.6 s; search finishes within
# 0.6 s (chain-12) while chain-20 and rotation-26 need 16.8 s and 17.4 s;
# a 4-week diff takes 0.85 s.
LIMIT_S = {"fleet": 8.0, "search": 3.0, "cli_diff": 5.0}
# The host's speed drifts by up to +-20% within a minute on a shared VM
# (measured with a fixed loop on 2 vCPUs), far more than the bounds allow.
# So end-to-end times are scaled to a reference host speed: calibrate()
# runs before every request and set-up, and each time is multiplied by
# CAL_REFERENCE_S over the median of the nearest CAL_WINDOW calibrations.
# A faster program still reads faster; a slower host does not. The raw
# figures go to the result file.
CAL_REFERENCE_S = 0.0064
CAL_WINDOW = 9


class RequestTimeout(Exception):
    pass


@dataclass
class Outcome:
    status: str  # ok, timeout, raised
    latency: float
    verdict: object = None
    error: str = ""
    calibration: float = 0.0


def calibrate() -> float:
    """Seconds for a fixed pure-Python task: byte runs, window scans, tuples, a dict."""
    start = perf_counter()
    data = b"".join(bytes((65 + i % 3,)) * (40 + i * 37 % 300) for i in range(1500))
    sum(data[i : i + 60].count(data[i]) for i in range(0, len(data) - 60, 60))
    counts: dict = {}
    for t, a in [(i, i & 7) for i in range(15000)]:
        counts[a] = counts.get(a, 0) + t
    return perf_counter() - start


def scaled(times, calibrations) -> list:
    """Each time at reference host speed, from its nearest calibrations."""
    half = CAL_WINDOW // 2
    return [
        t * CAL_REFERENCE_S / statistics.median(calibrations[max(0, k - half) : k + half + 1])
        for k, t in enumerate(times)
    ]


def _on_alarm(signum, frame):
    raise RequestTimeout


def _purge_package() -> None:
    for name in [n for n in sys.modules if n == "tachocheck" or n.startswith("tachocheck.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, workdir: Path):
    """Generate the corpus, write its files and import the package.

    The package is dropped from sys.modules first, so every repetition pays
    for its import again.
    """
    cases = gen.CORPORA[workload](seed)
    paths = []
    for i, case in enumerate(cases):
        path = workdir / f"{i:03d}-{case.name}.trace"
        path.write_text(case.text, encoding="ascii")
        paths.append(path)
    (workdir / "neighbor-raw.json").write_text(gen.NEIGHBOR_RAW_PROFILE, encoding="ascii")
    _purge_package()
    importlib.import_module("tachocheck.cli")
    return cases, paths


def counts_of(report_json: str) -> dict:
    counts: dict = {}
    for violation in json.loads(report_json)["violations"]:
        counts[violation["article"]] = counts.get(violation["article"], 0) + 1
    return counts


def serve_in_process(profile_text: str, path: Path, limit: float) -> Outcome:
    """parse_trace -> check_all -> Report.to_json, under SIGALRM."""
    from tachocheck import check_all, parse_profile, parse_trace

    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            profile = parse_profile(profile_text)
            trace = parse_trace(path.read_bytes())
            report = check_all(trace, profile.grid(), profile).to_json()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        return Outcome("timeout", perf_counter() - start)
    except Exception as exc:  # the loop must go on; the failure is counted
        return Outcome("raised", perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    latency = perf_counter() - start
    return Outcome("ok", latency, counts_of(report))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def serve_cli(path: Path, workdir: Path, limit: float, spans_out: Path | None = None) -> Outcome:
    """`tachocheck diff` on the five profiles, as one child process."""
    if spans_out is None:
        argv = [sys.executable, "-m", "tachocheck"]
    else:
        argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_out)]
    argv += ["diff", str(path), "--profiles", *gen.DIFF_SPECS]
    start = perf_counter()
    proc = subprocess.Popen(
        argv, cwd=workdir, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        stdout, stderr = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Outcome("timeout", perf_counter() - start)
    latency = perf_counter() - start
    if proc.returncode not in (0, 1):
        return Outcome("raised", latency, error=stderr.decode(errors="replace").strip())
    report = json.loads(stdout)
    verdict = {
        "verdicts": report["verdicts"],
        "disagreements": sorted(d["profiles"] for d in report["disagreements"]),
        "exit": proc.returncode,
    }
    return Outcome("ok", latency, verdict)


def serve(workload: str, case, path: Path, workdir: Path, spans_out=None) -> Outcome:
    limit = LIMIT_S[workload]
    if workload == "cli_diff":
        return serve_cli(path, workdir, limit, spans_out)
    return serve_in_process(case.profile, path, limit)


def run_passes(workload, cases, paths, workdir, seconds=0.0, min_requests=1, passes=None, tracer=None):
    """Whole passes over the corpus: `passes` of them, or until another pass
    would overrun `seconds` once `min_requests` have run.

    Returns [(case index, Outcome)], the wall time and the passes run.
    """
    results = []
    start = perf_counter()
    done = 0
    while True:
        pass_start = perf_counter()
        for i, (case, path) in enumerate(zip(cases, paths)):
            spans_out = None
            calibration = 0.0
            if tracer is None:
                calibration = calibrate()
            else:
                tracer.request = len(results)
                if workload == "cli_diff":
                    spans_out = workdir / f"spans-{len(results)}.json"
            outcome = serve(workload, case, path, workdir, spans_out)
            outcome.calibration = calibration
            if tracer is not None:
                tracer.end_request()
                if spans_out is not None and spans_out.exists():
                    _merge_child_spans(tracer, spans_out, len(results))
            results.append((i, outcome))
        done += 1
        now = perf_counter()
        if passes is not None:
            if done >= passes:
                break
        elif len(results) >= min_requests and now + (now - pass_start) - start > seconds:
            break
    return results, perf_counter() - start, done


def _merge_child_spans(tracer, spans_out: Path, request) -> None:
    spans = json.loads(spans_out.read_text(encoding="utf-8"))
    spans_out.unlink()
    base = len(tracer.spans)
    for span in spans:
        parent = span[tracing.PARENT]
        span[tracing.PARENT] = parent + base if parent >= 0 else -1
        span[tracing.REQUEST] = request
        tracer.spans.append(span)


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def check_verdicts(cases, results) -> list:
    """Names of completed requests whose verdict differs from the built-in one."""
    return [
        cases[i].name
        for i, outcome in results
        if outcome.status == "ok" and outcome.verdict != cases[i].expected
    ]


def end_to_end(workload, cases, results, setup_s, limit) -> dict:
    """The end-to-end metrics, times at reference host speed.

    A timed-out request cost the fixed limit whatever the host's speed, so
    its time is not scaled.
    """
    times = scaled([o.latency for _, o in results], [o.calibration for _, o in results])
    times = [o.latency if o.status == "timeout" else t for t, (_, o) in zip(times, results)]
    latencies = sorted(t if o.status == "ok" else math.inf for t, (_, o) in zip(times, results))
    completed = [i for i, o in results if o.status == "ok"]

    def pick(q):
        value = nearest_rank(latencies, q)
        # A failed request misses every latency limit; if the percentile
        # lands on one, report the per-request limit.
        return (value if value != math.inf else limit) * 1e3

    if workload == "cli_diff":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    weeks = sum(cases[i].weeks for i in completed)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "latency_p50_ms": {"value": pick(0.5), "unit": "ms"},
        "latency_p90_ms": {"value": pick(0.9), "unit": "ms"},
        "throughput_trace_weeks_per_s": {"value": weeks / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        "completed_share": {"value": len(completed) / len(results), "unit": "share"},
    }


def _time_child(code: str) -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return perf_counter() - start


def cli_import_ms() -> float:
    """Fresh-interpreter import of tachocheck.cli minus a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(_time_child("pass"))
        full.append(_time_child("import tachocheck.cli"))
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def parse_alloc_peak_mb(paths) -> float:
    """tracemalloc peak of parse_trace on the corpus's largest input."""
    from tachocheck import parse_trace

    data = max((p.read_bytes() for p in paths), key=len)
    tracemalloc.start()
    try:
        parse_trace(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def probe(workload, cases, paths, workdir, tracer):
    """One traced call into the layers this workload's requests never reach.

    fleet and search run in-process, so a `diff` child on their smallest
    spirit case measures the cli and profiles layers; cli_diff runs `diff`,
    so an in-process check of its smallest case measures Report.to_json.
    The probe's verdict is checked under spirit like any other.
    """
    request = "probe"
    if workload == "cli_diff":
        index = min(range(len(cases)), key=lambda i: len(cases[i].text))
        case = cases[index]
        tracer.request = request
        outcome = serve_in_process(gen.SPIRIT_PROFILE, paths[index], LIMIT_S[workload])
        tracer.end_request()
        good = outcome.status == "ok" and outcome.verdict == _spirit(case.expected["verdicts"])
        return outcome, good
    spirit_cases = [i for i, c in enumerate(cases) if c.profile == gen.SPIRIT_PROFILE]
    index = min(spirit_cases, key=lambda i: len(cases[i].text))
    spans_out = workdir / "spans-probe.json"
    tracer.request = request
    outcome = serve_cli(paths[index], workdir, LIMIT_S["cli_diff"] * 4, spans_out)
    tracer.end_request()
    if spans_out.exists():
        _merge_child_spans(tracer, spans_out, request)
    good = outcome.status == "ok"
    if good:
        good = _spirit(outcome.verdict["verdicts"]) == cases[index].expected and (
            outcome.verdict["exit"] == (1 if outcome.verdict["disagreements"] else 0)
        )
    return outcome, good


def _spirit(verdicts: dict) -> dict:
    """The spirit profile's violation counts from a `diff` verdicts table."""
    return {article: per["spirit"] for article, per in verdicts.items() if per["spirit"]}


def per_layer(cases, workload, layers, probed, plain, traced, probe_outcome, alloc_mb, import_ms) -> dict:
    """Per-layer metrics; each is a mean per traced request unless noted.

    `layers` summarizes the spans of the traced requests and `probed` those
    of the probe, which stands in for layers the requests never reach.
    """
    n = len(traced)

    def layer(name, field="ms"):
        entry = layers.get(name)
        if entry is None:  # not reached by this workload's requests
            entry = probed.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "sizes": []})
            return entry[field]
        return entry[field] / n

    minutes = layers.get("minutes.label_minutes", {}).get("sizes", [])
    items = layers.get("periods.accumulate_driving", {}).get("sizes", [])
    # cli.main and the process around it: from the requests when they are
    # `diff` children, otherwise from the probe.
    main_ms = layer("cli.main")
    if workload == "cli_diff":
        latency_ms = statistics.fmean(o.latency for _, o in traced) * 1e3
    else:
        latency_ms = probe_outcome.latency * 1e3
    plain_ok = {k: o for k, (_, o) in enumerate(plain) if o.status == "ok"}
    both = [k for k, (_, o) in enumerate(traced) if o.status == "ok" and k in plain_ok]
    overhead = (
        sum(traced[k][1].latency for k in both) / sum(plain_ok[k].latency for k in both) - 1
        if both
        else 0.0
    )
    shares = {o.status: 0 for _, o in plain}
    for _, o in plain:
        shares[o.status] += 1
    total_minutes = sum(c.duration // gen.MINUTE for c in cases)
    straddled = sum(gen.straddle_share(c) * (c.duration // gen.MINUTE) for c in cases)

    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "timeline.parse_trace.ms": m(layer("timeline.parse_trace"), "ms"),
        "timeline.parse_trace.alloc_peak_mb": m(alloc_mb, "MB"),
        "timeline.digest.ms": m(layer("timeline.digest"), "ms"),
        "minutes.label_minutes.ms": m(layer("minutes.label_minutes"), "ms"),
        "minutes.label_minutes.calls": m(layer("minutes.label_minutes", "calls"), "count"),
        "minutes.minutes_labeled": m(sum(minutes) / n, "count"),
        "minutes.straddle_share": m(straddled / total_minutes, "share"),
        "periods.classify_rests.ms": m(layer("periods.classify_rests"), "ms"),
        "periods.accumulate_driving.ms": m(layer("periods.accumulate_driving"), "ms"),
        "periods.accumulate_driving.items": m(max(items, default=0), "count"),
        "periods.daily_driving_spans.ms": m(layer("periods.daily_driving_spans"), "ms"),
        "rules.check_article7.ms": m(layer("rules.check_article7"), "ms"),
        "rules.check_article82.ms": m(layer("rules.check_article82"), "ms"),
        "rules.check_article61.ms": m(layer("rules.check_article61"), "ms"),
        "rules.check_article86.ms": m(layer("rules.check_article86"), "ms"),
        "rules.solve_weekly_rests.ms": m(layer("rules.solve_weekly_rests"), "ms"),
        "rules.solve_weekly_rests.calls": m(layer("rules.solve_weekly_rests", "calls"), "count"),
        "rules.check_all.calls": m(layer("rules.check_all", "calls"), "count"),
        "rules.Report.to_json.ms": m(layer("rules.Report.to_json"), "ms"),
        "profiles.diff_verdicts.self_ms": m(layer("profiles.diff_verdicts", "self_ms"), "ms"),
        "cli.import_ms": m(import_ms, "ms"),
        "cli.main.ms": m(main_ms, "ms"),
        "cli.process_overhead_ms": m(latency_ms - main_ms, "ms"),
        "requests.timed_out": m(shares.get("timeout", 0) / len(plain), "share"),
        "requests.raised": m(shares.get("raised", 0) / len(plain), "share"),
        "trace.overhead_share": m(overhead, "share"),
    }


def _reindexed_summary(spans, keep):
    """summarize() over the spans whose request id passes `keep`."""
    index = {}
    subset = []
    for i, span in enumerate(spans):
        if keep(span[tracing.REQUEST]):
            index[i] = len(subset)
            copy = list(span)
            copy[tracing.PARENT] = index.get(span[tracing.PARENT], -1)
            subset.append(copy)
    return tracing.summarize(subset)


def breakdown(layers: dict, total_ms: float) -> list[str]:
    """Self time per layer function as a share of traced request time.

    The last row is request time outside every traced layer: for `diff`
    children, interpreter start, imports and argument handling; in-process,
    reading the file and parsing the profile.
    """
    rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"])
    outside = total_ms - sum(entry["self_ms"] for entry in layers.values())
    lines = [
        f"  {name:30s} self {entry['self_ms']:10.1f} ms  {entry['self_ms'] / total_ms:6.1%}"
        f"  calls {entry['calls']}"
        for name, entry in rows
    ]
    lines.append(f"  {'(outside traced layers)':30s} self {outside:10.1f} ms  {outside / total_ms:6.1%}")
    return lines


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tachocheck").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text(encoding="ascii").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.CORPORA))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "tachocheck" / "__init__.py").is_file():
        print(f"error: no tachocheck package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = args.workload
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, setup_calibrations = [], []
        for _ in range(SETUP_REPEATS):
            setup_calibrations += [calibrate(), calibrate()]
            start = perf_counter()
            cases, paths = setup(workload, args.seed, workdir)
            setup_times.append(perf_counter() - start)
        setup_s = statistics.median(setup_times) * CAL_REFERENCE_S / statistics.median(
            setup_calibrations
        )

        # Untimed warm-up: first-call costs are paid once per process.
        warm = min(range(len(cases)), key=lambda i: len(cases[i].text))
        serve(workload, cases[warm], paths[warm], workdir)

        env = environment()
        if args.trace == 0:
            results, wall, passes = run_passes(
                workload, cases, paths, workdir, args.seconds, MIN_REQUESTS
            )
            wrong = check_verdicts(cases, results)
            metrics = end_to_end(workload, cases, results, setup_s, LIMIT_S[workload])
            raw = sorted(o.latency for _, o in results)
            detail = {
                "passes": passes,
                "wall_s": wall,
                "raw_setup_s": statistics.median(setup_times),
                "raw_latency_p50_ms": nearest_rank(raw, 0.5) * 1e3,
                "raw_latency_p90_ms": nearest_rank(raw, 0.9) * 1e3,
                "calibration_median_ms": statistics.median(o.calibration for _, o in results) * 1e3,
            }
            all_results = results
        else:
            plain, wall, passes = run_passes(workload, cases, paths, workdir, args.seconds / 2)
            alloc_mb = parse_alloc_peak_mb(paths)
            import_ms = cli_import_ms()
            tracer = tracing.Tracer()
            tracer.install()
            traced, traced_wall, _ = run_passes(
                workload, cases, paths, workdir, passes=passes, tracer=tracer
            )
            probe_outcome, probe_good = probe(workload, cases, paths, workdir, tracer)
            wrong = check_verdicts(cases, plain) + check_verdicts(cases, traced)
            wrong += [
                f"traced {cases[i].name}"
                for (i, a), (_, b) in zip(plain, traced)
                if a.status == b.status == "ok" and a.verdict != b.verdict
            ]
            if not probe_good:
                wrong.append(f"probe: {probe_outcome.status} {probe_outcome.error}")
            layers = _reindexed_summary(tracer.spans, lambda r: r != "probe")
            probed = _reindexed_summary(tracer.spans, lambda r: r == "probe")
            metrics = per_layer(
                cases, workload, layers, probed, plain, traced, probe_outcome, alloc_mb, import_ms
            )
            request_ms = sum(o.latency for _, o in traced) * 1e3
            print(f"traced {len(traced)} requests, {request_ms:.0f} ms; self time by layer:")
            for line in breakdown(layers, request_ms):
                print(line)
            detail = {"passes": passes, "wall_s": wall, "traced_wall_s": traced_wall}
            all_results = plain + traced
            (OUT / f"spans-{tag}.json").write_text(
                json.dumps({"spans": tracer.spans}), encoding="utf-8"
            )

        errors = sorted({o.error for _, o in all_results if o.error})
        result = {
            "correct": not wrong,
            "attempted": len(all_results),
            "failed": sum(1 for _, o in all_results if o.status != "ok"),
            "metrics": metrics,
        }
        (OUT / f"result-{tag}.json").write_text(
            json.dumps(
                {**result, "env": env, "detail": detail, "wrong": wrong, "errors": errors},
                indent=2,
            ),
            encoding="utf-8",
        )
        for name in wrong:
            print(f"wrong verdict: {name}", file=sys.stderr)
        print("env " + json.dumps(env, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
