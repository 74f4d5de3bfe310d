"""Benchmark of the waldschmidt package: one workload per process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
src/ directory and nothing is installed.  Workloads (see BENCHMARK.json
for why each was chosen): generic-r8, dp4-catalog, monoid-window,
monomial-symbolic.  Each is a closed loop with one client in one thread:
the next query starts when the previous one returns.

--trace 0 measures the end-to-end metrics: the timed loop cycles through
the seeded query plan for --seconds, and every output is checked against
the references in perfbench/data with the exact arithmetic of checks.py.
setup_s is the median over this process and fresh processes that only
set up: 3 to 9 samples, no more once 6 s have gone.  --trace 1 runs a
fixed prefix of the plan once untraced and once with spans around each
layer (tracing.py), and reports per-query call counts and self times;
the counts repeat exactly for a given seed.
The last line of stdout is the result as JSON; the lines before it name
each metric with its unit.

Host speed.  On small shared machines the speed of the same code on the
same input drifts by up to 2x within minutes.  A fixed pure-Python probe
(Fraction, tuple and dict work, no package code) therefore runs between
queries, once per 0.05 s of measured time; host.calib_ms is its mean
duration over the run.  Every end-to-end time is scaled to a host on which
the probe takes REFERENCE_PROBE_MS: each query's latency is multiplied by
REFERENCE_PROBE_MS over the mean probe time within 0.5 s of that query,
and setup_s likewise by probes taken right after set-up.  queries_per_s
divides the checked queries by the sum of the scaled latencies, so probe
time is never counted.  The unscaled figures are printed as "raw" lines
before the result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import ceil  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
SETUP_SAMPLES = 9
SETUP_BUDGET_S = 6.0
PROBE_SPACING_S = 0.05
PROBE_WINDOW_S = 0.5
SETUP_PROBES = 40
REFERENCE_PROBE_MS = 1.0


def add_source() -> None:
    """Import the package from this checkout's src/, or stop."""
    if not (SRC / "waldschmidt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found under {SRC}")
    sys.path.insert(0, str(SRC))


def probe_ms() -> float:
    """One run of a fixed pure-Python Fraction/tuple/dict loop, in ms."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 301):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = (i % 31, i % 17)
        table[key] = table.get(key, 0) + acc.denominator % 97
    return (time.perf_counter() - start) * 1e3


class HostSpeed:
    """Probe samples taken alongside a measurement, with their times."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        self._owed = 0.0

    def probe(self, count: int) -> None:
        for _ in range(count):
            self.samples.append(probe_ms())
            self.times.append(time.perf_counter())

    def credit(self, seconds: float) -> None:
        """Probe once for every PROBE_SPACING_S of measured time."""
        self._owed += seconds
        while self._owed >= PROBE_SPACING_S:
            self.probe(1)
            self._owed -= PROBE_SPACING_S

    @property
    def calib_ms(self) -> float:
        return statistics.mean(self.samples)

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a raw time measured in [start, end] to the
        reference host: the probes within PROBE_WINDOW_S of the interval
        give the host speed there (all probes if none are that close)."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        return REFERENCE_PROBE_MS / statistics.mean(self.samples[lo:hi] or self.samples)

    def scaled(self, timings: list[tuple[float, float]]) -> list[float]:
        """Each (start, duration) as a duration on the reference host."""
        return [d * self.scale(t, t + d) for t, d in timings]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(p * len(ordered)) - 1)]


def latency_metrics(latencies: list[float], checked: int) -> dict[str, tuple[float, str]]:
    return {
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_p90_ms": (percentile(latencies, 0.9) * 1e3, "ms"),
        "queries_per_s": (checked / sum(latencies), "1/s"),
    }


def child_setup_s(args: argparse.Namespace) -> float:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_queries(workload, rounds: list[list], host: HostSpeed, seconds: float | None = None):
    """Run the rounds once, or cycle through them until `seconds` have passed.

    A run stops only at the end of a round, so every run sees the same mix
    of queries.  Each output is checked as soon as its query returns and
    then dropped, outside the latency.  Returns the number of failed
    queries and the (start, latency) of each query; probes run between
    queries.
    """
    failed, timings = 0, []
    measured = 0.0
    for i in itertools.count():
        if seconds is None and i == len(rounds):
            break
        for query in rounds[i % len(rounds)]:
            t = time.perf_counter()
            try:
                out, error = workload.run(query), None
            except Exception:  # the run keeps going; the query counts as failed
                out, error = None, traceback.format_exc(limit=3)
            latency = time.perf_counter() - t
            timings.append((t, latency))
            measured += latency
            problems = [error] if error else check_output(workload, query, out)
            if problems:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {query!r}: {'; '.join(problems)}", file=sys.stderr)
            host.credit(latency)
        if seconds is not None and measured >= seconds:
            break
    host.probe(1)
    return failed, timings


def check_output(workload, query, out) -> list[str]:
    try:
        return workload.check(query, out)
    except Exception:  # malformed output: the query failed its check
        return [traceback.format_exc(limit=3)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    add_source()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    tmp_dir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads, tracing, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            tmp_dir.parent.rmdir()


def measure(args, workloads, tracing, tmp_dir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        problems = workload.setup(args.seed, DATA, tmp_dir)
    finally:
        if tracer:
            tracer.restore()
    setup_end = time.perf_counter()
    setup_host = HostSpeed()
    setup_host.probe(SETUP_PROBES)
    setup_s = (setup_end - T0) * setup_host.scale(setup_end, setup_end)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    metrics: dict[str, tuple[float, str]] = {}
    host = HostSpeed()
    if not tracer:
        setups = [setup_s]
        while len(setups) < SETUP_SAMPLES and (
                len(setups) < 3 or time.perf_counter() - setup_end < SETUP_BUDGET_S):
            setups.append(child_setup_s(args))
        failed, timings = run_queries(workload, workload.plan, host, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = len(timings)
        checked = attempted - failed
        print(f"raw setup_s {setup_end - T0:.6g} s (this process)")
        for name, (value, unit) in latency_metrics([d for _, d in timings], checked).items():
            print(f"raw {name} {value:.6g} {unit}")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics.update(latency_metrics(host.scaled(timings), checked))
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"fail_share {failed / attempted:.4f} ({failed}/{attempted} queries)")
    else:
        plan = [[q for rnd in workload.plan for q in rnd][:workload.trace_queries]]
        failed, untraced = run_queries(workload, plan, host)
        tracer.phase = "query"
        tracer.install()
        try:
            traced_failed, traced = run_queries(workload, plan, host)
        finally:
            tracer.restore()
        tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        failed += traced_failed
        attempted = len(untraced) + len(traced)
        traced_scaled = sum(host.scaled(traced))
        metrics.update(tracer.layer_metrics(
            len(traced), traced_scaled / sum(d for _, d in traced),
            setup_host.scale(setup_end, setup_end)))
        metrics["trace.overhead_ratio"] = (traced_scaled / sum(host.scaled(untraced)), "ratio")

    mismatches, cert_problems = workloads.expected_mismatch()
    problems += cert_problems
    print("dp4.expected_mismatch covers: " + "; ".join(mismatches))
    diagnostics = {"host.calib_ms": (host.calib_ms, "ms"),
                   "dp4.expected_mismatch": (len(mismatches), "count")}
    if tracer:
        metrics.update(diagnostics)
    else:
        for name, (value, unit) in diagnostics.items():
            print(f"{name} {value:.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
