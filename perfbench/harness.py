"""Benchmark worker: one process, one thread, a closed loop of `cli.main` calls.

Run by `run.py` from the root of a checkout, with `src` on the import path:

    python3 perfbench/harness.py --workload NAME --seed N --seconds S \
        --trace 0|1 --t0 MONOTONIC [--setup-only]

`--t0` is the `time.monotonic()` reading the parent took just before it
started this process, so `setup_s` covers interpreter start, the package
import and input generation. Prints one JSON object on stdout.

Untraced (`--trace 0`), it runs the workload's batch once, then repeats
calls while they fit in `--seconds`, always the call with the least measured
time so far. A sampler times a fixed piece of reference work at short
intervals throughout, and each call's latency is reported in units of that
reference as well as in seconds (see `HostSpeed`). Traced (`--trace 1`), it
makes interleaved passes while they fit: each call runs once untraced, then
once traced. It reports the per-layer metrics of the traced halves and the
tracer's overhead against the untraced halves.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
COUNTS = BENCH_DIR / "counts.json"

# Far from every family's time at the seed commit (the slowest, the glued
# showcase and analyze at k = 9, take 6 to 10 s), so the verdict does not flap.
CALL_DEADLINE_S = 40.0
# No call starts after this many seconds from process start, so a run ends
# well inside the 180 s a run may take even when every call is slow.
HARD_STOP_S = 150.0
# Reference work: about 5 to 8 ms on the 2-vCPU host the benchmark was tuned on.
REF_N = 3000
# Process CPU time between two host-speed samples (each costs one reference).
SAMPLE_PERIOD_S = 0.1
# A call's host speed is the mean reference time over the samples taken from
# this long before the call starts to this long after it ends.
SPEED_WINDOW_S = 0.5

_perf = time.perf_counter


class DeadlineExceeded(BaseException):
    """Raised inside a call that ran past its deadline (not an Exception, so
    no handler in the package can swallow it)."""


class _Alarm:
    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise DeadlineExceeded()

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_work() -> int:
    """Fixed pure-Python work of the kind the package's inner loops do: tuple
    arithmetic on exponent vectors, a dict keyed by them, Fraction sums. Its
    duration tracks the speed the host gives the package at that moment."""
    table: dict[tuple, int] = {}
    step = (1, 2, 0, 1)
    acc = Fraction(0)
    for i in range(REF_N):
        mono = tuple(a + b for a, b in zip((i % 7, i % 5, i % 3, i & 1), step))
        table[mono] = table.get(mono, 0) + i
        if i % 16 == 0:
            acc += Fraction(i, 7)
    return len(table)


def host_reference_s() -> float:
    """One timed run of the reference work."""
    start = _perf()
    reference_work()
    return _perf() - start


class HostSpeed:
    """Samples host speed while calls run: every SAMPLE_PERIOD_S of process
    CPU time, a SIGPROF handler times the reference work.

    On a shared host the same call can take a third longer from one second to
    the next, and a whole run can be slower than the one before, with CPU time
    equal to wall time (no steal shows). The reference work slows with it, so
    a call's latency divided by the reference time around it measures the
    package's work and leaves most of the host's drift out."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        start = _perf()
        reference_work()
        self.samples.append((start, _perf() - start))

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def _between(self, lo: float, hi: float) -> list[tuple[float, float]]:
        key = lambda sample: sample[0]  # noqa: E731
        i = bisect.bisect_left(self.samples, lo, key=key)
        j = bisect.bisect_right(self.samples, hi, key=key)
        return self.samples[i:j]

    def net_latency(self, call: "Call") -> float:
        """The call's latency without the samples taken inside it."""
        inside = self._between(call.start, call.end)
        return call.latency - sum(d for _, d in inside)

    def in_refs(self, call: "Call") -> float:
        """The call's net latency in units of the reference time around it."""
        around = self._between(call.start - SPEED_WINDOW_S, call.end + SPEED_WINDOW_S)
        return self.net_latency(call) / statistics.fmean(d for _, d in around)

    def median_s(self) -> float:
        return statistics.median(d for _, d in self.samples)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def recorded(path: Path, workload: str) -> dict:
    """argv string -> what was recorded for it (see record_digests.py)."""
    return dict(json.loads(path.read_text())[workload])


class Call(NamedTuple):
    """Outcome of one `cli.main` call."""

    argv: tuple
    start: float  # perf_counter reading
    latency: float
    rc: int | str  # exit code, or why the call did not finish
    text: str  # captured stdout

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def end(self) -> float:
        return self.start + self.latency


def run_call(cli, argv, alarm: _Alarm, stop_at: float) -> Call:
    """One call with stdout captured; none starts after `stop_at` (a
    `time.monotonic()` reading). `cli.main` is looked up per call, so a
    traced call goes through the wrapper. Output is only kept here; checking
    it happens after the timed part."""
    remaining = stop_at - time.monotonic()
    if remaining <= 0:
        return Call(argv, _perf(), 0.0, "not started: run time used up", "")
    buf = io.StringIO()
    t = _perf()
    try:
        alarm.arm(min(CALL_DEADLINE_S, remaining))
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        finally:
            alarm.disarm()
    except DeadlineExceeded:
        rc = f"missed its {CALL_DEADLINE_S:g} s deadline"
    except Exception:
        traceback.print_exc()
        rc = "raised"
    return Call(argv, t, _perf() - t, rc, buf.getvalue())


def check_output(argv, rc, text: str, expected: dict[str, str]) -> str | None:
    """None when the call's output is correct, else what was wrong. A call
    with a recorded digest must match it byte for byte; any other call must
    print an all-pass `checks` list."""
    if rc != 0:
        return f"exit {rc}" if isinstance(rc, int) else rc
    want = expected.get(" ".join(argv))
    if want is not None:
        return None if digest(text) == want else "stdout digest differs from the recorded one"
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError) as exc:
        return f"unreadable output: {exc!r}"
    failing = [c["name"] for c in checks if not c["passed"]]
    return f"failing checks {failing}" if failing else None


def check_calls(done: list[Call], expected) -> tuple[int, int, list[str]]:
    """(failed calls, incorrect outputs, messages). A deadline miss is a
    failed call; a wrong exit code or output is also an incorrect one."""
    failed = incorrect = 0
    messages = []
    for call in done:
        problem = check_output(call.argv, call.rc, call.text, expected)
        if problem is None:
            continue
        failed += 1
        if isinstance(call.rc, int) or call.rc == "raised":
            incorrect += 1
        messages.append(f"{call.key}: {problem}")
    return failed, incorrect, messages


def _fits(args, run_start: float, next_s: float, stop_at: float) -> bool:
    """Whether something that took `next_s` last time, started now, ends
    within the measuring window."""
    return _perf() - run_start + next_s <= args.seconds and time.monotonic() <= stop_at


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args, cli, calls, expected, run_start: float) -> dict:
    """The whole batch once; then, while a call still fits in the window at
    its first latency, the call with the least measured time so far runs
    again. So short calls get many runs and long ones few, and each call's
    median over its runs is the unit: `wall_ref` sums them over the batch and
    `call_p50_ref` is their median, so each family counts once. Latencies are
    in units of the reference work timed around each call (`HostSpeed`);
    the same figures in seconds are reported beside them."""
    alarm = _Alarm()
    speed = HostSpeed()
    stop_at = args.t0 + HARD_STOP_S
    texts: dict[tuple[str, str], str] = {}

    def run(argv) -> Call:
        # Repeats print the same text: keep one copy of it, so that memory
        # does not grow with the number of calls the window holds.
        call = run_call(cli, argv, alarm, stop_at)
        return call._replace(text=texts.setdefault((call.key, call.text), call.text))

    speed.start()
    try:
        first = [run(argv) for argv in calls]
        done = list(first)
        spent = [call.latency for call in first]
        while True:
            order = sorted(range(len(calls)), key=spent.__getitem__)
            i = next((i for i in order if _fits(args, run_start, first[i].latency, stop_at)), None)
            if i is None:
                break
            call = run(calls[i])
            done.append(call)
            spent[i] += call.latency
    finally:
        speed.stop()
    failed, incorrect, messages = check_calls(done, expected)
    refs: dict[str, list[float]] = {}
    secs: dict[str, list[float]] = {}
    for call in done:
        refs.setdefault(call.key, []).append(speed.in_refs(call))
        secs.setdefault(call.key, []).append(speed.net_latency(call))
    ref_medians = [statistics.median(v) for v in refs.values()]
    s_medians = [statistics.median(v) for v in secs.values()]
    return {
        "shape": f"{len(calls)} calls, {min(map(len, refs.values()))} to "
        f"{max(map(len, refs.values()))} runs each, {len(speed.samples)} host samples",
        "attempted": len(done),
        "failed": failed,
        "incorrect": incorrect,
        "messages": messages,
        "host_ref_s": speed.median_s(),
        "seconds": {
            "wall_s": sum(s_medians),
            "call_p50_s": statistics.median(s_medians),
        },
        "metrics": {
            "wall_ref": sum(ref_medians),
            "call_p50_ref": statistics.median(ref_medians),
            "peak_rss_mib": _peak_rss_mib(),
        },
    }


def _count_delta(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


def traced_pass(cli, calls, alarm: _Alarm, stop_at: float, tracer) -> tuple:
    """Each call once untraced, then again, traced. The untraced run warms
    the package's per-process display-order cache, so the traced run's
    counts depend on the call alone. Returns (untraced calls, traced calls,
    per-call counts of the traced runs)."""
    plain, traced, counts = [], [], []
    for argv in calls:
        plain.append(run_call(cli, argv, alarm, stop_at))
        tracer.install()
        try:
            before = tracer.counts()
            traced.append(run_call(cli, argv, alarm, stop_at))
        finally:
            tracer.uninstall()
        counts.append(_count_delta(tracer.counts(), before))
    return plain, traced, counts


def check_counts(passes: list[tuple], expected: dict[str, dict]) -> list[str]:
    """Every completed traced call must make the counts recorded for it, and
    the same counts in every pass. `passes` holds (traced calls, counts)."""
    seen: dict[str, list[dict]] = {}
    for traced, counts in passes:
        for call, c in zip(traced, counts):
            if call.rc == 0:
                seen.setdefault(call.key, []).append(c)
    problems = []
    for key, found in seen.items():
        want = expected.get(key)
        if want is not None and any(c != want for c in found):
            problems.append(f"{key}: traced call counts differ from the recorded ones")
        elif any(c != found[0] for c in found[1:]):
            problems.append(f"{key}: traced call counts differ between passes")
    return problems


def measure_traced(args, cli, calls, expected, run_start: float) -> dict:
    from tracer import Tracer

    alarm = _Alarm()
    stop_at = args.t0 + HARD_STOP_S
    ref = statistics.median(host_reference_s() for _ in range(9))
    tracer = Tracer()
    plain, traced, layers, passes = [], [], [], []
    pass_s = 0.0
    while not passes or _fits(args, run_start, pass_s, stop_at):
        tracer.reset()
        t = _perf()
        p, tr, counts = traced_pass(cli, calls, alarm, stop_at, tracer)
        pass_s = _perf() - t
        plain += p
        traced += tr
        layers.append(tracer.layer_metrics())
        passes.append((tr, counts))

    failed, incorrect, messages = check_calls(plain + traced, expected)
    for p, t in zip(plain, traced):
        if (p.rc, p.text) != (t.rc, t.text):
            incorrect += 1
            messages.append(f"{t.key}: traced stdout differs from untraced stdout")
    problems = check_counts(passes, recorded(COUNTS, args.workload))
    incorrect += len(problems)
    messages += problems

    # median_low keeps counts whole: it returns one of the measured values.
    metrics = {name: statistics.median_low(m[name] for m in layers) for name in layers[0]}
    # Each traced call ran right after its untraced twin, so host drift,
    # which lasts seconds to minutes, mostly cancels out of this ratio.
    metrics["trace.overhead_frac"] = (
        sum(c.latency for c in traced) / sum(c.latency for c in plain) - 1.0
    )
    return {
        "shape": f"{len(calls)} calls, {len(passes)} interleaved passes",
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "incorrect": incorrect,
        "messages": messages,
        "host_ref_s": ref,
        "metrics": metrics,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    from apsemigroups import cli

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    calls = workloads.generate(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    expected = recorded(DIGESTS, args.workload)
    run_start = _perf()
    run = measure_traced if args.trace else measure
    result = run(args, cli, calls, expected, run_start)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
