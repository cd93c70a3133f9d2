"""Self-tests of the benchmark's tracer, correctness gate and inputs.

Run from the root of a checkout (about 15 s):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from apsemigroups import cli  # noqa: E402

# One call per workload kind, small enough to run several times.
CALLS = [
    ("analyze", "--format", "json", "--a", "1,2", "--d", "3,1", "--k", "5"),
    ("verify", "--format", "json", "--a", "2,0", "--d", "0,2", "--k", "2", "--b", "3,5"),
    ("verify", "--format", "json", "--a", "20,5", "--d", "10,8", "--k", "4", "--skip-toric"),
]


def run_calls(calls=CALLS) -> list[str]:
    outs = []
    for argv in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        assert rc == 0, argv
        outs.append(buf.getvalue())
    return outs


def traced(calls=CALLS) -> tuple[list[str], tracer.Tracer]:
    t = tracer.Tracer()
    t.install()
    try:
        outs = run_calls(calls)
    finally:
        t.uninstall()
    return outs, t


def setUpModule():
    # The package caches a display order per variable count for the life of
    # the process; warm it so that every run below makes the same calls.
    run_calls()


class TracerTest(unittest.TestCase):
    def test_no_unwrapped_target_while_installed(self):
        t = tracer.Tracer()
        before = t.unwrapped_bindings()
        t.install()
        try:
            self.assertEqual(t.unwrapped_bindings(), [])
            # from-import bindings are the ones that are easy to miss
            import apsemigroups.verify as verify_mod

            self.assertIsNot(verify_mod.buchberger, t.originals["polynomials.buchberger"])
        finally:
            t.uninstall()
        self.assertIn("apsemigroups.verify.buchberger", before)
        self.assertEqual(t.unwrapped_bindings(), before, "uninstall restores every binding")

    def test_traced_stdout_is_byte_identical(self):
        plain = run_calls()
        with_trace, _ = traced()
        self.assertEqual(plain, with_trace)

    def test_counts_repeat_exactly(self):
        _, first = traced()
        _, second = traced()
        self.assertEqual(first.counts(), second.counts())
        self.assertGreater(first.counts()["verify.box_cells"], 0)

    def test_counts_match_cprofile(self):
        _, t = traced()
        prof = cProfile.Profile()
        prof.runcall(run_calls)
        ncalls = {}
        for (filename, line, name), row in pstats.Stats(prof).stats.items():
            ncalls[(filename, line, name)] = row[1]

        def profiled(fn) -> int:
            code = fn.__code__
            return ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)

        for span, fn in t.originals.items():
            self.assertEqual(t.stats[span].calls, profiled(fn), span)
        key = tracer.ORDER_KEY
        self.assertEqual(t.stats[key].calls, profiled(t._order_key), key)
        self.assertGreater(t.stats[key].calls, 0)

    def test_self_times_add_up_to_cli_main(self):
        _, t = traced()
        root = t.stats["cli.main"].total_s
        self.assertAlmostEqual(t.self_time_total(), root, delta=1e-6 * len(t.stats))
        layers = t.layer_metrics()
        split = (
            layers["cli.self_s"]
            + layers["verify.full_report.s"]
            + layers["semigroup.build_family.s"]
            + layers["cli.outside_report_s"]
        )
        self.assertAlmostEqual(split, root, delta=1e-6)


class GateTest(unittest.TestCase):
    def test_digest_mismatch_and_failing_check_are_caught(self):
        argv = CALLS[0]
        (text,) = run_calls([argv])
        key = " ".join(argv)
        self.assertIsNone(harness.check_output(argv, 0, text, {key: harness.digest(text)}))
        self.assertIsNotNone(harness.check_output(argv, 0, text + " ", {key: harness.digest(text)}))
        # Without a recorded digest, the parsed checks decide.
        doc = json.loads(text)
        self.assertIsNone(harness.check_output(argv, 0, text, {}))
        doc["checks"][0]["passed"] = False
        self.assertIsNotNone(harness.check_output(argv, 0, json.dumps(doc), {}))
        self.assertIsNotNone(harness.check_output(argv, 1, text, {}))

    def test_traced_counts_are_checked(self):
        calls = CALLS[:2]
        t = tracer.Tracer()
        alarm = harness._Alarm()
        passes = []
        for _ in range(2):
            _, traced_calls, counts = harness.traced_pass(
                cli, calls, alarm, time.monotonic() + 60, t
            )
            passes.append((traced_calls, counts))
        self.assertEqual(passes[0][1], passes[1][1])
        recorded = {" ".join(argv): c for argv, c in zip(calls, passes[0][1])}
        self.assertEqual(harness.check_counts(passes, recorded), [])
        self.assertEqual(harness.check_counts(passes, {}), [])
        off_by_one = dict(passes[0][1][0])
        off_by_one["cli.main.calls"] += 1
        self.assertEqual(len(harness.check_counts(passes, {" ".join(calls[0]): off_by_one})), 1)
        drifted = [passes[0], (passes[1][0], [off_by_one, passes[1][1][1]])]
        self.assertEqual(len(harness.check_counts(drifted, {})), 1)

    def test_deadline_counts_as_failed_not_incorrect(self):
        slow = ("analyze", "--format", "json", "--a", "1,2", "--d", "3,1", "--k", "7")
        old = harness.CALL_DEADLINE_S
        harness.CALL_DEADLINE_S = 0.05
        try:
            call = harness.run_call(cli, slow, harness._Alarm(), time.monotonic() + 60)
        finally:
            harness.CALL_DEADLINE_S = old
        self.assertLess(call.latency, 1.0)
        self.assertEqual(harness.check_calls([call], {})[:2], (1, 0))


class HostSpeedTest(unittest.TestCase):
    def test_latency_in_reference_units(self):
        speed = harness.HostSpeed()
        speed.samples = [(0.0, 0.01), (0.3, 0.02), (2.0, 0.04)]
        call = harness.Call(("analyze",), 0.2, 0.5, 0, "")
        # The sample at 0.3 s ran inside the call; samples within 0.5 s of
        # the call (0.0 and 0.3) give its reference time.
        self.assertAlmostEqual(speed.net_latency(call), 0.48)
        self.assertAlmostEqual(speed.in_refs(call), 0.48 / 0.015)

    def test_sampler_runs_during_calls(self):
        speed = harness.HostSpeed()
        speed.start()
        try:
            run_calls(CALLS[:1])
        finally:
            speed.stop()
        self.assertGreater(len(speed.samples), 0)


class WorkloadTest(unittest.TestCase):
    def test_seeded_inputs(self):
        for name in workloads.NAMES:
            first = workloads.generate(name, 7)
            self.assertEqual(first, workloads.generate(name, 7), name)
            self.assertNotEqual(first, workloads.generate(name, 8), name)

    def test_recordings_cover_the_default_seed(self):
        for path in (harness.DIGESTS, harness.COUNTS):
            for name in workloads.NAMES:
                recorded = [k for k, _ in json.loads(path.read_text())[name]]
                generated = [" ".join(a) for a in workloads.generate(name, workloads.DEFAULT_SEED)]
                self.assertEqual(recorded, generated, (path.name, name))


if __name__ == "__main__":
    unittest.main()
