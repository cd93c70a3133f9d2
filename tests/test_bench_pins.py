"""The benchmark's correctness gate, run on all of its seed-0 calls.

`perfbench/` pins every benchmarked call twice: the sha256 of its stdout
(`digests.json`) and, traced, its count of calls to each public function of
the package (`counts.json`). A change that alters either fails the benchmark
run. These tests apply the same gate to every seed-0 call of every workload,
with the benchmark's own harness, which they import read-only from
`perfbench/`, so such a change fails here first.
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from apsemigroups import cli  # noqa: E402

# workload -> number of seed-0 calls; every call of every workload is pinned
PINNED = {"wide-verify": 27, "analyze-sweep": 23, "glued-verify": 13}


@pytest.fixture
def alarm():
    previous = signal.getsignal(signal.SIGALRM)
    yield harness._Alarm()
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_digests_and_traced_counts_match_the_recorded_ones(workload, alarm):
    calls = workloads.generate(workload, workloads.DEFAULT_SEED)
    assert len(calls) == PINNED[workload]
    digests = harness.recorded(harness.DIGESTS, workload)
    counts = harness.recorded(harness.COUNTS, workload)

    plain, traced, traced_counts = harness.traced_pass(
        cli, calls, alarm, time.monotonic() + 600, Tracer()
    )

    assert {call.key for call in plain} <= digests.keys() & counts.keys()
    assert harness.check_calls(plain + traced, digests) == (0, 0, [])
    assert harness.check_counts([(traced, traced_counts)], counts) == []
