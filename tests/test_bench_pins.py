"""The benchmark's correctness gate, run on a fast subset of its calls.

`perfbench/` pins every benchmarked call twice: the sha256 of its stdout
(`digests.json`) and, traced, its count of calls to each public function of
the package (`counts.json`). A change that alters either fails the benchmark
run. These tests apply the same gate with the benchmark's own harness, which
they import read-only from `perfbench/`, so such a change fails here first.
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

# glued-verify calls that take a fraction of a second each; the showcase and
# the other k = 2 families take seconds
GLUED_FAST = {
    "verify --format json --a 0,2 --d 1,0 --k 2 --b 1,1",
    "verify --format json --a 2,0 --d 0,1 --k 2 --b 1,1",
    "verify --format json --a 2,2 --d 0,1 --k 2 --b 3,4",
}


def _k(argv) -> int:
    return int(argv[argv.index("--k") + 1])


PINNED = {
    "wide-verify": (lambda argv: True, 27),
    "analyze-sweep": (lambda argv: _k(argv) <= 4, 15),
    "glued-verify": (lambda argv: " ".join(argv) in GLUED_FAST, 3),
}


@pytest.fixture
def alarm():
    previous = signal.getsignal(signal.SIGALRM)
    yield harness._Alarm()
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_digests_and_traced_counts_match_the_recorded_ones(workload, alarm):
    keep, size = PINNED[workload]
    calls = [argv for argv in workloads.generate(workload, workloads.DEFAULT_SEED) if keep(argv)]
    assert len(calls) == size
    digests = harness.recorded(harness.DIGESTS, workload)
    counts = harness.recorded(harness.COUNTS, workload)

    plain, traced, traced_counts = harness.traced_pass(
        cli, calls, alarm, time.monotonic() + 600, Tracer()
    )

    assert {call.key for call in plain} <= digests.keys() & counts.keys()
    assert harness.check_calls(plain + traced, digests) == (0, 0, [])
    assert harness.check_counts([(traced, traced_counts)], counts) == []
