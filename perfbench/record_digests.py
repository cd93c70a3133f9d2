"""Record what the benchmark checks each call against: the sha256 of its
stdout, and the call counts of its traced run.

Run from the root of a checkout, only when a change alters the CLI's output
or the package's call structure on purpose (and say so in that change):

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes perfbench/digests.json and perfbench/counts.json for the default
seed's calls of every workload. Refuses to record a call that exits non-zero,
whose `checks` do not all pass, or whose traced stdout differs.
"""

from __future__ import annotations

import json
import sys
import time

import harness
import workloads
from apsemigroups import cli
from tracer import Tracer


def main() -> int:
    digests, counts = {}, {}
    tracer = Tracer()
    for name in workloads.NAMES:
        calls = workloads.generate(name, workloads.DEFAULT_SEED)
        plain, traced, traced_counts = harness.traced_pass(
            cli, calls, harness._Alarm(), time.monotonic() + 1e9, tracer
        )
        for p, t in zip(plain, traced):
            problem = harness.check_output(p.argv, p.rc, p.text, {})
            if problem is None and (t.rc, t.text) != (p.rc, p.text):
                problem = "traced stdout differs from untraced stdout"
            if problem is not None:
                print(f"refusing to record {p.key}: {problem}", file=sys.stderr)
                return 1
        digests[name] = [[p.key, harness.digest(p.text)] for p in plain]
        counts[name] = [[p.key, c] for p, c in zip(plain, traced_counts)]
        print(f"{name}: {len(calls)} calls", file=sys.stderr)
    harness.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n")
    # One line per call, so that a change in counts shows as a one-line diff.
    harness.COUNTS.write_text(
        "{\n"
        + ",\n".join(
            f" {json.dumps(name)}: [\n"
            + ",\n".join(f"  {json.dumps(pair, sort_keys=True)}" for pair in pairs)
            + "\n ]"
            for name, pairs in counts.items()
        )
        + "\n}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
