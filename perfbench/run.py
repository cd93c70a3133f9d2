"""End-to-end benchmark of the `apsemigroups` CLI on seeded family workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-sweep --seed 0 --seconds 40 --trace 0

Workloads: analyze-sweep, glued-verify, wide-verify (see perfbench/README.md).
Each run starts `harness.py` in a fresh process that calls `cli.main` in a
closed loop. With `--trace 0` it reports the end-to-end metrics; `setup_s` is
the median over SETUP_PROBES extra processes that only set up, plus the
measuring one. With `--trace 1` it reports the per-layer metrics of a traced
run instead. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 0 when every output
was correct, 1 when not, 2 when the package or the arguments are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("analyze-sweep", "glued-verify", "wide-verify")
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def spawn(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    """Start one harness process and return the JSON it prints. The child is
    killed and reaped if it outlives the timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        str(BENCH_DIR / "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="apsemigroups CLI benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "apsemigroups" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, "--setup-only", timeout=PROBE_TIMEOUT_S)["setup_s"])
        res = spawn(args, timeout=RUN_TIMEOUT_S)
    except (RuntimeError, ValueError, IndexError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(res["metrics"])
    if args.trace:
        units = metric_units("per_layer")
    else:
        metrics["setup_s"] = statistics.median(setups + [res["setup_s"]])
        units = metric_units("end_to_end")
    out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}

    correct = res["incorrect"] == 0
    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {res['shape']}"
    )
    for msg in res["messages"][:20]:
        print(f"FAILED {msg}")
    print(f"  fail_frac        {res['failed'] / res['attempted']!r} ({res['failed']}/{res['attempted']})")
    for name, m in out_metrics.items():
        print(f"  {name:<40} {m['value']!r} {m['unit']}")
    for name, value in res.get("seconds", {}).items():
        print(f"  {name:<40} {value!r} s (not compared: moves with the host)")
    print(f"  host_ref_s       {res['host_ref_s']!r} s (one reference work, median; not compared)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": out_metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
