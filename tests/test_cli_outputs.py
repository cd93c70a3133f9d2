"""Pin every CLI surface: exit code, stdout and stderr of a fixed grid of calls.

`cli_outputs.json`, next to this file, maps each call's argv (joined by
spaces) to the sha256 of its (exit code, stdout, stderr). The grid is every
subcommand in text and JSON over the families below, plus a few calls that
need flags only `verify` takes. Run this module as a script to re-record the
file from the current code:

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from apsemigroups.cli import main

RECORD = Path(__file__).resolve().parent / "cli_outputs.json"

COMMANDS = ("analyze", "ideal", "groebner", "hilbert", "resolution", "extend", "verify")
BIG = str(2**60)
SHOWCASE = ["--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"]
FAMILIES = [
    ["--a", "5,4", "--d", "4,9", "--k", "2"],
    ["--a", "5,4", "--d", "4,9", "--k", "3"],
    ["--a", "5,4", "--d", "4,9", "--k", "4"],
    ["--a", "5,4", "--d", "4,9", "--k", "5"],
    ["--a", "1,2", "--d", "2,1", "--k", "2", "--b", "3,4"],
    SHOWCASE,
    ["--a", "2,3", "--d", "2,2", "--k", "4", "--b", "7,9"],
    ["--a", f"{BIG},1", "--d", "1,2", "--k", "2"],
    ["--a", f"{BIG},1", "--d", "2,2", "--k", "2", "--b", f"{2**60 + 1},2"],
    # dependent directions
    ["--a", "1,1", "--d", "2,2", "--k", "2"],
    # b already in S, and b outside the cone
    ["--a", "5,4", "--d", "4,9", "--k", "3", "--b", "9,13"],
    ["--a", "5,4", "--d", "4,9", "--k", "3", "--b", "1,9"],
    # the cap is rejected by the subcommands that run no brute-force Apery
    SHOWCASE + ["--apery-cap", "1"],
]
# verify runs the elimination cross-check only here, and the 2^60 families
# fit their default box only here.
VERIFY_EXTRA = [
    ["--a", "5,4", "--d", "4,9", "--k", "2"],
    ["--a", "1,2", "--d", "2,1", "--k", "2", "--b", "3,4"],
    ["--a", f"{BIG},1", "--d", "1,2", "--k", "2", "--skip-toric", "--box-x", "8", "--box-y", "8"],
    ["--a", f"{BIG},1", "--d", "2,2", "--k", "2", "--b", f"{2**60 + 1},2",
     "--skip-toric", "--box-x", "8", "--box-y", "8"],
]


def grid() -> list[list[str]]:
    calls = []
    for fmt in ("text", "json"):
        for family in FAMILIES:
            for command in COMMANDS:
                toric = ["--skip-toric"] if command == "verify" else []
                calls.append([command, *family, *toric, "--format", fmt])
        for family in VERIFY_EXTRA:
            calls.append(["verify", *family, "--format", fmt])
    return calls


def digest(argv: list[str]) -> str:
    """sha256 of the call's (exit code, stdout, stderr), with argparse's
    line width pinned so usage lines wrap the same in every terminal."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def record() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in grid()}


def test_cli_outputs_match_record():
    expected = json.loads(RECORD.read_text())
    got = record()
    assert sorted(got) == sorted(expected), "the grid differs from the recorded one"
    changed = [call for call in got if got[call] != expected[call]]
    assert not changed, f"{len(changed)} calls changed output, first: {changed[0]}"


if __name__ == "__main__":
    RECORD.write_text(json.dumps(record(), indent=1) + "\n")
    print(f"recorded {len(grid())} calls in {RECORD}", file=sys.stderr)
