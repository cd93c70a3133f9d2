import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from apsemigroups import Vec2
from apsemigroups.cli import _build, _parser, _render_json, _report_doc, main
from conftest import property_settings, run_fresh_python


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out), out


class TestAnalyze:
    def test_showcase_report(self, capsys):
        code, doc, _ = run_json(capsys, ["analyze", "--a", "5,4", "--d", "4,9", "--k", "3"])
        assert code == 0
        assert doc["family"]["generators"] == [[5, 4], [9, 13], [13, 22], [17, 31]]
        gens = [g["text"] for g in doc["ideal"]["generators"]]
        assert gens == ["x2^2 - x1*x3", "x2*x3 - x1*x4", "x3^2 - x2*x4"]
        exponents = [(c, tuple(deg)) for c, deg in doc["hilbert"]["numerator_terms"]]
        assert exponents == [
            (1, (0, 0)),
            (-1, (18, 26)),
            (-1, (22, 35)),
            (-1, (26, 44)),
            (1, (31, 48)),
            (1, (35, 57)),
        ]
        assert doc["flags"] == {
            "cohen_macaulay": True,
            "gorenstein": False,
            "normal": True,
            "koszul": True,
        }
        assert doc["regularity"] == 2
        assert doc["resolution"]["betti"] == [1, 3, 2]
        assert all(c["passed"] for c in doc["checks"])

    def test_invalid_directions_exit_2(self, capsys):
        code, out, err = run(capsys, ["analyze", "--a", "1,0", "--d", "2,0", "--k", "2"])
        assert code == 2
        assert "det(a, d) = 0" in err

    def test_bad_vector_syntax_exit_2(self, capsys):
        code, _, err = run(capsys, ["analyze", "--a", "zzz", "--d", "2,0", "--k", "2"])
        assert code == 2

    def test_text_mode_mentions_ideal(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--a", "5,4", "--d", "4,9", "--k", "3"])
        assert code == 0
        assert "x2^2 - x1*x3" in out
        assert "flags: cohen_macaulay=yes, gorenstein=no, normal=yes, koszul=yes" in out


class TestExtend:
    def test_showcase_extension(self, capsys):
        code, doc, _ = run_json(
            capsys, ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"]
        )
        assert code == 0
        ext = doc["extension"]
        assert ext["mu"] == 2
        assert ext["lambda"] == [2, 0, 1, 1]
        assert ext["extra_generator"]["terms"] == [[-1, [2, 0, 1, 1, 0]], [1, [0, 0, 0, 0, 2]]]
        assert doc["qf"] == [[3, 4], [5, 6]]
        assert doc["cm_type"] == 2
        assert doc["flags"]["normal"] is False
        assert doc["flags"]["cohen_macaulay"] is True
        assert ext["betti"] == [1, 4, 5, 2]
        # both Apery routes are reported; they agree, so no reconciliation note
        assert ext["apery"] == ext["apery_bruteforce"]
        assert "reconciliation" not in ext

    def test_requires_b(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["extend", "--a", "2,3", "--d", "2,2", "--k", "3"])
        assert exc.value.code == 2

    def test_bad_extension_exit_2(self, capsys):
        code, _, err = run(
            capsys, ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "4,6"]
        )
        assert code == 2
        assert "already lies" in err

    def test_extension_outside_the_cone_stops_fast(self, capsys):
        # no multiple of (1,0) ever lies in the cone of (2,3) and (8,9), so
        # the mu bound is never searched
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "1,0",
             "--mu-bound", "1000000"],
        )
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err == (
            "error: extension vector (1,0) lies outside the cone spanned by "
            "(2,3) and (8,9)\n"
        )

    def test_small_cap_fails_checks(self, capsys):
        code, out, _ = run(
            capsys,
            ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
             "--apery-cap", "1"],
        )
        assert code == 1
        assert "FAIL" in out

    def test_reconciliation_note_appears_when_routes_differ(self, capsys):
        # an undersized cap makes the brute-force set incomplete, so the
        # two Apery routes disagree and the note must be emitted
        code, doc, _ = run_json(
            capsys,
            ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
             "--apery-cap", "1"],
        )
        assert code == 1
        assert "reconciliation" in doc["extension"]
        assert doc["extension"]["apery"] != doc["extension"]["apery_bruteforce"]


class TestOtherCommands:
    def test_ideal(self, capsys):
        code, doc, _ = run_json(capsys, ["ideal", "--a", "5,4", "--d", "4,9", "--k", "3"])
        assert code == 0
        assert doc["ideal"]["mu"] == 3
        assert "groebner" not in doc["ideal"]

    def test_groebner(self, capsys):
        code, doc, _ = run_json(capsys, ["groebner", "--a", "5,4", "--d", "4,9", "--k", "3"])
        assert code == 0
        assert [g["text"] for g in doc["ideal"]["groebner"]] == [
            "x2^2 - x1*x3",
            "x2*x3 - x1*x4",
            "x3^2 - x2*x4",
        ]

    def test_hilbert(self, capsys):
        code, doc, _ = run_json(capsys, ["hilbert", "--a", "2,1", "--d", "1,2", "--k", "2"])
        assert code == 0
        assert doc["hilbert"]["denominator"] == [[2, 1], [3, 3], [4, 5]]

    def test_hilbert_k5(self, capsys):
        code, doc, _ = run_json(capsys, ["hilbert", "--a", "2,1", "--d", "1,2", "--k", "5"])
        assert code == 0
        generators = [[2 + i, 1 + 2 * i] for i in range(6)]
        assert doc["family"]["generators"] == generators
        assert doc["hilbert"]["denominator"] == generators

    def test_resolution(self, capsys):
        code, doc, _ = run_json(capsys, ["resolution", "--a", "3,1", "--d", "1,3", "--k", "4"])
        assert code == 0
        assert doc["resolution"]["betti"] == [1, 6, 8, 3]
        # multiplicity 2 at 2a+4d = (10, 14)
        assert [2, [10, 14]] in doc["resolution"]["shifts"][1]

    def test_verify_showcase(self, capsys):
        code, doc, _ = run_json(capsys, ["verify", "--a", "5,4", "--d", "4,9", "--k", "3"])
        assert code == 0
        names = {c["name"] for c in doc["checks"]}
        assert "hilbert_truncation" in names
        assert "ideal_equals_toric_kernel" in names

    def test_verify_with_box_override(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["verify", "--a", "5,4", "--d", "4,9", "--k", "3",
             "--box-x", "40", "--box-y", "40", "--skip-toric"],
        )
        assert code == 0
        assert all(c["passed"] for c in doc["checks"])

    @pytest.mark.parametrize("box", [("0", "40"), ("40", "0"), ("-3", "40")])
    def test_nonpositive_box_cap_exit_2(self, capsys, box):
        code, out, err = run(
            capsys,
            ["verify", "--a", "5,4", "--d", "4,9", "--k", "3", "--skip-toric",
             "--box-x", box[0], "--box-y", box[1]],
        )
        assert code == 2
        assert out == ""
        assert "box caps must be positive" in err

    def test_mu_bound_too_small_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
             "--mu-bound", "1"],
        )
        assert code == 2
        assert "multiple" in err

    @pytest.mark.parametrize(
        "command, glue", [("analyze", []), ("analyze", ["--b", "9,11"]), ("extend", ["--b", "9,11"])]
    )
    @pytest.mark.parametrize("bound", ["0", "-4"])
    def test_mu_bound_below_one_exit_2(self, capsys, command, glue, bound):
        code, out, err = run(
            capsys,
            [command, "--a", "2,3", "--d", "2,2", "--k", "3", *glue, "--mu-bound", bound],
        )
        assert (code, out) == (2, "")
        assert err == f"error: mu bound must be at least 1, got {bound}\n"

    @pytest.mark.parametrize(
        "family, sections",
        [
            (["--a", "5,4", "--d", "4,9", "--k", "4"], {"hilbert", "resolution", "regularity"}),
            (["--a", "5,4", "--d", "4,9", "--k", "5"], {"regularity"}),
            (["--a", "2,3", "--d", "2,2", "--k", "4", "--b", "3,4"], {"hilbert", "extension.betti"}),
            (["--a", "2,3", "--d", "2,2", "--k", "5", "--b", "3,4"], set()),
        ],
    )
    def test_analyze_sections_follow_the_stored_k(self, capsys, family, sections):
        # resolutions and Hilbert numerators are stored for k = 2, 3, 4 only
        code, doc, _ = run_json(capsys, ["analyze", *family])
        assert code == 0
        present = {key for key in ("hilbert", "resolution", "regularity") if key in doc}
        if "betti" in doc.get("extension", {}):
            present.add("extension.betti")
        assert present == sections


BIG_BASE = ["--a", f"{2**60},1", "--d", "1,2", "--k", "2"]
BIG_GLUED = ["--a", f"{2**60},1", "--d", "2,2", "--k", "2", "--b", f"{2**60 + 1},2"]
SMALL_BOX = ["--skip-toric", "--box-x", "8", "--box-y", "8"]
# the keys under which the 2^60 families' documents hold decimal strings
BIG_FAMILY_KEYS = {("family", "a"), ("family", "generators")}
BIG_APERY_KEYS = {
    ("apery", "base"),
    ("apery", "closed_form"),
    ("apery", "bruteforce"),
    ("hilbert", "numerator_terms"),
    ("hilbert", "denominator"),
}
BIG_BASE_KEYS = {("qf",), ("resolution", "shifts")}
BIG_GLUED_KEYS = {
    ("family", "b"),
    ("extension", "b"),
    ("extension", "glue_degree"),
    ("extension", "apery"),
    ("extension", "apery_bruteforce"),
}


def number_leaves(node, path=()):
    """(path, value) for every int and decimal-string leaf of a JSON value."""
    if isinstance(node, dict):
        for key, v in node.items():
            yield from number_leaves(v, path + (key,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from number_leaves(v, path + (i,))
    elif isinstance(node, str):
        if node.lstrip("-").isdigit():
            yield path, node
    elif isinstance(node, int) and not isinstance(node, bool):
        yield path, node


class TestDeterminism:
    def test_json_round_trip_is_byte_identical(self, capsys):
        args = ["analyze", "--a", "5,4", "--d", "4,9", "--k", "3", "--format", "json"]
        code = main(args)
        out = capsys.readouterr().out
        assert code == 0
        reparsed = json.dumps(json.loads(out), indent=2) + "\n"
        assert reparsed == out

    def test_identical_runs_identical_output(self, capsys):
        args = ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
                "--format", "json"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_big_integers_serialized_as_strings(self, capsys):
        base_keys = BIG_FAMILY_KEYS | BIG_APERY_KEYS | BIG_BASE_KEYS
        glued_keys = BIG_FAMILY_KEYS | BIG_APERY_KEYS | BIG_GLUED_KEYS
        for argv, string_keys in [
            (["ideal", *BIG_BASE], BIG_FAMILY_KEYS),
            (["analyze", *BIG_BASE], base_keys),
            (["verify", *BIG_BASE, *SMALL_BOX], base_keys),
            (["analyze", *BIG_GLUED], glued_keys),
            (["extend", *BIG_GLUED], glued_keys),
            (["verify", *BIG_GLUED, *SMALL_BOX], glued_keys),
        ]:
            code, doc, raw = run_json(capsys, argv)
            assert code == 0
            assert doc["family"]["a"][0] == str(2**60)
            # ints below 2^53 stay JSON numbers, and only those at or past it
            # are decimal strings, whichever key holds them
            leaves = list(number_leaves(doc))
            for path, v in leaves:
                assert isinstance(v, str) == (abs(int(v)) >= 2**53), (argv, path)
            held = {
                tuple(k for k in path if isinstance(k, str))
                for path, v in leaves
                if isinstance(v, str)
            }
            assert held == string_keys, argv
            # verdicts stay JSON true, false and null
            assert all(v in (True, False, None) for v in doc.get("flags", {}).values())
            for check in doc.get("checks", []):
                assert check["passed"] is True and check["witness"] is None
            reparsed = json.dumps(json.loads(raw), indent=2) + "\n"
            assert reparsed == raw


class TestAperyCap:
    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_exit_2(self, capsys, cap):
        code, out, err = run(
            capsys, ["analyze", "--a", "2,3", "--d", "2,2", "--k", "3", "--apery-cap", cap]
        )
        assert code == 2
        assert out == ""
        assert f"apery cap must be at least 1, got {cap}" in err

    def test_cap_too_small_warns_once_on_every_call(self, capsys):
        # the report's check and both Apery sections hit the cap
        argv = ["analyze", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
                "--apery-cap", "1"]
        warning = (
            "warning: Apery candidates found at enumeration depth 1; "
            "rerun with a larger cap to be sure the set is complete\n"
        )
        for _ in range(2):
            code, _, err = run(capsys, argv)
            assert (code, err) == (1, warning)


COMMANDS = ("analyze", "ideal", "groebner", "hilbert", "resolution", "extend", "verify")
FAMILY = ["--a", "1,2", "--d", "2,1", "--k", "2"]
GLUE = ["--b", "3,4"]
# the arguments each flag is tried with; --a, --d and --k are in every call
FLAG_ARGS = {
    "--a": [],
    "--d": [],
    "--k": [],
    "--b": GLUE,
    "--mu-bound": ["--mu-bound", "8"],
    "--apery-cap": ["--apery-cap", "4"],
    "--box-x": ["--box-x", "20"],
    "--box-y": ["--box-y", "20"],
    "--skip-toric": ["--skip-toric"],
    "--format": ["--format", "json"],
}
# the flags only some subcommands take; every subcommand takes the others
TAKEN_BY = {
    "--apery-cap": ("analyze", "extend", "verify"),
    "--box-x": ("verify",),
    "--box-y": ("verify",),
    "--skip-toric": ("verify",),
}
PAIRS = [(c, flag) for c in COMMANDS for flag in FLAG_ARGS]
KEPT = [(c, flag) for c, flag in PAIRS if c in TAKEN_BY.get(flag, COMMANDS)]
REMOVED = [pair for pair in PAIRS if pair not in KEPT]


def family_argv(command, *extra):
    return [command, *FAMILY, *(GLUE if command == "extend" else []), *extra]


class TestFlagSurface:
    @pytest.mark.parametrize("command, flag", KEPT)
    def test_kept_flag_parses(self, capsys, command, flag):
        # argparse rejects a flag by raising SystemExit; any other outcome,
        # an exit code included, means the flag was parsed
        assert isinstance(main(family_argv(command, *FLAG_ARGS[flag])), int)

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_flag_not_taken_exit_2(self, capsys, command, flag):
        args = FLAG_ARGS[flag]
        with pytest.raises(SystemExit) as exc:
            main(family_argv(command, *args))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["verify", "--a", "5,4", "--d", "4,9", "--k", "3"], ["--skip-toric"]),
            # a box over the cell budget is refused with its size named
            (["verify", "--a", "5,4", "--d", "4,9", "--k", "3"], ["--box-x", "200000"]),
            (["verify", "--a", "5,4", "--d", "4,9", "--k", "3"], ["--box-y", "200000"]),
            (["analyze", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"],
             ["--apery-cap", "1"]),
            (["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"],
             ["--apery-cap", "1"]),
        ],
    )
    def test_kept_flag_changes_output(self, capsys, argv, flags):
        assert run(capsys, argv + flags) != run(capsys, argv)


# Runs `cli.main` on each argv of a JSON list, in order, in this one process,
# and prints the (exit code, stdout, stderr) of each call as a JSON list.
SEQUENCE_PROBE = """
import contextlib, io, json, sys
from apsemigroups.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


class TestParserReuse:
    """The parser is built once per process and reused; a call made after
    others gives the same exit code, stdout and stderr as when it is the
    first call of a fresh process."""

    FAMILY = ["--a", "5,4", "--d", "4,9", "--k", "2"]
    CALLS = [
        ["verify", *FAMILY, "--skip-toric"],
        ["verify", *FAMILY],
        ["analyze", *FAMILY, "--box-x", "3"],  # argparse rejects it: exit 2
        ["analyze", *FAMILY],
        ["groebner", *FAMILY, "--format", "text"],
        ["groebner", *FAMILY, "--format", "json"],
    ]

    @staticmethod
    def run_in_fresh_process(calls):
        return json.loads(run_fresh_python(SEQUENCE_PROBE, json.dumps(calls), COLUMNS="80"))

    def test_each_call_matches_its_first_run(self):
        in_sequence = self.run_in_fresh_process(self.CALLS)
        codes = [code for code, _, _ in in_sequence]
        assert codes == [0, 0, 2, 0, 0, 0]
        assert "unrecognized arguments: --box-x 3" in in_sequence[2][2]
        for argv, got in zip(self.CALLS, in_sequence):
            assert got == self.run_in_fresh_process([argv])[0], argv


_BIG = 2**53


def _plain(v):
    """The document as JSON values: tuples (points included) become lists and
    ints beyond 2^53 their decimal strings; bools and None stay as they are."""
    if isinstance(v, dict):
        return {key: _plain(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, int) and not isinstance(v, bool) and not -_BIG < v < _BIG:
        return str(v)
    return v


def reference_render_json(doc) -> str:
    """The JSON report as the json module's encoder writes it: the oracle for
    `_render_json`."""
    return json.dumps(_plain(doc), indent=2)


def report_doc(argv):
    """The raw (not yet encoded) document `main` renders for argv."""
    args = _parser().parse_args(argv)
    return _report_doc(_build(args), args)[0]


EDGE_INTS = [
    0, 1, -1, 2**53 - 1, -(2**53 - 1), 2**53, -(2**53), 2**53 + 1, -(2**53 + 1),
    2**64, -(2**80),
]
EDGE_STRINGS = [
    "", '"', "\\", '"\\"', "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", "ß€",
    "\u2028", "\U0001f600", "\ud800",
]


class TestRenderJson:
    """`_render_json` writes byte for byte what the json module writes for the
    encoded document."""

    def test_matches_the_json_module_on_nested_documents(self, hypothesis):
        st = hypothesis.strategies
        ints = st.integers() | st.sampled_from(EDGE_INTS)
        strings = st.text() | st.sampled_from(EDGE_STRINGS)
        leaves = (
            ints
            | strings
            | st.booleans()
            | st.none()
            | st.builds(Vec2, ints, ints)
        )
        documents = st.recursive(
            leaves,
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(strings, inner, max_size=4),
            max_leaves=40,
        )

        @property_settings(hypothesis)
        @hypothesis.given(documents)
        def check(doc):
            assert _render_json(doc) == reference_render_json(doc)

        check()

    def test_edge_values_and_empty_containers(self):
        doc = {
            "ints": EDGE_INTS,
            "strings": {text: text for text in EDGE_STRINGS},
            "verdicts": (True, False, None),
            "empty": [[], (), {}, {"": []}],
            "points": [Vec2(2**60, -3), (Vec2(0, 0),)],
        }
        assert _render_json(doc) == reference_render_json(doc)
        for leaf in [[], {}, (), 5, "x", None, True, Vec2(1, 2)]:
            assert _render_json(leaf) == reference_render_json(leaf)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--a", "5,4", "--d", "4,9", "--k", "3"],
            ["verify", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"],
            ["analyze", "--a", f"{2**60},1", "--d", "2,2", "--k", "2",
             "--b", f"{2**60 + 1},2"],
        ],
    )
    def test_matches_the_json_module_on_reports(self, argv):
        doc = report_doc(argv)
        assert _render_json(doc) == reference_render_json(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            1.5,
            [Fraction(1, 2)],
            {"a": {1: "x"}},
            {(1, 2): 3},
            {"s": {1, 2}},
        ],
    )
    def test_other_values_raise_type_error(self, doc):
        with pytest.raises(TypeError):
            _render_json(doc)

    def test_rendering_leaves_no_garbage(self):
        doc = report_doc(["verify", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11"])
        gc.collect()
        gc.disable()
        try:
            text = _render_json(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert text.startswith("{")


def run_into_closed_pipe(*args, closed=("stdout",)):
    """`python args` in a child whose `closed` streams go to a pipe
    without a reader (its read end is closed before the child starts);
    the other streams are captured."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {
        name: write_end if name in closed else subprocess.PIPE
        for name in ("stdout", "stderr")
    }
    try:
        return subprocess.run(
            [sys.executable, *args],
            cwd=root,
            env=env,
            text=True,
            timeout=120,
            **streams,
        )
    finally:
        os.close(write_end)


class TestClosedStdout:
    """A reader that has gone away (`verify ... | head -1`) does not turn the
    verdict into a traceback: the exit code is still the verdict's."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--a", "1,0", "--d", "0,1", "--k", "2", "--format", "json"], 0),
            (["verify", "--a", "1,0", "--d", "0,1", "--k", "2"], 0),
            (["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
              "--apery-cap", "1", "--format", "json"], 1),
        ],
    )
    def test_exit_code_is_the_verdict(self, argv, code):
        proc = run_into_closed_pipe("-m", "apsemigroups", *argv)
        assert "Traceback" not in proc.stderr
        assert "BrokenPipeError" not in proc.stderr
        assert proc.returncode == code

    def test_later_writes_to_stdout_are_harmless(self):
        # after the broken pipe, stdout's descriptor is devnull, so what the
        # process still prints goes nowhere instead of raising again
        program = (
            "import sys\n"
            "from apsemigroups.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print('more output')\n"
            "sys.stdout.flush()\n"
            "sys.exit(code)\n"
        )
        proc = run_into_closed_pipe(
            "-c", program, "verify", "--a", "1,0", "--d", "0,1", "--k", "2"
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0


class TestClosedStderr:
    """The `warning:` and `error:` lines go through the same guard as the
    report: a reader of stderr that has gone changes neither the exit code
    nor stdout."""

    INVALID = ["verify", "--a", "1,0", "--d", "0,0", "--k", "2"]
    CAPPED = ["extend", "--a", "2,3", "--d", "2,2", "--k", "3", "--b", "9,11",
              "--apery-cap", "1", "--format", "json"]

    @pytest.mark.parametrize("closed", [("stderr",), ("stdout", "stderr")])
    def test_invalid_input_exits_2(self, closed):
        proc = run_into_closed_pipe("-m", "apsemigroups", *self.INVALID, closed=closed)
        assert proc.returncode == 2
        if proc.stdout is not None:
            assert proc.stdout == ""

    def test_report_survives_a_warning_into_a_closed_pipe(self, capsys):
        code, expected, err = run(capsys, self.CAPPED)
        assert err.startswith("warning: ")
        proc = run_into_closed_pipe("-m", "apsemigroups", *self.CAPPED, closed=("stderr",))
        assert proc.returncode == code == 1
        assert proc.stdout == expected


class TestGluedBudget:
    """`analyze` and `verify` on a glued family with mu = 21 stay inside the
    5 s budget of ROADMAP aim 3 (each took over 10 s while membership ran
    the residual search)."""

    ARGV = ["--a", "7,0", "--d", "4,3", "--k", "2", "--b", "9,2", "--format", "json"]

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_mu_21_family(self, capsys, command):
        start = time.perf_counter()
        code, doc, _ = run_json(capsys, [command, *self.ARGV])
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{command} took {elapsed:.2f}s"
        assert code == 0
        assert doc["extension"]["mu"] == 21
        assert doc["extension"]["apery_bruteforce"] == doc["extension"]["apery"]
        assert len(doc["extension"]["apery"]) == 42
