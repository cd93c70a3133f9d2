import json

import pytest

from apsemigroups.cli import main


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

    def test_hilbert_unsupported_k_exit_2(self, capsys):
        code, _, err = run(capsys, ["hilbert", "--a", "2,1", "--d", "1,2", "--k", "5"])
        assert code == 2

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
        big = 2**60
        code, doc, raw = run_json(
            capsys, ["ideal", "--a", f"{big},1", "--d", "1,2", "--k", "2"]
        )
        assert code == 0
        assert doc["family"]["a"][0] == str(big)
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
