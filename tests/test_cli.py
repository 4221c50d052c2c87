import json
import pathlib
import shlex
import time

import pytest

from ncgraded import algebra, cli
from ncgraded.cli import (
    EXAMPLE_WORKSPACE,
    example_workspace,
    main,
    parse_rational,
    parse_workspace,
    verify_example,
)
from ncgraded.errors import NcgError, NonHomogeneous, ParseError, UnknownReference
from ncgraded.homology import Window


def test_example_workspace_parses():
    ws = parse_workspace(EXAMPLE_WORKSPACE)
    assert ws.field.p == 13
    assert sorted(ws.algebras) == ["A", "S"]
    assert sorted(ws.modules) == ["AF", "X", "X1", "X2", "X3", "X4"]


def test_nonhomogeneous_relation_diagnosed():
    text = '[field]\nname = "GF(13)"\n[algebra T]\ngenerators = "x, y, z"\nrelations = "x*y + y*x - z^3"\n'
    with pytest.raises(NonHomogeneous):
        parse_workspace(text)


def test_dangling_base_reference():
    text = '[field]\nname = "GF(13)"\n[algebra A]\nbase = "T"\n'
    with pytest.raises(UnknownReference):
        parse_workspace(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_workspace("junk line without section")
    assert exc.value.line == 1


def test_rational_parser():
    assert parse_rational("(1+t)/(1-t)^2", 8) == ([1, 1], [1, -2, 1])
    assert parse_rational("9*(1+t)/(1-t)^2", 8) == ([9, 9], [1, -2, 1])
    assert parse_rational("1/(1-t)^3", 8) == ([1], [1, -3, 3, -1])
    with pytest.raises(ParseError):
        parse_rational("t +", 8)
    assert parse_rational("(1/(1-t))^8", 8)[1][-1] == 1
    with pytest.raises(ParseError, match="exponent"):
        parse_rational("1/(1-t)^9", 8)


def test_hilbert_command_exit_codes(tmp_path, capsys):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    code = main(["hilbert", "A", "-w", str(wsfile), "--max-deg", "6",
                 "--match", "(1+t)/(1-t)^2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "pass"
    code = main(["hilbert", "A", "-w", str(wsfile), "--max-deg", "6",
                 "--match", "1/(1-t)^3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] == "fail"


def test_points_command(tmp_path, capsys):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    code = main(["points", "A", "x*y + z^2; x^2 - y^2", "-w", str(wsfile),
                 "--max-deg", "4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["count"] == 4


def test_unknown_module_is_an_error(tmp_path, capsys):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    code = main(["mcm", "NOPE", "-w", str(wsfile)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"] == "UnknownReference"


def test_mcm_below_the_window_cap(tmp_path, capsys):
    """With --max-deg under the window's cap, a free module still resolves
    (pass), and a module whose resolution needs degrees past the truncation
    is a typed error, not an internal one."""
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    flags = ["--max-deg", "4", "--window=-2,2,2,6", "-w", str(wsfile)]
    assert main(["mcm", "AF"] + flags) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert main(["mcm", "X1"] + flags) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "DegreeBeyondTruncation"


def test_clifford_command(tmp_path, capsys):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    code = main(["clifford", "A", "--central", "x^2", "-w", str(wsfile)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["dim"] == 4
    assert any(c["check"] == "split-semisimple" and c["verdict"] == "pass"
               for c in out["checks"])


def test_verify_example_wrong_prime_is_error(capsys):
    code = main(["verify-example", "--p", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["error"] == "NoSuchRoot"


def test_json_report_written(tmp_path, capsys):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    target = tmp_path / "out.json"
    main(["hilbert", "S", "-w", str(wsfile), "--max-deg", "4",
          "--json", str(target)])
    capsys.readouterr()
    blob = json.loads(target.read_text())
    assert blob["command"] == "hilbert"
    assert blob["coeffs"][:3] == [1, 3, 6]


SMALL_WORKSPACE = """[field]
name = "GF(13)"
[algebra T]
generators = "x, y"
relations = "3*x*y"
[algebra F]
generators = "x, y"
"""


def _run(tmp_path, capsys, argv):
    wsfile = tmp_path / "t.nws"
    wsfile.write_text(SMALL_WORKSPACE)
    code = main(argv + ["-w", str(wsfile)])
    return code, json.loads(capsys.readouterr().out)


def test_field_override_builds_the_workspace_over_that_field(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, ["hilbert", "T", "--max-deg", "3"])
    assert code == 0 and out["coeffs"] == [1, 2, 3, 4]
    # 3 = 0 in GF(3): T is free there
    code, out = _run(tmp_path, capsys, ["hilbert", "T", "--field", "GF(3)", "--max-deg", "3"])
    assert code == 0 and out["coeffs"] == [1, 2, 4, 8]


def test_gb_without_relations_reports_an_empty_basis(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, ["gb", "F", "--max-deg", "3"])
    assert code == 0
    assert out["basis"] == [] and out["dims"] == [1, 2, 4, 8]


def test_unsupported_field_is_an_error(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, ["hilbert", "T", "--field", "GF(4)"])
    assert code == 3 and out["error"] == "UnsupportedField"


def test_malformed_window_is_a_parse_error(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, ["hilbert", "T", "--window", "1,2"])
    assert code == 3 and out["error"] == "ParseError"


def test_unexpected_exception_exits_3(tmp_path, capsys, monkeypatch):
    def broken(args):
        return [][0]

    monkeypatch.setattr(cli, "cmd_hilbert", broken)
    code, out = _run(tmp_path, capsys, ["hilbert", "T"])
    assert code == 3 and out["error"] == "internal-error"
    assert "IndexError" in out["message"]


@pytest.mark.parametrize("argv, error", [
    (["hilbert", "T", "--match", "1/t"], "ParseError"),
    (["points", "T", "x"], "ShapeMismatch"),
    (["points", "P", "x", "--field", "QQ"], "UnsupportedField"),
], ids=["no-power-series", "two-variables", "points-over-QQ"])
def test_unanswerable_queries_are_typed_errors(tmp_path, capsys, argv, error):
    """A series with no expansion at t = 0, and point enumeration outside
    P^2 over a prime field, exit 3 with their own error, not internal-error."""
    wsfile = tmp_path / "p.nws"
    wsfile.write_text(SMALL_WORKSPACE + '[algebra P]\ngenerators = "x, y, z"\n')
    code = main(argv + ["-w", str(wsfile)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == error


def _run_example(tmp_path, capsys, argv):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    code = main(argv + ["-w", str(wsfile)])
    return code, json.loads(capsys.readouterr().out)


def test_end_x_over_a_window_above_degree_zero(tmp_path, capsys):
    """End(X) keeps its degree-0 piece, which holds the unit, when the
    window's internal range starts above 0."""
    code, out = _run_example(tmp_path, capsys, ["endo", "X", "--window=1,3,2,4"])
    assert code == 0 and out["dims"] == {"1": 27, "2": 45, "3": 63, "4": 81}
    code, out = _run_example(tmp_path, capsys,
                             ["asregular", "X", "--d", "2", "--ell", "1", "--window=1,3,2,4"])
    assert code != 3 and "error" not in out
    assert out["checks"][0]["evidence"]["resolution_shifts"] == [[0] * 5, [-1] * 16, [-1] * 5]


@pytest.mark.parametrize("command", [["endo", "X"], ["asregular", "X", "--d", "2", "--ell", "1"]])
def test_end_x_below_degree_zero_is_an_invalid_window(tmp_path, capsys, command):
    code, out = _run_example(tmp_path, capsys, command + ["--window=-2,2,2,-1"])
    assert code == 3 and out["error"] == "InvalidWindow"


def test_quiver_does_not_depend_on_the_window(tmp_path, capsys):
    """quiver reads End(X)_0 alone, which no window cuts."""
    _, default = _run_example(tmp_path, capsys, ["quiver", "X"])
    code, shifted = _run_example(tmp_path, capsys, ["quiver", "X", "--window=1,3,2,4"])
    assert code == 0 and shifted.pop("window") != default.pop("window")
    assert shifted == default and len(default["quiver"]["arrows"]) == 4


@pytest.mark.parametrize("argv, code", [
    (["asregular", "X", "--d", "2", "--ell", "1", "--window=1,3,2,4"], 2),
    (["asgorenstein", "A", "--d", "2", "--ell", "1", "--window=1,3,2,4"], 2),
    (["asregular", "X", "--d", "2", "--ell", "3", "--window=-2,2,2,4"], 1),
    (["asgorenstein", "A", "--d", "2", "--ell", "5", "--window=-3,3,2,4"], 1),
    (["asregular", "X", "--d", "2", "--ell", "1", "--window=-3,3,1,4"], 2),
    (["asgorenstein", "A", "--d", "2", "--ell", "1", "--window=-3,3,1,4"], 2),
    (["asregular", "X", "--d", "3", "--ell", "1", "--window=-3,3,2,4"], 1),
    (["asgorenstein", "A", "--d", "3", "--ell", "1", "--window=-3,3,2,4"], 1),
], ids=["asregular-unseen", "asgorenstein-unseen", "asregular-seen-ext", "asgorenstein-seen-ext",
        "asregular-unreached", "asgorenstein-unreached", "asregular-unreached-ext",
        "asgorenstein-unreached-ext"])
def test_a_window_without_minus_ell_can_only_be_inconclusive(tmp_path, capsys, argv, code):
    """Ext^d must sit in internal degree -ell.  A window whose internal range
    leaves -ell out, or whose homological_max stops below d, gives
    inconclusive, unless a nonzero Ext shows in a degree where none may be
    (here Ext^2 in degree -1, also when d = 3), which stays fail."""
    got, out = _run_example(tmp_path, capsys, argv)
    assert got == code and out["checks"][0]["verdict"] == ["pass", "fail", "inconclusive"][code]


def test_verify_example_checks_that_cannot_see_minus_ell_are_inconclusive():
    rep = verify_example(example_workspace(13, window=Window(1, 3, 2, 4)))
    verdicts = {c["check"]: c["verdict"] for c in rep["checks"]}
    assert verdicts.pop("as-gorenstein") == verdicts.pop("as-regular-over-degree-zero") == "inconclusive"
    assert set(verdicts.values()) == {"pass"} and rep["verdict"] == "inconclusive"


def _run_with_zero_module(tmp_path, capsys, argv):
    """argv on the example workspace plus the zero module Z = A/(1)."""
    wsfile = tmp_path / "z.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE + '\n[module Z]\nkind = "cyclic"\nof = "A"\ngenerators = "1"\n')
    code = main(argv + ["--window=-2,2,2,4", "-w", str(wsfile)])
    return code, json.loads(capsys.readouterr().out)


def test_endo_of_the_zero_module_is_the_zero_algebra(tmp_path, capsys):
    code, out = _run_with_zero_module(tmp_path, capsys, ["endo", "Z"])
    assert code == 0 and list(out["dims"]) == [str(d) for d in range(-2, 5)]
    assert set(out["dims"].values()) == {0}


def test_quiver_of_the_zero_module_has_no_vertex(tmp_path, capsys):
    code, out = _run_with_zero_module(tmp_path, capsys, ["quiver", "Z"])
    assert code == 0 and out["quiver"] == {"vertices": [], "arrows": []}
    assert out["degree_zero_dim"] == out["radical_dim"] == out["idempotents"] == 0


def test_asregular_of_the_zero_module_is_a_typed_error(tmp_path, capsys):
    """End(0) = 0 has no degree-0 part to be regular over."""
    code, out = _run_with_zero_module(tmp_path, capsys, ["asregular", "Z", "--d", "2", "--ell", "1"])
    assert code == 3 and out["error"] == "ZeroAlgebra"


@pytest.mark.parametrize("internal", ["3, 1", "1"])
def test_window_section_errors_are_parse_errors(internal):
    text = f'[field]\nname = "GF(13)"\n[window]\ninternal = "{internal}"\n'
    with pytest.raises(ParseError) as exc:
        parse_workspace(text)
    assert exc.value.line == 3


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN), ids=lambda c: c.split()[0])
def test_workspace_command_report_matches_golden(tmp_path, capsys, command):
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE + '\n[automorphism sw]\nof = "A"\nimages = "y; x; z"\n')
    main(shlex.split(command) + ["-w", str(wsfile)])
    assert capsys.readouterr().out == GOLDEN[command]


def test_verify_example_report_matches_golden():
    """verify_example for p = 13 and 53 on Window(-3, 3, 2, 4), seed 0, byte
    for byte: the reports keyed by p, dumped as here."""
    window = Window(-3, 3, 2, 4)
    reports = {str(p): verify_example(example_workspace(p, window=window), seed=0) for p in (13, 53)}
    golden = pathlib.Path(__file__).parent / "data" / "verify_example_golden.json"
    assert json.dumps(reports, indent=2, default=str) + "\n" == golden.read_text()


@pytest.mark.parametrize("argv", [
    ["hom", "X1"],
    ["nosuchcmd"],
    ["hom", "X1", "X2", "x"],
    ["hom", "X1", "X2", "1", "--seed", "1"],
    ["verify-example", "--field", "QQ", "--window=-1,1,1,2"],
])
def test_usage_errors_exit_3(capsys, argv):
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == "ParseError"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hom", "-h"])
    assert exc.value.code == 0
    assert "--workspace" in capsys.readouterr().out


def test_timing_is_appended_to_any_report(tmp_path, capsys):
    _, plain = _run(tmp_path, capsys, ["hilbert", "T", "--max-deg", "3"])
    _, timed = _run(tmp_path, capsys, ["hilbert", "T", "--max-deg", "3", "--timing"])
    assert "time_s" not in plain
    assert list(timed) == list(plain) + ["time_s"]
    assert {k: v for k, v in timed.items() if k != "time_s"} == plain


def _section_line():
    return SMALL_WORKSPACE.count("\n") + 1


@pytest.mark.parametrize("section", [
    '[algebra U]\ngenerators = "x, y"\ndegrees = "1, x"\n',
    '[module M]\nkind = "free"\nof = "T"\nshifts = "0, q"\n',
    '[module M]\nkind = "sum"\nof = ""\n',
], ids=["degrees", "shifts", "empty-sum"])
def test_malformed_values_are_parse_errors_with_the_section_line(section):
    with pytest.raises(ParseError) as exc:
        parse_workspace(SMALL_WORKSPACE + section)
    assert exc.value.line == _section_line()


@pytest.mark.parametrize("section", [
    '[algebra U]\ngenerators = "x, x"\n',
    '[algebra U]\ngenerators = "x, y"\ndegrees = "1, 0"\n',
    '[algebra U]\ngenerators = "x, y"\ndegrees = "1"\n',
], ids=["repeated-name", "degree-zero", "too-few-degrees"])
def test_malformed_generators_are_parse_errors_with_the_section_line(tmp_path, capsys, section):
    """Generators that Gens rejects stop the load at their section's line,
    and the command exits 3 with ParseError, not internal-error."""
    with pytest.raises(ParseError) as exc:
        parse_workspace(SMALL_WORKSPACE + section)
    assert exc.value.line == _section_line()
    wsfile = tmp_path / "g.nws"
    wsfile.write_text(SMALL_WORKSPACE + section)
    code = main(["hilbert", "T", "-w", str(wsfile)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == "ParseError"


# a module section that no command reads still fails the load, as it did when
# every module was built at load (the empty sum was an internal error then)
@pytest.mark.parametrize("sections, error", [
    ('[module M]\nof = "T"\ngenerators = "x + y^2"\n', "NonHomogeneous"),
    ('[module M]\nof = "T"\ngenerators = "x^4"\n', "DegreeBeyondTruncation"),
    ('[module M]\nof = "T"\ngenerators = "x^1000000"\n', "DegreeBeyondTruncation"),
    ('[module M]\nof = "T"\ngenerators = "' + "*".join(["(x+y)"] * 30) + '"\n',
     "DegreeBeyondTruncation"),
    ('[module M]\nkind = "sum"\nof = "N"\n', "UnknownReference"),
    ('[module M]\nof = "T"\ngenerators = "x"\n[module N]\nof = "F"\ngenerators = "y"\n'
     '[module P]\nkind = "sum"\nof = "M, N"\n', "AlgebraMismatch"),
    ('[module M]\nkind = "sum"\nof = ""\n', "ParseError"),
], ids=["non-homogeneous", "beyond-truncation", "huge-power-generator", "huge-product-generator",
        "unknown-summand", "two-algebras", "empty-sum"])
def test_unread_modules_still_fail_the_load(tmp_path, capsys, sections, error):
    wsfile = tmp_path / "m.nws"
    wsfile.write_text(SMALL_WORKSPACE + sections)
    t0 = time.perf_counter()
    code = main(["hilbert", "T", "--max-deg", "3", "-w", str(wsfile)])
    assert time.perf_counter() - t0 < 1.0
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == error


# a --max-deg below a relation's degree stops the parser (the library's
# TruncationTooLow, checked when an algebra is made, lies behind it)
@pytest.mark.parametrize("sections, max_deg, error", [
    ("", 1, "ParseError"),
    ('[module M]\nof = "T"\ngenerators = "x + y^2"\n', 3, "NonHomogeneous"),
    ('[module M]\nof = "T"\ngenerators = "x^4"\n', 3, "DegreeBeyondTruncation"),
], ids=["max-deg-below-a-relation", "non-homogeneous", "beyond-truncation"])
def test_load_errors_come_before_any_completion(tmp_path, capsys, monkeypatch, sections, max_deg,
                                                error):
    completed = []
    complete = algebra.truncated_groebner
    monkeypatch.setattr(algebra, "truncated_groebner",
                        lambda pres, D: completed.append(pres) or complete(pres, D))
    with pytest.raises(NcgError) as exc:
        parse_workspace(SMALL_WORKSPACE + sections, max_deg=max_deg)
    assert type(exc.value).__name__ == error and completed == []
    wsfile = tmp_path / "m.nws"
    wsfile.write_text(SMALL_WORKSPACE + sections)
    code = main(["hilbert", "F", "--max-deg", str(max_deg), "-w", str(wsfile)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == error and completed == []


def test_a_cyclic_module_completes_its_algebra_when_first_built(tmp_path, capsys, monkeypatch):
    completed = []
    complete = algebra.truncated_groebner
    monkeypatch.setattr(algebra, "truncated_groebner",
                        lambda pres, D: completed.append(pres.relations) or complete(pres, D))
    ws = parse_workspace(EXAMPLE_WORKSPACE, max_deg=4)
    assert completed == []
    ws.module("X1")
    assert completed == [ws.algebra("A").presentation.relations]
    # the command reads S alone, so S alone is completed
    completed.clear()
    wsfile = tmp_path / "paper.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE)
    assert main(["hilbert", "S", "--max-deg", "4", "-w", str(wsfile)]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == [1, 3, 6, 10, 15]
    assert completed == [ws.algebra("S").presentation.relations]


def test_an_automorphism_section_loads_below_degree_four(tmp_path, capsys):
    """An [automorphism] is built on first lookup and checked invertible in
    the degrees that generate its algebra, so --max-deg 3 serves a
    workspace that has one: a command that does not read it, and one that
    does."""
    wsfile = tmp_path / "w.nws"
    wsfile.write_text(EXAMPLE_WORKSPACE + '\n[automorphism sw]\nof = "A"\nimages = "y; x; z"\n')
    assert main(["hilbert", "A", "--max-deg", "3", "-w", str(wsfile)]) == 0
    assert json.loads(capsys.readouterr().out)["coeffs"] == [1, 3, 5, 7]
    assert main(["nu-stable", "X1", "sw", "--max-deg", "3", "-w", str(wsfile)]) != 3
    assert "error" not in json.loads(capsys.readouterr().out)


def test_modules_are_built_on_first_lookup(monkeypatch):
    built = []
    build = cli.cyclic_module
    monkeypatch.setattr(cli, "cyclic_module", lambda *a: built.append(a) or build(*a))
    ws = parse_workspace(EXAMPLE_WORKSPACE, max_deg=4)
    assert built == []
    assert "X1" in ws.modules and "NOPE" not in ws.modules and len(ws.modules) == 6
    assert built == []
    X1 = ws.module("X1")
    assert len(built) == 1 and ws.module("X1") is X1
    X = ws.module("X")  # AF + X1 + ... + X4 builds X2..X4 and reuses X1
    assert len(built) == 4
    assert X.dim(2) == sum(ws.module(n).dim(2) for n in ("AF", "X1", "X2", "X3", "X4"))


def test_command_help_lists_its_options(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hom", "-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "--window" in out and "--field" in out


def test_top_level_help_and_an_unknown_command_list_every_command(capsys):
    # the parser builds one subparser when argv names a command, all 18 otherwise
    choices = "{" + ",".join(cli.COMMANDS) + "}"
    assert len(cli.COMMANDS) == 18
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert choices in capsys.readouterr().out
    assert main(["bogus"]) == 3
    out, err = capsys.readouterr()
    assert choices in err and json.loads(out)["error"] == "ParseError"


_DEEP = "(" * 400 + "x*y" + ")" * 400


@pytest.mark.parametrize("relations, match", [
    ("x*y +", None),
    (_DEEP, None),
    ("x^1000000", None),
    ("3*x*y", "(1+t)/(1-t)^2 -"),
    ("3*x*y", _DEEP.replace("x*y", "t")),
    ("3*x*y", "(1+t)^1000000"),
    ("*".join(["(x+y)"] * 30), None),
], ids=["truncated-relation", "deep-relation", "huge-power-relation",
        "truncated-match", "deep-match", "huge-power-match", "huge-product-relation"])
def test_malformed_expressions_are_parse_errors(tmp_path, capsys, relations, match):
    """A truncated or deeply nested expression, or a power far past the degree
    bound, in a workspace relation or in --match, exits 3 with ParseError,
    not internal-error, and at once."""
    wsfile = tmp_path / "e.nws"
    wsfile.write_text(SMALL_WORKSPACE.replace('"3*x*y"', f'"{relations}"'))
    t0 = time.perf_counter()
    code = main(["hilbert", "T", "--max-deg", "3", "-w", str(wsfile)]
                + (["--match", match] if match else []))
    assert time.perf_counter() - t0 < 1.0
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == "ParseError"


@pytest.mark.parametrize("argv", [
    ["asgorenstein", "A", "--d", "-1", "--ell", "1"],
    ["asregular", "X", "--d", "-1", "--ell", "1"],
    ["cluster", "X", "--n", "0"],
    ["cluster", "X", "--n", "-2"],
    ["ext", "X1", "AF", "-1"],
], ids=["asgorenstein-d", "asregular-d", "cluster-n0", "cluster-n-2", "ext-i"])
def test_meaningless_dimensions_are_typed_errors(tmp_path, capsys, argv):
    code, out = _run_example(tmp_path, capsys, argv + ["--max-deg", "6", "--window=-2,2,2,4"])
    assert code == 3 and out["error"] == "InvalidDimension"
