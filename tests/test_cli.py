import json
import pathlib
import shlex

import pytest

from ncgraded import cli
from ncgraded.cli import (
    EXAMPLE_WORKSPACE,
    main,
    parse_rational,
    parse_workspace,
    serialize_workspace,
)
from ncgraded.errors import NonHomogeneous, ParseError, UnknownReference


def test_example_workspace_parses():
    ws = parse_workspace(EXAMPLE_WORKSPACE)
    assert ws.field.p == 13
    assert sorted(ws.algebras) == ["A", "S"]
    assert sorted(ws.modules) == ["AF", "X", "X1", "X2", "X3", "X4"]


def test_workspace_roundtrip():
    ws = parse_workspace(EXAMPLE_WORKSPACE)
    ws2 = parse_workspace(serialize_workspace(ws))
    assert sorted(ws2.algebras) == sorted(ws.algebras)
    assert sorted(ws2.modules) == sorted(ws.modules)
    for n, m in ws.modules.items():
        for d in range(0, 5):
            assert ws2.modules[n].dim(d) == m.dim(d)


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
    assert parse_rational("(1+t)/(1-t)^2") == ([1, 1], [1, -2, 1])
    assert parse_rational("9*(1+t)/(1-t)^2") == ([9, 9], [1, -2, 1])
    assert parse_rational("1/(1-t)^3") == ([1], [1, -3, 3, -1])
    with pytest.raises(ParseError):
        parse_rational("t +")


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


# a module section that no command reads still fails the load, as it did when
# every module was built at load (the empty sum was an internal error then)
@pytest.mark.parametrize("sections, error", [
    ('[module M]\nof = "T"\ngenerators = "x + y^2"\n', "NonHomogeneous"),
    ('[module M]\nof = "T"\ngenerators = "x^4"\n', "DegreeBeyondTruncation"),
    ('[module M]\nkind = "sum"\nof = "N"\n', "UnknownReference"),
    ('[module M]\nof = "T"\ngenerators = "x"\n[module N]\nof = "F"\ngenerators = "y"\n'
     '[module P]\nkind = "sum"\nof = "M, N"\n', "AlgebraMismatch"),
    ('[module M]\nkind = "sum"\nof = ""\n', "ParseError"),
], ids=["non-homogeneous", "beyond-truncation", "unknown-summand", "two-algebras", "empty-sum"])
def test_unread_modules_still_fail_the_load(tmp_path, capsys, sections, error):
    wsfile = tmp_path / "m.nws"
    wsfile.write_text(SMALL_WORKSPACE + sections)
    code = main(["hilbert", "T", "--max-deg", "3", "-w", str(wsfile)])
    out = json.loads(capsys.readouterr().out)
    assert code == 3 and out["error"] == error


def test_modules_are_built_on_first_lookup(monkeypatch):
    built = []
    build = cli.module_from_cover
    monkeypatch.setattr(cli, "module_from_cover", lambda *a: built.append(a) or build(*a))
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
