import json

import pytest

from biserial.cli import main
from biserial.instances import (ALG_A3Z_TEXT, ALG_L2D_TEXT, ALG_L2_TEXT,
                                ALG_N2_TEXT, alg_l2)
from biserial.sweep import run_sweep
from table_reference import (ASSOCIATIVE_BUT_WRONG_TEXT, NON_CONFLUENT_TEXT,
                             TAIL_DROP_TEXT)

# n2 with an arrow-less vertex 3, whose projective is simple
ALG_N2_ISOLATED_TEXT = ALG_N2_TEXT.replace("vertex 1 2", "vertex 1 2 3")


@pytest.fixture
def algs(tmp_path):
    paths = {}
    for name, text in (("n2", ALG_N2_TEXT), ("l2", ALG_L2_TEXT),
                       ("l2d", ALG_L2D_TEXT), ("a3z", ALG_A3Z_TEXT),
                       ("n2_isolated", ALG_N2_ISOLATED_TEXT)):
        p = tmp_path / f"{name}.alg"
        p.write_text(text)
        paths[name] = str(p)
    p = tmp_path / "l2d_f2.alg"
    p.write_text(ALG_L2D_TEXT.replace("field Q", "field F2"))
    paths["l2d_f2"] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_check(capsys, algs):
    code, out = run(capsys, "check", algs["n2"])
    assert code == 0
    assert "dimension: 6" in out
    assert "selfinjectivity: symmetric" in out
    assert "special_biserial: True" in out


def test_check_json_deterministic(capsys, algs):
    code, out1 = run(capsys, "--json", "check", algs["n2"])
    assert code == 0
    payload = json.loads(out1)
    assert payload["dimension"] == 6
    _, out2 = run(capsys, "--json", "check", algs["n2"])
    assert out1 == out2


def test_basis(capsys, algs):
    code, out = run(capsys, "basis", algs["l2"])
    assert code == 0 and "dimension: 4" in out


def test_tau(capsys, algs):
    code, out = run(capsys, "tau", algs["n2"], "--string", "@1")
    assert code == 0
    assert "result: @2" in out
    code, out = run(capsys, "tau", algs["n2"], "--string", "a", "--inverse")
    assert code == 0 and "result: b" in out


@pytest.mark.parametrize("command", [["tau"], ["tau", "--inverse"], ["ar"], ["cone"]])
def test_isolated_vertex_leaves_other_strings_alone(capsys, algs, command):
    def at_one(alg):
        return run(capsys, "--json", command[0], alg, *command[1:], "--string", "@1")
    code, out = at_one(algs["n2_isolated"])
    assert code == 0
    assert (code, out) == at_one(algs["n2"])


@pytest.mark.parametrize("command", ["tau", "ar", "cone"])
def test_simple_projective_string_is_a_domain_error(capsys, algs, command):
    assert main([command, algs["n2_isolated"], "--string", "@3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: @3 is the simple projective module at the "
                            "arrow-less vertex 3; it has no AR translate\n")


def test_hom(capsys, algs):
    code, out = run(capsys, "hom", algs["n2"], "--from", "a", "--to", "a", "--stable")
    assert code == 0
    assert "hom_dim: 1" in out and "stable_hom_dim: 1" in out
    code, out = run(capsys, "hom", algs["n2"], "--from", "proj:1", "--to", "@1")
    assert code == 0 and "hom_dim: 1" in out


def test_ar_and_cone(capsys, algs):
    code, out = run(capsys, "ar", algs["n2"], "--string", "a")
    assert code == 0 and "middle_projective: 1" in out
    code, out = run(capsys, "cone", algs["n2"], "--string", "a")
    assert code == 0 and "iv-uniserial" in out


def test_strings(capsys, algs):
    code, out = run(capsys, "--json", "strings", algs["n2"], "--max-len", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4


def test_bricks(capsys, algs):
    code, out = run(capsys, "bricks", algs["n2"], "--set", "@1,@2", "--max-len", "8")
    assert code == 0
    assert "orthogonal_system: True" in out
    assert "bounded_maximality: True" in out


def test_nodes_split_roundtrip(capsys, algs, tmp_path):
    out_path = tmp_path / "split.alg"
    code, out = run(capsys, "nodes", algs["a3z"], "--split", "-o", str(out_path))
    assert code == 0
    assert "- 2" in out
    # the written presentation parses and has no nodes
    code2, out2 = run(capsys, "nodes", str(out_path))
    assert code2 == 0 and "nodes:\n" in out2


def test_normalize(capsys, algs):
    code, out = run(capsys, "normalize", algs["l2d"])
    assert code == 0
    assert "a -> a - (1/2)*b" in out
    code, out = run(capsys, "--json", "normalize", algs["l2d_f2"])
    payload = json.loads(out)
    assert payload["deformations"] == [["a", "1"]]


def test_ssb(capsys, algs, tmp_path):
    code, out = run(capsys, "--json", "ssb", "--quiver", algs["l2"],
                    "--pi", "a>b,b>a", "--mult", "a b:1", "--deform", "a:1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert payload["special_biserial"] is False


def test_domain_errors_exit_one(capsys, algs, tmp_path):
    # tau over a non-selfinjective table
    code, _ = run(capsys, "tau", algs["a3z"], "--string", "@1")
    assert code == 1
    # invalid string
    code, _ = run(capsys, "tau", algs["n2"], "--string", "a b")
    assert code == 1
    # unparsable file
    bad = tmp_path / "bad.alg"
    bad.write_text("vertex 1\n")
    code, _ = run(capsys, "check", str(bad))
    assert code == 1
    # normalize on a non-symmetric algebra
    code, _ = run(capsys, "normalize", algs["a3z"])
    assert code == 1


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("vertex 1 2", "vertex 1 2 1"), "duplicate vertex ids"),
    (lambda text: text + "arrow z : 1 -> 9\n", "arrow z has undeclared endpoint"),
    (lambda text: text + "rel a = x/2 a\n", "line {last}: bad scalar 'x/2'"),
    (lambda text: text + "rel a = 1/0 a\n", "line {last}: bad scalar '1/0'"),
    (lambda text: text.replace("field Q", "field F4"),
     "line {field}: characteristic must be 0 or prime, got 4"),
    (lambda text: text.replace("field Q", "field F3") + "rel a b = 1/3 a b\n",
     "line {last}: 1/3 has no image in F_3"),
], ids=["duplicate-vertex", "undeclared-endpoint", "bad-scalar", "zero-denominator",
        "not-a-prime", "no-image-mod-p"])
def test_malformed_alg_file_is_a_domain_error(capsys, tmp_path, edit, message):
    text = edit(ALG_N2_TEXT)
    lines = text.splitlines()
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    assert main(["check", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    field_line = next(i for i, line in enumerate(lines, 1) if line.startswith("field"))
    assert captured.err == "error: " + message.format(last=len(lines), field=field_line) + "\n"


def test_relation_with_a_scalar_zero_in_the_field_builds(capsys, tmp_path):
    """a a a = 3 a a over F3 is a a a = 0, not a failed relation."""
    outs = []
    for rhs in ("3 a a", "0"):
        p = tmp_path / "cube.alg"
        p.write_text(f"field F3\nvertex 1\narrow a : 1 -> 1\nrel a a a = {rhs}\n")
        code, out = run(capsys, "--json", "basis", str(p))
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1] and outs[0]["dimension"] == 3


@pytest.mark.parametrize("text, message", [
    (NON_CONFLUENT_TEXT, "relation x x = y y fails in the table at basis path x"),
    (ASSOCIATIVE_BUT_WRONG_TEXT, "relation c c b = c a fails in the table at basis path e_1"),
    (TAIL_DROP_TEXT, "relation x x x = 0, implied by the socle deformation x y = x x, "
                     "fails in the table at basis path e_1"),
], ids=["non-confluent", "associative-but-wrong", "tail-drop"])
def test_check_certifies_the_table(capsys, tmp_path, text, message):
    p = tmp_path / "wrong.alg"
    p.write_text(text)
    assert main(["check", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_ssb_deformation_of_an_unknown_arrow_is_a_domain_error(capsys, algs):
    assert main(["ssb", "--quiver", algs["l2"], "--pi", "a>b,b>a", "--mult", "a b:1",
                 "--deform", "zz:1"]) == 1
    assert capsys.readouterr().err == "error: unknown arrow 'zz' in --deform\n"


def test_undecodable_alg_file_is_a_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_bytes(b"field Q\nvertex 1\xff\n")
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_internal_error_is_not_reported_as_a_domain_error(algs, monkeypatch):
    """Only DomainError exits 1; a ValueError from inside the library is a bug."""
    def broken(pres):
        raise ValueError("rows do not span a submodule")

    monkeypatch.setattr("biserial.cli.build_table", broken)
    with pytest.raises(ValueError):
        main(["check", algs["n2"]])


def test_usage_error_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_sweep_small(capsys, algs):
    code, out = run(capsys, "sweep", algs["n2"], "--max-len", "6")
    assert code == 0
    assert "FAIL" not in out
    assert "all_pass: True" in out


@pytest.mark.parametrize("command", [["strings"], ["bricks", "--set", "@1"],
                                     ["sweep"]])
def test_negative_max_len_is_a_usage_error(capsys, algs, command):
    argv = ["--json", command[0], algs["n2"], *command[1:], "--max-len", "-3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-len: must be nonnegative, got -3" in captured.err


@pytest.mark.parametrize("option, value, message", [
    ("--deform", "a", "argument --deform: expected entries like 'a:1', got 'a'"),
    ("--mult", "a b:x", "argument --mult: expected an integer multiplicity, got 'x'"),
    ("--deform", "a:zz", "argument --deform: expected a scalar n or n/d, got 'zz'"),
])
def test_malformed_ssb_option_is_a_usage_error(capsys, algs, option, value, message):
    options = {"--pi": "a>b,b>a", "--mult": "a b:1", option: value}
    argv = ["--json", "ssb", "--quiver", algs["l2"]]
    for name, text in options.items():
        argv += [name, text]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_undecided_oracle_fails_one_sweep_check(capsys, algs, monkeypatch):
    from biserial.reps import Undecided

    def undecided(*args):
        raise Undecided("no witness and no proof")

    code, out = run(capsys, "--json", "sweep", algs["l2"], "--max-len", "3")
    assert code == 0
    checks = [r["check"] for r in json.loads(out)["results"]]
    monkeypatch.setattr("biserial.sweep.is_isomorphic", undecided)
    code, out = run(capsys, "--json", "sweep", algs["l2"], "--max-len", "3")
    assert code == 1
    payload = json.loads(out)
    assert not payload["all_pass"]
    assert [r["check"] for r in payload["results"]] == checks
    result = {r["check"]: r for r in payload["results"]}
    rev = result["string-reverse-isomorphism"]
    assert not rev["pass"]
    assert "@1: Undecided('no witness and no proof')" in rev["detail"]
    assert not result["cone-oracle"]["pass"]
    assert result["tau-roundtrip"]["pass"]


def test_undecided_oracle_is_a_domain_error(capsys, algs, monkeypatch):
    from biserial.reps import Undecided

    def undecided(*args):
        raise Undecided("no witness and no proof")

    monkeypatch.setattr("biserial.bricks.check_orthogonal_system", undecided)
    assert main(["bricks", algs["n2"], "--set", "@1,@2"]) == 1
    assert "error: no witness and no proof" in capsys.readouterr().err


def test_sweep_check_exception_fails_only_that_check(monkeypatch):
    checks = [r["check"] for r in run_sweep(alg_l2(), 3)["results"]]

    def broken(*args):
        raise ArithmeticError("stable hom broke")

    monkeypatch.setattr("biserial.sweep.stable_hom_dim", broken)
    payload = run_sweep(alg_l2(), 3)
    assert not payload["all_pass"]
    assert [r["check"] for r in payload["results"]] == checks
    result = {r["check"]: r for r in payload["results"]}
    assert not result["stable-hom-bound"]["pass"]
    assert result["stable-hom-bound"]["detail"] == "ArithmeticError('stable hom broke')"
    assert [r["check"] for r in payload["results"] if not r["pass"]] == ["stable-hom-bound"]
