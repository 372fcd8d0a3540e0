"""Command-line interface: outputs, exit codes, determinism, JSON."""

import json

from ncplush.classify import verdict_from_dict
from ncplush.cli import main
from ncplush.freealg import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_plush_exit_zero(capsys):
    code, out, _ = run(capsys, "classify", "--vars", "1", "-e", "x1'*x1")
    assert code == 0
    assert out.startswith("verdict: plush")
    assert "f (weight 1): x1" in out


def test_classify_not_plush_exit_two(capsys):
    code, out, _ = run(capsys, "classify", "--vars", "1", "-e", "x1'*x1*x1'*x1")
    assert code == 2
    assert "verdict: not_plush" in out
    assert "path: mixed_block" in out


def test_classify_inconclusive_exit_three(capsys):
    code, out, _ = run(capsys, "classify", "--vars", "1",
                       "-e", "x1'*x1*x1'*x1", "--sizes", "1", "--samples", "3")
    assert code == 3
    assert "verdict: inconclusive" in out


def test_hessian_output(capsys):
    code, out, _ = run(capsys, "hessian", "--vars", "1", "-e", "x1'*x1")
    assert code == 0
    assert out.strip() == "h1'*h1"


def test_derive_output(capsys):
    code, out, _ = run(capsys, "derive", "-e", "x1'*x1")
    assert code == 0
    assert parse_poly(out.strip()) == parse_poly("h1'*x1 + x1'*h1")


def test_mmr_dump(capsys):
    code, out, _ = run(capsys, "mmr", "-e", "h1'*h1")
    assert code == 0
    assert "border:" in out and "h1" in out and "middle:" in out


def test_ldlt_dump_and_obstruction(capsys):
    from ncplush.calculus import complex_hessian
    from ncplush.freealg import format_poly

    q = complex_hessian(parse_poly("x1'*x1 + x1'*x1'*x1*x1"))
    code, out, _ = run(capsys, "ldlt", "-e", format_poly(q))
    assert code == 0
    assert "perm:" in out and "D:" in out
    # a quadratic whose middle matrix has no constant pivot
    code2, out2, _ = run(capsys, "ldlt", "-e", "h1'*x1*x1'*h1")
    assert code2 == 0
    assert "obstruction" in out2


def test_eval_matrix_output(capsys):
    code, out, _ = run(capsys, "eval", "-e", "x1*x1'", "--size", "2", "--seed", "4")
    assert code == 0
    assert "result:" in out and "X1 = [" in out


def test_parse_error_exit_one(capsys):
    code, _, err = run(capsys, "classify", "-e", "x1 + $")
    assert code == 1
    assert "1:6" in err


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "classify")
    assert code == 1
    assert "usage error" in err


def test_missing_file_exit_one(capsys):
    code, _, err = run(capsys, "classify", "-f", "/nonexistent/poly.txt")
    assert code == 1
    assert "error" in err


def test_determinism_byte_identical(capsys):
    args = ("classify", "--vars", "1", "-e", "x1'*x1*x1'*x1", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_json_roundtrip_through_cli(capsys):
    code, out, _ = run(capsys, "classify", "--json", "--vars", "2",
                       "-e", "x1'*x1 + x2*x2' + x1*x2 + x2'*x1'")
    assert code == 0
    verdict = verdict_from_dict(json.loads(out))
    assert verdict.is_plush
    assert verdict.decomposition.F == parse_poly("x1*x2", 2)

    code2, out2, _ = run(capsys, "classify", "--json", "--vars", "1",
                         "-e", "x1'*x1*x1'*x1")
    assert code2 == 2
    verdict2 = verdict_from_dict(json.loads(out2))
    assert verdict2.counterexample.eigenvalue <= -1e-8


def test_json_mode_other_commands(capsys):
    code, out, _ = run(capsys, "hessian", "--json", "-e", "x1'*x1")
    assert code == 0 and json.loads(out)["result"] == "h1'*h1"
    code, out, _ = run(capsys, "mmr", "--json", "-e", "h1'*h1")
    assert code == 0 and json.loads(out)["border"] == ["h1"]
    code, out, _ = run(capsys, "eval", "--json", "-e", "x1", "--size", "2")
    assert code == 0 and len(json.loads(out)["matrix"]) == 2


def test_classify_negative_expression(capsys):
    code, out, _ = run(capsys, "classify", "--vars", "1", "-e", "-x1'*x1")
    assert code == 2
    assert "verdict: not_plush" in out


def test_classify_rejects_direction_letters(capsys):
    code, out, err = run(capsys, "classify", "--vars", "1", "-e", "h1'*h1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: decide_plush expects a polynomial without h-letters")
