"""Command-line interface: outputs, exit codes, determinism, JSON."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplush.classify import verdict_from_dict
from ncplush.cli import main
from ncplush.freealg import MAX_PAREN_DEPTH, MAX_VARIABLE_INDEX, parse_poly
from ncplush.numeval import MAX_MATRIX_SIZE


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


def test_deeply_nested_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.txt"
    path.write_text("(" * 3000 + "x1" + ")" * 3000)
    code, out, err = run(capsys, "classify", "-f", str(path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: 1:{MAX_PAREN_DEPTH + 1}: parentheses nested deeper")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("classify", "--sizes", "0"),
    ("classify", "--sizes", "-2"),
    ("classify", "--sizes", f"1,{MAX_MATRIX_SIZE + 1}"),
    ("classify", "--samples", "0"),
    ("classify", "--tol", "nan"),
    ("classify", "--vars", "0"),
    ("eval", "--size", "0"),
    ("eval", "--size", str(MAX_MATRIX_SIZE + 1)),
    ("hessian", "--vars", "0"),
    ("hessian", "--vars", "100000000"),
])
def test_out_of_range_flags_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv, "-e", "x1'*x1*x1'*x1")
    assert code == 1 and out == ""
    assert err.startswith(("error: ", "usage error: ")) and "Traceback" not in err


def test_float_overflow_is_an_error(capsys):
    code, out, err = run(capsys, "eval", "--size", "1", "-e", "1" + "0" * 400 + "*x1")
    assert code == 1 and out == ""
    assert err.startswith(("error: ", "usage error: ")) and "Traceback" not in err


def test_hessian_caps_variable_index(capsys):
    code, out, _ = run(capsys, "hessian", "-e", f"x{MAX_VARIABLE_INDEX}'*x{MAX_VARIABLE_INDEX}")
    assert code == 0 and out.strip() == f"h{MAX_VARIABLE_INDEX}'*h{MAX_VARIABLE_INDEX}"
    code, out, err = run(capsys, "hessian", "-e", "x99999999'*x1")
    assert code == 1 and out == ""
    assert err.startswith("error: 1:1: variable x99999999 exceeds the limit")


_indices = st.one_of(st.sampled_from([1, 2]), st.sampled_from(
    [MAX_VARIABLE_INDEX - 1, MAX_VARIABLE_INDEX, MAX_VARIABLE_INDEX + 1]))
_atoms = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from("xh"), _indices,
              st.sampled_from(["", "'", "''"])),
    st.sampled_from(["0", "1", "2/3", "1/0", "x", "h0", "1" + "0" * 400]),
)
_exprs = st.recursive(_atoms, lambda inner: st.one_of(
    st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*", " "]), inner),
    st.builds("({})'".format, inner),
    st.builds("{0} + ({0})'".format, inner),
), max_leaves=6)
_texts = st.one_of(
    _exprs,
    _exprs.map("{0} + ({0})'".format),
    st.integers(0, 2 * MAX_PAREN_DEPTH).map(lambda d: "(" * d + "x1'*x1" + ")" * d),
    st.builds("{}{}{}".format, _exprs, st.text("$#()'+-*/ xh09", max_size=4), _exprs),
)
_SUBCOMMANDS = {
    "derive": [], "hessian": [], "mmr": [], "ldlt": [],
    "classify": ["--sizes", "1,2", "--samples", "3"],
    "eval": ["--size", "2"],
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SUBCOMMANDS)), _texts,
       st.sampled_from([[], ["--vars", "2"], ["--vars", "0"], ["--json"]]))
def test_fuzz_main_exits_with_a_code(command, text, extra):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-e", text, *_SUBCOMMANDS[command], *extra])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
