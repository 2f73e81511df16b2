"""Front-end behavior: JSON shape, determinism, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import torusquot
from torusquot import __version__, verify
from torusquot.cli import _emit, _jsonable, build_parser, run


def _capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fraction_serialization():
    assert _jsonable(Fraction(3, 4)) == "3/4"
    assert _jsonable(Fraction(6, 8)) == "3/4"
    assert _jsonable(Fraction(-5)) == "-5/1"
    assert _jsonable({"k": (1, Fraction(1, 2))}) == {"k": [1, "1/2"]}
    assert _jsonable(frozenset({3, 1})) == [1, 3]


def test_tau_worked_example(capsys):
    code, out, _ = _capture(capsys, ["tau", "--n", "5", "--r", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"a_seq": [2, 4], "word": [2, 1, 4, 3, 2]}
    assert doc["command"] == "tau"
    assert doc["seed"] == 0
    assert doc["version"] == __version__


def test_semistable_cells_worked_example(capsys):
    code, out, _ = _capture(capsys, ["semistable-cells", "--n", "5", "--r", "2"])
    assert code == 0
    assert json.loads(out)["results"]["cells"] == [[2, 4], [3, 4]]


def test_output_is_byte_deterministic(capsys):
    argv = ["invariants", "--n", "6", "--r", "2", "--a", "4", "5"]
    _, first, _ = _capture(capsys, argv)
    _, second, _ = _capture(capsys, argv)
    assert first == second
    doc = json.loads(first)
    keys = list(doc)
    assert keys == sorted(keys)


def test_verify_worked_example(capsys):
    code, out, _ = _capture(
        capsys, ["verify", "--suite", "lemma-1.8", "--n", "5", "--r", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == [{"name": "lemma-1.8", "status": "pass"}]
    assert doc["results"]["checked"] == 100
    assert doc["params"]["suite"] == "lemma-1.8"


def test_verify_seed_echoed(capsys):
    code, out, _ = _capture(
        capsys, ["verify", "--suite", "lemma-5.1", "--n", "2", "--seed", "9"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 9
    assert doc["results"]["params"]["seed"] == 9


def test_gateway_suite_offsets_its_seed(capsys):
    code, out, _ = _capture(
        capsys, ["verify", "--suite", "lemma-2.7", "--n", "4", "--r", "2", "--seed", "7"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["params"]["seed"] == 7
    assert "seeds [7, 8, 9]" in doc["results"]["details"][0]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "lemma-3.1", "--n", "4", "--r", "2"],
        ["verify", "--suite", "cor-4.4", "--n", "3"],
        ["verify", "--suite", "lemma-1.8", "--n", "5", "--r", "2", "--seed", "3"],
    ],
)
def test_verify_refuses_flags_the_suite_cannot_take(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "takes no parameter" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["flag-quotient", "--n", "-1", "--tau"],
        ["flag-quotient", "--n", "0", "--tau"],
        ["verify", "--suite", "lemma-5.1", "--n", "0"],
        ["verify", "--suite", "thm-5.2", "--n", "0"],
        ["verify", "--suite", "cor-5.3", "--n", "0"],
        ["verify", "--suite", "cor-5.4", "--n", "0"],
    ],
)
def test_flag_family_refuses_n_below_one(capsys, argv):
    code, out, err = _capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "needs n >= 1" in err


@pytest.mark.parametrize("suite", ["lemma-5.1", "thm-5.2", "cor-5.3", "cor-5.4"])
def test_flag_suites_refuse_n_below_one_by_name(capsys, suite):
    code, out, err = _capture(capsys, ["verify", "--suite", suite, "--n", "0"])
    assert code == 2
    assert out == ""
    assert err == f"error: {suite} needs n >= 1 for a flag variety GL_(n+1)/B, got n=0\n"


@pytest.mark.parametrize("command", ["tau", "semistable-cells"])
def test_grassmannian_commands_refuse_r_out_of_range(capsys, command):
    code, out, err = _capture(capsys, [command, "--n", "1", "--r", "2"])
    assert code == 2
    assert out == ""
    assert "need 2 <= r <= n - 2" in err


def test_semistable_cells_writes_nothing_to_stderr():
    """In a fresh interpreter, where no test harness catches warnings, a
    case-split divergence (12 = 2 mod 4) leaves stderr empty."""
    src = os.path.dirname(os.path.dirname(torusquot.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "torusquot.cli", "semistable-cells", "--n", "12", "--r", "4"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["results"]["count"] > 0


def test_lemma_4_1_refuses_n_below_four_by_name(capsys):
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-4.1", "--n", "3"])
    assert code == 2
    assert out == ""
    assert "lemma-4.1 needs n >= 4" in err and "got n=3" in err


def test_lemma_4_1_refuses_n_over_its_limit(capsys):
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-4.1", "--n", "9"])
    assert code == 2
    assert out == ""
    assert "n=9 is over the limit n <= 8" in err


@pytest.mark.parametrize("n", [1, 3])
def test_lemma_2_7_refuses_n_below_four_by_name(capsys, n):
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-2.7", "--n", str(n)])
    assert code == 2
    assert out == ""
    assert err == f"error: lemma-2.7 needs n >= 4 for a rank r with 2 <= r <= n - 2, got n={n}\n"


@pytest.mark.parametrize("n", [1, 3])
def test_strata_refuses_n_below_four_by_name(capsys, n):
    """`--n` sets `n_min`, the parameter the suite's floor reads."""
    code, out, err = _capture(capsys, ["verify", "--suite", "strata", "--n", str(n)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: strata needs n_min >= 4 for the stratified torus-normalizer quotient "
        f"of G_(2,n), got n_min={n}\n"
    )


def test_lemma_2_7_refuses_n_over_its_limit(capsys):
    limit = verify._REGISTRY["lemma-2.7"].max_n
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-2.7", "--n", str(limit + 1)])
    assert code == 2
    assert out == ""
    assert f"n={limit + 1} is over the limit n <= {limit}" in err


def test_thm_5_2_refuses_n_over_its_limit(capsys):
    code, out, err = _capture(capsys, ["verify", "--suite", "thm-5.2", "--n", "8"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: thm-5.2 desk-checks all n! cells under each of the n generators; "
        "n=8 is over the limit n <= 4\n"
    )


def test_lemma_5_1_refuses_n_over_its_limit(capsys):
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-5.1", "--n", "9"])
    assert code == 2
    assert out == ""
    assert err == (
        "error: lemma-5.1 enumerates all n! elements of both families for each of "
        "three characters; n=9 is over the limit n <= 8\n"
    )


@pytest.mark.parametrize("n", [-1, 0, 1])
@pytest.mark.parametrize("suite", ["lemma-3.1", "prop-2.9", "prop-3.2"])
def test_grassmannian_suites_refuse_n_below_two(capsys, suite, n):
    code, out, err = _capture(capsys, ["verify", "--suite", suite, "--n", str(n)])
    assert code == 2
    assert out == ""
    assert err == f"error: {suite} needs n >= 2 for a Grassmannian G_(r,n), got n={n}\n"


def test_verify_suite_checking_no_case_exits_one(capsys):
    code, out, _ = _capture(capsys, ["verify", "--suite", "cor-5.3", "--n", "1"])
    assert code == 1
    doc = json.loads(out)
    assert doc["results"]["status"] == "inconclusive"
    assert doc["results"]["checked"] == 0


def test_act_emits_closed_form_and_check(capsys):
    code, out, _ = _capture(
        capsys, ["act", "--n", "5", "--r", "2", "--a", "2", "4", "--gen", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["action"] == {"Y_1_1": "-Y_1_1 + 1"}
    assert doc["checks"] == [{"name": "involution", "status": "pass"}]


def test_inversions_worked_example(capsys):
    code, out, _ = _capture(capsys, ["inversions", "--n", "6", "--r", "3", "--a", "2", "4", "5"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["count"] == 8
    assert results["labels"] == [[1, 1], [1, 2], [2, 1], [2, 2], [2, 3], [3, 1], [3, 2], [3, 3]]
    assert results["intervals"] == {
        "X_1_1": [1, 2], "X_1_2": [2, 2],
        "X_2_1": [1, 4], "X_2_2": [2, 4], "X_2_3": [4, 4],
        "X_3_1": [1, 5], "X_3_2": [2, 5], "X_3_3": [4, 5],
    }


def test_flag_quotient_empty_word_is_a_point(capsys):
    code, out, _ = _capture(capsys, ["flag-quotient", "--n", "2", "--tau"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["coordinates"] == {}
    assert doc["results"]["tau_one_line"] == [1, 2, 3]


def test_flag_negative_lists_elements(capsys):
    code, out, _ = _capture(capsys, ["flag-negative", "--n", "2", "--chi", "1", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"] == {"count": 2, "elements": [[2, 3, 1], [3, 2, 1]]}


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tau", "--n", "5"])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["inversions", "--n", "6", "--r", "3", "--a", "2", "x", "5"],
        ["invariants", "--n", "6", "--r", "2", "--a", "x", "5"],
        ["act", "--n", "6", "--r", "2", "--a", "4", "x", "--gen", "1"],
        ["flag-negative", "--n", "2", "--chi", "1", "x"],
        ["flag-quotient", "--n", "3", "--tau", "1", "x"],
    ],
)
def test_non_integer_list_argument_is_a_usage_error(capsys, argv):
    flag = next(a for a in reversed(argv[: argv.index("x")]) if a.startswith("--"))
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: torusquot {argv[0]} ")
    assert captured.err.endswith(f"error: argument {flag}: invalid int value: 'x'\n")


def test_domain_error_exits_two(capsys):
    code, out, err = _capture(
        capsys, ["act", "--n", "5", "--r", "2", "--a", "2", "4", "--gen", "3"]
    )
    assert code == 2
    assert out == ""
    assert "does not stabilize" in err


def test_invalid_cell_exits_two(capsys):
    code, _, err = _capture(
        capsys, ["inversions", "--n", "5", "--r", "2", "--a", "4", "2"]
    )
    assert code == 2
    assert err


def test_check_failure_exits_one(capsys):
    code = _emit("demo", {}, {}, [{"name": "x", "status": "fail"}], 0)
    capsys.readouterr()
    assert code == 1


def test_parser_knows_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in (
        "tau",
        "semistable-cells",
        "inversions",
        "invariants",
        "act",
        "strata",
        "flag-negative",
        "flag-quotient",
        "verify",
    ):
        assert name in text


def _number(draw, top):
    return str(draw(st.integers(-2, top)))


def _numbers(draw, top, min_size=1):
    return [str(v) for v in draw(st.lists(st.integers(-2, top), min_size=min_size, max_size=4))]


def _cell_args(draw):
    # a strictly increasing sequence, with r its length half the time, so that
    # valid cells are drawn as well as refused ones
    a = sorted(draw(st.sets(st.integers(-2, 6), min_size=1, max_size=4)))
    r = draw(st.one_of(st.just(len(a)), st.integers(-2, 6)))
    return ["--n", _number(draw, 6), "--r", str(r), "--a", *map(str, a)]


def _suite_args(suite, draw):
    # a suite that takes n always gets --n, so none runs at a larger default
    takes_n = {"n", "n_min"} & set(verify.suite_parameters(suite))
    args = ["--suite", suite]
    if takes_n or draw(st.booleans()):
        args += ["--n", _number(draw, 3 if suite == "thm-5.2" else 4)]
    for flag in ("--r", "--seed"):
        if draw(st.booleans()):
            args += [flag, _number(draw, 4)]
    return args


# Every drawn input answers in well under a second: the Grassmannian commands
# at n <= 7 (n <= 6 once a cell is named), the flag commands at n <= 4
# (flag-quotient at n <= 3), and each suite at n <= 4 (thm-5.2 at n <= 3);
# the suites without an n run at their defaults.  The whole test takes
# about 2 s.
_FUZZ_ARGS = {
    "tau": lambda draw: ["--n", _number(draw, 7), "--r", _number(draw, 7)],
    "semistable-cells": lambda draw: ["--n", _number(draw, 7), "--r", _number(draw, 7)],
    "inversions": _cell_args,
    "invariants": _cell_args,
    "act": lambda draw: [*_cell_args(draw), "--gen", _number(draw, 6)],
    "strata": lambda draw: ["--n", _number(draw, 7)],
    "flag-negative": lambda draw: ["--n", _number(draw, 4), "--chi", *_numbers(draw, 12)],
    "flag-quotient": lambda draw: ["--n", _number(draw, 3), "--tau", *_numbers(draw, 4, 0)],
}


def test_fuzz_draws_every_subcommand():
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(_FUZZ_ARGS) | {"verify"} == set(subparsers.choices)


@pytest.mark.parametrize(
    "target", sorted(_FUZZ_ARGS) + [f"verify {suite}" for suite in verify.available_suites()]
)
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(data=st.data())
def test_every_small_input_is_answered_or_refused(target, data):
    command, _, suite = target.partition(" ")
    args = _suite_args(suite, data.draw) if suite else _FUZZ_ARGS[command](data.draw)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([command, *args])
    assert code in (0, 1, 2), args
    if code == 2:
        assert out.getvalue() == "", args
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, args
    else:
        assert json.loads(out.getvalue())["command"] == command
