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
    assert "takes no --" in err


# the flag that fills each suite parameter; no flag fills samples
FLAG = {"n": "--n", "rs": "--r", "seed": "--seed"}


@pytest.mark.parametrize(
    "suite,flags,refused,takes",
    [("cor-4.3", ["--n", "5"], "n", "none"), ("lemma-3.1", ["--r", "2"], "rs", "n"),
     ("strata", ["--seed", "1"], "seed", "n"), ("prop-4.2", ["--r", "2", "--seed", "1"], "rs, seed", "none")],
)
def test_verify_refusal_names_the_parameter_and_what_the_suite_takes(capsys, suite, flags, refused, takes):
    """`refused` and `takes` name suite parameters; the refusal names the
    flags that fill them."""
    code, out, err = _capture(capsys, ["verify", "--suite", suite] + flags)
    assert code == 2
    assert out == ""
    refused, takes = (", ".join(FLAG.get(name, name) for name in names.split(", ")) for names in (refused, takes))
    assert err == f"error: suite {suite} takes no {refused}; it takes {takes}\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["thm-5.2", "--r", "1"], "suite thm-5.2 takes no --r; it takes --n, --seed"),
        (["cor-4.4", "--seed", "2", "--n", "3", "--r", "1"], "suite cor-4.4 takes no --n, --r, --seed; it takes none"),
        (["lemma-4.1", "--r", "2"], "suite lemma-4.1 takes no --r; it takes --n"),
        (["lemma-1.8", "--seed", "3"], "suite lemma-1.8 takes no --seed; it takes --n, --r"),
        # the oracle's verdict is exact, so the gateway suite draws nothing to seed
        (["lemma-2.7", "--seed", "3"], "suite lemma-2.7 takes no --seed; it takes --n, --r"),
        # the suite reads exact pivot sets off the generic support, so it draws nothing to seed
        (["lemma-4.1", "--seed", "3"], "suite lemma-4.1 takes no --seed; it takes --n"),
    ],
    ids=["thm-5.2", "cor-4.4", "lemma-4.1", "lemma-1.8", "lemma-2.7", "lemma-4.1-seed"],
)
def test_verify_refusal_lists_only_the_flags_that_reach_the_suite(capsys, argv, err):
    """thm-5.2 takes samples too, which no flag sets, so the refusal leaves it out."""
    code, out, got = _capture(capsys, ["verify", "--suite", *argv])
    assert (code, out, got) == (2, "", f"error: {err}\n")


def test_lemma_3_1_refuses_n_over_its_limit(capsys):
    limit = verify._REGISTRY["lemma-3.1"].max_n
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-3.1", "--n", str(limit + 1)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: lemma-3.1 checks every reflection against the closure of every cell of every rank; "
        f"n={limit + 1} is over the limit n <= {limit}\n"
    )


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
    limit = verify._REGISTRY["lemma-4.1"].max_n
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-4.1", "--n", str(limit + 1)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: lemma-4.1 walks all n! row permutations per semistable rank-2 cell; "
        f"n={limit + 1} is over the limit n <= {limit}\n"
    )


@pytest.mark.parametrize("n", [1, 3])
def test_lemma_2_7_refuses_n_below_four_by_name(capsys, n):
    # n = 1 has no Grassmannian, and n = 3 no semistable cell of the default rank 2
    code, out, err = _capture(capsys, ["verify", "--suite", "lemma-2.7", "--n", str(n)])
    assert code == 2
    assert out == ""
    assert err == {
        1: "error: lemma-2.7 needs n >= 2 for a Grassmannian G_(r,n), got n=1\n",
        3: "error: lemma-2.7 needs each rank r in 2..n-2 for the semistable cells of G_(r,n), "
           "got r=2 at n=3\n",
    }[n]


@pytest.mark.parametrize("n", [1, 3])
def test_strata_refuses_n_below_four_by_name(capsys, n):
    code, out, err = _capture(capsys, ["verify", "--suite", "strata", "--n", str(n)])
    assert code == 2
    assert out == ""
    assert err == (
        "error: strata needs n >= 4 for the stratified torus-normalizer quotient "
        f"of G_(2,n), got n={n}\n"
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
@pytest.mark.parametrize(
    "suite", ["lemma-1.6", "lemma-1.7", "lemma-1.8", "lemma-3.1", "prop-2.9", "prop-3.2"]
)
def test_grassmannian_suites_refuse_n_below_two(capsys, suite, n):
    code, out, err = _capture(capsys, ["verify", "--suite", suite, "--n", str(n)])
    assert code == 2
    assert out == ""
    assert err == f"error: {suite} needs n >= 2 for a Grassmannian G_(r,n), got n={n}\n"


@pytest.mark.parametrize("suite", ["lemma-1.6", "lemma-1.7", "lemma-1.8"])
@pytest.mark.parametrize(
    "flags,r,n", [(["--n", "3"], 3, 3), (["--n", "2"], 2, 2), (["--n", "5", "--r", "7"], 7, 5),
                  (["--n", "5", "--r", "5"], 5, 5), (["--n", "5", "--r", "0"], 0, 5)],
)
def test_rank_suites_refuse_a_rank_outside_one_to_n_minus_one(capsys, suite, flags, r, n):
    # the default ranks are 1, 2 and 3, so n = 2 and n = 3 each have one too large
    code, out, err = _capture(capsys, ["verify", "--suite", suite] + flags)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {suite} needs each rank r in 1..n-1 for a Grassmannian G_(r,n), got r={r} at n={n}\n"
    )


SEMISTABLE_RANK_FLAGS = pytest.mark.parametrize(
    "flags,r,n", [(["--n", "7", "--r", "1"], 1, 7), (["--n", "7", "--r", "0"], 0, 7),
                  (["--n", "7", "--r", "6"], 6, 7), (["--n", "3"], 2, 3)]
)


def _check_semistable_rank_refused(capsys, suite, flags, r, n):
    code, out, err = _capture(capsys, ["verify", "--suite", suite] + flags)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {suite} needs each rank r in 2..n-2 for the semistable cells of G_(r,n), "
        f"got r={r} at n={n}\n"
    )


@SEMISTABLE_RANK_FLAGS
def test_prop_2_9_refuses_a_rank_outside_two_to_n_minus_two(capsys, flags, r, n):
    # the default ranks are 2 and 3, so at n = 3 the first is too large
    _check_semistable_rank_refused(capsys, "prop-2.9", flags, r, n)


@SEMISTABLE_RANK_FLAGS
def test_lemma_2_7_refuses_a_rank_outside_two_to_n_minus_two(capsys, flags, r, n):
    # the default rank is 2, too large at n = 3
    _check_semistable_rank_refused(capsys, "lemma-2.7", flags, r, n)


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


@pytest.mark.parametrize("k", ["0", "6"])
def test_act_refuses_a_generator_that_is_no_simple_index(capsys, k):
    """No s_0 or s_n exists in S_n: the refusal says so, not that the cell
    is unstable under it."""
    code, out, err = _capture(
        capsys, ["act", "--n", "6", "--r", "3", "--a", "3", "4", "5", "--gen", k]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: simple index {k} out of range for n=6\n"


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
    args = ["--suite", suite]
    if "n" in verify.suite_parameters(suite) or draw(st.booleans()):
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
