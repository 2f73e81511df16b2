"""The named cross-check suites and their registry."""

import dataclasses
import functools
import json

import pytest

from torusquot import flag, verify
from torusquot.cli import _jsonable, run
from torusquot.verify import CheckReport, available_suites, exhaustive_check


def test_registry_is_complete():
    assert available_suites() == (
        "cor-4.3",
        "cor-4.4",
        "cor-5.3",
        "cor-5.4",
        "lemma-1.6",
        "lemma-1.7",
        "lemma-1.8",
        "lemma-2.7",
        "lemma-3.1",
        "lemma-4.1",
        "lemma-5.1",
        "prop-2.9",
        "prop-3.2",
        "prop-4.2",
        "strata",
        "thm-5.2",
    )


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        exhaustive_check("lemma-9.9")


def test_gateway_oracle_example():
    rep = exhaustive_check("lemma-2.7", n=5, r=2)
    assert rep.ok
    assert rep.checked == 10
    assert "2 semistable cells" in rep.details[0]


def test_order_reversal_example():
    rep = exhaustive_check("lemma-1.8", n=5, rs=(2,))
    assert rep.ok
    assert rep.checked == 100  # all ordered pairs of the ten cells


def test_negative_set_example():
    rep = exhaustive_check("lemma-5.1", n=3)
    assert rep.ok  # three characters, six elements each


def test_report_payload_shape():
    rep = exhaustive_check("strata", n_min=4, n_max=5)
    assert isinstance(rep, CheckReport)
    payload = rep.to_payload()
    assert payload["name"] == "strata"
    assert payload["status"] == "pass"
    assert "counterexample" not in payload
    assert payload["params"] == {"n_min": 4, "n_max": 5}


def test_none_params_are_dropped():
    rep = exhaustive_check("lemma-2.7", n=4, r=2, seed=None)
    assert rep.ok
    assert rep.params["seed"] == 0


@pytest.mark.parametrize(
    "name,params",
    [
        ("lemma-1.8", {"rz": (9,)}),
        ("lemma-2.7", {"seeds": (0, 1, 2)}),
    ],
)
def test_unknown_parameter_rejected(name, params):
    with pytest.raises(ValueError):
        exhaustive_check(name, **params)


@pytest.mark.parametrize(
    "name,params",
    [
        ("cor-5.3", {"n": 1}),
        ("prop-2.9", {"n": 4, "rs": (3,)}),
    ],
)
def test_suite_checking_no_case_is_inconclusive(name, params):
    rep = exhaustive_check(name, **params)
    assert rep.status == "inconclusive"
    assert rep.checked == 0


def test_runner_stops_at_first_counterexample(monkeypatch):
    ran = []

    def synthetic(cases: int = 5):
        for i in range(cases):
            ran.append(i)
            yield i != 2, {"case": i}
        return ("all cases hold",)

    monkeypatch.setitem(verify._REGISTRY, "synthetic", verify._Suite(synthetic))
    rep = exhaustive_check("synthetic")
    assert rep.status == "fail"
    assert rep.checked == 3
    assert rep.counterexample == {"case": 2}
    assert rep.details == ()
    assert rep.params == {"cases": 5}
    assert ran == [0, 1, 2]


@pytest.mark.parametrize(
    "name,params",
    [
        ("lemma-1.6", {"n": 5, "rs": (1, 2)}),
        ("lemma-1.7", {"n": 5, "rs": (1, 2)}),
        ("prop-2.9", {"n": 5, "rs": (2, 3)}),
        ("lemma-3.1", {"n": 4}),
        ("prop-3.2", {"n": 5}),
        ("lemma-4.1", {"n": 5, "points": 1}),
        ("prop-4.2", {"ms": (2, 3)}),
        ("cor-4.3", {"ms": (2, 3)}),
        ("cor-4.4", {"ms": (2,)}),
        ("strata", {"n_min": 4, "n_max": 6}),
        ("thm-5.2", {"n": 2, "samples": 6}),
        ("cor-5.3", {"n": 2}),
        ("cor-5.4", {"n": 2}),
    ],
)
def test_suites_pass_at_reduced_scale(name, params):
    rep = exhaustive_check(name, **params)
    assert rep.status == "pass", rep.counterexample
    assert rep.checked > 0


def test_thm_suite_carries_reading_records():
    rep = exhaustive_check("thm-5.2", n=2, samples=6)
    blob = "\n".join(rep.details)
    assert "leading minus" in blob or "sign" in blob.lower()


def _fail_third_support_check(monkeypatch, n, samples):
    """Make the third sampled point's support check fail; returns the
    `checked` count and the counterexample the runner must report."""
    required = [
        (check, witness)
        for check, ok, witness in flag.desk_check(n, 0, samples)
        if check not in flag.PRINTED_DIVERGENCES
    ]
    at = [k for k, (check, _) in enumerate(required) if check == "image support preserved"][2]
    real, calls = flag.semistable_flag_support, []

    def support(w, rank):
        calls.append(w)
        return (lambda coords: False) if len(calls) == 3 else real(w, rank)

    monkeypatch.setattr(flag, "semistable_flag_support", support)
    check, witness = required[at]
    return len(flag.subgroup_fixing_last(n)) + at + 1, {"check": check, **witness}


def test_thm_suite_fail_names_the_failing_instance(monkeypatch):
    checked, counterexample = _fail_third_support_check(monkeypatch, 2, 6)
    rep = exhaustive_check("thm-5.2", n=2, samples=6)
    assert rep.status == "fail"
    assert rep.checked == checked
    assert rep.counterexample == counterexample
    assert rep.counterexample["check"] == "image support preserved"
    cells = {(flag.cyclic_element(2) * tau).images for tau in flag.subgroup_fixing_last(2)}
    assert rep.counterexample["cell"] in cells
    assert rep.details == ()


def test_thm_counterexample_is_printed_and_exits_one(capsys, monkeypatch):
    # the command line runs the default 12 samples
    checked, counterexample = _fail_third_support_check(monkeypatch, 2, 12)
    code = run(["verify", "--suite", "thm-5.2", "--n", "2", "--seed", "0"])
    assert code == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["status"] == "fail"
    assert results["checked"] == checked
    assert results["counterexample"] == _jsonable(counterexample)


def _stub_body(monkeypatch, name):
    """Replace the suite's body by a one-case stub; returns the suite's
    record and the list of the values of the floor's parameter (``n`` for
    all but ``strata``) each stub call received."""
    suite = verify._REGISTRY[name]
    calls = []

    @functools.wraps(suite.body)  # keeps the parameters suite_parameters reads
    def stub(**bound):
        calls.append(bound[suite.floor_param])
        yield True, None
        return ()

    monkeypatch.setitem(verify._REGISTRY, name, dataclasses.replace(suite, body=stub))
    return suite, calls


def _check_limit_before_the_body(monkeypatch, name):
    """With the suite's body stubbed: at the table's limit the stub runs
    once; one over it, the runner refuses and never calls the stub."""
    suite, calls = _stub_body(monkeypatch, name)
    limit = suite.max_n
    with pytest.raises(ValueError) as refused:
        exhaustive_check(name, n=limit + 1)
    assert str(refused.value) == f"{name} {suite.why}; n={limit + 1} is over the limit n <= {limit}"
    assert calls == []
    assert exhaustive_check(name, n=limit).ok
    assert calls == [limit]


LEAST_N = {
    "prop-2.9": 2, "lemma-3.1": 2, "prop-3.2": 2, "lemma-4.1": 4, "lemma-2.7": 4, "strata": 4,
    "lemma-5.1": 1, "thm-5.2": 1, "cor-5.3": 1, "cor-5.4": 1,
}


@pytest.mark.parametrize("name", sorted(LEAST_N))
def test_least_n_is_checked_before_the_body(monkeypatch, name):
    """With the suite's body stubbed: at the record's least n the stub
    runs once; one below it, the runner refuses and never calls the stub."""
    suite, calls = _stub_body(monkeypatch, name)
    least, param = LEAST_N[name], suite.floor_param
    assert suite.min_n == least
    with pytest.raises(ValueError) as refused:
        exhaustive_check(name, **{param: least - 1})
    assert str(refused.value) == (
        f"{name} needs {param} >= {least} for {suite.needs}, got {param}={least - 1}"
    )
    assert calls == []
    assert exhaustive_check(name, **{param: least}).ok
    assert calls == [least]


def test_lemma_2_7_size_limit_is_checked_before_any_sampling(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-2.7")


def test_lemma_4_1_size_limit_is_checked_before_the_sweep(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-4.1")


def test_thm_5_2_size_limit_is_checked_before_the_desk_check(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "thm-5.2")


def test_lemma_5_1_size_limit_is_checked_before_either_family(monkeypatch):
    _check_limit_before_the_body(monkeypatch, "lemma-5.1")

